"""Reference loops: fixed work, independent of the program, timed beside each pass.

On a shared VM the machine's speed drifts by a quarter or more between
runs a few minutes apart, so a pass time in seconds says as much about the
neighbours as about the program.  Each untraced pass is therefore followed
by its workload's reference loop, and the end-to-end pass metrics are the
pass time over the reference time (run.py).  The loops never call the
program and never change, so a change to the program moves the ratio and a
change in the machine's speed moves both sides of it.

Each workload's loop does the same kind of work as its commands, because
the machine's slow spells do not slow every kind of work alike:

* ``pair_scan`` -- a capped pair loop over a sorted list of big ints with
  set lookups, as in the ``apsearch`` scan (``progressions``, ``classify``).
* ``pooled_sweep`` -- the same scan for many small base pairs, mapped over
  a pool of two processes, as in the classify sweep (``classify``).
* ``box_walk`` -- every tuple of an exponent box, its terms summed, as in
  ``sunit.solve_pattern`` under ``check --all`` (``unit-equations``).
* ``pair_sums`` -- a dict of pair differences built and probed, as in the
  ``sunit`` meet-in-the-middle solvers (``unit-equations``).
* ``sorted_join`` -- a Python loop of numpy slice, mask and
  ``searchsorted`` calls, as in the de Weger join (``unit-equations``).

numpy is imported inside ``sorted_join``, so that set-up time and the
peak RSS read after the first pass stay the program's own.
"""

from __future__ import annotations

import itertools
import multiprocessing
import resource
import time


def _scan(a: int, b: int, limit: int) -> int:
    """3-term progressions (s0, s1, 2 s1 - s0) in {a^x + b^y} up to limit.

    The loop has the shape of the ``apsearch`` scan: indexed pairs over the
    sorted values, a cap that ends the inner loop, and a set lookup.
    """
    members = set()
    ax = 1
    while ax < limit:
        by = 1
        while ax + by <= limit:
            members.add(ax + by)
            by *= b
        ax *= a
    ordered = sorted(members)
    n = len(ordered)
    hits = 0
    for i in range(n):
        s0 = ordered[i]
        cap = limit + s0
        for j in range(i + 1, n):
            s1 = ordered[j]
            if 2 * s1 > cap:
                break
            if 2 * s1 - s0 in members:
                hits += 1
    return hits


def pair_scan() -> int:
    """The scan over {2^x + 3^y} up to 10^14, about 1,400 values."""
    return _scan(2, 3, 10**14)


def pooled_sweep() -> int:
    """The scan up to 10^10 for 128 base pairs, mapped over two forked workers.

    The classify sweep maps its ~800 base pairs over a ``multiprocessing.Pool``
    of two forked workers, so it slows when either CPU is taken and pays
    for the pool's start and the results' transfer; a loop run in one
    process would see none of that.  Fork, not spawn, because spawn would
    time an interpreter start that the sweep's pool does not do.
    """
    jobs = [(a, b, 10**10) for a in range(2, 6) for b in range(a + 1, a + 33)]
    pool = multiprocessing.get_context("fork").Pool(2)
    try:
        return sum(pool.starmap(_scan, jobs))
    finally:
        pool.close()
        pool.join()


def box_walk() -> int:
    """Zeros of 2^a - 3^b + 2^c 3^d - 1 over a box of 249,600 exponent tuples.

    Walked the way ``sunit.solve_pattern`` walks a pattern: every tuple of
    the box, each term's value taken from power tables and summed.
    """
    p_pows = [2**e for e in range(40)]
    q_pows = [3**e for e in range(26)]
    # (coefficient, position of the 2-exponent, position of the 3-exponent)
    terms = ((1, 0, None), (-1, None, 1), (1, 2, 3), (-1, None, None))
    hits = 0
    for exps in itertools.product(range(40), range(26), range(12), range(20)):
        total = 0
        values = []
        for coeff, pi, qi in terms:
            v = coeff * (1 if pi is None else p_pows[exps[pi]]) * (1 if qi is None else q_pows[exps[qi]])
            values.append(v)
            total += v
        if total == 0:
            hits += 1
    return hits


def pair_sums() -> int:
    """Differences of {5^x + 7^y} split 600/300, keyed in a dict and probed."""
    vals = [5**x + 7**y for x in range(60) for y in range(50)]
    diffs: dict[int, list[int]] = {}
    for i, v in enumerate(vals[:600]):
        for w in vals[600:900]:
            diffs.setdefault(v - w, []).append(i)
    return sum(1 for v in vals if -v in diffs)


def sorted_join() -> int:
    """x + y = z with masks disjoint over 6,000 sorted int64s, the de Weger join's way.

    A Python loop over x, each step a few numpy calls on a slice: mask the
    y range, add x, ``searchsorted`` the sums back into the array.
    """
    import numpy as np

    n = 6_000
    rng = np.random.default_rng(1)
    arr = np.cumsum(rng.integers(1, 1000, size=n))
    masks = rng.integers(0, 64, size=n)
    limit = int(arr[-1])
    hits = 0
    for i in range(n):
        x = int(arr[i])
        if 2 * x > limit:
            break
        hi = int(np.searchsorted(arr, limit - x, side="right"))
        sums = arr[i:hi][(masks[i:hi] & masks[i]) == 0] + x
        pos = np.minimum(np.searchsorted(arr, sums), n - 1)
        hits += int((arr[pos] == sums).sum())
    return hits


# Each workload's loops, sized to take about a quarter to a third of a
# round.  Within a run the machine's speed also changes from one second to
# the next, so each side of the ratio carries noise that shrinks with the
# time spent on it.  Were that noise independent on the two sides, with the
# loops at a fraction f of a round the ratio's variance would go as
# 1/f + 1/(1 - f): least at one half, a third more at a quarter, and nearly
# three times as much at a tenth.
LOOPS = {
    "progressions": (pair_scan,) * 2,
    "unit-equations": (box_walk, pair_sums, sorted_join) * 2,
    "classify": (pooled_sweep, pair_scan),
}


def _cpu() -> float:
    return sum(ru.ru_utime + ru.ru_stime
               for ru in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def run(workload: str) -> tuple[float, float]:
    """Run the workload's reference loops once: (wall seconds, CPU seconds).

    CPU time counts the process and its pool workers, as a pass's does.
    """
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for loop in LOOPS[workload]:
        loop()
    return time.perf_counter() - t0, _cpu() - cpu0
