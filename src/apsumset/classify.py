"""The complete classification of 5-term progressions, and sweeps against it.

Every 5-term arithmetic progression N, N+D, ..., N+4D inside a sumset
S_{a,b} with b > a > 1 belongs to one of two one-parameter families

    family1(k): (a, b, N, D) = (2, 2^k + 1, 2^k + 1, 2^k)
    family2(k): (a, b, N, D) = (3, 4*3^(k-1) + 1, 3^(k-1) + 1, 2*3^(k-1))

or is one of nine sporadic tuples.  The sweeps here re-derive every k-term
progression (any k >= 3) within a bounded (a, b) grid by exhaustive search;
at k >= 5 each finding is matched against this table on its first five
terms.  They corroborate the classification at desk scale, they do not
prove it.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .apsearch import find_progressions_over
from .numutil import power_exponent
from .sumset import SumsetParams, representations

SPORADIC_5TERM: tuple[tuple[int, int, int, int], ...] = (
    (2, 3, 5, 2),
    (2, 3, 7, 6),
    (2, 3, 9, 8),
    (2, 3, 17, 24),
    (2, 3, 41, 24),
    (2, 5, 5, 8),
    (2, 9, 17, 24),
    (2, 9, 41, 24),
    (3, 4, 7, 6),
)


def family1_tuple(k: int) -> tuple[int, int, int, int]:
    if k < 1:
        raise ValueError("k must be >= 1")
    return (2, 2**k + 1, 2**k + 1, 2**k)


def family2_tuple(k: int) -> tuple[int, int, int, int]:
    if k < 1:
        raise ValueError("k must be >= 1")
    return (3, 4 * 3 ** (k - 1) + 1, 3 ** (k - 1) + 1, 2 * 3 ** (k - 1))


def theorem1_match(a: int, b: int, N: int, D: int) -> tuple[str, int | None] | None:
    """The classification entry matching (a, b, N, D) as (kind, k), or None.

    kind is 'family1', 'family2' or 'sporadic'; k is the family parameter,
    None for a sporadic.  Family parameters are recovered exactly
    (power_exponent on b - 1 resp. (b - 1) / 4); no floating point.
    """
    t = (a, b, N, D)
    if t in SPORADIC_5TERM:
        return ("sporadic", None)
    if a == 2:
        k = power_exponent(b - 1, 2) if b >= 3 else None
        if k is not None and k >= 1 and t == family1_tuple(k):
            return ("family1", k)
    if a == 3 and (b - 1) % 4 == 0:
        e = power_exponent((b - 1) // 4, 3) if b >= 5 else None
        if e is not None and t == family2_tuple(e + 1):
            return ("family2", e + 1)
    return None


class SweepConfig(namedtuple("SweepConfig", "a_max b_max term_limit k")):
    """The grid 2 <= a < b with a <= a_max and b <= b_max, swept for k-term windows with terms <= term_limit."""

    __slots__ = ()

    def __new__(cls, a_max: int, b_max: int, term_limit: int, k: int) -> SweepConfig:
        if not (2 <= a_max <= b_max):
            raise ValueError("need 2 <= a_max <= b_max")
        if k < 3:
            raise ValueError(f"k must be >= 3, got {k}")
        if term_limit < 2:
            raise ValueError(f"limit must be >= 2, got {term_limit}")
        return super().__new__(cls, a_max, b_max, term_limit, k)

    def pair_count(self) -> int:
        """The pairs a < b of the grid, 2 <= a <= a_max and b <= b_max: b_max - a of them for each a."""
        return (self.a_max - 1) * (2 * self.b_max - self.a_max - 2) // 2


# The b of one sweep job: each job shares one a's stored keys across this
# many b, and holds their pair sums and 3-term windows at once.  At both
# 10^9 and 10^30 a's keys are about a fifth of a = 2's first job (b <= 66)
# and two fifths of its second, and at 10^30 the first traces a 5.0 MiB peak.
_B_SLICE = 64


def _sweep_slice(args: tuple[int, list[int], int, int]) -> list[tuple[int, int, int, int, bool]]:
    a, bs, k, limit = args
    return [
        (a, b, *row)
        for b, rows in zip(bs, find_progressions_over(a, bs, k, limit))
        for row in rows
    ]


def _take_jobs(jobs: list[tuple[int, list[int], int, int]], counter) -> list[tuple[int, int, int, int, bool]]:
    """The rows of the jobs this process takes from `counter`, one index at a time, until none is left."""
    rows = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(jobs):
            return rows
        rows += _sweep_slice(jobs[i])


def _sweep_child(jobs: list[tuple[int, list[int], int, int]], counter, sender) -> None:
    """A child's share of a sweep: sends its rows, or the exception that stopped it, once."""
    try:
        share = _take_jobs(jobs, counter)
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(jobs)  # the other processes start no further job
        share = exc
    with sender:
        sender.send(share)


def _collect(child, receiver) -> list[tuple[int, int, int, int, bool]] | BaseException:
    """What `child` sent, its rows or its exception, once it has exited."""
    try:
        with receiver:
            return receiver.recv()
    except EOFError:
        child.join()
        return ChildProcessError(f"a sweep process exited with code {child.exitcode} before sending its rows")
    finally:
        child.join()


def _fork_context():
    """The fork start method's context, or None where the platform has none.

    A sweep's children are forked whatever the default start method
    (forkserver on Linux from Python 3.14, spawn on macOS): a forked child
    starts no interpreter and takes the jobs as the caller holds them.
    multiprocessing is imported here, so an inline sweep never loads it.
    """
    import multiprocessing

    return multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def sweep_grid(cfg: SweepConfig, threads: int = 1) -> list[tuple[int, int, int, int, bool]]:
    """All k-term windows over the (a, b) grid, canonically sorted.

    One job is one a and a run of at most _B_SLICE of its b, in grid order,
    so the a-side keys of the join are built once per job
    (`find_progressions_over`).  The grid a <= 8, b <= 120 is 14 jobs;
    inline they take about 22 ms at 10^9 and 0.82 s at 10^30, on one core
    of a 2-vCPU machine.  At most one process per job and one per CPU
    computes, and a single one runs every job inline, as the caller does
    where the platform cannot fork.  Otherwise the caller forks the other
    processes, and each of them and the caller take job indices one at a
    time, in grid order, from one shared counter; a slow job so holds up
    only the process that runs it.
    Each child sends its rows, or the exception that stopped it, back over
    a pipe, and the caller re-raises such an exception after its own share.
    Whether it returns or raises, the caller first sets the counter past
    the last job and joins every child, so no process outlives the call.
    Results are re-sorted after the merge, so the output does not depend on
    the process count, on who ran which job or on the slice boundaries.
    """
    jobs = [
        (a, list(range(b, min(b + _B_SLICE, cfg.b_max + 1))), cfg.k, cfg.term_limit)
        for a in range(2, cfg.a_max + 1)
        for b in range(a + 1, cfg.b_max + 1, _B_SLICE)
    ]
    workers = min(threads, os.cpu_count() or 1, len(jobs))
    fork = _fork_context() if workers > 1 else None
    if fork is not None:
        counter = fork.Value("i", 0)
        children = []
        try:
            for _ in range(workers - 1):
                receiver, sender = fork.Pipe(duplex=False)
                child = fork.Process(target=_sweep_child, args=(jobs, counter, sender))
                child.start()
                sender.close()  # so the receiver sees EOF if the child dies
                children.append((child, receiver))
            chunks = [_take_jobs(jobs, counter)]
        finally:
            with counter.get_lock():
                counter.value = len(jobs)
            shares = [_collect(child, receiver) for child, receiver in children]
        for share in shares:
            if isinstance(share, BaseException):
                raise share
            chunks.append(share)
    else:
        chunks = [_sweep_slice(j) for j in jobs]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort()
    return rows


class NonextensionRow(namedtuple("NonextensionRow", "family k params next_term extends witness")):
    """Whether one family instance's progression reaches a sixth term.

    ``params`` is (a, b), ``next_term`` is N + 5D, and ``witness`` holds the
    representations of ``next_term`` in S_{a,b}, empty unless it ``extends``.
    """

    __slots__ = ()


def family_nonextension(k_max: int) -> list[NonextensionRow]:
    """Check N + 5D membership for every family instance with k <= k_max.

    Only family1 at k = 1 extends to six terms (13 = 4 + 9); every other
    instance of either family stops at five.  Membership is decided by the
    sumset oracle, not by the algebra that predicts it.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = []
    for name, maker in (("family1", family1_tuple), ("family2", family2_tuple)):
        for k in range(1, k_max + 1):
            a, b, n, d = maker(k)
            nxt = n + 5 * d
            reps = tuple(representations(SumsetParams(a, b), nxt))
            rows.append(NonextensionRow(name, k, (a, b), nxt, bool(reps), reps))
    return rows

