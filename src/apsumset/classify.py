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
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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


@dataclass(frozen=True)
class SweepConfig:
    a_max: int
    b_max: int
    term_limit: int
    k: int

    def __post_init__(self) -> None:
        if not (2 <= self.a_max <= self.b_max):
            raise ValueError("need 2 <= a_max <= b_max")
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        if self.term_limit < 2:
            raise ValueError(f"limit must be >= 2, got {self.term_limit}")

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a in range(2, self.a_max + 1)
            for b in range(a + 1, self.b_max + 1)
        ]


# The b of one sweep job: each job shares one a's stored keys across this
# many b, and holds their value sets and pair sums at once.
_B_SLICE = 32


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


def sweep_grid(cfg: SweepConfig, threads: int = 1) -> list[tuple[int, int, int, int, bool]]:
    """All k-term windows over the (a, b) grid, canonically sorted.

    One job is one a and a slice of at most _B_SLICE of its b, taken from
    `SweepConfig.pairs` in order, so the a-side keys of the join are built
    once per job (`find_progressions_over`).  At most one process per job
    and one per CPU computes, and a single one runs every job inline.
    Otherwise the caller starts the other processes, and each of them and
    the caller take job indices one at a time, in grid order, from one
    shared counter; a slow job so holds up only the process that runs it.
    Each child sends its rows, or the exception that stopped it, back over
    a pipe, and the caller re-raises such an exception after its own share.
    Whether it returns or raises, the caller first sets the counter past
    the last job and joins every child, so no process outlives the call.
    Results are re-sorted after the merge, so the output does not depend on
    the process count, on who ran which job or on the slice boundaries.
    """
    jobs = []
    for a, pairs in groupby(cfg.pairs(), key=itemgetter(0)):
        bs = [b for _, b in pairs]
        jobs += [(a, bs[i : i + _B_SLICE], cfg.k, cfg.term_limit) for i in range(0, len(bs), _B_SLICE)]
    workers = min(threads, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        import multiprocessing

        counter = multiprocessing.Value("i", 0)
        children = []
        try:
            for _ in range(workers - 1):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_sweep_child, args=(jobs, counter, sender))
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


@dataclass(frozen=True)
class NonextensionRow:
    family: str
    k: int
    params: tuple[int, int]  # (a, b)
    next_term: int  # N + 5D
    extends: bool
    witness: tuple[tuple[int, int], ...]  # representations if it extends


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

