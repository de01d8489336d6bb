"""The benchmark's workloads: seeded CLI command lists with their exact inputs.

Every bound is built as an exact Python int and passed to the CLI as a
plain decimal string, never as ``AeB``.  Seed 0 (the default) runs exactly
the default values written in ``commands`` below; any other seed draws each
bound from the narrow range written next to it, so that the amount of work
stays within a few percent of the default seed's.  Each pass is kept near
one to three seconds, so that a 40 s run holds nine or more passes.

Why each workload exists:

* ``progressions`` -- the O(n^2) pair scan in ``apsearch`` is nearly all of
  the time, at k = 3 and k = 4.  ``sunit`` is idle.
* ``unit-equations`` -- ``sunit`` and ``catalog`` do nearly all of the
  work; ``apsearch`` and ``sumset`` are idle.
* ``classify`` -- the same scan over ~800 tiny value sets in a process
  pool, so per-call overhead and the pool dominate; it is also the only
  workload with membership queries on huge integers (``family verify``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("progressions", "unit-equations", "classify")
SWEEP_THREADS = 2

# Admissible (a, b, delta1, delta2) for the prog3 family:
# b^2 - b^delta2 == 2 a^2 - 2 a^delta1 (checked in _prog3_choice).
PROG3_TUPLES = (
    (5741, 8119, 0, 0),
    (12671, 17920, 0, 1),
    (16731, 23661, 1, 1),
    (23661, 33461, 1, 0),
    (26531, 37521, 0, 1),
    (33461, 47321, 0, 0),
    (73852, 104443, 0, 1),
    (97513, 137904, 1, 1),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the exact inputs the checks compare against.

    ``args`` holds the parsed inputs the checks need; ``echo`` maps each
    manifest parameter the command must echo to its requested value.
    """

    argv: tuple[str, ...]
    kind: str
    args: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _ap(a: int, b: int, k: int, limit: int) -> Command:
    return Command(
        ("ap", str(a), str(b), "--len", str(k), "--limit", str(limit)),
        "ap",
        {"a": a, "b": b, "k": k, "limit": limit},
        {"a": a, "b": b, "len": k, "limit": limit},
    )


def _bb5(alpha_max: int, beta_max: int) -> Command:
    return Command(
        ("sunit", "bb5", "--alpha-max", str(alpha_max), "--beta-max", str(beta_max)),
        "bb5",
        {"alpha_max": alpha_max, "beta_max": beta_max},
        {"alpha_max": alpha_max, "beta_max": beta_max},
    )


def _deweger(z_limit: int) -> Command:
    return Command(
        ("sunit", "deweger", "--z-limit", str(z_limit)),
        "deweger",
        {"z_limit": z_limit},
        {"z_limit": z_limit},
    )


def _dt(p: int, q: int) -> Command:
    return Command(("sunit", "dt", str(p), str(q)), "dt", {"p": p, "q": q}, {"p": p, "q": q})


def _check_all() -> Command:
    return Command(("check", "--all"), "check", {}, {"all": True})


def _sweep(threads: int, a_max: int, b_max: int, k: int, limit: int) -> Command:
    return Command(
        ("--threads", str(threads), "sweep", "--a-max", str(a_max), "--b-max", str(b_max),
         "--len", str(k), "--limit", str(limit)),
        "sweep",
        {"threads": threads, "a_max": a_max, "b_max": b_max, "k": k, "limit": limit},
        {"threads": threads, "a_max": a_max, "b_max": b_max, "len": k, "limit": limit},
    )


def _family_verify(family_id: str, params: dict[str, int]) -> Command:
    text = ",".join(f"{k}={v}" for k, v in params.items())
    return Command(
        ("family", "verify", family_id, "--params", text),
        "family",
        {"family_id": family_id, "params": dict(params)},
        {"action": "verify", "family_id": family_id, "params": text},
    )


def _prog3_pairs(limit: int) -> Command:
    return Command(
        ("family", "prog3-pairs", "--limit", str(limit)),
        "prog3",
        {"limit": limit},
        {"action": "prog3-pairs", "limit": limit},
    )


def _prog3_choice(rng: random.Random | None) -> dict[str, int]:
    a, b, d1, d2 = PROG3_TUPLES[-1] if rng is None else rng.choice(PROG3_TUPLES)
    if b * b - b**d2 != 2 * a * a - 2 * a**d1:
        raise AssertionError(f"prog3 tuple {(a, b, d1, d2)} is not admissible")
    return {"a": a, "b": b, "delta1": d1, "delta2": d2}


def _family_params(rng: random.Random | None) -> list[tuple[str, dict[str, int]]]:
    """Large admissible parameters for all 12 families.

    ``rng is None`` gives the default seed's fixed values; otherwise each
    parameter is drawn from a range around them.
    """

    def pick(default: int, lo: int, hi: int) -> int:
        return default if rng is None else rng.randint(lo, hi)

    # four-term-powers2 with (d, c) = (2, 3): d k - c j = +1 at (k, j) =
    # (2 + 3t, 1 + 2t), and = -1 at (1 + 3t, 1 + 2t).
    t_a = pick(40, 30, 50)
    t_b = pick(40, 30, 50)
    s7 = pick(50, 40, 60)
    return [
        ("three-term-A", {"k": pick(40, 30, 50), "j": pick(200, 180, 220)}),
        ("three-term-B", {"k": pick(40, 30, 50), "j": pick(200, 180, 220)}),
        ("three-term-multdep", {"a": 4, "b": 8, "k": pick(30, 25, 35), "j": pick(40, 35, 45)}),
        ("four-term-powers2-A", {"d": 2, "c": 3, "k": 2 + 3 * t_a, "j": 1 + 2 * t_a, "m": pick(20, 15, 25)}),
        ("four-term-powers2-B", {"d": 2, "c": 3, "k": 1 + 3 * t_b, "j": 1 + 2 * t_b, "m": pick(20, 15, 25)}),
        ("prog1", {"n": pick(10**30, 10**30, 2 * 10**30)}),
        ("prog2", {"k": pick(1000, 900, 1100), "t": pick(20, 18, 22)}),
        ("prog3", _prog3_choice(rng)),
        ("prog4", {"t": pick(60, 50, 70)}),
        ("prog5", {"t": pick(60, 50, 70)}),
        ("prog6", {"t": pick(40, 30, 50)}),
        ("prog7", {"s": s7, "t": s7 + pick(70, 60, 80)}),
    ]


def commands(workload: str, seed: int = DEFAULT_SEED) -> list[Command]:
    """The workload's commands for a seed, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}/{seed}")

    def near(base: int, spread: int) -> int:
        """base for the default seed, else uniform in [base, base + spread)."""
        return base if rng is None else base + rng.randrange(spread)

    if workload == "progressions":
        return [
            _ap(2, 3, 3, near(10**16, 10**15)),
            _ap(3, 5, 4, near(10**20, 10**19)),
        ]
    if workload == "unit-equations":
        # Both exponent boxes hold 63-64 monomials below the value bound 3^12,
        # so the bb5 search costs about the same for either.
        bb5 = _bb5(8, 6) if rng is None else _bb5(*rng.choice(((8, 6), (7, 7))))
        p, q = (2, 3) if rng is None else rng.choice(((2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7)))
        return [bb5, _deweger(near(10**8, 10**7)), _dt(p, q), _check_all()]
    b_max = 120 if rng is None else rng.randint(119, 121)
    return (
        [_sweep(SWEEP_THREADS, 8, b_max, 5, near(10**9, 10**8))]
        + [_family_verify(fid, params) for fid, params in _family_params(rng)]
        + [_prog3_pairs(near(100_000, 2_000))]
    )


def traced_commands(cmds: list[Command]) -> list[Command]:
    """The commands a traced run uses: the sweep in one process.

    Spans recorded in pool workers would be lost, so the traced sweep runs
    with ``--threads 1``; every other command is unchanged.
    """
    out = []
    for c in cmds:
        if c.kind == "sweep":
            a = c.args
            c = _sweep(1, a["a_max"], a["b_max"], a["k"], a["limit"])
        out.append(c)
    return out
