from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsumset.families import FAMILY_IDS, FamilySpec, _recipe, find_prog3_pairs, generate, verify
from apsumset.sumset import SumsetParams


def brute_reps(a, b, n):
    """Every (x, y) with a^x + b^y = n, by a double loop over both exponents."""
    out = []
    ax, x = 1, 0
    while ax < n:
        by, y = 1, 0
        while ax + by <= n:
            if ax + by == n:
                out.append((x, y))
            by *= b
            y += 1
        ax *= a
        x += 1
    return out


@st.composite
def powers2(draw, want):
    """(d, c, k, j, m) with 0 < d < c, gcd(c, d) = 1, dk - cj = want and k, j, m >= 1."""
    c = draw(st.integers(2, 7))
    d = draw(st.integers(1, c - 1).filter(lambda d: gcd(c, d) == 1))
    # k = k0 + c*t >= c + 1 makes j = (dk - want) / c at least 1
    k = want * pow(d, -1, c) % c + c * draw(st.integers(1, 10))
    return {"d": d, "c": c, "k": k, "j": (d * k - want) // c, "m": draw(st.integers(1, 10))}


@st.composite
def multdep(draw):
    g = draw(st.integers(2, 6))
    ea = draw(st.integers(1, 4))
    eb = draw(st.integers(ea + 1, 6))
    return {"a": g**ea, "b": g**eb, "k": draw(st.integers(0, 10)), "j": draw(st.integers(1, 10))}


@st.composite
def prog7(draw):
    s = draw(st.integers(1, 30))
    return {"s": s, "t": draw(st.integers(s + 2, s + 40))}


ADMISSIBLE = {
    "three-term-A": st.fixed_dictionaries({"k": st.integers(1, 40), "j": st.integers(0, 60)}),
    "three-term-B": st.integers(1, 40).flatmap(
        lambda k: st.fixed_dictionaries({"k": st.just(k), "j": st.integers(k + 1, k + 60)})
    ),
    "three-term-multdep": multdep(),
    "four-term-powers2-A": powers2(1),
    "four-term-powers2-B": powers2(-1),
    "prog1": st.fixed_dictionaries({"n": st.integers(2, 10**30)}),
    "prog2": st.fixed_dictionaries({"k": st.integers(1, 50), "t": st.integers(2, 20)}),
    "prog3": st.sampled_from(find_prog3_pairs(2000)).map(
        lambda p: dict(zip(("a", "b", "delta1", "delta2"), p))
    ),
    "prog4": st.fixed_dictionaries({"t": st.integers(1, 40)}),
    "prog5": st.fixed_dictionaries({"t": st.integers(1, 40)}),
    "prog6": st.fixed_dictionaries({"t": st.integers(1, 30)}),
    "prog7": prog7(),
}


def test_every_family_has_a_strategy():
    assert set(ADMISSIBLE) == set(FAMILY_IDS)


@pytest.mark.parametrize("family_id", FAMILY_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generate_matches_closed_form(family_id, data):
    spec = FamilySpec(family_id, data.draw(ADMISSIBLE[family_id]))
    params, closed = _recipe(spec)
    a, b = params.a, params.b
    prog = generate(spec)
    values = [a**x + b**y for x, y in closed]
    assert prog.term_values() == [t.value for t in prog.terms] == values
    assert prog.D >= 1 and prog.length == len(closed)
    for (x, y), term in zip(closed, prog.terms):
        assert list(term.reps) == brute_reps(a, b, term.value)
        assert (x, y) in term.reps
    assert verify(prog, params)


def test_verify_rejects_terms_outside_the_sumset():
    prog = generate(FamilySpec("prog1", {"n": 5}))  # 2, 6, 10, 14 in S_{5,9}
    assert verify(prog, SumsetParams(5, 9))
    assert not verify(prog, SumsetParams(2, 3))  # 6 = 2^x + 3^y has no solution
