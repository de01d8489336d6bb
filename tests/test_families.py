from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsumset.families import FAMILIES, FAMILY_IDS, FamilyConstraintError, find_prog3_pairs, generate

from conftest import brute_reps


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
    "prog3": st.sampled_from(find_prog3_pairs(10**30)).map(
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
    params = data.draw(ADMISSIBLE[family_id])
    base, closed = FAMILIES[family_id](**params)
    a, b = base.a, base.b
    got, terms = generate(family_id, params)
    assert got == base
    values = [a**x + b**y for x, y in closed]
    assert [v for v, _ in terms] == values
    assert values[1] - values[0] >= 1
    for (x, y), (v, reps) in zip(closed, terms):
        assert reps == brute_reps(a, b, v)
        assert (x, y) in reps


def powers2_reference(d, c, k, j, m, want):
    """The exponent pairs as exponents of 2, (kd, jc) shifted by mcd, divided by (d, c)."""
    if want == 1:
        pairs2 = [(k * d, j * c), (k * d, j * c + m * c * d), (k * d + m * c * d, j * c),
                  (k * d + m * c * d, j * c + m * c * d)]
    else:
        pairs2 = [(k * d, j * c), (k * d + m * c * d, j * c), (k * d, j * c + m * c * d),
                  (k * d + m * c * d, j * c + m * c * d)]
    assert all(e1 % d == 0 and e2 % c == 0 for e1, e2 in pairs2)
    return [(e1 // d, e2 // c) for e1, e2 in pairs2]


@pytest.mark.parametrize("family_id, want", [("four-term-powers2-A", 1), ("four-term-powers2-B", -1)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_powers2_closed_form_matches_the_2_adic_reference(family_id, want, data):
    params = data.draw(powers2(want))
    base, closed = FAMILIES[family_id](**params)
    assert (base.a, base.b) == (2 ** params["d"], 2 ** params["c"])
    assert closed == powers2_reference(**params, want=want)


@pytest.mark.parametrize(
    "family_id, params, name",
    [("prog1", {"n": 5, "k": 3}, "k"), ("three-term-B", {"k": 1}, "j"), ("prog1", {"n": 5, "typo": 9}, "typo"),
     ("prog1", {" n": 5}, " n")],
    ids=["unknown-k", "missing-j", "unknown-typo", "unknown-before-missing"],
)
def test_missing_or_unknown_parameter_refused(family_id, params, name):
    with pytest.raises(FamilyConstraintError, match=f"'{name}'"):
        generate(family_id, params)


def test_constraint_message_names_the_family():
    with pytest.raises(FamilyConstraintError, match=r"^prog7: 1 <= s <= t - 2 required$"):
        generate("prog7", {"s": 3, "t": 4})
    with pytest.raises(FamilyConstraintError, match="unknown family 'prog8'"):
        generate("prog8", {})


def test_prog3_pairs_match_brute_force():
    # b^2 - b^d2 = 2a^2 - 2a^d1 with b > a forces b < 2a
    brute = [
        (a, b, d1, d2)
        for a in range(2, 400)
        for b in range(a + 1, 2 * a)
        for d1 in (0, 1)
        for d2 in (0, 1)
        if b**2 - b**d2 == 2 * a**2 - 2 * a**d1
    ]
    assert find_prog3_pairs(399) == sorted(brute)
    assert len(brute) > 4


def scan_prog3_pairs(limit):
    """The prog3 rows with a <= limit, by an integer square root for every a and (d1, d2)."""
    out = []
    for d1, d2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for a in range(2, limit + 1):
            # b^2 - d2 b - (1 - d2) = 2a^2 - 2a^d1, so b = (d2 + r) / 2 with r^2 = disc
            disc = 8 * (a * a - a**d1) + 4 - 3 * d2
            r = isqrt(disc)
            if r * r == disc and (d2 + r) % 2 == 0 and (d2 + r) // 2 > a:
                out.append((a, (d2 + r) // 2, d1, d2))
    out.sort()
    return out


def test_prog3_pairs_match_scan():
    scanned = scan_prog3_pairs(2000)
    for limit in range(2, 2001):
        assert find_prog3_pairs(limit) == [row for row in scanned if row[0] <= limit]
    assert find_prog3_pairs(10**5) == scan_prog3_pairs(10**5)


def test_prog3_pairs_cut_at_limit():
    rows = find_prog3_pairs(10**30)
    for a, *_ in rows:
        for limit in (a - 1, a):
            if limit < 2:
                with pytest.raises(ValueError):
                    find_prog3_pairs(limit)
                continue
            assert find_prog3_pairs(limit) == [row for row in rows if row[0] <= limit]
