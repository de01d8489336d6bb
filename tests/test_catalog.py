import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apsumset import catalog
from apsumset.catalog import (
    CASE_B4_STEP1,
    CASE_B9_STEP1,
    CASE_OUT_OF_HYPOTHESIS,
    CASE_POW23_PLUS_ONE,
    CASE_SPORADIC,
    CASE_UNLISTED,
    KINDS,
    LEMMA_SPORADIC,
    LEMMA_SPORADIC_PRINTED,
    SIDE_PREDICATES,
    LemmaSolution,
    build_pattern,
    kruk_scan,
    lemma21_classify,
    lemma21_solve,
    registry,
    rn_scan,
    run_all,
    run_check,
)
from apsumset.numutil import factor_over, iroot


def solve_lemma21(b_min, b_max, x_max, alpha_max, beta_max):
    """The Lemma 2.1 solutions by splitting each difference into its {2, 3} part by trial division."""
    out = []
    for b in range(b_min, b_max + 1):
        for x in range(1, x_max + 1):
            for y in range(x):
                exps, cofactor = factor_over(b**x - b**y, (2, 3))
                if cofactor == 1 and exps[2] <= alpha_max and exps[3] <= beta_max:
                    out.append(LemmaSolution(b, x, y, exps[2], exps[3]))
    return out


class TestLemmaSolve:
    def test_b5(self):
        got = [(s.x, s.y, s.alpha, s.beta) for s in lemma21_solve(5, 5, 4, 10, 10)]
        # 5 - 1 = 4 = 2^2 and 25 - 1 = 24 = 2^3 * 3
        assert got == [(1, 0, 2, 0), (2, 0, 3, 1)]

    def test_b3_adjacent_family(self):
        sols = lemma21_solve(3, 3, 6, 10, 10)
        for y in range(5):
            assert any((s.x, s.y, s.alpha, s.beta) == (y + 1, y, 1, y) for s in sols)

    def test_b4_family(self):
        sols = lemma21_solve(4, 4, 6, 20, 10)
        for y in range(5):
            assert any((s.x, s.y, s.alpha, s.beta) == (y + 1, y, 2 * y, 1) for s in sols)

    def test_solution_invariant(self):
        with pytest.raises(ValueError):
            LemmaSolution(5, 1, 0, 3, 1)  # 4 != 24

    def test_exponent_order_invariant(self):
        # 2 - 2^-1 = 2^-1 * 3 holds in floats, so only the order guard refuses it
        with pytest.raises(ValueError, match="need x > y >= 0"):
            LemmaSolution(2, 1, -1, -1, 1)

    def test_bounds_respected(self):
        for s in lemma21_solve(2, 2, 8, 3, 20):
            assert s.alpha <= 3

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 150).flatmap(lambda b_min: st.tuples(st.just(b_min), st.integers(b_min, 150))),
        st.integers(1, 9), st.integers(1, 35), st.integers(1, 22),
    )
    @example((2, 2), 1, 1, 1)
    @example((2, 3), 1, 1, 1)
    @example((2, 150), 9, 35, 22)
    def test_matches_trial_division(self, b_range, x_max, alpha_max, beta_max):
        bounds = (*b_range, x_max, alpha_max, beta_max)
        assert lemma21_solve(*bounds) == solve_lemma21(*bounds)


class TestLemmaClassify:
    def test_sporadic_7(self):
        assert lemma21_classify(LemmaSolution(7, 2, 0, 4, 1)) == CASE_SPORADIC

    def test_family_13(self):
        # 13 = 2^2 * 3 + 1
        assert lemma21_classify(LemmaSolution(13, 1, 0, 2, 1)) == CASE_POW23_PLUS_ONE

    def test_corrected_17(self):
        # recorded as x = 1, but 17^2 - 1 = 288 = 2^5 * 3^2 forces x = 2
        assert lemma21_classify(LemmaSolution(17, 2, 0, 5, 2)) == CASE_SPORADIC

    def test_b9(self):
        assert lemma21_classify(LemmaSolution(9, 3, 2, 3, 4)) == CASE_B9_STEP1

    def test_b4(self):
        assert lemma21_classify(LemmaSolution(4, 3, 2, 4, 1)) == CASE_B4_STEP1

    def test_b2_out_of_hypothesis(self):
        # 4 - 2 = 2: no recorded case covers b = 2 with y > 0
        assert lemma21_classify(LemmaSolution(2, 2, 1, 1, 0)) == CASE_OUT_OF_HYPOTHESIS

    def test_b2_recorded_sporadic(self):
        assert lemma21_classify(LemmaSolution(2, 2, 0, 0, 1)) == CASE_SPORADIC

    def test_unlisted_never_fires_for_3_to_100(self):
        for s in lemma21_solve(3, 100, 8, 30, 20):
            assert lemma21_classify(s) != CASE_UNLISTED, s


def scan_kruk(b_min, b_max, exp_max):
    """The Kruk rows by every y1 <= exp_max, with no cap on b^y1."""
    out = []
    for b in range(b_min, b_max + 1):
        for y1 in range(exp_max + 1):
            target = 2 * b**y1 - 1
            by2 = 1
            for y2 in range(exp_max + 1):
                r = target - by2
                if r < 1:
                    break
                if r & (r - 1) == 0:  # power of two
                    x0 = r.bit_length() - 1
                    if x0 <= exp_max:
                        out.append((b, x0, y1, y2))
                by2 *= b
    out.sort()
    return out


def scan_rn(e_max):
    """The rn rows by an integer m-th root of each value for every m up to its bit length."""
    out = []
    for e1 in range(2, e_max + 1):
        for e2 in range(1, e1):
            val = (1 << e1) + (1 << e2) + 1
            for m in range(2, val.bit_length() + 1):
                b = iroot(val, m)
                if b >= 2 and b**m == val:
                    out.append((b, m, e1, e2))
    out.sort()
    return out


class TestScans:
    def test_kruk_only_b_2k_plus_1(self):
        from apsumset.numutil import power_exponent

        for b, x0, y1, y2 in kruk_scan(3, 1025, 20):
            assert 1 + b**y2 + 2**x0 == 2 * b**y1
            assert power_exponent(b - 1, 2) is not None

    @pytest.mark.parametrize("exp_max", [0, 1, 2, 10, 20, 40])
    def test_kruk_matches_scan(self, exp_max):
        scanned = scan_kruk(2, 5000, exp_max)
        for b_min in (2, 3):
            for b_max in (1, 2, 3, 5, 9, 17, 1024, 1025, 1026, 5000):
                want = [row for row in scanned if b_min <= row[0] <= b_max]
                assert kruk_scan(b_min, b_max, exp_max) == want

    def test_kruk_keeps_the_row_at_the_cap(self):
        # b^y1 = 1025 = 2^10 + 1 exactly
        assert kruk_scan(1025, 1025, 10) == [(1025, 10, 1, 1)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 1100).flatmap(lambda b_min: st.tuples(st.just(b_min), st.integers(b_min - 1, b_min + 30))),
        st.integers(0, 40),
    )
    @example((2, 10), 0)
    @example((2, 10), 5)
    @example((1025, 1025), 10)
    def test_kruk_matches_scan_on_random_ranges(self, b_range, exp_max):
        assert kruk_scan(*b_range, exp_max) == scan_kruk(*b_range, exp_max)

    @pytest.mark.parametrize("e_max", [2, 12, 20, 30])
    def test_rn_matches_scan(self, e_max):
        assert rn_scan(e_max) == scan_rn(e_max)

    def test_rn_scan_rows_verify(self):
        rows = rn_scan(12)
        assert (7, 2, 5, 4) in rows
        for b, m, e1, e2 in rows:
            assert b**m == 2**e1 + 2**e2 + 1 and e1 > e2 >= 1 and m >= 2


class TestRegistry:
    def test_required_ids_present(self):
        required = {
            "sec3-baj-eq15",
            "sec3-dt-3y2",
            "sec4-pillai-list",
            "sec4-szalay",
            "sec5-rn-family",
            "sec5-deweger-11-5m",
            "kruk-b-scan",
            "lemma21-sweep",
        }
        assert required <= set(registry())

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown check id 'no-such-check'"):
            run_check("no-such-check")

    def test_entries_carry_bounds_and_expected(self):
        for check in registry().values():
            assert check.solver.get("kind")
            assert isinstance(check.expected, tuple)


class TestRunCheck:
    def test_pillai_all_thirteen(self):
        rep = run_check("sec4-pillai-list")
        assert rep["passed"] and not rep["flagged"]
        assert len(rep["found"]) == 13
        assert rep["missing"] == [] and rep["undocumented_extra"] == rep["documented_extra"] == []
        assert rep["expected_recheck_failures"] == []

    def test_baj_eq15_exact_pair(self):
        rep = run_check("sec3-baj-eq15")
        assert rep["passed"]
        assert set(rep["found"]) == {(3, 0, 2, 1, 0), (1, 2, 3, 0, 0)}

    @pytest.mark.parametrize(
        "assignment",
        [{"x2": 1, "x3": 0, "y2": 0, "y3": 1, "y0": 0}, {"x2": 0, "x3": 2, "y2": 1, "y3": 0, "y0": 0}],
        ids=["x3-and-y2-zero", "y3-and-x2-zero"],
    )
    def test_baj_eq15_context_refuses_a_zero_pair(self, assignment):
        assert SIDE_PREDICATES["baj-eq15-context"][1](assignment) is False

    def test_dt_3y2(self):
        rep = run_check("sec3-dt-3y2")
        assert rep["passed"] and rep["found"] == [(2, 1, 1)]

    def test_szalay(self):
        rep = run_check("sec4-szalay")
        assert rep["passed"] and rep["found"] == [(2, 5, 3)]

    def test_deweger_11_5m(self):
        rep = run_check("sec5-deweger-11-5m")
        assert rep["passed"] and rep["found"] == [(0, 0, 3)]

    def test_rn_family_flags_square_family(self):
        rep = run_check("sec5-rn-family")
        assert rep["passed"] and rep["flagged"]
        assert rep["missing"] == []
        # every extra is a member of the square family (2^t+1)^2
        for b, m, e1, e2 in rep["documented_extra"]:
            t = e2 - 1
            assert m == 2 and b == 2**t + 1 and e1 == 2 * t
        assert rep["undocumented_extra"] == []

    def test_kruk_scan_check(self):
        rep = run_check("kruk-b-scan")
        assert rep["passed"]
        assert len(rep["found"]) == 22

    def test_recheck_refuses_a_solution_outside_the_box(self):
        # 1 + 2049^0 + 2^12 = 2 * 2049 holds, but b = 2049 lies above the check's b_max = 1025
        solver = registry()["kruk-b-scan"].solver
        assert 1 + 2049**0 + 2**12 == 2 * 2049 and solver["b_max"] < 2049
        assert KINDS["kruk_scan"](solver)[2]([2049, 12, 1, 0]) is False

    @pytest.mark.parametrize("check_id, row", [
        ("sec3-dt-3y2", [10**12, 1, 1]),
        ("sec4-pillai-list", [2, 3, 10**12, 1, 1, 0]),
        ("sec5-rn-family", [3, 2, 10**12, 4]),
        ("kruk-b-scan", [3, 10**12, 1, 1]),
        ("lemma21-sweep", [17, 10**12, 0, 5, 2]),
    ], ids=["pattern", "pillai_table", "rn_scan", "kruk_scan", "lemma21_sweep"])
    def test_recheck_refuses_a_huge_exponent_uncomputed(self, check_id, row):
        # the box is checked before any power: 3^(10^12) alone would need about 200 GB
        solver = registry()[check_id].solver
        assert KINDS[solver["kind"]](solver)[2](row) is False

    def test_lemma_sweep_discrepancy_details(self):
        rep = run_check("lemma21-sweep")
        assert rep["passed"] and rep["flagged"]
        assert rep["found"] == []  # no unlisted solutions
        # the printed (17, 1, 5, 2) fails the exact re-check; (17, 2, 5, 2) replaces it
        assert [t for t in LEMMA_SPORADIC_PRINTED if t not in LEMMA_SPORADIC] == [(17, 1, 5, 2)]
        assert [t for t in LEMMA_SPORADIC if t not in LEMMA_SPORADIC_PRINTED] == [(17, 2, 5, 2)]
        with pytest.raises(ValueError):
            LemmaSolution(17, 1, 0, 5, 2)  # 17 - 1 != 288
        assert lemma21_classify(LemmaSolution(17, 2, 0, 5, 2)) == CASE_SPORADIC

    def test_run_all_passes(self):
        reports = run_all()
        assert [r["id"] for r in reports] == sorted(r["id"] for r in reports)
        assert all(r["passed"] for r in reports)
        flagged = {r["id"] for r in reports if r["flagged"]}
        assert flagged == {"sec5-rn-family", "lemma21-sweep"}


PAIRS_DOMAIN = "a list of pairs of distinct primes below 3317044064679887385961981"
# (check id, path in the entry, new value or ... to delete, the ValueError message)
MALFORMED = {
    "pattern-missing-key": ("sec4-szalay", ("solver", "terms"), ..., "check 'sec4-szalay': pattern lacks terms"),
    "pattern-bool-int": ("sec3-dt-3y2", ("solver", "p"), True, "check 'sec3-dt-3y2': p and q must be integers"),
    "pattern-str-bound": (
        "sec3-baj-eq15", ("solver", "bounds", 0, 1), "19",
        "check 'sec3-baj-eq15': bounds must be [name, integer] pairs",
    ),
    "pattern-row-length": (
        "sec3-dt-3y2", ("expected",), [[2, 1]],
        "check 'sec3-dt-3y2': expected row [2, 1] must be 3 nonnegative integers",
    ),
    "pillai-missing-key": (
        "sec4-pillai-list", ("solver", "power_bound"), ..., "check 'sec4-pillai-list': solver lacks key 'power_bound'"
    ),
    "pillai-str-int": (
        "sec4-pillai-list", ("solver", "power_bound"), "32768",
        "check 'sec4-pillai-list': solver key 'power_bound' must be an integer >= 1, got '32768'",
    ),
    "pillai-bool-pair": (
        "sec4-pillai-list", ("solver", "prime_pairs", 0, 1), True,
        f"check 'sec4-pillai-list': solver key 'prime_pairs' must be {PAIRS_DOMAIN}, "
        "got [[2, True], [2, 5], [2, 7], [3, 5], [3, 7]]",
    ),
    "pillai-power-bound-0": (
        "sec4-pillai-list", ("solver", "power_bound"), 0,
        "check 'sec4-pillai-list': solver key 'power_bound' must be an integer >= 1, got 0",
    ),
    "pillai-composite-pair": (
        "sec4-pillai-list", ("solver", "prime_pairs"), [[4, 3]],
        f"check 'sec4-pillai-list': solver key 'prime_pairs' must be {PAIRS_DOMAIN}, got [[4, 3]]",
    ),
    "pillai-equal-pair": (
        "sec4-pillai-list", ("solver", "prime_pairs"), [[2, 2]],
        f"check 'sec4-pillai-list': solver key 'prime_pairs' must be {PAIRS_DOMAIN}, got [[2, 2]]",
    ),
    "pillai-prime-beyond-bound": (  # a prime above is_prime's proven bound
        "sec4-pillai-list", ("solver", "prime_pairs", 0, 1), 10**25 + 13,
        f"check 'sec4-pillai-list': solver key 'prime_pairs' must be {PAIRS_DOMAIN}, "
        "got [[2, 10000000000000000000000013], [2, 5], [2, 7], [3, 5], [3, 7]]",
    ),
    "pillai-row-length": (
        "sec4-pillai-list", ("expected", 0), [2, 3, 2, 1, 1],
        "check 'sec4-pillai-list': expected row [2, 3, 2, 1, 1] must be 6 nonnegative integers",
    ),
    "rn-missing-key": ("sec5-rn-family", ("solver", "e_max"), ..., "check 'sec5-rn-family': solver lacks key 'e_max'"),
    "rn-bool-int": (
        "sec5-rn-family", ("solver", "e_max"), True,
        "check 'sec5-rn-family': solver key 'e_max' must be an integer, got True",
    ),
    "rn-row-length": (
        "sec5-rn-family", ("expected", 0), [3, 4, 6],
        "check 'sec5-rn-family': expected row [3, 4, 6] must be 4 nonnegative integers",
    ),
    "rn-extras-row-length": (
        "sec5-rn-family", ("documented_extras", 0), [5, 2, 4, 3, 0],
        "check 'sec5-rn-family': documented_extras row [5, 2, 4, 3, 0] must be 4 nonnegative integers",
    ),
    "kruk-missing-key": ("kruk-b-scan", ("solver", "b_min"), ..., "check 'kruk-b-scan': solver lacks key 'b_min'"),
    "kruk-str-int": (
        "kruk-b-scan", ("solver", "b_max"), "1025",
        "check 'kruk-b-scan': solver key 'b_max' must be an integer, got '1025'",
    ),
    "kruk-b-min-1": (
        "kruk-b-scan", ("solver", "b_min"), 1, "check 'kruk-b-scan': solver key 'b_min' must be an integer >= 2, got 1"
    ),
    "kruk-b-min-negative": (
        "kruk-b-scan", ("solver", "b_min"), -3,
        "check 'kruk-b-scan': solver key 'b_min' must be an integer >= 2, got -3",
    ),
    "kruk-exp-max-negative": (
        "kruk-b-scan", ("solver", "exp_max"), -1,
        "check 'kruk-b-scan': solver key 'exp_max' must be an integer >= 0, got -1",
    ),
    "kruk-row-length": (
        "kruk-b-scan", ("expected", 0), [3, 1, 1],
        "check 'kruk-b-scan': expected row [3, 1, 1] must be 4 nonnegative integers",
    ),
    "kruk-negative-row": (
        "kruk-b-scan", ("expected", 0), [3, -1, 1, 1],
        "check 'kruk-b-scan': expected row [3, -1, 1, 1] must be 4 nonnegative integers",
    ),
    "lemma21-missing-key": (
        "lemma21-sweep", ("solver", "beta_max"), ..., "check 'lemma21-sweep': solver lacks key 'beta_max'"
    ),
    "lemma21-bool-int": (
        "lemma21-sweep", ("solver", "x_max"), False,
        "check 'lemma21-sweep': solver key 'x_max' must be an integer >= 1, got False",
    ),
    "lemma21-b-min-1": (
        "lemma21-sweep", ("solver", "b_min"), 1,
        "check 'lemma21-sweep': solver key 'b_min' must be an integer >= 2, got 1",
    ),
    "lemma21-x-max-0": (
        "lemma21-sweep", ("solver", "x_max"), 0,
        "check 'lemma21-sweep': solver key 'x_max' must be an integer >= 1, got 0",
    ),
    "lemma21-beta-max-0": (
        "lemma21-sweep", ("solver", "beta_max"), 0,
        "check 'lemma21-sweep': solver key 'beta_max' must be an integer >= 1, got 0",
    ),
    "lemma21-row-length": (
        "lemma21-sweep", ("expected",), [[17, 1, 5, 2]],
        "check 'lemma21-sweep': expected row [17, 1, 5, 2] must be 5 nonnegative integers",
    ),
    "lemma21-note-not-str": (
        "lemma21-sweep", ("discrepancy_note",), 1, "check 'lemma21-sweep': discrepancy_note must be a string, got 1"
    ),
    "pattern-extra-key": (
        "sec3-baj-eq15", ("solver", "side_predicte"), "baj-eq15-context",
        "check 'sec3-baj-eq15': unknown pattern key 'side_predicte'; known: p, q, terms, bounds, side_predicate",
    ),
    "pattern-require-primitive": (
        "sec3-dt-3y2", ("solver", "require_primitive"), True,
        "check 'sec3-dt-3y2': unknown pattern key 'require_primitive'; known: p, q, terms, bounds, side_predicate",
    ),
    "pattern-undeclared-predicate-variable": (
        "sec3-dt-3y2", ("solver", "side_predicate"), "szalay-context",
        "check 'sec3-dt-3y2': side_predicate 'szalay-context' reads u, v, which the pattern does not declare",
    ),
    "pillai-extra-key": (
        "sec4-pillai-list", ("solver", "power_bnd"), 32768,
        "check 'sec4-pillai-list': solver key 'power_bnd' is not one of prime_pairs, power_bound",
    ),
    "rn-extra-key": (
        "sec5-rn-family", ("solver", "e_min"), 2, "check 'sec5-rn-family': solver key 'e_min' is not one of e_max"
    ),
    "kruk-extra-key": (
        "kruk-b-scan", ("solver", "exp_min"), 0,
        "check 'kruk-b-scan': solver key 'exp_min' is not one of b_min, b_max, exp_max",
    ),
    "lemma21-extra-key": (
        "lemma21-sweep", ("solver", "y_max"), 8,
        "check 'lemma21-sweep': solver key 'y_max' is not one of b_min, b_max, x_max, alpha_max, beta_max",
    ),
    "unknown-kind": (
        "kruk-b-scan", ("solver", "kind"), "kruk",
        "check 'kruk-b-scan': solver kind 'kruk' is not one of "
        "pattern, pillai_table, rn_scan, kruk_scan, lemma21_sweep",
    ),
    "duplicate-id": (
        "kruk-b-scan", ("id",), "lemma21-sweep", "check 'lemma21-sweep': id must be a string that no other check uses"
    ),
    "misspelt-note-key": (  # the lemma's off-by-one would load unflagged
        "lemma21-sweep", ("discrepancy_notes",), "printed sporadic (17, 1, 5, 2) fails the exact re-check",
        "check 'lemma21-sweep': entry key 'discrepancy_notes' is not one of "
        "id, solver, expected, documented_extras, discrepancy_note, anchor, description",
    ),
    "extras-row-not-a-solution": (  # 3^2 != 2^3 + 2^2 + 1
        "sec5-rn-family", ("documented_extras", 0), [3, 2, 3, 2],
        "check 'sec5-rn-family': documented_extras row [3, 2, 3, 2] fails the exact re-check",
    ),
    "extras-row-outside-box": (  # 1 + 2049^0 + 2^12 = 2 * 2049, but the scan stops at b = 1025
        "kruk-b-scan", ("documented_extras",), [[2049, 12, 1, 0]],
        "check 'kruk-b-scan': documented_extras row [2049, 12, 1, 0] fails the exact re-check",
    ),
}

# (check id, a well-shaped expected row that fails exact re-verification)
WRONG_ROWS = {
    "pattern": ("sec3-dt-3y2", [2, 1, 2]),
    "pillai_table": ("sec4-pillai-list", [2, 3, 2, 1, 1, 1]),
    "rn_scan": ("sec5-rn-family", [3, 4, 6, 5]),
    "kruk_scan": ("kruk-b-scan", [3, 1, 1, 2]),
    "lemma21_sweep": ("lemma21-sweep", [17, 1, 0, 5, 2]),  # the printed sporadic, x off by one
}


class TestRegistryValidation:
    @pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_entry_refused_at_load(self, edited_registry, case):
        check_id, path, value, message = case
        edited_registry(check_id, path, value)
        with pytest.raises(ValueError) as exc:
            registry()
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw", [[], {}, {"checks": 5}], ids=["list", "no-checks", "checks-not-list"])
    def test_malformed_top_level_refused_at_load(self, edited_registry, raw):
        edited_registry(None, (), raw)
        with pytest.raises(ValueError, match="^checks.json must be a JSON object whose 'checks' is a list$"):
            registry()

    def test_pattern_check_builds_its_pattern_once(self, monkeypatch):
        registry()
        calls = []
        build = catalog.build_pattern
        monkeypatch.setattr(catalog, "build_pattern", lambda spec: calls.append(spec) or build(spec))
        run_check("sec3-baj-eq15")
        assert len(calls) == 1

    def test_every_kind_is_used(self):
        assert {check.solver["kind"] for check in registry().values()} == set(KINDS)

    @pytest.mark.parametrize("case", WRONG_ROWS.values(), ids=WRONG_ROWS)
    def test_wrong_row_fails_recheck(self, edited_registry, case):
        check_id, row = case
        edited_registry(check_id, ("expected",), [row])
        rep = run_check(check_id)
        assert rep["expected_recheck_failures"] == rep["missing"] == [tuple(row)]
        assert not rep["passed"]

    def test_build_pattern_returns_side_predicate(self):
        checks = registry()
        dt_context = build_pattern(checks["sec3-dt-3y2"].solver)[1]  # y0 <= 1
        assert dt_context({"y2": 2, "y0": 1, "s": 1}) and not dt_context({"y2": 2, "y0": 2, "s": 1})
        assert build_pattern(checks["sec5-deweger-11-5m"].solver)[1] is None

    def test_side_predicates_read_exactly_their_variables(self):
        # an expected row passes its predicate, so every clause runs and every variable is read
        checks = [check for check in registry().values() if "side_predicate" in check.solver]
        assert {check.solver["side_predicate"] for check in checks} == set(SIDE_PREDICATES)
        for check in checks:
            reads, predicate = SIDE_PREDICATES[check.solver["side_predicate"]]
            names = build_pattern(check.solver)[0].variables
            for row in check.expected:
                env = {v: a for v, a in zip(names, row) if v in reads}
                assert env.keys() == set(reads) and predicate(env) is True
                for v in reads:
                    with pytest.raises(KeyError):
                        predicate({k: a for k, a in env.items() if k != v})
