import pytest

from apsumset.catalog import (
    CASE_B4_STEP1,
    CASE_B9_STEP1,
    CASE_OUT_OF_HYPOTHESIS,
    CASE_POW23_PLUS_ONE,
    CASE_SPORADIC,
    CASE_UNLISTED,
    KINDS,
    LemmaSolution,
    build_pattern,
    check_ids,
    kruk_scan,
    lemma21_classify,
    lemma21_solve,
    registry,
    rn_scan,
    run_all,
    run_check,
)


class TestLemmaSolve:
    def test_b5(self):
        got = [(s.x, s.y, s.alpha, s.beta) for s in lemma21_solve(5, 4, 10, 10)]
        # 5 - 1 = 4 = 2^2 and 25 - 1 = 24 = 2^3 * 3
        assert got == [(1, 0, 2, 0), (2, 0, 3, 1)]

    def test_b3_adjacent_family(self):
        sols = lemma21_solve(3, 6, 10, 10)
        for y in range(5):
            assert any((s.x, s.y, s.alpha, s.beta) == (y + 1, y, 1, y) for s in sols)

    def test_b4_family(self):
        sols = lemma21_solve(4, 6, 20, 10)
        for y in range(5):
            assert any((s.x, s.y, s.alpha, s.beta) == (y + 1, y, 2 * y, 1) for s in sols)

    def test_solution_invariant(self):
        with pytest.raises(ValueError):
            LemmaSolution(5, 1, 0, 3, 1)  # 4 != 24

    def test_bounds_respected(self):
        for s in lemma21_solve(2, 8, 3, 20):
            assert s.alpha <= 3


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
        for b in range(3, 101):
            for s in lemma21_solve(b, 8, 30, 20):
                assert lemma21_classify(s) != CASE_UNLISTED, s


class TestScans:
    def test_kruk_only_b_2k_plus_1(self):
        from apsumset.numutil import power_exponent

        for b, x0, y1, y2 in kruk_scan(3, 1025, 20):
            assert 1 + b**y2 + 2**x0 == 2 * b**y1
            assert power_exponent(b - 1, 2) is not None

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
        assert required <= set(check_ids())

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_check("no-such-check")

    def test_entries_carry_bounds_and_expected(self):
        for check in registry().values():
            assert check.solver.get("kind")
            assert isinstance(check.expected, tuple)


class TestRunCheck:
    def test_pillai_all_thirteen(self):
        rep = run_check("sec4-pillai-list")
        assert rep.passed and not rep.flagged
        assert len(rep.found) == 13
        assert rep.missing == [] and rep.extra == []
        assert rep.expected_recheck_failures == []

    def test_baj_eq15_exact_pair(self):
        rep = run_check("sec3-baj-eq15")
        assert rep.passed
        assert set(rep.found) == {(3, 0, 2, 1, 0), (1, 2, 3, 0, 0)}

    def test_dt_3y2(self):
        rep = run_check("sec3-dt-3y2")
        assert rep.passed and rep.found == [(2, 1, 1)]

    def test_szalay(self):
        rep = run_check("sec4-szalay")
        assert rep.passed and rep.found == [(2, 5, 3)]

    def test_deweger_11_5m(self):
        rep = run_check("sec5-deweger-11-5m")
        assert rep.passed and rep.found == [(0, 0, 3)]

    def test_rn_family_flags_square_family(self):
        rep = run_check("sec5-rn-family")
        assert rep.passed and rep.flagged
        assert rep.missing == []
        # every extra is a member of the square family (2^t+1)^2
        for b, m, e1, e2 in rep.documented_extra:
            t = e2 - 1
            assert m == 2 and b == 2**t + 1 and e1 == 2 * t
        assert rep.undocumented_extra == []

    def test_kruk_scan_check(self):
        rep = run_check("kruk-b-scan")
        assert rep.passed
        assert len(rep.found) == 22

    def test_lemma_sweep_discrepancy_details(self):
        rep = run_check("lemma21-sweep")
        assert rep.passed and rep.flagged
        assert rep.found == []  # no unlisted solutions
        assert rep.details["printed_sporadics_failing_recheck"] == [(17, 1, 5, 2)]
        assert rep.details["corrected_sporadics"] == [(17, 2, 5, 2)]
        assert all(row[0] == 2 for row in rep.details["out_of_hypothesis"])

    def test_run_all_passes(self):
        reports = run_all()
        assert [r.check_id for r in reports] == sorted(r.check_id for r in reports)
        assert all(r.passed for r in reports)
        flagged = {r.check_id for r in reports if r.flagged}
        assert flagged == {"sec5-rn-family", "lemma21-sweep"}


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
        "check 'sec4-pillai-list': solver key 'power_bound' must be an integer, got '32768'",
    ),
    "pillai-bool-pair": (
        "sec4-pillai-list", ("solver", "prime_pairs", 0, 1), True,
        "check 'sec4-pillai-list': solver key 'prime_pairs' must be a list of integer pairs, "
        "got [[2, True], [2, 5], [2, 7], [3, 5], [3, 7]]",
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
        "check 'lemma21-sweep': solver key 'x_max' must be an integer, got False",
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
        "check 'sec3-baj-eq15': unknown pattern key 'side_predicte'; known: p, q, terms, bounds, "
        "require_primitive, forbid_vanishing_subsums, value_bound, side_predicate",
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

    def test_every_kind_is_used(self):
        assert {check.solver["kind"] for check in registry().values()} == set(KINDS)

    @pytest.mark.parametrize("case", WRONG_ROWS.values(), ids=WRONG_ROWS)
    def test_wrong_row_fails_recheck(self, edited_registry, case):
        check_id, row = case
        edited_registry(check_id, ("expected",), [row])
        rep = run_check(check_id)
        assert rep.expected_recheck_failures == rep.missing == [tuple(row)]
        assert not rep.passed

    def test_build_pattern_returns_side_predicate(self):
        checks = registry()
        dt_context = build_pattern(checks["sec3-dt-3y2"].solver)[1]  # y0 <= 1
        assert dt_context({"y2": 2, "y0": 1, "s": 1}) and not dt_context({"y2": 2, "y0": 2, "s": 1})
        assert build_pattern(checks["sec5-deweger-11-5m"].solver)[1] is None
