import hashlib
import json

import pytest

from apsumset.catalog import registry
from apsumset.cli import main

# result_sha256 of the benchmark's pinned progressions commands
GOLDEN = {
    ("ap", "2", "3", "--len", "3", "--limit", "10000000000000000"):
        "d2ce8d7f4654de68123b5d67842e8911a3ab28cb731403d622097229f27c499d",
    ("ap", "3", "5", "--len", "4", "--limit", "100000000000000000000"):
        "6ed5d5536624fd6eba2d2fe46db3bfddf2919d5327e39e86278547b63698bdab",
}
# result_sha256 of the benchmark's pinned unit-equations commands
GOLDEN_UNIT = {
    ("sunit", "bb5", "--alpha-max", "8", "--beta-max", "6"):
        "61f9fccfd604d2dca6213873ec436508777870e919cceb3d3c68f8f973e65843",
    ("sunit", "deweger", "--z-limit", "100000000"):
        "0f9fba7ebfc61b90fafd65bc6c3f5b188f72cffc478b0a72246dfe079cc05ecf",
    ("sunit", "dt", "2", "3"):
        "d088cc2ea9d76528f261cb5e79a2f3aad50939fbaab8a36288e3c73f80ad69c0",
    ("check", "--all"):
        "e15bb29bed534d5c7f308d96bc5f68e36dcba66a81ed8cfc2a8655b6b56a44c8",
}
# the ROADMAP baseline: de Weger's 545 solutions at 10^12 and the count line
DEWEGER_1E12 = "6737fabef7eadf5e9df91ff060862085721f4f574243ed0d8b0e3ce8e9101dba"
# result_sha256 of the benchmark's pinned family commands
GOLDEN_FAMILY = {
    ("family", "prog3-pairs", "--limit", "100000"):
        "c3afe4a0a03949700b9ddca3728c686a4859f753bd86c490bf088dd533db3793",
    ("family", "verify", "four-term-powers2-A", "--params", "d=2,c=3,k=122,j=81,m=20"):
        "7561378050b21541f69d0db7296527f913384c6da809e486b6fdaf1522fd0de1",
    ("family", "verify", "four-term-powers2-B", "--params", "d=2,c=3,k=121,j=81,m=20"):
        "620293db4e5632ded954d88ac42ad18bc17edae452a486351698c2ab4e80f7a4",
    ("family", "verify", "prog1", "--params", "n=1000000000000000000000000000000"):
        "a0bf1d3c47eaacf102355e2bb94b43ae4227d92be800274d33d603e4547d8b33",
    ("family", "verify", "prog2", "--params", "k=1000,t=20"):
        "9405878572d2f08a14e75b820eb1f7fec130672bbf12c10bd4ca5a455b467eff",
    ("family", "verify", "prog3", "--params", "a=97513,b=137904,delta1=1,delta2=1"):
        "9041033e40c278cc6f0e1c349e4463af0039f99ad240bcf38edb634e77a833d9",
    ("family", "verify", "prog4", "--params", "t=60"):
        "0dbb1528d07ed7275726eacf0e5329182439fc43d501766339a9679c8c446c34",
    ("family", "verify", "prog5", "--params", "t=60"):
        "369a664113f979046391a0fb1383647827760838e1541f333fbed4a5bf5e5160",
    ("family", "verify", "prog6", "--params", "t=40"):
        "f7dee0ec8120b39f8cba6e8d9ace49e943de8e311ea2e792e94e52dbe585e96f",
    ("family", "verify", "prog7", "--params", "s=50,t=120"):
        "89e73c2ecedc3eb6d9f37297fff698acf3e56cdfeede07d00b19e1241fa4f570",
    ("family", "verify", "three-term-A", "--params", "k=40,j=200"):
        "e889a7b57d9176cfdb33b5fc966b8d71c793b44b6fdcae4213803c88939b8926",
    ("family", "verify", "three-term-B", "--params", "k=40,j=200"):
        "b93aaa8d697191bc06c076ac94b9ea37920704286e7eadd0f597fd2b8131b2c2",
    ("family", "verify", "three-term-multdep", "--params", "a=4,b=8,k=30,j=40"):
        "b492cb45e0228cbc2ca699fd52273d7b428a75bd145295e2d82f71a7536e70b8",
}
# result_sha256 of member and enum at large exact bounds
GOLDEN_SUMSET = {
    ("member", "2", "3", "1e400"):
        "2297083be683a88982b303cd5af5aaf9c6830661cb92938689e5f68e5aceb3c2",
    ("enum", "2", "3", "--limit", "1e30"):
        "43d57274505f85bead8089ed4b9601d144912de579002481cff512bab460e505",
}


def run(capsys, tmp_path, *argv):
    """Exit code, result lines and manifest of one CLI invocation."""
    path = tmp_path / "manifest.json"
    code = main(["--manifest", str(path), *argv])
    captured = capsys.readouterr()
    manifest = json.loads(path.read_text()) if path.exists() else None
    return code, captured, manifest


class TestIntegerArguments:
    def test_limit_1e30_is_exact(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "ap", "2", "3", "--len", "3", "--limit", "1e30")
        assert code == 0
        assert manifest["parameters"]["limit"] == "1" + "0" * 30
        assert manifest["result_lines"] == 505

    def test_1e400_does_not_overflow(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "member", "2", "3", "1e400")
        assert code == 0
        assert json.loads(captured.out)["n"] == "1" + "0" * 400

    @pytest.mark.parametrize("text", ["1.5e1", "1e-3", "-5", "0x10", "1e", "e5", "1_000", ""])
    def test_non_integer_refused(self, capsys, tmp_path, text):
        code, captured, manifest = run(capsys, tmp_path, "ap", "2", "3", "--len", "3", "--limit", text)
        assert code == 2
        assert manifest is None
        assert "Traceback" not in captured.err
        assert "--limit" in captured.err

    def test_count3_limits_exact(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "count3", "2", "7", "--limits", "100000000000000000001")
        assert code == 0
        first = json.loads(captured.out.splitlines()[0])
        assert first["limit"] == "100000000000000000001"
        assert first["windows"] == 22
        assert manifest["parameters"]["limits"] == ["100000000000000000001"]

    def test_count3_bad_limit_refused(self, capsys, tmp_path):
        code, captured, _ = run(capsys, tmp_path, "count3", "2", "7", "--limits", "1e6,1.5e8")
        assert code == 2
        assert "Traceback" not in captured.err


class TestGoldenOutput:
    @pytest.mark.parametrize("argv", sorted(GOLDEN))
    def test_ap_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == GOLDEN[argv]

    @pytest.mark.parametrize("argv", list(GOLDEN_UNIT), ids=lambda argv: " ".join(argv[:2]))
    def test_unit_equations_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == GOLDEN_UNIT[argv]

    def test_deweger_1e12_digest(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "sunit", "deweger", "--z-limit", "1000000000000")
        assert code == 0
        assert manifest["result_lines"] == 546
        assert hashlib.sha256(captured.out.encode()).hexdigest() == manifest["result_sha256"] == DEWEGER_1E12

    @pytest.mark.parametrize(
        "argv", list(GOLDEN_FAMILY) + list(GOLDEN_SUMSET), ids=lambda argv: " ".join(argv[:3])
    )
    def test_family_and_sumset_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == {**GOLDEN_FAMILY, **GOLDEN_SUMSET}[argv]

    def test_sweep_independent_of_threads(self, capsys, tmp_path):
        argv = ["sweep", "--a-max", "4", "--b-max", "40", "--len", "5", "--limit", "1000000"]
        outs = []
        for threads in ("1", "2"):
            code, captured, _ = run(capsys, tmp_path, "--threads", threads, *argv)
            assert code == 0
            outs.append(captured.out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0].splitlines()[-1])["findings"] > 0

    def test_bb5_default_bounds_count(self, capsys, tmp_path):
        code, captured, _ = run(capsys, tmp_path, "sunit", "bb5")
        assert code == 0
        assert json.loads(captured.out.splitlines()[-1])["count"] == 1213

    def test_bb5_huge_exponent_bounds(self, capsys, tmp_path):
        # monomials above 3^12 are never walked, so these bounds cost nothing
        code, captured, _ = run(capsys, tmp_path, "sunit", "bb5", "--alpha-max", "1e9", "--beta-max", "1e9")
        assert code == 0
        assert json.loads(captured.out.splitlines()[-1])["count"] == 1213


VALID_PATTERN = {"p": 2, "q": 3, "terms": [[1, 0, "a"], [-1, "b", 0], [-1, 0, 0]], "bounds": [["a", 12], ["b", 19]]}


class TestRefusals:
    def solve(self, capsys, tmp_path, spec, *extra):
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(spec))
        return run(capsys, tmp_path, "sunit", "pattern", str(path), *extra)

    def test_valid_pattern(self, capsys, tmp_path):
        code, captured, _ = self.solve(capsys, tmp_path, VALID_PATTERN)
        assert code == 0
        assert json.loads(captured.out.splitlines()[-1]) == {"count": 2}  # 3 - 2 - 1, 9 - 8 - 1

    @pytest.mark.parametrize(
        "spec",
        [
            {k: v for k, v in VALID_PATTERN.items() if k != "terms"},
            {**VALID_PATTERN, "side_predicate": "no-such-predicate"},
            {**VALID_PATTERN, "side_predicate": ["baj-eq15-context"]},
            [VALID_PATTERN],
            {**VALID_PATTERN, "bounds": [["a", 12], ["b", -3]]},
            {**VALID_PATTERN, "bounds": [["a", 12], ["b", 19], ["a", 3]]},
            {**VALID_PATTERN, "bounds": [["a", 12.0], ["b", 19]]},
            {**VALID_PATTERN, "terms": [[1, 0, "a"], [-1, "b"], [-1, 0, 0]]},
            {**VALID_PATTERN, "terms": [[True, 0, "a"], [-1, "b", 0], [-1, 0, 0]]},
            {**VALID_PATTERN, "p": "2"},
            {**VALID_PATTERN, "require_primitive": 1},
            {**VALID_PATTERN, "value_bound": "100"},
            {**VALID_PATTERN, "value_bound": -1},
            {**VALID_PATTERN, "side_predicte": "baj-eq15-context"},
            {**VALID_PATTERN, "valu_bound": 100},
            {**VALID_PATTERN, "interchangeable": True},
        ],
        ids=[
            "no-terms", "unknown-predicate", "list-predicate", "top-level-list", "negative-bound",
            "repeated-bound", "float-bound", "short-term", "bool-coefficient", "string-prime",
            "int-flag", "string-value-bound", "negative-value-bound", "misspelled-side-predicate",
            "misspelled-value-bound", "interchangeable",
        ],
    )
    def test_malformed_pattern_refused(self, capsys, tmp_path, spec):
        code, captured, manifest = self.solve(capsys, tmp_path, spec)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_side_predicate_pattern_digest(self, capsys, tmp_path):
        # the sec3-baj-eq15 registry spec run as a pattern file, side predicate included
        code, captured, manifest = self.solve(capsys, tmp_path, registry()["sec3-baj-eq15"].solver)
        assert code == 0
        assert manifest["result_sha256"] == "a5da10b9adaa61e56926b9370413ed3583be43f4c7f146610806cc1993d7df8d"

    def test_unreadable_pattern_file_refused(self, capsys, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            code, captured, _ = run(capsys, tmp_path, "sunit", "pattern", str(path))
            assert code == 2
            assert "Traceback" not in captured.err

    def test_negative_bound_refused_before_budget(self, capsys, tmp_path):
        spec = {**VALID_PATTERN, "bounds": [["a", -3], ["b", 3]]}
        code, _, _ = self.solve(capsys, tmp_path, spec, "--budget", "0")
        assert code == 2

    def test_budget_refusal(self, capsys, tmp_path):
        code, captured, _ = self.solve(capsys, tmp_path, VALID_PATTERN, "--budget", "100")
        assert code == 3
        assert "260 assignments" in captured.err

    def test_huge_two_block_pattern_refused(self, capsys, tmp_path):
        # 2^a - 3^b = 0: two blocks of 10^6 + 1 rows of up to 1.6 million bits each
        spec = {"p": 2, "q": 3, "terms": [[1, "a", 0], [-1, 0, "b"]], "bounds": [["a", 10**6], ["b", 10**6]]}
        code, captured, manifest = self.solve(capsys, tmp_path, spec)
        assert code == 3
        assert manifest is None
        assert "search space of 1000002000001 assignments exceeds budget 50000000" in captured.err

    def test_deweger_beyond_int64_refused(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "sunit", "deweger", "--z-limit", "10000000000000000000")
        assert code == 2
        assert manifest is None
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--threads", "0", "check", "--all"),
            ("--threads", "-1", "check", "--all"),
            ("sunit", "bb5", "--alpha-max", "-1"),
            ("sunit", "bb5", "--beta-max", "-1"),
        ],
        ids=["threads-0", "threads-negative", "bb5-alpha", "bb5-beta"],
    )
    def test_bad_bound_refused(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestCheckRefusals:
    @pytest.mark.parametrize("argv", [("check",), ("check", "no-such-check")], ids=["no-id", "unknown-id"])
    def test_refused_without_manifest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestMalformedRegistry:
    @pytest.mark.parametrize(
        "check_id, path, value, message",
        [
            ("sec4-pillai-list", ("solver", "power_bound"), ...,
             "check 'sec4-pillai-list': solver lacks key 'power_bound'"),
            ("kruk-b-scan", ("solver", "b_max"), "1025",
             "check 'kruk-b-scan': solver key 'b_max' must be an integer, got '1025'"),
            ("sec3-dt-3y2", ("expected",), [[2, 1]],
             "check 'sec3-dt-3y2': expected row [2, 1] must be 3 nonnegative integers"),
            ("sec5-rn-family", ("expected", 0), [3, 4, 6],
             "check 'sec5-rn-family': expected row [3, 4, 6] must be 4 nonnegative integers"),
        ],
        ids=["pillai-missing-key", "kruk-str-int", "dt-short-row", "rn-short-row"],
    )
    def test_check_all_refused(self, capsys, tmp_path, edited_registry, check_id, path, value, message):
        edited_registry(check_id, path, value)
        code, captured, manifest = run(capsys, tmp_path, "check", "--all")
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestIntegerGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "1_0", "30", "40"),
            ("enum", "2", "+3", "--limit", "100"),
            ("ap", " 2", "3", "--len", "3", "--limit", "100"),
            ("ap", "2", "3", "--len", "1_0", "--limit", "100"),
            ("count3", "2", "0x7", "--limits", "100"),
            ("sweep", "--a-max", "2.0", "--b-max", "3", "--len", "5", "--limit", "100"),
            ("sweep", "--a-max", "2", "--b-max", "1_0", "--len", "5", "--limit", "100"),
            ("sweep", "--a-max", "2", "--b-max", "3", "--len", "+5", "--limit", "100"),
            ("sunit", "dt", "+2", "3"),
            ("sunit", "dt", "2", "3 "),
            ("sunit", "bb5", "--alpha-max", "1_0"),
            ("sunit", "bb5", "--beta-max", "0x6"),
        ],
        ids=[
            "member-a", "enum-b", "ap-a", "ap-len", "count3-b", "sweep-a-max", "sweep-b-max",
            "sweep-len", "dt-p", "dt-q", "bb5-alpha", "bb5-beta",
        ],
    )
    def test_refused(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert "expected digits or AeB" in captured.err
        assert "Traceback" not in captured.err

    def test_exponent_form_accepted(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "ap", "2e0", "3", "--len", "1e1", "--limit", "1e6")
        assert code == 0
        assert manifest["parameters"]["len"] == 10 and manifest["parameters"]["a"] == 2


class TestFamilyParams:
    def gen(self, capsys, tmp_path, params):
        return run(capsys, tmp_path, "family", "gen", "prog1", "--params", params)

    def test_exponent_form_is_exact(self, capsys, tmp_path):
        code, captured, _ = self.gen(capsys, tmp_path, "n=1e30")
        assert code == 0
        plain = self.gen(capsys, tmp_path, "n=" + "1" + "0" * 30)[1]
        assert captured.out == plain.out

    @pytest.mark.parametrize("params", ["n=1_000", "n= 5", "n=+5", "n=-5", "n=5.0", "n=", "n=5,n=6", "n=1"])
    def test_bad_params_refused(self, capsys, tmp_path, params):
        code, captured, manifest = self.gen(capsys, tmp_path, params)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert "Traceback" not in captured.err
