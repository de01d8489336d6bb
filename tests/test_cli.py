import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from apsumset import classify, cli, families
from apsumset.catalog import registry
from apsumset.cli import build_parser, main
from apsumset.sumset import SumsetParams

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
# result_sha256 of `sunit dt` for the other prime pairs the benchmark's seeds draw
GOLDEN_DT = {
    ("sunit", "dt", "2", "5"): "0bf205e2f5e068c350ed400f31f31be3ba6a0cbdfc8899fdd2cf5a0154143183",
    ("sunit", "dt", "2", "7"): "57453f8d94e25061ad973d943995fab8657ae04dab75868484eb62a5e9f7e06e",
    ("sunit", "dt", "3", "5"): "fd10464fa33fb54b4e6dfef59a6f7d894c84db80e87ec6484efb41c92897cdb3",
    ("sunit", "dt", "3", "7"): "9175df401955b03189eecb05f2efa8d2ce28000d397d74b44ca9bfad8814e428",
    ("sunit", "dt", "5", "7"): "37afad34034b8a600c1538cd8a9ce1606f3c16e40e45dc0a2c764a4e2882d0c8",
}
# the ROADMAP baseline: de Weger's 545 solutions at 10^12 and the count line
DEWEGER_1E12 = "6737fabef7eadf5e9df91ff060862085721f4f574243ed0d8b0e3ce8e9101dba"
# the ROADMAP baseline: bb5 at its default bounds, 1,213 solutions and the count line
BB5_DEFAULT = "a1d2717663d7be8e7d12840c121d11be77ad02ae013e529fee8234a7846a9c3f"
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
# result_sha256 of the benchmark's pinned sweep, the same grid at 10^15, a
# six-term sweep, a count3 ladder and the ROADMAP baseline sweep
GOLDEN_SWEEP = {
    ("--threads", "2", "sweep", "--a-max", "8", "--b-max", "120", "--len", "5", "--limit", "1000000000"):
        "5ce51ac8878b8317d227df19ba2950548a4a8845498f6eee9edb4b9707cd1ff3",
    ("--threads", "2", "sweep", "--a-max", "8", "--b-max", "60", "--len", "5", "--limit", "1e15"):
        "98563cefb5cffdf84c478da832dcd663ad01dc92576e4d90026d09938d284484",
    ("--threads", "1", "sweep", "--a-max", "4", "--b-max", "40", "--len", "6", "--limit", "1e12"):
        "e376beb132bef9dcad6a9e584c55b97fb0c1a58352e57f1f3f9dba8f58e66065",
    ("count3", "2", "7", "--limits", "1e8,1e12"):
        "f8a06031f0bf7d37b6191294b4944ee81134a405c8f0c8fe3fb633c83187a8ca",
    ("--threads", "1", "sweep", "--a-max", "6", "--b-max", "60", "--len", "5", "--limit", "1e9"):
        "7775b1ef59e08225acdf4277cd1bcc7c80d11caebf8f71adb419568ee9d6a75f",
}
# result_sha256 of the prog3 base pairs at the paper's scale, 195 rows
PROG3_PAIRS_1E30 = "6f1f46a297e1f7aa8ffeddf8939e08d09d635c2603ac7cbf3674526860a987b5"
# result_sha256 of progression searches large enough that the join's stored
# side spans several residue buckets, one with dependent bases (2, 4) whose
# middle terms have several representations, and a count3 ladder to 10^30
GOLDEN_JOIN = {
    ("ap", "2", "3", "--len", "3", "--limit", "1e30"):
        "cba66231238b878dc25f1055b5bee060b0083d9a24ccbcd6cc0ad8d500a8589b",
    ("ap", "2", "4", "--len", "3", "--limit", "1e20"):
        "abd0105b5b48fa9b2ccc26aa65802187844a7b1c0e56d93f411104406fe4fdf7",
    ("ap", "2", "3", "--len", "5", "--limit", "1e30"):
        "3e7eb4ab63e8bcd7ad97382fce7ae5263fb4d478e5208d9ba56d33e34dfc64a9",
    ("count3", "2", "3", "--limits", "1e10,1e20,1e30"):
        "c5b5ec628e5a5fd71aadedba3b8938edc7edb7f34d5e9a2a936a3b5aa0d451ce",
}
# result_sha256 of member and enum at large exact bounds
GOLDEN_SUMSET = {
    ("member", "2", "3", "1e400"):
        "2297083be683a88982b303cd5af5aaf9c6830661cb92938689e5f68e5aceb3c2",
    ("enum", "2", "3", "--limit", "1e30"):
        "43d57274505f85bead8089ed4b9601d144912de579002481cff512bab460e505",
}

# result_sha256 of `member` on members: two witnesses for 11 and 1040, one for 2^300 + 3^200
GOLDEN_MEMBER = {
    ("member", "2", "3", "11"):
        "ccec365649544c38c6da0e7e0b49208766694454f921632aed17dc88a6a82661",
    ("member", "2", "4", "1040"):
        "b101300482993c98fbbb5582133d9a0b1289847506fb367ed090c19e7a1f57b5",
    ("member", "2", "3", str(2**300 + 3**200)):
        "04a6f014bffc9c88682b583d42139800a2f5be895024e41bba5e3a7ed78be995",
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

    @pytest.mark.parametrize(
        "text, n", [("1e5000", "1" + "0" * 5000), ("1e30000", "1" + "0" * 30000), ("7" * 4400, "7" * 4400)],
        ids=["1e5000", "1e30000", "4400-digits"],
    )
    def test_past_the_str_digit_cap(self, capsys, tmp_path, text, n):
        code, captured, manifest = run(capsys, tmp_path, "member", "2", "3", text)
        assert code == 0
        row = json.loads(captured.out)
        assert row["n"] == manifest["parameters"]["n"] == n and row["member"] is False

    def test_family_past_the_cap(self, capsys, tmp_path):
        code, captured, manifest = run(
            capsys, tmp_path, "family", "verify", "three-term-A", "--params", "k=15000,j=1"
        )
        assert code == 0
        # the base b has 4516 digits and is written as a JSON number
        row = json.loads(captured.out, parse_int=str)
        assert row["verified"] is True and row["len"] == "3"
        assert len(row["b"]) > 4300

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str digit cap before 3.10.7")
    @pytest.mark.parametrize("cap", [4300, 5000, 0])
    def test_caller_cap_restored(self, capsys, tmp_path, cap):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(cap)
        try:
            assert run(capsys, tmp_path, "member", "2", "3", "1e5000")[0] == 0
            assert sys.get_int_max_str_digits() == cap
            assert run(capsys, tmp_path, "member", "2", "3", "x")[0] == 2
            assert sys.get_int_max_str_digits() == cap
        finally:
            sys.set_int_max_str_digits(before)

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

    @pytest.mark.parametrize("argv", list(GOLDEN_DT), ids=lambda argv: " ".join(argv[2:]))
    def test_dt_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest() == manifest["result_sha256"] == GOLDEN_DT[argv]

    def test_deweger_1e12_digest(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "sunit", "deweger", "--z-limit", "1000000000000")
        assert code == 0
        assert manifest["result_lines"] == 546
        assert hashlib.sha256(captured.out.encode()).hexdigest() == manifest["result_sha256"] == DEWEGER_1E12

    def test_bb5_default_digest(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "sunit", "bb5")
        assert code == 0
        assert manifest["result_lines"] == 1214
        assert hashlib.sha256(captured.out.encode()).hexdigest() == manifest["result_sha256"] == BB5_DEFAULT

    @pytest.mark.parametrize(
        "argv", list(GOLDEN_FAMILY) + list(GOLDEN_SUMSET), ids=lambda argv: " ".join(argv[:3])
    )
    def test_family_and_sumset_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == {**GOLDEN_FAMILY, **GOLDEN_SUMSET}[argv]

    @pytest.mark.parametrize("argv", list(GOLDEN_MEMBER), ids=["2 3 11", "2 4 1040", "2 3 2^300+3^200"])
    def test_member_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        assert json.loads(captured.out)["member"] is True
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == GOLDEN_MEMBER[argv]

    def test_prog3_pairs_1e30_digest(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "family", "prog3-pairs", "--limit", "1e30")
        assert code == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest() == manifest["result_sha256"] == PROG3_PAIRS_1E30
        rows = [(r["a"], r["b"], r["delta1"], r["delta2"]) for r in map(json.loads, captured.out.splitlines())]
        assert len(rows) == 195
        assert all(row < nxt for row, nxt in zip(rows, rows[1:]))
        for a, b, d1, d2 in rows:
            assert 2 <= a < b and a <= 10**30
            assert b**2 - b**d2 == 2 * a**2 - 2 * a**d1

    @pytest.mark.parametrize(
        "argv", list(GOLDEN_SWEEP), ids=["sweep-len5", "sweep-len5-1e15", "sweep-len6", "count3", "sweep-baseline"]
    )
    def test_sweep_and_count3_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == GOLDEN_SWEEP[argv]

    @pytest.mark.parametrize(
        "argv", list(GOLDEN_JOIN), ids=["ap23-len3-1e30", "ap24-len3-1e20", "ap23-len5-1e30", "count3-23"]
    )
    def test_progression_join_digest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 0
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == manifest["result_sha256"] == GOLDEN_JOIN[argv]

    def test_sweep_independent_of_threads(self, capsys, tmp_path):
        argv = ["sweep", "--a-max", "4", "--b-max", "40", "--len", "5", "--limit", "1000000"]
        outs = []
        for threads in ("1", "2"):
            code, captured, _ = run(capsys, tmp_path, "--threads", threads, *argv)
            assert code == 0
            outs.append(captured.out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0].splitlines()[-1])["findings"] > 0

    def test_sweep_mismatch_exits_1(self, capsys, tmp_path, monkeypatch):
        # with (2, 3, 5, 2) gone from the table, 5, 7, 9, 11, 13 is unclassified
        dropped = tuple(t for t in classify.SPORADIC_5TERM if t != (2, 3, 5, 2))
        monkeypatch.setattr(classify, "SPORADIC_5TERM", dropped)
        argv = ["--threads", "1", "sweep", "--a-max", "2", "--b-max", "3", "--len", "5", "--limit", "1000"]
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 1
        assert manifest is not None
        *lines, summary = map(json.loads, captured.out.splitlines())
        (line,) = [obj for obj in lines if (obj["N"], obj["D"]) == ("5", "2")]
        assert line["class"] is None
        assert all(obj["class"] is not None for obj in lines if obj is not line)
        assert summary["unclassified"] == 1
        assert [2, 3, 5, 2] not in summary["witnessed_sporadics"]
        assert summary["findings"] == len(lines)

    def test_six_term_sweep_mismatch_exits_1(self, capsys, tmp_path, monkeypatch):
        # 17, 41, ..., 137 starts with the sporadic 5-term window (2, 3, 17, 24)
        dropped = tuple(t for t in classify.SPORADIC_5TERM if t != (2, 3, 17, 24))
        monkeypatch.setattr(classify, "SPORADIC_5TERM", dropped)
        argv = ["--threads", "1", "sweep", "--a-max", "2", "--b-max", "3", "--len", "6", "--limit", "1e6"]
        code, captured, _ = run(capsys, tmp_path, *argv)
        assert code == 1
        *lines, summary = map(json.loads, captured.out.splitlines())
        (line,) = [obj for obj in lines if (obj["N"], obj["D"]) == ("17", "24")]
        assert line["class"] is None
        assert summary["unclassified"] == 1

    def test_sweep_lines_carry_theorem1_match(self, capsys, tmp_path):
        # a line is matched on its (a, b, N, D), the first five terms of its window
        argv = ["--threads", "1", "sweep", "--a-max", "3", "--b-max", "10", "--len", "5", "--limit", "1e4"]
        code, captured, _ = run(capsys, tmp_path, *argv)
        assert code == 0
        *lines, summary = map(json.loads, captured.out.splitlines())
        assert lines and summary["findings"] == len(lines)
        for obj in lines:
            match = classify.theorem1_match(obj["a"], obj["b"], int(obj["N"]), int(obj["D"]))
            assert match is not None
            assert obj["class"] == {"kind": match[0], "k": match[1]}

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
# a valid pattern in x and y, which no registered side predicate reads
UNDECLARED = {"p": 2, "q": 3, "terms": [[1, "x", 0], [-1, 0, "y"], [-1, 0, 0]], "bounds": [["x", 5], ["y", 5]]}


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
        "spec, error",
        [
            ({k: v for k, v in VALID_PATTERN.items() if k != "terms"}, "pattern lacks terms"),
            ({**VALID_PATTERN, "side_predicate": "no-such-predicate"}, "unknown side_predicate"),
            ({**VALID_PATTERN, "side_predicate": ["baj-eq15-context"]}, "unknown side_predicate"),
            ([VALID_PATTERN], "pattern must be a JSON object"),
            ({**VALID_PATTERN, "bounds": [["a", 12], ["b", -3]]}, "bound of 'b' must be >= 0"),
            ({**VALID_PATTERN, "bounds": [["a", 12], ["b", 19], ["a", 3]]}, "variable declared twice"),
            ({**VALID_PATTERN, "bounds": [["a", 12.0], ["b", 19]]}, "bounds must be [name, integer] pairs"),
            ({**VALID_PATTERN, "terms": [[1, 0, "a"], [-1, "b"], [-1, 0, 0]]}, "terms must be"),
            ({**VALID_PATTERN, "terms": [[True, 0, "a"], [-1, "b", 0], [-1, 0, 0]]}, "terms must be"),
            ({**VALID_PATTERN, "p": "2"}, "p and q must be integers"),
            ({**VALID_PATTERN, "require_primitive": True}, "unknown pattern key 'require_primitive'"),
            ({**VALID_PATTERN, "forbid_vanishing_subsums": True}, "unknown pattern key 'forbid_vanishing_subsums'"),
            ({**VALID_PATTERN, "value_bound": 100}, "unknown pattern key 'value_bound'"),
            ({**VALID_PATTERN, "side_predicte": "baj-eq15-context"}, "unknown pattern key 'side_predicte'"),
            ({**VALID_PATTERN, "valu_bound": 100}, "unknown pattern key 'valu_bound'"),
            ({**VALID_PATTERN, "interchangeable": True}, "unknown pattern key 'interchangeable'"),
            # above is_prime's proven bound, the first a prime and the second not
            ({**VALID_PATTERN, "p": 2**89 - 1},
             "p and q must be below 3317044064679887385961981, got 618970019642690137449562111, 3"),
            ({**VALID_PATTERN, "p": 10**25},
             "p and q must be below 3317044064679887385961981, got 10000000000000000000000000, 3"),
            ({**UNDECLARED, "side_predicate": "szalay-context"},
             "side_predicate 'szalay-context' reads u, v, y2, which the pattern does not declare"),
            ({**UNDECLARED, "side_predicate": "dt-3y2-context"},
             "side_predicate 'dt-3y2-context' reads y0, which the pattern does not declare"),
            # several faults: the terms are checked before the primes
            ({**VALID_PATTERN, "p": 4, "terms": [[0, "x", 0], [-1, "b", 0], [-1, 0, 0]]},
             "coefficient must be nonzero"),
        ],
        ids=[
            "no-terms", "unknown-predicate", "list-predicate", "top-level-list", "negative-bound",
            "repeated-bound", "float-bound", "short-term", "bool-coefficient", "string-prime",
            "unknown-key-require-primitive", "unknown-key-forbid-vanishing-subsums", "unknown-key-value-bound",
            "misspelled-side-predicate", "unknown-key-valu-bound", "interchangeable", "prime-beyond-bound",
            "composite-beyond-bound", "szalay-undeclared-variables", "dt-3y2-undeclared-variable",
            "zero-coefficient-and-composite-p",
        ],
    )
    def test_malformed_pattern_refused(self, capsys, tmp_path, spec, error):
        code, captured, manifest = self.solve(capsys, tmp_path, spec)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}")
        assert "Traceback" not in captured.err

    def test_side_predicate_pattern_digest(self, capsys, tmp_path):
        # the sec3-baj-eq15 registry spec run as a pattern file, side predicate included
        code, captured, manifest = self.solve(capsys, tmp_path, registry()["sec3-baj-eq15"].solver)
        assert code == 0
        assert manifest["result_sha256"] == "a5da10b9adaa61e56926b9370413ed3583be43f4c7f146610806cc1993d7df8d"

    def test_unreadable_pattern_file_refused(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        loop = tmp_path / "loop.json"
        loop.symlink_to(loop)
        too_long = tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        for path in (tmp_path / "missing.json", tmp_path, plain / "under-a-file.json", too_long, loop):
            code, captured, _ = run(capsys, tmp_path, "sunit", "pattern", str(path))
            assert code == 2
            assert "Traceback" not in captured.err

    def test_deeply_nested_pattern_file_refused(self, capsys, tmp_path):
        # the JSON decoder gives up on nesting this deep with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, captured, manifest = run(capsys, tmp_path, "sunit", "pattern", str(path))
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err.startswith("error: maximum recursion depth exceeded")

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

    def test_wide_row_pattern_refused(self, capsys, tmp_path):
        # 2^a - 3 = 0: a box of 4*10^7 + 1 rows is under the budget, but rows of 2^a reach 4*10^7 bits
        spec = {"p": 2, "q": 3, "terms": [[1, "a", 0], [-1, 0, 1]], "bounds": [["a", 40_000_000]]}
        start = time.perf_counter()
        code, captured, manifest = self.solve(capsys, tmp_path, spec)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert manifest is None
        assert captured.out == ""
        assert "row words exceeds budget 50000000" in captured.err

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
            ("sweep", "--a-max", "2", "--b-max", "3", "--len", "2", "--limit", "100"),
            ("sweep", "--a-max", "2", "--b-max", "3", "--len", "5", "--limit", "1"),
            ("family", "prog3-pairs", "--limit", "1"),
        ],
        ids=["threads-0", "threads-negative", "bb5-alpha", "bb5-beta", "sweep-len", "sweep-limit", "prog3-limit"],
    )
    def test_bad_bound_refused(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestCheckRefusals:
    @pytest.mark.parametrize(
        "argv",
        [("check",), ("check", "no-such-check"), ("check", "sec4-szalay", "--all"), ("check", "no-such-check", "--all")],
        ids=["no-id", "unknown-id", "id-and-all", "unknown-id-and-all"],
    )
    def test_refused_without_manifest(self, capsys, tmp_path, argv):
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_long_found_list_left_out(self, capsys, tmp_path, edited_registry):
        # every assignment solves this edit, so 320 rows are found and only their count is printed
        terms = [[1, "y2", "y0"], [-1, "y2", "y0"], [1, "s", 0], [-1, "s", 0]]
        edited_registry("sec3-dt-3y2", ("solver", "terms"), terms)
        code, captured, manifest = run(capsys, tmp_path, "check", "sec3-dt-3y2")
        assert code == 1
        (row,) = map(json.loads, captured.out.splitlines())
        assert row["found_count"] == 320 and "found" not in row
        assert not row["passed"] and manifest["result_lines"] == 1


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


class TestGuards:
    """Each input guard refuses with exit 2, its own message and no manifest.

    A case is the argument list, a pattern file whose path is appended to
    it (or None) and a registry edit (or None).
    """

    @pytest.mark.parametrize(
        "argv, pattern, edit, message",
        [
            (("count3", "2", "3", "--limits", "1,10"), None, None, "limit must be >= 2, got 1"),
            (("count3", "2", "3", "--limits", "100,10"), None, None, "limits must be ascending"),
            (("count3", "2", "3", "--limits", "100,100"), None, None, "limits must be ascending"),
            (("sunit", "dt", "10000000000000000000000000", "3"), None, None,
             "max(p, q) must be < 200, got 10000000000000000000000000"),
            (("sunit", "dt", "4", "3"), None, None, "p, q must be distinct primes, got 4, 3"),
            (("sunit", "dt", "1", "3"), None, None, "p, q must be distinct primes, got 1, 3"),
            (("enum", "2", "3", "--limit", "1"), None, None, "limit must be >= 2, got 1"),
            (("sweep", "--a-max", "5", "--b-max", "4", "--len", "5", "--limit", "100"), None, None,
             "need 2 <= a_max <= b_max"),
            (("sunit", "deweger", "--z-limit", "1"), None, None, "z_limit must be >= 2, got 1"),
            (("family", "verify", "prog1"), None, None, "prog1 needs parameters ['n']"),
            (("family", "verify", "prog1", "--params", "n"), None, None,
             "malformed parameter 'n'; expected name=int"),
            (("sunit", "pattern"), {**VALID_PATTERN, "terms": [[0, 0, "a"], [-1, "b", 0], [-1, 0, 0]]}, None,
             "coefficient must be nonzero"),
            (("sunit", "pattern"), {**VALID_PATTERN, "terms": [[1, 0, "a"], [-1, "b", 0], [-1, 0, -1]]}, None,
             "fixed exponent must be >= 0, got -1"),
            (("sunit", "pattern"), {**VALID_PATTERN, "p": 4}, None, "p, q must be distinct primes, got 4, 3"),
            (("sunit", "pattern"), {**VALID_PATTERN, "bounds": [["a", 12], ["b", 19], ["c", 3]]}, None,
             "variable mismatch: terms use ['a', 'b'], bounds declare ['a', 'b', 'c']"),
            (("check", "--all"), None, ("lemma21-sweep", ("solver", "b_min"), 1),
             "check 'lemma21-sweep': solver key 'b_min' must be an integer >= 2, got 1"),
            (("check", "--all"), None, ("sec4-pillai-list", ("solver", "prime_pairs"), [[4, 3]]),
             "check 'sec4-pillai-list': solver key 'prime_pairs' must be a list of pairs of distinct primes below "
             "3317044064679887385961981, got [[4, 3]]"),
            (("check", "--all"), None, ("sec4-szalay", ("expected",), 5),
             "check 'sec4-szalay': expected must be a list of rows, got 5"),
            (("check", "--all"), None, (None, (), {}), "checks.json must be a JSON object whose 'checks' is a list"),
        ],
        ids=[
            "count3-limit", "count3-descending", "count3-repeated-limit", "dt-too-large", "dt-composite-p",
            "dt-p-one", "enum-limit",
            "sweep-a-above-b", "deweger-z-limit", "family-no-params", "family-malformed-param",
            "pattern-zero-coefficient", "pattern-negative-exponent", "pattern-composite-p", "pattern-unused-bound",
            "lemma21-b-min", "pillai-composite-pair",
            "expected-not-rows", "registry-not-object",
        ],
    )
    def test_refused(self, capsys, tmp_path, edited_registry, argv, pattern, edit, message):
        if pattern is not None:
            path = tmp_path / "pattern.json"
            path.write_text(json.dumps(pattern))
            argv = (*argv, str(path))
        if edit is not None:
            edited_registry(*edit)
        code, captured, manifest = run(capsys, tmp_path, *argv)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestManifestPath:
    """A manifest path that cannot be written is refused with exit 2.

    A path the check can tell is refused before the search runs; one that
    passes the check and still fails to open is refused at the write,
    after the rows are printed.
    """

    @pytest.fixture
    def no_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search ran before the manifest path was checked")

        monkeypatch.setattr(cli, "representations", refuse)

    def test_directory_refused(self, capsys, tmp_path, no_search):
        code = main(["--manifest", str(tmp_path), "member", "2", "3", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: manifest {tmp_path}: is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_refused(self, capsys, tmp_path, no_search):
        path = tmp_path / "nonexistent" / "dir" / "m.json"
        code = main(["--manifest", str(path), "member", "2", "3", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: manifest {path}: no such directory {path.parent}\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_path_refused(self, capsys, no_search):
        code = main(["--manifest", "", "member", "2", "3", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: manifest : empty path\n"

    def test_unwritable_refused(self, capsys, tmp_path, no_search, monkeypatch):
        # permission bits do not stop every user, so the access check is faked
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        path = tmp_path / "m.json"
        code = main(["--manifest", str(path), "member", "2", "3", "5"])
        assert code == 2
        assert capsys.readouterr().err == f"error: manifest {path}: not writable\n"
        assert not path.exists()

    def test_unopenable_refused_after_rows(self, capsys, tmp_path):
        # these paths pass the check before the search, so the rows print before the write is refused
        loop = tmp_path / "loop.json"
        loop.symlink_to(loop)
        too_long = tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        for path, errno_code in ((too_long, errno.ENAMETOOLONG), (loop, errno.ELOOP)):
            code = main(["--manifest", str(path), "member", "2", "3", "5"])
            captured = capsys.readouterr()
            assert code == 2
            assert json.loads(captured.out)["member"] is True
            assert captured.err == f"error: manifest {path}: {os.strerror(errno_code)}\n"


class TestParserReuse:
    """Calls of `main` in one process share the parser and nothing else."""

    def test_sequence(self, capsys, tmp_path):
        build_parser.cache_clear()

        def call(i, *argv):
            path = tmp_path / f"m{i}.json"
            code = main(["--manifest", str(path), *argv])
            out = capsys.readouterr().out
            return code, out, json.loads(path.read_text()) if path.exists() else None

        ap = ("ap", "2", "3", "--len", "3", "--limit", "1e6")
        first = call(0, *ap)
        usage = call(1, "ap", "2", "3", "--len", "three", "--limit", "1e6")
        help_ = call(2, "--help")
        second = call(3, *ap)
        sweep = call(4, "sweep", "--a-max", "3", "--b-max", "5", "--len", "3", "--limit", "1e4")
        assert build_parser.cache_info().misses == 1
        assert first[0] == second[0] == sweep[0] == 0
        assert (usage[0], usage[2]) == (2, None)
        assert (help_[0], help_[2]) == (0, None)
        assert help_[1].startswith("usage: apsumset")
        assert first[1] and first[1] == second[1]
        assert first[2]["parameters"] == second[2]["parameters"]
        assert first[2]["result_sha256"] == second[2]["result_sha256"]
        for _, _, manifest in (first, second, sweep):
            assert manifest["parameters"]["threads"] == (os.cpu_count() or 1)

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import apsumset.cli as c; print(c.build_parser.cache_info().misses)"
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out == "0\n"


class TestModuleEntry:
    """`python -m apsumset.cli` in a fresh interpreter exits with `main`'s code."""

    def module(self, *argv, **env):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run([sys.executable, "-m", "apsumset.cli", *argv],
                              env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, text=True)

    def test_member(self):
        argv = ("member", "2", "3", "11")
        proc = self.module(*argv)
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == json.loads(proc.stderr)["result_sha256"] == GOLDEN_MEMBER[argv]

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("argv", [("sunit", "dt", "2", "3"), ("check", "--all")], ids=" ".join)
    def test_digest_independent_of_hash_seed(self, argv, seed):
        # the block join builds sets of variable names, whose order a string hash seed could change
        proc = self.module(*argv, PYTHONHASHSEED=seed)
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == json.loads(proc.stderr)["result_sha256"] == GOLDEN_UNIT[argv]

    def test_usage_error(self):
        proc = self.module("member", "2", "3", "x")
        assert proc.returncode == 2
        assert proc.stdout == ""


class TestIntegerGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "1_0", "30", "40"),
            ("enum", "2", "+3", "--limit", "100"),
            ("ap", " 2", "3", "--len", "3", "--limit", "100"),
            ("ap", "2", "3", "--len", "1_0", "--limit", "100"),
            ("count3", "2", "0x7", "--limits", "100"),
            ("count3", "2", "3", "--limits", ""),
            ("sweep", "--a-max", "2.0", "--b-max", "3", "--len", "5", "--limit", "100"),
            ("sweep", "--a-max", "2", "--b-max", "1_0", "--len", "5", "--limit", "100"),
            ("sweep", "--a-max", "2", "--b-max", "3", "--len", "+5", "--limit", "100"),
            ("sunit", "dt", "+2", "3"),
            ("sunit", "dt", "2", "3 "),
            ("sunit", "bb5", "--alpha-max", "1_0"),
            ("sunit", "bb5", "--beta-max", "0x6"),
        ],
        ids=[
            "member-a", "enum-b", "ap-a", "ap-len", "count3-b", "count3-empty-limits", "sweep-a-max",
            "sweep-b-max", "sweep-len", "dt-p", "dt-q", "bb5-alpha", "bb5-beta",
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
    def verify(self, capsys, tmp_path, params):
        return run(capsys, tmp_path, "family", "verify", "prog1", "--params", params)

    def test_exponent_form_is_exact(self, capsys, tmp_path):
        code, captured, _ = self.verify(capsys, tmp_path, "n=1e30")
        assert code == 0
        plain = self.verify(capsys, tmp_path, "n=" + "1" + "0" * 30)[1]
        assert captured.out == plain.out

    @pytest.mark.parametrize("params", ["n=1_000", "n= 5", "n=+5", "n=-5", "n=5.0", "n=", "n=5,n=6", "n=1", " n=5", "n =5"])
    def test_bad_params_refused(self, capsys, tmp_path, params):
        code, captured, manifest = self.verify(capsys, tmp_path, params)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "family_id, params, name",
        [("prog1", "n=5,k=3", "'k'"), ("three-term-B", "k=1", "'j'")],
        ids=["unknown-k", "missing-j"],
    )
    def test_missing_or_unknown_parameter_refused(self, capsys, tmp_path, family_id, params, name):
        code, captured, manifest = run(capsys, tmp_path, "family", "verify", family_id, "--params", params)
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert captured.err.startswith("error: ") and name in captured.err
        assert "Traceback" not in captured.err

    def test_closed_form_slip_refused(self, capsys, tmp_path, monkeypatch):
        # 2, 6, 10, 34 at n = 5: members of S_{5,9}, but not in progression
        monkeypatch.setitem(
            families.FAMILIES, "prog1", lambda n: (SumsetParams(n, 2 * n - 1), [(0, 0), (1, 0), (0, 1), (2, 1)])
        )
        code, captured, manifest = run(capsys, tmp_path, "family", "verify", "prog1", "--params", "n=5")
        assert code == 2
        assert manifest is None
        assert captured.out == ""
        assert "not in progression" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv", [argv for argv in GOLDEN_FAMILY if argv[1] == "verify"], ids=lambda argv: argv[2]
    )
    def test_gen_and_verify_agree(self, capsys, tmp_path, argv):
        """The `family verify` row carries exactly the (value, reps) terms `families.generate` builds."""
        code, captured, _ = run(capsys, tmp_path, *argv)
        assert code == 0
        params, terms = families.generate(argv[2], cli._parse_params(argv[4]))
        row = json.loads(captured.out)
        assert (row["a"], row["b"], row["len"]) == (params.a, params.b, len(terms))
        n, d = int(row["N"]), int(row["D"])
        assert [int(t["value"]) for t in row["terms"]] == [n + i * d for i in range(len(terms))]
        assert [(int(t["value"]), [tuple(r) for r in t["reps"]]) for t in row["terms"]] == terms

    def test_gen_verb_removed(self, capsys, tmp_path):
        code, captured, manifest = run(capsys, tmp_path, "family", "gen", "prog1", "--params", "n=5")
        assert code == 2
        assert manifest is None
        assert captured.out == ""


def leaf_parsers(parser, path=()):
    """(command path, parser) for every parser of the tree that has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


# each leaf command: the arguments of a small run (PATTERN is a valid pattern
# file) and its manifest parameters, every option with its default but not
# the bound runner
LEAF_RUNS = {
    ("member",): ("2 3 5", "a b command n threads"),
    ("enum",): ("2 3 --limit 100", "a b command limit threads"),
    ("ap",): ("2 3 --len 3 --limit 100", "a b command len limit threads"),
    ("count3",): ("2 3 --limits 100", "a b command limits threads"),
    ("sweep",): ("--a-max 2 --b-max 3 --len 5 --limit 1000", "a_max b_max command len limit threads"),
    ("sunit", "deweger"): ("--z-limit 100", "command solver threads z_limit"),
    ("sunit", "dt"): ("2 3", "command p q solver threads"),
    ("sunit", "bb5"): ("--alpha-max 2 --beta-max 2", "alpha_max beta_max command solver threads"),
    ("sunit", "pattern"): ("PATTERN", "budget command pattern_file solver threads"),
    ("check",): ("sec4-szalay", "all command id threads"),
    ("family", "list"): ("", "action command threads"),
    ("family", "verify"): ("prog1 --params n=5", "action command family_id params threads"),
    ("family", "prog3-pairs"): ("--limit 100", "action command limit threads"),
}


class TestDispatch:
    def test_every_leaf_binds_a_runner(self):
        leaves = dict(leaf_parsers(build_parser()))
        assert set(leaves) == set(LEAF_RUNS)
        for path, parser in leaves.items():
            assert callable(parser.get_default("run")), path

    @pytest.mark.parametrize("path", list(LEAF_RUNS), ids=" ".join)
    def test_manifest_parameters(self, capsys, tmp_path, path):
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps(VALID_PATTERN))
        args, parameters = LEAF_RUNS[path]
        argv = [str(pattern) if arg == "PATTERN" else arg for arg in args.split()]
        code, _, manifest = run(capsys, tmp_path, "--threads", "1", *path, *argv)
        assert code == 0
        assert sorted(manifest["parameters"]) == parameters.split()
