import hashlib
import json

import pytest

from apsumset.cli import main

# result_sha256 of the benchmark's pinned progressions commands
GOLDEN = {
    ("ap", "2", "3", "--len", "3", "--limit", "10000000000000000"):
        "d2ce8d7f4654de68123b5d67842e8911a3ab28cb731403d622097229f27c499d",
    ("ap", "3", "5", "--len", "4", "--limit", "100000000000000000000"):
        "6ed5d5536624fd6eba2d2fe46db3bfddf2919d5327e39e86278547b63698bdab",
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

    def test_sweep_independent_of_threads(self, capsys, tmp_path):
        argv = ["sweep", "--a-max", "4", "--b-max", "40", "--len", "5", "--limit", "1000000"]
        outs = []
        for threads in ("1", "2"):
            code, captured, _ = run(capsys, tmp_path, "--threads", threads, *argv)
            assert code == 0
            outs.append(captured.out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0].splitlines()[-1])["findings"] > 0
