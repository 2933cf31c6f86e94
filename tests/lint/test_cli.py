"""CLI contract: exit codes, JSON output schema, rule listing, forwarding."""

import json

from repro.lint.cli import main as lint_main

CLEAN = "x = 1\n"
VIOLATION = "import numpy as np\nrng = np.random.default_rng(1)\n"


def write(tmp_path, name, content):
    target = tmp_path / name
    target.write_text(content)
    return str(target)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        assert lint_main([write(tmp_path, "ok.py", CLEAN)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        assert lint_main([write(tmp_path, "bad.py", VIOLATION)]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out and "bad.py" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        code = lint_main([write(tmp_path, "ok.py", CLEAN), "--select", "nope"])
        assert code == 2

    def test_missing_path_exits_two(self, tmp_path, capsys):
        """A typo'd path must not report '0 findings' and pass the gate."""
        code = lint_main([str(tmp_path / "does-not-exist")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_disable_flag_silences(self, tmp_path):
        path = write(tmp_path, "bad.py", VIOLATION)
        assert lint_main([path, "--disable", "rng-discipline"]) == 0


class TestJsonOutput:
    def test_schema(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", VIOLATION)
        assert lint_main([path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["counts"] == {"total": 1, "error": 1, "warning": 0}
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "severity", "message"}
        assert finding["rule"] == "rng-discipline"
        assert finding["severity"] == "error"
        assert finding["line"] == 2

    def test_clean_json(self, tmp_path, capsys):
        assert lint_main([write(tmp_path, "ok.py", CLEAN), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["counts"]["total"] == 0


class TestListRules:
    def test_lists_all_six(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "wall-clock", "rng-discipline", "float-equality",
            "mutable-default", "silent-except", "yield-discipline",
        ):
            assert rule_id in out


class TestReproSimForwarding:
    def test_repro_sim_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as sim_main

        path = write(tmp_path, "bad.py", VIOLATION)
        assert sim_main(["lint", path]) == 1
        assert "rng-discipline" in capsys.readouterr().out
        assert sim_main(["lint", write(tmp_path, "ok.py", CLEAN)]) == 0
