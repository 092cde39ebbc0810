import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from subsetid import cli
from subsetid.protocols import builtin_bell43, format_transcript

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

TRIPLE_SCRIPT = """\
set trio = states[B1,B2,B3]
task t = subset(trio, k=2)
simulate t protocol bell32
certify t cut auto
"""


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "subsetid.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )


GES16_SCRIPT = "set e = ges_basis(16)\ntask t = subset(e, k=2)\ncertify t cut A:B\n"


@pytest.fixture
def triple_script(tmp_path):
    path = tmp_path / "triple.sid"
    path.write_text(TRIPLE_SCRIPT, encoding="utf-8")
    return str(path)


class TestFamilies:
    def test_single_bell_state(self):
        proc = run_cli("families", "bell", "1")
        assert proc.returncode == 0
        assert proc.stdout == "B1: 0.707106781187 0 0 0.707106781187\n"

    def test_whole_family_listing(self):
        proc = run_cli("families", "bell")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 4
        assert lines[3].startswith("B4: ")

    def test_ges_needs_a_dimension(self):
        proc = run_cli("families", "ges")
        assert proc.returncode == 2
        assert "dimension" in proc.stderr

    def test_ges_dimension_two(self):
        proc = run_cli("families", "ges", "2", "1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("E1: ")

    def test_index_out_of_range(self):
        proc = run_cli("families", "bell", "9")
        assert proc.returncode == 2
        assert "index 9 out of range 1..4" in proc.stderr

    def test_oversized_ges_hits_the_guard(self):
        proc = run_cli("families", "ges", "300")
        assert proc.returncode == 3


class TestParse:
    def test_accepts_well_formed_script(self, triple_script):
        proc = run_cli("parse", triple_script)
        assert proc.returncode == 0
        assert proc.stdout == "ok: 4 statements\n"

    def test_rejects_bad_syntax_with_location(self, tmp_path):
        path = tmp_path / "bad.sid"
        path.write_text("set x bell_basis(2)\n", encoding="utf-8")
        proc = run_cli("parse", str(path))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr and "column" in proc.stderr

    def test_reads_stdin_dash(self):
        proc = run_cli("parse", "-", stdin="set b = bell_basis(2)\n")
        assert proc.returncode == 0
        assert proc.stdout == "ok: 1 statement\n"

    def test_missing_file(self):
        proc = run_cli("parse", "/no/such/script.sid")
        assert proc.returncode == 2


class TestSimulate:
    def test_structured_output_is_json(self, triple_script):
        proc = run_cli("simulate", triple_script, "--format", "structured")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert [r["kind"] for r in report["runs"]] == ["simulate"]
        assert report["runs"][0]["perfect_identification"] is True

    def test_unknown_protocol_fails(self, tmp_path):
        path = tmp_path / "x.sid"
        path.write_text(
            "set b = bell_basis(2)\ntask t = subset(b, k=2)\n"
            "simulate t protocol waltz\n",
            encoding="utf-8",
        )
        proc = run_cli("simulate", str(path))
        assert proc.returncode == 1
        assert "unknown protocol 'waltz'" in proc.stderr

    def test_structured_error_object(self, tmp_path):
        path = tmp_path / "x.sid"
        path.write_text(
            "set b = bell_basis(2)\ntask t = subset(b, k=2)\n"
            "simulate t protocol waltz\n",
            encoding="utf-8",
        )
        proc = run_cli("simulate", str(path), "--format", "structured")
        assert proc.returncode == 1
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ExecutionError"
        assert "waltz" in error["message"]


class TestCertify:
    def test_triple_pair_prints_condition_fails(self, triple_script):
        proc = run_cli("certify", triple_script)
        assert proc.returncode == 0
        assert "ConditionFails" in proc.stdout
        assert "kappa 3 vs bound 4" in proc.stdout

    def test_output_flag_writes_file(self, triple_script, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "certify", triple_script, "--format", "structured", "--output", str(out)
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text(encoding="utf-8"))["version"] == 1

    def test_max_dim_guard_exit_code(self, triple_script):
        proc = run_cli("certify", triple_script, "--max-dim", "8")
        assert proc.returncode == 3
        assert "exceeds the guard" in proc.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            ("--tolerance", "nan"),
            ("--tolerance", "inf"),
            ("--tolerance", "0"),
            ("--max-dim", "-5"),
        ],
    )
    def test_meaningless_settings_exit_2(self, triple_script, flags):
        proc = run_cli("certify", triple_script, "--format", "structured", *flags)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "SettingError"

    def test_largest_pair_task_is_certified(self):
        proc = run_cli("certify", "-", stdin=GES16_SCRIPT)
        assert proc.returncode == 0
        assert "kappa 32640 vs bound 256 (unitary side right) -> Certified" in proc.stdout

    def test_pair_guard_exit_code(self):
        # a tolerance below rounding leaves the bound inconclusive, and the
        # exact scan over C(32640, 2) pairs is refused
        proc = run_cli(
            "certify", "-", "--format", "structured", "--tolerance", "1e-300",
            stdin=GES16_SCRIPT,
        )
        assert proc.returncode == 3
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ResourceLimitError"
        assert "532668480 hypothesis pairs" in error["message"]

    @pytest.mark.parametrize(
        "exc,code", [(MemoryError(), 3), (ZeroDivisionError("division by zero"), 1)]
    )
    def test_unexpected_errors_become_error_objects(
        self, triple_script, monkeypatch, capsys, exc, code
    ):
        def explode(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(cli, "execute", explode)
        assert cli.run(["certify", triple_script, "--format", "structured"]) == code
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert error["type"] == type(exc).__name__
        assert error["message"]
        assert err.startswith("error: ") and "Traceback" not in err


class TestVerify:
    def test_reproduction_suite_reports_every_criterion(self):
        proc = run_cli("verify-paper")
        lines = proc.stdout.splitlines()
        tallies = [l for l in lines if l.startswith(("PASS", "FAIL"))]
        assert len(tallies) == 12
        # two checks are refuted by computation, so the suite fails overall
        assert proc.returncode == 1
        assert sum(l.startswith("FAIL") for l in tallies) == 2
        assert lines[-1] == "10/12 criteria passed"


class TestReadmeQuickStart:
    """README's Quick start, run as written, so its examples cannot drift."""

    @pytest.fixture
    def section(self):
        text = README.read_text(encoding="utf-8")
        return text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]

    def test_families_line(self, section, capsys):
        command, line = re.search(r"\$ subsetid (families .*)\n(.*)\n", section).groups()
        assert cli.run(command.split()) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_triple_script(self, section, tmp_path, capsys):
        script = re.search(r"\$ cat triple\.sid\n(.*?\n)\n", section, re.S).group(1)
        path = tmp_path / "triple.sid"
        path.write_text(script, encoding="utf-8")
        for command, stated in (
            ("simulate", "perfect identification: yes"),
            ("certify", "ConditionFails"),
        ):
            assert f"`{stated}`" in section
            assert cli.run([command, str(path)]) == 0
            assert stated in capsys.readouterr().out


def test_frozen_ambiguous_classifier_table():
    _, classifier = builtin_bell43()
    rendered = "".join(
        f"{format_transcript(transcript)} -> {subset}\n"
        for transcript, subset in classifier.sorted_items()
    )
    assert rendered == (GOLDEN / "bell43_classifier.txt").read_text(encoding="utf-8")
