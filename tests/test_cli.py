import io
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

    @pytest.mark.parametrize("d", [-100, 0, 1])
    def test_ges_refuses_a_dimension_below_two(self, capsys, d):
        assert cli.run(["families", "ges", str(d)]) == 2
        err = capsys.readouterr().err
        assert f"error: ges_basis({d}) needs a local dimension of at least 2" in err

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

    def test_ges_guard_bounds_the_build(self, monkeypatch, capsys):
        # ges(16) builds 16**4 = 65536 amplitudes, the default guard exactly
        assert cli.run(["families", "ges", "16", "256"]) == 0
        assert capsys.readouterr().out.startswith("E256: ")

        def refuse(d):
            raise AssertionError("ges_basis built before the guard")

        monkeypatch.setattr("subsetid.cli.ges_basis", refuse)
        assert cli.run(["families", "ges", "17"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "ges_basis(17) holds 17**4 = 83521 amplitudes, above the guard of 65536" in err


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

    @pytest.mark.parametrize("d", [0, 1])
    def test_ges_below_dimension_two_fails_on_its_line(self, tmp_path, capsys, d):
        path = tmp_path / "x.sid"
        path.write_text(f"set e = ges_basis({d})\n", encoding="utf-8")
        assert cli.run(["certify", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"line 1: ges_basis({d}) needs a local dimension of at least 2" in err


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

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_output_exits_2(self, triple_script, tmp_path, capsys, missing_dir):
        # a path under a missing directory, or the empty path ("--output="),
        # which names the working directory
        flag = f"--output={tmp_path / 'missing' / 'r.json'}" if missing_dir else "--output="
        assert cli.run(["certify", triple_script, flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output ")
        assert not (tmp_path / "missing").exists()

    def test_structured_error_to_unwritable_output_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.sid"
        path.write_text("set b = bogus\n", encoding="utf-8")
        out = tmp_path / "missing" / "r.json"
        argv = ["certify", str(path), "--format", "structured", "--output", str(out)]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("error: line 1, column 9: unexpected 'bogus'")
        assert lines[1] == f"error: cannot write output {str(out)!r}: No such file or directory"

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
            ("--tolerance", "1e-11"),
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
        # a tolerance below rounding once sent this task to an exact scan
        # over C(32640, 2) hypothesis pairs; now the floor refuses it first
        proc = run_cli(
            "certify", "-", "--format", "structured", "--tolerance", "1e-300",
            stdin=GES16_SCRIPT,
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "SettingError"
        assert "at least 1e-10, got 1e-300" in error["message"]

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


class TestUnreadableScripts:
    """A script that cannot be read is a usage problem: exit 2, no traceback,
    and an error object in structured mode."""

    @pytest.fixture
    def undecodable(self, tmp_path):
        path = tmp_path / "bad.sid"
        path.write_bytes(b"set s = bell_basis(2)\n\xff\xfe\n")
        return str(path)

    def test_parse_reports_undecodable_bytes(self, undecodable, capsys):
        assert cli.run(["parse", undecodable]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_certify_reports_undecodable_bytes(self, undecodable, capsys):
        assert cli.run(["certify", undecodable, "--format", "structured"]) == 2
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert error["type"] == "UnicodeDecodeError"
        assert "can't decode byte 0xff" in error["message"]
        assert err.startswith("error: ")

    def test_certify_reports_a_directory(self, tmp_path, capsys):
        assert cli.run(["certify", str(tmp_path), "--format", "structured"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["type"] == "IsADirectoryError"
        assert err.startswith("error: ")


BELL_PAIR_SCRIPT = "set b = bell_basis(2)\ntask t = subset(b, k=2)\ncertify t cut A:B\n"
AMBIGUOUS = "ambiguous option: --=1 could match --help, --tolerance, --max-dim, --output, --format"


class TestCommandLine:
    """What a caller sees of the command-line parser: argv -> (exit code,
    fragment of stdout or stderr). The script, where one is read, is a
    certify script on standard input."""

    @pytest.mark.parametrize(
        "argv,code,stream,fragment",
        [
            pytest.param(["-h"], 0, "out", "usage: subsetid", id="help"),
            pytest.param(["--help"], 0, "out", "usage: subsetid", id="long-help"),
            pytest.param(["certify", "-h"], 0, "out", "verify-paper", id="help-after-command"),
            pytest.param(["certify", "-", "--he"], 0, "out", "--format", id="help-prefix"),
            pytest.param(
                [], 2, "err", "subsetid: error: the following arguments are required: command",
                id="missing-command",
            ),
            pytest.param(
                ["bogus"], 2, "err", "subsetid: error: argument command: invalid choice: 'bogus'",
                id="unknown-command",
            ),
            pytest.param(
                ["certify"], 2, "err",
                "subsetid certify: error: the following arguments are required: script",
                id="missing-positional",
            ),
            pytest.param(
                ["parse", "-", "extra"], 2, "err",
                "subsetid parse: error: unrecognized arguments: extra", id="extra-positional",
            ),
            pytest.param(
                ["verify-paper", "x"], 2, "err", "unrecognized arguments: x", id="no-positional",
            ),
            pytest.param(
                ["certify", "-", "--bogus"], 2, "err",
                "subsetid certify: error: unrecognized arguments: --bogus", id="unknown-option",
            ),
            pytest.param(
                ["certify", "-", "-x"], 2, "err", "unrecognized arguments: -x",
                id="unknown-short-option",
            ),
            pytest.param(["certify", "-", "--=1"], 2, "err", AMBIGUOUS, id="ambiguous-option"),
            pytest.param(
                ["certify", "-", "--format"], 2, "err",
                "subsetid certify: error: argument --format: expected one argument",
                id="missing-value",
            ),
            pytest.param(
                ["certify", "-", "--max-dim", "1.5"], 2, "err",
                "argument --max-dim: invalid int value: '1.5'", id="bad-int",
            ),
            pytest.param(
                ["certify", "-", "--tolerance", "abc"], 2, "err",
                "argument --tolerance: invalid float value: 'abc'", id="bad-float",
            ),
            pytest.param(
                ["certify", "-", "--format", "bogus"], 2, "err",
                "argument --format: invalid choice: 'bogus' (choose from 'text', 'structured')",
                id="bad-format",
            ),
            pytest.param(
                ["families", "quux"], 2, "err",
                "subsetid families: error: argument family: invalid choice: 'quux' "
                "(choose from 'bell', 'ghz3', 'ghz4', 'ges')",
                id="bad-family",
            ),
            pytest.param(
                ["families", "bell", "x"], 2, "err",
                "argument params: invalid int value: 'x'", id="bad-family-param",
            ),
            pytest.param(
                ["certify", "-", "--format", "structured"], 0, "out", '"version": 1',
                id="option-space-value",
            ),
            pytest.param(
                ["certify", "-", "--format=structured"], 0, "out", '"version": 1',
                id="option-equals-value",
            ),
            pytest.param(
                ["certify", "--format", "structured", "-"], 0, "out", '"version": 1',
                id="option-before-positional",
            ),
            pytest.param(
                ["certify", "-", "--form", "structured", "--tol", "1e-6"], 0, "out",
                '"version": 1', id="unique-prefix",
            ),
            pytest.param(
                ["certify", "-", "--format", "structured", "--max-dim", "-5"], 2, "out",
                '"type": "SettingError"', id="dash-value",
            ),
            pytest.param(
                ["certify", "-", "--format", "structured", "--max-dim=-5"], 2, "out",
                '"type": "SettingError"', id="dash-value-equals",
            ),
            pytest.param(
                ["families", "ges", "-100"], 2, "err",
                "error: ges_basis(-100) needs a local dimension of at least 2",
                id="negative-positional",
            ),
            pytest.param(
                ["certify", "--", "-"], 0, "out", "Certified", id="double-dash",
            ),
            pytest.param(
                ["certify", "-", "--", "--format"], 2, "err",
                "subsetid certify: error: unrecognized arguments: --format",
                id="double-dash-ends-options",
            ),
            pytest.param(
                ["parse", "--", "-h"], 2, "err", "error: [Errno 2]", id="double-dash-help-word",
            ),
        ],
    )
    def test_argv(self, monkeypatch, capsys, argv, code, stream, fragment):
        monkeypatch.setattr(sys, "stdin", io.StringIO(BELL_PAIR_SCRIPT))
        assert cli.run(argv) == code
        out, err = capsys.readouterr()
        assert fragment in {"out": out, "err": err}[stream]
        if ": error: " in err:
            # a usage error: the command's usage line, then the error
            assert out == ""
            usage, error, rest = err.split("\n", 2)
            assert usage.startswith("usage: subsetid") and rest == ""
            assert error.split(": error: ")[0] in ("subsetid", " ".join(["subsetid", *argv[:1]]))
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["simulate", "-h"], ["families", "bell", "--help"]]
    )
    def test_help_lists_every_command_and_option_with_its_default(self, capsys, argv):
        assert cli.run(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for command in ("families", "parse", "simulate", "certify", "verify-paper"):
            assert f"  subsetid {command} " in out
        for option in (
            "--tolerance REAL", "(default 1e-09)", "--max-dim INT", "(default 65536)",
            "--output PATH", "--format {text,structured}", "(default text)", "-h, --help",
        ):
            assert option in out

    def test_entry_point_exit_codes(self):
        assert run_cli("--help").returncode == 0
        proc = run_cli("certify")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: subsetid certify")

    def test_importing_the_cli_leaves_argparse_out(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, subsetid.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout == "False\n"


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
        for transcript, subset in sorted(classifier.table.items())
    )
    assert rendered == (GOLDEN / "bell43_classifier.txt").read_text(encoding="utf-8")
