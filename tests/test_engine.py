import itertools
import json
from pathlib import Path

import pytest

from subsetid import execute, render_structured, render_text
from subsetid.errors import ExecutionError, ResourceLimitError, SettingError

GOLDEN = Path(__file__).parent / "golden"

TRIO_SCRIPT = """\
set trio = states[B1,B2,B3]
task t = subset(trio, k=2)
simulate t protocol bell32
"""


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestReportStructure:
    def test_sections_and_order(self):
        report = execute(TRIO_SCRIPT + "certify t cut auto\n")
        assert report["version"] == 1
        assert report["sets"]["trio"] == {
            "family": "states[B1,B2,B3]",
            "size": 3,
            "parties": ["A", "B"],
            "dim": 4,
        }
        assert report["tasks"]["t"] == {
            "set": "trio",
            "k": 2,
            "hypothesis_count": 3,
            "stacked_dim": 16,
        }
        assert [r["kind"] for r in report["runs"]] == ["simulate", "certify"]

    def test_simulate_record(self):
        run = execute(TRIO_SCRIPT)["runs"][0]
        assert run["protocol"] == "bell32"
        assert run["perfect_identification"] is True
        assert run["order_blindness"] is True
        assert "identification_witness" not in run
        first = run["hypotheses"][0]
        assert first["subset"] == [0, 1]
        assert first["states"] == "B1+B2"
        assert first["distribution"]["A:1 B:2"] == pytest.approx(0.25)

    def test_simulate_witnesses_included_on_failure(self):
        run = execute(
            "set b = bell_basis(2)\ntask t = subset(b, k=3)\n"
            "simulate t protocol bell43\n"
        )["runs"][0]
        assert run["perfect_identification"] is False
        assert run["order_blindness"] is False
        assert run["identification_witness"]["transcript"].startswith("A:")
        assert run["order_witness"]["total_variation"] == pytest.approx(1.0, abs=1e-9)

    def test_certify_record(self):
        run = execute(
            "set b = bell_basis(2)\ntask t = subset(b, k=2)\ncertify t cut A:B\n"
        )["runs"][0]
        assert run["cut"] == "A:B"
        assert "genuine" not in run
        (cert,) = run["certificates"]
        assert cert["verdict"] == "Certified"
        assert cert["kappa"] == 6 and cert["bound"] == 4

    def test_genuine_only_for_all(self):
        run = execute(
            "set g = ghz3_basis\ntask t = subset(g, k=2)\ncertify t cut all\n"
        )["runs"][0]
        assert run["genuine"] == "Certified"
        assert [c["cut"] for c in run["certificates"]] == ["A:BC", "B:AC", "C:AB"]


class TestOnlyFilter:
    SCRIPT = TRIO_SCRIPT + "certify t cut auto\n"

    def test_simulate_only(self):
        report = execute(self.SCRIPT, only={"simulate"})
        assert [r["kind"] for r in report["runs"]] == ["simulate"]
        assert "t" in report["tasks"]  # declarations always run

    def test_certify_only(self):
        report = execute(self.SCRIPT, only={"certify"})
        assert [r["kind"] for r in report["runs"]] == ["certify"]


class TestDeterminism:
    SCRIPT = TRIO_SCRIPT + "certify t cut auto\n"

    def test_bytes_stable_across_runs(self):
        blobs = {render_structured(execute(self.SCRIPT)) for _ in range(2)}
        assert len(blobs) == 1

    def test_structured_output_is_json(self):
        text = render_structured(execute(self.SCRIPT))
        parsed = json.loads(text)
        assert parsed["version"] == 1
        assert text.endswith("\n")


class TestGoldenFiles:
    def test_table_report(self):
        assert render_structured(execute(TRIO_SCRIPT)) == golden_text("bell_pair_simulate.txt")

    @pytest.mark.parametrize(
        "family,name",
        [("ghz3_basis", "ghz3_genuine.txt"), ("ghz4_basis", "ghz4_genuine.txt")],
    )
    def test_genuine_reports(self, family, name):
        script = f"set g = {family}\ntask t = subset(g, k=2)\ncertify t cut all\n"
        assert render_structured(execute(script)) == golden_text(name)

    def test_bell43_report(self):
        script = "set b = bell_basis(2)\ntask t = subset(b, k=3)\nsimulate t protocol bell43\n"
        assert render_structured(execute(script)) == golden_text("bell43_simulate.txt")


BELL_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


class TestSoundVerdicts:
    """The identification verdict comes from the simulation it judges, so it
    holds for any set the script declares, in any order."""

    @pytest.mark.parametrize(
        "order",
        [order for triple in BELL_TRIPLES for order in itertools.permutations(triple)],
        ids=lambda order: "".join(f"B{i}" for i in order),
    )
    def test_every_ordered_bell_triple_is_identified(self, order):
        names = ",".join(f"B{i}" for i in order)
        run = execute(
            f"set trio = states[{names}]\ntask t = subset(trio, k=2)\n"
            "simulate t protocol bell32\n"
        )["runs"][0]
        assert run["perfect_identification"] is True
        assert run["order_blindness"] is True
        assert "identification_witness" not in run

    @pytest.mark.parametrize("family,cut", [("bell_basis(2)", "auto"), ("ghz3_basis", "all")])
    def test_certified_task_is_not_identified(self, family, cut):
        simulated, certified = execute(
            f"set s = {family}\ntask t = subset(s, k=2)\n"
            f"simulate t protocol bell32\ncertify t cut {cut}\n"
        )["runs"]
        assert {c["verdict"] for c in certified["certificates"]} == {"Certified"}
        assert simulated["perfect_identification"] is False
        # the witness transcript is reached under both subsets it confuses
        witness = simulated["identification_witness"]
        assert witness["hypothesis"] != witness["classified"]
        reached = {tuple(h["subset"]): h["distribution"] for h in simulated["hypotheses"]}
        for subset in (witness["hypothesis"], witness["classified"]):
            assert reached[tuple(subset)][witness["transcript"]] > 0


class TestExecutionErrors:
    @pytest.mark.parametrize(
        "source,line,fragment",
        [
            ("set x = bell_basis(3)", 1, "local dimension 2 only"),
            ("set x = states[B1,Q9]", 1, "unknown state name"),
            ("set x = bell_basis(2)\ntask t = subset(x, k=9)", 2, "must satisfy"),
            (
                "set x = bell_basis(2)\ntask t = subset(x, k=2)\nsimulate t protocol waltz",
                3,
                "unknown protocol 'waltz'",
            ),
            (
                "set g = ghz3_basis\ntask t = subset(g, k=2)\ncertify t cut auto",
                3,
                "two-party set",
            ),
            (
                "set x = bell_basis(2)\ntask t = subset(x, k=2)\ncertify t cut A:Q",
                3,
                "does not bipartition",
            ),
            (
                "set x = bell_basis(2)\ntask t = subset(x, k=2)\ncertify t cut AA:B",
                3,
                "repeats in cut",
            ),
        ],
    )
    def test_located_failures(self, source, line, fragment):
        with pytest.raises(ExecutionError) as exc:
            execute(source)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_protocol_checked_before_hypotheses_are_built(self, monkeypatch):
        def refuse(task):
            raise AssertionError("hypothesis_ensemble called before the locality check")

        monkeypatch.setattr("subsetid.engine.hypothesis_ensemble", refuse)
        with pytest.raises(ExecutionError) as exc:
            execute("set e = ges_basis(8)\ntask t = subset(e, k=2)\nsimulate t protocol bell32\n")
        assert exc.value.line == 3
        assert "measurement acts on dimension 4 but party A holds dimension 64" in str(exc.value)

    def test_resource_guard_keeps_its_type(self):
        with pytest.raises(ResourceLimitError, match="line 2"):
            execute("set x = bell_basis(2)\ntask t = subset(x, k=3)", max_dim=32)

    @pytest.mark.parametrize(
        "settings", [{"tolerance": float("nan")}, {"tolerance": float("inf")}, {"max_dim": -5}]
    )
    def test_meaningless_settings_are_refused(self, settings):
        # refused before any statement runs, simulate as well as certify
        with pytest.raises(SettingError):
            execute(TRIO_SCRIPT + "certify t cut auto\n", **settings)

    def test_certify_rejects_single_copy_tasks(self):
        src = "set x = states[B1,B3]\ntask t = subset(x, k=1)\ncertify t cut auto\n"
        with pytest.raises(ExecutionError, match="1 < k"):
            execute(src)
        # but simulating a single-copy task is allowed
        report = execute(
            "set x = states[B1,B3]\ntask t = subset(x, k=1)\n", only={"simulate"}
        )
        assert report["tasks"]["t"]["stacked_dim"] == 4


class TestTextRendering:
    def test_text_report_lines(self):
        text = render_text(execute(TRIO_SCRIPT + "certify t cut auto\n"))
        assert "simulate t protocol bell32" in text
        assert "  hypothesis B1+B2 (subset 0,1)" in text
        assert "    A:1 B:2  0.25" in text
        assert "perfect identification: yes" in text
        assert "cut A:B: kappa 3 vs bound 4" in text
        assert text.endswith("-> ConditionFails\n") or "ConditionFails" in text

    def test_empty_script_renders_empty(self):
        assert render_text(execute("")) == ""
        assert json.loads(render_structured(execute(""))) == {
            "version": 1, "sets": {}, "tasks": {}, "runs": [],
        }

    def test_text_floats_match_structured_precision(self):
        text = render_text(execute("set g = ghz3_basis\ntask t = subset(g, k=2)\ncertify t cut all\n"))
        assert "genuine: Certified" in text
