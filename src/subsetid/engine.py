"""Execute parsed scripts and render the resulting report.

The report is a plain dict with three sections filled in statement order:
``sets`` and ``tasks`` describe the declared objects, ``runs`` holds one
record per simulate or certify statement. ``render_structured`` writes the
report as JSON with sorted keys and fixed float formatting, so two runs of
the same script produce byte-identical output; ``render_text`` is the
human-oriented view of the same data.

Errors found while executing carry the line of the offending statement.
Resource limits keep their own exception type (the command line maps it to
a dedicated exit code) but gain the same line prefix.
"""

from __future__ import annotations

import json

from . import families
from .certificates import ALL_CUTS, CertificateRequest, certify_genuine
from .errors import ExecutionError, ResourceLimitError
from .protocols import (
    PROTOCOLS,
    check_locality,
    format_transcript,
    order_blindness_verdict,
    perfect_identification,
    run_exact,
)
from .script import (
    CertifyDecl,
    CutSpec,
    Script,
    SetDecl,
    SimulateDecl,
    StatesFamily,
    TaskDecl,
    parse,
)
from .statespace import ATOL, Cut
from .subsets import (
    DEFAULT_MAX_DIM,
    SubsetTask,
    check_settings,
    hypothesis_ensemble,
    stacked_state,
)

REPORT_VERSION = 1


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class _Engine:
    def __init__(self, tolerance: float, max_dim: int):
        self.tolerance = tolerance
        self.max_dim = max_dim
        self.sets: dict = {}
        self.tasks: dict[str, SubsetTask] = {}
        self.report: dict = {"version": REPORT_VERSION, "sets": {}, "tasks": {}, "runs": []}

    def run(self, script: Script, only) -> dict:
        for stmt in script.statements:
            try:
                if isinstance(stmt, SetDecl):
                    self.declare_set(stmt)
                elif isinstance(stmt, TaskDecl):
                    self.declare_task(stmt)
                elif isinstance(stmt, SimulateDecl):
                    if only is None or "simulate" in only:
                        self.report["runs"].append(self.simulate(stmt))
                elif isinstance(stmt, CertifyDecl):
                    if only is None or "certify" in only:
                        self.report["runs"].append(self.certify(stmt))
            except ExecutionError:
                raise
            except ResourceLimitError as e:
                raise ResourceLimitError(f"line {stmt.line}: {e}") from e
            except ValueError as e:
                raise ExecutionError(str(e), line=stmt.line) from e
        return self.report

    def declare_set(self, stmt: SetDecl):
        fam = stmt.family
        if isinstance(fam, StatesFamily):
            state_set = families.named_states(fam.names)
        elif fam.kind == "bell_basis":
            if fam.dim != 2:
                raise ValueError("bell_basis exists for local dimension 2 only")
            state_set = families.bell_basis()
        elif fam.kind == "ges_basis":
            if fam.dim is not None and fam.dim ** 2 > self.max_dim:
                raise ResourceLimitError(
                    f"ges_basis({fam.dim}) lives in dimension {fam.dim ** 2}, "
                    f"above the limit {self.max_dim}"
                )
            state_set = families.ges_basis(fam.dim)
        elif fam.kind == "ghz3_basis":
            state_set = families.ghz3_basis()
        else:
            state_set = families.ghz4_basis()
        self.sets[stmt.name] = state_set
        layout = state_set.layout
        self.report["sets"][stmt.name] = {
            "family": state_set.name,
            "size": len(state_set),
            "parties": list(layout.parties),
            "dim": layout.dim,
        }

    def declare_task(self, stmt: TaskDecl):
        task = SubsetTask(self.sets[stmt.set_name], stmt.k, max_dim=self.max_dim)
        self.tasks[stmt.name] = task
        self.report["tasks"][stmt.name] = {
            "set": stmt.set_name,
            "k": stmt.k,
            "hypothesis_count": len(task.subsets),
            "stacked_dim": task.stacked_dim,
        }

    def simulate(self, stmt: SimulateDecl) -> dict:
        task = self.tasks[stmt.task_name]
        if stmt.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {stmt.protocol!r} "
                f"(available: {', '.join(sorted(PROTOCOLS))})"
            )
        protocol, classifier = PROTOCOLS[stmt.protocol]()
        # refuse a protocol that does not fit before any hypothesis is built
        check_locality(protocol, stacked_state(task.state_set, range(task.k)).layout)
        hypotheses = hypothesis_ensemble(task)
        sim = run_exact(protocol, hypotheses)
        identified = perfect_identification(sim, classifier)
        blind = order_blindness_verdict(sim, self.tolerance)
        record = {
            "kind": "simulate",
            "task": stmt.task_name,
            "protocol": stmt.protocol,
            "hypotheses": [
                {
                    "subset": list(h.subset_indices),
                    "states": task.state_set.subset_label(h.subset_indices),
                    "distribution": {
                        format_transcript(t): p for t, p in sorted(d.items())
                    },
                }
                for h, d in zip(hypotheses, sim.distributions)
            ],
            "perfect_identification": identified.ok,
            "order_blindness": blind.ok,
        }
        if identified.witness is not None:
            record["identification_witness"] = _jsonable(identified.witness)
        if blind.witness is not None:
            record["order_witness"] = _jsonable(blind.witness)
        return record

    def certify(self, stmt: CertifyDecl) -> dict:
        task = self.tasks[stmt.task_name]
        layout = task.state_set.layout
        if stmt.cut == ALL_CUTS:
            cut = ALL_CUTS
        elif stmt.cut == "auto":
            if len(layout.parties) != 2:
                raise ValueError(
                    "cut auto needs a two-party set, this one has parties "
                    + ", ".join(layout.parties)
                )
            cut = Cut.between(layout.parties[:1], layout.parties[1:])
        else:
            cut = self.explicit_cut(stmt.cut, layout)
        result = certify_genuine(
            CertificateRequest(
                task.state_set, task.k, cut, tol=self.tolerance, max_dim=self.max_dim
            )
        )
        record = {
            "kind": "certify",
            "task": stmt.task_name,
            "cut": stmt.cut if isinstance(stmt.cut, str) else f"{stmt.cut.left}:{stmt.cut.right}",
            "certificates": [
                {
                    "cut": c.cut,
                    "kappa": c.kappa,
                    "bound": c.bound,
                    "unitary_side": c.unitary_side,
                    "axiom": c.axiom,
                    "premises": dict(c.premises),
                    "verdict": c.verdict,
                }
                for c in result.certificates
            ],
        }
        if stmt.cut == ALL_CUTS:
            record["genuine"] = result.verdict
        return record

    @staticmethod
    def explicit_cut(spec: CutSpec, layout) -> Cut:
        for side in (spec.left, spec.right):
            seen = set()
            for p in side:
                if p in seen:
                    raise ValueError(
                        f"party {p!r} repeats in cut {spec.left}:{spec.right}"
                    )
                seen.add(p)
        cut = Cut.between(spec.left, spec.right)
        cut.validate_for(layout)
        return cut


def execute(
    script: Script | str,
    *,
    tolerance: float = ATOL,
    max_dim: int = DEFAULT_MAX_DIM,
    only=None,
) -> dict:
    """Run a script (text or parsed) and return the report dict.

    ``only`` restricts which run statements execute ({"simulate"},
    {"certify"}, or None for both); declarations always run. Statements run
    one after another in script order, each simulate as one ``run_exact``
    call and each certify as one ``certify_genuine`` call.
    """
    check_settings(tolerance, max_dim)
    if isinstance(script, str):
        script = parse(script)
    return _Engine(tolerance, max_dim).run(script, only)


# --- report rendering ---


def format_float(x: float) -> str:
    """Twelve significant digits, with negative zero printed as ``0``."""
    s = "%.12g" % x
    return "0" if s == "-0" else s


def _render_json(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            items.append(f"{inner}{json.dumps(key)}: {_render_json(value[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_structured(report: dict) -> str:
    """Deterministic JSON: sorted keys, two-space indent, floats at twelve
    significant digits, trailing newline."""
    return _render_json(report, 0) + "\n"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _witness_line(witness: dict) -> str:
    parts = []
    for key in sorted(witness):
        v = witness[key]
        parts.append(f"{key}={format_float(v) if isinstance(v, float) else v}")
    return ", ".join(parts)


def render_text(report: dict) -> str:
    lines: list[str] = []
    if report["sets"]:
        lines.append("sets:")
        for name, rec in report["sets"].items():
            lines.append(
                f"  {name}: {rec['family']}, {rec['size']} states on parties "
                f"{','.join(rec['parties'])}, dim {rec['dim']}"
            )
    if report["tasks"]:
        lines.append("tasks:")
        for name, rec in report["tasks"].items():
            lines.append(
                f"  {name}: k={rec['k']} of set {rec['set']}, "
                f"{rec['hypothesis_count']} hypotheses, stacked dim {rec['stacked_dim']}"
            )
    for run in report["runs"]:
        if run["kind"] == "simulate":
            lines.append(f"simulate {run['task']} protocol {run['protocol']}")
            for h in run["hypotheses"]:
                subset = ",".join(str(i) for i in h["subset"])
                lines.append(f"  hypothesis {h['states']} (subset {subset})")
                for t, p in h["distribution"].items():
                    lines.append(f"    {t}  {format_float(p)}")
            lines.append(f"  perfect identification: {_yesno(run['perfect_identification'])}")
            lines.append(f"  order blindness: {_yesno(run['order_blindness'])}")
            if "identification_witness" in run:
                lines.append(f"  identification witness: {_witness_line(run['identification_witness'])}")
            if "order_witness" in run:
                lines.append(f"  order witness: {_witness_line(run['order_witness'])}")
        else:
            lines.append(f"certify {run['task']} cut {run['cut']}")
            for c in run["certificates"]:
                lines.append(
                    f"  cut {c['cut']}: kappa {c['kappa']} vs bound {c['bound']} "
                    f"(unitary side {c['unitary_side']}) -> {c['verdict']}"
                )
                lines.append(f"    axiom: {c['axiom']}")
                premises = ", ".join(f"{k}={_yesno(v)}" for k, v in c["premises"].items())
                lines.append(f"    premises: {premises}")
            if "genuine" in run:
                lines.append(f"  genuine: {run['genuine']}")
    return "\n".join(lines) + "\n" if lines else ""
