"""Execute parsed scripts and render the resulting report.

The report is a plain dict with three sections filled in statement order:
``sets`` and ``tasks`` describe the declared objects, ``runs`` holds one
record per simulate or certify statement. ``render_structured`` writes the
report as JSON with sorted keys and fixed float formatting, so two runs of
the same script produce byte-identical output; ``render_text`` is the
human-oriented view of the same data.

The parser is the one judge of a script's form: a hand-built ``Script``
runs only if ``parse(serialize(script))`` gives its statements back, and the
engine checks only the domain (state names, protocols, cuts, resource
guards). Errors found while executing carry the line of the offending
statement. Resource limits keep their own exception type (the command line
maps it to a dedicated exit code) but gain the same line prefix.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict

from . import families
from .certificates import ALL_CUTS, CertificateRequest, certify_genuine
from .errors import ExecutionError, ResourceLimitError, ScriptError, SettingError
from .protocols import (
    PROTOCOLS,
    derive_classifier,
    format_transcript,
    order_blindness_verdict,
    perfect_identification,
    run_exact,
)
from .script import (
    CertifyDecl,
    Script,
    SetDecl,
    SimulateDecl,
    StatesFamily,
    TaskDecl,
    parse,
    serialize,
)
from .statespace import ATOL, Cut
from .subsets import (
    DEFAULT_MAX_DIM,
    SubsetTask,
    check_settings,
    hypothesis_ensemble,
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
                elif only is None or "certify" in only:
                    self.report["runs"].append(self.certify(stmt))
            except ResourceLimitError as e:
                raise ResourceLimitError(f"line {stmt.line}: {e}") from e
            except ValueError as e:
                raise ExecutionError(str(e), line=stmt.line) from e
        return self.report

    def declare_set(self, stmt: SetDecl):
        fam = stmt.family
        if isinstance(fam, StatesFamily):
            state_set = families.named_states(fam.names)
        elif fam.kind == "bell_basis" and fam.dim != 2:
            raise ValueError("bell_basis exists for local dimension 2 only")
        elif fam.kind == "ges_basis":
            families.check_ges_size(fam.dim, self.max_dim)
            state_set = families.ges_basis(fam.dim)
        else:  # bell_basis(2), ghz3_basis or ghz4_basis: builders without arguments
            state_set = getattr(families, fam.kind)()
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
        protocol = PROTOCOLS[stmt.protocol]()
        hypotheses = hypothesis_ensemble(task)
        sim = run_exact(protocol, hypotheses)
        # tallied from this very simulation: identified iff no reached
        # transcript is claimed by two subsets of this task
        identified = perfect_identification(sim, derive_classifier(sim, on_ambiguity="first"))
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
            for side in (stmt.cut.left, stmt.cut.right):
                for i, p in enumerate(side):
                    if p in side[:i]:
                        raise ValueError(f"party {p!r} repeats in cut {stmt.cut}")
            cut = Cut.between(stmt.cut.left, stmt.cut.right)
            cut.validate_for(layout)
        result = certify_genuine(
            CertificateRequest(
                task.state_set, task.k, cut, tol=self.tolerance, max_dim=self.max_dim
            )
        )
        record = {
            "kind": "certify",
            "task": stmt.task_name,
            "cut": str(stmt.cut),
            "certificates": [asdict(c) for c in result.certificates],
        }
        if stmt.cut == ALL_CUTS:
            record["genuine"] = result.verdict
        return record


def _admitted(script: Script) -> Script:
    """Return ``script`` if ``parse(serialize(script))`` gives its statements
    back; otherwise raise ExecutionError with the parser's diagnostic and the
    line of the first statement whose prefix does not rebuild."""
    if not isinstance(script, Script):
        raise TypeError(f"execute takes a Script or its text, not {type(script).__name__}")
    stmts = tuple(script.statements)

    def fault(n: int) -> str | None:
        try:
            rebuilt = parse(serialize(Script(stmts[:n]))).statements
        except TypeError as e:  # from serialize: a part of a foreign type
            return str(e)
        except ScriptError as e:
            return e.reason
        return None if rebuilt == stmts[:n] else "the parser reads it back as another statement"

    if fault(len(stmts)) is not None:
        # a prefix that does not rebuild fails with every statement added to it
        i = bisect.bisect_left(range(len(stmts)), True, key=lambda i: fault(i + 1) is not None)
        raise ExecutionError(fault(i + 1), line=getattr(stmts[i], "line", None))
    return script


def execute(
    script: Script | str,
    *,
    tolerance: float = ATOL,
    max_dim: int = DEFAULT_MAX_DIM,
    only=None,
) -> dict:
    """Run a script (text or parsed) and return the report dict.

    ``only`` restricts which run statements execute (a subset of {"simulate",
    "certify"}, or None for both); declarations always run. Statements run
    one after another in script order, each simulate as one ``run_exact``
    call and each certify as one ``certify_genuine`` call.
    """
    check_settings(tolerance, max_dim)
    if not (only is None or isinstance(only, (set, frozenset)) and only <= {"simulate", "certify"}):
        raise SettingError(f"only must be None or a set of 'simulate', 'certify', got {only!r}")
    script = parse(script) if isinstance(script, str) else _admitted(script)
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
