"""Spans around the program's public functions, for the traced run only.

The harness wraps each function at the module attribute through which its
caller looks it up (``engine.certify_cut``, ``certificates.
max_hypothesis_overlap``, ``acceptance.parse``, ...), so the program itself
is not changed. A span records its id, name, start, end, parent span and
optional counts taken from the call's arguments and return value; spans
stay in memory and the child hands them to the parent when the request
ends; the parent writes each request's spans under the request's id.

A layer's self time is its span's duration minus the part of it covered by
its child spans. The parent is tracked per thread, so a span opened on a
worker thread (the engine's ``workers`` pool) is a root span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, counts]
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = [next(tracer._ids), name, 0.0, 0.0, stack[-1] if stack else None, None]
            tracer.spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[5] = count(args, kwargs, result)
                except Exception as e:  # noqa: BLE001 - a changed API must not break the request
                    span[5] = {"count_error": type(e).__name__}
            return result

        return traced


# --- counters: (args, kwargs, result) -> dict ---


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _overlap_counts(args, kwargs, result):
    state_set, k = _arg(args, kwargs, 0, "state_set"), _arg(args, kwargs, 1, "k")
    n = len(state_set)
    return {"pairs": math.comb(math.comb(n, k), 2), "key": f"{state_set.name}/{n}/{k}"}


def _ensemble_counts(args, kwargs, result):
    return {"components": sum(len(h.components) for h in result)}


def _run_exact_counts(args, kwargs, result):
    hypotheses = _arg(args, kwargs, 1, "hypotheses")
    return {
        "components": sum(len(h.components) for h in hypotheses),
        "leaves": sum(len(d) for comps in result.by_component for d in comps),
    }


def _render_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _sites(module: str, *attrs: str) -> list[str]:
    return [f"{module}:{a}" for a in attrs]


_BUILDERS = ("bell_basis", "ges_basis", "ghz3_basis", "ghz4_basis", "named_states")

#: span name -> (hook targets "module:attribute", counter)
HOOKS = {
    "certificates.overlap": (
        _sites("subsetid.certificates", "max_hypothesis_overlap")
        + _sites("subsetid.acceptance", "max_hypothesis_overlap"),
        _overlap_counts,
    ),
    "certificates.certify_cut": (
        _sites("subsetid.certificates", "certify_cut")
        + _sites("subsetid.engine", "certify_cut")
        + _sites("subsetid.acceptance", "certify_cut"),
        None,
    ),
    "subsets.hypothesis_ensemble": (
        _sites("subsetid", "hypothesis_ensemble")
        + _sites("subsetid.engine", "hypothesis_ensemble")
        + _sites("subsetid.protocols", "hypothesis_ensemble")
        + _sites("subsetid.acceptance", "hypothesis_ensemble"),
        _ensemble_counts,
    ),
    "statespace.stack_ops": (
        _sites("subsetid.subsets", "tensor", "with_copy", "permute_factors"), None,
    ),
    "statespace.is_maximally_entangled": (
        _sites("subsetid.certificates", "is_maximally_entangled")
        + _sites("subsetid.acceptance", "is_maximally_entangled"),
        None,
    ),
    "protocols.run_exact": (
        _sites("subsetid", "run_exact")
        + _sites("subsetid.engine", "run_exact")
        + _sites("subsetid.protocols", "run_exact")
        + _sites("subsetid.acceptance", "run_exact"),
        _run_exact_counts,
    ),
    "protocols.classifier": (
        _sites("subsetid", "builtin_bell32_variants", "builtin_bell43", "derive_classifier")
        + _sites("subsetid.protocols", "derive_classifier")
        + _sites("subsetid.protocols.PROTOCOLS", "bell32", "bell43")
        + _sites("subsetid.acceptance", "builtin_bell32", "builtin_bell32_variants", "builtin_bell43"),
        None,
    ),
    "protocols.verdicts": (
        _sites("subsetid", "perfect_identification", "order_blindness_verdict")
        + _sites("subsetid.engine", "perfect_identification", "order_blindness_verdict")
        + _sites("subsetid.protocols", "order_blindness_verdict")
        + _sites("subsetid.acceptance", "perfect_identification", "order_blindness_verdict"),
        None,
    ),
    "families.build": (
        _sites("subsetid", *_BUILDERS)
        + _sites("subsetid.families", *_BUILDERS)
        + _sites("subsetid.certificates", "ges_basis")
        + _sites("subsetid.protocols", "named_states")
        + _sites("subsetid.acceptance", *_BUILDERS)
        + _sites("subsetid.cli", "bell_basis", "ges_basis", "ghz3_basis", "ghz4_basis"),
        None,
    ),
    "families.connecting_unitary": (
        _sites("subsetid.acceptance", "connecting_unitary"), None,
    ),
    "script.parse": (
        _sites("subsetid.engine", "parse")
        + _sites("subsetid.acceptance", "parse")
        + _sites("subsetid.cli", "parse_script"),
        None,
    ),
    "engine.execute": (
        _sites("subsetid.cli", "execute") + _sites("subsetid.acceptance", "execute"), None,
    ),
    "engine.render": (
        _sites("subsetid.cli", "render_structured", "render_text")
        + _sites("subsetid.acceptance", "render_structured"),
        _render_counts,
    ),
}

CRITERIA_TARGET = "subsetid.acceptance:CRITERIA"
CRITERIA_IDS = tuple(f"c{i:02d}" for i in range(1, 13))


def _resolve(target: str):
    """(container, key, is_mapping) for "module:attr" or "module.DICT:key"."""
    module, attr = target.split(":")
    try:
        return importlib.import_module(module), attr, False
    except ImportError:
        parent, _, name = module.rpartition(".")
        return getattr(importlib.import_module(parent), name), attr, True


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook target that exists; return the targets that do not."""
    missing = []
    for name, (targets, count) in HOOKS.items():
        for target in targets:
            try:
                container, key, mapping = _resolve(target)
                fn = container[key] if mapping else getattr(container, key)
            except (ImportError, AttributeError, KeyError):
                missing.append(target)
                continue
            wrapped = tracer.wrap(name, fn, count)
            if mapping:
                container[key] = wrapped
            else:
                setattr(container, key, wrapped)
    try:
        acceptance, key, _ = _resolve(CRITERIA_TARGET)
        criteria = getattr(acceptance, key)
    except (ImportError, AttributeError):
        missing.append(CRITERIA_TARGET)
    else:
        acceptance.CRITERIA = tuple(
            (cid, title, tracer.wrap(f"acceptance.{cid}", fn)) for cid, title, fn in criteria
        )
        found = {cid for cid, _, _ in criteria}
        missing += [f"{CRITERIA_TARGET}[{cid}]" for cid in CRITERIA_IDS if cid not in found]
    return missing


# --- arithmetic on recorded spans ---


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _metric_hooks() -> dict:
    """Per-layer metric -> the span names it is computed from."""
    m = {
        "certificates.overlap.calls": ["certificates.overlap"],
        "certificates.overlap.self_s": ["certificates.overlap"],
        "certificates.overlap.hypothesis_pairs": ["certificates.overlap"],
        "certificates.overlap.distinct_ratio": ["certificates.overlap"],
        "certificates.certify_cut.calls": ["certificates.certify_cut"],
        "certificates.certify_cut.self_s": ["certificates.certify_cut"],
        "subsets.hypothesis_ensemble.calls": ["subsets.hypothesis_ensemble"],
        "subsets.hypothesis_ensemble.self_s": ["subsets.hypothesis_ensemble"],
        "subsets.components": ["subsets.hypothesis_ensemble"],
        "statespace.stack_ops.calls": ["statespace.stack_ops"],
        "statespace.is_maximally_entangled.calls": ["statespace.is_maximally_entangled"],
        "statespace.self_s": ["statespace.stack_ops", "statespace.is_maximally_entangled"],
        "protocols.run_exact.calls": ["protocols.run_exact"],
        "protocols.run_exact.self_s": ["protocols.run_exact"],
        "protocols.components": ["protocols.run_exact"],
        "protocols.leaves": ["protocols.run_exact"],
        "protocols.classifier.self_s": ["protocols.classifier"],
        "protocols.verdicts.self_s": ["protocols.verdicts"],
        "families.build.calls": ["families.build"],
        "families.build.self_s": ["families.build"],
        "families.connecting_unitary.calls": ["families.connecting_unitary"],
        "families.connecting_unitary.self_s": ["families.connecting_unitary"],
        "script.parse.calls": ["script.parse"],
        "script.parse.self_s": ["script.parse"],
        "engine.execute.self_s": ["engine.execute"],
        "engine.render.self_s": ["engine.render"],
        "engine.render.bytes": ["engine.render"],
    }
    for cid in CRITERIA_IDS:
        m[f"acceptance.{cid}_s"] = [f"acceptance.{cid}"]
    return m


METRIC_HOOKS = _metric_hooks()


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    return "ratio" if metric.endswith("ratio") else "count"


def missing_metrics(missing_targets) -> dict:
    """Per-layer metric -> reason, for metrics none of whose hooks exist."""
    gone = set(missing_targets)
    out = {}
    for metric, names in METRIC_HOOKS.items():
        if metric.startswith("acceptance."):
            cid = names[0].split(".")[1]
            lost = {CRITERIA_TARGET, f"{CRITERIA_TARGET}[{cid}]"} & gone
            if lost:
                out[metric] = f"hook target {sorted(lost)[0]} not found"
            continue
        targets = [t for n in names for t in HOOKS[n][0]]
        if all(t in gone for t in targets):
            out[metric] = "no hook target found: " + ", ".join(targets)
    return out


_COUNTED = {
    "certificates.overlap": ("certificates.overlap.hypothesis_pairs", "certificates.overlap.distinct_ratio"),
    "subsets.hypothesis_ensemble": ("subsets.components",),
    "protocols.run_exact": ("protocols.components", "protocols.leaves"),
    "engine.render": ("engine.render.bytes",),
}


def layer_metrics(requests) -> tuple[dict, dict]:
    """Per-layer metric values summed over one pass, and the metrics missing.

    ``requests`` is a list of span lists, one per request. A metric counted
    from arguments or results is missing when its counter failed on any span.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    broken = {}
    keys_per_request = 0
    for spans in requests:
        selfs = self_times(spans)
        keys = set()
        for sid, name, start, end, _, counts in spans:
            calls[name] += 1
            total[name + ".self"] += selfs[sid]
            total[name + ".duration"] += end - start
            for key, value in (counts or {}).items():
                if key == "count_error":
                    broken[name] = value
                elif key == "key":
                    keys.add(value)
                else:
                    total[f"{name}.{key}"] += value
        keys_per_request += len(keys)
    overlap_calls = calls["certificates.overlap"]
    out = {
        "certificates.overlap.calls": overlap_calls,
        "certificates.overlap.self_s": total["certificates.overlap.self"],
        "certificates.overlap.hypothesis_pairs": total["certificates.overlap.pairs"],
        # no call at all repeats nothing, so the ratio is then 1
        "certificates.overlap.distinct_ratio": keys_per_request / overlap_calls if overlap_calls else 1.0,
        "certificates.certify_cut.calls": calls["certificates.certify_cut"],
        "certificates.certify_cut.self_s": total["certificates.certify_cut.self"],
        "subsets.hypothesis_ensemble.calls": calls["subsets.hypothesis_ensemble"],
        "subsets.hypothesis_ensemble.self_s": total["subsets.hypothesis_ensemble.self"],
        "subsets.components": total["subsets.hypothesis_ensemble.components"],
        "statespace.stack_ops.calls": calls["statespace.stack_ops"],
        "statespace.is_maximally_entangled.calls": calls["statespace.is_maximally_entangled"],
        "statespace.self_s": total["statespace.stack_ops.self"]
        + total["statespace.is_maximally_entangled.self"],
        "protocols.run_exact.calls": calls["protocols.run_exact"],
        "protocols.run_exact.self_s": total["protocols.run_exact.self"],
        "protocols.components": total["protocols.run_exact.components"],
        "protocols.leaves": total["protocols.run_exact.leaves"],
        "protocols.classifier.self_s": total["protocols.classifier.self"],
        "protocols.verdicts.self_s": total["protocols.verdicts.self"],
        "families.build.calls": calls["families.build"],
        "families.build.self_s": total["families.build.self"],
        "families.connecting_unitary.calls": calls["families.connecting_unitary"],
        "families.connecting_unitary.self_s": total["families.connecting_unitary.self"],
        "script.parse.calls": calls["script.parse"],
        "script.parse.self_s": total["script.parse.self"],
        "engine.execute.self_s": total["engine.execute.self"],
        "engine.render.self_s": total["engine.render.self"],
        "engine.render.bytes": total["engine.render.bytes"],
    }
    for cid in CRITERIA_IDS:
        out[f"acceptance.{cid}_s"] = total[f"acceptance.{cid}.duration"]
    missing = {}
    for name, error in broken.items():
        for metric in _COUNTED[name]:
            out.pop(metric)
            missing[metric] = f"counting {name} raised {error}"
    return out, missing
