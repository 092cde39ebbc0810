"""The benchmark's trace hooks still reach the program.

``benches/spans.py`` wraps public functions at the module attributes their
callers look them up through. A rename that leaves a per-layer metric with
no hook at all would otherwise show only in a traced benchmark run. These
tests read the hook table without installing the tracer.
"""

import importlib.util
from pathlib import Path

from subsetid import acceptance

SPANS_PATH = Path(__file__).resolve().parents[1] / "benches" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _unresolved_targets() -> list[str]:
    unresolved = []
    for targets, _ in spans.HOOKS.values():
        for target in targets:
            try:
                container, key, mapping = spans._resolve(target)
                container[key] if mapping else getattr(container, key)
            except (ImportError, AttributeError, KeyError):
                unresolved.append(target)
    return unresolved


def test_every_per_layer_metric_keeps_a_hook():
    assert spans.missing_metrics(_unresolved_targets()) == {}


def test_criteria_hold_c01_to_c12():
    assert tuple(cid for cid, _, _ in acceptance.CRITERIA) == spans.CRITERIA_IDS
