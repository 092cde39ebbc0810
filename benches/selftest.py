"""Self-test of the benchmark harness; run from the repository root:

    python3 benches/selftest.py

Each reference check must accept the program's real output and reject a
doctored copy of it, and self time must come out right on a synthetic span
tree. Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import checks
import spans
import workloads
from run import HERE, MEMORY_CAP, ROOT, child_env


class SelfTestFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def child_output(workload: str, name: str):
    index = next(i for i, r in enumerate(workloads.WORKLOADS[workload]) if r.name == name)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(index), "0", str(MEMORY_CAP)],
        cwd=ROOT, env=child_env(), capture_output=True, check=True, timeout=120,
    )
    result = json.loads(proc.stdout)
    return workloads.WORKLOADS[workload][index], result["exit"], result["output"]


def test_self_times():
    # root [0,10] holds a [1,4] and b [5,9]; a holds d [2,3]; b holds c [6,7]
    tree = [
        [0, "root", 0.0, 10.0, None, None],
        [1, "a", 1.0, 4.0, 0, None],
        [2, "b", 5.0, 9.0, 0, None],
        [3, "c", 6.0, 7.0, 2, None],
        [4, "d", 2.0, 3.0, 1, None],
    ]
    got = spans.self_times(tree)
    expect(got == {0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}, f"self times {got}")


def test_layer_sums():
    # one request: certify_cut [0,5] calls the overlap [1,3] twice on one (set, k)
    overlap = {"pairs": 15, "key": "s/6/2"}
    request = [
        [0, "certificates.certify_cut", 0.0, 5.0, None, None],
        [1, "certificates.overlap", 1.0, 2.0, 0, overlap],
        [2, "certificates.overlap", 2.5, 3.0, 0, overlap],
    ]
    metrics, missing = spans.layer_metrics([request])
    expect(not missing, f"missing {missing}")
    want = {
        "certificates.certify_cut.self_s": 3.5,
        "certificates.overlap.self_s": 1.5,
        "certificates.overlap.calls": 2,
        "certificates.overlap.hypothesis_pairs": 30,
        "certificates.overlap.distinct_ratio": 0.5,
    }
    for name, value in want.items():
        expect(metrics[name] == value, f"{name} is {metrics[name]}, expected {value}")
    broken = [[0, "engine.render", 0.0, 1.0, None, {"count_error": "AttributeError"}]]
    metrics, missing = spans.layer_metrics([broken])
    expect("engine.render.bytes" in missing and "engine.render.bytes" not in metrics,
           "a failed counter must leave its metric missing, not zero")


def test_missing_hooks():
    missing = spans.missing_metrics(spans.HOOKS["families.connecting_unitary"][0])
    expect(set(missing) == {"families.connecting_unitary.calls", "families.connecting_unitary.self_s"},
           f"missing {sorted(missing)}")


def test_certify_reference():
    request, code, output = child_output("certify-sweep", "ghz4-k2-all")
    expect(checks.check_certify(request, code, output) is None, "real output rejected")
    report = json.loads(output)
    for cert in report["runs"][0]["certificates"]:
        if cert["cut"] == "AC:BD":
            cert["verdict"] = "Certified"
    doctored = json.dumps(report)
    expect(checks.check_certify(request, code, doctored) is not None, "doctored verdict accepted")
    expect(checks.check_certify(request, 1, output) is not None, "exit code 1 accepted")


def test_simulate_reference():
    request, code, output = child_output("simulate-protocols", "bell32-B123")
    reference = checks.SimulateReference()
    expect(reference.check(request, code, output) is None, "real output rejected")
    shifted = copy.deepcopy(output)
    dist = shifted["by_component"][0][0]
    a, b = sorted(dist)[:2]
    dist[a], dist[b] = dist[a] + 1e-6, dist[b] - 1e-6
    expect(reference.check(request, code, shifted) is not None, "mass moved by 1e-6 accepted")
    leaked = copy.deepcopy(output)
    leaked["by_component"][0][0][a] += 1e-6
    expect(reference.check(request, code, leaked) is not None, "non-conserving distribution accepted")
    flipped = dict(output, order_blind=not output["order_blind"])
    expect(reference.check(request, code, flipped) is not None, "flipped verdict accepted")


def test_verify_reference():
    request, code, output = child_output("verify-paper", "verify-paper")
    expect(checks.check_verify(request, code, output) is None, "real scorecard rejected")
    doctored = output.replace("FAIL c10", "PASS c10").replace("10/12", "11/12")
    expect(checks.check_verify(request, code, doctored) is not None, "11/12 scorecard accepted")
    expect(checks.check_verify(request, 0, output) is not None, "exit code 0 accepted")


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except SelfTestFailure as e:
                failures += 1
                print(f"FAIL {name}: {e}")
            else:
                print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
