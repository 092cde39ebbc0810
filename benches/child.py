"""Run one benchmark request in a fresh process and print its result as JSON.

Usage (from the repository root, with src on PYTHONPATH):

    python3 benches/child.py WORKLOAD INDEX TRACE MEMORY_CAP_BYTES

The package is imported first, before anything of the harness, and the
moment it is ready is reported on the monotonic clock so that the parent
can compute the time from spawn to ready. The request call alone is timed.
The address-space cap is set after the import, so it bounds the request.
After the request, with the cap lifted, the child times the calibration
task (calibration.py), so that the parent can divide the request's time by
the machine's speed at that moment.
"""

import sys
import time

import subsetid
import subsetid.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _transcript(t) -> str:
    return " ".join(f"{party}:{outcome}" for party, outcome in t)


def _state_set(family):
    s = subsetid
    kind, arg = family
    if kind == "bell":
        return s.named_states([f"B{i}" for i in arg]) if arg else s.bell_basis()
    if kind == "ges":
        return s.ges_basis(arg)
    return s.ghz3_basis() if kind == "ghz3" else s.ghz4_basis()


def _protocol(spec, steps):
    """(protocol, classifier or None) for a simulate request."""
    s = subsetid
    kind = spec["protocol"][0]
    if kind == "builtin_bell32_variants":
        return s.builtin_bell32_variants(spec["protocol"][1])
    if kind == "builtin_bell43":
        return s.builtin_bell43()

    def measurement(party, meas):
        projs, outcomes = meas
        return s.Measurement(party, tuple(projs), tuple(outcomes))

    protocol = s.Protocol(kind, tuple(
        s.ProtocolStep(
            measurement(party, default),
            {prefix: measurement(party, m) for prefix, m in variants.items()},
        )
        for party, default, variants in steps
    ))
    return protocol, None


def run_simulate(spec):
    """Build the task, then hypotheses, run_exact, classifier and verdicts."""
    s = subsetid
    steps = workloads.oracle_steps(spec)
    t0 = time.perf_counter()
    task = s.SubsetTask(_state_set(spec["family"]), spec["k"])
    protocol, classifier = _protocol(spec, steps)
    hypotheses = s.hypothesis_ensemble(task)
    report = s.run_exact(protocol, hypotheses)
    if classifier is None:
        classifier = s.derive_classifier(report, on_ambiguity="first")
    identified = s.perfect_identification(report, classifier)
    blind = s.order_blindness_verdict(report)
    t1 = time.perf_counter()
    output = {
        "subsets": [list(h.subset_indices) for h in report.hypotheses],
        "distributions": [
            {_transcript(t): p for t, p in d.items()} for d in report.distributions
        ],
        "by_component": [
            [{_transcript(t): p for t, p in d.items()} for d in comps]
            for comps in report.by_component
        ],
        "identified": identified.ok,
        "order_blind": blind.ok,
    }
    return t1 - t0, 0, output


def run_cli(argv, stdin_text):
    """subsetid.cli.run(argv) with stdin fed and stdout captured."""
    sys.stdin = io.StringIO(stdin_text or "")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = subsetid.cli.run(argv)
        except SystemExit as e:
            code = e.code
        t1 = time.perf_counter()
    return t1 - t0, code, buf.getvalue()


def peak_rss_kb() -> int:
    """This process's peak resident set, in KiB.

    ``ru_maxrss`` is not used: it keeps the parent's peak from before the
    exec, so a large harness would set every child's figure.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    workload, index, trace, cap = argv
    request = workloads.WORKLOADS[workload][int(index)]
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(subsetid.__file__).startswith(src + os.sep):
        print(f"subsetid imported from {subsetid.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if trace == "1" else None
    missing = spans.install(tracer) if tracer else []
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = int(cap) if hard == resource.RLIM_INFINITY else min(int(cap), hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    result = {"ready": READY, "error": None, "exit": None, "output": None}
    try:
        if request.kind == "simulate":
            seconds, code, output = run_simulate(request.payload)
        elif request.kind == "certify":
            seconds, code, output = run_cli(
                ["certify", "-", "--format", "structured"], request.payload
            )
        else:
            seconds, code, output = run_cli(["verify-paper"], None)
        result.update(request_s=seconds, exit=code, output=output)
    except Exception as e:  # noqa: BLE001 - any failure of the request is reported
        result["error"] = f"{type(e).__name__}: {e}"
        result["traceback"] = traceback.format_exc(limit=4)
    result["peak_rss_kb"] = peak_rss_kb()
    resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
    result["calibration_s"] = calibration.calibrate()
    if tracer:
        result["spans"] = tracer.spans
        result["missing_hooks"] = missing
    json.dump(result, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
