"""End-to-end benchmark of subsetid, with a traced run for per-layer metrics.

Usage, from the repository root:

    python3 benches/run.py --workload certify-sweep --seed 1 --seconds 36 --trace 0
    python3 benches/run.py --workload all          # every workload, one table
    python3 benches/selftest.py                    # checks of the harness itself

The load is a closed loop with one client: each request of the workload
(see workloads.py) runs in its own fresh child process, one child at a
time, as every CLI invocation starts cold; no cache can carry over from one
request to the next. BLAS thread pools are pinned to one thread, so a
child never runs more threads than the machine has cores. A pass visits
every request once, in an order drawn from the seed. Passes repeat until
the next one would end after ``--seconds``; there are always at least two.
The oracle references of simulate-protocols are computed before the timed
passes start, or read from ``.benches-out/`` where an earlier run left them.

The machine is shared, and its speed swings by a third and more within a
run and from run to run. So each child, after its request, also times a
fixed calibration task of the benchmark's own (calibration.py), and request
times are gated in ``cal``: the request's time divided by the median
calibration time of the five children nearest it in run order, itself and
two on each side. One cal is the time the calibration task takes on that
machine at that moment, 0.13-0.25 s on a shared 2-core machine. The median
of five follows spells of a few seconds yet is steadier than one child's
calibration alone.

With ``--trace 0`` every pass is timed and the end-to-end metrics are:

setup_s        median over the run's children of the time from spawn until
               ``subsetid`` and ``subsetid.cli`` are imported
batch_cal      time to all verdicts of one pass: the sum over requests of the
               median over passes of the request's time in cal, each timed
               in the child around the request call only
request_cal.gmean
               geometric mean of the request times in cal: every request,
               small or large, weighs the same
peak_rss_mb    largest peak resident set (VmHWM) among children whose request
               completed

Printed beside them but not gated: ``batch_s`` and ``request_s.gmean``,
the same in seconds; ``request_s.p50``, the median request time, with its
sample count; ``calibration_s``, the median calibration time; and
``failed_share``, failed / attempted. The times in seconds spread by up to
a third from run to run on a shared machine; the median is the time of one
middle request; the failed share is 0 wherever nothing fails, and the
result's ``attempted`` and ``failed`` carry it.

The guard row of certify-sweep runs every pass under the same address-space
cap and timeout as every request and counts in ``attempted`` and ``failed``,
but never in the request times or peak_rss_mb, so the cap cannot set
them. A request fails when its child crashes, times out, exceeds the memory
cap, returns an unexpected exit code or disagrees with its reference. The
result is ``correct`` when no output disagreed with its reference and no
request other than the guard row failed.

With ``--trace 1`` timed and traced passes alternate. Traced children wrap
the program's public functions (spans.py); the per-layer metrics are the
median over traced passes of each pass's sums, the guard row left out, and
``trace.overhead_s`` is traced batch_s minus timed batch_s. A metric whose
hooks no longer exist in the program is reported missing by name, never as
zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Samples, metadata
and, for traced runs, every span go to ``.benches-out/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".benches-out"

#: address-space cap of every child, in bytes; the guard row stops here
MEMORY_CAP = 1 << 30
#: per-request timeout, seconds
REQUEST_TIMEOUT = 60
#: children on each side, in run order, whose calibration joins a request's own
CALIBRATION_NEIGHBOURS = 2
#: no request starts this long after the run began, so the run ends in time
RUN_LIMIT = 165
MIN_PASSES = 2
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class NoResult(Exception):
    pass


class Sample:
    """One request's outcome in one pass."""

    def __init__(self, pass_no, mode, request):
        self.pass_no, self.mode, self.name, self.guard = pass_no, mode, request.name, request.guard
        self.setup_s = self.request_s = self.calibration_s = self.speed_s = self.peak_rss_kb = None
        self.failure = None
        self.wrong = False
        self.spans = None
        self.missing_hooks = ()

    def record(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "spans"}


def run_request(sample, workload, index, request, reference, trace, deadline):
    timeout = min(REQUEST_TIMEOUT, deadline - time.monotonic())
    if timeout <= 0:
        sample.failure = "not started: the run's time limit was reached"
        return sample
    argv = [sys.executable, str(HERE / "child.py"), workload, str(index),
            "1" if trace else "0", str(MEMORY_CAP)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sample.failure = f"timed out after {timeout:.0f} s"
        return sample
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        sample.failure = f"child exited {proc.returncode} without a result: {tail}"
        return sample
    sample.setup_s = result["ready"] - spawned
    sample.peak_rss_kb = result["peak_rss_kb"]
    sample.calibration_s = result["calibration_s"]
    sample.spans = result.get("spans")
    sample.missing_hooks = result.get("missing_hooks", ())
    if result["error"]:
        kind = "exceeded the memory cap" if result["error"].startswith("MemoryError") else "crashed"
        sample.failure = f"{kind}: {result['error']}"
        return sample
    sample.request_s = result["request_s"]
    try:
        reason = reference(request, result["exit"], result["output"])
    except (KeyError, IndexError, TypeError, AttributeError) as e:
        reason = f"malformed output ({type(e).__name__}: {e})"
    if reason:
        sample.failure = f"wrong output: {reason}"
        sample.wrong = True
    return sample


def in_seconds(s: Sample) -> float:
    return s.request_s


def in_cal(s: Sample) -> float:
    return s.request_s / s.speed_s


def set_speed(samples) -> None:
    """Give each sample the median calibration time of the children nearest it."""
    times = [s.calibration_s for s in samples]
    n = CALIBRATION_NEIGHBOURS
    for i, s in enumerate(samples):
        near = [t for t in times[max(0, i - n) : i + n + 1] if t is not None]
        s.speed_s = statistics.median(near) if near else None


def batch(samples, measure) -> float:
    """Sum over requests of the median over passes of the request's measure."""
    times: dict[str, list[float]] = {}
    for s in samples:
        if not s.guard and s.failure is None:
            times.setdefault(s.name, []).append(measure(s))
    return sum(statistics.median(v) for v in times.values())


def oracle_store() -> Path:
    """Where the oracle results are kept, named after what they depend on."""
    import numpy

    digest = hashlib.sha256(numpy.__version__.encode())
    for name in ("oracle.py", "workloads.py"):
        digest.update((HERE / name).read_bytes())
    OUT.mkdir(exist_ok=True)
    return OUT / f"oracle-{digest.hexdigest()[:16]}.json"


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    requests = workloads.WORKLOADS[workload]
    simulate_reference = checks.SimulateReference(oracle_store())
    reference = {
        "certify": checks.check_certify,
        "simulate": simulate_reference.check,
        "verify": checks.check_verify,
    }
    for request in requests:
        if request.kind == "simulate":
            simulate_reference.expected(request)
    simulate_reference.save()
    rng = random.Random(seed)
    # warm the byte-code and file caches so the first child is not the odd one out
    subprocess.run([sys.executable, "-c", "import subsetid.cli"], cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=REQUEST_TIMEOUT)
    start = time.monotonic()
    deadline = start + RUN_LIMIT
    samples: list[Sample] = []
    durations: list[float] = []
    while len(durations) < MIN_PASSES or (
        time.monotonic() - start + statistics.mean(durations) <= seconds
    ):
        if time.monotonic() >= deadline:
            break
        pass_no = len(durations)
        mode = "traced" if trace and pass_no % 2 else "timed"
        order = list(range(len(requests)))
        rng.shuffle(order)
        began = time.monotonic()
        for index in order:
            request = requests[index]
            sample = Sample(pass_no, mode, request)
            samples.append(run_request(
                sample, workload, index, request, reference[request.kind], mode == "traced", deadline,
            ))
        durations.append(time.monotonic() - began)
    set_speed(samples)
    return samples, durations, time.monotonic() - start


def end_to_end(samples) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and those printed beside them only."""
    timed = [s for s in samples if s.mode == "timed"]
    done = [s for s in timed if not s.guard and s.failure is None]
    if not done:
        raise NoResult("no timed request completed, so there is nothing to measure")
    times = [s.request_s for s in done]
    gated = {
        "setup_s": (statistics.median(s.setup_s for s in timed if s.setup_s is not None), "s"),
        "batch_cal": (batch(timed, in_cal), "cal"),
        "request_cal.gmean": (statistics.geometric_mean(in_cal(s) for s in done), "cal"),
        "peak_rss_mb": (max(s.peak_rss_kb for s in done) / 1024, "MB"),
    }
    failed = sum(1 for s in samples if s.failure is not None)
    printed = {
        "batch_s": (batch(timed, in_seconds), "s"),
        "request_s.gmean": (statistics.geometric_mean(times), "s"),
        "request_s.p50": (statistics.median(times), "s"),
        "request_s.samples": (len(times), "count"),
        "calibration_s": (statistics.median(s.calibration_s for s in done), "s"),
        "failed_share": (failed / len(samples), "share"),
    }
    return gated, printed


def per_layer(samples):
    traced = [s for s in samples if s.mode == "traced"]
    by_pass: dict[int, list] = {}
    for s in traced:
        if not s.guard and s.spans is not None:
            by_pass.setdefault(s.pass_no, []).append(s.spans)
    missing = spans.missing_metrics({t for s in traced for t in s.missing_hooks})
    values: dict[str, list[float]] = {}
    for requests in by_pass.values():
        metrics, not_counted = spans.layer_metrics(requests)
        missing.update(not_counted)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    out = {
        name: (statistics.median(v), spans.unit(name))
        for name, v in values.items()
        if name not in missing
    }
    timed = [s for s in samples if s.mode == "timed"]
    out["trace.overhead_s"] = (batch(traced, in_seconds) - batch(timed, in_seconds), "s")
    return out, missing, sum(1 for s in traced if s.spans is not None)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "threads": {var: BLAS_THREADS for var in THREAD_VARS},
        "seed": seed,
        "src_lines": src_lines,
        "memory_cap_bytes": MEMORY_CAP,
        "request_timeout_s": REQUEST_TIMEOUT,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload, seed, seconds, trace):
    samples, durations, wall = run_workload(workload, seed, seconds, trace)
    attempted = len(samples)
    failed = [s for s in samples if s.failure is not None]
    correct = not any(s.wrong for s in samples) and all(s.guard for s in failed)
    meta = metadata(seed)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(durations)} passes in {wall:.1f} s  ({attempted} requests, {len(failed)} failed)")
    if trace:
        metrics, missing, traced = per_layer(samples)
        printed = {"failed_share": (len(failed) / attempted, "share")}
        print(f"  per-layer metrics: median over traced passes ({traced} traced requests)")
    else:
        (metrics, printed), missing = end_to_end(samples), {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {_fmt(value):>12s} {unit}")
    for name, (value, unit) in printed.items():
        print(f"  {name:42s} {_fmt(value):>12s} {unit}  (not gated)")
    for name, reason in sorted(missing.items()):
        print(f"  missing {name}: {reason}")
    for s in failed:
        print(f"  failed: pass {s.pass_no} {s.name}{' (guard row)' if s.guard else ''}: {s.failure}")
    print("meta " + json.dumps(meta, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "meta": meta, "pass_seconds": durations,
        "metrics": {k: v[0] for k, v in {**metrics, **printed}.items()}, "missing": missing,
        "samples": [s.record() for s in samples],
    }, indent=1))
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for s in samples:
                if s.spans is not None:
                    f.write(json.dumps({"request": f"{workload}/p{s.pass_no}/{s.name}", "spans": s.spans}) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subsetid" / "__init__.py").is_file():
        print(f"error: no subsetid package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    table = []
    for name in names:
        try:
            result, printed = report(name, args.seed, args.seconds, bool(args.trace))
        except NoResult as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        table += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        table += [(name, m, value, unit) for m, (value, unit) in printed.items()]
    if args.workload != "all":
        print(json.dumps(result))
        return 0
    for name, metric, value, unit in table:
        print(f"{name:20s} {metric:42s} {_fmt(value):>12s} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
