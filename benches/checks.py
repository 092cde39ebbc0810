"""Reference checks on request outputs; none of them uses the program.

Each check returns None when the output agrees with its reference, or a
one-line reason when it does not.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import oracle
import workloads


def check_certify(request, exit_code, output):
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        report = json.loads(output)
    except ValueError as e:
        return f"structured report is not JSON: {e}"
    runs = [r for r in report.get("runs", ()) if r.get("kind") == "certify"]
    if len(runs) != len(request.expected):
        return f"{len(runs)} certify runs, expected {len(request.expected)}"
    for run, (task, certs, genuine) in zip(runs, request.expected):
        got = {
            c["cut"]: (c["kappa"], c["bound"], c["verdict"]) for c in run["certificates"]
        }
        if run["task"] != task or got != certs:
            return f"task {run['task']}: got {got}, expected task {task} with {certs}"
        if run.get("genuine") != genuine:
            return f"task {task}: genuine verdict {run.get('genuine')}, expected {genuine}"
    return None


def _dist_gap(got: dict, want: dict) -> float:
    return max((abs(got.get(t, 0.0) - want.get(t, 0.0)) for t in set(got) | set(want)), default=0.0)


class SimulateReference:
    """Oracle results, computed once per request.

    With a ``store`` path they are also kept on disk: they depend only on
    oracle.py, workloads.py and numpy, never on the program, so a run
    reuses what an earlier run computed. The caller names the store after
    a digest of those three.
    """

    def __init__(self, store: Path | None = None):
        self._cache = {}
        self._store = store
        if store is not None and store.is_file():
            try:
                self._cache = json.loads(store.read_text())
            except ValueError:
                self._cache = {}

    def save(self) -> None:
        if self._store is None:
            return
        tmp = self._store.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._cache))
        os.replace(tmp, self._store)

    def expected(self, request):
        if request.name not in self._cache:
            spec = request.payload
            self._cache[request.name] = oracle.simulate(
                workloads.oracle_family(spec["family"]),
                spec["k"],
                workloads.oracle_steps(spec),
                workloads.parties(spec),
            )
        return self._cache[request.name]

    def check(self, request, exit_code, output):
        want = self.expected(request)
        if output["subsets"] != want["subsets"]:
            return f"subsets {output['subsets']}, expected {want['subsets']}"
        for i, subset in enumerate(want["subsets"]):
            comps, want_comps = output["by_component"][i], want["by_component"][i]
            if len(comps) != len(want_comps):
                return f"subset {subset}: {len(comps)} orderings, expected {len(want_comps)}"
            for m, (got, ref) in enumerate(zip(comps, want_comps)):
                mass = sum(got.values())
                if abs(mass - 1.0) > oracle.TOL:
                    return f"subset {subset} ordering {m}: probability sums to {mass!r}"
                gap = _dist_gap(got, ref)
                if gap > oracle.TOL:
                    return f"subset {subset} ordering {m}: off the oracle by {gap:.3e}"
            gap = _dist_gap(output["distributions"][i], want["distributions"][i])
            if gap > oracle.TOL:
                return f"subset {subset}: averaged distribution off the oracle by {gap:.3e}"
        for verdict in ("identified", "order_blind"):
            if output[verdict] != want[verdict]:
                return f"{verdict} is {output[verdict]}, the oracle says {want[verdict]}"
        return None


def check_verify(request, exit_code, output):
    want_exit, ids, failing = request.expected
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit}"
    lines = output.splitlines()
    status = {}
    for line in lines[:-1]:
        word, cid = (line.split(" ", 2) + ["", ""])[:2]
        status[cid] = (word, line)
    want = {cid: "FAIL" if cid in failing else "PASS" for cid in ids}
    got = {cid: word for cid, (word, _) in status.items()}
    if got != want:
        return f"scorecard {got}, expected {want}"
    for cid, fragments in failing.items():
        missing = [f for f in fragments if f not in status[cid][1]]
        if missing:
            return f"{cid} detail lacks {missing}: {status[cid][1]!r}"
    passed = len(ids) - len(failing)
    if not lines or lines[-1] != f"{passed}/{len(ids)} criteria passed":
        return f"last line {lines[-1:]!r}, expected '{passed}/{len(ids)} criteria passed'"
    return None
