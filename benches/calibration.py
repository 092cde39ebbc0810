"""A fixed piece of the benchmark's own work, timed to read the machine's speed.

The machine this benchmark runs on is shared: its speed swings by a third
and more, in spells from a fraction of a second to minutes. A request's
time divided by the calibration time measured next to it cancels most of
the swing. The work is the numpy oracle (oracle.py) of two small simulate
requests: interpreted Python and small-array numpy, as in the program, and
none of it from the program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import time

import oracle
import workloads

#: the simulate requests whose oracle computation is the calibration task
REQUESTS = ("ghz3-k2-bell", "ges3-k2-ges3")


def calibrate() -> float:
    """Seconds this process takes for the calibration work.

    The collector is off while it runs, so objects the program left behind
    in the process cannot slow it.
    """
    specs = [r.payload for r in workloads.SIMULATE_PROTOCOLS if r.name in REQUESTS]
    args = [
        (workloads.oracle_family(s["family"]), s["k"], workloads.oracle_steps(s), workloads.parties(s))
        for s in specs
    ]
    oracle.simulate(*args[0])  # untimed warm-up of numpy's lazy paths
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    for a in args:
        oracle.simulate(*a)
    seconds = time.perf_counter() - t0
    gc.enable()
    return seconds
