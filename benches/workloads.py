"""The fixed request list of each workload, with the reference for each request.

Every request runs in a fresh child process (see child.py); the seed only
sets the order in which a pass visits them.

certify-sweep
    ``certify - --format structured`` through ``subsetid.cli.run``. The
    certificate layer does the work (the hypothesis-overlap premise
    dominates); subsets and protocols are never called. Small requests keep
    small instances visible in the request-time metrics, the ghz4 ``cut all``
    request shows work repeated across cuts, and the largest rows stop short
    of the 20-30 s certificates so one row cannot dominate every run. The
    last row, ges_basis(16) k=2, is the guard row: its stacked dimension
    65536 is inside the guard, it is run under the memory cap every pass, and
    it is left out of the timing and memory metrics.
    Reference: a hand-written verdict table that follows from
    kappa = C(n, k) and bound = (larger side dimension)^k; the one failing
    premise is ghz4 on AC:BD.

simulate-protocols
    Library requests through the public API: build the task, then
    ``hypothesis_ensemble``, ``run_exact``, the classifier, and the two
    verdicts. Subsets and protocols do the work; certificates are never
    called. The Bell rows are the paper's identified, order-blind triples
    and the ambiguous, order-leaking bell43 tally; the adaptive row uses
    transcript-conditioned variants; the larger rows put many orderings or
    many branches through ``run_exact``, and the parity row (3,360 stacked
    states, one two-outcome step) is the one where building hypotheses
    outweighs simulating them.
    Reference: oracle.py, an independent numpy computation.

verify-paper
    ``verify-paper`` through ``subsetid.cli.run``, repeated. It reaches the
    script parser (10,000 fuzz inputs in c12) and families
    (``connecting_unitary`` in c07) besides certificates and protocols.
    Reference: exit code 1 and the known 10/12 scorecard, with c09 and c10
    failing with their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import oracle

CERTIFIED, CONDITION_FAILS, PREMISE_FAILS = "Certified", "ConditionFails", "PremiseFails"


@dataclass(frozen=True)
class Request:
    name: str
    kind: str  # "certify", "simulate" or "verify"
    payload: object = None
    expected: object = None
    guard: bool = False


def _certify(name, script, expected, guard=False) -> Request:
    """``expected`` lists one (task, {cut label: (kappa, bound, verdict)},
    genuine verdict or None) per certify statement, in script order."""
    return Request(name, "certify", script, expected, guard)


def _same(labels, kappa, bound, verdict) -> dict:
    return {label: (kappa, bound, verdict) for label in labels}


_AB = ("A:B",)
_GHZ3_CUTS = ("A:BC", "B:AC", "C:AB")
_GHZ4_ONE_VS_THREE = ("A:BCD", "B:ACD", "C:ABD", "D:ABC")


def _ges_script(d: int, ks) -> str:
    tasks = "".join(f"task t{k} = subset(e, k={k})\n" for k in ks)
    runs = "".join(f"certify t{k} cut A:B\n" for k in ks)
    return f"set e = ges_basis({d})\n{tasks}{runs}"


CERTIFY_SWEEP = (
    _certify(
        "bell-k2-k3",
        "set b = bell_basis(2)\ntask t2 = subset(b, k=2)\ntask t3 = subset(b, k=3)\n"
        "certify t2 cut auto\ncertify t3 cut auto\n",
        [("t2", _same(_AB, 6, 4, CERTIFIED), None),
         ("t3", _same(_AB, 4, 8, CONDITION_FAILS), None)],
    ),
    _certify(
        "readme-trio",
        "set trio = states[B1,B2,B3]\ntask t = subset(trio, k=2)\n"
        "simulate t protocol bell32\ncertify t cut A:B\n",
        [("t", _same(_AB, 3, 4, CONDITION_FAILS), None)],
    ),
    _certify(
        "ges2-k2-k3", _ges_script(2, (2, 3)),
        [("t2", _same(_AB, 6, 4, CERTIFIED), None),
         ("t3", _same(_AB, 4, 8, CONDITION_FAILS), None)],
    ),
    _certify(
        "ges3-k2-k5", _ges_script(3, (2, 3, 4, 5)),
        [("t2", _same(_AB, 36, 9, CERTIFIED), None),
         ("t3", _same(_AB, 84, 27, CERTIFIED), None),
         ("t4", _same(_AB, 126, 81, CERTIFIED), None),
         ("t5", _same(_AB, 126, 243, CONDITION_FAILS), None)],
    ),
    _certify("ges4-k2", _ges_script(4, (2,)), [("t2", _same(_AB, 120, 16, CERTIFIED), None)]),
    _certify("ges4-k3", _ges_script(4, (3,)), [("t3", _same(_AB, 560, 64, CERTIFIED), None)]),
    _certify("ges5-k2", _ges_script(5, (2,)), [("t2", _same(_AB, 300, 25, CERTIFIED), None)]),
    _certify("ges6-k2", _ges_script(6, (2,)), [("t2", _same(_AB, 630, 36, CERTIFIED), None)]),
    _certify(
        "ghz3-k2-k3-all",
        "set g = ghz3_basis\ntask t2 = subset(g, k=2)\ntask t3 = subset(g, k=3)\n"
        "certify t2 cut all\ncertify t3 cut all\n",
        [("t2", _same(_GHZ3_CUTS, 28, 16, CERTIFIED), CERTIFIED),
         ("t3", _same(_GHZ3_CUTS, 56, 64, CONDITION_FAILS), CONDITION_FAILS)],
    ),
    _certify(
        "ghz4-k2-all",
        "set g = ghz4_basis\ntask t = subset(g, k=2)\ncertify t cut all\n",
        [("t", {
            **_same(_GHZ4_ONE_VS_THREE, 120, 64, CERTIFIED),
            **_same(("AB:CD", "AD:BC"), 120, 16, CERTIFIED),
            "AC:BD": (120, 16, PREMISE_FAILS),
        }, PREMISE_FAILS)],
    ),
    _certify(
        "ghz4-k3-AB:CD",
        "set g = ghz4_basis\ntask t = subset(g, k=3)\ncertify t cut AB:CD\n",
        [("t", _same(("AB:CD",), 560, 64, CERTIFIED), None)],
    ),
    _certify("guard-ges16-k2", _ges_script(16, (2,)),
             [("t2", _same(_AB, 32640, 256, CERTIFIED), None)], guard=True),
)


# --- simulate-protocols: family, k, protocol ---

_PARTIES = {"bell": "AB", "ges": "AB", "ghz3": "ABC", "ghz4": "ABCD"}


def oracle_family(family):
    """(dims, states) of a family spec such as ("bell", (1, 2, 3)) or ("ges", 3)."""
    kind, arg = family
    if kind == "bell":
        dims, states = oracle.bell_family()
        return dims, [states[i - 1] for i in arg] if arg else states
    if kind == "ges":
        return oracle.ges_family(arg)
    return {"ghz3": oracle.ghz3_family, "ghz4": oracle.ghz4_family}[kind]()


def parties(spec) -> str:
    return _PARTIES[spec["family"][0]]


def _every_party(family, measurement):
    return [(p, measurement, {}) for p in _PARTIES[family[0]]]


def oracle_steps(spec):
    """The request's protocol as oracle steps, built without the program."""
    family, k, protocol = spec["family"], spec["k"], spec["protocol"]
    bell = oracle.basis(oracle.bell_family()[1])
    if protocol[0] == "builtin_bell32_variants":
        return _every_party(family, bell)
    if protocol[0] == "builtin_bell43":
        return _every_party(family, oracle.basis(oracle.ghz3_family()[1]))
    if protocol[0] == "adaptive-bell":
        switch = {(("A", 1),): oracle.computational(4), (("A", 3),): oracle.computational(4)}
        return [("A", bell, {}), ("B", bell, switch)]
    if protocol[0] == "every-party":
        return _every_party(family, oracle.basis(oracle_family(protocol[1])[1]))
    if protocol[0] == "parity-A":
        return [("A", oracle.digit_parity(family[1], k), {})]
    raise ValueError(f"unknown protocol spec {protocol!r}")


def _simulate(name, family, k, protocol) -> Request:
    return Request(name, "simulate", {"family": family, "k": k, "protocol": protocol})


SIMULATE_PROTOCOLS = tuple(
    [
        _simulate(f"bell32-B{''.join(map(str, t))}", ("bell", t), 2, ("builtin_bell32_variants", t))
        for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    ]
    + [
        _simulate("bell43", ("bell", None), 3, ("builtin_bell43",)),
        _simulate("bell-adaptive", ("bell", None), 2, ("adaptive-bell",)),
        _simulate("ghz3-k2-bell", ("ghz3", None), 2, ("every-party", ("bell", None))),
        _simulate("ges3-k2-ges3", ("ges", 3), 2, ("every-party", ("ges", 3))),
        _simulate("ghz4-k2-bell", ("ghz4", None), 2, ("every-party", ("bell", None))),
        _simulate("ges4-k2-ges4", ("ges", 4), 2, ("every-party", ("ges", 4))),
        _simulate("ghz3-k3-ghz3", ("ghz3", None), 3, ("every-party", ("ghz3", None))),
        _simulate("ges4-k3-parity", ("ges", 4), 3, ("parity-A",)),
    ]
)


# --- verify-paper ---

VERIFY_FAILING = {"c09": ("AC:BD", "PremiseFails"), "c10": ("witness",)}
VERIFY_IDS = tuple(f"c{i:02d}" for i in range(1, 13))

VERIFY_PAPER = (Request("verify-paper", "verify", None, (1, VERIFY_IDS, VERIFY_FAILING)),)


WORKLOADS = {
    "certify-sweep": CERTIFY_SWEEP,
    "simulate-protocols": SIMULATE_PROTOCOLS,
    "verify-paper": VERIFY_PAPER,
}
