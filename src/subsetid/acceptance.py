"""Reproduction suite: twelve machine-checked statements about the library.

Each criterion recomputes a published-style claim from scratch through the
public interfaces and returns (ok, detail). Two of them assert claims that
the exact computation refutes: the four-party genuine certificate (the
AC:BD bipartition fails its premises) and the three-copy Bell tally (its
transcripts are ambiguous between subsets and leak the ordering). Those
checks are kept faithful to the claims and report as failures; the detail
strings carry the computed counterexamples.

``run_all`` drives the command line's verification mode and the test suite,
so both always agree on what was checked.
"""

from __future__ import annotations

import itertools
import random
from math import comb

import numpy as np

from .certificates import (
    CERTIFIED,
    CONDITION_FAILS,
    CertificateRequest,
    all_bipartitions,
    certify_cut,
    certify_genuine,
    max_hypothesis_overlap,
)
from .engine import execute, render_structured
from .errors import ScriptError
from .families import (
    bell,
    bell_basis,
    connecting_unitary,
    cut_factors,
    ges_basis,
    ghz3_basis,
    ghz4_basis,
    named_states,
)
from .protocols import (
    PROTOCOLS,
    derive_classifier,
    format_transcript,
    order_blindness_verdict,
    perfect_identification,
    run_exact,
)
from .script import parse, serialize
from .statespace import ATOL, Cut, is_maximally_entangled, regroup_coefficients
from .subsets import DEFAULT_MAX_DIM, SubsetTask, hypothesis_ensemble, stacked_state

ATOL_SUPPORT = 1e-12

_BELL_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def _bell_triple_task(triple) -> SubsetTask:
    return SubsetTask(named_states([f"B{i}" for i in triple]), 2)


def _ab_cut() -> Cut:
    return Cut.between("A", "B")


def _transcript(a: int, b: int):
    return (("A", a), ("B", b))


def _identification(report):
    """Identification verdict with the classifier tallied from ``report``."""
    return perfect_identification(report, derive_classifier(report, on_ambiguity="first"))


# --- 1: the paired Bell measurement transcript table ---

_EXPECTED_SUPPORT = {
    (0, 1): {(1, 2), (2, 1), (3, 4), (4, 3)},
    (0, 2): {(1, 3), (2, 4), (3, 1), (4, 2)},
    (1, 2): {(1, 4), (2, 3), (3, 2), (4, 1)},
}


def check_transcript_table():
    protocol = PROTOCOLS["bell32"]()
    task = _bell_triple_task((1, 2, 3))
    report = run_exact(protocol, hypothesis_ensemble(task), prune=0.0)
    for h, dist in zip(report.hypotheses, report.distributions):
        expected = {_transcript(a, b) for a, b in _EXPECTED_SUPPORT[h.subset_indices]}
        for t, p in dist.items():
            if t in expected:
                if abs(p - 0.25) > 1e-9:
                    return False, f"{format_transcript(t)} has probability {p}, not 1/4"
            elif p >= ATOL_SUPPORT:
                return False, (
                    f"unexpected transcript {format_transcript(t)} "
                    f"with probability {p} under subset {h.subset_indices}"
                )
        missing = expected - set(dist)
        if missing:
            return False, f"missing transcripts {sorted(missing)} under {h.subset_indices}"
    return True, "3 hypotheses, 4 transcripts each at exactly 1/4, all others below 1e-12"


# --- 2: subset found order-blind in the three-state tasks ---


def check_pair_identification():
    checked = 0
    for triple in _BELL_TRIPLES:
        report = run_exact(PROTOCOLS["bell32"](), hypothesis_ensemble(_bell_triple_task(triple)))
        identified = _identification(report)
        blind = order_blindness_verdict(report)
        if not identified.ok:
            return False, f"triple {triple} misidentifies: {identified.witness}"
        if not blind.ok:
            return False, f"triple {triple} leaks the order: {blind.witness}"
        checked += 1
    return True, f"{checked} Bell triples identified perfectly and order-blind"


# --- 3: sign pattern of the two-copy regrouping ---


def check_regroup_signs():
    pair = named_states(["B1", "B2"])
    cut = _ab_cut()
    basis = [bell(i).amplitudes for i in (1, 2, 3, 4)]
    half = 0.5
    want = {
        (0, 1): {(0, 1): half, (1, 0): half, (2, 3): -half, (3, 2): -half},
        (1, 0): {(0, 1): half, (1, 0): half, (2, 3): half, (3, 2): half},
    }
    for ordering, expected in want.items():
        s = stacked_state(pair, ordering)
        c = regroup_coefficients(s, cut, basis, basis)
        full = np.zeros((4, 4))
        for pos, v in expected.items():
            full[pos] = v
        if not np.allclose(c.real, full, atol=1e-9) or np.abs(c.imag).max() > 1e-9:
            return False, f"ordering {ordering} gave coefficients\n{np.round(c, 6)}"
    return True, (
        "both orderings supported on the same four Bell pairs with "
        "coefficients +1/2 +1/2 -1/2 -1/2 and all +1/2"
    )


# --- 4: the full Bell set at two copies ---


def check_bell_pair_certificate():
    state_set = bell_basis()
    overlap = max_hypothesis_overlap(state_set, 2)
    if overlap > 1e-9:
        return False, f"hypotheses overlap up to {overlap}"
    cut = _ab_cut()
    stacked = 0
    for subset in itertools.combinations(range(4), 2):
        for ordering in itertools.permutations(subset):
            if not is_maximally_entangled(stacked_state(state_set, ordering), cut):
                return False, f"stacked state for ordering {ordering} is not maximally entangled"
            stacked += 1
    cert = certify_cut(CertificateRequest(state_set, 2, cut))
    if (cert.kappa, cert.bound, cert.verdict) != (6, 4, CERTIFIED):
        return False, f"got kappa {cert.kappa}, bound {cert.bound}, verdict {cert.verdict}"
    return True, (
        "6 orthogonal hypotheses, all 12 stacked states maximally entangled, "
        "kappa 6 > bound 4, Certified"
    )


# --- 5: counting scan over the pair families ---


def check_counting_scan():
    lines = []
    for d in (2, 3):
        state_set = ges_basis(d)
        n = d * d
        for k in range(2, n):
            if n ** k > DEFAULT_MAX_DIM:
                continue
            cert = certify_cut(CertificateRequest(state_set, k, _ab_cut()))
            expected = CERTIFIED if comb(n, k) > d ** k else CONDITION_FAILS
            if cert.kappa != comb(n, k) or cert.bound != d ** k:
                return False, f"d={d} k={k}: kappa {cert.kappa}, bound {cert.bound}"
            if cert.verdict != expected:
                return False, (
                    f"d={d} k={k}: verdict {cert.verdict}, "
                    f"but C({n},{k})={comb(n, k)} vs {d}**{k}={d ** k}"
                )
            lines.append(f"d={d},k={k}")
    return True, f"verdict matches the binomial count at {', '.join(lines)}"


# --- 6: every pair of a complete basis certified, small dimensions ---


def check_basis_pair_family():
    # kappa = C(d^2, 2) = d^2 (d^2 - 1) / 2 > d^2 for every d >= 2
    for d in (2, 3, 4):
        cert = certify_cut(CertificateRequest(ges_basis(d), 2, _ab_cut()))
        if cert.verdict != CERTIFIED:
            return False, f"d={d}: {cert.verdict} with kappa {cert.kappa}, bound {cert.bound}"
        if cert.kappa != comb(d * d, 2) or cert.bound != d * d:
            return False, f"d={d}: kappa {cert.kappa}, bound {cert.bound}"
    return True, "Certified at d=2 (6>4), d=3 (36>9), d=4 (120>16)"


# --- 7: one-sided unitaries connecting family members ---


def check_connecting_unitaries():
    worst = 0.0
    count = 0
    ghz4 = ghz4_basis()
    jobs = (
        (ghz3_basis(), all_bipartitions("ABC")),
        (ghz4, [c for c in all_bipartitions("ABCD") if c.label(ghz4.layout) != "AC:BD"]),
    )
    for state_set, cuts in jobs:
        for cut in cuts:
            factors = [cut_factors(s, cut) for s in state_set.states]
            for src in factors:
                for dst in factors:
                    u = connecting_unitary(src, dst)
                    worst = max(worst, float(np.linalg.norm(src.matrix @ u.T - dst.matrix)))
                    count += 1
    if worst > 1e-9:
        return False, f"worst residual {worst} over {count} pairs"
    return True, f"{count} pairs connected, worst residual {worst:.3g}"


# --- 8: the three-party basis at two copies ---


def check_three_party_genuine():
    result = certify_genuine(CertificateRequest(ghz3_basis(), 2))
    for cert in result.certificates:
        if (cert.kappa, cert.bound, cert.verdict) != (28, 16, CERTIFIED):
            return False, f"cut {cert.cut}: kappa {cert.kappa}, bound {cert.bound}, {cert.verdict}"
    if result.verdict != CERTIFIED:
        return False, f"genuine verdict {result.verdict}"
    return True, "all three cuts Certified at kappa 28 > bound 16, genuine verdict granted"


# --- 9: the four-party basis at two copies ---


def check_four_party_genuine():
    result = certify_genuine(CertificateRequest(ghz4_basis(), 2))
    problems = []
    for cert in result.certificates:
        one_sided = len(cert.cut.split(":")[0]) == 1
        want_bound = 64 if one_sided else 16
        if cert.kappa != 120 or cert.bound != want_bound:
            problems.append(f"{cert.cut}: kappa {cert.kappa}, bound {cert.bound}")
        if cert.verdict != CERTIFIED:
            failed = sorted(p for p, ok in cert.premises.items() if not ok)
            problems.append(f"{cert.cut}: {cert.verdict} (failing premises: {', '.join(failed)})")
    if result.verdict != CERTIFIED:
        problems.append(f"genuine verdict {result.verdict}")
    if problems:
        return False, "; ".join(problems)
    return True, "all seven cuts Certified, genuine verdict granted"


# --- 10: the three-copy Bell tally over four-state subsets ---


def check_triple_copy_tally():
    report = run_exact(PROTOCOLS["bell43"](), hypothesis_ensemble(SubsetTask(bell_basis(), 3)))
    identified = _identification(report)
    blind = order_blindness_verdict(report)
    problems = []
    if not identified.ok:
        problems.append(f"misidentification witness {identified.witness}")
    if not blind.ok:
        problems.append(f"order leak witness {blind.witness}")
    if problems:
        return False, "; ".join(problems)
    return True, "all 4 subsets identified perfectly and order-blind"


# --- 11: certificates never contradict a working protocol ---


def check_consistency():
    cut = _ab_cut()
    for triple in _BELL_TRIPLES:
        task = _bell_triple_task(triple)
        report = run_exact(PROTOCOLS["bell32"](), hypothesis_ensemble(task))
        if not (_identification(report).ok and order_blindness_verdict(report).ok):
            return False, f"triple {triple} protocol unexpectedly fails"
        cert = certify_cut(CertificateRequest(task.state_set, 2, cut))
        if cert.verdict == CERTIFIED:
            return False, f"triple {triple} solved by a protocol yet Certified"
    doctored = _doctored_bell_set()
    cert = certify_cut(CertificateRequest(doctored, 2, cut))
    if cert.verdict == CERTIFIED:
        return False, "product-state substitution still Certified"
    if not any(v is False for v in cert.premises.values()):
        return False, f"no premise failed on the doctored set: {cert.premises}"
    return True, (
        "4 protocol-solved triples all ConditionFails; "
        f"product-state substitution gives {cert.verdict}"
    )


def _doctored_bell_set():
    from .statespace import StateVector, qubit_layout
    from .subsets import StateSet

    product = StateVector(qubit_layout("A", "B"), [1, 0, 0, 0])
    states = (product,) + tuple(bell(i) for i in (2, 3, 4))
    return StateSet(states, name="doctored", require_orthonormal=False)


# --- 12: infrastructure properties ---

_DETERMINISM_SCRIPT = """\
set trio = states[B1,B2,B3]
task t = subset(trio, k=2)
simulate t protocol bell32
certify t cut auto
"""

_ROUND_TRIP_CORPUS = (
    "",
    "set s = bell_basis(2)\n",
    "set s = ges_basis(3)\ntask t = subset(s, k=2)\ncertify t cut A:B\n",
    "set g = ghz3_basis\ntask t = subset(g, k=2)\ncertify t cut all\n",
    "set g = ghz4_basis  # four parties\ntask t = subset(g, k=2)\ncertify t cut AB:CD\n",
    _DETERMINISM_SCRIPT,
    "set s = states[B2 , B3, B4]\ntask t = subset(s, k=2)\nsimulate t protocol bell43\n",
)

_FUZZ_TOKENS = (
    "set", "task", "simulate", "certify", "protocol", "cut", "subset", "k",
    "auto", "all", "bell_basis", "ges_basis", "ghz3_basis", "ghz4_basis",
    "states", "x", "y1", "B1", "B9", "(", ")", "[", "]", ",", ":", "=",
    "0", "2", "17", "999999999999", "\n", "# comment\n", "@", "$", "é",
    "_under", "Aa0_",
)


def check_infrastructure():
    conservation = 0
    for name, k in (("bell32", 2), ("bell43", 3)):
        task = SubsetTask(bell_basis(), k)
        report = run_exact(PROTOCOLS[name](), hypothesis_ensemble(task))
        for dist, comps in zip(report.distributions, report.by_component):
            for d in (dist, *comps):
                total = sum(d.values())
                if abs(total - 1.0) > ATOL:
                    return False, f"{name} distribution sums to {total}"
                conservation += 1

    rng = random.Random(99241)
    for trial in range(10_000):
        n = rng.randrange(0, 12)
        text = "".join(
            rng.choice(_FUZZ_TOKENS) + rng.choice(("", " ", "  ", "\n"))
            for _ in range(n)
        )
        try:
            parse(text)
        except ScriptError:
            pass
        except Exception as e:  # noqa: BLE001 - totality is the property
            return False, f"fuzz input {text!r} crashed with {type(e).__name__}: {e}"

    renders = {render_structured(execute(_DETERMINISM_SCRIPT)) for _ in range(2)}
    if len(renders) != 1:
        return False, "report bytes differ across runs"

    for src in _ROUND_TRIP_CORPUS:
        once = parse(src)
        if parse(serialize(once)) != once:
            return False, f"round trip changed the script {src!r}"

    return True, (
        f"{conservation} distributions conserve probability, "
        "10000 fuzz inputs parse or diagnose, reports byte-stable, "
        f"{len(_ROUND_TRIP_CORPUS)} scripts round-trip"
    )


CRITERIA = (
    ("c01", "paired Bell measurement transcript table", check_transcript_table),
    ("c02", "three-state Bell tasks identified order-blind", check_pair_identification),
    ("c03", "two-copy regrouping sign pattern", check_regroup_signs),
    ("c04", "full Bell set certified unidentifiable at two copies", check_bell_pair_certificate),
    ("c05", "counting scan matches the binomial criterion", check_counting_scan),
    ("c06", "basis pairs certified at small dimension", check_basis_pair_family),
    ("c07", "one-sided connecting unitaries within families", check_connecting_unitaries),
    ("c08", "three-party basis genuinely unidentifiable", check_three_party_genuine),
    ("c09", "four-party basis genuinely unidentifiable", check_four_party_genuine),
    ("c10", "three-copy tally identifies four-state subsets", check_triple_copy_tally),
    ("c11", "certificates consistent with working protocols", check_consistency),
    ("c12", "conservation, parser totality, determinism, round-trip", check_infrastructure),
)


def run_all() -> list[tuple[str, str, bool, str]]:
    """Run every criterion; returns (id, title, ok, detail) per criterion."""
    results = []
    for cid, title, fn in CRITERIA:
        ok, detail = fn()
        results.append((cid, title, ok, detail))
    return results
