import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import dense_rho
from subsetid import (
    CERTIFIED,
    CONDITION_FAILS,
    PREMISE_FAILS,
    CertificateRequest,
    Cut,
    StateSet,
    SubsetTask,
    all_bipartitions,
    bell,
    bell_basis,
    certify_cut,
    certify_genuine,
    execute,
    ges_basis,
    ghz3_basis,
    ghz4_basis,
    hypothesis_ensemble,
    max_hypothesis_overlap,
    named_states,
)
from subsetid import certificates
from subsetid.certificates import (
    AXIOM_MES,
    AXIOM_ONE_SIDED,
    aggregate_verdict,
    hypothesis_overlap_bound,
    orthogonal_hypotheses,
)
from subsetid.errors import ResourceLimitError, SettingError
from subsetid.statespace import ATOL, StateVector, qubit_layout

AB = Cut.between("A", "B")


def doctored_set():
    """Bell basis with the first state replaced by |00>, bypassing the
    orthonormality invariant on purpose."""
    product = StateVector(qubit_layout("A", "B"), [1, 0, 0, 0])
    return StateSet(
        (product, bell(2), bell(3), bell(4)), name="doctored", require_orthonormal=False
    )


def test_orthogonal_family_has_no_overlap():
    assert max_hypothesis_overlap(bell_basis(), 2) <= 1e-12
    assert max_hypothesis_overlap(ghz3_basis(), 2) <= 1e-12


def test_overlap_matches_the_literal_trace():
    state_set = doctored_set()
    task = SubsetTask(state_set, 2)
    rhos = [dense_rho(h) for h in hypothesis_ensemble(task)]
    literal = max(
        float(np.trace(a @ b).real) for a, b in itertools.combinations(rhos, 2)
    )
    assert max_hypothesis_overlap(state_set, 2) == pytest.approx(literal, abs=1e-12)
    assert literal > 1e-3  # the doctored set genuinely overlaps


def test_bell_pairs_certificate_fields():
    cert = certify_cut(CertificateRequest(bell_basis(), 2, AB))
    assert cert.set_name == "bell_basis(2)"
    assert (cert.n_states, cert.k, cert.cut) == (4, 2, "A:B")
    assert (cert.kappa, cert.bound, cert.unitary_side) == (6, 4, "right")
    assert cert.axiom == AXIOM_MES
    assert cert.premises == {
        "pairwise-orthogonal-hypotheses": True,
        "all-states-maximally-entangled": True,
    }
    assert cert.verdict == CERTIFIED


def test_three_state_subfamily_misses_the_bound():
    cert = certify_cut(CertificateRequest(named_states(["B1", "B2", "B3"]), 2, AB))
    assert (cert.kappa, cert.bound, cert.verdict) == (3, 4, CONDITION_FAILS)
    assert all(cert.premises.values())


def test_bell_triples_of_copies_miss_the_bound():
    cert = certify_cut(CertificateRequest(bell_basis(), 3, AB))
    assert (cert.kappa, cert.bound, cert.verdict) == (4, 8, CONDITION_FAILS)


def test_unitary_side_follows_the_larger_side():
    # ties break right
    assert certify_cut(CertificateRequest(bell_basis(), 2, AB)).unitary_side == "right"
    # explicit reversed three-party cut puts the larger side left
    cert = certify_cut(CertificateRequest(ghz3_basis(), 2, Cut.between("BC", "A")))
    assert cert.unitary_side == "left"
    assert cert.bound == 16
    assert cert.axiom == AXIOM_ONE_SIDED
    assert cert.verdict == CERTIFIED  # 28 > 16 with equal A-side reductions


@pytest.mark.parametrize(
    "state_set",
    [ghz3_basis(), ghz4_basis(), doctored_set()],
    ids=["ghz3", "ghz4", "doctored"],
)
def test_swapping_cut_sides_keeps_the_certificate(state_set):
    # on unequal sides the swap moves the identity side between certify_cut's
    # left and right branches; on equal sides (ghz4's 2:2 cuts, AC:BD
    # included, and the doctored A:B) ties go right, so the swap compares
    # the reductions of the other side
    for cut in all_bipartitions(state_set.parties):
        a, b = (
            certify_cut(CertificateRequest(state_set, 2, c))
            for c in (cut, Cut(cut.right, cut.left))
        )
        assert (a.kappa, a.bound, a.axiom, a.premises, a.verdict) == (
            b.kappa, b.bound, b.axiom, b.premises, b.verdict,
        ), cut.label(state_set.layout)


@pytest.mark.parametrize(
    "verdicts,expected",
    [
        ((CERTIFIED, CERTIFIED), CERTIFIED),
        ((CERTIFIED, CONDITION_FAILS), CONDITION_FAILS),
        ((PREMISE_FAILS, CERTIFIED, CONDITION_FAILS), PREMISE_FAILS),
        ((CONDITION_FAILS,), CONDITION_FAILS),
    ],
)
def test_aggregate_verdict(verdicts, expected):
    assert aggregate_verdict(verdicts) == expected


def test_all_bipartitions_enumeration():
    labels3 = [c.label(ghz3_basis().layout) for c in all_bipartitions("ABC")]
    assert labels3 == ["A:BC", "B:AC", "C:AB"]
    layout4 = qubit_layout("A", "B", "C", "D")
    labels4 = [c.label(layout4) for c in all_bipartitions("ABCD")]
    assert labels4 == ["A:BCD", "B:ACD", "C:ABD", "D:ABC", "AB:CD", "AC:BD", "AD:BC"]
    with pytest.raises(ValueError):
        all_bipartitions("A")


def test_genuine_aggregates_over_cuts():
    result = certify_genuine(CertificateRequest(ghz3_basis(), 2))
    assert [c.cut for c in result.certificates] == ["A:BC", "B:AC", "C:AB"]
    assert result.verdict == CERTIFIED
    degenerate = certify_genuine(CertificateRequest(bell_basis(), 2))
    assert len(degenerate.certificates) == 1
    assert degenerate.verdict == CERTIFIED


def test_request_validation():
    with pytest.raises(ValueError, match="1 < k"):
        CertificateRequest(bell_basis(), 1, AB)
    with pytest.raises(ValueError, match="1 < k"):
        CertificateRequest(bell_basis(), 4, AB)
    with pytest.raises(ValueError, match="cut must be"):
        CertificateRequest(bell_basis(), 2, "A:B")
    with pytest.raises(ValueError, match="single cut"):
        certify_cut(CertificateRequest(bell_basis(), 2))


def test_dimension_guard():
    with pytest.raises(ResourceLimitError, match="9\\*\\*6"):
        certify_cut(CertificateRequest(ges_basis(3), 6, AB))
    with pytest.raises(ResourceLimitError):
        certify_cut(CertificateRequest(bell_basis(), 2, AB, max_dim=8))


def test_forced_premise_failure_is_reported():
    cert = certify_cut(CertificateRequest(doctored_set(), 2, AB))
    assert cert.verdict == PREMISE_FAILS
    assert cert.axiom == AXIOM_ONE_SIDED
    assert cert.premises["pairwise-orthogonal-hypotheses"] is False
    assert cert.premises["equal-identity-side-reductions"] is False


@pytest.mark.parametrize("d", [2, 3, 4])
def test_counting_scan_small(d):
    n = d * d
    for k in range(2, n):
        if n**k > 2**16:
            continue
        cert = certify_cut(CertificateRequest(ges_basis(d), k, AB))
        assert cert.kappa == math.comb(n, k)
        expected = CERTIFIED if math.comb(n, k) > d**k else CONDITION_FAILS
        assert cert.verdict == expected, f"d={d} k={k}"


# --- the overlap premise: O(n^2) bound first, exact scan as the fallback ---


@st.composite
def overlapping_sets(draw):
    """A random normalised set on two qubits, each member a basis vector
    plus a drawn perturbation, so overlaps range from tiny to large."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k + 1, 6))
    spread = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 1.0]))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    states = []
    for a in range(n):
        noise = np.array(draw(st.lists(parts, min_size=8, max_size=8)))
        amps = spread * (noise[:4] + 1j * noise[4:])
        amps[a % 4] += 1.0
        norm = np.linalg.norm(amps)
        assume(norm > 0.1)
        states.append(StateVector(qubit_layout("A", "B"), amps / norm))
    labels = [f"X{a}" for a in range(n)]
    return StateSet(states, name="random", labels=labels, require_orthonormal=False), k


@settings(max_examples=80, deadline=None)
@given(overlapping_sets())
def test_bound_dominates_the_exact_scan(case):
    state_set, k = case
    assert hypothesis_overlap_bound(state_set, k) >= max_hypothesis_overlap(state_set, k) - 1e-12


@settings(max_examples=80, deadline=None)
@given(overlapping_sets())
def test_fast_premise_equals_the_exact_scan(case):
    state_set, k = case
    scan = max_hypothesis_overlap(state_set, k)
    bound = hypothesis_overlap_bound(state_set, k)
    tols = [1e-12, ATOL, scan / 2, scan * (1 + 1e-9), bound * (1 - 1e-9), bound * (1 + 1e-9), 1.0]
    for tol in (t for t in tols if t > 0):
        assert orthogonal_hypotheses(state_set, k, tol) == (scan <= tol), tol


def brute_max_overlap(state_set, k):
    """max perm(F) / k! over pairs of distinct subsets, one pair at a time."""
    g2 = np.abs(state_set.gram) ** 2
    subsets = itertools.combinations(range(len(state_set)), k)
    return max(
        sum(math.prod(g2[a, b] for a, b in zip(i, perm)) for perm in itertools.permutations(j))
        for i, j in itertools.combinations(subsets, 2)
    ) / math.factorial(k)


@settings(max_examples=40, deadline=None)
@given(overlapping_sets())
def test_scan_visits_every_pair_in_any_chunking(case):
    state_set, k = case
    expected = brute_max_overlap(state_set, k)
    assert max_hypothesis_overlap(state_set, k) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    original = certificates._PAIR_CHUNK
    certificates._PAIR_CHUNK = 7
    try:
        assert max_hypothesis_overlap(state_set, k) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    finally:
        certificates._PAIR_CHUNK = original


def test_scan_matches_the_literal_trace_at_three_copies():
    state_set = doctored_set()
    rhos = [dense_rho(h) for h in hypothesis_ensemble(SubsetTask(state_set, 3))]
    literal = max(
        float(np.trace(a @ b).real) for a, b in itertools.combinations(rhos, 2)
    )
    assert max_hypothesis_overlap(state_set, 3) == pytest.approx(literal, abs=1e-12)


def test_families_never_reach_the_scan(monkeypatch):
    def refuse(*_):
        raise AssertionError("the exact scan ran")

    monkeypatch.setattr(certificates, "max_hypothesis_overlap", refuse)
    assert orthogonal_hypotheses(ghz3_basis(), 3, ATOL)
    assert certify_genuine(CertificateRequest(ghz3_basis(), 2)).verdict == CERTIFIED


def test_premise_decided_once_per_request(monkeypatch):
    calls = []
    real = certificates.orthogonal_hypotheses

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificates, "orthogonal_hypotheses", counted)
    result = certify_genuine(CertificateRequest(ghz3_basis(), 2))
    assert len(result.certificates) == 3 and len(calls) == 1
    calls.clear()
    execute("set g = ghz3_basis\ntask t = subset(g, k=2)\ncertify t cut all\n")
    assert len(calls) == 1


def test_entanglement_checked_only_on_equal_sides(monkeypatch):
    # the complete-basis principle needs equal stacked sides, so the
    # members' Schmidt coefficients are computed on such cuts only
    calls = []
    real = certificates.is_maximally_entangled

    def counted(s, cut, tol):
        calls.append(cut.label(s.layout))
        return real(s, cut, tol)

    monkeypatch.setattr(certificates, "is_maximally_entangled", counted)
    assert certify_genuine(CertificateRequest(ghz3_basis(), 2)).verdict == CERTIFIED
    assert calls == []
    result = certify_genuine(CertificateRequest(ghz4_basis(), 2))
    # every member on AB:CD and AD:BC; AC:BD stops at its first member
    assert {label: calls.count(label) for label in set(calls)} == {
        "AB:CD": 16, "AC:BD": 1, "AD:BC": 16,
    }
    assert [c.axiom for c in result.certificates] == (
        [AXIOM_ONE_SIDED] * 4 + [AXIOM_MES, AXIOM_ONE_SIDED, AXIOM_MES]
    )


def test_pair_guard(monkeypatch):
    monkeypatch.setattr(certificates, "MAX_OVERLAP_PAIRS", 14)
    with pytest.raises(ResourceLimitError, match="15 hypothesis pairs"):
        max_hypothesis_overlap(doctored_set(), 2)
    with pytest.raises(ResourceLimitError, match="15 hypothesis pairs"):
        certify_cut(CertificateRequest(doctored_set(), 2, AB))
    # the bound settles orthonormal families without touching the guard
    assert certify_cut(CertificateRequest(bell_basis(), 2, AB)).verdict == CERTIFIED


def test_guard_counts_ryser_terms(monkeypatch):
    # 6 pairs of 3-subsets at 7 Ryser terms each: 42 terms, over the 30 of a
    # 10-pair limit although the pair count is under it
    monkeypatch.setattr(certificates, "MAX_OVERLAP_PAIRS", 10)
    with pytest.raises(ResourceLimitError, match=r"6 hypothesis pairs \(42 Ryser terms\)"):
        max_hypothesis_overlap(doctored_set(), 3)
    monkeypatch.setattr(certificates, "MAX_OVERLAP_PAIRS", 14)
    assert max_hypothesis_overlap(doctored_set(), 3) > 0
    # at k = 2 the limit is still the pair count: 15 pairs pass a 15-pair limit
    monkeypatch.setattr(certificates, "MAX_OVERLAP_PAIRS", 15)
    assert max_hypothesis_overlap(doctored_set(), 2) > 0


def test_largest_pair_task_inside_the_dimension_guard():
    cert = certify_cut(CertificateRequest(ges_basis(16), 2, AB))
    assert (cert.kappa, cert.bound, cert.verdict) == (32640, 256, CERTIFIED)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-9, "1e-9"])
def test_request_refuses_meaningless_tolerances(tol):
    with pytest.raises(SettingError, match="tolerance"):
        CertificateRequest(bell_basis(), 2, AB, tol=tol)


@pytest.mark.parametrize("max_dim", [0, -5, 2.5])
def test_request_refuses_meaningless_dimension_guards(max_dim):
    with pytest.raises(SettingError, match="max_dim"):
        CertificateRequest(bell_basis(), 2, AB, max_dim=max_dim)
