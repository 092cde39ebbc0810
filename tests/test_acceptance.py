"""Acceptance gate: one test per reproduction criterion.

Each case prints a single PASS/FAIL line with the measured detail before
asserting, so a plain ``pytest -v tests/test_acceptance.py`` reads as a
12-line scorecard. Two criteria are refuted by the computation itself
(the four-party AC:BD cut and the three-subset tally protocol); those
tests fail here on purpose, and ``subsetid.acceptance`` documents why.
"""

import random

import pytest

from subsetid.acceptance import _FUZZ_TOKENS, CRITERIA, _fuzz_texts
from subsetid.families import ghz3
from subsetid.statespace import StateVector, qubit_layout
from subsetid.subsets import StateSet


@pytest.mark.parametrize(
    "cid,title,check", CRITERIA, ids=[cid for cid, _, _ in CRITERIA]
)
def test_criterion(cid, title, check):
    ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'} {cid} {title}: {detail}")
    assert ok, f"{cid} {title}: {detail}"


#: what pinned criteria must keep reporting while the computation stands:
#: whether they pass, and fragments of their details. c03 and c04 pass with
#: these exact details, read off the hypotheses' stacked rows; c07 and c12
#: keep the size of their checks; c09 keeps its failing cut, and c10 its
#: misidentified transcript and order leak.
WITNESSES = {
    "c03": (True, [
        "both orderings supported on the same four Bell pairs with "
        "coefficients +1/2 +1/2 -1/2 -1/2 and all +1/2",
    ]),
    "c04": (True, [
        "6 orthogonal hypotheses, all 12 stacked states maximally entangled, "
        "kappa 6 > bound 4, Certified",
    ]),
    "c07": (True, ["1728 pairs connected"]),
    "c09": (False, ["AC:BD: PremiseFails (failing premises: equal-identity-side-reductions)"]),
    "c10": (False, [
        "'hypothesis': (0, 2, 3), 'transcript': 'A:1 B:4'",
        "'ordering_a': (0, 1, 2), 'ordering_b': (0, 2, 1)",
    ]),
    "c12": (True, [
        "46 distributions conserve probability",
        "10000 fuzz inputs parse or diagnose",
        "7 scripts round-trip",
    ]),
}


@pytest.mark.parametrize("cid", sorted(WITNESSES))
def test_refuted_criteria_keep_their_witnesses(cid):
    check = {c: fn for c, _, fn in CRITERIA}[cid]
    ok, detail = check()
    expected_ok, witnesses = WITNESSES[cid]
    assert ok is expected_ok
    for witness in witnesses:
        assert witness in detail


def test_fuzz_corpus_is_the_seeded_choice_stream():
    # the loop c12 drew its corpus with; the inline getrandbits draws must
    # give the same texts, so a change in random's internals shows here
    rng = random.Random(99241)
    reference = []
    for _ in range(10_000):
        n = rng.randrange(0, 12)
        reference.append("".join(
            rng.choice(_FUZZ_TOKENS) + rng.choice(("", " ", "  ", "\n"))
            for _ in range(n)
        ))
    assert list(_fuzz_texts()) == reference


def test_c07_reports_an_unconnected_pair_as_its_detail(monkeypatch):
    product = StateVector(qubit_layout("A", "B", "C"), [1, 0, 0, 0, 0, 0, 0, 0])
    doctored = StateSet((ghz3(1), product), name="doctored", require_orthonormal=False)
    monkeypatch.setattr("subsetid.acceptance.ghz3_basis", lambda: doctored)
    check = {c: fn for c, _, fn in CRITERIA}["c07"]
    ok, detail = check()
    assert ok is False
    assert detail.startswith("doctored: left-side reduced operators differ by ")
    assert "from member 0 to member 1;" in detail
