import copy
import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dense_reference import dense_rho, first_violation, per_ordering_run
from subsetid import (
    ATOL,
    Classifier,
    Measurement,
    MixedHypothesis,
    Protocol,
    ProtocolStep,
    SubsetTask,
    basis_measurement,
    bell_basis,
    builtin_bell32_variants,
    builtin_bell43,
    derive_classifier,
    format_transcript,
    ges_basis,
    ghz3_basis,
    ghz4_basis,
    hypothesis_ensemble,
    named_states,
    order_blindness_verdict,
    perfect_identification,
    run_exact,
    validate,
)
from subsetid.acceptance import _EXPECTED_SUPPORT
from subsetid.errors import AmbiguityError, CoverageError, LocalityError, SettingError
from subsetid.protocols import PROTOCOLS, PRUNE_TOL, _chunks, _Factored, _total_variation
from subsetid.subsets import stacked_state


def bell32_report():
    protocol, classifier = builtin_bell32_variants()
    task = SubsetTask(named_states(["B1", "B2", "B3"]), 2)
    return run_exact(protocol, hypothesis_ensemble(task)), classifier


def _embed(matrix, layout, party):
    """The full-space operator acting as ``matrix`` on the party's factors."""
    dims = layout.dims
    positions = layout.positions_of(party)
    perm = list(positions) + [i for i in range(len(dims)) if i not in positions]
    # flat index, in the original factor order, of each party-first basis state
    order = np.arange(layout.dim).reshape(dims).transpose(perm).reshape(-1)
    full = np.zeros((layout.dim, layout.dim), dtype=np.complex128)
    full[np.ix_(order, order)] = np.kron(matrix, np.eye(layout.dim // matrix.shape[0]))
    return full


def dense_distribution(protocol, hypothesis, prune=PRUNE_TOL):
    """Reference route: project the dense mixed state rho branch by branch.

    Independent of ``run_exact``, which never forms rho: each outcome's
    projector is embedded in the full space and applied on both sides, and a
    transcript's probability is the trace of what is left.
    """
    layout = hypothesis.layout
    branches = [((), dense_rho(hypothesis))]
    for step in protocol.steps:
        grown = []
        for prefix, rho in branches:
            m = step.choose(prefix)
            for proj, outcome in zip(m.projectors, m.outcomes):
                p = _embed(proj, layout, m.party)
                out = p @ rho @ p.conj().T
                if np.trace(out).real >= prune:
                    grown.append((prefix + ((m.party, outcome),), out))
        branches = grown
    return {prefix: float(np.trace(rho).real) for prefix, rho in branches}


class TestMeasurement:
    def test_outcomes_default_and_uniqueness(self):
        m = Measurement("A", (np.eye(2),) * 1)
        assert m.outcomes == (1,)
        with pytest.raises(ValueError, match="unique"):
            Measurement("A", (np.eye(2), np.zeros((2, 2))), outcomes=(1, 1))
        with pytest.raises(ValueError, match="square"):
            Measurement("A", (np.ones((2, 3)),))
        with pytest.raises(ValueError, match="share one dimension"):
            Measurement("A", (np.eye(2), np.eye(3)))

    def test_empty_projector_is_refused_at_construction(self):
        # built, it would make validate raise numpy's zero-size reduction
        # error instead of returning a report
        with pytest.raises(ValueError, match="projector 0 is not a nonempty square matrix"):
            Measurement("A", (np.zeros((0, 0)),))

    def test_first_violation_messages(self):
        not_herm = Measurement("A", (np.array([[0, 1], [0, 0]]), np.eye(2)))
        assert "not Hermitian" in not_herm.first_violation()
        overlap = basis_measurement("A", [np.array([1, 0]), np.array([1, 0])])
        assert "not orthogonal" in overlap.first_violation()
        incomplete = basis_measurement("A", [np.array([1, 0])])
        assert "sum to the identity" in incomplete.first_violation()
        good = basis_measurement("A", np.eye(4))
        assert good.first_violation() is None


_DEFECTS = ("not Hermitian", "non-finite", "overlap", "drop")


@st.composite
def defective_measurements(draw):
    """A random measurement with up to two defects, and the defects.

    A random-unitary or permuted computational basis of dimension 1 to 16
    is coarse-grained into 1 to 16 projectors, so some have rank above 1
    and, with more projectors than vectors, the last ones are zero; one
    zero projector may also be inserted anywhere. Each defect, at a random
    position, is a non-Hermitian entry (of a size above or below ATOL), a
    NaN or an infinity, an overlapping pair (a projector repeated) or a
    dropped projector.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim, count = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    if draw(st.booleans()):
        q = np.eye(dim, dtype=np.complex128)[:, rng.permutation(dim)]
    else:
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    zero = count > 1 and draw(st.booleans())
    labels = rng.permutation(np.arange(dim) % (count - zero))
    projs = [q[:, labels == o] @ q[:, labels == o].conj().T for o in range(count - zero)]
    if zero:
        projs.insert(draw(st.integers(0, len(projs))), np.zeros((dim, dim), np.complex128))
    defects = draw(st.lists(st.sampled_from(_DEFECTS), max_size=2))
    for defect in defects:
        i = draw(st.integers(0, len(projs) - 1))
        r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if defect == "overlap":
            projs[i] = projs[draw(st.integers(0, len(projs) - 1))]
        elif defect == "drop":
            if len(projs) > 1:
                del projs[i]
        else:
            projs[i] = projs[i].copy()
            if defect == "non-finite":
                projs[i][r, c] = draw(st.sampled_from(
                    [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)]
                ))
            else:  # on the diagonal only an imaginary part breaks Hermiticity
                projs[i][r, c] += 10.0 ** draw(st.floats(-12, 0)) * (1j if r == c else 1)
    return Measurement("A", tuple(projs)), defects


@settings(max_examples=500, deadline=None)
@given(defective_measurements())
def test_first_violation_matches_the_per_pair_reference(case):
    """The check on the whole stack reports what the check of one projector
    and one pair at a time reports, string for string, and warns of nothing,
    non-finite entries included."""
    measurement, defects = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measurement.first_violation()
    assert got == first_violation(measurement)
    if not defects:
        assert got is None


class TestMeasurementCache:
    """A measurement is checked and factored once, however often its
    protocol is validated or run; that rests on its projectors being
    private, read-only copies."""

    def test_projectors_are_read_only_copies(self):
        source = np.eye(2)
        m = Measurement("A", (source, np.zeros((2, 2))))
        for projector in m.projectors:
            with pytest.raises(ValueError, match="read-only"):
                projector[0, 0] = 0.5
        source[0, 0] = 0.5
        assert m.projectors[0][0, 0] == 1 and m.first_violation() is None

    def test_copies_are_rebuilt_read_only(self):
        """A copy of a checked and factored measurement carries no cached
        result of its original and is as read-only as a new one."""
        m = Measurement("A", basis_measurement("A", np.eye(2)).projectors, outcomes=(1, "u"))
        assert m.first_violation() is None and m._factored.columns is not None
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin is not m and (twin.party, twin.outcomes) == (m.party, m.outcomes)
            assert "_violation" not in vars(twin) and "_factored" not in vars(twin)
            assert all(np.array_equal(a, b) for a, b in zip(twin.projectors, m.projectors))
            with pytest.raises(ValueError, match="read-only"):
                twin.projectors[0][0, 0] = 0.5

    def test_each_measurement_is_checked_and_factored_once(self, monkeypatch):
        factored, checked = Counter(), Counter()
        factor = _Factored.of

        def counted_factor(m):
            factored[m] += 1
            return factor(m)

        check = Measurement.__dict__["_violation"].func

        def counted_check(m):
            checked[m] += 1
            return check(m)

        counted = cached_property(counted_check)
        counted.__set_name__(Measurement, "_violation")
        monkeypatch.setattr(_Factored, "of", counted_factor)
        monkeypatch.setattr(Measurement, "_violation", counted)
        bell = bell_basis().states
        computational = basis_measurement("B", np.eye(4))  # two variants share it
        protocol = Protocol("adaptive-bell", (
            ProtocolStep(basis_measurement("A", bell)),
            ProtocolStep(
                basis_measurement("B", bell),
                {(("A", 1),): computational, (("A", 3),): computational},
            ),
        ))
        hypotheses = hypothesis_ensemble(SubsetTask(bell_basis(), 2))
        assert validate(protocol).ok
        reports = [run_exact(protocol, hypotheses) for _ in range(2)]
        distinct = {protocol.steps[0].measurement, protocol.steps[1].measurement, computational}
        assert checked == factored == Counter(dict.fromkeys(distinct, 1))
        assert _bits(reports[0]) == _bits(reports[1])

    @pytest.mark.parametrize("name", ["bell32", "bell43"])
    def test_a_builtin_run_again_matches_a_fresh_protocol(self, name):
        """A builtin's tally has already run its protocol once, so running
        it again reads the cached factoring."""
        builtin, task = {
            "bell32": (builtin_bell32_variants, SubsetTask(named_states(["B1", "B2", "B3"]), 2)),
            "bell43": (builtin_bell43, SubsetTask(bell_basis(), 3)),
        }[name]
        protocol, _ = builtin()
        hypotheses = hypothesis_ensemble(task)
        again = run_exact(protocol, hypotheses)
        assert _bits(again) == _bits(run_exact(PROTOCOLS[name](), hypotheses))


def _bits(report):
    """Every transcript, in order, with the hex of its probability, per
    hypothesis and per ordering, and the hex of every pruned mass."""
    def items(d):
        return [(t, p.hex()) for t, p in d.items()]
    return (
        [items(d) for d in report.distributions],
        [[items(d) for d in comps] for comps in report.by_component],
        [p.hex() for p in report.pruned_mass],
    )


def broken_protocol():
    """Step 2 measures one projector that does not sum to the identity."""
    return Protocol(
        "broken",
        (
            ProtocolStep(basis_measurement("A", np.eye(4))),
            ProtocolStep(basis_measurement("B", [np.array([1, 0, 0, 0])])),
        ),
    )


class TestValidate:
    def test_builtins_validate(self):
        for builder in (builtin_bell32_variants, builtin_bell43):
            protocol, _ = builder()
            assert validate(protocol).ok

    def test_locates_a_broken_step(self):
        report = validate(broken_protocol())
        assert not report.ok
        assert report.location == "step 2 (party B)"
        assert "identity" in report.message

    def test_run_exact_refuses_a_broken_step(self):
        task = SubsetTask(bell_basis(), 2)
        with pytest.raises(ValueError, match=r"^step 2 \(party B\): .*identity"):
            run_exact(broken_protocol(), hypothesis_ensemble(task))

    @staticmethod
    def non_finite_protocol(entry):
        """Step 1 measures ``diag(entry, ..., entry)``; step 2 is sound."""
        return Protocol(
            "non-finite",
            (
                ProtocolStep(Measurement("A", (np.diag([entry] * 4),))),
                ProtocolStep(basis_measurement("B", np.eye(4))),
            ),
        )

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_locates_a_non_finite_projector(self, entry):
        report = validate(self.non_finite_protocol(entry))
        assert not report.ok
        assert report.location == "step 1 (party A)"
        assert report.message == "projector 0 has a non-finite entry"

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_run_exact_refuses_a_non_finite_projector(self, entry):
        task = SubsetTask(bell_basis(), 2)
        with pytest.raises(ValueError, match=r"^step 1 \(party A\): projector 0 has a non-finite"):
            run_exact(self.non_finite_protocol(entry), hypothesis_ensemble(task))


class TestLocality:
    def test_unknown_party(self):
        protocol = Protocol("x", (ProtocolStep(basis_measurement("Q", np.eye(4))),))
        task = SubsetTask(bell_basis(), 2)
        with pytest.raises(LocalityError, match="party 'Q'"):
            run_exact(protocol, hypothesis_ensemble(task))

    def test_dimension_mismatch(self):
        protocol, _ = builtin_bell32_variants()
        task = SubsetTask(ges_basis(3), 2)  # party blocks have dimension 9
        with pytest.raises(LocalityError, match="dimension 4"):
            run_exact(protocol, hypothesis_ensemble(task))

    def test_locality_is_checked_before_validity(self):
        task = SubsetTask(ges_basis(3), 2)
        with pytest.raises(LocalityError, match="dimension 4"):
            run_exact(broken_protocol(), hypothesis_ensemble(task))


class TestRunExact:
    def test_component_and_density_routes_agree(self):
        report, _ = bell32_report()
        protocol, _ = builtin_bell32_variants()
        for h, a in zip(report.hypotheses, report.distributions):
            b = dense_distribution(protocol, h)
            assert set(a) == set(b)
            for t in a:
                assert a[t] == pytest.approx(b[t], abs=1e-12)

    def test_prune_zero_keeps_null_branches(self):
        protocol, _ = builtin_bell32_variants()
        task = SubsetTask(named_states(["B1", "B2", "B3"]), 2)
        report = run_exact(protocol, hypothesis_ensemble(task), prune=0.0)
        assert all(len(d) == 16 for d in report.distributions)
        assert report.pruned_mass == (0.0, 0.0, 0.0)
        pruned = run_exact(protocol, hypothesis_ensemble(task))
        assert all(len(d) == 4 for d in pruned.distributions)

    def test_input_validation(self):
        protocol, _ = builtin_bell32_variants()
        with pytest.raises(ValueError, match="at least one hypothesis"):
            run_exact(protocol, [])

    def test_hypotheses_share_the_stacked_layout(self):
        protocol = PROTOCOLS["bell32"]()
        pair = MixedHypothesis((0, 1), bell_basis())
        for other in (MixedHypothesis((0, 1, 2), bell_basis()), MixedHypothesis((0, 1), ghz3_basis())):
            with pytest.raises(ValueError, match="share the stacked layout"):
                run_exact(protocol, [pair, other])
        # another set on the same single-copy layout stacks the same way
        trio = MixedHypothesis((0, 2), named_states(["B1", "B2", "B3"]))
        assert len(run_exact(protocol, [pair, trio]).distributions) == 2

    @pytest.mark.parametrize("prune", [1.0, 2.0, float("inf"), float("nan"), -0.1])
    def test_refuses_a_prune_outside_zero_to_one(self, prune):
        # at 1 or above every branch goes, and the refuted bell43 scheme would
        # read as identified and order-blind on empty distributions
        protocol, _ = builtin_bell43()
        hypotheses = hypothesis_ensemble(SubsetTask(bell_basis(), 3))
        with pytest.raises(SettingError, match=r"prune must be a finite number in \[0, 1\)"):
            run_exact(protocol, hypotheses, prune=prune)
        # the protocol's own faults are reported first
        with pytest.raises(ValueError, match=r"^step 2 \(party B\)"):
            run_exact(broken_protocol(), hypothesis_ensemble(SubsetTask(bell_basis(), 2)), prune=prune)

    def test_memory_holds_one_subset_at_a_time(self):
        # ges(4) k=3 has 560 subsets of 6 stacked states of dimension 4,096:
        # held at once, the components take 3,360 * 4,096 * 16 B = 220 MB
        task = SubsetTask(ges_basis(4), 3)
        odd = np.arange(64) % 2
        protocol = Protocol(
            "parity", (ProtocolStep(Measurement("A", (np.diag(1 - odd), np.diag(odd)))),)
        )
        tracemalloc.start()
        try:
            report = run_exact(protocol, hypothesis_ensemble(task))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.distributions) == 560
        assert peak < 20 * 2 ** 20

    def test_memory_holds_one_chunk_at_a_time(self):
        # ges(4) k=2 has 120 subsets of 2 stacked states of dimension 256, so
        # a chunk of 2**14 amplitudes (256 KiB) holds 32 of them. The walk
        # peaks near 1.7 MiB, the report's 3,840 leaves included; the whole
        # ensemble in one chunk peaks near 5 MiB. Bound: 2.5 MiB.
        task = SubsetTask(ges_basis(4), 2)
        hypotheses = hypothesis_ensemble(task)
        assert len(next(_chunks(hypotheses, 2 * task.stacked_dim))) == 32
        tracemalloc.start()
        try:
            report = run_exact(_every_party(ges_basis(4), "AB"), hypotheses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(d) for comps in report.by_component for d in comps) == 3840
        assert peak < 2.5 * 2 ** 20


def _every_party(basis, parties):
    """Each party in turn measures its whole block along ``basis``."""
    return Protocol(
        "every-party", tuple(ProtocolStep(basis_measurement(p, basis.states)) for p in parties)
    )


_ENSEMBLES = {
    "ghz3-k2": lambda: (SubsetTask(ghz3_basis(), 2), _every_party(bell_basis(), "ABC")),
    "ges3-k2": lambda: (SubsetTask(ges_basis(3), 2), _every_party(ges_basis(3), "AB")),
    "bell-k2": lambda: (SubsetTask(bell_basis(), 2), PROTOCOLS["bell32"]()),
    "bell-k3": lambda: (SubsetTask(bell_basis(), 3), PROTOCOLS["bell43"]()),
}


@pytest.mark.parametrize("name", sorted(_ENSEMBLES))
def test_an_ensemble_runs_as_its_hypotheses_alone(name):
    """Chunking never shows: hypotheses that share a chunk come out as
    they do alone, transcript order and bits included."""
    task, protocol = _ENSEMBLES[name]()
    hypotheses = hypothesis_ensemble(task)
    assert len(next(_chunks(hypotheses, math.factorial(task.k) * task.stacked_dim))) > 1
    whole = run_exact(protocol, hypotheses)
    for i, h in enumerate(hypotheses):
        alone = run_exact(protocol, [h])
        assert list(whole.distributions[i].items()) == list(alone.distributions[0].items())
        assert [list(d.items()) for d in whole.by_component[i]] == [
            list(d.items()) for d in alone.by_component[0]
        ]
        assert abs(whole.pruned_mass[i] - alone.pruned_mass[0]) <= 1e-15


def _random_measurement(party, dim, outcomes, rng, selection=False):
    """A random-unitary basis, or with ``selection`` a permuted computational
    basis, coarse-grained into ``outcomes`` projectors, so with fewer
    outcomes than vectors some projectors have rank >= 2, and with more
    (``dim + 1``) the last projector is zero."""
    if selection:
        q = np.eye(dim, dtype=np.complex128)[:, rng.permutation(dim)]
    else:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
    labels = rng.permutation(np.arange(dim) % outcomes)
    return Measurement(
        party, tuple(q[:, labels == o] @ q[:, labels == o].conj().T for o in range(outcomes))
    )


@st.composite
def random_runs(draw):
    """A small Bell task (a pair or a triple, k in {1, 2}) and a valid random
    protocol: one to three random-unitary or coordinate-selection
    measurements, some coarse-grained or with a zero projector, each later
    one sometimes swapped on some transcripts reached before it; a party
    may measure more than once."""
    members = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True))
    k = draw(st.integers(1, min(2, len(members) - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** k

    def measurement(party):
        outcomes = draw(st.integers(1, dim + 1))
        return _random_measurement(party, dim, outcomes, rng, draw(st.booleans()))

    steps = []
    prefixes = [()]
    for party in draw(st.lists(st.sampled_from("AB"), min_size=1, max_size=3)):
        variants = {
            prefix: measurement(draw(st.sampled_from("AB")))
            for prefix in prefixes
            if prefix and draw(st.booleans())
        }
        step = ProtocolStep(measurement(party), variants)
        steps.append(step)
        prefixes = [
            prefix + ((m.party, o),)
            for prefix in prefixes
            for m in (step.choose(prefix),)
            for o in m.outcomes
        ]
    task = SubsetTask(named_states([f"B{i}" for i in members]), k)
    return Protocol("random", tuple(steps)), task


@settings(max_examples=100, deadline=None)
@given(random_runs())
def test_run_exact_matches_the_dense_reference(case):
    protocol, task = case
    assert validate(protocol).ok
    hypotheses = hypothesis_ensemble(task)
    report = run_exact(protocol, hypotheses)
    for h, dist, comps, pruned in zip(
        report.hypotheses, report.distributions, report.by_component, report.pruned_mass
    ):
        dense = dense_distribution(protocol, h)
        for t in set(dist) | set(dense):
            assert dist.get(t, 0.0) == pytest.approx(dense.get(t, 0.0), abs=1e-12)
        assert sum(dist.values()) + pruned == pytest.approx(1.0, abs=1e-12)
        for d in comps:
            assert sum(d.values()) == pytest.approx(1.0, abs=ATOL)
    # pruning hard enough to drop real branches keeps the surviving
    # leaves as they were and reports exactly the mass it dropped
    coarse = run_exact(protocol, hypotheses, prune=0.05)
    for dist, comps, fine_comps, pruned in zip(
        coarse.distributions, coarse.by_component, report.by_component, coarse.pruned_mass
    ):
        assert sum(dist.values()) + pruned == pytest.approx(1.0, abs=1e-12)
        for d, fine in zip(comps, fine_comps):
            assert all(p == pytest.approx(fine[t], abs=1e-12) for t, p in d.items())
    # pruning acts per ordering, not on the mixed state, so the two can
    # differ, but each transcript by less than the threshold
    for h, dist in zip(coarse.hypotheses, coarse.distributions):
        dense = dense_distribution(protocol, h, prune=0.05)
        for t in set(dist) | set(dense):
            assert abs(dist.get(t, 0.0) - dense.get(t, 0.0)) < 0.05
    # without pruning every branch is kept, a zero projector's included
    full = run_exact(protocol, hypotheses, prune=0.0)
    for h, dist, pruned in zip(full.hypotheses, full.distributions, full.pruned_mass):
        dense = dense_distribution(protocol, h, prune=0.0)
        for t in set(dist) | set(dense):
            assert dist.get(t, 0.0) == pytest.approx(dense.get(t, 0.0), abs=1e-12)
        assert pruned == 0.0


@settings(max_examples=100, deadline=None)
@given(random_runs(), st.sampled_from([PRUNE_TOL, 0.05, 0.0]))
def test_run_exact_matches_the_per_ordering_walk(case, prune):
    """Grouping rows across orderings, branches and hypotheses never
    shows: each ordering lists the same transcripts, in the same order, at
    the same probabilities as when walked alone, one branch at a time."""
    protocol, task = case
    hypotheses = hypothesis_ensemble(task)
    report = run_exact(protocol, hypotheses, prune=prune)
    distributions, by_component, pruned_mass = per_ordering_run(protocol, hypotheses, prune)
    got = list(report.distributions) + [d for comps in report.by_component for d in comps]
    want = distributions + [d for comps in by_component for d in comps]
    # every row runs its ordering's arithmetic, so the leaves are equal; the
    # pruned masses are summed in another order, so they agree within 1e-15
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    assert all(abs(a - b) <= 1e-15 for a, b in zip(report.pruned_mass, pruned_mass))


def _digit_parity(party, base, digits):
    """Even and odd digit sum of a base-``base`` register: two diagonal
    projectors of rank >= 2."""
    odd = np.indices((base,) * digits).sum(axis=0).reshape(-1) % 2
    return Measurement(party, (np.diag(1 - odd), np.diag(odd)))


def _assert_matches_the_per_ordering_walk(protocol, hypotheses, prune=PRUNE_TOL, pruned_within=0.0):
    report = run_exact(protocol, hypotheses, prune=prune)
    distributions, by_component, pruned_mass = per_ordering_run(protocol, hypotheses, prune)
    got = list(report.distributions) + [d for comps in report.by_component for d in comps]
    want = distributions + [d for comps in by_component for d in comps]
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    assert list(report.pruned_mass) == pytest.approx(pruned_mass, rel=0, abs=pruned_within)


class TestLevelWalk:
    """Shapes the level walk batches, each checked against the per-ordering
    walk at the default prune, at 0.05 and without pruning."""

    @pytest.mark.parametrize("prune", [PRUNE_TOL, 0.05, 0.0])
    def test_ghz3_three_copies_in_the_ghz3_basis(self, prune):
        # twelve subsets fill three chunks; every level is one batch of up
        # to 64 nodes
        ghz3 = ghz3_basis()
        protocol = Protocol("every-party", tuple(
            ProtocolStep(basis_measurement(p, ghz3.states)) for p in "ABC"
        ))
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(ghz3, 3))[:12], prune
        )

    @pytest.mark.parametrize("prune", [PRUNE_TOL, 0.05, 0.0])
    def test_ghz4_two_copies_in_the_bell_basis(self, prune):
        # forty subsets fill two chunks; four levels of one batch each
        bell = bell_basis().states
        protocol = Protocol("every-party", tuple(
            ProtocolStep(basis_measurement(p, bell)) for p in "ABCD"
        ))
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(ghz4_basis(), 2))[:40], prune
        )

    # at 0.05 a branch can drop some outcomes and keep others: the walk adds
    # up a branch's dropped outcomes before adding them to the ordering's
    # total, the reference adds them one by one, so the totals agree within
    # 1e-15, as in test_run_exact_matches_the_per_ordering_walk
    @pytest.mark.parametrize("prune, pruned_within", [(PRUNE_TOL, 0.0), (0.05, 1e-15), (0.0, 0.0)])
    def test_leaves_from_several_row_groups(self, prune, pruned_within):
        """A's first projectors have ranks 2, 1 and 1, so A:1 leaves rows of
        another shape than A:2 and A:3; B swaps in a measurement of ranks 2
        and 2 after A:2 only, which splits the group of A:2 and A:3 into two
        batches and yields a third row shape; A, measured again, acts
        through each earlier outcome's isometry. The last level's leaves
        come from three groups, listed A:1, A:3, A:2, and must go back into
        node order."""
        rng = np.random.default_rng(3001)
        protocol = Protocol("mixed", (
            ProtocolStep(_random_measurement("A", 4, 3, rng)),
            ProtocolStep(
                _random_measurement("B", 4, 4, rng),
                {(("A", 2),): _random_measurement("B", 4, 2, rng)},
            ),
            ProtocolStep(_random_measurement("A", 4, 3, rng)),
        ))
        assert [len(w.T) for w in _Factored.of(protocol.steps[0].measurement).isometries] == [
            2, 1, 1
        ]
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 2)), prune, pruned_within
        )

    def test_pruning_every_branch_before_the_last_step(self):
        # each computational outcome of A's maximally mixed block has mass
        # 1/4, so at 0.5 the first level drops every branch
        protocol = Protocol("tally", tuple(
            ProtocolStep(basis_measurement(p, np.eye(4))) for p in "AB"
        ))
        hypotheses = hypothesis_ensemble(SubsetTask(bell_basis(), 2))
        _assert_matches_the_per_ordering_walk(protocol, hypotheses, prune=0.5)
        report = run_exact(protocol, hypotheses, prune=0.5)
        assert all(not d for d in report.distributions)
        assert report.pruned_mass == pytest.approx([1.0] * len(hypotheses), abs=1e-12)


class TestCoordinateSelection:
    """A measurement with diagonal projectors picks coordinates; a party's
    first such measurement gathers them instead of multiplying."""

    def test_read_off_the_measurement(self):
        for m in (_digit_parity("A", 3, 2), basis_measurement("A", np.eye(9))):
            f = _Factored.of(m)
            assert f.columns is not None and f.signs is None
            assert np.array_equal(f.adjoint, np.eye(9)[f.columns])
        for basis in (bell_basis(), ghz3_basis(), ges_basis(3)):
            f = _Factored.of(basis_measurement("A", basis.states))
            assert f.columns is None and f.signs is None

    def test_parity_on_ges3_matches_the_per_ordering_walk(self):
        # parity gathers on A; A's second measurement, itself a selection,
        # acts on the parity outcome's rank-4 or rank-5 axis by matmul
        protocol = Protocol("parity", (
            ProtocolStep(_digit_parity("A", 3, 2)),
            ProtocolStep(basis_measurement("B", ges_basis(3).states)),
            ProtocolStep(basis_measurement("A", np.eye(9))),
        ))
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(ges_basis(3), 2))
        )

    @pytest.mark.parametrize("second", ["dense", "parity"])
    def test_three_copies_of_ges3_match_both_references(self, second):
        """ges(3) at k=3: every subset's six orderings, 3-cycles included,
        are gathered from one product. Digit parity on A gathers A's
        coordinates; a coarse-grained random basis on B then multiplies,
        while parity on B, a last-step selection, reads its masses off the
        rows. Both must give the per-ordering walk's bits, and the dense
        route, fed rows built the Kronecker way, within 1e-12."""
        task = SubsetTask(ges_basis(3), 3)
        rng = np.random.default_rng(2603)
        last = (
            _random_measurement("B", 27, 3, rng) if second == "dense"
            else _digit_parity("B", 3, 3)
        )
        protocol = Protocol("parity-" + second, (
            ProtocolStep(_digit_parity("A", 3, 3)), ProtocolStep(last),
        ))
        hypotheses = hypothesis_ensemble(task)
        _assert_matches_the_per_ordering_walk(protocol, hypotheses)
        report = run_exact(protocol, hypotheses[:2])
        for h, dist in zip(report.hypotheses, report.distributions):
            kronecker = SimpleNamespace(layout=h.layout, components=np.array([
                stacked_state(task.state_set, o).amplitudes for o in h.orderings
            ]))
            dense = dense_distribution(protocol, kronecker)
            assert set(dist) == set(dense)
            for t in dist:
                assert dist[t] == pytest.approx(dense[t], abs=1e-12)

    @pytest.mark.parametrize("prune", [PRUNE_TOL, 0.0])
    @pytest.mark.parametrize("selection", [True, False], ids=["gather", "matmul"])
    def test_a_zero_projector_first_matches_the_per_ordering_walk(self, selection, prune):
        # dim + 1 outcomes on A's first measurement leave one projector zero,
        # so A's axis shrinks to rank 0 on that branch before B measures
        rng = np.random.default_rng(2704)
        protocol = Protocol("zero-first", (
            ProtocolStep(_random_measurement("A", 4, 5, rng, selection)),
            ProtocolStep(_random_measurement("B", 4, 3, rng)),
        ))
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 2)), prune
        )

    def test_one_copy_matches_the_per_ordering_walk(self):
        # k=1: one ordering per hypothesis, a selection then a matmul
        rng = np.random.default_rng(2705)
        protocol = Protocol("one-copy", (
            ProtocolStep(_random_measurement("A", 2, 2, rng, selection=True)),
            ProtocolStep(_random_measurement("B", 2, 2, rng)),
        ))
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 1))
        )

    def test_bell_adaptive_matches_the_per_ordering_walk(self):
        bell = bell_basis().states
        computational = basis_measurement("B", np.eye(4))
        protocol = Protocol("adaptive-bell", (
            ProtocolStep(basis_measurement("A", bell)),
            ProtocolStep(
                basis_measurement("B", bell),
                {(("A", 1),): computational, (("A", 3),): computational},
            ),
        ))
        _assert_matches_the_per_ordering_walk(
            protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 2))
        )

    def test_negated_rows_keep_their_sign(self, monkeypatch):
        """Each eigenvector's sign is the eigensolver's choice. With every
        other one negated, parity's rows carry mixed signs within an
        outcome. The Bell measurements after it on A, then on B, see the
        relative sign within a parity sector (entanglement swapping ties
        B's outcome to A's), so they see any sign the gather drops."""
        hypotheses = hypothesis_ensemble(SubsetTask(bell_basis(), 2))
        eigh = np.linalg.eigh

        def negated(matrix):
            values, vectors = eigh(matrix)
            # the last axis numbers the eigenvectors, for a stack as for one matrix
            return values, vectors * np.where(np.arange(values.shape[-1]) % 2, -1.0, 1.0)

        monkeypatch.setattr(np.linalg, "eigh", negated)
        parity = _digit_parity("A", 2, 2)
        f = _Factored.of(parity)
        assert f.columns is not None and sorted(f.signs[:, 0].tolist()) == [-1, -1, 1, 1]
        protocol = Protocol("signed", (
            ProtocolStep(parity),
            ProtocolStep(basis_measurement("A", bell_basis().states)),
            ProtocolStep(basis_measurement("B", bell_basis().states)),
        ))
        _assert_matches_the_per_ordering_walk(protocol, hypotheses)
        report = run_exact(protocol, hypotheses)
        for h, dist in zip(report.hypotheses, report.distributions):
            dense = dense_distribution(protocol, h)
            assert set(dist) == set(dense)
            for t in dist:
                assert dist[t] == pytest.approx(dense[t], abs=1e-12)


class TestIdentification:
    def test_bell32_identifies_perfectly(self):
        report, classifier = bell32_report()
        verdict = perfect_identification(report, classifier)
        assert verdict.ok and verdict.witness is None
        blind = order_blindness_verdict(report)
        assert blind.ok

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, 1e-11])
    def test_order_blindness_refuses_a_meaningless_tolerance(self, tol):
        # the report is order blind: a NaN or negative tolerance would fail
        # it with no witness, an infinite one would pass any report, and
        # one below the floor would let rounding decide
        report, _ = bell32_report()
        assert order_blindness_verdict(report).ok
        with pytest.raises(SettingError, match="tolerance must be a finite number of at least 1e-10"):
            order_blindness_verdict(report, tol)

    def test_order_blindness_convenience(self):
        protocol, _ = builtin_bell32_variants()
        task = SubsetTask(named_states(["B1", "B2", "B3"]), 2)
        hypothesis = MixedHypothesis((0, 2), task.state_set)
        assert order_blindness_verdict(run_exact(protocol, [hypothesis])).ok

    def test_order_blindness_witness_ignores_the_hash_seed(self):
        # transcripts are tuples of strings, hashed per process; the witness
        # must not follow the order in which a set would list them
        script = (
            "import subsetid as s\n"
            "b = s.ges_basis(3)\n"
            "p = s.Protocol('every-party', tuple(\n"
            "    s.ProtocolStep(s.basis_measurement(q, b.states)) for q in 'AB'))\n"
            "r = s.run_exact(p, s.hypothesis_ensemble(s.SubsetTask(b, 2)))\n"
            "print(repr(s.order_blindness_verdict(r).witness))\n"
        )
        witnesses = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                timeout=120, env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(witnesses) == 1
        assert "'hypothesis': (0, 3)" in witnesses.pop()

    def test_coverage_error_names_the_transcript(self):
        report, _ = bell32_report()
        with pytest.raises(CoverageError, match="A:1 B:2"):
            perfect_identification(report, Classifier({}))

    def test_misclassification_witness(self):
        report, _ = bell32_report()
        wrong = derive_classifier(report).table.copy()
        victim = sorted(wrong)[0]
        wrong[victim] = (1, 2)
        verdict = perfect_identification(report, Classifier(wrong))
        assert not verdict.ok
        assert verdict.witness["transcript"] == format_transcript(victim)
        assert verdict.witness["classified"] == (1, 2)


def _every_pair_verdict(report):
    """order_blindness_verdict without its skip of equal pairs."""
    worst, witness = 0.0, None
    for h, comp_dists in zip(report.hypotheses, report.by_component):
        for (ia, da), (ib, db) in itertools.combinations(enumerate(comp_dists), 2):
            tv = _total_variation(da, db)
            if tv > worst:
                worst = tv
                witness = (h.subset_indices, h.orderings[ia], h.orderings[ib], tv)
    return worst <= ATOL, witness


class TestEqualPairsSkipped:
    """order_blindness_verdict skips pairs whose dicts compare equal; the
    verdict and witness must be those of the walk over every pair."""

    @staticmethod
    def assert_matches_every_pair(report):
        verdict = order_blindness_verdict(report)
        ok, witness = _every_pair_verdict(report)
        assert verdict.ok == ok
        if witness is None:
            assert verdict.witness is None
        else:
            w = verdict.witness
            assert (w["hypothesis"], w["ordering_a"], w["ordering_b"]) == witness[:3]
            assert w["total_variation"] == witness[3]

    def test_bell43_witness(self):
        protocol, _ = builtin_bell43()
        report = run_exact(protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 3)))
        self.assert_matches_every_pair(report)
        assert order_blindness_verdict(report).witness["total_variation"] == 0.9999999999999996

    def test_equal_pairs_with_nan_and_inf(self):
        report, _ = bell32_report()
        nan, t, u = math.nan, (("A", 1),), (("A", 2),)
        by_component = (
            ({t: nan, u: 0.5}, {t: nan, u: 0.5}),  # one NaN object: equal dicts, TV NaN
            ({t: math.inf}, {t: math.inf}),  # equal dicts, TV NaN
            ({t: 1.0}, {t: 0.25, u: 0.75}),  # the only pair that differs
        )
        self.assert_matches_every_pair(dataclasses.replace(report, by_component=by_component))
        verdict = order_blindness_verdict(dataclasses.replace(report, by_component=by_component))
        assert not verdict.ok and verdict.witness["total_variation"] == 0.75
        equal = by_component[:2] + ((by_component[2][0],) * 2,)
        self.assert_matches_every_pair(dataclasses.replace(report, by_component=equal))
        assert order_blindness_verdict(dataclasses.replace(report, by_component=equal)).ok


class TestOrderLeak:
    """A computational-basis tally on both copies reveals which copy came
    first, so the order-blindness verdict must fail with a disjoint-support
    witness."""

    def build(self):
        steps = (
            ProtocolStep(basis_measurement("A", np.eye(4))),
            ProtocolStep(basis_measurement("B", np.eye(4))),
        )
        return Protocol("tally", steps)

    def test_order_leak_detected(self):
        task = SubsetTask(named_states(["B1", "B3", "B4"]), 2)
        report = run_exact(self.build(), hypothesis_ensemble(task))
        verdict = order_blindness_verdict(report)
        assert not verdict.ok
        w = verdict.witness
        assert w["hypothesis"] == (0, 1)
        assert w["total_variation"] == pytest.approx(1.0, abs=1e-9)

    def test_probabilities_still_sum_to_one(self):
        task = SubsetTask(named_states(["B1", "B3", "B4"]), 2)
        report = run_exact(self.build(), hypothesis_ensemble(task))
        for dist in report.distributions:
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


class TestAdaptiveVariants:
    """Second measurement flips its basis on one branch; the flip makes
    party B's outcome alone identify the state."""

    def build(self):
        comp = [np.array([1, 0]), np.array([0, 1])]
        flipped = [np.array([0, 1]), np.array([1, 0])]
        step_a = ProtocolStep(basis_measurement("A", comp))
        step_b = ProtocolStep(
            basis_measurement("B", comp),
            variants={(("A", 2),): basis_measurement("B", flipped)},
        )
        return Protocol("adaptive", (step_a, step_b))

    def test_variant_chosen_by_prefix(self):
        protocol = self.build()
        step_b = protocol.steps[1]
        assert step_b.choose((("A", 1),)) is step_b.measurement
        assert step_b.choose((("A", 2),)) is not step_b.measurement

    def test_adaptive_identification(self):
        protocol = self.build()
        task = SubsetTask(named_states(["B1", "B3"]), 1)
        report = run_exact(protocol, hypothesis_ensemble(task))
        classifier = derive_classifier(report)
        # B's outcome decides: outcome 1 means B1, outcome 2 means B3
        for transcript, subset in sorted(classifier.table.items()):
            assert subset == ((0,) if dict(transcript)["B"] == 1 else (1,))
        assert perfect_identification(report, classifier).ok


class TestMixedLabelTypes:
    """Outcome labels of unlike types, 1 and "u", key variants that plain
    sorting cannot order; each label is ordered after its type name."""

    def build(self, broken=False):
        comp = [np.array([1, 0]), np.array([0, 1])]
        flipped = [np.array([0, 1]), np.array([1, 0])]
        a = Measurement("A", basis_measurement("A", comp).projectors, outcomes=(1, "u"))
        on_u = basis_measurement("B", comp[:1] if broken else flipped)
        step_b = ProtocolStep(
            basis_measurement("B", comp),
            variants={(("A", "u"),): on_u, (("A", 1),): basis_measurement("B", comp)},
        )
        return Protocol("mixed", (ProtocolStep(a), step_b))

    def test_variants_of_mixed_label_types_validate_and_run(self):
        protocol = self.build()
        tags = [tag for tag, _ in protocol.steps[1].all_measurements()]
        assert tags == ["", "variant A:1", "variant A:u"]
        assert validate(protocol).ok
        report = run_exact(protocol, hypothesis_ensemble(SubsetTask(named_states(["B1", "B3"]), 1)))
        for dist in report.distributions:
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
            assert {t[0] for t in dist} == {("A", 1), ("A", "u")}
        # under B3 the flip on A:u makes B's outcome differ from A's
        b3 = report.distributions[1]
        assert set(b3) == {(("A", 1), ("B", 2)), (("A", "u"), ("B", 2))}

    def test_a_broken_variant_of_mixed_label_types_is_located(self):
        report = validate(self.build(broken=True))
        assert not report.ok
        assert report.location == "step 2 (party B) variant A:u"
        assert "identity" in report.message


class TestDeriveClassifier:
    def test_matches_builtin_table(self):
        _, classifier = bell32_report()
        written_out = {
            (("A", a), ("B", b)): subset
            for subset, pairs in _EXPECTED_SUPPORT.items()
            for a, b in pairs
        }
        assert classifier.table == written_out

    def test_ambiguity_raises_by_default(self):
        protocol, _ = builtin_bell43()
        task = SubsetTask(bell_basis(), 3)
        report = run_exact(protocol, hypothesis_ensemble(task))
        with pytest.raises(AmbiguityError, match="occurs under 2 different subsets"):
            derive_classifier(report)
        try:
            derive_classifier(report)
        except AmbiguityError as e:
            assert e.transcript is not None
            assert len(e.claimants) == 2

    def test_ambiguity_message_lists_claimants_in_enumeration_order(self):
        protocol, _ = builtin_bell43()
        report = run_exact(protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 3)))
        with pytest.raises(AmbiguityError) as caught:
            derive_classifier(report)
        assert str(caught.value) == (
            "transcript A:1 B:3 occurs under 2 different subsets: [(0, 1, 3), (1, 2, 3)]"
        )
        assert caught.value.claimants == ((0, 1, 3), (1, 2, 3))

    def test_first_claimant_mode(self):
        protocol, classifier = builtin_bell43()
        task = SubsetTask(bell_basis(), 3)
        report = run_exact(protocol, hypothesis_ensemble(task))
        derived = derive_classifier(report, on_ambiguity="first")
        assert derived.table == classifier.table

    def test_unknown_mode_rejected(self):
        report, _ = bell32_report()
        with pytest.raises(ValueError, match="ambiguity policy"):
            derive_classifier(report, on_ambiguity="panic")


class TestVariantTriples:
    @pytest.mark.parametrize("triple", [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    def test_each_triple_works(self, triple):
        protocol, classifier = builtin_bell32_variants(triple)
        task = SubsetTask(named_states([f"B{i}" for i in triple]), 2)
        report = run_exact(protocol, hypothesis_ensemble(task))
        assert perfect_identification(report, classifier).ok
        assert order_blindness_verdict(report).ok

    @pytest.mark.parametrize("bad", [(1, 2), (1, 1, 2), (0, 1, 2), (2, 3, 5)])
    def test_bad_triples_rejected(self, bad):
        with pytest.raises(ValueError):
            builtin_bell32_variants(bad)


class TestSharedBuiltins:
    def test_classifier_round_trips(self):
        _, classifier = builtin_bell43()
        copied = classifier.table.copy()
        assert isinstance(copied, dict) and copied == dict(classifier.table)
        for twin in (pickle.loads(pickle.dumps(classifier)), copy.deepcopy(classifier)):
            assert twin is not classifier and dict(twin.table) == copied

    def test_each_call_tallies_its_own_table(self):
        _, first = builtin_bell32_variants((3, 1, 2))
        _, again = builtin_bell32_variants([1, 2, 3])
        assert first.table == again.table and first.table is not again.table


def test_format_transcript():
    assert format_transcript(()) == "(empty)"
    assert format_transcript((("A", 3), ("B", 1))) == "A:3 B:1"


def test_bell32_variants_classifier_has_twelve_transcripts():
    _, classifier = builtin_bell32_variants()
    assert len(classifier.table) == 12
