import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dense_reference import dense_rho
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
    hypothesis_ensemble,
    named_states,
    order_blindness,
    order_blindness_verdict,
    perfect_identification,
    run_exact,
    validate,
)
from subsetid.acceptance import _EXPECTED_SUPPORT
from subsetid.errors import AmbiguityError, CoverageError, LocalityError
from subsetid.protocols import PRUNE_TOL
from subsetid.statespace import permute_factors


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

    def test_first_violation_messages(self):
        not_herm = Measurement("A", (np.array([[0, 1], [0, 0]]), np.eye(2)))
        assert "not Hermitian" in not_herm.first_violation()
        overlap = basis_measurement("A", [np.array([1, 0]), np.array([1, 0])])
        assert "not orthogonal" in overlap.first_violation()
        incomplete = basis_measurement("A", [np.array([1, 0])])
        assert "sum to the identity" in incomplete.first_violation()
        good = basis_measurement("A", np.eye(4))
        assert good.first_violation() is None


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


def _random_measurement(party, dim, outcomes, rng):
    """A random-unitary basis coarse-grained into ``outcomes`` projectors,
    so with fewer outcomes than vectors some projectors have rank >= 2, and
    with more (``dim + 1``) the last projector is zero."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    labels = rng.permutation(np.arange(dim) % outcomes)
    return Measurement(
        party, tuple(q[:, labels == o] @ q[:, labels == o].conj().T for o in range(outcomes))
    )


@st.composite
def random_runs(draw):
    """A small Bell task (a pair or a triple, k in {1, 2}) and a valid random
    protocol: one to three random-unitary measurements, some coarse-grained
    or with a zero projector, each later one sometimes swapped on some
    transcripts reached before it; a party may measure more than once."""
    members = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True))
    k = draw(st.integers(1, min(2, len(members) - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** k

    def measurement(party):
        return _random_measurement(party, dim, draw(st.integers(1, dim + 1)), rng)

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
    inputs = [hypotheses]
    if task.k == 2:
        # the same states with factors copy-major (A1 B1 A2 B2), which
        # run_exact must regroup party-major before it measures
        inputs.append([
            MixedHypothesis(
                h.subset_indices,
                tuple(permute_factors(c, (0, 2, 1, 3)) for c in h.components),
            )
            for h in hypotheses
        ])
    for hyps in inputs:
        report = run_exact(protocol, hyps)
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
        coarse = run_exact(protocol, hyps, prune=0.05)
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
        full = run_exact(protocol, hyps, prune=0.0)
        for h, dist, pruned in zip(full.hypotheses, full.distributions, full.pruned_mass):
            dense = dense_distribution(protocol, h, prune=0.0)
            for t in set(dist) | set(dense):
                assert dist.get(t, 0.0) == pytest.approx(dense.get(t, 0.0), abs=1e-12)
            assert pruned == 0.0


class TestIdentification:
    def test_bell32_identifies_perfectly(self):
        report, classifier = bell32_report()
        verdict = perfect_identification(report, classifier)
        assert verdict.ok and verdict.witness is None
        blind = order_blindness_verdict(report)
        assert blind.ok

    def test_order_blindness_convenience(self):
        protocol, _ = builtin_bell32_variants()
        task = SubsetTask(named_states(["B1", "B2", "B3"]), 2)
        assert order_blindness(protocol, task, (0, 2))

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
        for transcript, subset in classifier.sorted_items():
            assert subset == ((0,) if dict(transcript)["B"] == 1 else (1,))
        assert perfect_identification(report, classifier).ok


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
    def test_built_once_per_process(self):
        first = builtin_bell32_variants((3, 1, 2))
        again = builtin_bell32_variants([1, 2, 3])
        assert first[0] is again[0] and first[1] is again[1]
        assert builtin_bell43()[1] is builtin_bell43()[1]

    def test_shared_classifier_is_read_only(self):
        _, classifier = builtin_bell43()
        with pytest.raises(TypeError):
            classifier.table[(("A", 1),)] = (0, 1, 2)
        copied = classifier.table.copy()
        assert isinstance(copied, dict) and copied == dict(classifier.table)
        for twin in (pickle.loads(pickle.dumps(classifier)), copy.deepcopy(classifier)):
            assert twin is not classifier and dict(twin.table) == copied


def test_format_transcript():
    assert format_transcript(()) == "(empty)"
    assert format_transcript((("A", 3), ("B", 1))) == "A:3 B:1"


def test_classifier_sorted_items_deterministic():
    _, classifier = builtin_bell32_variants()
    items = classifier.sorted_items()
    assert items == sorted(items)
    assert len(items) == 12
