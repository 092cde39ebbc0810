import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dense_reference import dense_rho
from subsetid import (
    MixedHypothesis,
    StateSet,
    SubsetTask,
    bell,
    bell_basis,
    enumerate_subsets,
    ges_basis,
    ghz3_basis,
    hypothesis_ensemble,
    named_states,
    orderings,
)
from subsetid.errors import ResourceLimitError
from subsetid.statespace import Factor, Layout, StateVector, qubit_layout
from subsetid.subsets import _copy_permutations, stacked_rows, stacked_state


def test_enumerate_subsets_order():
    assert enumerate_subsets(4, 2) == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    )
    assert enumerate_subsets(3, 1) == ((0,), (1,), (2,))
    with pytest.raises(ValueError):
        enumerate_subsets(3, 3)
    with pytest.raises(ValueError):
        enumerate_subsets(3, 0)


def test_orderings():
    assert orderings((2, 0)) == ((0, 2), (2, 0))
    assert len(orderings((0, 1, 2))) == 6


class TestStateSet:
    def test_default_labels(self):
        s = StateSet(tuple(bell(i) for i in (1, 2)))
        assert s.labels == ("S1", "S2")
        assert s.subset_label((1, 0)) == "S2+S1"

    def test_rejects_mixed_layouts(self):
        with pytest.raises(ValueError):
            StateSet((bell(1), ghz3_basis().states[0]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="labels"):
            StateSet((bell(1), bell(2)), labels=("X", "X"))

    def test_rejects_non_orthonormal(self):
        product = StateVector(qubit_layout("A", "B"), [1, 0, 0, 0])
        tilted = StateVector(qubit_layout("A", "B"), np.array([1, 1, 0, 0]) / math.sqrt(2))
        with pytest.raises(ValueError, match="orthonormal"):
            StateSet((product, tilted))
        # escape hatch for deliberately broken sets
        s = StateSet((product, tilted), require_orthonormal=False)
        assert not s.is_orthonormal()

    def test_amplitudes_stack_the_members(self):
        s = bell_basis()
        assert s.amplitudes.shape == (4, 4)
        assert not s.amplitudes.flags.writeable
        for row, state in zip(s.amplitudes, s.states):
            assert np.array_equal(row, state.amplitudes)

    def test_rejects_multi_factor_parties(self):
        two_copies = stacked_state(bell_basis(), (0, 1))
        with pytest.raises(ValueError, match="one factor"):
            StateSet((two_copies,))


def test_stacked_state_is_party_major():
    s = stacked_state(bell_basis(), (0, 2))
    assert [(f.party, f.copy) for f in s.layout.factors] == [
        ("A", 1), ("A", 2), ("B", 1), ("B", 2),
    ]
    # manual reference: kron in copy order, then swap the middle factors
    ref = np.kron(bell(1).amplitudes, bell(3).amplitudes).reshape(2, 2, 2, 2)
    ref = ref.transpose(0, 2, 1, 3).reshape(-1)
    assert_allclose(s.amplitudes, ref, atol=1e-15)


def test_stacked_state_rejects_repeats():
    with pytest.raises(ValueError):
        stacked_state(bell_basis(), (1, 1))


class TestMixedHypothesis:
    def test_components_are_built_on_access(self):
        h = MixedHypothesis((0, 3), bell_basis())
        first = h.components
        assert first.shape == (2, 16) and first.dtype == np.complex128
        assert not first.flags.writeable
        # nothing is cached on the hypothesis: each read builds a new array
        assert h.components is not first
        assert np.array_equal(h.components, first)

    @pytest.mark.parametrize("subset", [(), (3, 0), (1, 1), (0, 4), (-1, 2)])
    def test_subset_must_be_sorted_members(self, subset):
        with pytest.raises(ValueError, match="subset"):
            MixedHypothesis(subset, bell_basis())

    def test_rho_is_the_uniform_ordering_mixture(self):
        task = SubsetTask(bell_basis(), 2)
        h = MixedHypothesis((0, 3), task.state_set)
        manual = sum(
            np.outer(s.amplitudes, s.amplitudes.conj())
            for s in (stacked_state(bell_basis(), o) for o in orderings((0, 3)))
        ) / 2
        assert_allclose(dense_rho(h), manual, atol=1e-12)
        assert h.subset_indices == (0, 3)
        assert len(h.components) == 2

    def test_rho_rank_counts_orderings(self):
        task = SubsetTask(bell_basis(), 2)
        h = MixedHypothesis((1, 2), task.state_set)
        assert np.linalg.matrix_rank(dense_rho(h), tol=1e-9) == 2


class TestSubsetTask:
    def test_dimensions(self):
        task = SubsetTask(bell_basis(), 3)
        assert task.n == 4
        assert task.stacked_dim == 64
        assert len(task.subsets) == 4

    def test_k_range(self):
        with pytest.raises(ValueError):
            SubsetTask(bell_basis(), 0)
        with pytest.raises(ValueError):
            SubsetTask(bell_basis(), 4)
        # Python counts True as 1, but a flag is not a subset size
        with pytest.raises(ValueError, match="must be an integer"):
            SubsetTask(bell_basis(), True)

    def test_stacked_dimension_guard(self):
        with pytest.raises(ResourceLimitError, match="guard"):
            SubsetTask(bell_basis(), 3, max_dim=32)

    def test_subset_membership_checked(self):
        task = SubsetTask(bell_basis(), 2)
        with pytest.raises(ValueError):
            MixedHypothesis((0, 7), task.state_set)


def test_hypothesis_ensemble_alignment():
    task = SubsetTask(named_states(["B1", "B2", "B3"]), 2)
    ensemble = hypothesis_ensemble(task)
    assert [h.subset_indices for h in ensemble] == list(task.subsets)
    for h in ensemble:
        assert len(h.components) == math.factorial(task.k)
        for row, o in zip(h.components, h.orderings):
            assert_allclose(row, stacked_state(task.state_set, o).amplitudes)


@st.composite
def random_sets(draw):
    """A random set on two or three parties of local dimension 2 or 3, with
    orthonormal members or deliberately overlapping ones, and a subset size
    k from 1 to 3 below the set's size."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    dim = math.prod(dims)
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, min(dim, k + 2)))
    orthonormal = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    rows = np.linalg.qr(z.T)[0].T if orthonormal else z / np.linalg.norm(z, axis=1)[:, None]
    layout = Layout(tuple(Factor(p, 1, d) for p, d in zip("ABC", dims)))
    members = tuple(StateVector(layout, row) for row in rows)
    return StateSet(members, require_orthonormal=orthonormal), k


@settings(max_examples=60, deadline=None)
@given(random_sets())
def test_components_are_the_stacked_states(case):
    # the broadcast rows against the Kronecker route, ordering by ordering
    state_set, k = case
    for h in hypothesis_ensemble(SubsetTask(state_set, k)):
        rows = h.components
        assert rows.shape == (math.factorial(k), state_set.layout.dim ** k)
        assert h.layout == stacked_state(state_set, h.orderings[0]).layout
        for row, o in zip(rows, h.orderings):
            assert_allclose(row, stacked_state(state_set, o).amplitudes, rtol=0, atol=1e-15)
        # the sorted ordering multiplies its members in copy order, as the
        # Kronecker route does, so its row carries the same bits
        assert np.array_equal(rows[0], stacked_state(state_set, h.orderings[0]).amplitudes)


def _random_set(dims, n, seed):
    """n orthonormal members on parties A, B, C... of the given dimensions."""
    rng = np.random.default_rng(seed)
    dim = math.prod(dims)
    z = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
    layout = Layout(tuple(Factor(p, 1, d) for p, d in zip("ABC", dims)))
    return StateSet(tuple(StateVector(layout, row) for row in np.linalg.qr(z)[0].T))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_three_parties_of_unequal_dimension(k):
    # dims (2, 3, 2): each party's block of k copies is (d,)*k, so a wrong
    # axis order in the copy permutation cannot hide behind equal sizes
    state_set = _random_set((2, 3, 2), 5, seed=k)
    for h in hypothesis_ensemble(SubsetTask(state_set, k)):
        rows = h.components
        assert rows.shape == (math.factorial(k), 12 ** k)
        for row, o in zip(rows, h.orderings):
            assert_allclose(row, stacked_state(state_set, o).amplitudes, rtol=0, atol=1e-15)


def test_one_copy_is_the_member_itself():
    # k=1 has the identity as its only permutation
    state_set = _random_set((2, 3, 2), 4, seed=7)
    assert _copy_permutations((2, 3, 2), 1).tolist() == [list(range(12))]
    rows = stacked_rows(state_set, [(2,), (0,), (3,)])
    assert np.array_equal(rows, state_set.amplitudes[[2, 0, 3]])


def test_copy_permutations_are_cached_read_only_gathers():
    perms = _copy_permutations((2, 2), 3)
    assert _copy_permutations((2, 2), 3) is perms
    assert not perms.flags.writeable
    assert perms.dtype == np.uint8 and perms.shape == (6, 64)
    # each row is a permutation of the coordinates; the sorted ordering's
    # only turns copy-major into party-major
    party_major = np.arange(64).reshape((2, 2) * 3).transpose(0, 2, 4, 1, 3, 5)
    assert perms[0].tolist() == party_major.reshape(-1).tolist()
    assert all(sorted(row) == list(range(64)) for row in perms.tolist())
    assert _copy_permutations((4, 4), 3).dtype == np.uint16


@pytest.mark.parametrize("family,k", [("ges3", 2), ("ghz3", 3), ("bell", 1)])
def test_a_chunk_has_the_bits_of_its_hypotheses(family, k):
    # run_exact builds the rows of consecutive hypotheses at once; each
    # hypothesis's block must be its components, bit for bit
    state_set = {"ges3": lambda: ges_basis(3), "ghz3": ghz3_basis, "bell": bell_basis}[family]()
    hypotheses = hypothesis_ensemble(SubsetTask(state_set, k))
    rows = stacked_rows(state_set, [h.subset_indices for h in hypotheses])
    blocks = np.split(rows, len(hypotheses))
    for h, block in zip(hypotheses, blocks):
        assert np.array_equal(block, h.components)


def test_component_orderings_cover_all_permutations():
    task = SubsetTask(bell_basis(), 2)
    h = MixedHypothesis((2, 3), task.state_set)
    assert set(h.orderings) == set(itertools.permutations((2, 3)))
