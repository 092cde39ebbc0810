import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_reference import dense_rho
from subsetid import (
    MixedHypothesis,
    StateSet,
    SubsetTask,
    bell,
    bell_basis,
    enumerate_subsets,
    ghz3_basis,
    hypothesis_ensemble,
    named_states,
    orderings,
    rho_subset,
    stacked_state,
)
from subsetid.errors import ResourceLimitError
from subsetid.statespace import StateVector, qubit_layout


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
    def test_rho_is_the_uniform_ordering_mixture(self):
        task = SubsetTask(bell_basis(), 2)
        h = rho_subset(task, (0, 3))
        manual = sum(
            np.outer(s.amplitudes, s.amplitudes.conj())
            for s in (stacked_state(bell_basis(), o) for o in orderings((0, 3)))
        ) / 2
        assert_allclose(dense_rho(h), manual, atol=1e-12)
        assert h.subset_indices == (0, 3)
        assert len(h.components) == 2

    def test_rho_rank_counts_orderings(self):
        task = SubsetTask(bell_basis(), 2)
        h = rho_subset(task, (1, 2))
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

    def test_stacked_dimension_guard(self):
        with pytest.raises(ResourceLimitError, match="guard"):
            SubsetTask(bell_basis(), 3, max_dim=32)

    def test_subset_membership_checked(self):
        task = SubsetTask(bell_basis(), 2)
        with pytest.raises(ValueError):
            rho_subset(task, (0, 7))


def test_hypothesis_ensemble_alignment():
    task = SubsetTask(named_states(["B1", "B2", "B3"]), 2)
    ensemble = hypothesis_ensemble(task)
    assert [h.subset_indices for h in ensemble] == list(task.subsets)
    for h in ensemble:
        assert len(h.components) == math.factorial(task.k)
        for c, o in zip(h.components, h.orderings):
            assert_allclose(
                c.amplitudes, stacked_state(task.state_set, o).amplitudes
            )


def test_component_orderings_cover_all_permutations():
    task = SubsetTask(bell_basis(), 2)
    h = rho_subset(task, (2, 3))
    assert set(h.orderings) == set(itertools.permutations((2, 3)))
