import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dense_reference import partial_trace
from subsetid import (
    Cut,
    Factor,
    Layout,
    StateVector,
    all_bipartitions,
    cut_matrix,
    ghz3_basis,
    ghz4_basis,
    is_maximally_entangled,
    qubit_layout,
    regroup_coefficients,
    schmidt_coefficients,
)
from subsetid.statespace import permute_factors, tensor, with_copy

SQ2 = 1.0 / math.sqrt(2)


def bell_like(*amps):
    return StateVector(qubit_layout("A", "B"), np.array(amps) * SQ2)


class TestLayout:
    def test_factor_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Factor("", 1, 2)
        with pytest.raises(ValueError):
            Factor("A", 0, 2)
        with pytest.raises(ValueError):
            Factor("A", 1, 1)

    def test_duplicate_factor_rejected(self):
        with pytest.raises(ValueError, match="duplicate factor"):
            Layout((Factor("A", 1, 2), Factor("A", 1, 2)))

    def test_party_order_is_first_appearance(self):
        layout = Layout(
            (Factor("B", 1, 2), Factor("A", 1, 3), Factor("B", 2, 2))
        )
        assert layout.parties == ("B", "A")
        assert layout.positions_of("B") == (0, 2)
        assert layout.party_dim("B") == 4
        assert layout.dim == 12

    def test_qubit_layout(self):
        layout = qubit_layout("A", "B", "C")
        assert layout.dims == (2, 2, 2)
        assert all(f.copy == 1 for f in layout.factors)


class TestStateVector:
    def test_norm_checked(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(qubit_layout("A", "B"), [1, 0, 0, 1])

    def test_nan_amplitude_refused(self):
        with pytest.raises(ValueError, match=r"not normalized .*nan"):
            StateVector(qubit_layout("A", "B"), [np.nan, 0, 0, 0])

    def test_length_checked(self):
        with pytest.raises(ValueError, match="length 3"):
            StateVector(qubit_layout("A", "B"), [1, 0, 0])

    def test_amplitudes_read_only(self):
        s = bell_like(1, 0, 0, 1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


def test_tensor_keeps_factor_order():
    b1 = bell_like(1, 0, 0, 1)
    prod = tensor(with_copy(b1, 1), with_copy(b1, 2))
    assert [(f.party, f.copy) for f in prod.layout.factors] == [
        ("A", 1), ("B", 1), ("A", 2), ("B", 2),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        tensor(b1, b1)


def test_permute_factors_convention():
    # new factor i is old factor order[i], exactly numpy transpose
    a = StateVector(Layout((Factor("A", 1, 2),)), [1, 0])
    b = StateVector(Layout((Factor("B", 1, 2),)), [0, 1])
    ab = tensor(a, b)  # |01>
    ba = permute_factors(ab, (1, 0))
    assert ba.layout.factors[0].party == "B"
    assert_allclose(ba.amplitudes, [0, 0, 1, 0])  # |10> in B,A order
    with pytest.raises(ValueError, match="permutation"):
        permute_factors(ab, (0, 0))


def test_regroup_party_major():
    b1 = bell_like(1, 0, 0, 1)
    stacked = tensor(with_copy(b1, 1), with_copy(b1, 2))  # A1 B1 A2 B2
    m = cut_matrix(stacked, Cut.between("A", "B"))
    # rows run over A1 A2, columns over B1 B2: sum_{ij} |ij>_A |ij>_B / 2
    assert_allclose(m, np.eye(4) / 2, atol=1e-15)


class TestReductions:
    def test_bell_reduction_is_maximally_mixed(self):
        m = cut_matrix(bell_like(1, 0, 0, 1), Cut.between("A", "B"))
        assert_allclose(m @ m.conj().T, np.eye(2) / 2, atol=1e-15)

    def test_partial_trace_matches_vector_route(self):
        b3 = bell_like(0, 1, 1, 0)
        rho = np.outer(b3.amplitudes, b3.amplitudes.conj())
        via_rho = partial_trace(rho, b3.layout.dims, keep=[1])
        m = cut_matrix(b3, Cut.between("B", "A"))
        assert_allclose(m @ m.conj().T, via_rho, atol=1e-15)

    def test_keep_must_be_valid(self):
        b1 = bell_like(1, 0, 0, 1)
        with pytest.raises(ValueError, match="bipartition"):
            cut_matrix(b1, Cut.between("A", "C"))
        product = StateVector(qubit_layout("A", "B", "C"), np.eye(8)[0])
        with pytest.raises(ValueError, match="bipartition"):
            cut_matrix(product, Cut.between("A", "B"))


def test_schmidt_and_mes():
    cut = Cut.between("A", "B")
    b2 = bell_like(1, 0, 0, -1)
    assert_allclose(schmidt_coefficients(b2, cut), [SQ2, SQ2])
    assert is_maximally_entangled(b2, cut)
    product = StateVector(qubit_layout("A", "B"), [1, 0, 0, 0])
    assert not is_maximally_entangled(product, cut)


class TestCut:
    def test_sides_must_be_nonempty_and_disjoint(self):
        with pytest.raises(ValueError, match="nonempty"):
            Cut.between("", "B")
        with pytest.raises(ValueError, match="overlap"):
            Cut.between("AB", "B")

    def test_validate_for(self):
        cut = Cut.between("A", "Q")
        with pytest.raises(ValueError, match="unknown \\['Q'\\]"):
            cut.validate_for(qubit_layout("A", "B"))

    def test_label_and_dims(self):
        layout = qubit_layout("A", "B", "C")
        cut = Cut.between("C", "AB")
        assert cut.label(layout) == "C:AB"
        product = StateVector(layout, np.eye(8)[0])
        assert cut_matrix(product, cut).shape == (2, 4)


class TestRegroupCoefficients:
    def setup_method(self):
        self.cut = Cut.between("A", "B")
        self.bells = [
            np.array([1, 0, 0, 1]) * SQ2,
            np.array([1, 0, 0, -1]) * SQ2,
            np.array([0, 1, 1, 0]) * SQ2,
            np.array([0, 1, -1, 0]) * SQ2,
        ]

    def stacked(self, a, b):
        return tensor(with_copy(a, 1), with_copy(b, 2))

    def test_bell_pair_coefficients(self):
        b1 = bell_like(1, 0, 0, 1)
        c = regroup_coefficients(self.stacked(b1, b1), self.cut, self.bells, self.bells)
        # B1 x B1 regroups onto equal-index Bell pairs with weights 1/2
        assert_allclose(np.abs(c) ** 2, np.diag([0.25, 0.25, 0.25, 0.25]), atol=1e-12)

    def test_rejects_non_orthonormal_basis(self):
        b1 = bell_like(1, 0, 0, 1)
        bad = [self.bells[0], self.bells[0], self.bells[2], self.bells[3]]
        with pytest.raises(ValueError, match="not orthonormal"):
            regroup_coefficients(self.stacked(b1, b1), self.cut, bad, self.bells)

    def test_rejects_incomplete_basis(self):
        b1 = bell_like(1, 0, 0, 1)
        with pytest.raises(ValueError, match="captured weight"):
            regroup_coefficients(
                self.stacked(b1, b1), self.cut, self.bells[:2], self.bells
            )


# --- property tests ---

amplitude = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def random_state(draw, layout):
    n = layout.dim
    re = draw(st.lists(amplitude, min_size=n, max_size=n))
    im = draw(st.lists(amplitude, min_size=n, max_size=n))
    v = np.array(re) + 1j * np.array(im)
    if np.linalg.norm(v) < 1e-3:
        v = np.eye(n)[0]
    return StateVector(layout, v / np.linalg.norm(v))


def random_two_qubit_state():
    return random_state(qubit_layout("A", "B"))


@settings(max_examples=60, deadline=None)
@given(random_two_qubit_state())
def test_schmidt_coefficients_carry_the_norm(s):
    coeffs = schmidt_coefficients(s, Cut.between("A", "B"))
    assert np.all(coeffs >= -1e-12)
    assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-9)


@st.composite
def random_three_party_state(draw):
    dims = draw(st.lists(st.integers(2, 3), min_size=3, max_size=3))
    return draw(random_state(Layout(tuple(Factor(p, 1, d) for p, d in zip("ABC", dims)))))


def every_reduction(s):
    """(cut, M M^dagger) for every cut of the layout, both ways round."""
    for cut in all_bipartitions(s.layout.parties):
        for side in (cut, Cut(cut.right, cut.left)):
            m = cut_matrix(s, side)
            yield side, m @ m.conj().T


def check_reductions_are_valid_states(s):
    for _, reduced in every_reduction(s):
        assert_allclose(reduced, reduced.conj().T, atol=1e-12)
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(reduced)[0] >= -1e-12


def check_reductions_against_the_dense_trace(s):
    """M M^dagger on every cut is the partial trace of |s><s| onto the
    left side."""
    rho = np.outer(s.amplitudes, s.amplitudes.conj())
    for side, reduced in every_reduction(s):
        lpos, _ = side.positions(s.layout)
        assert_allclose(reduced, partial_trace(rho, s.layout.dims, lpos), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(random_three_party_state())
def test_reductions_are_valid_states(s):
    check_reductions_are_valid_states(s)


@settings(max_examples=80, deadline=None)
@given(random_three_party_state())
def test_cut_matrix_gives_the_dense_reduction(s):
    check_reductions_against_the_dense_trace(s)


@pytest.mark.parametrize("family", [ghz3_basis, ghz4_basis])
def test_cut_matrix_gives_the_dense_reduction_on_every_member(family):
    for s in family().states:
        check_reductions_are_valid_states(s)
        check_reductions_against_the_dense_trace(s)


@settings(max_examples=40, deadline=None)
@given(random_two_qubit_state(), random_two_qubit_state())
def test_overlap_invariant_under_permutation(a, b):
    pa, pb = permute_factors(a, (1, 0)), permute_factors(b, (1, 0))
    assert np.vdot(pa.amplitudes, pb.amplitudes) == pytest.approx(
        np.vdot(a.amplitudes, b.amplitudes), abs=1e-12
    )
