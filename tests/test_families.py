import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subsetid import (
    Cut,
    bell,
    bell_basis,
    connecting_unitary,
    cut_matrix,
    ges_basis,
    ges_state,
    ghz3,
    ghz3_basis,
    ghz4,
    ghz4_basis,
    is_maximally_entangled,
    named_states,
)
from subsetid.errors import NoConnectingUnitaryError
from subsetid.families import gamma, weyl_unitary
from subsetid.statespace import StateVector, qubit_layout

SQ2 = 1.0 / math.sqrt(2)


@pytest.mark.parametrize(
    "build",
    [bell_basis, ghz3_basis, ghz4_basis, lambda: ges_basis(2), lambda: ges_basis(3), lambda: ges_basis(4)],
    ids=["bell", "ghz3", "ghz4", "ges2", "ges3", "ges4"],
)
def test_families_are_orthonormal(build):
    state_set = build()
    assert_allclose(state_set.gram, np.eye(len(state_set)), atol=1e-12)


def test_bell_amplitudes():
    assert_allclose(bell(1).amplitudes, np.array([1, 0, 0, 1]) * SQ2)
    assert_allclose(bell(2).amplitudes, np.array([1, 0, 0, -1]) * SQ2)
    assert_allclose(bell(3).amplitudes, np.array([0, 1, 1, 0]) * SQ2)
    assert_allclose(bell(4).amplitudes, np.array([0, 1, -1, 0]) * SQ2)
    assert bell_basis().labels == ("B1", "B2", "B3", "B4")


@pytest.mark.parametrize("bad", [0, 5])
def test_bell_index_range(bad):
    with pytest.raises(ValueError):
        bell(bad)


def test_ghz3_pairing_and_signs():
    # state 2p+1 is (|x_p> + |flip x_p>)/sqrt2, state 2p+2 the minus sign
    kets = ["000", "001", "010", "100"]
    for p, x in enumerate(kets):
        i, j = int(x, 2), int(x, 2) ^ 0b111
        plus, minus = ghz3(2 * p + 1), ghz3(2 * p + 2)
        assert plus.amplitudes[i] == pytest.approx(SQ2)
        assert plus.amplitudes[j] == pytest.approx(SQ2)
        assert minus.amplitudes[i] == pytest.approx(SQ2)
        assert minus.amplitudes[j] == pytest.approx(-SQ2)
    assert ghz3_basis().labels[:2] == ("G1", "G2")


def test_ghz4_block_structure():
    f1 = ghz4(1)
    assert_allclose(
        [f1.amplitudes[int(x, 2)] for x in ("0000", "0111", "1010", "1101")],
        [0.5, 0.5, 0.5, 0.5],
    )
    f6 = ghz4(6)  # second block, alternating sign row
    assert_allclose(
        [f6.amplitudes[int(x, 2)] for x in ("0001", "0110", "1011", "1100")],
        [0.5, -0.5, 0.5, -0.5],
    )
    assert np.count_nonzero(np.abs(ghz4(11).amplitudes) > 1e-12) == 4


@pytest.mark.parametrize("alpha", [0, 9])
def test_ghz3_index_range(alpha):
    with pytest.raises(ValueError):
        ghz3(alpha)


def test_ghz3_maximally_entangled_on_every_cut():
    cuts = [Cut.between("A", "BC"), Cut.between("B", "AC"), Cut.between("C", "AB")]
    for s in ghz3_basis().states:
        assert all(is_maximally_entangled(s, cut) for cut in cuts)


def test_ghz4_entanglement_depends_on_the_pairing():
    states = ghz4_basis().states
    for cut in (Cut.between("A", "BCD"), Cut.between("AB", "CD"), Cut.between("AD", "BC")):
        assert all(is_maximally_entangled(s, cut) for s in states)
    crossed = Cut.between("AC", "BD")
    assert sum(is_maximally_entangled(s, crossed) for s in states) == 0


def test_gamma_and_ges_state():
    g3 = gamma(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1.0 / math.sqrt(3)
    assert_allclose(g3.amplitudes, expected)
    assert_allclose(ges_state(0, 0, 3).amplitudes, expected)

    # shifted and phased: amplitude omega^(j b)/sqrt(d) at |(j+a) mod d, j>
    w = np.exp(2j * np.pi / 3)
    s = ges_state(1, 2, 3)
    assert s.amplitudes[3 * 1 + 0] == pytest.approx(1 / math.sqrt(3))
    assert s.amplitudes[3 * 2 + 1] == pytest.approx(w**2 / math.sqrt(3))
    assert s.amplitudes[3 * 0 + 2] == pytest.approx(w**4 / math.sqrt(3))


def test_weyl_unitaries_are_orthogonal():
    d = 3
    ops = [weyl_unitary(a, b, d) for a in range(d) for b in range(d)]
    for i, u in enumerate(ops):
        assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        for j, v in enumerate(ops):
            hs = np.trace(u.conj().T @ v)
            assert abs(hs - (d if i == j else 0)) < 1e-12


def test_ges_basis_2_matches_bell_up_to_phase():
    e = ges_basis(2)
    for i in range(4):
        assert abs(np.vdot(e.states[i].amplitudes, bell(i + 1).amplitudes)) == pytest.approx(1.0)
    assert e.labels == ("E1", "E2", "E3", "E4")
    assert e.name == "ges_basis(2)"


def test_ges_basis_rejects_small_dimension():
    with pytest.raises(ValueError):
        ges_basis(1)


def test_named_states():
    s = named_states(["B2", "B4"])
    assert s.labels == ("B2", "B4")
    assert s.name == "states[B2,B4]"
    with pytest.raises(ValueError, match="unknown state name"):
        named_states(["B1", "Q3"])
    with pytest.raises(ValueError, match="distinct"):
        named_states(["B1", "B1"])
    with pytest.raises(ValueError):
        named_states(["B1", "G1"])  # mixed layouts cannot share a set


class TestConnectingUnitary:
    cut = Cut.between("A", "B")

    def residual(self, src, dst, u):
        return np.linalg.norm(cut_matrix(src, self.cut) @ u.T - cut_matrix(dst, self.cut))

    def test_connects_bell_states(self):
        for i in range(1, 5):
            for j in range(1, 5):
                u = connecting_unitary(bell(i), bell(j), self.cut)
                assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
                assert self.residual(bell(i), bell(j), u) < 1e-12

    def test_requires_equal_left_reductions(self):
        product = StateVector(qubit_layout("A", "B"), [1, 0, 0, 0])
        with pytest.raises(NoConnectingUnitaryError):
            connecting_unitary(product, bell(1), self.cut)
