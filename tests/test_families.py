import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from subsetid import (
    ATOL,
    Cut,
    bell,
    bell_basis,
    connecting_unitary,
    cut_factors,
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
from subsetid.families import _unitarity_bound, weyl_unitary
from subsetid.statespace import Factor, Layout, StateVector, qubit_layout

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
    # member (0, 0) is the canonical state gamma(d) = (1/sqrt(d)) sum_j |jj>
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1.0 / math.sqrt(3)
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
    for d in (-1, 0, 1):
        with pytest.raises(ValueError, match=rf"ges_basis\({d}\) needs a local dimension"):
            ges_basis(d)


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


AB = Cut.between("A", "B")


def connect(src, dst, cut=AB):
    """The connecting unitary from src to dst across ``cut``, from two stacks of one."""
    return connecting_unitary(cut_factors([src], cut), cut_factors([dst], cut))[0, 0]


class TestConnectingUnitary:
    def residual(self, src, dst, u):
        return np.linalg.norm(cut_matrix(src, AB) @ u.T - cut_matrix(dst, AB))

    def test_connects_bell_states(self):
        for i in range(1, 5):
            for j in range(1, 5):
                u = connect(bell(i), bell(j))
                assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
                assert self.residual(bell(i), bell(j), u) < 1e-12

    def test_requires_equal_left_reductions(self):
        product = StateVector(qubit_layout("A", "B"), [1, 0, 0, 0])
        with pytest.raises(NoConnectingUnitaryError):
            connect(product, bell(1))


def _two_party_state(m) -> StateVector:
    """The state with amplitude matrix m across A:B, A of dimension rows, B columns."""
    dl, dr = m.shape
    return StateVector(Layout((Factor("A", 1, dl), Factor("B", 1, dr))), m.reshape(-1))


def _schmidt_state(eps, right=(0, 1, 2)) -> StateVector:
    """A 3x3 state with Schmidt coefficients (sqrt(1/2), sqrt(1/2 - eps^2), eps),
    the i-th paired with right ket right[i]."""
    m = np.zeros((3, 3), dtype=np.complex128)
    for i, c in enumerate((math.sqrt(0.5), math.sqrt(0.5 - eps * eps), eps)):
        m[i, right[i]] = c
    return _two_party_state(m)


class TestNearTolerance:
    """Left reductions that agree within ATOL while the Schmidt coefficients do not."""

    @pytest.mark.parametrize("shared", [False, True], ids=["states", "factors"])
    @pytest.mark.parametrize(
        "src_eps, dst_eps, ranks",
        [(3e-5, 1e-5, None), (2e-9, 5e-10, "Schmidt ranks 3 and 2")],
        ids=["both-above-tol", "ranks-straddle-tol"],
    )
    def test_raises_the_typed_error_with_its_defect(self, src_eps, dst_eps, ranks, shared):
        src, dst = _schmidt_state(src_eps), _schmidt_state(dst_eps, right=(2, 0, 1))
        m_src, m_dst = cut_matrix(src, AB), cut_matrix(dst, AB)
        assert np.max(np.abs(m_src @ m_src.conj().T - m_dst @ m_dst.conj().T)) <= ATOL
        src, dst = cut_factors([src], AB), cut_factors([dst], AB)
        if shared:
            # records that have already joined another pair give the same verdict
            for record in (src, dst):
                assert_allclose(connecting_unitary(record, record)[0, 0], np.eye(3), atol=1e-9)
        with pytest.raises(NoConnectingUnitaryError, match=r"max\|U\^dagger U - I\| = \d") as info:
            connecting_unitary(src, dst)
        assert ("Schmidt ranks" in str(info.value)) == (ranks is not None)
        if ranks:
            assert ranks in str(info.value)

    def test_a_tiny_kept_coefficient_still_connects(self):
        # Schmidt coefficients (1, 5e-9) on 2x3: the pseudo-inverse amplifies
        # the rotated state's rounding to a defect near 1e-8, past a fixed
        # 1e-9 bound, though a unitary does connect the pair
        rng = np.random.default_rng(0)
        q, v, w = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                   for n in (3, 3, 2))
        m = w @ np.diag([math.sqrt(1 - 25e-18), 5e-9]) @ v[:2, :]
        src, dst = _two_party_state(m), _two_party_state(m @ q.T)
        u = connect(src, dst)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(3)))
        bound = _unitarity_bound(cut_factors([src], AB))[0]
        assert 1e-9 < defect <= bound < 1e-5
        assert np.linalg.norm(cut_matrix(src, AB) @ u.T - cut_matrix(dst, AB)) <= bound

    @pytest.mark.parametrize("src_eps, dst_eps", [(1e-12, 1e-12), (5e-10, 2e-9)])
    def test_coefficients_at_or_below_tol_count_as_zero(self, src_eps, dst_eps):
        src, dst = _schmidt_state(src_eps), _schmidt_state(dst_eps, right=(2, 0, 1))
        u = connect(src, dst)
        assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
        residual = np.linalg.norm(cut_matrix(src, AB) @ u.T - cut_matrix(dst, AB))
        assert residual <= src_eps + dst_eps


@pytest.mark.parametrize(
    "src, dst",
    [
        (cut_factors([ghz3(1)], Cut.between("A", "BC")), cut_factors([ghz3(2)], Cut.between("B", "AC"))),
        (cut_factors([bell(1)], AB), cut_factors([ges_state(0, 0, 3)], AB)),
    ],
    ids=["cut", "layout"],
)
def test_refuses_records_of_another_cut_or_layout(src, dst):
    with pytest.raises(ValueError, match="records of one layout and cut"):
        connecting_unitary(src, dst)


def test_the_crossed_cut_has_no_connecting_unitary():
    states = ghz4_basis().states
    with pytest.raises(NoConnectingUnitaryError, match="across AC:BD"):
        connect(states[0], states[2], Cut.between("AC", "BD"))


@st.composite
def rotated_pairs(draw):
    """A random 2x3 or 3x3 state and the same state under a random unitary on B.

    The unitary is the Q of a drawn matrix's QR. One row of the state may be
    scaled by a log-uniform factor down to 1e-12 before a Fourier matrix on A
    mixes the rows, so Schmidt coefficients run over the whole range around
    tol, 1e-10..1e-6 included, where the rounding of the rotated state is
    amplified by one over the smallest kept coefficient.
    """
    dl = draw(st.sampled_from([2, 3]))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    x = np.array(draw(st.lists(parts, min_size=6 * dl, max_size=6 * dl)))
    m = (x[: 3 * dl] + 1j * x[3 * dl :]).reshape(dl, 3)
    m[-1] *= draw(st.sampled_from([1.0]) | st.floats(-12, -5).map(lambda e: 10.0 ** e))
    m = np.fft.fft(np.eye(dl)) @ m  # mixes the small row into every row
    norm = np.linalg.norm(m)
    assume(norm > 0.1)
    m = m / norm
    y = np.array(draw(st.lists(parts, min_size=18, max_size=18)))
    q, _ = np.linalg.qr((y[:9] + 1j * y[9:]).reshape(3, 3))
    return _two_party_state(m), _two_party_state(m @ q.T)


@settings(max_examples=100, deadline=None)
@given(rotated_pairs())
def test_connects_a_rotated_pair(pair):
    src, dst = pair
    u = connect(src, dst)
    # unitary up to the rounding the pseudo-inverse amplifies; off by at
    # most the coefficients that count as zero, in both states, and that
    bound = _unitarity_bound(cut_factors([src], AB))[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= bound
    s = np.linalg.svd(cut_matrix(src, AB), compute_uv=False)
    dropped = 2 * np.linalg.norm(s[s <= ATOL])
    residual = np.linalg.norm(cut_matrix(src, AB) @ u.T - cut_matrix(dst, AB))
    assert residual <= dropped + bound


def test_a_stacked_call_names_the_first_failing_pair():
    crossed = cut_factors(ghz4_basis().states, Cut.between("AC", "BD"))
    with pytest.raises(NoConnectingUnitaryError, match="across AC:BD from member 0 to member 2;"):
        connecting_unitary(crossed, crossed)


@pytest.mark.parametrize("states", [(), (bell(1), ges_state(0, 0, 3))], ids=["empty", "layouts"])
def test_cut_factors_refuses_an_empty_or_mixed_stack(states):
    with pytest.raises(ValueError, match="one or more states of one layout"):
        cut_factors(states, AB)


def test_a_stack_of_one_connects_to_a_four_axis_array():
    record = cut_factors([bell(1)], AB)
    assert record.rank.shape == (1,) and record.matrix.shape == (1, 2, 2)
    assert connecting_unitary(record, cut_factors([bell(2), bell(3)], AB)).shape == (1, 2, 2, 2)


@st.composite
def member_stacks(draw):
    """Two stacks of states of one layout, each of one to three members.

    Either rotated_pairs' two states and two more rotations of the first,
    which connect up to the coefficients at or below ATOL, or 3x3 states
    with Schmidt coefficients (sqrt(1/2), sqrt(1/2 - eps^2), eps), eps on
    either side of ATOL, whose ranks straddle it; their reductions agree
    within ATOL, and they connect or not by their ranks and coefficients.
    """
    if draw(st.booleans()):
        src, dst = draw(rotated_pairs())
        pool = [src, dst]
        parts = st.floats(-1.0, 1.0, allow_nan=False)
        for _ in range(2):
            y = np.array(draw(st.lists(parts, min_size=18, max_size=18)))
            q, _ = np.linalg.qr((y[:9] + 1j * y[9:]).reshape(3, 3))
            pool.append(_two_party_state(cut_matrix(src, AB) @ q.T))
    else:
        members = st.tuples(st.sampled_from([1e-12, 5e-10, 2e-9, 1e-5, 3e-5]), st.permutations([0, 1, 2]))
        pool = [_schmidt_state(eps, right) for eps, right in draw(st.lists(members, min_size=1, max_size=4))]
    picks = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return draw(picks), draw(picks)


@settings(max_examples=100, deadline=None)
@given(member_stacks())
def test_stacked_pairs_match_single_pairs(stacks):
    singles = [[cut_factors([s], AB) for s in states] for states in stacks]
    src, dst = (cut_factors(states, AB) for states in stacks)
    expected = np.empty((len(singles[0]), len(singles[1]), 3, 3), dtype=np.complex128)
    first = None
    for i, a in enumerate(singles[0]):
        for j, b in enumerate(singles[1]):
            try:
                expected[i, j] = connecting_unitary(a, b)[0, 0]
            except NoConnectingUnitaryError as e:
                first = first or (i, j, e)
    if first is None:
        assert np.array_equal(connecting_unitary(src, dst), expected)
        assert np.array_equal(connecting_unitary(singles[0][0], dst), expected[:1])
    else:
        i, j, error = first
        with pytest.raises(type(error)) as info:
            connecting_unitary(src, dst)
        pair = f"from member {i} to member {j}"
        assert str(info.value) == str(error).replace("from member 0 to member 0", pair)
