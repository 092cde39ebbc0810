"""Generators for the built-in state families.

Four families are provided, each an orthonormal basis of its space:

* the four Bell states on qubits A, B;
* the generalized orthonormal basis of maximally entangled states on two
  d-level systems, obtained by acting with the Weyl shift/phase unitaries
  on the canonical state (1/sqrt(d)) sum_j |jj>;
* the eight three-qubit GHZ-type states (|x> +- |x-bar>)/sqrt(2) on A, B, C;
* a sixteen-element four-qubit basis on A, B, C, D whose members have
  amplitudes +-1/2 on four computational kets each.

Members of one family are related by one-sided unitaries across the cuts on
which they are maximally entangled; :func:`connecting_unitary` computes such
a unitary explicitly from two :class:`CutFactors` records. A record holds
one member's work on one cut (cut matrix, reduction, pseudo-inverse, SVD and
kernel complement), made once by :func:`cut_factors`, so a member that joins
many pairs on that cut is factored once, not once per pair. Schmidt
coefficients at or below ``ATOL`` count as zero throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConnectingUnitaryError
from .statespace import ATOL, Cut, Factor, Layout, StateVector, cut_matrix, qubit_layout
from .subsets import StateSet

_BELL_KETS = ((0, 3, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 2, -1.0))

_GHZ3_PAIRS = (("000", "111"), ("001", "110"), ("010", "101"), ("100", "011"))

_GHZ4_BLOCKS = (
    ("0000", "0111", "1010", "1101"),
    ("0001", "0110", "1011", "1100"),
    ("0010", "0101", "1000", "1111"),
    ("0011", "0100", "1001", "1110"),
)
_GHZ4_SIGNS = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def bell(i: int) -> StateVector:
    """Bell state i of 1..4: (|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2)."""
    if not 1 <= i <= 4:
        raise ValueError(f"Bell index must be 1..4, got {i}")
    a, b, sign = _BELL_KETS[i - 1]
    amps = np.zeros(4, dtype=np.complex128)
    amps[a] = 1.0 / math.sqrt(2)
    amps[b] = sign / math.sqrt(2)
    return StateVector(qubit_layout("A", "B"), amps)


def gamma(d: int) -> StateVector:
    """The canonical maximally entangled state (1/sqrt(d)) sum_j |jj>."""
    return ges_state(0, 0, d)


def weyl_unitary(a: int, b: int, d: int) -> np.ndarray:
    """The unitary X^a Z^b with X|j> = |j+1 mod d> and Z|j> = w^j |j>, w = exp(2*pi*i/d).

    The d*d of them are pairwise Hilbert-Schmidt orthogonal:
    tr(U_ab^dagger U_a'b') = d only when (a, b) = (a', b').
    """
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"shift/phase powers must lie in 0..{d - 1}, got ({a}, {b})")
    omega = np.exp(2j * np.pi / d)
    u = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        u[(j + a) % d, j] = omega ** (j * b)
    return u


def ges_state(a: int, b: int, d: int) -> StateVector:
    """(U_ab tensor I) applied to gamma(d); member (a, b) of the d^2-element basis.

    The amplitude of |x j> is U_ab[x, j] / sqrt(d).
    """
    amps = weyl_unitary(a, b, d).reshape(-1) / math.sqrt(d)
    return StateVector(Layout((Factor("A", 1, d), Factor("B", 1, d))), amps)


def ghz3(alpha: int) -> StateVector:
    """Three-qubit GHZ-family member alpha of 1..8 on parties A, B, C.

    Members pair up over the four ket pairs (000,111), (001,110), (010,101),
    (100,011); odd alpha takes the + sign, even alpha the - sign.
    """
    if not 1 <= alpha <= 8:
        raise ValueError(f"three-qubit family index must be 1..8, got {alpha}")
    hi, lo = _GHZ3_PAIRS[(alpha - 1) // 2]
    sign = 1.0 if alpha % 2 == 1 else -1.0
    amps = np.zeros(8, dtype=np.complex128)
    amps[int(hi, 2)] = 1.0 / math.sqrt(2)
    amps[int(lo, 2)] = sign / math.sqrt(2)
    return StateVector(qubit_layout("A", "B", "C"), amps)


def ghz4(alpha: int) -> StateVector:
    """Four-qubit family member alpha of 1..16 on parties A, B, C, D.

    Index arithmetic: alpha-1 = 4*block + pattern, where block picks one of
    the four ket quadruples and pattern one of the four sign rows
    (++++, +-+-, ++--, +--+). Every member has amplitudes +-1/2.
    """
    if not 1 <= alpha <= 16:
        raise ValueError(f"four-qubit family index must be 1..16, got {alpha}")
    block = _GHZ4_BLOCKS[(alpha - 1) // 4]
    signs = _GHZ4_SIGNS[(alpha - 1) % 4]
    amps = np.zeros(16, dtype=np.complex128)
    for ket, sign in zip(block, signs):
        amps[int(ket, 2)] = sign / 2.0
    return StateVector(qubit_layout("A", "B", "C", "D"), amps)


def bell_basis() -> StateSet:
    """The four Bell states as a StateSet named bell_basis(2)."""
    return StateSet(
        tuple(bell(i) for i in range(1, 5)),
        name="bell_basis(2)",
        labels=tuple(f"B{i}" for i in range(1, 5)),
    )


def ges_basis(d: int) -> StateSet:
    """All d^2 maximally entangled basis states, labeled E1..E{d^2} in (a, b) order."""
    states = tuple(ges_state(a, b, d) for a in range(d) for b in range(d))
    return StateSet(
        states,
        name=f"ges_basis({d})",
        labels=tuple(f"E{i}" for i in range(1, d * d + 1)),
    )


def ghz3_basis() -> StateSet:
    return StateSet(
        tuple(ghz3(a) for a in range(1, 9)),
        name="ghz3_basis",
        labels=tuple(f"G{a}" for a in range(1, 9)),
    )


def ghz4_basis() -> StateSet:
    return StateSet(
        tuple(ghz4(a) for a in range(1, 17)),
        name="ghz4_basis",
        labels=tuple(f"F{a}" for a in range(1, 17)),
    )


def _named_state_registry() -> dict[str, StateVector]:
    reg: dict[str, StateVector] = {}
    for i in range(1, 5):
        reg[f"B{i}"] = bell(i)
    for a in range(1, 9):
        reg[f"G{a}"] = ghz3(a)
    for a in range(1, 17):
        reg[f"F{a}"] = ghz4(a)
    return reg


#: individually addressable states: B1..B4, G1..G8, F1..F16
NAMED_STATES = _named_state_registry()


def named_states(names) -> StateSet:
    """A StateSet assembled from registry names, e.g. ["B1", "B2", "B3"].

    All names must come from the same family so the layouts agree.
    """
    names = tuple(names)
    unknown = [n for n in names if n not in NAMED_STATES]
    if unknown:
        raise ValueError(
            f"unknown state name(s) {unknown}; valid names are B1..B4, G1..G8, F1..F16"
        )
    if len(set(names)) != len(names):
        raise ValueError("state names must be distinct")
    states = tuple(NAMED_STATES[n] for n in names)
    return StateSet(states, name="states[" + ",".join(names) + "]", labels=names)


def _orthonormal_complement(columns: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of the given orthonormal columns."""
    r = columns.shape[1]
    if r == dim:
        return np.zeros((dim, 0), dtype=np.complex128)
    q, _ = np.linalg.qr(np.hstack([columns, np.eye(dim, dtype=np.complex128)]))
    return q[:, r:dim]


@dataclass(frozen=True, eq=False)
class CutFactors:
    """One state's factoring across one cut, shared by every pair it joins.

    ``matrix`` is the cut matrix M, ``reduction`` the left reduction M M^dagger,
    ``pinv`` the pseudo-inverse of M^T, ``left`` the left singular vectors of
    M^T, ``singular`` its singular values (the Schmidt coefficients, largest
    first), ``rank`` the number of them above ``ATOL`` and ``perp`` an
    orthonormal basis of the complement of the first ``rank`` of them. The
    layout and cut it was made for are kept, so :func:`connecting_unitary`
    reads the cut from the records and never mixes records of two cuts.
    """

    layout: Layout
    cut: Cut
    matrix: np.ndarray
    reduction: np.ndarray
    pinv: np.ndarray
    left: np.ndarray
    singular: np.ndarray
    rank: int
    perp: np.ndarray


def cut_factors(state: StateVector, cut: Cut) -> CutFactors:
    """Factor ``state`` across ``cut`` once, for any number of connecting_unitary calls.

    Schmidt coefficients at or below ``ATOL`` count as zero, in the
    pseudo-inverse as in the rank.
    """
    m = cut_matrix(state, cut)
    a = m.T
    left, s, _ = np.linalg.svd(a)
    rank = int(np.sum(s > ATOL))
    return CutFactors(
        layout=state.layout,
        cut=cut,
        matrix=m,
        reduction=m @ m.conj().T,
        # drops the coefficients at or below ATOL, as the rank does, so no
        # direction is both inverted and completed on the kernel
        pinv=np.linalg.pinv(a, rcond=ATOL / s[0]),
        left=left,
        singular=s,
        rank=rank,
        perp=_orthonormal_complement(left[:, :rank], a.shape[0]),
    )


def _unitarity_bound(src: CutFactors) -> float:
    """How far from unitary a connecting U may come out by rounding alone.

    U is built through the pseudo-inverse of the source, which amplifies the
    rounding of both states, about machine epsilon per entry, by the
    condition number of the kept Schmidt coefficients. The first-order
    estimate is eps * dim * sigma_max / sigma_min, with dim the right side's
    dimension; its constant is not known, and on 100,000 random 2x3 and 3x3
    pairs the defect reached 15.5 times it, so the bound is 64 times the
    estimate, and never less than 1e-9. It admits Schmidt coefficients that
    differ by rounding only, about 64 * dim * eps, however small they are.
    """
    kept = src.singular[: src.rank]
    if not len(kept):
        return 1e-9
    return max(1e-9, 64 * np.finfo(float).eps * len(src.left) * float(kept[0] / kept[-1]))


def connecting_unitary(src: CutFactors, dst: CutFactors) -> np.ndarray:
    """A unitary U on the right side of the records' cut with (I tensor U) src = dst.

    Both arguments are :func:`cut_factors` records of one layout and one cut;
    records that differ in either raise ValueError. Such a U exists exactly
    when the two states have equal reduced operators on the left side; that
    is checked first, and a NoConnectingUnitaryError names the offending
    deviation otherwise. U is not unique whenever the Schmidt rank is below
    the right-side dimension; the returned representative maps the source's
    right support onto the destination's and is completed on the kernel by
    orthonormalizing standard basis vectors, so it is deterministic.

    Schmidt coefficients at or below ``ATOL`` count as zero, so U connects
    the states up to them. Reductions that agree within ``ATOL`` do not
    guarantee a unitary: Schmidt coefficients too small to show in the
    reduction may still differ, or fall on opposite sides of ``ATOL``. When
    the completed U is not unitary to within :func:`_unitarity_bound`, a
    NoConnectingUnitaryError names the defect max|U^dagger U - I|, and both
    Schmidt ranks when they differ.
    """
    if src.layout != dst.layout or src.cut != dst.cut:
        raise ValueError(
            f"connecting_unitary needs records of one layout and cut, got "
            f"{src.cut.label(src.layout)} and {dst.cut.label(dst.layout)}"
        )
    label = src.cut.label(src.layout)
    deviation = float(np.max(np.abs(src.reduction - dst.reduction)))
    if deviation > ATOL:
        raise NoConnectingUnitaryError(
            "left-side reduced operators differ by "
            f"{deviation:.3e} across {label}; no one-sided "
            "unitary on the right can connect these states"
        )
    # the completion pairs both kernels at the source's rank, so a rank
    # mismatch needs the destination's complement taken at that rank
    dst_perp = dst.perp
    if dst.rank != src.rank:
        dst_perp = _orthonormal_complement(dst.left[:, : src.rank], dst.left.shape[0])
    u = dst.matrix.T @ src.pinv + dst_perp @ src.perp.conj().T
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > _unitarity_bound(src):
        ranks = f"; Schmidt ranks {src.rank} and {dst.rank}" if src.rank != dst.rank else ""
        raise NoConnectingUnitaryError(
            f"kernel completion across {label} is not unitary "
            f"(max|U^dagger U - I| = {defect:.3e}{ranks}): the left reductions "
            f"agree within {ATOL:g} but the Schmidt coefficients do not"
        )
    return u
