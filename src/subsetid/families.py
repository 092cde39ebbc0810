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
unitaries explicitly from two :class:`CutFactors` records. A record holds
the work on one cut (cut matrix, reduction, pseudo-inverse, SVD and kernel
complement) for a stack of states of one layout on a leading member axis,
made once by :func:`cut_factors`, so a member that joins many pairs on that
cut is factored once, not once per pair. Every record is a stack, one state
being the stack of one; two records connect every ordered member pair in
one call, and a pair that cannot be connected is named by its member
indices. Schmidt coefficients at or below ``ATOL`` count as zero
throughout.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NoConnectingUnitaryError, ResourceLimitError
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
    """(U_ab tensor I) applied to (1/sqrt(d)) sum_j |jj>; member (a, b) of the
    d^2-element basis, and (0, 0) is that canonical state itself.

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


def check_ges_size(d: int, max_dim: int) -> None:
    """Refuse ges_basis(d) before any member is built when its d^2 members
    of d^2 amplitudes, d**4 in all, exceed ``max_dim``. Every task on the set
    with k >= 2 copies stacks at least that many amplitudes. A d below 2
    builds nothing: :func:`ges_basis` refuses it."""
    if d >= 2 and d ** 4 > max_dim:
        raise ResourceLimitError(
            f"ges_basis({d}) holds {d}**4 = {d ** 4} amplitudes, above the guard of {max_dim}"
        )


def ges_basis(d: int) -> StateSet:
    """All d^2 maximally entangled basis states, labeled E1..E{d^2} in (a, b) order."""
    if d < 2:
        raise ValueError(f"ges_basis({d}) needs a local dimension of at least 2")
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


def _orthonormal_complement(columns: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the complements of stacked orthonormal columns.

    ``columns`` has shape (..., dim, r) and the result (..., dim, dim - r):
    standard basis vectors orthonormalized against the columns, one QR for
    the whole stack.
    """
    *lead, dim, r = columns.shape
    eye = np.broadcast_to(np.eye(dim, dtype=np.complex128), (*lead, dim, dim))
    q, _ = np.linalg.qr(np.concatenate([columns, eye], axis=-1))
    return q[..., r:dim]


@dataclass(frozen=True, eq=False)
class CutFactors:
    """The factoring of a stack of n states of one layout across one cut.

    Every array carries a leading member axis of length n. ``matrix`` holds
    the cut matrices M, ``reduction`` the left reductions M M^dagger,
    ``pinv`` the pseudo-inverses of M^T, ``left`` the left singular vectors
    of M^T, ``singular`` its singular values (the Schmidt coefficients,
    largest first), ``rank`` (an integer array of shape (n,)) the number of
    them above ``ATOL``, and ``perp`` orthonormal bases of the complements
    of the first ``rank`` of them, as many columns as the member of lowest
    rank needs, member i's complement filling its first ``dim - rank[i]``
    and zeros the rest. The layout and cut it was made for are kept, so
    :func:`connecting_unitary` reads the cut from the records and never
    mixes records of two cuts.
    """

    layout: Layout
    cut: Cut
    matrix: np.ndarray
    reduction: np.ndarray
    pinv: np.ndarray
    left: np.ndarray
    singular: np.ndarray
    rank: np.ndarray
    perp: np.ndarray


def cut_factors(states: Sequence[StateVector], cut: Cut) -> CutFactors:
    """Factor a stack of states of one layout across ``cut`` once, for any
    number of connecting_unitary calls.

    Member i of the record comes from states[i]; one state is passed as a
    stack of one. The whole stack takes one SVD, one pseudo-inverse and one
    QR per distinct Schmidt rank. Schmidt coefficients at or below ``ATOL``
    count as zero, in the pseudo-inverse as in the rank.
    """
    states = tuple(states)
    if not states or any(s.layout != states[0].layout for s in states):
        raise ValueError("cut_factors needs one or more states of one layout")
    m = np.stack([cut_matrix(s, cut) for s in states])
    a = m.swapaxes(-1, -2)
    left, s, _ = np.linalg.svd(a)
    rank = np.sum(s > ATOL, axis=-1)
    dim = a.shape[-2]
    perp = np.zeros((len(states), dim, dim - rank.min()), dtype=np.complex128)
    # a set, not np.unique, whose first call raises peak memory by about 1 MB
    for r in set(rank.tolist()):
        kept = rank == r
        perp[kept, :, : dim - r] = _orthonormal_complement(left[kept, :, :r])
    return CutFactors(
        layout=states[0].layout,
        cut=cut,
        matrix=m,
        reduction=m @ m.conj().swapaxes(-1, -2),
        # drops the coefficients at or below ATOL, as the rank does, so no
        # direction is both inverted and completed on the kernel
        pinv=np.linalg.pinv(a, rcond=ATOL / s[:, 0]),
        left=left,
        singular=s,
        rank=rank,
        perp=perp,
    )


def _unitarity_bound(src: CutFactors) -> np.ndarray:
    """How far from unitary a connecting U may come out by rounding alone,
    for each member of the source.

    U is built through the pseudo-inverse of the source, which amplifies the
    rounding of both states, about machine epsilon per entry, by the
    condition number of the kept Schmidt coefficients. The first-order
    estimate is eps * dim * sigma_max / sigma_min, with dim the right side's
    dimension; its constant is not known, and on 100,000 random 2x3 and 3x3
    pairs the defect reached 15.5 times it, so the bound is 64 times the
    estimate, and never less than 1e-9. It admits Schmidt coefficients that
    differ by rounding only, about 64 * dim * eps, however small they are.
    Every state is normalized, so its largest coefficient is always kept.
    """
    smallest = np.take_along_axis(src.singular, (src.rank - 1)[:, None], axis=-1)[:, 0]
    condition = src.singular[:, 0] / smallest
    return np.maximum(1e-9, 64 * np.finfo(float).eps * src.left.shape[-1] * condition)


def connecting_unitary(src: CutFactors, dst: CutFactors) -> np.ndarray:
    """Unitaries U on the right side of the records' cut with
    (I tensor U) src[i] = dst[j], for every ordered member pair (i, j).

    Both arguments are :func:`cut_factors` records of one layout and one cut;
    records that differ in either raise ValueError. The result always has
    shape (src members, dst members, dim, dim), so U[i, j] takes source
    member i to destination member j; two stacks of one give a (1, 1, dim,
    dim) array.

    Such a U exists exactly when the two states have equal reduced operators
    on the left side; that is checked first, and a NoConnectingUnitaryError
    names the offending deviation otherwise. U is not unique whenever the
    Schmidt rank is below the right-side dimension; the returned
    representative maps the source's right support onto the destination's
    and is completed on the kernel by orthonormalizing standard basis
    vectors, so it is deterministic.

    Schmidt coefficients at or below ``ATOL`` count as zero, so U connects
    the states up to them. Reductions that agree within ``ATOL`` do not
    guarantee a unitary: Schmidt coefficients too small to show in the
    reduction may still differ, or fall on opposite sides of ``ATOL``. When
    the completed U is not unitary to within :func:`_unitarity_bound`, a
    NoConnectingUnitaryError names the defect max|U^dagger U - I|, and both
    Schmidt ranks when they differ.

    The pairs are checked one source member at a time against all
    destinations, and the error names the first failing pair in row-major
    order, "from member i to member j", after the cut.
    """
    if src.layout != dst.layout or src.cut != dst.cut:
        raise ValueError(
            f"connecting_unitary needs records of one layout and cut, got "
            f"{src.cut.label(src.layout)} and {dst.cut.label(dst.layout)}"
        )
    dim = dst.left.shape[-1]
    bounds = _unitarity_bound(src)
    dst_mt = dst.matrix.swapaxes(-1, -2)
    us = np.empty((len(src.rank), len(dst.rank), dim, dim), dtype=np.complex128)
    for i, rank in enumerate(src.rank):
        deviation = np.max(np.abs(src.reduction[i] - dst.reduction), axis=(-2, -1))
        # the completion pairs both kernels at the source's rank, so a rank
        # mismatch needs the destination's complement taken at that rank
        dst_perp = dst.perp[..., : dim - rank]
        if np.any(dst.rank != rank):
            dst_perp = _orthonormal_complement(dst.left[..., :rank])
        u = dst_mt @ src.pinv[i] + dst_perp @ src.perp[i, :, : dim - rank].conj().T
        defect = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim)), axis=(-2, -1))
        failing = (deviation > ATOL) | (defect > bounds[i])
        if failing.any():
            j = int(np.argmax(failing))
            pair = f"across {src.cut.label(src.layout)} from member {i} to member {j}"
            if deviation[j] > ATOL:
                raise NoConnectingUnitaryError(
                    f"left-side reduced operators differ by {deviation[j]:.3e} "
                    f"{pair}; no one-sided unitary on the right can connect these states"
                )
            ranks = f"; Schmidt ranks {rank} and {dst.rank[j]}" if rank != dst.rank[j] else ""
            raise NoConnectingUnitaryError(
                f"kernel completion {pair} is not unitary "
                f"(max|U^dagger U - I| = {defect[j]:.3e}{ranks}): the left reductions "
                f"agree within {ATOL:g} but the Schmidt coefficients do not"
            )
        us[i] = u
    return us
