"""Tensor-factor bookkeeping for multiparty pure and mixed states.

Every state in this package lives on a :class:`Layout`, an ordered tuple of
factors tagged with a party label, a copy index and a local dimension. The
flat amplitude vector uses the leftmost factor as the most significant
mixed-radix digit, so ``|x1 x2 ... xn>`` reads exactly like the printed ket.

Copies matter because identification tasks stack several states from one
family: party A holds the A half of every copy, and the stacked layout
groups factors party-major, copy-minor (A1 A2 ... B1 B2 ...).

Every statement about a bipartition (reductions, Schmidt coefficients,
one-sided unitaries) is read off :func:`cut_matrix`, the amplitudes as a
matrix M across the cut: M M^dagger is the left-side reduction. Given a
StateSet, these functions read all its members in one stacked pass. No
dense mixed state or partial trace is formed here; those live under
``tests/`` as the references the engine's fast paths are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .subsets import StateSet

#: tolerance for logical predicates (orthogonality, maximal entanglement, ...)
ATOL = 1e-9


@dataclass(frozen=True)
class Factor:
    """One tensor factor: which party holds it, which copy, how large."""

    party: str
    copy: int
    dim: int

    def __post_init__(self):
        if not self.party:
            raise ValueError("factor party label must be a nonempty string")
        if self.copy < 1:
            raise ValueError(f"factor copy index must be >= 1, got {self.copy}")
        if self.dim < 2:
            raise ValueError(f"factor dimension must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class Layout:
    """Ordered factor list; (party, copy) pairs must be unique."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        seen = set()
        for f in self.factors:
            key = (f.party, f.copy)
            if key in seen:
                raise ValueError(f"duplicate factor {key} in layout")
            seen.add(key)
        if not self.factors:
            raise ValueError("layout needs at least one factor")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def parties(self) -> tuple[str, ...]:
        """Party labels in order of first appearance."""
        out: list[str] = []
        for f in self.factors:
            if f.party not in out:
                out.append(f.party)
        return tuple(out)

    def positions_of(self, party: str) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f.party == party)

    def party_dim(self, party: str) -> int:
        return math.prod(self.factors[i].dim for i in self.positions_of(party))


def qubit_layout(*parties: str) -> Layout:
    """One qubit per listed party, all tagged copy 1."""
    return Layout(tuple(Factor(p, 1, 2) for p in parties))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on a layout.

    Amplitudes are stored as an immutable complex128 vector of length
    ``layout.dim``. Construction rejects vectors whose Euclidean norm is
    not 1 within ``ATOL``.
    """

    layout: Layout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude vector has length {amps.size}, layout needs {self.layout.dim}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= ATOL:  # also refuses a NaN norm
            raise ValueError(f"state vector is not normalized (norm={norm!r})")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class Cut:
    """Bipartition of the parties of a layout into two nonempty sides."""

    left: frozenset[str]
    right: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        if not self.left or not self.right:
            raise ValueError("both cut sides must be nonempty")
        if self.left & self.right:
            raise ValueError(f"cut sides overlap: {sorted(self.left & self.right)}")

    @classmethod
    def between(cls, left: Iterable[str], right: Iterable[str]) -> "Cut":
        return cls(frozenset(left), frozenset(right))

    def validate_for(self, layout: Layout) -> None:
        parties = set(layout.parties)
        if self.left | self.right != parties:
            missing = parties - (self.left | self.right)
            extra = (self.left | self.right) - parties
            raise ValueError(
                f"cut does not bipartition the layout parties "
                f"(missing {sorted(missing)}, unknown {sorted(extra)})"
            )

    def positions(self, layout: Layout) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Factor positions of each side, in layout order."""
        self.validate_for(layout)
        lpos = tuple(i for i, f in enumerate(layout.factors) if f.party in self.left)
        rpos = tuple(i for i, f in enumerate(layout.factors) if f.party in self.right)
        return lpos, rpos

    def label(self, layout: Layout) -> str:
        """Human-readable form such as ``A:BC``, party order from the layout."""
        order = layout.parties
        fmt = lambda side: "".join(p for p in order if p in side)  # noqa: E731
        return f"{fmt(self.left)}:{fmt(self.right)}"


# ---------------------------------------------------------------------------
# elementary operations; tensor, with_copy and permute_factors serve only
# subsets.stacked_state, the reference the stacked rows are tested against


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the factors of ``a`` stay most significant."""
    for f in b.layout.factors:
        if (f.party, f.copy) in {(g.party, g.copy) for g in a.layout.factors}:
            raise ValueError(f"tensor would duplicate factor ({f.party}, {f.copy})")
    layout = Layout(a.layout.factors + b.layout.factors)
    return StateVector(layout, np.kron(a.amplitudes, b.amplitudes))


def with_copy(s: StateVector, copy: int) -> StateVector:
    """Same amplitudes, every factor relabeled to the given copy index."""
    layout = Layout(tuple(Factor(f.party, copy, f.dim) for f in s.layout.factors))
    return StateVector(layout, s.amplitudes)


def permute_factors(s: StateVector, order: Sequence[int]) -> StateVector:
    """Reorder tensor factors.

    ``order`` lists old factor positions in their new order, following the
    numpy transpose convention: new factor ``i`` is old factor ``order[i]``.
    """
    n = len(s.layout.factors)
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    t = s.amplitudes.reshape(s.layout.dims).transpose(order)
    layout = Layout(tuple(s.layout.factors[i] for i in order))
    return StateVector(layout, np.ascontiguousarray(t).reshape(-1))


def cut_matrix(s: StateVector | StateSet, cut: Cut) -> np.ndarray:
    """The amplitudes as a (left dim, right dim) matrix across the cut.

    Rows run over the left side's factors and columns over the right's,
    each side in layout order, so M M^dagger is the reduction onto the left
    side and the singular values of M are the Schmidt coefficients. Leading
    axes of ``s.amplitudes`` are kept, so a StateSet, through its (n, dim)
    matrix, gives all n members' matrices as one (n, left dim, right dim)
    stack in one reshape and transpose.
    """
    lpos, rpos = cut.positions(s.layout)
    dims = s.layout.dims
    lead = s.amplitudes.shape[:-1]
    axes = tuple(range(len(lead))) + tuple(len(lead) + i for i in lpos + rpos)
    m = s.amplitudes.reshape(lead + dims).transpose(axes)
    return m.reshape(lead + (math.prod(dims[i] for i in lpos), -1))


def schmidt_coefficients(s: StateVector | StateSet, cut: Cut) -> np.ndarray:
    """Singular values of the cut matrix, descending; one row per StateSet member."""
    return np.linalg.svd(cut_matrix(s, cut), compute_uv=False)


def is_maximally_entangled(s: StateVector | StateSet, cut: Cut, tol: float = ATOL) -> bool:
    """True when every Schmidt coefficient (of every member) equals 1/sqrt(min side dim)."""
    coeffs = schmidt_coefficients(s, cut)
    target = 1.0 / math.sqrt(coeffs.shape[-1])
    return bool(np.max(np.abs(coeffs - target)) <= tol)


def regroup_coefficients(
    s: StateVector,
    cut: Cut,
    left_basis: Sequence,
    right_basis: Sequence,
) -> np.ndarray:
    """Expansion coefficients of a state in a product of cut-side bases.

    The state's cut matrix is expanded as
    ``sum_ab c[a, b] |left_a>|right_b>``. Basis elements are plain amplitude
    vectors of their side's dimension, so a Bell state's amplitudes can serve
    as a basis vector for a stacked two-qubit side. Both bases must be
    orthonormal families (checked within ``ATOL``) and must jointly resolve
    the state: the coefficient matrix carries the full norm or a ValueError
    is raised.
    """
    m = cut_matrix(s, cut)

    def as_rows(basis, side_dim, which):
        rows = np.array(basis, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != side_dim:
            raise ValueError(f"{which} basis vectors must have length {side_dim}")
        gram = rows.conj() @ rows.T
        if np.max(np.abs(gram - np.eye(len(rows)))) > ATOL:
            raise ValueError(f"{which} basis is not orthonormal")
        return rows

    lrows = as_rows(left_basis, m.shape[0], "left")
    rrows = as_rows(right_basis, m.shape[1], "right")
    coeffs = lrows.conj() @ m @ rrows.conj().T
    weight = float(np.sum(np.abs(coeffs) ** 2))
    if abs(weight - 1.0) > ATOL:
        raise ValueError(
            f"bases do not resolve the state (captured weight {weight!r}); "
            "supply complete bases for both cut sides"
        )
    return coeffs
