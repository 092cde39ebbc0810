"""Tensor-factor bookkeeping for multiparty pure and mixed states.

Every state in this package lives on a :class:`Layout`, an ordered tuple of
factors tagged with a party label, a copy index and a local dimension. The
flat amplitude vector uses the leftmost factor as the most significant
mixed-radix digit, so ``|x1 x2 ... xn>`` reads exactly like the printed ket.

Copies matter because identification tasks stack several states from one
family: party A holds the A half of every copy, and the stacked layout
groups factors party-major, copy-minor (A1 A2 ... B1 B2 ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


def qubit_layout(*parties: str, copy: int = 1) -> Layout:
    """One qubit per listed party, all tagged with the same copy index."""
    return Layout(tuple(Factor(p, copy, 2) for p in parties))


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
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state vector is not normalized (norm={norm!r})")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def overlap(self, other: "StateVector") -> complex:
        """<self|other> for two states on the same layout."""
        if self.layout != other.layout:
            raise ValueError("overlap requires a common layout")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on a layout."""

    layout: Layout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match layout dimension {d}")
        if np.max(np.abs(m - m.conj().T)) > ATOL:
            raise ValueError("density operator is not Hermitian")
        if abs(np.trace(m).real - 1.0) > ATOL:
            raise ValueError(f"density operator trace is {np.trace(m)!r}, expected 1")
        if np.linalg.eigvalsh(m)[0] < -ATOL:
            raise ValueError("density operator has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.dim


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

    def side_dims(self, layout: Layout) -> tuple[int, int]:
        lpos, rpos = self.positions(layout)
        dims = layout.dims
        return (
            math.prod(dims[i] for i in lpos),
            math.prod(dims[i] for i in rpos),
        )

    def label(self, layout: Layout) -> str:
        """Human-readable form such as ``A:BC``, party order from the layout."""
        order = layout.parties
        fmt = lambda side: "".join(p for p in order if p in side)  # noqa: E731
        return f"{fmt(self.left)}:{fmt(self.right)}"


# ---------------------------------------------------------------------------
# elementary operations


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


def regroup(s: StateVector, cut: Cut) -> StateVector:
    """Permute factors cut-side-major: all left-side factors, then right."""
    lpos, rpos = cut.positions(s.layout)
    return permute_factors(s, lpos + rpos)


def projector(s: StateVector) -> DensityOperator:
    return DensityOperator(s.layout, np.outer(s.amplitudes, s.amplitudes.conj()))


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every factor not listed in ``keep``.

    Parameters
    ----------
    rho : DensityOperator
    keep : iterable of int
        Factor positions to retain; treated as a set, the surviving factors
        keep their layout order.
    """
    keep_set = set(keep)
    n = len(rho.layout.factors)
    if not keep_set:
        raise ValueError("keep must name at least one factor")
    if not keep_set <= set(range(n)):
        raise ValueError(f"keep {sorted(keep_set)} outside factor range 0..{n - 1}")
    dims = rho.layout.dims
    t = rho.matrix.reshape(dims + dims)
    row = list(range(n))
    col = [i if i not in keep_set else n + i for i in range(n)]
    kept = sorted(keep_set)
    out = [i for i in kept] + [n + i for i in kept]
    reduced = np.einsum(t, row + col, out)
    d_kept = math.prod(dims[i] for i in kept)
    layout = Layout(tuple(rho.layout.factors[i] for i in kept))
    return DensityOperator(layout, reduced.reshape(d_kept, d_kept))


def _vector_reduction(amps: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a pure state, without object overhead."""
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    m = amps.reshape(dims).transpose(list(keep) + rest)
    m = m.reshape(math.prod(dims[i] for i in keep), -1)
    return m @ m.conj().T


def reduced_state(s: StateVector, keep: Iterable[int]) -> DensityOperator:
    """Reduction of a pure state onto the kept factors."""
    keep_sorted = sorted(set(keep))
    mat = _vector_reduction(s.amplitudes, s.layout.dims, keep_sorted)
    return DensityOperator(Layout(tuple(s.layout.factors[i] for i in keep_sorted)), mat)


def schmidt_coefficients(s: StateVector, cut: Cut) -> np.ndarray:
    """Singular values of the state reshaped across the cut, descending."""
    lpos, rpos = cut.positions(s.layout)
    dims = s.layout.dims
    m = s.amplitudes.reshape(dims).transpose(lpos + rpos)
    m = m.reshape(math.prod(dims[i] for i in lpos), -1)
    return np.linalg.svd(m, compute_uv=False)


def is_maximally_entangled(s: StateVector, cut: Cut, tol: float = ATOL) -> bool:
    """True when all Schmidt coefficients equal 1/sqrt(min side dimension)."""
    coeffs = schmidt_coefficients(s, cut)
    target = 1.0 / math.sqrt(min(cut.side_dims(s.layout)))
    return bool(np.max(np.abs(coeffs - target)) <= tol)


def support_basis(rho: DensityOperator, tol: float = ATOL) -> list[StateVector]:
    """Orthonormal eigenvectors spanning the support of ``rho``.

    Eigenvectors with eigenvalue above ``tol`` are returned in descending
    eigenvalue order. Individual vector phases follow the eigensolver; when
    comparing supports, compare the projectors they span, not the vectors.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    out = []
    for i in range(len(vals) - 1, -1, -1):
        if vals[i] > tol:
            out.append(StateVector(rho.layout, vecs[:, i]))
    return out


def regroup_coefficients(
    s: StateVector,
    cut: Cut,
    left_basis: Sequence,
    right_basis: Sequence,
    tol: float = ATOL,
) -> np.ndarray:
    """Expansion coefficients of a state in a product of cut-side bases.

    The state is regrouped cut-side-major and expanded as
    ``sum_ab c[a, b] |left_a>|right_b>``. Both bases must be orthonormal
    families (checked within ``tol``) and must jointly resolve the state:
    the coefficient matrix carries the full norm or a ValueError is raised.

    Basis elements may be plain amplitude vectors or StateVectors; only
    their amplitudes are consulted, so a Bell state built on single-copy
    factors can serve as a basis vector for a stacked two-qubit side.
    """
    lpos, rpos = cut.positions(s.layout)
    dims = s.layout.dims
    dl = math.prod(dims[i] for i in lpos)
    m = s.amplitudes.reshape(dims).transpose(lpos + rpos).reshape(dl, -1)

    def as_rows(basis, side_dim, which):
        rows = np.array(
            [b.amplitudes if isinstance(b, StateVector) else np.asarray(b, dtype=np.complex128) for b in basis]
        )
        if rows.ndim != 2 or rows.shape[1] != side_dim:
            raise ValueError(f"{which} basis vectors must have length {side_dim}")
        gram = rows.conj() @ rows.T
        if np.max(np.abs(gram - np.eye(len(rows)))) > tol:
            raise ValueError(f"{which} basis is not orthonormal")
        return rows

    lrows = as_rows(left_basis, m.shape[0], "left")
    rrows = as_rows(right_basis, m.shape[1], "right")
    coeffs = lrows.conj() @ m @ rrows.conj().T
    weight = float(np.sum(np.abs(coeffs) ** 2))
    if abs(weight - 1.0) > tol:
        raise ValueError(
            f"bases do not resolve the state (captured weight {weight!r}); "
            "supply complete bases for both cut sides"
        )
    return coeffs
