"""Task model for subset identification.

A :class:`StateSet` holds the n candidate states. A task fixes a subset size
k; the sender picks a k-subset, picks an order uniformly at random, and hands
copy t of the chosen sequence to the parties. Because the order is random,
hypothesis i is the mixed state

    rho_i = (1/k!) * sum over orderings mu of |Phi_i_mu><Phi_i_mu|

where Phi_i_mu stacks the ordered states party-major (each party holds all
its copies contiguously). Identifying the subset is exactly discriminating
the rho_i.

A :class:`MixedHypothesis` is light: it names its subset and its state set,
and builds the k! stacked amplitude vectors as one (k!, dim) array each time
``components`` is read. :func:`stacked_rows` is the one place those rows are
made, for a list of subsets, so a simulation can build the rows of several
consecutive hypotheses at once. The orderings of one subset differ only in
which copy holds which member, so in the party-major layout each ordering's
row is a fixed coordinate permutation of the subset's product: each
subset's members are multiplied out once, and all its k! rows are gathered
from that product through a table cached per (dims, k). Nothing else is
cached, so a simulation that builds a bounded chunk of hypotheses at a time
holds that chunk's rows, never the ensemble's.
:func:`stacked_state` builds a single ordering the long way (copy
relabelling, Kronecker products and a factor permutation); the engine
never calls it, and the tests use it as the independent reference for those
rows.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, SettingError
from .statespace import ATOL, Factor, Layout, StateVector, permute_factors, tensor, with_copy

#: largest stacked vector dimension a task will accept by default
DEFAULT_MAX_DIM = 2 ** 16


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance under which verdicts mean nothing.

    Predicates compare measured deviations against ``tol``; a NaN tolerance
    makes every comparison false, an infinite one passes every check, zero
    demands exact floating-point equality and a negative one fails every
    check. A bool is refused, though Python counts True as the number 1.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise SettingError(f"tolerance must be a finite number above 0, got {tol!r}")


def check_settings(tol: float, max_dim: int) -> None:
    """Refuse a tolerance (see :func:`check_tolerance`) or a dimension guard
    under which verdicts mean nothing. A guard below 1 admits no stacked
    state at all; a bool is refused, though Python counts True as 1."""
    check_tolerance(tol)
    if isinstance(max_dim, bool) or not (isinstance(max_dim, numbers.Integral) and max_dim >= 1):
        raise SettingError(f"max_dim must be an integer of at least 1, got {max_dim!r}")


def check_subset_size(k: int, n: int, least: int = 1) -> None:
    """Refuse a subset size k outside ``least <= k < n``, before any
    arithmetic on k. k must be a Python int: a bool is refused, though
    Python counts True as the number 1, and so is a numpy integer, whose
    powers wrap around and could slip ``dim ** k`` under a guard."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"subset size k={k!r} must be an integer")
    if not least <= k < n:
        raise ValueError(f"subset size k={k} must satisfy {least - 1} < k < n={n}")


def check_stacked_dim(state_set: StateSet, k: int, max_dim: int) -> None:
    """Refuse k copies whose stacked dimension, (single-copy dim)**k, exceeds
    ``max_dim``, before anything of that size is built."""
    dim = state_set.layout.dim
    if dim ** k > max_dim:
        raise ResourceLimitError(
            f"stacked dimension {dim}**{k} = {dim ** k} exceeds the guard of {max_dim}"
        )


@dataclass(frozen=True, eq=False)
class StateSet:
    """Ordered family of candidate states on a shared single-copy layout.

    Parameters
    ----------
    states : sequence of StateVector
        The candidates, all on the same layout, one factor per party.
    name : str
        Display name used in reports.
    labels : sequence of str, optional
        One short label per state; defaults to S1..Sn.
    require_orthonormal : bool, optional
        The families this package ships are orthonormal and the protocols
        and certificates assume as much, so construction checks the Gram
        matrix by default. Pass False to build a deliberately broken set,
        e.g. to watch a certificate premise fail. Certificates recompute
        orthogonality themselves and never trust this flag.
    """

    states: tuple[StateVector, ...]
    name: str = "set"
    labels: tuple[str, ...] = ()
    require_orthonormal: InitVar[bool] = True

    def __post_init__(self, require_orthonormal: bool):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("a state set needs at least one state")
        layout = self.states[0].layout
        for s in self.states[1:]:
            if s.layout != layout:
                raise ValueError("all states in a set must share one layout")
        for party in layout.parties:
            if len(layout.positions_of(party)) != 1:
                raise ValueError(
                    f"party {party} holds several factors; sets are built on "
                    "single-copy layouts with one factor per party"
                )
        labels = tuple(self.labels) or tuple(f"S{i + 1}" for i in range(len(self.states)))
        if len(labels) != len(self.states):
            raise ValueError(f"{len(labels)} labels for {len(self.states)} states")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        object.__setattr__(self, "labels", labels)
        if require_orthonormal and not self.is_orthonormal():
            raise ValueError(
                f"states of {self.name!r} are not pairwise orthonormal; pass "
                "require_orthonormal=False if that is intentional"
            )

    def __len__(self) -> int:
        return len(self.states)

    @property
    def layout(self):
        return self.states[0].layout

    @property
    def parties(self) -> tuple[str, ...]:
        return self.layout.parties

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The members' amplitude vectors as the rows of one read-only
        (n, dim) matrix."""
        rows = np.array([s.amplitudes for s in self.states])
        rows.flags.writeable = False
        return rows

    @cached_property
    def gram(self) -> np.ndarray:
        """Matrix of mutual overlaps <psi_i|psi_j>."""
        rows = self.amplitudes
        g = rows.conj() @ rows.T
        g.flags.writeable = False
        return g

    def is_orthonormal(self) -> bool:
        return bool(np.max(np.abs(self.gram - np.eye(len(self.states)))) <= ATOL)

    def subset_label(self, subset: Sequence[int]) -> str:
        return "+".join(self.labels[i] for i in subset)


def enumerate_subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-element subsets of range(n), sorted, in lexicographic order."""
    check_subset_size(k, n)
    return tuple(itertools.combinations(range(n), k))


def orderings(subset: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All k! orderings of a subset, lexicographic over index sequences."""
    return tuple(itertools.permutations(sorted(subset)))


def stacked_layout(state_set: StateSet, k: int) -> Layout:
    """The layout of k stacked copies, party-major: every party's copies
    1..k in a row (A1..Ak, B1..Bk, ...), parties in the set's order."""
    return Layout(tuple(
        Factor(f.party, t, f.dim) for f in state_set.layout.factors for t in range(1, k + 1)
    ))


def stacked_state(state_set: StateSet, ordering: Sequence[int]) -> StateVector:
    """Tensor the listed states and reorder the factors party-major.

    Copy t of the product (1-based) is the state ``ordering[t-1]``; the
    result's factor order is A-copies first, then B-copies, and so on, so
    each party's holdings are one contiguous block and the layout is
    :func:`stacked_layout`. This is the tests' reference route, one ordering
    at a time; :attr:`MixedHypothesis.components` builds all of a subset's
    orderings at once.
    """
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        raise ValueError(f"ordering {ordering} repeats a state index")
    if not ordering:
        raise ValueError("ordering must name at least one state")
    for i in ordering:
        if not 0 <= i < len(state_set):
            raise ValueError(f"state index {i} outside 0..{len(state_set) - 1}")
    out = with_copy(state_set.states[ordering[0]], 1)
    for t, i in enumerate(ordering[1:], start=2):
        out = tensor(out, with_copy(state_set.states[i], t))
    k = len(ordering)
    n_factors = len(state_set.layout.factors)
    party_major = [t * n_factors + f for f in range(n_factors) for t in range(k)]
    return permute_factors(out, party_major)


@dataclass(frozen=True, eq=False)
class MixedHypothesis:
    """One candidate subset of a state set, standing for its order-averaged
    mixed state.

    ``components`` holds the stacked amplitudes of all k! orderings, one row
    per ordering aligned with :attr:`orderings`, on :attr:`layout`; the
    mixed state is their uniform mixture and is never formed as a matrix.
    The subset must list distinct member indices in increasing order.
    """

    subset_indices: tuple[int, ...]
    state_set: StateSet

    def __post_init__(self):
        subset = tuple(self.subset_indices)
        if not subset or list(subset) != sorted(set(subset)):
            raise ValueError(f"subset {subset} must list distinct indices in increasing order")
        if not 0 <= subset[0] <= subset[-1] < len(self.state_set):
            raise ValueError(f"subset {subset} names a state outside 0..{len(self.state_set) - 1}")
        object.__setattr__(self, "subset_indices", subset)

    @property
    def layout(self) -> Layout:
        return stacked_layout(self.state_set, len(self.subset_indices))

    @property
    def orderings(self) -> tuple[tuple[int, ...], ...]:
        return orderings(self.subset_indices)

    @property
    def components(self) -> np.ndarray:
        """Read-only (k!, dim) complex128 array: row m is the party-major
        stacked state of the m-th ordering, built by :func:`stacked_rows` on
        every access and not kept: the subset's product once, then one
        gather lays out all k! orderings."""
        return stacked_rows(self.state_set, [self.subset_indices])


@lru_cache(maxsize=8)
def _copy_permutations(dims: tuple[int, ...], k: int) -> np.ndarray:
    """Every ordering of k copies, as one gather.

    Row j of the read-only (k!, dim) table serves the j-th permutation
    sigma of range(k) in lexicographic order, the ordering whose copy t
    holds member sigma(t) of a sorted subset: entry x is the coordinate of
    the subset's copy-major product that holds that ordering's party-major
    coordinate x, since factor (party p, copy t) of the ordering is factor
    (copy sigma(t), party p) of the product. Entries use the smallest
    unsigned type that holds every index.
    """
    n = len(dims)
    dim = math.prod(dims) ** k
    copy_major = np.arange(dim, dtype=np.min_scalar_type(dim - 1)).reshape(tuple(dims) * k)
    perms = np.stack([
        copy_major.transpose([s * n + p for p in range(n) for s in sigma]).reshape(-1)
        for sigma in itertools.permutations(range(k))
    ])
    perms.flags.writeable = False
    return perms


def stacked_rows(state_set: StateSet, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """Read-only (len(subsets) * k!, dim) complex128 array: every ordering
    of every subset, party-major, each subset's k! rows in the order
    :func:`orderings` lists them.

    The subsets share one size k and list distinct members in increasing
    order, as :class:`MixedHypothesis` holds them. Each subset's members
    are multiplied out once, copy-major, ((psi_s0 x psi_s1) x psi_s2) ...,
    with no Kronecker product, and one ``np.take`` through the cached
    gather of :func:`_copy_permutations` lays out every ordering of every
    product.

    Soundness: if o_t = s_sigma(t), the ordering's amplitude at party-major
    coordinates x is prod_t psi_{s_sigma(t)}(x_{., t}), the product's
    amplitude with copy sigma(t) holding x_{., t}. So each row is a
    coordinate permutation of its subset's product, exact up to the
    association of the product: the sorted ordering gets the bits of
    multiplying its members out in copy order, and every other ordering the
    same factors multiplied in sorted order.
    """
    factors = state_set.amplitudes[np.array(subsets)]
    count, k = factors.shape[:2]
    products = factors[:, 0]
    for t in range(1, k):
        products = (products[:, :, None] * factors[:, t, None, :]).reshape(count, -1)
    perms = _copy_permutations(state_set.layout.dims, k)
    out = np.take(products, perms, axis=1).reshape(-1, products.shape[1])
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SubsetTask:
    """A state set plus the subset size k; validates the resource guard.

    Stacked vectors have dimension (single-copy dim)**k; tasks beyond
    ``max_dim`` are refused outright rather than failing slowly later.
    """

    state_set: StateSet
    k: int
    max_dim: int = DEFAULT_MAX_DIM

    def __post_init__(self):
        check_subset_size(self.k, len(self.state_set))
        check_stacked_dim(self.state_set, self.k, self.max_dim)

    @property
    def n(self) -> int:
        return len(self.state_set)

    @property
    def stacked_dim(self) -> int:
        return self.state_set.layout.dim ** self.k

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return enumerate_subsets(self.n, self.k)


def hypothesis_ensemble(task: SubsetTask) -> tuple[MixedHypothesis, ...]:
    """One hypothesis per subset, aligned with ``task.subsets``. The
    hypotheses are light; each builds its components when they are read."""
    return tuple(MixedHypothesis(s, task.state_set) for s in task.subsets)
