"""Counting certificates of subset unidentifiability.

A certificate is a machine-checked record that a task instance satisfies the
premises of a counting argument: when the candidate hypotheses are pairwise
orthogonal and every stacked state is carried onto every other by a unitary
acting on one side of a cut only, the number of hypotheses kappa = C(D, k)
must not exceed the dimension of that unitary side, or the hypotheses cannot
be told apart by operations local to the cut. The certificate names the
indistinguishability principle it leans on, reports each premise check, and
gives the verdict:

* ``Certified``       premises hold and kappa exceeds the bound;
* ``ConditionFails``  premises hold but the count does not clear the bound;
* ``PremiseFails``    at least one premise check failed, nothing is claimed.

All premise checks run on single-copy data, which keeps instances near the
resource guard exact and fast. The reductions used are equivalent to the
stacked ones: a reduction of a stacked product state is the tensor product
of single-copy reductions, so equality of all stacked reductions is exactly
equality of all single-copy reductions, and a product of states is maximally
entangled across a cut exactly when every factor is. Hypothesis overlaps
come from the permanent identity

    tr(rho_i rho_j) = perm(F) / k!   with   F[s][t] = |<psi_{i_s}|psi_{j_t}>|^2

which follows from expanding both ordering sums.

The orthogonality premise does not depend on the cut, so it is decided once
per (set, k) and shared by every cut of a request. It is decided from the
Gram matrix G in O(n^2) whenever a bound settles it. Let

    eps = max_{a != b} |G_ab|^2,   m = max(1, max_{a,b} |G_ab|^2).

Every entry of F is at most m. (By Cauchy-Schwarz the largest |G_ab|^2
sits on the diagonal; m exceeds 1 only because members are normalised to
within ATOL, and taking it over all entries keeps it an upper bound under
rounding.) Two distinct k-subsets i and j differ, so some i_s is not in j,
and every entry of row s of F is then at most eps. Expanding the permanent
along that row gives k terms, each an entry of row s times the permanent of
a (k-1)-by-(k-1) minor, which is at most (k-1)! m^(k-1). So

    tr(rho_i rho_j) = perm(F) / k! <= eps * m^(k-1)

for every pair of distinct subsets. The premise is evaluated as

    bound <= tol  or  max_hypothesis_overlap(set, k) <= tol,

so the exact scan runs only when the bound is inconclusive, and the result
is the scan's verdict for every tol: where the bound clears tol, so does
every overlap the scan would compute. On the orthonormal families shipped
here eps is at rounding level (below 1e-29), so the scan runs only for sets
built with ``require_orthonormal=False`` or for tolerances below rounding.
The scan visits all C(C(n, k), 2) subset pairs, vectorised over chunks of
pairs. Each pair costs 2^k - 1 Ryser terms, so the scan refuses with
ResourceLimitError when pairs * (2^k - 1) exceeds 3 * ``MAX_OVERLAP_PAIRS``,
which is ``MAX_OVERLAP_PAIRS`` pairs at k = 2 and fewer at larger k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ResourceLimitError
from .statespace import ATOL, Cut, cut_matrix, is_maximally_entangled
from .subsets import (
    DEFAULT_MAX_DIM,
    StateSet,
    check_settings,
    check_stacked_dim,
    enumerate_subsets,
)

AXIOM_MES = "complete-MES-basis-indistinguishability"
AXIOM_ONE_SIDED = "one-sided-unitary-family-indistinguishability"

CERTIFIED = "Certified"
CONDITION_FAILS = "ConditionFails"
PREMISE_FAILS = "PremiseFails"

#: request marker: certify every bipartition of the parties
ALL_CUTS = "all"

#: most subset pairs the exact overlap scan will visit at k = 2; at other k
#: the scan's Ryser terms, pairs * (2^k - 1), are held to 3 times this
MAX_OVERLAP_PAIRS = 2 ** 24
#: subset pairs gathered per vectorised step of the scan
_PAIR_CHUNK = 2 ** 15


@dataclass(frozen=True, eq=False)
class CertificateRequest:
    """What to certify: a state set, the subset size, and one cut or all.

    Subset sizes are restricted to 1 < k < D; identifying a single state is
    a different task, and k = D leaves nothing to identify. A request whose
    stacked dimension exceeds ``max_dim`` is refused here, like a task.
    """

    state_set: StateSet
    k: int
    cut: Cut | str = ALL_CUTS
    tol: float = ATOL
    max_dim: int = DEFAULT_MAX_DIM

    def __post_init__(self):
        check_settings(self.tol, self.max_dim)
        d = len(self.state_set)
        if not 1 < self.k < d:
            raise ValueError(f"subset size k={self.k} must satisfy 1 < k < D={d}")
        if not isinstance(self.cut, Cut) and self.cut != ALL_CUTS:
            raise ValueError(f"cut must be a Cut or the marker {ALL_CUTS!r}")
        check_stacked_dim(self.state_set, self.k, self.max_dim)


@dataclass(frozen=True, eq=False)
class Certificate:
    set_name: str
    n_states: int
    k: int
    cut: str
    kappa: int
    bound: int
    unitary_side: str
    axiom: str
    premises: dict[str, bool]
    verdict: str


@dataclass(frozen=True, eq=False)
class GenuineResult:
    """Per-cut certificates plus their aggregate verdict.

    The aggregate is ``Certified`` only when every single cut is; over every
    bipartition that means the task stays unidentifiable no matter how the
    parties group into two labs. Any failed premise dominates, otherwise a
    missed bound reports ``ConditionFails``.
    """

    certificates: tuple[Certificate, ...]
    verdict: str


def _ryser_permanents(blocks: np.ndarray) -> np.ndarray:
    """Permanents of a batch of k-by-k real matrices via Ryser's formula."""
    _, k, _ = blocks.shape
    total = np.zeros(blocks.shape[0])
    for mask in range(1, 2 ** k):
        cols = [c for c in range(k) if mask >> c & 1]
        rowsums = blocks[:, :, cols].sum(axis=2)
        total += (-1) ** (k - len(cols)) * rowsums.prod(axis=1)
    return total


def max_hypothesis_overlap(state_set: StateSet, k: int) -> float:
    """Largest tr(rho_i rho_j) over distinct subsets, via the permanent identity.

    Exact: every pair of subsets is visited at 2^k - 1 Ryser terms each, so
    the work grows as C(C(n, k), 2) * (2^k - 1) and is refused beyond
    3 * ``MAX_OVERLAP_PAIRS`` terms.
    """
    subsets = np.array(enumerate_subsets(len(state_set), k))
    h = len(subsets)
    n_pairs = h * (h - 1) // 2
    terms = n_pairs * (2 ** k - 1)
    if terms > 3 * MAX_OVERLAP_PAIRS:
        raise ResourceLimitError(
            f"overlap scan over {n_pairs} hypothesis pairs ({terms} Ryser terms) "
            f"exceeds the guard of {3 * MAX_OVERLAP_PAIRS} terms"
        )
    g2 = np.abs(state_set.gram) ** 2
    # pair p runs over (i, j > i) row by row; row i starts at first[i]
    later = np.arange(h - 1, -1, -1)
    first = np.cumsum(later) - later
    best = -np.inf
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        p = np.arange(lo, min(lo + _PAIR_CHUNK, n_pairs))
        i = np.searchsorted(first, p, side="right") - 1
        j = p - first[i] + i + 1
        blocks = g2[subsets[i][:, :, None], subsets[j][:, None, :]]
        best = max(best, _ryser_permanents(blocks).max())
    return float(best / math.factorial(k))


def hypothesis_overlap_bound(state_set: StateSet, k: int) -> float:
    """eps * m^(k-1), an O(n^2) upper bound on every tr(rho_i rho_j) of
    distinct k-subsets (proof in the module docstring)."""
    g2 = np.abs(state_set.gram) ** 2
    eps = float(g2[~np.eye(len(g2), dtype=bool)].max())
    m = max(1.0, float(g2.max()))
    return eps * m ** (k - 1)


def orthogonal_hypotheses(state_set: StateSet, k: int, tol: float) -> bool:
    """The pairwise-orthogonal-hypotheses premise: every overlap within tol.

    The bound decides it when it clears tol; otherwise the exact scan does.
    """
    return (
        hypothesis_overlap_bound(state_set, k) <= tol
        or max_hypothesis_overlap(state_set, k) <= tol
    )


def _reductions_agree(state_set: StateSet, side: Cut, tol: float) -> bool:
    """Do all members have the same reduced operator on the cut's left side?"""
    mats = [m @ m.conj().T for m in (cut_matrix(s, side) for s in state_set.states)]
    for a, b in itertools.combinations(mats, 2):
        if np.max(np.abs(a - b)) > tol:
            return False
    return True


def certify_cut(request: CertificateRequest, *, orthogonal: bool | None = None) -> Certificate:
    """Evaluate the counting certificate for a single bipartition.

    The unitary side is the cut side of larger stacked dimension (ties go to
    the right side), and the bound is that dimension. With equal side
    dimensions and every member maximally entangled, the certificate cites
    the complete-basis principle; otherwise it cites the one-sided-unitary
    principle, whose premise (all stacked states share their reduction on
    the identity side) is checked explicitly.

    ``orthogonal`` is the cut-independent overlap premise when the caller has
    already decided it for this set, k and tolerance (see certify_genuine);
    by default it is decided here.
    """
    if not isinstance(request.cut, Cut):
        raise ValueError("certify_cut needs a single cut; use certify_genuine for all")
    state_set, k, tol = request.state_set, request.k, request.tol
    if orthogonal is None:
        orthogonal = orthogonal_hypotheses(state_set, k, tol)
    cut = request.cut
    layout = state_set.layout
    lpos, rpos = cut.positions(layout)
    dims = layout.dims
    left_stacked = math.prod(dims[i] for i in lpos) ** k
    right_stacked = math.prod(dims[i] for i in rpos) ** k
    unitary_side = "left" if left_stacked > right_stacked else "right"
    bound = max(left_stacked, right_stacked)
    identity_side = Cut(cut.right, cut.left) if unitary_side == "left" else cut

    premises: dict[str, bool] = {}
    premises["pairwise-orthogonal-hypotheses"] = orthogonal
    # the SVDs are needed only when the complete-basis principle can apply
    if left_stacked == right_stacked and all(
        is_maximally_entangled(s, cut, tol) for s in state_set.states
    ):
        axiom = AXIOM_MES
        premises["all-states-maximally-entangled"] = True
    else:
        axiom = AXIOM_ONE_SIDED
        premises["equal-identity-side-reductions"] = _reductions_agree(
            state_set, identity_side, tol
        )

    kappa = math.comb(len(state_set), k)
    if not all(premises.values()):
        verdict = PREMISE_FAILS
    elif kappa > bound:
        verdict = CERTIFIED
    else:
        verdict = CONDITION_FAILS
    return Certificate(
        set_name=state_set.name,
        n_states=len(state_set),
        k=k,
        cut=cut.label(layout),
        kappa=kappa,
        bound=bound,
        unitary_side=unitary_side,
        axiom=axiom,
        premises=premises,
        verdict=verdict,
    )


def all_bipartitions(parties) -> tuple[Cut, ...]:
    """Every bipartition of the parties, one canonical cut each.

    The smaller side goes left (ties keep the side holding the first party),
    and cuts are ordered by left-side size, then by party order, so reports
    list the 1 vs rest cuts first.
    """
    parties = tuple(parties)
    if len(parties) < 2:
        raise ValueError("bipartitions need at least two parties")
    index = {p: i for i, p in enumerate(parties)}
    cuts = []
    rest = parties[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            side = (parties[0],) + extra
            other = tuple(p for p in parties if p not in side)
            if not other:
                continue
            left = side if len(side) <= len(other) else other
            right = other if left is side else side
            cuts.append((len(left), tuple(index[p] for p in left), Cut.between(left, right)))
    cuts.sort(key=lambda item: item[:2])
    return tuple(c for _, _, c in cuts)


def aggregate_verdict(verdicts) -> str:
    """Combine per-cut verdicts: a failed premise dominates, then a missed
    bound, and only a clean sweep stays Certified."""
    verdicts = list(verdicts)
    if any(v == PREMISE_FAILS for v in verdicts):
        return PREMISE_FAILS
    if all(v == CERTIFIED for v in verdicts):
        return CERTIFIED
    return CONDITION_FAILS


def certify_genuine(request: CertificateRequest) -> GenuineResult:
    """Certify the request's cut, or every bipartition for ``ALL_CUTS``, and
    aggregate the verdicts.

    Over every bipartition of three or more parties the aggregate means the
    task is genuinely unidentifiable: no two-lab coalition ever helps; a
    two-party set degenerates to its single cut. Cuts follow the order of
    ``all_bipartitions``. The overlap premise does not depend on the cut, so
    it is decided once and every cut shares it.
    """
    if isinstance(request.cut, Cut):
        cuts = (request.cut,)
    else:
        cuts = all_bipartitions(request.state_set.parties)
    orthogonal = orthogonal_hypotheses(request.state_set, request.k, request.tol)
    certs = tuple(
        certify_cut(replace(request, cut=cut), orthogonal=orthogonal) for cut in cuts
    )
    return GenuineResult(certs, aggregate_verdict(c.verdict for c in certs))
