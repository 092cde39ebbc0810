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
entangled across a cut exactly when every factor is. Each cut reads the
set once, as one stack of cut matrices, and every member pair must share
its identity-side reduction within tol. Hypothesis overlaps come from the
permanent identity

    tr(rho_i rho_j) = perm(F) / k!   with   F[s][t] = |<psi_{i_s}|psi_{j_t}>|^2

which follows from expanding both ordering sums.

The orthogonality premise is decided on each cut from the set's Gram
matrix G in O(n^2), through an upper bound on every overlap. Let

    eps = max_{a != b} |G_ab|^2,   m = max(1, max_{a,b} |G_ab|^2).

Every entry of F is at most m. (By Cauchy-Schwarz the largest |G_ab|^2
sits on the diagonal; m exceeds 1 only because members are normalised to
within ATOL, and taking it over all entries keeps it an upper bound under
rounding.) Two distinct k-subsets i and j differ, so some i_s is not in j,
and every entry of row s of F is then at most eps. Expanding the permanent
along that row gives k terms, each an entry of row s times the permanent of
a (k-1)-by-(k-1) minor, which is at most (k-1)! m^(k-1). So

    tr(rho_i rho_j) = perm(F) / k! <= eps * m^(k-1)

for every pair of distinct subsets. The premise holds when this bound is
at most tol, and then so is every overlap. A bound above tol reports the
premise as not shown: that is sound, as ``PremiseFails`` claims nothing.
It loses no verdict on an orthonormal set: a set built with
``require_orthonormal=True`` has a bound below 1.1e-18, under every
tolerance that ``check_tolerance`` admits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .statespace import ATOL, Cut, cut_matrix, is_maximally_entangled
from .subsets import (
    DEFAULT_MAX_DIM,
    StateSet,
    check_settings,
    check_stacked_dim,
    check_subset_size,
)

AXIOM_MES = "complete-MES-basis-indistinguishability"
AXIOM_ONE_SIDED = "one-sided-unitary-family-indistinguishability"

CERTIFIED = "Certified"
CONDITION_FAILS = "ConditionFails"
PREMISE_FAILS = "PremiseFails"

#: request marker: certify every bipartition of the parties
ALL_CUTS = "all"


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
        check_subset_size(self.k, len(self.state_set), least=2)
        if not isinstance(self.cut, Cut) and self.cut != ALL_CUTS:
            raise ValueError(f"cut must be a Cut or the marker {ALL_CUTS!r}")
        check_stacked_dim(self.state_set, self.k, self.max_dim)


@dataclass(frozen=True, eq=False)
class Certificate:
    """One cut's certificate; its fields are the fields of the report record."""

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


def hypothesis_overlap_bound(state_set: StateSet, k: int) -> float:
    """eps * m^(k-1), an O(n^2) upper bound on every tr(rho_i rho_j) of
    distinct k-subsets (proof in the module docstring)."""
    g2 = np.abs(state_set.gram) ** 2
    eps = float(g2[~np.eye(len(g2), dtype=bool)].max())
    m = max(1.0, float(g2.max()))
    return eps * m ** (k - 1)


def certify_cut(request: CertificateRequest) -> Certificate:
    """Evaluate the counting certificate for a single bipartition.

    The unitary side is the cut side of larger stacked dimension (ties go to
    the right side), and the bound is that dimension. With equal side
    dimensions and every member maximally entangled, the certificate cites
    the complete-basis principle; otherwise it cites the one-sided-unitary
    principle, whose premise (all stacked states share their reduction on
    the identity side) is checked explicitly.
    """
    if not isinstance(request.cut, Cut):
        raise ValueError("certify_cut needs a single cut; use certify_genuine for all")
    state_set, k, tol = request.state_set, request.k, request.tol
    cut = request.cut
    layout = state_set.layout
    lpos, rpos = cut.positions(layout)
    dims = layout.dims
    left_stacked = math.prod(dims[i] for i in lpos) ** k
    right_stacked = math.prod(dims[i] for i in rpos) ** k
    unitary_side = "left" if left_stacked > right_stacked else "right"
    bound = max(left_stacked, right_stacked)
    identity_side = Cut(cut.right, cut.left) if unitary_side == "left" else cut

    premises = {"pairwise-orthogonal-hypotheses": hypothesis_overlap_bound(state_set, k) <= tol}
    # the SVDs are needed only when the complete-basis principle can apply
    if left_stacked == right_stacked and is_maximally_entangled(state_set, cut, tol):
        axiom = AXIOM_MES
        premises["all-states-maximally-entangled"] = True
    else:
        axiom = AXIOM_ONE_SIDED
        m = cut_matrix(state_set, identity_side)
        reductions = m @ m.conj().swapaxes(-1, -2)
        # every pair within tol, each member against all later ones
        premises["equal-identity-side-reductions"] = all(
            np.max(np.abs(reductions[i + 1:] - reductions[i])) <= tol
            for i in range(len(reductions) - 1)
        )

    kappa = math.comb(len(state_set), k)
    if not all(premises.values()):
        verdict = PREMISE_FAILS
    elif kappa > bound:
        verdict = CERTIFIED
    else:
        verdict = CONDITION_FAILS
    return Certificate(
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
    ``all_bipartitions``.
    """
    if isinstance(request.cut, Cut):
        cuts = (request.cut,)
    else:
        cuts = all_bipartitions(request.state_set.parties)
    certs = tuple(certify_cut(replace(request, cut=cut)) for cut in cuts)
    return GenuineResult(certs, aggregate_verdict(c.verdict for c in certs))
