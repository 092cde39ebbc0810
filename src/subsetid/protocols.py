"""Exact simulation of local measurement protocols.

A protocol is a finite sequence of steps. Each step names one party, who
measures their entire local block (all copies they hold) with a projective
measurement and broadcasts the outcome; a step may swap in a different
measurement depending on the transcript so far. Simulation is exhaustive:
every positive-probability branch is propagated exactly, so the reported
transcript distributions are not sampled, they are computed.

A classifier turns transcripts into subset verdicts. The two builtin
protocols cover the Bell-state tasks: ``bell32`` (paired Bell-basis
measurements for two distributed Bell states out of three candidates) and
``bell43`` (three-qubit GHZ-basis measurements for three out of four). Both
classifiers are tallied from an exhaustive simulation the first time the
protocol is built in a process; no table is written out in the source.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import AmbiguityError, CoverageError, LocalityError
from .families import bell_basis, ghz3_basis, named_states
from .statespace import ATOL, Layout, StateVector
from .subsets import MixedHypothesis, StateSet, SubsetTask, hypothesis_ensemble, rho_subset

#: branches below this probability are treated as exactly zero
PRUNE_TOL = 1e-12

Transcript = tuple[tuple[str, int], ...]


def format_transcript(t: Transcript) -> str:
    """Render ``(("A", 1), ("B", 2))`` as ``"A:1 B:2"``."""
    return " ".join(f"{party}:{outcome}" for party, outcome in t) if t else "(empty)"


@dataclass(frozen=True, eq=False)
class Measurement:
    """A projective measurement on one party's local block.

    Projectors need not be rank one. Outcome labels default to 1..m.
    Invariant checks (Hermiticity, mutual orthogonality, completeness) are
    deliberately not run at construction; :func:`validate` reports them, so
    a malformed protocol can be built and then diagnosed.
    """

    party: str
    projectors: tuple[np.ndarray, ...]
    outcomes: tuple[int, ...] = ()

    def __post_init__(self):
        mats = []
        dim = None
        for i, p in enumerate(self.projectors):
            m = np.array(p, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"projector {i} is not a square matrix")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("projectors must share one dimension")
            m.flags.writeable = False
            mats.append(m)
        if not mats:
            raise ValueError("a measurement needs at least one projector")
        object.__setattr__(self, "projectors", tuple(mats))
        outcomes = tuple(self.outcomes) or tuple(range(1, len(mats) + 1))
        if len(outcomes) != len(mats):
            raise ValueError(f"{len(outcomes)} outcome labels for {len(mats)} projectors")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def first_violation(self, tol: float = ATOL) -> str | None:
        """Description of the first broken measurement invariant, if any."""
        d = self.dim
        for i, p in enumerate(self.projectors):
            dev = float(np.max(np.abs(p - p.conj().T)))
            if dev > tol:
                return f"projector {i} is not Hermitian (deviation {dev:.3e})"
        for i in range(len(self.projectors)):
            for j in range(i + 1, len(self.projectors)):
                dev = float(np.max(np.abs(self.projectors[i] @ self.projectors[j])))
                if dev > tol:
                    return f"projectors {i} and {j} are not orthogonal (max entry {dev:.3e})"
        total = sum(self.projectors)
        dev = float(np.max(np.abs(total - np.eye(d))))
        if dev > tol:
            return f"projectors do not sum to the identity (deviation {dev:.3e})"
        return None


def basis_measurement(party: str, vectors: Sequence, outcomes: Sequence[int] = ()) -> Measurement:
    """Rank-one measurement along the given orthonormal vectors."""
    projs = []
    for v in vectors:
        a = v.amplitudes if isinstance(v, StateVector) else np.asarray(v, dtype=np.complex128)
        projs.append(np.outer(a, a.conj()))
    return Measurement(party, tuple(projs), tuple(outcomes))


@dataclass(frozen=True, eq=False)
class ProtocolStep:
    """Default measurement plus optional transcript-conditioned overrides.

    ``variants`` maps a transcript prefix (the outcomes broadcast before this
    step) to the measurement used on that branch; prefixes without an entry
    fall back to the default, so every branch has a defined continuation.
    """

    measurement: Measurement
    variants: Mapping[Transcript, Measurement] = field(default_factory=dict)

    def choose(self, prefix: Transcript) -> Measurement:
        return self.variants.get(prefix, self.measurement)

    def all_measurements(self):
        yield "", self.measurement
        for prefix in sorted(self.variants):
            yield f"variant {format_transcript(prefix)}", self.variants[prefix]


@dataclass(frozen=True, eq=False)
class Protocol:
    name: str
    steps: tuple[ProtocolStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a protocol needs at least one step")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    location: str | None = None
    message: str | None = None


def validate(protocol: Protocol, tol: float = ATOL) -> ValidationReport:
    """Check every measurement invariant; report the first violation found."""
    for si, step in enumerate(protocol.steps, start=1):
        for tag, m in step.all_measurements():
            violation = m.first_violation(tol)
            if violation is not None:
                where = f"step {si} (party {m.party})"
                if tag:
                    where += f" {tag}"
                return ValidationReport(False, where, violation)
    return ValidationReport(True)


def check_locality(protocol: Protocol, layout: Layout) -> None:
    """Raise LocalityError unless every measurement acts on exactly the
    factors one party of the layout holds."""
    for si, step in enumerate(protocol.steps, start=1):
        for _, m in step.all_measurements():
            if m.party not in layout.parties:
                raise LocalityError(
                    f"step {si} measures party {m.party!r}, but the states "
                    f"involve only parties {','.join(layout.parties)}"
                )
            held = layout.party_dim(m.party)
            if m.dim != held:
                raise LocalityError(
                    f"step {si}: measurement acts on dimension {m.dim} but party "
                    f"{m.party} holds dimension {held}; a party may only measure "
                    "its own factors"
                )


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Exact transcript distributions, per hypothesis and per pure component.

    ``distributions[i]`` is the order-averaged distribution of hypothesis i;
    ``by_component[i][m]`` is the distribution when the states were handed
    out in the m-th ordering (aligned with ``hypotheses[i].orderings``).
    ``pruned_mass[i]`` is the order-averaged probability that pruning
    dropped under hypothesis i, so ``distributions[i]`` sums to one minus it.
    Pruning acts on each ordering's branches separately, so
    ``distributions[i]`` is the average of the pruned per-ordering
    distributions, not the mixed state's distribution pruned at that level.
    """

    hypotheses: tuple[MixedHypothesis, ...]
    distributions: tuple[dict, ...]
    by_component: tuple[tuple[dict, ...], ...]
    pruned_mass: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class _Factored:
    """A measurement as isometries: ``projectors[o] == W[o] @ W[o]^†``.

    ``adjoint`` stacks every ``W[o]^†`` (rows ``starts[o]`` up to
    ``starts[o] + ranks[o]`` belong to outcome o); ``summing`` maps the mass
    of every row to the mass of its outcome (0 for a zero projector).
    """

    adjoint: np.ndarray
    isometries: tuple[np.ndarray, ...]
    starts: np.ndarray
    ranks: np.ndarray
    summing: np.ndarray

    @classmethod
    def of(cls, m: Measurement) -> "_Factored":
        isometries = []
        for proj in m.projectors:
            values, vectors = np.linalg.eigh(proj)
            isometries.append(vectors[:, values > 0.5])
        ranks = np.array([w.shape[1] for w in isometries])
        starts = np.concatenate(([0], np.cumsum(ranks)[:-1]))
        adjoint = np.concatenate([w.conj().T for w in isometries])
        summing = np.repeat(np.eye(len(ranks)), ranks, axis=0)
        return cls(adjoint, tuple(isometries), starts, ranks, summing)


def _run_pure(protocol: Protocol, axes: dict, factored: dict, amps: np.ndarray, prune: float):
    """Transcript distribution of one component and the mass pruning dropped.

    ``amps`` has one axis per party (party-major); ``axes[party]`` is the
    party's axis. A branch carries its coordinates, per axis the isometry
    its party was last measured in (None: not yet measured), and its mass.
    """
    pruned = 0.0
    branches = [((), amps, (None,) * amps.ndim, 1.0)]
    for step in protocol.steps:
        grown = []
        for prefix, vec, bases, _ in branches:
            m = step.choose(prefix)
            f = factored[m]
            ax = axes[m.party]
            op = f.adjoint if bases[ax] is None else f.adjoint @ bases[ax]
            shape = vec.shape
            # explicit sizes: an axis may have shrunk to a zero projector's rank 0
            coeffs = op @ vec.reshape(math.prod(shape[:ax]), shape[ax], math.prod(shape[ax + 1:]))
            parts = coeffs.view(np.float64)  # real and imaginary parts side by side
            for o, mass in enumerate(np.einsum("irj,irj->r", parts, parts) @ f.summing):
                if mass < prune:
                    pruned += mass
                    continue
                s, r = f.starts[o], f.ranks[o]
                grown.append((
                    prefix + ((m.party, m.outcomes[o]),),
                    coeffs[:, s:s + r, :].reshape(shape[:ax] + (r,) + shape[ax + 1:]),
                    bases[:ax] + (f.isometries[o],) + bases[ax + 1:],
                    float(mass),
                ))
        branches = grown
    return {prefix: mass for prefix, _, _, mass in branches}, float(pruned)


def run_exact(
    protocol: Protocol,
    hypotheses: Sequence[MixedHypothesis],
    *,
    prune: float = PRUNE_TOL,
) -> SimulationReport:
    """Propagate every branch of the protocol against every hypothesis.

    Each pure ordering of a hypothesis runs separately and the hypothesis's
    distribution is their average, so the per-ordering distributions used by
    the order-blindness check come out of the same pass; the dense mixed
    state is never formed. Every component is first regrouped party-major,
    one axis per party in layout order (for the stacked states of
    ``hypothesis_ensemble`` this costs no copy). Outcomes below ``prune``
    are dropped as exactly zero; their mass is reported in ``pruned_mass``.
    The threshold applies to each ordering's branches, not to the mixed
    state's: a branch pruned under some orderings keeps only the others'
    share of the average. Either way every transcript's probability moves
    by less than ``prune``, so at the default the two agree within 1e-12.

    Each projector is factored once per call, P_o = W_o W_o^†, with W_o the
    eigenvectors of P_o whose eigenvalues exceed 1/2, and the W_o^† of a
    measurement are stacked, so one matmul on the measured party's axis
    yields the coordinates of every outcome at once. After outcome o the
    branch keeps only its coordinates in range(W_o): that party's axis
    shrinks from its dimension to rank(P_o), and a later measurement of the
    same party acts there through W'^† W_o.

    Soundness: W_o^† W_o = I, so ||P_o psi|| = ||W_o^† psi||; and a later
    projector acts as P' W_o c = W' (W'^† W_o c), so by induction every
    branch norm, hence every transcript probability, is the one the
    projectors give on the full vector, up to rounding. That holds only
    for projective measurements, so after the locality check (whose
    LocalityError comes first) a protocol that fails :func:`validate` is
    refused with ValueError naming the broken step.
    """
    hypotheses = tuple(hypotheses)
    if not hypotheses:
        raise ValueError("run_exact needs at least one hypothesis")
    layout = hypotheses[0].layout
    for h in hypotheses[1:]:
        if h.layout != layout:
            raise ValueError("hypotheses must share the stacked layout")
    check_locality(protocol, layout)
    checked = validate(protocol)
    if not checked.ok:
        raise ValueError(f"{checked.location}: {checked.message}")
    factored = {
        m: _Factored.of(m) for step in protocol.steps for _, m in step.all_measurements()
    }
    parties = layout.parties
    order = [i for p in parties for i in layout.positions_of(p)]
    sizes = tuple(layout.party_dim(p) for p in parties)
    axes = {p: i for i, p in enumerate(parties)}

    distributions = []
    by_component = []
    pruned_mass = []
    for h in hypotheses:
        runs = [
            _run_pure(
                protocol, axes, factored,
                c.amplitudes.reshape(layout.dims).transpose(order).reshape(sizes), prune,
            )
            for c in h.components
        ]
        comp_dists = tuple(d for d, _ in runs)
        merged: dict = {}
        for d in comp_dists:
            for t, p in d.items():
                merged[t] = merged.get(t, 0.0) + p / len(comp_dists)
        distributions.append(merged)
        by_component.append(comp_dists)
        pruned_mass.append(sum(p / len(runs) for _, p in runs))
    return SimulationReport(
        hypotheses, tuple(distributions), tuple(by_component), tuple(pruned_mass)
    )


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: dict | None = None


@dataclass(frozen=True, eq=False)
class Classifier:
    """Total-on-reached-transcripts map from transcript to subset indices.

    The table is read-only, since the builtin classifiers are shared;
    ``table.copy()`` gives a mutable dict.
    """

    table: Mapping[Transcript, tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies; rebuild from a dict
        return Classifier, (dict(self.table),)

    def __call__(self, t: Transcript) -> tuple[int, ...]:
        try:
            return self.table[t]
        except KeyError:
            raise CoverageError(
                f"classifier has no entry for transcript {format_transcript(t)}"
            ) from None

    def sorted_items(self):
        return sorted(self.table.items())


def perfect_identification(report: SimulationReport, classifier: Classifier) -> Verdict:
    """Did every reached transcript point back at the hypothesis that produced it?

    Raises CoverageError when the classifier is silent on a transcript that
    occurs with positive probability; returns a failing verdict with the
    first misclassified transcript as witness otherwise.
    """
    for h, dist in zip(report.hypotheses, report.distributions):
        for t in sorted(dist):
            assigned = classifier(t)
            if tuple(assigned) != h.subset_indices:
                return Verdict(
                    False,
                    {
                        "hypothesis": h.subset_indices,
                        "transcript": format_transcript(t),
                        "classified": tuple(assigned),
                    },
                )
    return Verdict(True)


def _total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(t, 0.0) - q.get(t, 0.0)) for t in keys)


def order_blindness_verdict(report: SimulationReport, tol: float = ATOL) -> Verdict:
    """Do all orderings of each subset induce the same transcript distribution?"""
    worst = 0.0
    witness = None
    for h, comp_dists in zip(report.hypotheses, report.by_component):
        for (ia, da), (ib, db) in itertools.combinations(enumerate(comp_dists), 2):
            tv = _total_variation(da, db)
            if tv > worst:
                worst = tv
                witness = {
                    "hypothesis": h.subset_indices,
                    "ordering_a": h.orderings[ia],
                    "ordering_b": h.orderings[ib],
                    "total_variation": tv,
                }
    if worst <= tol:
        return Verdict(True)
    return Verdict(False, witness)


def order_blindness(protocol: Protocol, task: SubsetTask, subset: Sequence[int], tol: float = ATOL) -> bool:
    """True when the protocol cannot tell the orderings of this subset apart."""
    report = run_exact(protocol, [rho_subset(task, tuple(subset))])
    return order_blindness_verdict(report, tol).ok


def derive_classifier(report: SimulationReport, *, on_ambiguity: str = "error") -> Classifier:
    """Tally which subsets reach which transcripts and build the decision table.

    A transcript claimed by two different subsets makes perfect
    identification impossible. With ``on_ambiguity="error"`` (the default)
    that raises AmbiguityError naming the transcript and its claimants; with
    ``"first"`` the table routes the transcript to the earliest claimant in
    enumeration order, which documents the collision rather than hiding it.
    """
    if on_ambiguity not in ("error", "first"):
        raise ValueError(f"unknown ambiguity policy {on_ambiguity!r}")
    claims: dict[Transcript, list[tuple[int, ...]]] = {}
    for h, dist in zip(report.hypotheses, report.distributions):
        for t in dist:
            claimants = claims.setdefault(t, [])
            if h.subset_indices not in claimants:
                claimants.append(h.subset_indices)
    ambiguous = sorted(t for t, c in claims.items() if len(c) > 1)
    if ambiguous and on_ambiguity == "error":
        t = ambiguous[0]
        raise AmbiguityError(
            f"transcript {format_transcript(t)} occurs under "
            f"{len(claims[t])} different subsets: {claims[t]}",
            transcript=t,
            claimants=tuple(claims[t]),
        )
    return Classifier({t: c[0] for t, c in claims.items()})


# ---------------------------------------------------------------------------
# builtin protocols


def _tallied_two_step(
    name: str, basis: StateSet, reference: StateSet, k: int, on_ambiguity: str = "error"
) -> tuple[Protocol, Classifier]:
    """Party A, then party B, measures its whole block along ``basis``; the
    classifier is tallied from the exhaustive simulation of every k-subset
    of ``reference``."""
    protocol = Protocol(
        name, tuple(ProtocolStep(basis_measurement(p, basis.states)) for p in ("A", "B"))
    )
    report = run_exact(protocol, hypothesis_ensemble(SubsetTask(reference, k)))
    return protocol, derive_classifier(report, on_ambiguity=on_ambiguity)


def builtin_bell32_variants(triple: Sequence[int] = (1, 2, 3)) -> tuple[Protocol, Classifier]:
    """Paired Bell-basis measurements identifying two Bell states of a triple.

    Alice measures her two qubits in the Bell basis, then Bob does the same;
    the classifier identifies which pair out of the triple was distributed
    (by default {B1, B2, B3}). The same protocol run on any single pair in
    both orders produces one and the same distribution, so it identifies
    the pair without ever learning the order.

    ``triple`` lists three distinct Bell indices from 1..4. The classifier is
    tallied by exhaustive simulation over that triple's three pair
    hypotheses, and construction fails with AmbiguityError if two pairs ever
    share a transcript; all four triples tally cleanly, each pair reaching
    four transcripts at probability 1/4. Each triple is tallied once per
    process; later calls return the same objects.
    """
    triple = tuple(sorted(triple))
    if len(triple) != 3 or len(set(triple)) != 3 or not all(1 <= i <= 4 for i in triple):
        raise ValueError(f"need three distinct Bell indices from 1..4, got {triple}")
    return _bell32(triple)


@functools.cache
def _bell32(triple: tuple[int, ...]) -> tuple[Protocol, Classifier]:
    return _tallied_two_step("bell32", bell_basis(), named_states([f"B{i}" for i in triple]), 2)


@functools.cache
def builtin_bell43() -> tuple[Protocol, Classifier]:
    """Three-qubit GHZ-basis tally for three Bell states out of four.

    Both parties measure their three-qubit blocks in the ghz3 basis and
    tally outcomes. The classifier is tallied, like bell32's, by exhaustive
    simulation over the four 3-subsets of the Bell basis, once per process
    (later calls return the same objects). That simulation shows the scheme
    cannot work: the subsets {0,1,2} and {0,2,3} produce identical
    transcript distributions, as do {0,1,3} and {1,2,3}, so each of the 48
    reached transcripts is claimed by two subsets, at probability 1/24
    under each; and individual orderings of a subset are distinguishable
    from one another. Both the identification and the order-blindness
    verdicts therefore come out false. The classifier ships anyway, routing
    every transcript to its first claimant, so the failure is reproducible.
    """
    return _tallied_two_step("bell43", ghz3_basis(), bell_basis(), 3, on_ambiguity="first")


#: builtin protocols addressable from scripts
PROTOCOLS = {"bell32": builtin_bell32_variants, "bell43": builtin_bell43}
