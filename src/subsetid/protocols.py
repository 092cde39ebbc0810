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
``bell43`` (three-qubit GHZ-basis measurements for three out of four).
``PROTOCOLS`` maps each name to a builder of the bare protocol; a script's
``simulate`` tallies the classifier from the very simulation it judges, so
the verdict holds for whatever set, in whatever order, the task declares.
``builtin_bell32_variants`` and ``builtin_bell43`` return a protocol with a
classifier tallied on its reference set, afresh on every call; no table is
written out in the source or shared between calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import AmbiguityError, CoverageError, LocalityError, SettingError
from .families import bell_basis, ghz3_basis, named_states
from .statespace import ATOL, Layout, StateVector
from .subsets import (
    MixedHypothesis,
    StateSet,
    SubsetTask,
    check_tolerance,
    hypothesis_ensemble,
    stacked_rows,
)

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
    a malformed protocol can be built and then diagnosed. The projectors are
    copied into one private read-only (m, d, d) stack, ``projectors`` holds
    read-only views of it (writing to one raises ValueError), and the object
    is frozen; so its check and its factoring are pure functions of it, each
    computed once and cached on it. A copy or an unpickled one is rebuilt.
    """

    party: str
    projectors: tuple[np.ndarray, ...]
    outcomes: tuple[int, ...] = ()

    def __post_init__(self):
        mats = [np.asarray(p, dtype=np.complex128) for p in self.projectors]
        for i, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
                raise ValueError(f"projector {i} is not a nonempty square matrix")
            if m.shape != mats[0].shape:
                raise ValueError("projectors must share one dimension")
        if not mats:
            raise ValueError("a measurement needs at least one projector")
        stack = np.stack(mats)
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "projectors", tuple(stack))
        outcomes = tuple(self.outcomes) or tuple(range(1, len(mats) + 1))
        if len(outcomes) != len(mats):
            raise ValueError(f"{len(outcomes)} outcome labels for {len(mats)} projectors")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def first_violation(self) -> str | None:
        """Description of the first broken measurement invariant, if any:
        projector by projector, finiteness then Hermiticity; then the pairs
        (i, j), i < j, in order; then completeness."""
        return self._violation

    @cached_property
    def _violation(self) -> str | None:
        # each test runs on the whole stack, with one projector's or pair's bits
        stack = self._stack
        finite = np.isfinite(stack).all(axis=(1, 2))
        first = int(np.argmin(finite)) if not finite.all() else len(stack)
        # only projectors before the first non-finite one: inf - inf would warn
        devs = np.abs(stack[:first] - stack[:first].conj().transpose(0, 2, 1)).max(axis=(1, 2))
        for i in np.flatnonzero(devs > ATOL)[:1].tolist():
            return f"projector {i} is not Hermitian (deviation {devs[i]:.3e})"
        if first < len(stack):
            return f"projector {first} has a non-finite entry"
        for i in range(len(stack) - 1):
            devs = np.abs(stack[i] @ stack[i + 1:]).max(axis=(1, 2))
            for j in np.flatnonzero(devs > ATOL)[:1].tolist():
                dev = devs[j]
                return f"projectors {i} and {i + 1 + j} are not orthogonal (max entry {dev:.3e})"
        # sum() adds the projectors one at a time; a numpy reduction may pair them
        dev = np.abs(sum(stack) - np.eye(self.dim)).max()
        if dev > ATOL:
            return f"projectors do not sum to the identity (deviation {dev:.3e})"
        return None

    _factored = cached_property(lambda self: _Factored.of(self))

    def __reduce__(self):
        return Measurement, (self.party, self.projectors, self.outcomes)


def basis_measurement(party: str, vectors: Sequence) -> Measurement:
    """Rank-one measurement along the given orthonormal vectors, outcomes 1..m."""
    amps = (v.amplitudes if isinstance(v, StateVector) else np.asarray(v, dtype=np.complex128)
            for v in vectors)
    return Measurement(party, tuple(np.outer(a, a.conj()) for a in amps))


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
        # each label after its type name, so labels of unlike types never meet
        for prefix in sorted(
            self.variants, key=lambda t: [(type(x).__name__, x) for pair in t for x in pair]
        ):
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


def validate(protocol: Protocol) -> ValidationReport:
    """Check every measurement invariant; report the first violation found."""
    for si, step in enumerate(protocol.steps, start=1):
        for tag, m in step.all_measurements():
            if m.first_violation() is not None:
                where = f"step {si} (party {m.party})" + (f" {tag}" if tag else "")
                return ValidationReport(False, where, m.first_violation())
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

    ``adjoint`` stacks every ``W[o]^†`` in outcome order; ``summing`` maps
    the mass of every row to the mass of its outcome (0 for a zero
    projector).
    ``by_rank`` holds, for each rank r that occurs, r, the outcomes of rank
    r, and the rows of ``adjoint`` that belong to them in order, or None for
    those rows when every outcome has rank r.

    When every row of ``adjoint`` has exactly one nonzero entry and that
    entry is exactly 1 or -1, the measurement is a signed coordinate
    selection: ``columns[r]`` is the coordinate row r picks, and ``signs``
    holds each row's sign as an (n, 1) column, or is None when all are +1.
    Both are None for any other measurement.
    """

    adjoint: np.ndarray
    isometries: tuple[np.ndarray, ...]
    summing: np.ndarray
    by_rank: tuple[tuple[int, np.ndarray, np.ndarray | None], ...]
    columns: np.ndarray | None
    signs: np.ndarray | None

    @classmethod
    def of(cls, m: Measurement) -> "_Factored":
        # one eigh on the stack solves each projector as eigh on it alone would
        values, vectors = np.linalg.eigh(m._stack)
        isometries = [v[:, w > 0.5] for w, v in zip(values, vectors)]
        ranks = np.array([w.shape[1] for w in isometries])
        adjoint = np.concatenate([w.conj().T for w in isometries])
        summing = np.repeat(np.eye(len(ranks)), ranks, axis=0)
        distinct = dict.fromkeys(ranks.tolist())
        by_rank = tuple(
            (r, np.flatnonzero(ranks == r),
             None if len(distinct) == 1 else np.flatnonzero(np.repeat(ranks == r, ranks)))
            for r in distinct
        )
        columns = signs = None
        nonzero = adjoint != 0
        if (nonzero.sum(axis=1) == 1).all():
            picks = nonzero.argmax(axis=1)
            entries = adjoint[np.arange(len(picks)), picks]
            if ((entries == 1) | (entries == -1)).all():
                columns = picks
                if (entries == -1).any():
                    signs = entries.real[:, None]
        return cls(adjoint, tuple(isometries), summing, by_rank, columns, signs)


#: amplitudes one chunk of run_exact's stacked orderings may hold (256 KiB)
_CHUNK_AMPLITUDES = 2 ** 14


def _chunks(hypotheses: Sequence[MixedHypothesis], size: int):
    """Consecutive hypotheses on one state set whose rows, ``size``
    amplitudes per hypothesis, hold at most _CHUNK_AMPLITUDES together; a
    chunk always holds at least one hypothesis."""
    most = max(1, _CHUNK_AMPLITUDES // size)
    chunk: list[MixedHypothesis] = []
    for h in hypotheses:
        if len(chunk) == most or (chunk and h.state_set is not chunk[0].state_set):
            yield chunk
            chunk = []
        chunk.append(h)
    yield chunk


def _in_node_order(parts):
    """Join per-batch columns, node ids first, so that every component's
    rows come in node order.

    Within a part every component's rows already come in node order, though
    the rows of different components interleave, so one part is returned as
    it is. Several parts are joined and sorted stably on node id; as a
    component reaches a node at most once, its rows then come in node order
    whatever order the parts were in.
    """
    if len(parts) == 1:
        return parts[0]
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(columns[0], kind="stable")
    return [column.take(order, axis=0) for column in columns]


def _walk(steps, axes: dict, amps: np.ndarray, prune: float):
    """Every component's transcript distribution and the mass pruning dropped.

    ``amps`` holds one component per row, with one axis per party after the
    row axis (party-major); ``axes[party]`` is the party's axis. The walk
    measures the transcript tree one level at a time. A node is one
    transcript: ``nodes[i]`` holds node i's prefix and, per axis, the
    isometry its party was last measured in (None: not yet measured). A
    component reaches a node at most once. A level keeps its rows in
    groups, one per row shape, each holding the coordinates, component ids
    and node ids of its rows. The rows of a group whose nodes pick the same
    measurement and hold the same isometry on its axis form one batch, which
    one gather or matmul, one mass reduction, one ``@ summing`` and one
    prune test measure at once.

    The walk relies on one invariant: in every group and batch, each
    component's rows come in node order, while the rows of different
    components may interleave. A batch takes its group's rows of one kind
    in the order the group lists them. Children are numbered in
    lexicographic (parent, outcome index) order and a row's children are
    listed in outcome order, so a piece of one batch keeps the invariant,
    and pieces of one shape from several batches are merged by
    :func:`_in_node_order`. A level's leaves and pruned masses are merged
    the same way before they are written, so each component's dict fills
    in lexicographic order of its outcome indices and its pruned mass adds
    up node by node, as in a walk of one ordering at a time. A batch whose
    dropped masses are all exact zeros adds nothing: every total is a sum
    of masses, which are never negative, and adding 0.0 to such a sum
    leaves it as it is.
    """
    count = len(amps)
    last = len(steps) - 1
    dists: list[dict] = [{} for _ in range(count)]
    pruned = np.zeros(count)
    nodes = [((), (None,) * (amps.ndim - 1))]
    groups = [(np.zeros(count, np.intp), np.arange(count), amps)]
    for s, step in enumerate(steps):
        kinds: dict = {}  # (measurement, id of the isometry on its axis) -> kind
        chosen = []  # per node: its kind, (number, measurement, isometry on its axis)
        for prefix, bases in nodes:
            m = step.choose(prefix)
            base = bases[axes[m.party]]
            chosen.append(kinds.setdefault((m, id(base)), (len(kinds), m, base)))
        batches = []
        for ids, comps, vecs in groups:
            if len(kinds) == 1:
                batches.append((chosen[0], ids, comps, vecs))
                continue
            of_row = np.array([kind[0] for kind in chosen]).take(ids)
            for kind in kinds.values():
                mine = np.flatnonzero(of_row == kind[0])
                if len(mine):
                    batches.append(
                        (kind, ids.take(mine), comps.take(mine), vecs.take(mine, axis=0))
                    )
        dropping, leaves, pieces = [], [], []
        for (_, m, base), ids, comps, vecs in batches:
            f = m._factored
            ax = axes[m.party]
            g, shape = len(vecs), vecs.shape[1:]
            # explicit sizes: an axis may have shrunk to a zero projector's rank 0
            before, after = math.prod(shape[:ax]), math.prod(shape[ax + 1:])
            selects = base is None and f.columns is not None
            if selects and s == last:  # the last step needs only each coordinate's mass
                reals = vecs.reshape(g, before, shape[ax], after).view(np.float64)
                # take, not [:, columns]: a C-ordered result sums in `@ summing` as a gather's does
                rows = np.einsum("gicj,gicj->gc", reals, reals).take(f.columns, axis=1)
            else:
                if selects:
                    coeffs = vecs.reshape(g, before, shape[ax], after).take(f.columns, axis=2)
                    if f.signs is not None:
                        coeffs *= f.signs
                else:
                    op = f.adjoint if base is None else f.adjoint @ base
                    coeffs = (op @ vecs.reshape(g * before, shape[ax], after)).reshape(
                        g, before, len(op), after
                    )
                reals = coeffs.view(np.float64)  # real and imaginary parts side by side
                rows = np.einsum("girj,girj->gr", reals, reals)
            masses = (rows[:, None, :] @ f.summing)[:, 0]
            dropped = masses < prune
            if np.count_nonzero(masses[dropped]):
                lost = np.add.reduce(np.where(dropped, masses, 0.0), axis=1)
                dropping.append((ids, comps, lost))
            kept = ~dropped
            if s == last:  # the last step builds no coordinates
                rows, outs = kept.nonzero()
                leaves.append((ids[rows], comps[rows], outs, masses[kept]))
                continue
            # outcomes of one rank give rows of one shape: their coordinates
            # are blocks of r consecutive rows of coeffs, one block per outcome
            for r, outs, picks in f.by_rank:
                blocks = coeffs if picks is None else coeffs.take(picks, axis=2)
                rows, which = (kept if picks is None else kept[:, outs]).nonzero()
                if len(rows):
                    pieces.append((
                        ids[rows],
                        outs[which],
                        comps[rows],
                        blocks.reshape(g, before, len(outs), r, after)[rows, :, which].reshape(
                            (len(rows),) + shape[:ax] + (r,) + shape[ax + 1:]
                        ),
                    ))
        if dropping:
            _, comps, lost = _in_node_order(dropping)
            np.add.at(pruned, comps, lost)  # adds one row at a time, in the order given
        if s == last:
            ids, comps, outs, masses = _in_node_order(leaves)
            labels = [
                [prefix + ((m.party, o),) for o in m.outcomes]
                for (_, m, _), (prefix, _) in zip(chosen, nodes)
            ]
            for i, c, o, p in zip(ids.tolist(), comps.tolist(), outs.tolist(), masses.tolist()):
                dists[c][labels[i][o]] = p
        if s == last or not pieces:  # pieces is empty once pruning dropped every branch
            break
        # a child's key is parent * width + outcome index; the keys that
        # occur, counted in increasing order, number the children
        width = max(len(m.outcomes) for _, m, _ in kinds.values())
        keys = [parents * width + outs for parents, outs, _, _ in pieces]
        present = np.zeros(len(nodes) * width, dtype=bool)
        for k in keys:
            present[k] = True
        numbers = np.cumsum(present) - 1
        grown = []
        for key in present.nonzero()[0].tolist():
            parent, o = divmod(key, width)
            (_, m, _), (prefix, bases) = chosen[parent], nodes[parent]
            ax = axes[m.party]
            grown.append((
                prefix + ((m.party, m.outcomes[o]),),
                bases[:ax] + (m._factored.isometries[o],) + bases[ax + 1:],
            ))
        nodes = grown
        by_shape: dict = {}
        for k, (_, _, comps, vecs) in zip(keys, pieces):
            by_shape.setdefault(vecs.shape[1:], []).append((numbers[k], comps, vecs))
        groups = [_in_node_order(parts) for parts in by_shape.values()]
    return dists, pruned.tolist()


def run_exact(
    protocol: Protocol,
    hypotheses: Sequence[MixedHypothesis],
    *,
    prune: float = PRUNE_TOL,
) -> SimulationReport:
    """Propagate every branch of the protocol against every hypothesis.

    Each pure ordering of a hypothesis is followed on its own branches and
    the hypothesis's distribution is their average, so the per-ordering
    distributions used by the order-blindness check come out of the same
    pass; the dense mixed state is never formed. Outcomes below ``prune``
    are dropped as exactly zero; their mass is reported in ``pruned_mass``.
    ``prune`` must lie in [0, 1): at 1 or above every branch would go, and
    the empty distributions would pass every identification check, so any
    other value raises SettingError after the locality and validity checks.
    The threshold applies to each ordering's branches, not to the mixed
    state's: a branch pruned under some orderings keeps only the others'
    share of the average. Either way every transcript's probability moves
    by less than ``prune``, so at the default the two agree within 1e-12.

    Hypotheses are streamed in chunks. All of them share one k, so each
    holds k! rows. A chunk gathers consecutive hypotheses on one state set
    while their rows hold at most 2**14 stacked amplitudes together
    (256 KiB), and always holds at least one hypothesis; :func:`stacked_rows`
    builds the rows of the chunk's subsets at once, and they are dropped
    before the next chunk, so memory holds one chunk's stacked vectors,
    never the ensemble's. That multiplies out each subset's members once
    and gathers all k! orderings from the product, each a coordinate
    permutation of it (exact up to the association of the product);
    :attr:`MixedHypothesis.components` calls the same function, so a
    hypothesis's rows carry the same bits in a chunk as alone. Rows are
    party-major by construction, so each is reshaped in place to one axis
    per party, in layout order.

    Each projector is factored as P_o = W_o W_o^†, with W_o the
    eigenvectors of P_o whose eigenvalues exceed 1/2, and the W_o^† of a
    measurement are stacked, so one matmul on the measured party's axis
    yields the coordinates of every outcome at once. After outcome o the
    branch keeps only its coordinates in range(W_o): that party's axis
    shrinks from its dimension to rank(P_o), and a later measurement of the
    same party acts there through W'^† W_o. Each measurement is checked and
    factored once and caches both, which are pure functions of it, as it is
    frozen and holds a read-only copy of its projectors; so :func:`validate`
    first, or a second run of the same protocol, repeats neither.

    The walk goes over the chunk's transcript tree one level at a time. A
    node is one transcript prefix together with every ordering of the
    chunk that reached it, and the prefix picks the step's measurement.
    The rows of all of a level's nodes that share a row shape, pick the
    same measurement and hold the same isometry on its party's axis form
    one batch, and one matmul, one mass reduction, one ``@ summing`` and
    one prune test measure the whole batch; a variant, a party measured
    again or projectors of unequal rank split a level into several
    batches. Pruning still acts on each ordering alone, and the last step
    computes masses only. Children are numbered in lexicographic (parent,
    outcome index) order, and each level's transcripts and pruned masses
    are taken in node order, so each ordering's transcripts come in
    lexicographic order of their outcome indices and its pruned mass adds
    up node by node.

    Batching does not change a bit: each row meets the same operator
    (W^† or W'^† W_o, formed once per batch from the same factors), the
    same einsum subscripts and the same per-item matmul shape as it would
    alone. A batch only adds rows along the leading axis, which nothing is
    summed over, as a node's orderings already were. So every row's
    coordinates, masses and prune decisions carry the bits of a walk of
    one ordering at a time.

    Soundness: W_o^† W_o = I, so ||P_o psi|| = ||W_o^† psi||; and a later
    projector acts as P' W_o c = W' (W'^† W_o c), so by induction every
    branch norm, hence every transcript probability, is the one the
    projectors give on the full vector, up to rounding. When every row of
    the stacked W^† has a single nonzero entry, exactly 1 or -1 (diagonal
    projectors, such as digit parity or a computational basis), that is
    read off the measurement once, in its factoring, and a party's first
    measurement gathers the selected coordinates of the batch's rows,
    negating where the sign is -1, instead of multiplying. The matmul's row
    computes the same +-x_c plus exact zeros, so the gather gives its bits,
    up to the sign of a zero, which the masses square away. When that
    selection is also the last step, only masses are needed, so the mass of
    every coordinate is read off the batch's rows and the selected ones
    picked, with no gather of coefficients: each selected mass sums the
    same squares in the same order as the gathered row would. A party
    measured again acts through W'^† W_o and stays on the matmul. All of
    this holds only for projective measurements, so after the locality
    check (whose LocalityError comes first) a protocol that fails
    :func:`validate` is refused with ValueError naming the broken step.
    """
    hypotheses = tuple(hypotheses)
    if not hypotheses:
        raise ValueError("run_exact needs at least one hypothesis")
    layout = hypotheses[0].layout
    # the stacked layout is fixed by the single-copy layout and k; compare
    # those rather than build every hypothesis's layout
    shape = (hypotheses[0].state_set.layout, len(hypotheses[0].subset_indices))
    for h in hypotheses[1:]:
        if (h.state_set.layout, len(h.subset_indices)) != shape:
            raise ValueError("hypotheses must share the stacked layout")
    check_locality(protocol, layout)
    checked = validate(protocol)
    if not checked.ok:
        raise ValueError(f"{checked.location}: {checked.message}")
    if not 0 <= prune < 1:
        raise SettingError(f"prune must be a finite number in [0, 1), got {prune!r}")
    sizes = tuple(layout.party_dim(p) for p in layout.parties)
    axes = {p: i for i, p in enumerate(layout.parties)}

    distributions, by_component, pruned_mass = [], [], []
    orders = math.factorial(shape[1])
    for chunk in _chunks(hypotheses, orders * layout.dim):
        amps = stacked_rows(chunk[0].state_set, [h.subset_indices for h in chunk])
        dists, pruned = _walk(protocol.steps, axes, amps.reshape((-1,) + sizes), prune)
        for start in range(0, len(dists), orders):
            comp_dists = tuple(dists[start:start + orders])
            merged: dict = {}
            for d in comp_dists:
                for t, p in d.items():
                    merged[t] = merged.get(t, 0.0) + p / orders
            distributions.append(merged)
            by_component.append(comp_dists)
            pruned_mass.append(sum(p / orders for p in pruned[start:start + orders]))
    return SimulationReport(
        hypotheses, tuple(distributions), tuple(by_component), tuple(pruned_mass)
    )


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: dict | None = None


@dataclass(frozen=True, eq=False)
class Classifier:
    """Total-on-reached-transcripts map from transcript to subset indices."""

    table: Mapping[Transcript, tuple[int, ...]]

    def __call__(self, t: Transcript) -> tuple[int, ...]:
        try:
            return self.table[t]
        except KeyError:
            raise CoverageError(
                f"classifier has no entry for transcript {format_transcript(t)}"
            ) from None


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
    """Half the L1 distance, summed over p's transcripts in insertion order,
    then over q's that p lacks, so the float does not follow the hash seed."""
    total = 0.0
    for t, x in p.items():
        total += abs(x - q.get(t, 0.0))
    for t, y in q.items():
        if t not in p:
            total += abs(y)
    return 0.5 * total


def order_blindness_verdict(report: SimulationReport, tol: float = ATOL) -> Verdict:
    """Do all orderings of each subset induce the same transcript distribution?

    ``tol`` must be a finite number of at least ``TOLERANCE_FLOOR``, as every
    tolerance must (see :func:`check_tolerance`); any other value raises
    SettingError. A pair whose dicts compare equal is skipped: its total
    variation is 0.0, or NaN where an entry is NaN or infinite, and neither
    exceeds ``worst`` (never below 0.0), so the skip changes neither the
    verdict nor the witness.
    """
    check_tolerance(tol)
    worst = 0.0
    witness = None
    for h, comp_dists in zip(report.hypotheses, report.by_component):
        for (ia, da), (ib, db) in itertools.combinations(enumerate(comp_dists), 2):
            if da == db:
                continue
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
    # an insertion-ordered dict per transcript keeps the claimants in
    # enumeration order with a constant-time membership test
    claims: dict[Transcript, dict[tuple[int, ...], None]] = {}
    for h, dist in zip(report.hypotheses, report.distributions):
        for t in dist:
            claims.setdefault(t, {})[h.subset_indices] = None
    ambiguous = sorted(t for t, c in claims.items() if len(c) > 1)
    if ambiguous and on_ambiguity == "error":
        t = ambiguous[0]
        claimants = list(claims[t])
        raise AmbiguityError(
            f"transcript {format_transcript(t)} occurs under "
            f"{len(claimants)} different subsets: {claimants}",
            transcript=t,
            claimants=tuple(claimants),
        )
    return Classifier({t: next(iter(c)) for t, c in claims.items()})


# ---------------------------------------------------------------------------
# builtin protocols


def _two_step(name: str, basis: StateSet) -> Protocol:
    """Party A, then party B, measures its whole block along ``basis``."""
    return Protocol(
        name, tuple(ProtocolStep(basis_measurement(p, basis.states)) for p in ("A", "B"))
    )


def _bell32_protocol() -> Protocol:
    return _two_step("bell32", bell_basis())


def _bell43_protocol() -> Protocol:
    return _two_step("bell43", ghz3_basis())


def builtin_bell32_variants(triple: Sequence[int] = (1, 2, 3)) -> tuple[Protocol, Classifier]:
    """Paired Bell-basis measurements identifying two Bell states of a triple.

    Alice measures her two qubits in the Bell basis, then Bob does the same;
    the classifier identifies which pair out of the triple was distributed
    (by default {B1, B2, B3}). The same protocol run on any single pair in
    both orders produces one and the same distribution, so it identifies
    the pair without ever learning the order.

    ``triple`` lists three distinct Bell indices from 1..4, in any order.
    The classifier is tallied on every call by exhaustive simulation over
    the sorted triple's three pair hypotheses, and construction fails with
    AmbiguityError if two pairs ever share a transcript; all four triples
    tally cleanly, each pair reaching four transcripts at probability 1/4.
    """
    triple = tuple(sorted(triple))
    if len(triple) != 3 or len(set(triple)) != 3 or not all(1 <= i <= 4 for i in triple):
        raise ValueError(f"need three distinct Bell indices from 1..4, got {triple}")
    protocol = _bell32_protocol()
    task = SubsetTask(named_states([f"B{i}" for i in triple]), 2)
    return protocol, derive_classifier(run_exact(protocol, hypothesis_ensemble(task)))


def builtin_bell43() -> tuple[Protocol, Classifier]:
    """Three-qubit GHZ-basis tally for three Bell states out of four.

    Both parties measure their three-qubit blocks in the ghz3 basis and
    tally outcomes. The classifier is tallied on every call, like bell32's,
    by exhaustive simulation over the four 3-subsets of the Bell basis. That
    simulation shows the scheme cannot work: the subsets {0,1,2} and
    {0,2,3} produce identical transcript distributions, as do {0,1,3} and
    {1,2,3}, so each of the 48 reached transcripts is claimed by two
    subsets, at probability 1/24 under each; and individual orderings of a
    subset are distinguishable from one another. Both the identification
    and the order-blindness verdicts therefore come out false. The
    classifier ships anyway, routing every transcript to its first
    claimant, so the failure is reproducible.
    """
    protocol = _bell43_protocol()
    report = run_exact(protocol, hypothesis_ensemble(SubsetTask(bell_basis(), 3)))
    return protocol, derive_classifier(report, on_ambiguity="first")


#: builtin protocols addressable from scripts, by name
PROTOCOLS = {"bell32": _bell32_protocol, "bell43": _bell43_protocol}
