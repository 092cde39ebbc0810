"""Dense references that the engine's fast paths are checked against.

The library never forms a mixed state or a partial trace: it simulates each
ordering's pure component and reads every cut statement off the amplitude
matrix across the cut. These helpers build the dense objects the textbook
way, independently of that code, so tests can compare the two routes.

:func:`per_ordering_run` walks one ordering and one branch at a time, with
the same factored projectors. ``run_exact`` runs the same walk with every
ordering of a chunk that reached a transcript batched into that node's
rows. Batching must not show in the results, so the transcripts, their
order and their probabilities of this walk are the reference.
"""

import math

import numpy as np

from subsetid.protocols import _Factored


def dense_rho(hypothesis):
    """The order-averaged hypothesis as a matrix: sum_mu |c_mu><c_mu| / k!."""
    amps = hypothesis.components
    return amps.T @ amps.conj() / len(amps)


def partial_trace(rho, dims, keep):
    """Trace out every factor not in ``keep``; kept factors stay in order.

    ``rho`` acts on factors of the given dimensions, leftmost most
    significant; ``keep`` holds factor positions.
    """
    n = len(dims)
    kept = sorted(set(keep))
    row = list(range(n))
    col = [n + i if i in kept else i for i in range(n)]
    out = kept + [n + i for i in kept]
    d = math.prod(dims[i] for i in kept)
    return np.einsum(rho.reshape(tuple(dims) * 2), row + col, out).reshape(d, d)


def _run_pure(protocol, axes: dict, factored: dict, amps: np.ndarray, prune: float):
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


def per_ordering_run(protocol, hypotheses, prune):
    """(distributions, by_component, pruned_mass) of ``run_exact``, each
    ordering of each hypothesis walked on its own."""
    layout = hypotheses[0].layout
    factored = {
        m: _Factored.of(m) for step in protocol.steps for _, m in step.all_measurements()
    }
    parties = layout.parties
    sizes = tuple(layout.party_dim(p) for p in parties)
    axes = {p: i for i, p in enumerate(parties)}

    distributions = []
    by_component = []
    pruned_mass = []
    for h in hypotheses:
        runs = [
            _run_pure(protocol, axes, factored, row.reshape(sizes), prune)
            for row in h.components
        ]
        comp_dists = tuple(d for d, _ in runs)
        merged: dict = {}
        for d in comp_dists:
            for t, p in d.items():
                merged[t] = merged.get(t, 0.0) + p / len(comp_dists)
        distributions.append(merged)
        by_component.append(comp_dists)
        pruned_mass.append(sum(p / len(runs) for _, p in runs))
    return distributions, by_component, pruned_mass
