"""Independent numpy reference for the simulate-protocols workload.

Nothing here imports subsetid. The state families are rebuilt from their
documented definitions, stacked states are built with plain ``kron`` and
``transpose``, and protocols are followed branch by branch over all the
orderings of a request at once. The harness compares the program's
distributions and verdicts against these within ``TOL``.

A protocol is plain data: a list of steps, each ``(party, measurement,
variants)``, where a measurement is ``(projectors, outcomes)`` on the
party's whole block and ``variants`` maps a transcript prefix to the
measurement used on that branch instead.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: agreement required between the program and this reference
TOL = 1e-9
#: branches below this probability are reported as absent, as in the program
PRUNE = 1e-12


# --- single-copy families: (party dims, list of amplitude vectors) ---


def bell_family():
    """(|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2) on qubits A, B."""
    r = 1 / math.sqrt(2)
    kets = ((0, 3, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 2, -1.0))
    states = []
    for a, b, sign in kets:
        v = np.zeros(4, dtype=complex)
        v[a], v[b] = r, sign * r
        states.append(v)
    return (2, 2), states


def ghz3_family():
    """(|x> +- |x-bar>)/sqrt(2) over the pairs 000/111, 001/110, 010/101, 100/011."""
    r = 1 / math.sqrt(2)
    states = []
    for hi, lo in (("000", "111"), ("001", "110"), ("010", "101"), ("100", "011")):
        for sign in (1.0, -1.0):
            v = np.zeros(8, dtype=complex)
            v[int(hi, 2)], v[int(lo, 2)] = r, sign * r
            states.append(v)
    return (2, 2, 2), states


def ghz4_family():
    """Sixteen +-1/2 states: four ket quadruples times four sign rows."""
    blocks = (
        ("0000", "0111", "1010", "1101"),
        ("0001", "0110", "1011", "1100"),
        ("0010", "0101", "1000", "1111"),
        ("0011", "0100", "1001", "1110"),
    )
    signs = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
    states = []
    for block in blocks:
        for row in signs:
            v = np.zeros(16, dtype=complex)
            for ket, s in zip(block, row):
                v[int(ket, 2)] = s / 2
            states.append(v)
    return (2, 2, 2, 2), states


def ges_family(d: int):
    """(X^a Z^b tensor I) (1/sqrt(d)) sum_j |jj>, in (a, b) order."""
    omega = np.exp(2j * np.pi / d)
    states = []
    for a in range(d):
        for b in range(d):
            v = np.zeros(d * d, dtype=complex)
            for j in range(d):
                v[((j + a) % d) * d + j] = omega ** (j * b) / math.sqrt(d)
            states.append(v)
    return (d, d), states


# --- measurements ---


def basis(vectors):
    """Rank-one projective measurement along orthonormal vectors, outcomes 1..n."""
    projs = [np.outer(v, np.conj(v)) for v in vectors]
    return projs, list(range(1, len(projs) + 1))


def computational(dim: int):
    return basis(list(np.eye(dim, dtype=complex)))


def digit_parity(base: int, digits: int):
    """Two projectors: even and odd digit sum of a base-``base`` register."""
    dim = base ** digits
    digit_sum = [sum(x // base ** i % base for i in range(digits)) for x in range(dim)]
    even = np.diag([1.0 - s % 2 for s in digit_sum]).astype(complex)
    return [even, np.eye(dim, dtype=complex) - even], [1, 2]


# --- stacking and simulation ---


def stacked(states, dims, ordering) -> np.ndarray:
    """Tensor the ordered copies, then regroup party-major (A1..Ak B1..Bk ...)."""
    v = states[ordering[0]]
    for i in ordering[1:]:
        v = np.kron(v, states[i])
    k, nf = len(ordering), len(dims)
    t = v.reshape(tuple(dims) * k)
    return t.transpose([c * nf + f for f in range(nf) for c in range(k)]).reshape(-1)


def _apply(batch: np.ndarray, axis: int, proj: np.ndarray) -> np.ndarray:
    """Apply ``proj`` to party axis ``axis`` (1-based: axis 0 is the batch)."""
    return np.moveaxis(np.tensordot(proj, batch, axes=([1], [axis])), 0, axis)


def distributions(batch: np.ndarray, parties, steps) -> list[dict]:
    """Exact transcript distribution of every state in the batch.

    ``batch`` has shape (n_states, block dim of each party...). Transcripts
    are strings "A:1 B:2"; entries below PRUNE are left out.
    """
    axis = {p: i + 1 for i, p in enumerate(parties)}
    branches = [((), batch)]
    for party, default, variants in steps:
        grown = []
        for prefix, amps in branches:
            projs, outcomes = variants.get(prefix, default)
            for proj, outcome in zip(projs, outcomes):
                out = _apply(amps, axis[party], proj)
                grown.append((prefix + ((party, outcome),), out))
        branches = grown
    dists = [dict() for _ in range(batch.shape[0])]
    for prefix, amps in branches:
        probs = np.sum(np.abs(amps.reshape(amps.shape[0], -1)) ** 2, axis=1)
        key = " ".join(f"{p}:{o}" for p, o in prefix)
        for dist, p in zip(dists, probs):
            if p >= PRUNE:
                dist[key] = float(p)
    return dists


def simulate(family, k: int, steps, parties) -> dict:
    """Reference result for every k-subset of the family, orderings lexicographic.

    Returns the per-ordering distributions, their average per subset, and
    the two verdicts: identification (no transcript reached under two
    subsets) and order blindness (every pair of orderings of a subset within
    TOL in total variation).
    """
    dims, states = family
    block = [d ** k for d in dims]
    subsets = list(itertools.combinations(range(len(states)), k))
    by_component, merged = [], []
    for subset in subsets:
        orders = list(itertools.permutations(subset))
        batch = np.array([stacked(states, dims, o) for o in orders])
        comps = distributions(batch.reshape([len(orders)] + block), parties, steps)
        avg: dict = {}
        for d in comps:
            for t, p in d.items():
                avg[t] = avg.get(t, 0.0) + p / len(comps)
        by_component.append(comps)
        merged.append(avg)
    claims: dict = {}
    for subset, dist in zip(subsets, merged):
        for t in dist:
            claims.setdefault(t, set()).add(subset)
    identified = all(len(c) == 1 for c in claims.values())
    blind = all(
        total_variation(a, b) <= TOL
        for comps in by_component
        for a, b in itertools.combinations(comps, 2)
    )
    return {
        "subsets": [list(s) for s in subsets],
        "distributions": merged,
        "by_component": by_component,
        "identified": identified,
        "order_blind": blind,
    }


def total_variation(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(t, 0.0) - q.get(t, 0.0)) for t in set(p) | set(q))
