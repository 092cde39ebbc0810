"""Dense references that the engine's fast paths are checked against.

The library never forms a mixed state or a partial trace: it simulates each
ordering's pure component and reads every cut statement off the amplitude
matrix across the cut. These helpers build the dense objects the textbook
way, independently of that code, so tests can compare the two routes.
"""

import math

import numpy as np


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
