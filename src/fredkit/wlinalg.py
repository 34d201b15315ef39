"""Weighted (quadrature) inner products and normalization helpers.

All node-sample vectors live in the discrete analogue of L2(mu): the
inner product is <u, v>_W = sum_i w_i conj(u_i) v_i, with the quadrature
weight repeated across block components for matrix-valued kernels.
"""
import numpy as np


def expand_weights(weights, block=1):
    """Repeat each node weight `block` times (node-major block layout)."""
    w = np.asarray(weights, dtype=float)
    if block == 1:
        return w
    return np.repeat(w, block)


def winner(w, u, v):
    """Weighted inner product sum_i w_i * conj(u_i) * v_i."""
    return complex(np.sum(w * np.conj(u) * v))


def wnorm(w, u):
    """Weighted 2-norm induced by `winner`."""
    return float(np.sqrt(np.sum(w * np.abs(u) ** 2).real))


def anchor_phase(u):
    """Unit-modulus factor that rotates the largest-|.| entry real positive.

    Ties resolve to the first maximal entry, which makes the convention
    deterministic.  Returns 1.0 for the zero vector.
    """
    a = int(np.argmax(np.abs(u)))
    ua = u[a]
    if ua == 0:
        return 1.0
    return abs(ua) / ua

