"""Quadrature rules acting as discrete measures on an interval or point set.

A rule is the pair (nodes, weights) standing in for integration against a
measure: int f dmu ~= sum_i w_i f(x_i).  Gauss rules are produced by the
Golub-Welsch route: eigenvalues of the symmetric tridiagonal Jacobi matrix
of the orthogonal-polynomial recurrence give the nodes, squared first
eigenvector components (times the zeroth moment) give the weights.
"""
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidArgumentError

MAX_RULE_SIZE = 1024

KIND_GAUSS_LEGENDRE = "gauss-legendre"
KIND_GAUSS_HERMITE_PROB = "gauss-hermite-prob"
KIND_DISCRETE = "discrete"
KIND_CUSTOM = "custom"


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable quadrature rule: finite, strictly increasing nodes and
    finite positive weights.

    Attributes
    ----------
    nodes : ndarray of float, shape (n,)
    weights : ndarray of float, shape (n,)
    kind : str
        One of "gauss-legendre", "gauss-hermite-prob", "discrete", "custom".
    interval : tuple or None
        (a, b) for Gauss-Legendre rules, None otherwise.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = KIND_CUSTOM
    interval: tuple = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.ndim != 1:
            raise InvalidArgumentError("nodes and weights must be 1-d")
        if nodes.size != weights.size:
            raise InvalidArgumentError("nodes and weights must have equal length")
        if nodes.size < 1:
            raise InvalidArgumentError("a rule needs at least one node")
        if nodes.size > MAX_RULE_SIZE:
            raise InvalidArgumentError(
                f"rule size {nodes.size} exceeds the cap of {MAX_RULE_SIZE}"
            )
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise InvalidArgumentError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidArgumentError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise InvalidArgumentError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)

    @property
    def count(self):
        return self.nodes.size

    def integrate(self, values):
        """Weighted sum of node values (vectorized over trailing axes)."""
        values = np.asarray(values)
        return np.tensordot(self.weights, values, axes=(0, 0))

    def to_dict(self):
        d = {
            "kind": self.kind,
            "nodes": self.nodes.tolist(),
            "weights": self.weights.tolist(),
        }
        if self.interval is not None:
            d["interval"] = list(self.interval)
        return d

    @staticmethod
    def from_dict(d):
        interval = tuple(d["interval"]) if d.get("interval") is not None else None
        return QuadratureRule(
            np.asarray(d["nodes"], dtype=float),
            np.asarray(d["weights"], dtype=float),
            kind=d.get("kind", KIND_CUSTOM),
            interval=interval,
        )


def _golub_welsch(offdiag, mu0):
    """Nodes/weights from the symmetric tridiagonal Jacobi matrix.

    The diagonal is zero for the (symmetric-weight) families used here.
    Nodes are the tridiagonal eigenvalues; weights come from the
    Christoffel function, w_i = 1 / sum_k ptilde_k(x_i)^2 over the
    orthonormal-polynomial recurrence.  That sum stays accurate where the
    eigenvector route loses the extreme components to underflow (the
    squared first components drop below ~1e-45 for large Hermite rules).
    """
    n = offdiag.size + 1
    if n == 1:
        return np.array([0.0]), np.array([mu0])
    x = eigh_tridiagonal(np.zeros(n), offdiag, eigvals_only=True)
    # beta_k ptilde_{k+1} = x ptilde_k - beta_{k-1} ptilde_{k-1}, alpha_k = 0
    p_prev = np.zeros(n)
    p = np.full(n, 1.0 / np.sqrt(mu0))
    total = p * p
    for k in range(n - 1):
        beta_prev = offdiag[k - 1] if k > 0 else 0.0
        p_prev, p = p, (x * p - beta_prev * p_prev) / offdiag[k]
        total += p * p
    return x, 1.0 / total


def gauss_legendre(n, a, b):
    """Gauss-Legendre rule with `n` points on [a, b].

    In exact arithmetic it integrates polynomials of degree <= 2n-1
    exactly against Lebesgue measure on the interval.  In floating point
    the nodes, the weights and the moments summed from them carry a few
    units of roundoff: with n = 8 on [0, 1], sum(w * x**2) evaluates to
    1/3 + 1.7e-16 (about 3 ulp).
    """
    n = _check_count(n)
    a = float(a)
    b = float(b)
    if not a < b:
        raise InvalidArgumentError(f"need a < b, got a={a}, b={b}")
    # Legendre recurrence on [-1,1]: offdiag_k = k / sqrt(4k^2 - 1), mu0 = 2
    k = np.arange(1.0, n)
    nodes, weights = _golub_welsch(k / np.sqrt(4.0 * k * k - 1.0), 2.0)
    half = 0.5 * (b - a)
    return QuadratureRule(
        0.5 * (a + b) + half * nodes,
        half * weights,
        kind=KIND_GAUSS_LEGENDRE,
        interval=(a, b),
    )


MAX_HERMITE_SIZE = 320


def gauss_hermite_prob(n):
    """Gauss-Hermite rule for the standard normal density (probabilists').

    Weights sum to 1; polynomials of degree <= 2n-1 are integrated exactly
    against phi(x) = exp(-x^2/2)/sqrt(2*pi).  Sizes are capped at 320: the
    extreme weights decay like exp(-x_max^2/2) and fall out of
    double-precision range soon after.
    """
    n = _check_count(n)
    if n > MAX_HERMITE_SIZE:
        raise InvalidArgumentError(
            f"Hermite rules are capped at {MAX_HERMITE_SIZE} nodes; beyond "
            "that the extreme weights underflow double precision"
        )
    # probabilists' recurrence He_{k+1} = x He_k - k He_{k-1}: offdiag sqrt(k)
    nodes, weights = _golub_welsch(np.sqrt(np.arange(1.0, n)), 1.0)
    return QuadratureRule(nodes, weights, kind=KIND_GAUSS_HERMITE_PROB)


def discrete_measure(points, weights):
    """Rule carrying an explicit atomic measure: sum_i w_i delta(x_i).

    Points may arrive in any order; they are sorted (weights carried along)
    and must be pairwise distinct with positive weights.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.ndim != 1 or weights.ndim != 1 or points.size != weights.size:
        raise InvalidArgumentError("points and weights must be equal-length 1-d")
    if points.size == 0:
        raise InvalidArgumentError("need at least one point")
    order = np.argsort(points)
    points = points[order]
    weights = weights[order]
    if np.any(np.diff(points) == 0):
        raise InvalidArgumentError("points must be pairwise distinct")
    if np.any(weights <= 0):
        raise InvalidArgumentError("weights must be positive")
    return QuadratureRule(points, weights, kind=KIND_DISCRETE)


def _check_count(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidArgumentError(f"count must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {n}")
    if n > MAX_RULE_SIZE:
        raise InvalidArgumentError(f"count {n} exceeds the cap of {MAX_RULE_SIZE}")
    return n
