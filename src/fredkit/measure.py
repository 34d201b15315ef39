"""Quadrature rules acting as discrete measures on an interval or point set.

A rule is the pair (nodes, weights) standing in for integration against a
measure: int f dmu ~= sum_i w_i f(x_i).  Gauss rules are produced by the
Golub-Welsch route: eigenvalues of the symmetric tridiagonal Jacobi matrix
of the orthogonal-polynomial recurrence give the nodes, Christoffel sums
(times the zeroth moment) give the weights.  Each rule is built as its
nonnegative half and then reflected, so every Gauss-Hermite rule, and every
Gauss-Legendre rule on an interval symmetric about 0, is mirror-symmetric in
its bits (nystrom's reflection route needs that).  The reference rule of each
(family, n) is built once per process and shared frozen (_frozen); the
cache holds at most 64 rules (about 1 MB at the largest sizes).
"""
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidArgumentError, _array_arg, _count_arg, _instance_arg, _number_arg

MAX_RULE_SIZE = 1024

KIND_GAUSS_LEGENDRE = "gauss-legendre"
KIND_GAUSS_HERMITE_PROB = "gauss-hermite-prob"
KIND_DISCRETE = "discrete"
KIND_CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
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
        nodes = _array_arg(self.nodes, "nodes", (None,), real=True)
        weights = _array_arg(self.weights, "weights", nodes.shape, real=True)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        _count_arg(nodes.size, "rule size", 1, MAX_RULE_SIZE)
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
        """Weighted sum of node values (vectorized over trailing axes).

        InvalidArgumentError unless values is an array of finite numbers
        whose leading axis has one entry per node."""
        values = _array_arg(values, "values")
        if values.ndim == 0 or values.shape[0] != self.count:
            raise InvalidArgumentError(
                f"values has shape {values.shape}, expected ({self.count}, ...)")
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


def _rule_arg(rule):
    """rule; InvalidArgumentError unless it is a QuadratureRule, the one
    check of every entry point's rule argument."""
    return _instance_arg(rule, QuadratureRule, "rule")


def _golub_welsch(offdiag, mu0):
    """Nodes/weights from the symmetric tridiagonal Jacobi matrix.

    The diagonal is zero for the (symmetric-weight) families used here.
    Nodes are the tridiagonal eigenvalues; weights come from the
    Christoffel function, w_i = 1 / sum_k ptilde_k(x_i)^2 over the
    orthonormal-polynomial recurrence.  That sum stays accurate where the
    eigenvector route loses the extreme components to underflow (the
    squared first components drop below ~1e-45 for large Hermite rules).
    The rule is symmetric about 0, so only its nonnegative half is kept
    (the middle node of an odd n set to 0.0), weighted, and reflected:
    nodes == -nodes[::-1] and weights == weights[::-1] bit for bit.
    """
    n = offdiag.size + 1
    if n == 1:
        return np.array([0.0]), np.array([mu0])
    x = eigh_tridiagonal(np.zeros(n), offdiag, eigvals_only=True)[n // 2:]
    if n % 2:
        x[0] = 0.0
    # beta_k ptilde_{k+1} = x ptilde_k - beta_{k-1} ptilde_{k-1}, alpha_k = 0
    p_prev = np.zeros(x.size)
    p = np.full(x.size, 1.0 / np.sqrt(mu0))
    total = p * p
    for k in range(n - 1):
        beta_prev = offdiag[k - 1] if k > 0 else 0.0
        p_prev, p = p, (x * p - beta_prev * p_prev) / offdiag[k]
        total += p * p
    w = 1.0 / total
    return np.concatenate((-x[::-1][:n // 2], x)), np.concatenate((w[::-1][:n // 2], w))


# 64 rules of at most 1024 nodes, two float64 arrays each: about 1 MB
_JACOBI_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_JACOBI_CACHE_SIZE)
def _jacobi_rule(kind, n):
    """The read-only reference rule (nodes, weights) of `kind` with n nodes,
    built once per process: Legendre on [-1, 1] with mu0 = 2, or the
    probabilists' Hermite rule with mu0 = 1.  n is a validated int."""
    k = np.arange(1.0, n)
    if kind == KIND_GAUSS_LEGENDRE:
        # Legendre recurrence on [-1,1]: offdiag_k = k / sqrt(4k^2 - 1), mu0 = 2
        nodes, weights = _golub_welsch(k / np.sqrt(4.0 * k * k - 1.0), 2.0)
    else:
        # probabilists' recurrence He_{k+1} = x He_k - k He_{k-1}: offdiag sqrt(k)
        nodes, weights = _golub_welsch(np.sqrt(k), 1.0)
    return _frozen(nodes), _frozen(weights)


def _frozen(a):
    """A view of a read-only array owning its data (a, else a copy of a),
    which no holder of the view can make writeable again."""
    owner = a if a.flags.owndata else a.copy()
    owner.setflags(write=False)
    return owner.view()


def gauss_legendre(n, a, b):
    """Gauss-Legendre rule with `n` points on [a, b].

    In exact arithmetic it integrates polynomials of degree <= 2n-1
    exactly against Lebesgue measure on the interval.  In floating point
    the nodes, the weights and the moments summed from them carry a few
    units of roundoff: with n = 8 on [0, 1], sum(w * x**2) evaluates to
    1/3 + 1.7e-16 (about 3 ulp).

    The rule on [-1, 1] is built once per process for each n and kept,
    shared and frozen, in a cache bounded at 64 rules (_jacobi_rule); each
    call maps it onto [a, b] into new arrays, frozen too.
    """
    n = _count_arg(n, "count", 1, MAX_RULE_SIZE)
    a = _number_arg(a, "a", real=True)
    b = _number_arg(b, "b", real=True)
    if not a < b:
        raise InvalidArgumentError(f"need a < b, got a={a}, b={b}")
    nodes, weights = _jacobi_rule(KIND_GAUSS_LEGENDRE, n)
    half = 0.5 * (b - a)
    return QuadratureRule(
        _frozen(0.5 * (a + b) + half * nodes),
        _frozen(half * weights),
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

    Each n is built once per process and kept in a cache bounded at 64
    rules (_jacobi_rule): every rule of that size shares the same read-only
    nodes and weights arrays.
    """
    n = _count_arg(n, "count", 1, MAX_RULE_SIZE)
    if n > MAX_HERMITE_SIZE:
        raise InvalidArgumentError(
            f"Hermite rules are capped at {MAX_HERMITE_SIZE} nodes; beyond "
            "that the extreme weights underflow double precision"
        )
    nodes, weights = _jacobi_rule(KIND_GAUSS_HERMITE_PROB, n)
    return QuadratureRule(nodes, weights, kind=KIND_GAUSS_HERMITE_PROB)


def discrete_measure(points, weights):
    """Rule carrying an explicit atomic measure: sum_i w_i delta(x_i).

    Points may arrive in any order; they are sorted (weights carried along)
    and must be pairwise distinct with positive weights.
    """
    points = _array_arg(points, "points", (None,), real=True)
    weights = _array_arg(weights, "weights", points.shape, real=True)
    order = np.argsort(points)
    points = points[order]
    weights = weights[order]
    if np.any(np.diff(points) == 0):
        raise InvalidArgumentError("points must be pairwise distinct")
    return QuadratureRule(points, weights, kind=KIND_DISCRETE)

