"""Kernel gallery: closed-form, finite-rank, and grid-sampled kernels.

A kernel is an s1 x s2 matrix-valued function N(y, z); together with a
quadrature rule it induces an integral operator.  Three bodies are
supported:

* ClosedForm   -- an evaluator (y, z) -> block, total on Omega x Omega
* FiniteRank   -- sum_j nu_j * right_j(y) * left_j(z)^*, finitely many terms
* GridSampled  -- values known only at the node pairs of one rule

Each body samples itself in one method, ``_samples(shape, ys, zs)``: the
blocks N(y, z) at every pair of ys x zs, node-major.  A rule's sample
matrix, one block and a Nystrom row all come from it.  Every call of a
function the caller supplies goes through ``_evaluate``, and finite-rank
terms and basis functions are sampled at nodes alike (``_node_values``).
"""
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    InvalidArgumentError,
    PreconditionViolationError,
    UnsupportedKernelError,
)
from .measure import QuadratureRule


def hermite_he(j, x):
    """Probabilists' Hermite polynomial He_j evaluated elementwise.

    Recurrence: He_{j+1}(x) = x He_j(x) - j He_{j-1}(x), He_0 = 1, He_1 = x.
    """
    if j < 0:
        raise InvalidArgumentError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if j == 0:
        return h_prev
    h = x.copy()
    for k in range(1, j):
        h_prev, h = h, x * h - k * h_prev
    return h


class HermitePair:
    """Degree-j orthonormal Hermite function p_j(x) = He_j(x) / sqrt(j!).

    The family is orthonormal against the standard normal density.
    """

    def __init__(self, degree):
        if degree < 0:
            raise InvalidArgumentError("degree must be >= 0")
        self.degree = int(degree)
        self._scale = 1.0 / math.sqrt(math.factorial(self.degree))

    def __call__(self, x):
        return hermite_he(self.degree, x) * self._scale

    def __repr__(self):
        return f"HermitePair(degree={self.degree})"


def _evaluate(fn, args, shape):
    """fn(*args) as a complex array of `shape`, not copied.

    args are one point, (y, z) or (x,), or whole node arrays whose axes lead
    `shape`.  On node arrays the result is None when fn takes scalars only:
    the call raises TypeError or ValueError, or its result is not laid out
    over the nodes.  Any other failure, and a value at one point with the
    wrong number of entries, raises EvaluationError naming the point.
    """
    on_nodes = isinstance(args[0], np.ndarray)
    try:
        out = np.asarray(fn(*args), dtype=complex)
        if on_nodes and out.shape[: args[0].ndim] != args[0].shape:
            return None
        return out.reshape(shape)
    except Exception as exc:
        if on_nodes and isinstance(exc, (TypeError, ValueError)):
            return None
        if np.size(args[0]) > 1:
            where, pair = f"on node arrays of shape {args[0].shape}", None
        else:  # one point, also when given as one-element arrays
            point = tuple(float(np.ravel(a)[0]) for a in args)
            pair = point if len(point) == 2 else None
            where = f"at {'(y, z)' if pair else 'x'} = {pair or point[0]}"
        raise EvaluationError(f"kernel evaluation failed {where}: {exc}", pair=pair) from exc


def _node_values(fn, xs, s):
    """fn at every node of xs, node-major: xs.size * s entries."""
    out = _evaluate(fn, (xs,), (xs.size * s,))
    if out is None:
        out = np.concatenate([_evaluate(fn, (x,), (s,)) for x in xs])
    return out


def _real_point(v, name):
    """[v] as a float array; v must be a finite real number."""
    if not (isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max):
        raise InvalidArgumentError(f"{name} must be a finite real number, got {v!r}")
    return np.array([v], dtype=float)


@dataclass(frozen=True)
class ClosedForm:
    evaluator: object  # callable (y, z) -> scalar or (s1, s2) block

    def _samples(self, shape, ys, zs):
        # a scalar evaluator is tried once on the meshgrid, a block one pair by pair
        ev = self.evaluator
        if shape == (1, 1):
            K = _evaluate(ev, np.meshgrid(ys, zs, indexing="ij"), (ys.size, zs.size))
            if K is not None:
                return K
        K = np.empty((ys.size, zs.size) + shape, dtype=complex)
        for Ki, y in zip(K, ys):
            for j, z in enumerate(zs):
                Ki[j] = _evaluate(ev, (y, z), shape)
        return K.transpose(0, 2, 1, 3).reshape(ys.size * shape[0], zs.size * shape[1])


@dataclass(frozen=True)
class FiniteRank:
    # terms: tuple of (coefficient, right callable, left callable);
    # the kernel is sum_j coeff_j * right_j(y) * left_j(z)^*
    terms: tuple

    def _samples(self, shape, ys, zs):
        s1, s2 = shape
        K = np.zeros((ys.size * s1, zs.size * s2), dtype=complex)
        for coeff, right, left in self.terms:
            r, l = _node_values(right, ys, s1), _node_values(left, zs, s2)
            K += coeff * np.outer(r, np.conj(l))
        return K


@dataclass(frozen=True)
class GridSampled:
    rule: QuadratureRule
    table: np.ndarray  # a read-only copy of the caller's table

    def __post_init__(self):
        table = np.array(self.table, dtype=complex)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def _samples(self, shape, ys, zs):
        # exact lookup among the rule's nodes: no value off them
        nodes = self.rule.nodes
        index = []
        for xs, s in zip((ys, zs), shape):
            i = np.minimum(np.searchsorted(nodes, xs), nodes.size - 1)
            if not np.array_equal(nodes[i], xs):
                raise UnsupportedKernelError(
                    "grid-sampled kernels evaluate only at their own node pairs")
            index.append((s * i[:, None] + np.arange(s)).ravel())
        return self.table[np.ix_(*index)]


@dataclass(frozen=True)
class Kernel:
    """Matrix-valued kernel with a block shape and one of three bodies."""

    shape: tuple
    body: object

    def __post_init__(self):
        shape, body = self.shape, self.body
        if not (isinstance(shape, (tuple, list)) and len(shape) == 2 and all(
                isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 1
                for s in shape)):
            raise InvalidArgumentError(f"block shape must be two positive integers: {shape!r}")
        s1, s2 = map(int, shape)
        object.__setattr__(self, "shape", (s1, s2))
        if isinstance(body, FiniteRank) and len(body.terms) < 1:
            raise InvalidArgumentError("a finite-rank kernel needs >= 1 term")
        if isinstance(body, GridSampled):
            n = body.rule.count
            if body.table.shape != (n * s1, n * s2):
                raise InvalidArgumentError(f"table shape {body.table.shape} does not match "
                                           f"(n*s1, n*s2) = ({n * s1}, {n * s2})")

    def eval_block(self, y, z):
        """The s1 x s2 block N(y, z) at finite real y and z, sampled as
        sample_matrix samples it."""
        return self.body._samples(self.shape, _real_point(y, "y"), _real_point(z, "z"))

    def sample_matrix(self, rule):
        """Raw sample matrix K with block (i, j) = N(x_i, x_j), node-major."""
        return self.body._samples(self.shape, rule.nodes, rule.nodes)


def mehler_kernel(r):
    """Bivariate-normal density ratio kernel with correlation r, |r| < 1.

    Against the standard normal measure its eigenvalues are r^j with the
    orthonormal Hermite functions He_j/sqrt(j!) as eigenfunctions.
    """
    r = float(r)
    if not abs(r) < 1:
        raise InvalidArgumentError(f"need |r| < 1, got r={r}")
    # Ratio of the correlated bivariate normal density to the product of
    # standard normals.  Exponent: (y^2+z^2)/2 - (y^2 - 2ryz + z^2)/(2(1-r^2))
    # = (2r*y*z - r^2*(y^2+z^2)) / (2*(1-r^2)); prefactor (1-r^2)^{-1/2}.
    c = 1.0 / (2.0 * (1.0 - r * r))
    pref = 1.0 / math.sqrt(1.0 - r * r)

    def evaluator(y, z):
        return pref * np.exp((2.0 * r * y * z - r * r * (y * y + z * z)) * c)

    return Kernel(shape=(1, 1), body=ClosedForm(evaluator))


def separable_kernel(coeffs, rights, lefts, shape=(1, 1)):
    """Finite-rank kernel sum_j coeff_j * right_j(y) * left_j(z)^*.

    The induced operator has at most len(coeffs) nonzero eigenvalues.
    """
    if not (len(coeffs) == len(rights) == len(lefts)):
        raise InvalidArgumentError("coeffs, rights, lefts must have equal length")
    terms = tuple((complex(c), r, l) for c, r, l in zip(coeffs, rights, lefts))
    return Kernel(shape=shape, body=FiniteRank(terms))


def basis_kernel(coeff_matrix, basis, rule, gram_tol=1e-10):
    """Scalar kernel N(y,z) = sum_ab C[a,b] e_a(y) e_b(z)^* on a checked basis.

    The basis functions must be orthonormal under `rule` to `gram_tol`;
    the operator then acts on span{e_a} exactly as the matrix C.
    """
    C = np.asarray(coeff_matrix, dtype=complex)
    m = len(basis)
    if C.shape != (m, m):
        raise InvalidArgumentError("coefficient matrix shape must match basis size")
    E = np.column_stack([_node_values(e, rule.nodes, 1) for e in basis])
    gram = E.conj().T @ (rule.weights[:, None] * E)
    resid = float(np.max(np.abs(gram - np.eye(m))))
    if resid > gram_tol:
        raise PreconditionViolationError(
            f"basis is not orthonormal under the rule: worst Gram residual {resid:.3e}"
        )
    terms = []
    for a in range(m):
        for b in range(m):
            if C[a, b] != 0:
                terms.append((complex(C[a, b]), basis[a], basis[b]))
    if not terms:
        terms.append((0j, basis[0], basis[0]))
    return Kernel(shape=(1, 1), body=FiniteRank(tuple(terms)))


def defective_kernel(lam, m, basis, rule):
    """Finite-rank kernel acting as a single m x m Jordan block on the basis.

    On span{e_1..e_m} the operator maps e_k to lam*e_k + e_{k-1} (e_0 = 0),
    so its restriction is exactly the Jordan block with eigenvalue `lam`.
    """
    if m < 2:
        raise InvalidArgumentError("a defective block needs size >= 2")
    if len(basis) != m:
        raise InvalidArgumentError("basis length must equal the block size")
    J = np.eye(m, dtype=complex) * complex(lam) + np.diag(np.ones(m - 1), 1)
    return basis_kernel(J, basis, rule)


def grid_kernel(rule, table, shape=(1, 1)):
    """Kernel known only through samples at the rule's node pairs: a read-only
    copy of the (n*s1) x (n*s2) table, read by exact lookup of the nodes."""
    return Kernel(shape=shape, body=GridSampled(rule, table))


def orthonormal_poly_basis(rule, count):
    """First `count` polynomials orthonormalized under the rule's measure.

    Gram-Schmidt on monomials in the discrete inner product, applied twice
    for stability.  For Gauss-Legendre rules this yields scaled shifted
    Legendre polynomials; for Gauss-Hermite the normalized He_j family.
    """
    if count < 1:
        raise InvalidArgumentError("count must be >= 1")
    if count > rule.count:
        raise InvalidArgumentError("cannot orthonormalize more functions than nodes")
    x = rule.nodes
    w = rule.weights
    Poly = np.polynomial.Polynomial
    polys = []
    for k in range(count):
        p = Poly.basis(k)
        for _ in range(2):
            for q in polys:
                p = p - Poly(q.coef) * float(np.sum(w * q(x) * p(x)))
        nrm = math.sqrt(float(np.sum(w * p(x) ** 2)))
        p = p / nrm
        polys.append(p)
    return polys
