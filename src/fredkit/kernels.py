"""Kernel gallery: closed-form, finite-rank, and grid-sampled kernels.

A kernel is an s1 x s2 matrix-valued function N(y, z); together with a
quadrature rule it induces an integral operator.  Three bodies are
supported:

* ClosedForm   -- an evaluator (y, z) -> block, total on Omega x Omega
* FiniteRank   -- sum_j nu_j * right_j(y) * left_j(z)^*, finitely many terms
* GridSampled  -- values known only at the node pairs of one rule
"""
import math
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


def _eval_samples(fn, nodes, block):
    """Evaluate a (possibly non-vectorized) function at all nodes.

    Returns an (n, block) complex array.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    try:
        out = np.asarray(fn(nodes), dtype=complex)
        if block == 1 and out.shape in ((), (n,)):
            return np.broadcast_to(np.atleast_1d(out), (n,)).reshape(n, 1)
        if out.shape == (n, block):
            return out
    except Exception:
        pass
    rows = np.empty((n, block), dtype=complex)
    for i, x in enumerate(nodes):
        v = np.asarray(fn(x), dtype=complex).reshape(block)
        rows[i] = v
    return rows


@dataclass(frozen=True)
class ClosedForm:
    evaluator: object  # callable (y, z) -> scalar or (s1, s2) block


@dataclass(frozen=True)
class FiniteRank:
    # terms: tuple of (coefficient, right callable, left callable);
    # the kernel is sum_j coeff_j * right_j(y) * left_j(z)^*
    terms: tuple


@dataclass(frozen=True)
class GridSampled:
    rule: QuadratureRule
    table: np.ndarray


@dataclass(frozen=True)
class Kernel:
    """Matrix-valued kernel with a block shape and one of three bodies."""

    shape: tuple
    body: object

    def __post_init__(self):
        s1, s2 = self.shape
        if s1 < 1 or s2 < 1:
            raise InvalidArgumentError("block shape entries must be >= 1")
        if isinstance(self.body, FiniteRank) and len(self.body.terms) < 1:
            raise InvalidArgumentError("a finite-rank kernel needs >= 1 term")

    @property
    def is_grid(self):
        return isinstance(self.body, GridSampled)

    def eval_block(self, y, z):
        """Evaluate the s1 x s2 block at a single point pair."""
        s1, s2 = self.shape
        body = self.body
        if isinstance(body, ClosedForm):
            try:
                val = np.asarray(body.evaluator(y, z), dtype=complex)
            except Exception as exc:
                raise EvaluationError(
                    f"kernel evaluation failed at (y={y!r}, z={z!r}): {exc}",
                    pair=(y, z),
                ) from exc
            return val.reshape(s1, s2)
        if isinstance(body, FiniteRank):
            block = np.zeros((s1, s2), dtype=complex)
            for coeff, right, left in body.terms:
                r = np.asarray(right(y), dtype=complex).reshape(s1)
                l = np.asarray(left(z), dtype=complex).reshape(s2)
                block += coeff * np.outer(r, np.conj(l))
            return block
        # grid-sampled: defined only at node pairs of its own rule
        nodes = body.rule.nodes
        iy = np.searchsorted(nodes, y)
        iz = np.searchsorted(nodes, z)
        if (
            iy >= nodes.size
            or iz >= nodes.size
            or nodes[iy] != y
            or nodes[iz] != z
        ):
            raise UnsupportedKernelError(
                "grid-sampled kernels evaluate only at their own node pairs"
            )
        return self.body.table[iy * s1 : (iy + 1) * s1, iz * s2 : (iz + 1) * s2]

    def sample_matrix(self, rule):
        """Raw sample matrix K with block (i, j) = N(x_i, x_j), node-major."""
        s1, s2 = self.shape
        nodes = rule.nodes
        n = nodes.size
        body = self.body
        if isinstance(body, GridSampled):
            if not body.rule.same_nodes_as(rule):
                raise UnsupportedKernelError(
                    "grid-sampled kernel was tabulated on a different rule"
                )
            return np.array(body.table, dtype=complex)
        if isinstance(body, FiniteRank):
            K = np.zeros((n * s1, n * s2), dtype=complex)
            for coeff, right, left in body.terms:
                r = _eval_samples(right, nodes, s1).reshape(n * s1)
                l = _eval_samples(left, nodes, s2).reshape(n * s2)
                K += coeff * np.outer(r, np.conj(l))
            return K
        if s1 == 1 and s2 == 1:
            try:
                Y, Z = np.meshgrid(nodes, nodes, indexing="ij")
                K = np.asarray(body.evaluator(Y, Z), dtype=complex)
                if K.shape == (n, n):
                    return K
            except Exception:
                pass
        K = np.empty((n * s1, n * s2), dtype=complex)
        for i, y in enumerate(nodes):
            for j, z in enumerate(nodes):
                K[i * s1 : (i + 1) * s1, j * s2 : (j + 1) * s2] = self.eval_block(y, z)
        return K


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
    if len(coeffs) < 1:
        raise InvalidArgumentError("need at least one term")
    terms = tuple((complex(c), r, l) for c, r, l in zip(coeffs, rights, lefts))
    return Kernel(shape=tuple(shape), body=FiniteRank(terms))


def basis_kernel(coeff_matrix, basis, rule, gram_tol=1e-10):
    """Scalar kernel N(y,z) = sum_ab C[a,b] e_a(y) e_b(z)^* on a checked basis.

    The basis functions must be orthonormal under `rule` to `gram_tol`;
    the operator then acts on span{e_a} exactly as the matrix C.
    """
    C = np.asarray(coeff_matrix, dtype=complex)
    m = len(basis)
    if C.shape != (m, m):
        raise InvalidArgumentError("coefficient matrix shape must match basis size")
    E = np.column_stack([_eval_samples(e, rule.nodes, 1).ravel() for e in basis])
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
    """Kernel known only through samples at the rule's node pairs."""
    s1, s2 = shape
    table = np.asarray(table, dtype=complex)
    n = rule.count
    if table.shape != (n * s1, n * s2):
        raise InvalidArgumentError(
            f"table shape {table.shape} does not match (n*s1, n*s2) = "
            f"({n * s1}, {n * s2})"
        )
    return Kernel(shape=(s1, s2), body=GridSampled(rule, table))


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
