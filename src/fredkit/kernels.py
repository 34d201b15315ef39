"""Kernel gallery: closed-form, finite-rank, and grid-sampled kernels.

A kernel is an s1 x s2 matrix-valued function N(y, z); together with a
quadrature rule it induces an integral operator.  Three bodies are
supported:

* ClosedForm   -- an evaluator (y, z) -> block, total on Omega x Omega
* FiniteRank   -- sum_j nu_j * right_j(y) * left_j(z)^*, finitely many terms
* GridSampled  -- values known only at the node pairs of one rule

Each body samples itself in one method, ``_samples(shape, ys, zs)``: the
blocks N(y, z) at every pair of ys x zs, node-major.  A rule's sample
matrix, one block and a Nystrom row all come from it.  Finite-rank terms
and basis functions are sampled at nodes alike (``_node_values``).

Every value a function the caller supplies returns is converted by
``_as_samples``, and every failure, of the call or of the conversion, is
refused by ``_failed`` with an EvaluationError naming the point.  Real
values come back as float64 and anything else as complex128, so the dtype
follows the kernel:

* ``_evaluate`` makes one call, on node arrays or at one point;
* a block evaluator, or a scalar one that refuses the meshgrid, is called
  pair by pair in one loop per row of z values.  Each row is converted
  once and written into a (y, s1, z, s2) buffer, so the node-major matrix
  is a free reshape of it.  The buffer takes the dtype of the first row
  and is upcast once if a later row is complex.  On the block-powerit
  benchmark's 2 x 2 kernel (GH256, one BLAS thread, a 2-vCPU Xeon) this
  adds 0.1-0.4 us a pair to the evaluator's own 4.5-5.7 us;
* a finite-rank kernel fills float64 when every coefficient and node value
  is real, and complex128 otherwise.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    InvalidArgumentError,
    PreconditionViolationError,
    UnsupportedKernelError,
    _array_arg, _count_arg, _instance_arg, _number_arg, _shape_arg, _tolerance_arg,
)
from .measure import QuadratureRule, _rule_arg


def hermite_he(j, x):
    """Probabilists' Hermite polynomial He_j evaluated elementwise on x, an
    array of real numbers of any shape.

    Recurrence: He_{j+1}(x) = x He_j(x) - j He_{j-1}(x), He_0 = 1, He_1 = x.
    """
    j = _count_arg(j, "degree")
    x = _array_arg(x, "x", real=True, finite=False)
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
        self.degree = _count_arg(degree, "degree")
        self._scale = 1.0 / math.sqrt(math.factorial(self.degree))

    def __call__(self, x):
        return hermite_he(self.degree, x) * self._scale

    def __repr__(self):
        return f"HermitePair(degree={self.degree})"


def _float_or_complex(values):
    """values as a float64 array when its entries are real numbers (bool,
    integer or float), else as a complex128 array; not copied when it is one."""
    values = np.asarray(values)
    return values.astype(float if values.dtype.kind in "biuf" else complex, copy=False)


def _evaluate(fn, args, shape):
    """fn(*args) as an array of `shape`, not copied: float64 when fn returns
    real numbers, else complex128.

    args are one point, (y, z) or (x,), or whole node arrays whose axes lead
    `shape`.  On node arrays the result is None when fn takes scalars only:
    the call raises TypeError or ValueError, or its result is not laid out
    over the nodes.  Any other failure, and a value at one point with the
    wrong number of entries, raises EvaluationError naming the point.
    """
    try:
        value = fn(*args)
    except Exception as exc:
        return _failed(exc, args)
    return _as_samples(value, args, shape)


def _as_samples(value, args, shape):
    """value, returned by a call at args, converted as _evaluate converts it."""
    try:
        out = _float_or_complex(value)
        if out.shape[: np.ndim(args[0])] != np.shape(args[0]):
            return None
        return out.reshape(shape)
    except Exception as exc:
        return _failed(exc, args)


def _failed(exc, args):
    """None when exc, from a call at args or from converting its value, is a
    TypeError or ValueError on node arrays; else raise EvaluationError naming
    the point (or the node arrays' shape), caused by exc."""
    if isinstance(args[0], np.ndarray) and isinstance(exc, (TypeError, ValueError)):
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


def _callables_arg(fns, name):
    """fns as a tuple; InvalidArgumentError unless it is a list or tuple of
    callables."""
    if not (isinstance(fns, (list, tuple)) and all(callable(f) for f in fns)):
        raise InvalidArgumentError(f"{name} must be a list or tuple of callables")
    return tuple(fns)


def _real_point(v, name):
    """[v] as a float array; v must be a finite real number."""
    return np.array([_number_arg(v, name, real=True)])


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
        # one row of z values at a time, into a (y, s1, z, s2) buffer
        zs = list(zs)
        K = None
        for i, y in enumerate(ys):
            values = []
            try:
                for z in zs:
                    values.append(ev(y, z))
            except Exception as exc:
                _failed(exc, (y, zs[len(values)]))  # at one point: raises
            try:
                row = _float_or_complex(values).reshape((len(zs),) + shape)
            except Exception:  # name the first value that is not one block
                row = np.array([_as_samples(v, (y, z), shape) for v, z in zip(values, zs)])
            if K is None:
                K = np.empty((ys.size, shape[0], len(zs), shape[1]), dtype=row.dtype)
            elif row.dtype != K.dtype and row.dtype.kind == "c":
                K = K.astype(complex)
            K[i] = row.transpose(1, 0, 2)
        return K.reshape(ys.size * shape[0], len(zs) * shape[1])


@dataclass(frozen=True)
class FiniteRank:
    # terms: tuple of (coefficient, right callable, left callable);
    # the kernel is sum_j coeff_j * right_j(y) * left_j(z)^*
    terms: tuple

    def _samples(self, shape, ys, zs):
        # float64 when every coefficient and node value is real: then each
        # term is the real part of its complex form bit for bit, since
        # (a + 0i)(x + 0i) has real part a*x - 0*0, rounded once
        s1, s2 = shape
        terms = [(coeff, _node_values(right, ys, s1), _node_values(left, zs, s2))
                 for coeff, right, left in self.terms]
        real = all(np.imag(c) == 0 and r.dtype.kind == l.dtype.kind == "f" for c, r, l in terms)
        K = np.zeros((ys.size * s1, zs.size * s2), dtype=float if real else complex)
        term = np.empty_like(K)
        # an overflowing product is left inf (or nan), for discretize's
        # finiteness check to name
        with np.errstate(over="ignore", invalid="ignore"):
            if not real:
                # coeff first, into a buffer apart from the product's operands, at
                # every size: numpy's complex multiply rounds by its operand order
                # and, on a one-element array, differently again when run in
                # place, so `coeff * outer`, which numpy runs in place as
                # outer * coeff from 256 KiB up, gave eval_block other bits
                for coeff, r, l in terms:
                    K += np.multiply(coeff, np.outer(r, np.conj(l)), out=term)
                return K
            for coeff, r, l in terms:
                K += np.multiply(np.outer(r, l, out=term), np.real(coeff), out=term)
        return K


@dataclass(frozen=True, eq=False)
class GridSampled:
    rule: QuadratureRule
    table: np.ndarray  # a read-only float or complex copy of the caller's table

    def __post_init__(self):
        _rule_arg(self.rule)
        # a cell that is not finite is discretize's to name, with its node pair
        table = _array_arg(self.table, "table", (None, None), finite=False).copy()
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
        body = self.body
        s1, s2 = shape = _shape_arg(self.shape)
        object.__setattr__(self, "shape", shape)
        if not isinstance(body, (ClosedForm, FiniteRank, GridSampled)):
            raise InvalidArgumentError("a kernel body is a ClosedForm, FiniteRank or "
                                       f"GridSampled, got {type(body).__name__}")
        if isinstance(body, FiniteRank):
            if not (isinstance(body.terms, (list, tuple)) and len(body.terms) >= 1):
                raise InvalidArgumentError("a finite-rank kernel needs >= 1 term")
            for term in body.terms:
                if not (isinstance(term, (list, tuple)) and len(term) == 3
                        and callable(term[1]) and callable(term[2])):
                    raise InvalidArgumentError(
                        f"a finite-rank term is a (number, callable, callable) triple: {term!r}")
                _number_arg(term[0], "finite-rank coefficient")
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


def _kernel_arg(kernel):
    """kernel; InvalidArgumentError unless it is a Kernel, the one check of
    every entry point's kernel argument."""
    return _instance_arg(kernel, Kernel, "kernel")


def mehler_kernel(r):
    """Bivariate-normal density ratio kernel with correlation r, |r| < 1.

    Against the standard normal measure its eigenvalues are r^j with the
    orthonormal Hermite functions He_j/sqrt(j!) as eigenfunctions.
    """
    r = _number_arg(r, "r", real=True)
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
    coeffs = _array_arg(coeffs, "coeffs", (None,))
    rights, lefts = _callables_arg(rights, "rights"), _callables_arg(lefts, "lefts")
    if not (coeffs.size == len(rights) == len(lefts)):
        raise InvalidArgumentError("coeffs, rights, lefts must have equal length")
    terms = tuple(zip(coeffs.tolist(), rights, lefts))
    return Kernel(shape=shape, body=FiniteRank(terms))


def basis_kernel(coeff_matrix, basis, rule, gram_tol=1e-10):
    """Scalar kernel N(y,z) = sum_ab C[a,b] e_a(y) e_b(z)^* on a checked basis.

    The basis, one function or more, must be orthonormal under `rule` to
    `gram_tol`, a finite number >= 0; the operator then acts on span{e_a}
    exactly as the matrix C.
    """
    gram_tol = _tolerance_arg(gram_tol, "gram_tol")
    basis, rule = _callables_arg(basis, "basis"), _rule_arg(rule)
    m = len(basis)
    if not m:
        raise InvalidArgumentError("basis is empty: a basis kernel needs one function or more")
    C = _array_arg(coeff_matrix, "coeff_matrix", (m, m))
    E = np.column_stack([_node_values(e, rule.nodes, 1) for e in basis])
    gram = E.conj().T @ (rule.weights[:, None] * E)
    resid = float(np.max(np.abs(gram - np.eye(m))))
    if resid > gram_tol:
        raise PreconditionViolationError(
            f"basis is not orthonormal under the rule: worst Gram residual {resid:.3e}"
        )
    terms = [(c, basis[a], basis[b]) for a, row in enumerate(C.tolist())
             for b, c in enumerate(row) if c != 0]
    return Kernel(shape=(1, 1), body=FiniteRank(tuple(terms or [(0j, basis[0], basis[0])])))


def defective_kernel(lam, m, basis, rule):
    """Finite-rank kernel acting as a single m x m Jordan block on the basis.

    On span{e_1..e_m} the operator maps e_k to lam*e_k + e_{k-1} (e_0 = 0),
    so its restriction is exactly the Jordan block with eigenvalue `lam`.
    """
    m = _count_arg(m, "block size", 2)
    if len(_callables_arg(basis, "basis")) != m:
        raise InvalidArgumentError("basis length must equal the block size")
    J = np.eye(m, dtype=complex) * _number_arg(lam, "lam") + np.diag(np.ones(m - 1), 1)
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
    count = _count_arg(count, "count", 1, _rule_arg(rule).count)
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
