"""Nystrom discretization of integral operators.

Replacing the integral by a quadrature sum turns the operator into the
dense matrix A with block entry A[i, j] = N(x_i, x_j) * w_j.  Alongside A
we keep the raw samples K and the symmetrized form
B = W^{1/2} K W^{1/2}, which shares A's eigenvalues and turns weighted
orthonormality of eigenfunction samples into Euclidean orthonormality.
The eigenvalues of A are computed at most once per operator, on first use
of DiscreteOperator.spectrum, and shared by every later caller.

Node samples live in the discrete L2(mu), <u, v>_W = sum_i w_i conj(u_i) v_i;
block samples are node-major (entry i*s + c is component c at node i), each
node weight repeated over the block's components (w_rows / w_cols).
"""
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EvaluationError,
    InvalidArgumentError,
    NontrivialityWarning,
    ZeroDivisionSignal,
)
from .kernels import Kernel, _real_point
from .measure import QuadratureRule


@dataclass(frozen=True)
class DiscreteOperator:
    """Discretized integral operator on one quadrature rule.

    Attributes
    ----------
    rule : QuadratureRule
    shape : (s1, s2) kernel block shape
    K : raw kernel samples, (n*s1) x (n*s2), node-major blocks
    A : K with columns scaled by the node weights (drives iteration/solves)
    B : W^{1/2}-symmetrized samples (drives Hermitian/SVD paths)
    spectrum : eigenvalues of A (square block shapes only), computed lazily

    An operator is built from (rule, shape, K) alone; A and B are derived
    from them on construction, the one place that knows their layout.
    K, A and B are made read-only on construction, so the spectrum of A
    cannot go stale: it is computed by one ``np.linalg.eigvals(A)`` the
    first time it is read, cached on the instance and itself read-only.
    Nothing reads it eagerly; the Hermitian, bi-orthogonal, SVD, iterate
    and power paths never touch it.
    """

    rule: QuadratureRule
    shape: tuple
    K: np.ndarray
    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        wr, wc = self.w_rows, self.w_cols
        object.__setattr__(self, "A", self.K * wc[None, :])
        object.__setattr__(self, "B", np.sqrt(wr)[:, None] * self.K * np.sqrt(wc)[None, :])
        for M in (self.K, self.A, self.B):
            M.setflags(write=False)

    @cached_property
    def spectrum(self):
        """All eigenvalues of A in LAPACK order, computed once and read-only."""
        if not self.is_square_block:
            raise InvalidArgumentError("a spectrum needs a square block shape")
        return _read_only(np.linalg.eigvals(self.A))

    @cached_property
    def w_rows(self):
        """Node weights repeated over the block's rows, computed once and read-only."""
        return _read_only(np.repeat(self.rule.weights, self.shape[0]))

    @cached_property
    def w_cols(self):
        """Node weights repeated over the block's columns, computed once and read-only."""
        return _read_only(np.repeat(self.rule.weights, self.shape[1]))

    @property
    def is_square_block(self):
        return self.shape[0] == self.shape[1]

    def hs_norm(self):
        """Quadrature estimate of the Hilbert-Schmidt norm ||N||_2.

        Computed as sqrt(sum_ij w_i w_j ||N(x_i, x_j)||_F^2) = ||B||_F.
        """
        return float(np.linalg.norm(self.B))

    def hermitian_defect(self):
        """Relative departure of B from Hermitian symmetry."""
        scale = max(float(np.linalg.norm(self.B)), 1e-300)
        return float(np.linalg.norm(self.B - self.B.conj().T)) / scale


def _read_only(a):
    a.setflags(write=False)
    return a


def _winner(w, U, V):
    """<u, v>_W for vectors, else per column pair; each sum runs along a
    contiguous row, so a column pair rounds exactly as the lone vectors do."""
    g = np.sum(np.ascontiguousarray(w * np.conj(U.T) * V.T), axis=-1)
    return complex(g) if U.ndim == 1 else g


def _wnorm(w, U):
    """||u||_W for a vector, else per column (rounded as in _winner)."""
    nrm = np.sqrt(np.sum(np.ascontiguousarray(w * np.abs(U.T) ** 2), axis=-1))
    return float(nrm) if U.ndim == 1 else nrm


def _anchor_phase(U):
    """Unit-modulus factor rotating the first maximal-|.| entry of u (of each
    column of a matrix) real positive; 1 for a zero vector or column."""
    ua = np.take_along_axis(U, np.argmax(np.abs(U), axis=0, keepdims=True), axis=0)[0]
    ua = np.where(ua == 0, 1, ua)
    # hypot rounds as abs() of one complex does; np.abs of an array may not
    return np.hypot(ua.real, ua.imag) / ua


def discretize(kernel: Kernel, rule: QuadratureRule) -> DiscreteOperator:
    """Sample a kernel on a rule and assemble K, A, and B.

    Raises EvaluationError, with ``pair`` set to the node pair (y, z), when
    a sample is not finite: the first such entry in row-major order is
    named.  Emits NontrivialityWarning when the sampled kernel is
    numerically zero (useful as a fixture, but no spectral content).
    """
    K = kernel.sample_matrix(rule)
    s1, s2 = kernel.shape
    _check_finite(K, rule, s1, s2)
    op = DiscreteOperator(rule=rule, shape=(s1, s2), K=K)
    if op.hs_norm() == 0.0:
        warnings.warn(
            "discretized kernel is numerically zero (||N||_2 = 0)",
            NontrivialityWarning,
            stacklevel=2,
        )
    return op


def _check_finite(K, rule, s1, s2):
    finite = np.isfinite(K)
    if finite.all():
        return
    row, col = np.argwhere(~finite)[0]
    i, j = int(row) // s1, int(col) // s2
    y, z = float(rule.nodes[i]), float(rule.nodes[j])
    raise EvaluationError(
        f"kernel sample {K[row, col]} at node pair {i}, {j} "
        f"(y={y!r}, z={z!r}) is not finite",
        pair=(y, z),
    )


def apply(op: DiscreteOperator, f) -> np.ndarray:
    """Nystrom image of the operator on node samples: A @ f."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (op.A.shape[1],):
        raise InvalidArgumentError(
            f"sample vector has length {f.shape}, expected ({op.A.shape[1]},)"
        )
    return op.A @ f


def apply_adjoint(op: DiscreteOperator, p) -> np.ndarray:
    """Node samples of the adjoint image: (W K)^* p = K^H (w * p)."""
    p = np.asarray(p, dtype=complex)
    if p.shape != (op.K.shape[0],):
        raise InvalidArgumentError(
            f"sample vector has length {p.shape}, expected ({op.K.shape[0]},)"
        )
    # conj((w p)^H K) = K^H (w p) without forming K^H, an N x N copy per call
    return np.conj(np.conj(op.w_rows * p) @ op.K)


def iterated_kernel(op: DiscreteOperator, n: int) -> np.ndarray:
    """Node samples of the n-th iterated kernel: X_n = (K W)^{n-1} K.

    n = 1 returns a copy of K and n = 2 returns A @ K.  Larger n is built by
    doubling, from X_{a+b} = X_a W X_b: walking the bits of n below the
    leading one, each bit squares, X <- (X W) X, and each 1 bit then steps
    once more, X <- K (W X).  That is floor(log2 n) + popcount(n) - 1
    matrix products instead of n - 1, with at most three N x N arrays alive.

    Roundoff grows as for the sequential product: if one product rounds
    within g |P| |Q| componentwise (g = sqrt(2) gamma_{2N} for N-term complex
    inner products in any summation order) and scaling by W within u, then
    by induction over X_{a+b} = X_a W X_b, every evaluation order gives
    |computed X_n - X_n| <= (((1 + u)(1 + g))^{n-1} - 1) |K| (W |K|)^{n-1}
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.5).

    Requires a square block shape.  Raises InvalidArgumentError when an
    entry of the iterate is not finite (overflow).
    """
    if not op.is_square_block:
        raise InvalidArgumentError("iterated kernels need a square block shape")
    if n < 1:
        raise InvalidArgumentError(f"iterate must be >= 1, got {n}")
    X = np.array(op.K, dtype=complex)
    w = op.w_cols
    with np.errstate(over="ignore", invalid="ignore"):
        for bit in bin(n)[3:]:
            X = (X * w) @ X
            if bit == "1":
                X = op.K @ (w[:, None] * X)
        if not np.isfinite(X).all():
            raise InvalidArgumentError(
                f"iterate n={n} overflows: its entries are not finite"
            )
    return X


def nystrom_extend(kernel: Kernel, rule: QuadratureRule, eig_samples, nu, y):
    """Off-grid eigenfunction value via the Nystrom interpolant.

    p(y) = nu^{-1} sum_i N(y, x_i) w_i p(x_i), one row of samples at (y, x_i)
    times the weighted samples.  At a node this reproduces the sample up to
    the eigen-residual; a grid-sampled kernel extends only to its own nodes.
    nu must be a finite number and y a finite real number.
    """
    big = sys.float_info.max
    if not (isinstance(nu, numbers.Complex) and abs(nu.real) <= big and abs(nu.imag) <= big):
        raise InvalidArgumentError(f"nu must be a finite number, got {nu!r}")
    if nu == 0:
        raise ZeroDivisionSignal("cannot extend an eigenfunction with nu = 0")
    s1, s2 = kernel.shape
    p = np.asarray(eig_samples, dtype=complex)
    if p.shape != (rule.count * s2,):
        raise InvalidArgumentError("eigenfunction samples have the wrong length")
    row = kernel.body._samples(kernel.shape, _real_point(y, "y"), rule.nodes)
    acc = row @ (np.repeat(rule.weights, s2) * p) / complex(nu)
    return complex(acc[0]) if s1 == 1 else acc
