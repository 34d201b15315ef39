"""Nystrom discretization of integral operators.

Replacing the integral by a quadrature sum turns the operator into the
dense matrix A with block entry A[i, j] = N(x_i, x_j) * w_j.  Alongside A
we keep the raw samples K and the symmetrized form
B = W^{1/2} K W^{1/2}, which shares A's eigenvalues and turns weighted
orthonormality of eigenfunction samples into Euclidean orthonormality.
B's Hermitian defect, the eigh of its Hermitian part (hermitian_eigh) and
A's eigenvalues (spectrum) are computed at most once per operator, on first
use; on an operator Hermitian to roundoff (hermitian_to_roundoff, the one
gate of every Hermitian shortcut) the spectrum is that eigh's values, so
one eigh serves the decompositions, the SVD and the resolvent.  That eigh
runs the LAPACK driver EIGH_DRIVER picks by dtype, the faster one there:
divide and conquer (dsyevd) for a real B, MRRR (zheevr) for a complex one.
K, A and B are float64 for a real kernel and complex128 otherwise; _matvec
applies a real matrix to complex samples (a vector or a matrix of them)
without a complex copy of the matrix.

Node samples live in the discrete L2(mu), <u, v>_W = sum_i w_i conj(u_i) v_i;
block samples are node-major (entry i*s + c is component c at node i), each
node weight repeated over the block's components (w_rows / w_cols).
"""
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    EvaluationError,
    InvalidArgumentError,
    NontrivialityWarning,
    ZeroDivisionSignal,
    _count_arg, _number_arg, _samples_arg,
)
from .kernels import Kernel, _real_point
from .measure import QuadratureRule

UNIT = np.finfo(float).eps / 2  # unit roundoff u

# scipy.linalg.eigh's driver for B's Hermitian part, by dtype kind: divide
# and conquer (dsyevd, as numpy's eigh) for a real B, MRRR (zheevr; Dhillon,
# Parlett & Voemel, ACM TOMS 32(4), 2006) for a complex one.  On Mehler and
# its complex twin (scipy's OpenBLAS 0.3.30, one thread, 2-vCPU Xeon guest),
# dsyevr takes 1.3-1.4x dsyevd's time at N = 32..128 and 0.95-0.99x at 256
# and 1024, while zheevr takes 0.94x zheevd's at N = 128, 0.71x at 256 and
# 0.44x at 1024, for the same full orthonormal family.
EIGH_DRIVER = {"f": "evd", "c": "evr"}


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
    The dtype follows the kernel: a complex K whose imaginary part is
    exactly zero is stored as its float64 real part, and A and B follow K,
    so a real kernel gets real arrays and real LAPACK calls.  Values that
    are complex by contract stay complex: the spectrum, djf_eig's pairs and
    solves at complex lambda.
    K, A and B are made read-only on construction, so nothing cached from
    them can go stale: the Hermitian defect, ``hermitian_eigh`` and the
    spectrum, each computed on first read (never eagerly) and read-only.

    The Hermitian route.  An operator with hermitian_defect() <= n u
    (n = B.shape[0], u = eps / 2; see hermitian_to_roundoff) is decomposed
    by one eigh of its Hermitian part S = (B + B^H) / 2 (LAPACK's dsyevd
    for a real B, zheevr for a complex one; see EIGH_DRIVER), which
    replaces the eig of djf_eig, the svd of operator_svd and the eigvals
    of the spectrum.
    S is within ||B - S||_F = (defect / 2) ||B||_F <= (n u / 2) ||B||_F of B,
    inside the backward error those calls commit (eigvals(A) also carries
    the sqrt(max w / min w) condition of W^{-1/2}), so every answer keeps an
    a priori bound.
    """

    rule: QuadratureRule
    shape: tuple
    K: np.ndarray
    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.K.dtype.kind == "c" and not self.K.imag.any():
            object.__setattr__(self, "K", self.K.real.copy())
        wr, wc = self.w_rows, self.w_cols
        object.__setattr__(self, "A", self.K * wc[None, :])
        object.__setattr__(self, "B", np.sqrt(wr)[:, None] * self.K * np.sqrt(wc)[None, :])
        for M in (self.K, self.A, self.B):
            M.setflags(write=False)

    @cached_property
    def spectrum(self):
        """All eigenvalues of A, complex, computed once and read-only:
        hermitian_eigh's, ascending, when hermitian_to_roundoff() holds, else
        one eigvals(A)'s in LAPACK order (ConvergenceError, caching nothing,
        when it does not converge)."""
        if self.hermitian_to_roundoff():
            return _read_only(self.hermitian_eigh[0].astype(complex))
        self._require_square("a spectrum")
        return _read_only(_linalg("eigvals", self.A).astype(complex, copy=False))

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

    def _require_square(self, what):
        """InvalidArgumentError, naming `what`, unless the block shape is square."""
        if not self.is_square_block:
            raise InvalidArgumentError(f"{what} needs a square block shape, got {self.shape}")

    def hs_norm(self):
        """Quadrature estimate of the Hilbert-Schmidt norm ||N||_2.

        Computed as sqrt(sum_ij w_i w_j ||N(x_i, x_j)||_F^2) = ||B||_F.
        """
        return float(_norm(self.B))

    def hermitian_defect(self):
        """Relative departure of B from Hermitian symmetry,
        ||B - B^H||_F / ||B||_F, computed once.  Raises InvalidArgumentError
        for a block shape that is not square."""
        return self._defect

    @cached_property
    def _defect(self):
        self._require_square("a Hermitian defect")
        S, defect = _hermitian_part(self.B)
        if defect <= self.B.shape[0] * UNIT:  # on the route: hermitian_eigh takes S
            self.__dict__["_hermitian_S"] = S
        return defect

    def hermitian_to_roundoff(self):
        """Whether the Hermitian route applies: a square block shape and
        hermitian_defect() <= n u, n = B.shape[0], u = eps / 2."""
        return self.is_square_block and self.hermitian_defect() <= self.B.shape[0] * UNIT

    @cached_property
    def hermitian_eigh(self):
        """(vals, vecs) of ``scipy.linalg.eigh`` on B's Hermitian part
        (B + B^H) / 2: real eigenvalues ascending, orthonormal columns of B's
        dtype.  Computed on first use, once, and read-only.

        The LAPACK driver follows the dtype (EIGH_DRIVER): dsyevd, numpy's eigh,
        for a real B and the MRRR solver zheevr for a complex one, which
        takes under half of zheevd's time at N = 1024 and returns the same
        full orthonormal family.  The Hermitian part is built once, here or
        (on the Hermitian route) by the defect, handed to LAPACK to
        overwrite and dropped.  Raises InvalidArgumentError when that part
        has an entry that is not finite (zheevr would answer without an
        error) and ConvergenceError when eigh does not converge, caching
        nothing.
        """
        self._require_square("a Hermitian eigendecomposition")
        S = self.__dict__.pop("_hermitian_S", None)
        if S is None:
            S, defect = _hermitian_part(self.B)
            self.__dict__.setdefault("_defect", defect)
            if not np.isfinite(defect):  # finite exactly when S is
                raise InvalidArgumentError("B's Hermitian part has an entry that is not finite")
        vals, vecs = _linalg("eigh", S, lib=scipy.linalg, driver=EIGH_DRIVER[S.dtype.kind],
                             overwrite_a=True, check_finite=False)
        return _read_only(vals), _read_only(vecs)


def _hermitian_part(B):
    """(S, defect) for a square B: its Hermitian part S = (B + B^H) / 2 and
    ||B - B^H||_F / ||B||_F, read off S as 2 ||B - S||_F / ||B||_F since
    B - B^H = 2 (B - S), so no N x N copy of B^H outlives the sum."""
    S = B + B.conj().T
    S *= 0.5
    scale = max(float(_norm(B)), 1e-300)
    return S, 2.0 * float(_norm(B - S)) / scale


def _pow2_scale(X):
    """The power of two s with max |X s| in [1/2, 1), 1 for a zero or
    non-finite X: multiplying by it is exact for every entry that stays in
    the normal range."""
    with np.errstate(over="ignore"):
        top = float(np.max(np.abs(X), initial=0.0))
    return float(np.ldexp(1.0, -np.frexp(top)[1])) if 0.0 < top < np.inf else 1.0


def _no_overflow(norm, X):
    """norm(X) without overflow on the way: only the norms that overflow are
    recomputed, on X * _pow2_scale(X), and scaled back, so every other norm
    keeps its bits."""
    with np.errstate(over="ignore"):
        nrm = norm(X)
    if np.isfinite(nrm).all():
        return nrm
    s = _pow2_scale(X)
    return np.where(np.isfinite(nrm), nrm, norm(X * s) / s)


def _norm(X, axis=None):
    """np.linalg.norm(X, axis=axis), through _no_overflow."""
    return _no_overflow(lambda Y: np.linalg.norm(Y, axis=axis), X)


def _finite_power(n, name, power):
    """power(), an n-th power or a result built from one, with its overflow
    refused: an OverflowError or a result with an entry that is not finite
    raises InvalidArgumentError naming n.  A finite result keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = power()
        except OverflowError:
            out = np.inf
    if not np.isfinite(out).all():
        raise InvalidArgumentError(f"{name} n={n} overflows: its entries are not finite")
    return out


def _read_only(a):
    a.setflags(write=False)
    return a


def _linalg(name, *args, lib=np.linalg, **kwargs):
    """lib.<name>(*args, **kwargs), np.linalg's by default, its LinAlgError
    (numpy's and scipy.linalg's are one class) raised as
    ConvergenceError("<name> did not converge: ...")."""
    try:
        return getattr(lib, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{name} did not converge: {exc}") from exc


def _matvec(M, x):
    """M @ x for a vector or a matrix x.  A real M times a complex x is one
    real product on x's float view, (n, 2) for a vector and (n, 2m) for an
    n x m matrix: numpy's mixed product would first copy M to complex, on
    every call."""
    if M.dtype.kind == "f" and x.dtype.kind == "c":
        x = np.ascontiguousarray(x)
        y = M @ x.view(float).reshape(x.shape[0], -1)
        return y.view(complex).reshape(M.shape[:1] + x.shape[1:])
    return M @ x


def _winner(w, U, V):
    """<u, v>_W for vectors, else per column pair; each sum runs along a
    contiguous row, so a column pair rounds exactly as the lone vectors do."""
    g = np.sum(np.ascontiguousarray(w * np.conj(U.T) * V.T), axis=-1)
    return complex(g) if U.ndim == 1 else g


def _wnorm(w, U):
    """||u||_W for a vector, else per column (rounded as in _winner), through
    _no_overflow."""
    nrm = _no_overflow(
        lambda Y: np.sqrt(np.sum(np.ascontiguousarray(w * np.abs(Y.T) ** 2), axis=-1)), U)
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
    return _matvec(op.A, _samples_arg(f, op.A.shape[1], "f"))


def apply_adjoint(op: DiscreteOperator, p) -> np.ndarray:
    """Node samples of the adjoint image: (W K)^* p = K^H (w * p)."""
    p = _samples_arg(p, op.K.shape[0], "p")
    # conj(K^T conj(w p)) = K^H (w p) without forming K^H, an N x N copy per call
    return np.conj(_matvec(op.K.T, np.conj(op.w_rows * p)))


def iterated_kernel(op: DiscreteOperator, n: int) -> np.ndarray:
    """Node samples of the n-th iterated kernel: X_n = (K W)^{n-1} K.

    n = 1 returns a copy of K and n = 2 returns A @ K.  Larger n is built by
    doubling, from X_{a+b} = X_a W X_b: walking the bits of n below the
    leading one, each bit squares, X <- (X W) X, and each 1 bit then steps
    once more, X <- K (W X).  That is floor(log2 n) + popcount(n) - 1
    matrix products instead of n - 1, with at most three N x N arrays alive.

    The iterate has K's dtype: real products for a real operator.

    Roundoff grows as for the sequential product: if one product rounds
    within g |P| |Q| componentwise (g = gamma_N for N-term real inner
    products, g = sqrt(2) gamma_{2N} for complex ones, in any summation
    order) and scaling by W within u, then
    by induction over X_{a+b} = X_a W X_b, every evaluation order gives
    |computed X_n - X_n| <= (((1 + u)(1 + g))^{n-1} - 1) |K| (W |K|)^{n-1}
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.5).

    Requires a square block shape.  Raises InvalidArgumentError when an
    entry of the iterate is not finite (overflow).
    """
    op._require_square("an iterated kernel")
    n = _count_arg(n, "iterate", 1)

    def doubling():
        X = op.K.copy()
        w = op.w_cols
        for bit in bin(n)[3:]:
            X = (X * w) @ X
            if bit == "1":
                X = op.K @ (w[:, None] * X)
        return X

    return _finite_power(n, "iterate", doubling)


def nystrom_extend(kernel: Kernel, rule: QuadratureRule, eig_samples, nu, y):
    """Off-grid eigenfunction value via the Nystrom interpolant.

    p(y) = nu^{-1} sum_i N(y, x_i) w_i p(x_i), one row of samples at (y, x_i)
    times the weighted samples.  At a node this reproduces the sample up to
    the eigen-residual; a grid-sampled kernel extends only to its own nodes.
    nu must be a finite number and y a finite real number.
    """
    nu = _number_arg(nu, "nu")
    if nu == 0:
        raise ZeroDivisionSignal("cannot extend an eigenfunction with nu = 0")
    s1, s2 = kernel.shape
    p = _samples_arg(eig_samples, rule.count * s2, "eig_samples")
    row = kernel.body._samples(kernel.shape, _real_point(y, "y"), rule.nodes)
    acc = _matvec(row, np.repeat(rule.weights, s2) * p) / nu
    return complex(acc[0]) if s1 == 1 else acc
