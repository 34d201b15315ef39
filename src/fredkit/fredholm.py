"""Resolvent solves, Fredholm determinants, and first/second-kind equations.

The second-kind equation p - lambda*N p = f is solved directly through an
LU factorization of (I - lambda*A) with a condition estimate guarding
eigenvalue proximity; series forms built from a bi-orthogonal
decomposition are provided for validation.  That LU is the one of every
lambda-path (_lu): resolvent solves, resolvent kernels, the direct
determinant, read off its diagonal and pivots, and each log-derivative path
point.  It is real for a real lambda on a real operator, and the last
lambda's is kept on the operator, so a solve and a determinant at one
lambda pay for one LU (Bornemann, Math. Comp. 79 (2010)).  It factors
the kept block of M = I - K_e (lambda w_e), the system in the order of the
operator's node partition (DiscreteOperator.node_partition): kept nodes a,
then the nodes t whose rows and columns of B sit below rounding of ||B||_F
(104 of 256 for Mehler r = 1/2 on Gauss-Hermite 256), each part by
decreasing weight, since a rule whose weights span hundreds of decades,
eliminated lightest first, runs in subnormal arithmetic.  There M_at and
M_tt's strict upper triangle are below rounding of B and M_tt's diagonal
is 1 to rounding, so det M = det M_aa to rounding, and a solve inverts
M~ = [[M_aa, 0], [M_ta, L]], L = tril(M_tt): the tail rows by the Nystrom
formula x_t = b_t + lambda (K W x)_t, node by node, then one refinement
pass on M (_guarded_solve).  With nothing dropped, as on every
Gauss-Legendre operator the tests run, each lambda-path keeps its bits.
Fredholm convention throughout: the "eigenvalues" lambda_j are the
reciprocals 1/nu_j of the operator eigenvalues, and the determinant
D(lambda) vanishes exactly there.

One pole rule (_guard_pole) decides every refusal near the spectrum:
lambda is too near when its gap to the Fredholm eigenvalue nearest it in
absolute distance is at most rtol times that eigenvalue's modulus, with
rtol = GAP_RTOL (1e-8) for solves and resolvent kernels, SERIES_RTOL
(1e-12) for the eigen-series over their truncation, and PATH_RTOL (1e-3) at
each log-derivative path point.  The error raised names the eigenvalue and
carries it as ``nearest``, with ``gap``.

The product determinant reads all the eigenvalues of the operator's one
eigen-family (DiscreteOperator.family), the guards its first `retained`,
the pairs the decompositions keep: a lambda sweep over one operator, and
its decompositions, pay for one eigensolve.
"""
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    EigenvalueProximityError,
    InvalidArgumentError,
    NoSolutionError,
    PoleError,
    _array_arg, _count_arg, _number_arg, _tolerance_arg,
)
from .nystrom import (
    DiscreteOperator, _apply_A, _matvec, _narrowed, _norm, _on_float_view, _operator_arg,
    _pow2_scale, _read_only, _weighted_products,
)
from .spectral import BiSpectralDecomposition, _decomposition_arg, _unrefused

# relative pole distances below which lambda is refused (_guard_pole)
GAP_RTOL = 1e-8           # direct solves and resolvent kernels
SERIES_RTOL = 1e-12       # eigen-series forms
PATH_RTOL = 1e-3          # every point of a log-derivative path
COND_LIMIT = 1e10
TAIL_CUTOFF = 1e-14


@dataclass(frozen=True, eq=False)
class ResolventSolve:
    """Solution record of (I - lambda*N) p = f."""

    lam: complex
    solution: np.ndarray
    residual: float
    nearest_eigen_gap: float


@dataclass(frozen=True)
class DeterminantEval:
    """One determinant evaluation D(lambda) with the method used."""

    lam: complex
    value: complex
    method: str


def _fredholm_lambdas(op):
    """lambda_j = 1/nu_j over the family's retained pairs, its first
    `retained`: the guards cut where the decompositions do."""
    family = op.family
    return 1.0 / family.eigenvalues[:family.retained]


def _guard_pole(lam, lambdas, rtol, error=EigenvalueProximityError, name="lambda"):
    """The one pole rule: (gap, nearest) for the Fredholm eigenvalue nearest
    lam in absolute distance, (inf, None) when there is none; raises `error`,
    naming that eigenvalue, when gap <= rtol * |nearest|."""
    if lambdas.size == 0:
        return np.inf, None
    dists = np.abs(lambdas - lam)
    i = int(np.argmin(dists))
    gap, nearest = float(dists[i]), complex(lambdas[i])
    if gap <= rtol * abs(nearest):
        raise error(f"{name}={lam:.6g} is within {rtol:g} relative of the Fredholm "
                    f"eigenvalue {nearest:.6g}", nearest=nearest, gap=gap)
    return gap, nearest


def _system(op, lam):
    """P (I - lambda*A) P^T = I - K_e (lambda w_e), the system in the node
    partition's order (DiscreteOperator.node_partition: the kept nodes
    first, each part by decreasing weight), built in one pass over K_e, in
    the dtype of lambda and K: real for a real lambda on a real operator.
    The one expression every LU and every refinement residual builds, so a
    rebuilt system has the bits the factored one had."""
    part = op.node_partition
    with np.errstate(over="ignore", invalid="ignore"):
        M = part.K_e * ((-_narrowed(lam)) * part.w_e)
        M.reshape(-1)[:: M.shape[0] + 1] += 1.0  # the diagonal
    return M


def _lapack(name, *args, **kwargs):
    """LAPACK's `name` on args, looked up at each call for the first one's
    dtype, its outputs but info (one output as itself); a negative info, an
    illegal argument, raises ValueError."""
    *out, info = get_lapack_funcs(name, args[:1])(*args, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    return out[0] if len(out) == 1 else out


def _getrf(M):
    """(lu, piv) of M from LAPACK getrf, the pivots 0-based, as lu_factor
    gives them.  An exactly zero pivot is no error here: it shows as
    rcond = 0 and as D = 0."""
    return _lapack("getrf", M)


def _lu(op, lam):
    """(M, lu, piv): the LU factorization of M_aa, the kept block of
    M = _system(op, lam), its nodes of largest weight eliminated first.
    The one LU of every lambda-path -- solves, resolvent kernels, direct
    determinants, log-derivative path points -- cached on the operator for
    the last lambda, so one lambda's solve and determinant share it.  The
    cache keeps the factors, not M: M is returned when this call built it
    and None when the factors come from the cache."""
    cached = op.__dict__.get("_lu")
    if cached is not None and cached[0] == lam:
        return (None,) + cached[1:]
    M = _system(op, lam)
    k = op.node_partition.kept_count
    lu, piv = _getrf(M[:k, :k])
    op.__dict__["_lu"] = (lam, _read_only(lu), _read_only(piv))
    return M, lu, piv


def _lu_solve(lu, piv, rhs):
    """M^{-1} rhs from M's LU, a real LU on a complex rhs's float view."""
    return _on_float_view(lu, lambda y: _lapack("getrs", lu, piv, y), rhs)


def _slogdet(lu, piv):
    """(sign, log|det M|) from M's LU, as numpy's slogdet: sign is +-1 for a
    real LU and of unit modulus for a complex one, det M = sign exp(log|det M|);
    (0, -inf) when a pivot is exactly zero."""
    d = lu.diagonal()
    absd = abs(d)
    if not absd.all():
        return 0.0, -np.inf
    odd = np.count_nonzero(piv != np.arange(piv.size)) % 2
    with np.errstate(invalid="ignore"):  # an infinite pivot: a sign that is not finite
        sign = (d / absd).prod()
    return (-sign if odd else sign), float(np.log(absd).sum())


def _reciprocal(rcond):
    """1 / rcond, inf for rcond = 0: an estimate of ||X^-1||_1 or a condition."""
    return np.inf if rcond == 0 else 1.0 / float(rcond)


def _condition(op, lam, M, lu):
    """The guard's 1-norm condition estimate of M in the node partition's
    order (inf for an exactly singular factor; InvalidArgumentError, naming
    lambda, when ||M||_1 overflows): LAPACK gecon's (Hager-Higham) from M's
    LU when nothing is dropped, else ||M~||_1 times a bound on ||M~^-1||_1.
    M~^-1 = [[M_aa^-1, 0], [-L^-1 M_ta M_aa^-1, L^-1]], so with e gecon's
    estimate of ||M_aa^-1||_1 and v = C^-T 1 for L's comparison matrix C
    (|l_ii| on the diagonal, -|l_ij| below; |L^-1| <= C^-1, Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 8.3) the bound is
    max(max v, (1 + max v^T |M_ta|) e): max(1, (1 + ||M_ta||_1) e) for L = I."""
    k = op.node_partition.kept_count
    with np.errstate(over="ignore", invalid="ignore"):
        kept, C = np.abs(M[:, :k]), -np.abs(np.tril(M[k:, k:]))
        anorm = float(max(np.max(kept.sum(axis=0)), np.max(-C.sum(axis=0), initial=0.0)))
    if not np.isfinite(anorm):
        raise InvalidArgumentError(
            f"I - lambda*A at lambda={lam:.6g} has 1-norm {anorm}, not a finite number")
    if not C.size:
        return _reciprocal(_lapack("gecon", lu, anorm))
    C.reshape(-1)[:: C.shape[0] + 1] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        v = _lapack("trtrs", C, np.ones(C.shape[0]), lower=1, trans=1)
        e = _reciprocal(_lapack("gecon", lu, 1.0))
        return anorm * float(max(np.max(v), (1.0 + np.max(v @ kept[k:])) * e))


def _guarded_lu(op, lam):
    """(M, lu, piv, nearest_eigen_gap) of M = I - lambda*A in the node
    partition's order and of its kept block's LU, as _lu gives them (M
    rebuilt when the factors come from the cache), refusing lambda near the
    cached spectrum or a condition estimate above 1e10 (_condition), and a
    lambda so large that M or its 1-norm overflows."""
    gap, nearest = _guard_pole(lam, _fredholm_lambdas(op), GAP_RTOL)
    M, lu, piv = _lu(op, lam)
    if M is None:
        M = _system(op, lam)
    cond = _condition(op, lam, M, lu)
    if cond > COND_LIMIT:
        raise EigenvalueProximityError(
            f"system condition {cond:.3e} exceeds 1e10 near lambda={lam:.6g}; "
            f"nearest Fredholm eigenvalue {nearest}",
            nearest=nearest,
            gap=gap,
        )
    return M, lu, piv, gap


def _guarded_solve(op, lam, rhs):
    """Solve (I - lambda*A) X = rhs through _guarded_lu in the node
    partition's order, rhs permuted once on the way in and X once on the way
    out: each solve is of M~ (x_a from M_aa's LU, then L x_t = b_t - M_ta x_a
    by trtrs), with one refinement pass on M.  Returns (X, nearest_eigen_gap);
    raises InvalidArgumentError, naming lambda, when an entry of X overflows."""
    M, lu, piv, gap = _guarded_lu(op, lam)
    part = op.node_partition
    k = part.kept_count
    L = np.asfortranarray(M[k:, k:])  # LAPACK's layout, copied once

    def solve(b):
        y = _lu_solve(lu, piv, b[:k])
        if not L.size:
            return y
        tail = b[k:] - _matvec(M[k:, :k], y)
        return np.concatenate((y, _on_float_view(L, lambda z: _lapack("trtrs", L, z, lower=1),
                                                 tail)))

    b = rhs[part.order]
    with np.errstate(over="ignore", invalid="ignore"):
        Y = solve(b)
        Y = Y + solve(b - _matvec(M, Y))  # one refinement pass
    if not np.isfinite(Y).all():
        raise InvalidArgumentError(f"the solve at lambda={lam:.6g} overflows")
    X = np.empty_like(Y)
    X[part.order] = Y
    return X, gap


def resolvent_solve(op: DiscreteOperator, lam, f) -> ResolventSolve:
    """Solve (I - lambda*A) p = f directly with LU and a condition guard.

    Raises EigenvalueProximityError, reporting the nearest Fredholm
    eigenvalue, when lambda sits within 1e-8 relative of the spectrum or
    the system's condition estimate exceeds 1e10.  The guard reads the
    operator's cached family, and the LU is the one per operator and lambda
    that resolvent_kernel and the direct determinant share, real at a real
    lambda on a real operator, where p is real for a real f and a complex f
    is solved on its float view.  That LU is of the node partition's kept
    block, its nodes eliminated by decreasing weight; p's tail rows come
    from the Nystrom formula p_t = f_t + lambda (K W p)_t, node by node in
    decreasing weight, and one refinement pass on the full system follows
    (_guarded_solve).  The condition estimate bounds the system that solve
    inverts (_condition), and is gecon's of I - lambda*A when nothing
    is dropped.  It solves for f s, s = nystrom._pow2_scale(f), and returns
    that solution over s, exact in the normal range, so a subnormal or huge f
    solves as its scaled copy does.  A non-finite lambda or f, or a solution
    or residual that overflows, raises InvalidArgumentError.  The residual
    is ||r|| / ||f|| at that scale, in nystrom._norm's norms.
    """
    _operator_arg(op)._require_square("a resolvent solve")
    lam = _number_arg(lam, "lambda")
    f = _array_arg(f, "f", (op.K.shape[0],))
    s = _pow2_scale(f)
    f = f * s
    p, gap = _guarded_solve(op, lam, f)
    with np.errstate(over="ignore", invalid="ignore"):
        r = p - _narrowed(lam) * _apply_A(op, p) - f
        scale, residual = float(_norm(f)), float(_norm(r))
        p /= s
    if not (np.isfinite(residual) and np.isfinite(p).all()):
        raise InvalidArgumentError(f"the solution or residual at lambda={lam:.6g} overflows")
    if scale > 0:
        residual /= scale
    return ResolventSolve(lam=lam, solution=p, residual=residual, nearest_eigen_gap=gap)


def resolvent_kernel(op: DiscreteOperator, lam) -> np.ndarray:
    """Node samples of the resolvent kernel N_lambda = (I - lambda*A)^{-1} K.

    Satisfies both defining identities (the Neumann-series form)
    lambda * A @ N_lambda = N_lambda - K = lambda * N_lambda @ (W K).
    Guarded as resolvent_solve is, against the cached spectrum, and solved
    as it is, with the same one LU per operator and lambda of the node
    partition's kept block; real at a real lambda on a real operator.
    """
    _operator_arg(op)._require_square("a resolvent kernel")
    NL, _gap = _guarded_solve(op, _number_arg(lam, "lambda"), op.K)
    return NL


def _series_lambdas(d, k, lam):
    lambdas = 1.0 / d.eigenvalues[: _count_arg(k, "truncation", 0, d.retained)]
    _guard_pole(lam, lambdas, SERIES_RTOL, PoleError)
    return lambdas


def resolvent_series(d: BiSpectralDecomposition, lam, k: int) -> np.ndarray:
    """Partial-sum resolvent sum_{j<=k} p_j q_j^* / (lambda_j - lambda).

    Equals resolvent_kernel at full truncation on finite-rank kernels.
    Raises PoleError when lambda is within 1e-12 relative of the nearest
    of the k Fredholm eigenvalues.
    """
    lam = _number_arg(lam, "lambda")
    lambdas = _series_lambdas(_decomposition_arg(d), k, lam)
    coeffs = 1.0 / (lambdas - lam)
    return (d.right[:, :k] * coeffs[None, :]) @ d.left[:, :k].conj().T


def second_kind_solve_series(d: BiSpectralDecomposition, lam, f, k: int) -> np.ndarray:
    """Solution of p - lambda A p = f in Nystrom form, f + lambda A s, from the
    series s = f + lambda sum_{j<=k} p_j <q_j, f>_W / (lambda_j - lambda); f's
    pairs beyond k get one Neumann term.  A's weights do not hide samples the
    polish left unresolved (ROADMAP item 2).  Guarded as resolvent_series is."""
    lam = _number_arg(lam, "lambda")
    f = _array_arg(f, "f", (_decomposition_arg(d).right.shape[0],))
    lambdas = _series_lambdas(d, k, lam)
    proj = _matvec(d.left[:, :k].conj().T, d.weights * f)  # <q_j, f>_W
    s = f + _matvec(d.right[:, :k], lam * proj / (lambdas - lam))
    return f + lam * _weighted_products(d.K, d.weights, s)


def _det_direct(op, lam):
    _M, lu, piv = _lu(op, lam)
    sign, logabs = _slogdet(lu, piv)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(sign * np.exp(logabs))


def _det_product(op, lam):
    nus = op.spectrum  # complex, so an empty product is 1 + 0j
    return complex(np.prod((1.0 - lam * nus)[np.abs(lam * nus) >= TAIL_CUTOFF]))


# method name -> evaluator of D(lambda) on a square operator
_DETERMINANTS = {"direct": _det_direct, "product": _det_product}


def _determinant_method(method):
    """The lower-cased name of a determinant method; InvalidArgumentError
    unless it names one in _DETERMINANTS (in any case)."""
    if not isinstance(method, str) or method.lower() not in _DETERMINANTS:
        raise InvalidArgumentError(
            f"unknown method {method!r}, expected one of {', '.join(_DETERMINANTS)}"
        )
    return method.lower()


def fredholm_determinant(op: DiscreteOperator, lam, method="direct") -> DeterminantEval:
    """Fredholm determinant D(lambda).

    method="direct" reads det(I - lambda*A) off the diagonal and pivots of
    its LU, the one LU per operator and lambda a resolvent solve or kernel
    at that lambda shares (real for a real lambda on a real operator), and
    is 0 when a pivot is exactly zero; it runs no guard.  That LU factors
    the node partition's kept block M_aa, its nodes eliminated by decreasing
    weight.  What it leaves out, M_at and M_tt's strict upper triangle, is
    below rounding of B, and M_tt's diagonal is 1 - lambda B_ii, so
    det(I - lambda*A) = det M_aa to rounding; with nothing dropped, exactly,
    up to the symmetric permutation.  method="product"
    multiplies (1 - lambda*nu_j) over every eigenvalue of A, read from the
    operator's cached spectrum, dropping only the machine-neutral factors
    with |lambda*nu_j| < 1e-14.  Zeros of D locate the Fredholm
    eigenvalues.  A non-finite lambda or D(lambda) raises InvalidArgumentError.
    """
    _operator_arg(op)._require_square("a determinant")
    lam = _number_arg(lam, "lambda")
    method = _determinant_method(method)
    value = _DETERMINANTS[method](op, lam)
    if not np.isfinite(value):
        raise InvalidArgumentError(f"{method} D(lambda={lam:.6g}) = {value} is not finite")
    return DeterminantEval(lam=lam, value=value, method=method)


def determinant_log_derivative_check(op: DiscreteOperator, lambda_path, steps: int):
    """Max deviation between exp(-int trace N_lambda dmu dlambda) and D ratios.

    Integrates the weighted trace of the resolvent kernel along the real
    interval lambda_path = (a, b) with the composite trapezoid rule and
    compares exp(-integral up to each grid point) against the direct
    determinant ratio D(lambda_t)/D(a).  Each path point must keep a gap of
    more than 1e-3 relative to its nearest Fredholm eigenvalue, else
    PoleError.  Each path point costs one guarded LU of I - lambda*A, real
    on a real operator, the one LU per operator and lambda of every
    lambda-path, of the node partition's kept block; it gives both the
    weighted trace, as tr((I - lambda*A)^{-1} A) = sum_{i in a} w_i
    (M_aa^{-1} K_aa)_ii on the kept nodes a in elimination order (the
    dropped columns of A are below rounding of B), and log D, read as the
    direct determinant is.  The path check and the guards share the
    operator's cached spectrum.  The path must be two finite real numbers
    and steps an integer >= 1.
    """
    if not (isinstance(lambda_path, (tuple, list, np.ndarray)) and len(lambda_path) == 2):
        raise InvalidArgumentError(f"lambda_path must be a pair (a, b), got {lambda_path!r}")
    a, b = (_number_arg(t, "lambda_path end", real=True) for t in lambda_path)
    steps = _count_arg(steps, "steps", 1)
    grid = np.linspace(a, b, steps + 1)
    lambdas = _fredholm_lambdas(_operator_arg(op))
    for t in grid:
        _guard_pole(t, lambdas, PATH_RTOL, PoleError, "path point lambda")

    part = op.node_partition
    k = part.kept_count

    def log_det_and_trace(lam):
        # tr(M^{-1} A) = tr(M_aa^{-1} K_aa W_a), on the kept block
        _M, lu, piv, _gap = _guarded_lu(op, complex(lam))
        sign, logabs = _slogdet(lu, piv)
        return (logabs + 1j * np.angle(sign),
                np.sum(part.w_e[:k] * np.diagonal(_lu_solve(lu, piv, part.K_e[:k, :k]))))

    log_d, g = np.array([log_det_and_trace(t) for t in grid]).T
    h = (b - a) / steps
    integral = 0.0 + 0.0j
    worst = 0.0
    for t in range(1, steps + 1):
        integral += 0.5 * h * (g[t - 1] + g[t])
        ratio = np.exp(log_d[t] - log_d[0])
        dev = abs(np.exp(-integral) - ratio) / max(abs(ratio), 1e-300)
        worst = max(worst, dev)
    return worst


def first_kind_solve(op: DiscreteOperator, lambda_j, tol):
    """Eigenfunction basis solving lambda * N p = p at a Fredholm eigenvalue.

    Returns the bi-orthonormalized right eigenvectors whose Fredholm
    eigenvalues lie within tol of lambda_j; raises NoSolutionError when
    none do (the first-kind equation is solvable only on the spectrum); tol
    is a finite number >= 0.  Read from op.family, in its dtype, raising its
    refusal as djf_eig does.
    """
    lam = _number_arg(lambda_j, "lambda_j")
    tol = _tolerance_arg(tol, "tol")
    d = _unrefused(_operator_arg(op).family)
    near = np.flatnonzero(np.abs(1.0 / d.eigenvalues[: d.retained] - lam) <= tol)
    if not near.size:
        raise NoSolutionError(
            f"lambda={lam:.6g} is not within {tol} of any Fredholm eigenvalue"
        )
    return list(d.right[:, near].T.copy())
