"""Iterative spectral extraction: power ratios, leading pairs, deflation.

The textbook pointwise ratio (N^{n+1} f)(y) / (N^n f)(y) is replaced by a
weighted-inner-product ratio against a fixed probe vector, which shares
its limit but stays defined at zeros of the iterate; the pointwise ratio
at the node of maximum modulus is recorded alongside.  Iterates are
renormalized to unit weighted norm each step, ratios computed before
renormalization.

Nothing depends on the kernel's scale: starting vectors are scaled by a
power of two (at most 2^1023, so a start down to 2^-1074 runs as its scaled
copy does) and then to unit weighted norm (_start), an iterate has
collapsed when its image A h, before any division, has weighted norm at
most 1e-14 ||A||_F (_collapse_test, which refuses a K that is not finite),
and weighted norms that would overflow are taken after an exact
power-of-two scaling (nystrom._no_overflow).

Power iteration follows the kernel: a real start on a real operator runs in
real products (real ratios, float64 iterates, pairs and deflated K), and a
complex start, or any start on a complex operator, in complex128 (_unit_scaled).
"""
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NoSpectrumError,
    PreconditionViolationError,
    StartingVectorError,
    UnsupportedProfileError,
    _array_arg, _count_arg, _number_arg, _tolerance_arg,
)
from .kernels import Kernel
from .nystrom import (
    DiscreteOperator,
    _anchor_phase,
    _apply_A,
    _apply_adjoint,
    _finite,
    _narrowed,
    _norm,
    _operator_arg,
    _pow2_scale,
    _winner,
    _wnorm,
    discretize,
)
from .spectral import djf_eig

COLLAPSE_RTOL = 1e-14


def _unit_scaled(op, f, name):
    """f, checked, in the kind of f and op.K together, as every iterate, times
    the power of two that brings its largest entry into [1/2, 1)
    (nystrom._pow2_scale; below 2^-1024, where that scale is capped at
    2^1023, in a second step).  A starting vector or probe is scale-free,
    and the scaling is exact: f's squared entries cannot overflow, while
    f / ||f||_W and every ratio against a probe keep their bits."""
    f = _array_arg(f, name, (op.K.shape[0],))
    f = f.astype(np.result_type(f, op.K), copy=False) * _pow2_scale(f)
    return f * _pow2_scale(f)


def _start(op, f, name):
    """f, checked, _unit_scaled and of unit W-norm; StartingVectorError if zero."""
    f = _unit_scaled(op, f, name)
    nf = _wnorm(op.w_rows, f)
    if nf == 0.0:
        raise StartingVectorError(f"starting vector {name} is zero")
    return f / nf


def _collapse_test(op):
    """The collapse test, as a function of ||A h||_W, the weighted norm of the
    image of a unit iterate h (or of its adjoint image) before it is divided
    by anything: StartingVectorError when that is at most COLLAPSE_RTOL
    ||A||_F, so that image and floor both scale with the kernel.  Raises
    InvalidArgumentError when ||A||_F is not finite: no floor holds then."""
    norm_A = _finite("K has an entry that is not finite, or ||A||_F overflows",
                     lambda: float(_norm(op.A)))
    floor = COLLAPSE_RTOL * max(norm_A, 1e-300)

    def test(image_norm):
        if image_norm <= floor:
            raise StartingVectorError(
                "iterate collapsed to numerical zero; the starting vector lies in "
                "the null space or has no component on the leading pair")
    return test


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Record of one power-ratio run.

    iterates holds the unit-weighted-norm iterate after each application;
    scales the positive norm factor divided out at that step, so the raw
    n-th iterate is iterates[n-1] times the product of scales[:n].
    ratios[k] approximates nu_1 (= 1/lambda_1); pointwise_ratios mirrors
    them at the node where the previous iterate is largest in modulus.
    For a real operator and a real start (and probe) the iterates are
    float64 and the ratios and estimate real; otherwise they are complex.
    """

    iterates: list
    scales: list
    ratios: list
    pointwise_ratios: list
    converged: bool
    estimate: complex
    iterations_used: int


def power_ratio_estimate(op: DiscreteOperator, f, n_max: int, tol: float, probe=None):
    """Dominant-eigenvalue estimate from successive operator applications.

    Converges when two successive ratios agree to `tol` (>= 0) relative.  A
    non-converged run is returned (converged=False) with a multiplicity
    warning: oscillating ratios indicate several eigenvalues sharing the
    top modulus.

    Raises StartingVectorError when the iterate collapses to numerical
    zero, i.e. f lies in the operator's null space.
    """
    _operator_arg(op)._require_square("power iteration")
    n_max = _count_arg(n_max, "n_max", 1)
    tol = _tolerance_arg(tol, "tol")
    w = op.w_rows
    h = _start(op, f, "f")
    g = _unit_scaled(op, probe, "probe") if probe is not None else h.copy()
    collapse_test = _collapse_test(op)
    iterates, scales, ratios, pointwise = [], [], [], []
    converged = False
    k = 0
    while k < n_max:
        k += 1
        y = _apply_A(op, h)
        ny = _wnorm(w, y)
        collapse_test(ny)
        gh = _winner(w, g, h)
        gy = _winner(w, g, y)
        if abs(gh) > 1e-14:
            ratio = gy / gh
        else:  # probe momentarily orthogonal to the iterate
            ratio = _winner(w, h, y) / _winner(w, h, h)
        i_star = int(np.argmax(np.abs(h)))
        pw = y[i_star] / h[i_star] if h[i_star] != 0 else complex("nan")
        ratios.append(ratio)
        pointwise.append(pw)
        h = y / ny
        iterates.append(h)  # a fresh array each step
        scales.append(ny)
        if len(ratios) >= 2:
            prev = ratios[-2]
            if abs(ratio - prev) <= tol * max(abs(ratio), 1e-300):
                converged = True
                break
    if not converged:
        warnings.warn(
            "power ratios did not settle; the dominant eigenvalue may not be "
            "simple (several eigenvalues of equal modulus)",
            stacklevel=2,
        )
    return PowerTrace(
        iterates=iterates,
        scales=scales,
        ratios=ratios,
        pointwise_ratios=pointwise,
        converged=converged,
        estimate=ratios[-1],
        iterations_used=k,
    )


def variational_estimate(op: DiscreteOperator):
    """Stationary value of the constrained form int g N h dmu, int g h dmu = 1.

    Returns (value, g, h) where value = nu_1 and (g, h) = (q_1, p_1) from
    the bi-orthogonal decomposition; the form is a supremum for
    lambda_1 > 0 and an infimum for lambda_1 < 0, attained at the first
    eigenfunctions either way.

    Raises UnsupportedProfileError for a complex dominant eigenvalue,
    where the sup/inf dichotomy does not apply.
    """
    d = djf_eig(op)
    if d.retained == 0:
        raise NoSpectrumError("operator has no nonzero eigenvalues")
    nu1 = d.eigenvalues[0]
    if abs(nu1.imag) > 1e-10 * abs(nu1):
        raise UnsupportedProfileError(
            f"dominant eigenvalue {nu1:.6g} is complex; the variational "
            "characterization assumes a real lambda_1"
        )
    return float(nu1.real), d.left[:, 0].copy(), d.right[:, 0].copy()


def extract_leading_pair(op: DiscreteOperator, nu1, f, g, n: int, resid_rtol=1e-6):
    """Leading right/left eigenvector estimates from scaled power iterates.

    Iterates (nu1^{-1} A)^n f and the adjoint analogue on g, then applies
    the usual normalization (unit weighted norm, real-positive anchor for
    p; <q, p>_W = 1 fixes q).  Stops early once both eigen-residuals drop
    below 0.1 * resid_rtol * |nu1|, resid_rtol >= 0.

    Raises
    ------
    StartingVectorError
        When an iterate collapses (zero projection on the leading pair).
    ConvergenceError
        When residuals stagnate above resid_rtol * |nu1| after n steps,
        as happens for a defective dominant eigenvalue; the jordan module
        handles that structure.
    """
    _operator_arg(op)._require_square("power iteration")
    nu1 = _narrowed(_number_arg(nu1, "nu1"))
    if nu1 == 0:
        raise InvalidArgumentError("nu1 must be nonzero")
    n = _count_arg(n, "iterations", 1)
    resid_rtol = _tolerance_arg(resid_rtol, "resid_rtol")
    w = op.w_rows
    p, q = _start(op, f, "f"), _start(op, g, "g")
    collapse_test = _collapse_test(op)
    target = resid_rtol * abs(nu1)
    for _ in range(n):
        yp = _apply_A(op, p) / nu1
        yq = _apply_adjoint(op, q) / np.conj(nu1)
        np_, nq_ = _wnorm(w, yp), _wnorm(w, yq)
        collapse_test(abs(nu1) * min(np_, nq_))  # the images' norms, to rounding
        res_p = abs(nu1) * _wnorm(w, yp - p * (_winner(w, p, yp)))
        res_q = abs(nu1) * _wnorm(w, yq - q * (_winner(w, q, yq)))
        p = yp / np_
        q = yq / nq_
        if max(res_p, res_q) <= 0.1 * target:
            break
    res_p = _wnorm(w, _apply_A(op, p) - nu1 * p)
    res_q = _wnorm(w, _apply_adjoint(op, q) - np.conj(nu1) * q)
    if max(res_p, res_q) > target:
        raise ConvergenceError(
            f"eigen-residual {max(res_p, res_q):.3e} stagnates above "
            f"{target:.3e}; the dominant eigenvalue is likely defective or "
            "non-simple -- see the jordan module"
        )
    p = p * _anchor_phase(p)
    q = q / np.conj(_winner(w, q, p))
    return p, q


def deflate(target, nu1, p1, q1, rule=None) -> DiscreteOperator:
    """Remove the leading pair: N_1(y,z) = N(y,z) - nu1 * p1(y) q1(z)^*.

    `target` is a DiscreteOperator, or a Kernel together with `rule`.
    The block shape must be square, else InvalidArgumentError.  The pair
    must be finite, p1 and q1 of the operator's length, and
    bi-orthonormalized (<q1, p1>_W = 1 to 1e-8), else
    PreconditionViolationError.  An update nu1 p1 q1^* that overflows the
    kernel samples raises InvalidArgumentError, naming nu1.  The deflated
    spectrum equals the original with nu1 replaced by zero, the remaining
    pairs untouched.
    """
    if isinstance(target, Kernel):
        if rule is None:
            raise InvalidArgumentError("deflating a Kernel needs a quadrature rule")
        target = discretize(target, rule)
    if not isinstance(target, DiscreteOperator):
        raise InvalidArgumentError("target must be a Kernel or DiscreteOperator")
    op = target
    op._require_square("deflation")
    try:
        nu1 = _narrowed(_number_arg(nu1, "nu1"))
        p1 = _array_arg(p1, "p1", (op.K.shape[0],))
        q1 = _array_arg(q1, "q1", (op.K.shape[0],))
    except InvalidArgumentError as exc:
        raise PreconditionViolationError(f"deflation needs a finite pair: {exc}") from None
    pairing = _winner(op.w_rows, q1, p1)
    if not abs(pairing - 1.0) <= 1e-8:  # a NaN pairing fails too
        raise PreconditionViolationError(
            f"pair is not bi-orthonormalized: <q1, p1>_W = {pairing:.12g}"
        )
    K1 = _finite(f"deflating by nu1={nu1:.6g} overflows: the updated kernel samples are not "
                 "finite", lambda: op.K - nu1 * np.outer(p1, np.conj(q1)))
    return DiscreteOperator(rule=op.rule, shape=op.shape, K=K1)


@dataclass(eq=False)
class SequentialSpectrumResult:
    """Eigen-triples recovered stage by stage, with failure diagnostics.

    Iterating the result yields (nu_j, p_j, q_j) triples; traces holds the
    PowerTrace of each stage.  When a stage fails (non-simple dominant
    eigenvalue, collapse), the triples found so far are kept and
    failure_reason says why the run stopped early.
    """

    triples: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    stages_completed: int = 0
    failure_reason: str = None

    def __iter__(self):
        return iter(self.triples)

    def __len__(self):
        return len(self.triples)

    def __getitem__(self, i):
        return self.triples[i]

    @property
    def eigenvalues(self):
        return [t[0] for t in self.triples]


def sequential_spectrum(op: DiscreteOperator, k: int, n_max: int, tol: float):
    """Top-k eigen-triples by alternating ratio estimation, pair extraction,
    and deflation.

    Each stage assumes a simple dominant eigenvalue; the first stage that
    is not simple (or loses its starting vector repeatedly) ends the run
    with a partial result.  Starting vectors are drawn from a fixed-seed
    generator, so runs are reproducible.  Power ratios that did not settle
    end the run through failure_reason, and only their warning is silenced;
    any other warning reaches the caller.
    """
    k = _count_arg(k, "stages", 1)
    result = SequentialSpectrumResult()
    current = op
    w = _operator_arg(op).w_rows
    n = op.K.shape[0]
    for stage in range(1, k + 1):
        trace = None
        for attempt in range(3):
            rng = np.random.default_rng(1_000_003 * stage + attempt)
            f0 = rng.standard_normal(n)
            try:
                with warnings.catch_warnings():
                    # the unsettled run is reported through failure_reason below
                    warnings.filterwarnings("ignore", "power ratios did not settle")
                    trace = power_ratio_estimate(current, f0, n_max, tol)
                break
            except StartingVectorError:
                trace = None
        if trace is None:
            result.failure_reason = f"stage {stage}: starting vectors kept collapsing"
            return result
        result.traces.append(trace)
        if not trace.converged:
            result.failure_reason = (
                f"stage {stage}: power ratios did not converge within {n_max} "
                "iterations; the dominant eigenvalue is likely not simple"
            )
            return result
        nu_hat = trace.estimate
        try:
            p, q = extract_leading_pair(
                current, nu_hat, trace.iterates[-1], trace.iterates[-1], n_max,
                resid_rtol=max(tol, 1e-8),
            )
        except (ConvergenceError, StartingVectorError) as exc:
            result.failure_reason = f"stage {stage}: {exc}"
            return result
        nu = _winner(w, q, _apply_A(current, p))  # Rayleigh refinement, <q, p>_W = 1
        result.triples.append((nu, p, q))
        result.stages_completed = stage
        current = deflate(current, nu, p, q)
    return result
