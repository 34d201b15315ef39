"""Spectral decompositions of discretized operators.

* hermitian_eig -- Hermitian kernels; real spectrum, one orthonormal family
  (the discrete Mercer expansion).
* djf_eig -- diagonalizable non-Hermitian kernels; bi-orthogonal right/left
  eigenfunction families with <q_j, p_k>_W = delta_jk.  It refuses by one
  rule, on the condition of the eigenvector matrix: kappa n u <= 1e-8.

Both return, as it is, the one eigen-family each operator builds once from
B = W^{1/2} K W^{1/2} and caches (BiSpectralDecomposition, defined in
nystrom): all N eigenvalues, the retained pairs first and only their vectors
(N x retained), polished by one Nystrom pass (p <- A p / nu = K (w p) / nu)
where its rounding fits the budget, which leaves the samples at the smallest
weights of a wide rule unresolved (ROADMAP item 2), and anchored.  djf_eig
reads DiscreteOperator.family: hermitian_family when B is Hermitian to
roundoff, else general_family, from one sorted Schur form of B in its dtype.
Its arrays are read-only, real vectors only for a real B on the Hermitian
route, and it holds the operator's weights and samples, never the operator.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveSuspectedError,
    NoSpectrumError,
    WrongDecompositionError,
    _count_arg, _instance_arg, _tolerance_arg,
)
from .nystrom import BiSpectralDecomposition, DiscreteOperator, _finite, _operator_arg, _wnorm

HERMITIAN_RTOL = 1e-10    # hermitian_eig's refusal only: its caller asks for B's
                          # Hermitian part, which may be further than n u from B


def _decomposition_arg(d):
    """d; InvalidArgumentError unless it is a BiSpectralDecomposition, the
    one check of every entry point's decomposition argument."""
    return _instance_arg(d, BiSpectralDecomposition, "decomposition")


@dataclass(frozen=True, eq=False)
class AsymptoticProfile:
    """Leading-tier data for large-n power behaviour.

    r1 is the top modulus, R the number of eigenvalues in the top tier,
    r0 the next modulus below it (0 if none), phases the tier's phase
    angles, M the largest Jordan block size on the tier (1 in the
    diagonalizable setting handled here).
    """

    r1: float
    r0: float
    R: int
    M: int
    phases: np.ndarray
    p_top: np.ndarray
    q_top: np.ndarray

    def coefficient_matrix(self, n):
        """C_n = sum_{j<=R} e^{i n theta_j} p_j q_j^* at node pairs."""
        rot = np.exp(1j * np.asarray(self.phases) * n)
        return (self.p_top * rot[None, :]) @ self.q_top.conj().T


def hermitian_eig(op: DiscreteOperator) -> BiSpectralDecomposition:
    """Spectral decomposition of a Hermitian kernel's discretization.

    Eigenvalues are real; the one W-orthonormal eigenvector family serves
    as right and left family: it returns DiscreteOperator.hermitian_family
    itself.

    Raises WrongDecompositionError if B departs from Hermitian symmetry by
    more than 1e-10 relative; use djf_eig for non-Hermitian kernels.
    """
    _operator_arg(op)._require_square("an eigendecomposition")
    defect = op._hermitian_defect(HERMITIAN_RTOL)  # its Hermitian part goes on to the family
    if defect > HERMITIAN_RTOL:
        raise WrongDecompositionError(
            f"kernel is not Hermitian (relative defect {defect:.3e}); use djf_eig"
        )
    return _unrefused(op.hermitian_family)


def djf_eig(op: DiscreteOperator) -> BiSpectralDecomposition:
    """Bi-orthogonal eigendecomposition for diagonalizable kernels.

    The left family is the inverse-adjoint of the right one, so
    <q_j, p_k>_W = delta_jk over the retained pairs, the only ones kept; right
    vectors have unit weighted norm and a real-positive anchor entry.  It
    returns op.family itself: when B is Hermitian to roundoff that is
    hermitian_eig's family (in B's dtype, one array serving as right and left
    family).  Otherwise it is general_family: V_r from one sorted Schur form,
    V = [V_r, Q_t] = Z M, and from r x r algebra U_r, V^{-H}'s first r columns,
    and the exact condition kappa of M (nystrom._inverse_adjoint).  An inverse
    of condition kappa is bi-orthogonal to about kappa n u (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 14), so kappa n u <=
    1e-8 is the one refusal rule, tested first.  The pass p <- A p / nu,
    q <- K^H (w q) / conj(nu) moves <q_k, p_j>_W by up to
    u ||B|| kappa_max / |nu_j|, kappa_max = max_j ||q_j||_W >= 1, so it runs
    where |nu_j| >= REFINE_RTOL kappa_max |nu_1|, within hermitian_eig's
    budget u ||B|| / (REFINE_RTOL |nu_1|).  A refusal is cached with the
    family, and the spectrum stays readable.

    Raises
    ------
    DefectiveSuspectedError
        If kappa n u exceeds 1e-8 (C singular or kappa not finite
        included); a non-diagonal Jordan structure is the likely cause, see
        the jordan module.  Two output checks, which no natural input within
        that rule reaches, raise it too: a retained eigen-residual above
        1e-9 |nu_1| and a bi-orthogonality residual above 1e-8.
    """
    return _unrefused(_operator_arg(op).family)


def _unrefused(family):
    """The operator's cached `family` itself; raises its refusal as
    DefectiveSuspectedError."""
    if family.refusal is not None:
        raise DefectiveSuspectedError(family.refusal)
    return family


def asymptotic_profile(d: BiSpectralDecomposition, cluster_tol=1e-8) -> AsymptoticProfile:
    """Top-modulus tier of the spectrum and its coefficient evaluator.

    R counts eigenvalues with |nu| >= (1 - cluster_tol) |nu_1|; r0 is the
    largest modulus below the tier (0 if the tier exhausts the retained
    spectrum).  cluster_tol must lie in [0, 1).
    """
    cluster_tol = _tolerance_arg(cluster_tol, "cluster_tol", below=1.0)
    if _decomposition_arg(d).retained == 0:
        raise NoSpectrumError("all eigenvalues are numerically zero")
    vals = d.eigenvalues[: d.retained]
    r1 = float(np.abs(vals[0]))
    tier = np.abs(vals) >= (1.0 - cluster_tol) * r1
    R = int(np.sum(tier))
    below = np.abs(vals[~tier])
    r0 = float(below.max()) if below.size else 0.0
    phases = np.angle(vals[tier])
    return AsymptoticProfile(
        r1=r1,
        r0=r0,
        R=R,
        M=1,
        phases=phases,
        p_top=d.right[:, :R].copy(),
        q_top=d.left[:, :R].copy(),
    )


def power_approx(d: BiSpectralDecomposition, profile: AsymptoticProfile, n: int):
    """Leading-term approximation r1^n C_n of the n-th iterated kernel.

    Returns (approximation, bound); the bound r0^n * sum_{j>R} ||q_j||_W
    dominates the dropped terms in the weighted Frobenius norm, since each
    retained p_j has unit weighted norm.  An approximation or bound that
    overflows raises InvalidArgumentError naming n.
    """
    n = _count_arg(n, "iterate", 1)
    d, profile = _decomposition_arg(d), _instance_arg(profile, AsymptoticProfile, "profile")
    scale = float(np.sum(_wnorm(d.weights, d.left[:, profile.R :])))
    message = f"iterate n={n} overflows: its entries are not finite"
    approx = _finite(message, lambda: (profile.r1 ** n) * profile.coefficient_matrix(n))
    bound = _finite(message, lambda: (profile.r0 ** n) * scale)
    return approx, bound


def reconstruct(d: BiSpectralDecomposition, k: int) -> np.ndarray:
    """Partial kernel reconstruction sum_{j<=k} nu_j p_j q_j^* at node pairs, k <= retained."""
    k = _count_arg(k, "rank", 0, _decomposition_arg(d).retained)
    return (d.right[:, :k] * d.eigenvalues[None, :k]) @ d.left[:, :k].conj().T
