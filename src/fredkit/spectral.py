"""Spectral decompositions of discretized operators.

Two routes:

* hermitian_eig -- Hermitian kernels; real spectrum, one orthonormal family
  (the discrete Mercer expansion).
* djf_eig -- diagonalizable non-Hermitian kernels; bi-orthogonal right/left
  eigenfunction families with <q_j, p_k>_W = delta_jk; eig in the operator's
  dtype, then r x r algebra on the r retained right vectors.  It refuses by
  one rule, on the condition of the eigenvector matrix: kappa n u <= 1e-8.

Both work on the symmetrized matrix B = W^{1/2} K W^{1/2} so that Euclidean
orthonormality of matrix eigenvectors maps onto weighted orthonormality of
node samples, then polish retained eigenvectors with one Nystrom pass
(p <- A p / nu), which restores full accuracy at small-weight nodes, where
its rounding fits the budget.

hermitian_eig reads the eigh of B's Hermitian part that the operator
computes once (DiscreteOperator.hermitian_eigh): LAPACK's dsyevd for a real
B and the MRRR solver zheevr for a complex one, which at N = 1024 takes
under half of zheevd's time for the same orthonormal family
(nystrom.EIGH_DRIVER).  djf_eig returns that same
decomposition, upcast to complex, when B is Hermitian to roundoff
(hermitian_defect() <= n u, DiscreteOperator.hermitian_to_roundoff): eigh
of the Hermitian part then answers within the backward error a general eig
commits, at a fraction of its cost, and its vectors are orthonormal, so
they are their own bi-orthogonal family.
"""
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DefectiveSuspectedError,
    NoSpectrumError,
    WrongDecompositionError,
    _count_arg, _number_arg,
)
from .nystrom import (
    UNIT, DiscreteOperator, _anchor_phase, _finite_power, _linalg, _matvec, _norm, _winner,
    _wnorm,
)

RETAIN_RTOL = 1e-12       # eigenpairs below this (relative) are numerical null space
REFINE_RTOL = 1e-5        # Nystrom pass only above this (times max ||q_j||_W in
                          # djf_eig): it injects eps*||A||*||q_j||_W/|nu| noise,
                          # which must stay below the orthonormality budget
HERMITIAN_RTOL = 1e-10    # hermitian_eig's refusal only: its caller asks for B's
                          # Hermitian part, which may be further than n u from B
DEGENERATE_RTOL = 1e-9    # eigenvalues this close (relative) share an eigenspace


@dataclass(frozen=True)
class BiSpectralDecomposition:
    """Eigenvalues with right/left eigenvector node samples.

    Eigenvalues are sorted by descending modulus, ties by descending phase
    in (-pi, pi].  Right vectors have unit weighted norm with a
    real-positive anchor entry; left vectors are fixed by bi-orthogonality
    <q_j, p_k>_W = delta_jk.  Pairs with |nu_j| <= 1e-12 |nu_1| are
    reported but not scored.  ``hermitian`` is True exactly when the pairs
    come from the eigh of B's Hermitian part (right is left).
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    biorth_residual: float
    hermitian: bool
    retained: int
    operator: DiscreteOperator

    @property
    def weights(self):
        return self.operator.w_rows


@dataclass(frozen=True)
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


def _roundoff_floor(vals):
    """N * eps * |nu_1|: eigenvalues closer than this are not resolved."""
    return vals.size * np.finfo(float).eps * max(float(np.max(np.abs(vals))), 1e-300)


def _sort_order(vals, mod_rtol=1e-10):
    """Descending modulus with ties broken by descending phase in (-pi, pi].

    Moduli within mod_rtol of the group leader, or within the roundoff
    floor N * eps * |nu_1|, count as tied, so the ordering agrees across
    eig/eigh paths whose roundoff differs while resolved small moduli keep
    their order; phases hugging the -pi seam are wrapped to +pi (a
    negative real eigenvalue must not flip sides on 1e-17 imaginary noise).
    jordan_decompose orders its blocks by it too.
    """
    if vals.size == 0:
        return np.arange(0)
    mods = np.abs(vals)
    phases = np.angle(vals)
    phases = np.where(phases <= -np.pi + 1e-9, phases + 2.0 * np.pi, phases)
    order = list(np.lexsort((-phases, -mods)))
    floor = _roundoff_floor(vals)
    i = 0
    while i < len(order):
        tol = max(mod_rtol * mods[order[i]], floor)
        j = i + 1
        while j < len(order) and mods[order[i]] - mods[order[j]] <= tol:
            j += 1
        order[i:j] = sorted(order[i:j], key=lambda t: -phases[t])
        i = j
    return np.array(order)


def _retained(vals):
    """The retained cut, as a mask: |nu| > RETAIN_RTOL * max |nu|, so nothing
    is retained when that max is 0.  Shared by the decompositions, the
    operator SVD's numerical rank and the resolvent's pole guards."""
    mods = np.abs(vals)
    return mods > RETAIN_RTOL * np.max(mods, initial=0.0)


def _retained_count(vals):
    return int(np.count_nonzero(_retained(vals)))


def _biorth_residual(w, P, Q, retained):
    if retained == 0:
        return 0.0
    G = Q[:, :retained].conj().T @ (w[:, None] * P[:, :retained])
    return float(np.max(np.abs(G - np.eye(retained))))


def _matvecs(M, X):
    """M @ x for each column x of X, as stacked matrix-vector products that
    round as a lone M @ x does: a matrix-matrix product rounds otherwise and
    can move an anchor between tied entries (mirror nodes of a symmetric rule)."""
    return np.matmul(M, X.T[:, :, None])[:, :, 0].T


def _unit_anchored(w, P):
    """Per-column factors giving each nonzero column of P unit W-norm and a
    real-positive first maximal entry (1 for a zero column)."""
    nrm = _wnorm(w, P)
    return _anchor_phase(P) / np.where(nrm > 0, nrm, 1.0)


def hermitian_eig(op: DiscreteOperator) -> BiSpectralDecomposition:
    """Spectral decomposition of a Hermitian kernel's discretization.

    Eigenvalues are real; the single eigenvector family is orthonormal in
    the weighted inner product and serves as both right and left family.
    The eigh of B's Hermitian part comes from the operator's cache
    (DiscreteOperator.hermitian_eigh), so it runs once per operator.

    Raises
    ------
    WrongDecompositionError
        If B departs from Hermitian symmetry by more than 1e-10 relative;
        use djf_eig for non-Hermitian kernels.
    """
    op._require_square("an eigendecomposition")
    defect = op.hermitian_defect()
    if defect > HERMITIAN_RTOL:
        raise WrongDecompositionError(
            f"kernel is not Hermitian (relative defect {defect:.3e}); use djf_eig"
        )
    vals, vecs = op.hermitian_eigh
    eigenvalues = vals.astype(complex)
    order = _sort_order(eigenvalues)
    vals, eigenvalues, vecs = vals[order], eigenvalues[order], vecs[:, order]
    w = op.w_rows
    P = vecs / np.sqrt(w)[:, None]
    retained = _retained_count(eigenvalues)
    if retained:
        sel = np.flatnonzero(np.abs(vals) >= REFINE_RTOL * np.abs(vals[0]))
        P[:, sel] = _matvecs(op.A, P[:, sel]) / vals[sel]
    P *= _unit_anchored(w, P)
    resid = _biorth_residual(w, P, P, retained)
    return BiSpectralDecomposition(
        eigenvalues=eigenvalues,
        right=P,
        left=P,
        biorth_residual=resid,
        hermitian=True,
        retained=retained,
        operator=op,
    )


def djf_eig(op: DiscreteOperator) -> BiSpectralDecomposition:
    """Bi-orthogonal eigendecomposition for diagonalizable kernels.

    Right eigenvectors come from the symmetrized matrix; the left family
    is the inverse-adjoint of the right one, so <q_j, p_k>_W = delta_jk
    holds globally.  Right vectors are normalized to unit weighted norm
    with a real-positive anchor entry, which pins down the free constant
    multipliers; the left vectors then have no freedom left.

    When B is Hermitian to roundoff (hermitian_defect() <= n u, n = B.shape[0],
    u = eps / 2), this is hermitian_eig's decomposition with its eigenvalues
    and vectors upcast once to complex; one array serves as right and left
    family.  Symmetrizing moves B by (defect / 2) ||B||_F, no more than the
    backward error eig commits, and the operator's cached eigh is shared
    with hermitian_eig and operator_svd.

    Otherwise eig runs on B in its own dtype (real LAPACK for a real
    operator), the polish on A and K, and the pairs are complex.  The r
    retained eigenvectors V_r keep their span; the rest, a numerical null
    space, become Q_t of one complete QR [Q_t, Q_perp] of themselves, and
    U = V^{-H} and the exact condition kappa of V = [V_r, Q_t] come from
    r x r algebra (_inverse_adjoint).  An inverse of condition kappa is
    bi-orthogonal to about kappa n u (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 14), so kappa n u <= 1e-8 is the one
    refusal rule, tested first.  The pass p <- A p / nu, q <- K^H (w q) /
    conj(nu) rounds at about u ||B|| / |nu| relative to each vector, which
    moves <q_k, p_j>_W by up to u ||B|| kappa_max / |nu_j|, kappa_max =
    max_j ||q_j||_W >= <q_j, p_j>_W = 1 over the retained pairs (||p_j||_W = 1).
    It runs where |nu_j| >= REFINE_RTOL kappa_max |nu_1|, keeping that within
    u ||B|| / (REFINE_RTOL |nu_1|), hermitian_eig's budget (kappa_max = 1).

    Raises
    ------
    DefectiveSuspectedError
        If kappa n u exceeds 1e-8 (C singular or kappa not finite
        included); a non-diagonal Jordan structure is the likely cause, see
        the jordan module.  Two output checks, which no natural input within
        that rule reaches, raise it too: a retained eigen-residual above
        1e-9 |nu_1| and a bi-orthogonality residual above 1e-8.
    """
    op._require_square("an eigendecomposition")
    if op.hermitian_to_roundoff():
        d = hermitian_eig(op)
        P = d.right.astype(complex, copy=False)
        return replace(d, right=P, left=P)
    vals, V = _linalg("eig", op.B)
    vals, V = vals.astype(complex, copy=False), V.astype(complex, copy=False)
    order = _sort_order(vals)
    vals, V = vals[order], V[:, order]
    retained = _retained_count(vals)
    _rebasis_degenerate(vals, V, retained)
    n = V.shape[0]
    Z, _ = np.linalg.qr(V[:, retained:], mode="complete")
    V[:, retained:] = Z[:, : n - retained]
    w = op.w_rows
    sqw = np.sqrt(w)[:, None]
    # p = V/sqrt(w) gets unit weighted norm and a real-positive anchor entry;
    # the columns have unit 2-norm already, so this turns each by a phase
    V *= _unit_anchored(w, V / sqw)
    U, kappa = _inverse_adjoint(V, Z, retained)
    del Z
    if not kappa * n * UNIT <= 1e-8:
        raise DefectiveSuspectedError(
            f"eigenvector matrix condition {kappa:.3e} exceeds 1e-8 / (n u) = "
            f"{1e-8 / (n * UNIT):.3e}; the operator looks defective -- use the jordan module")
    top = np.abs(vals[0]) if vals.size else 0.0
    Vr = V[:, :retained]
    resid = _norm(_matvec(op.B, Vr) - Vr * vals[:retained], axis=0) / np.linalg.norm(Vr, axis=0)
    bad = np.flatnonzero(resid > 1e-9 * top)
    if bad.size:
        raise DefectiveSuspectedError(
            f"eigen-residual {resid[bad[0]]:.3e} for nu={vals[bad[0]]:.6g} exceeds "
            "1e-9 |nu_1|; the eigenspace is deficient -- use the jordan module")
    P, Q = V / sqw, U / sqw
    # the Nystrom pass on the retained pairs whose rounding fits (see above),
    # then q rescaled to <q, p>_W = 1
    sel = np.flatnonzero(np.abs(vals[:retained])
                         >= REFINE_RTOL * top * np.max(_wnorm(w, Q[:, :retained]), initial=1.0))
    Ps = _matvecs(op.A, P[:, sel]) / vals[sel]
    Ps *= _unit_anchored(w, Ps)
    Qs = _matvecs(op.K.conj().T, w[:, None] * Q[:, sel]) / np.conj(vals[sel])
    Qs /= np.conj(_winner(w, Qs, Ps))
    P[:, sel], Q[:, sel] = Ps, Qs
    resid = _biorth_residual(w, P, Q, retained)
    if resid > 1e-8:
        raise DefectiveSuspectedError(
            f"bi-orthogonality residual {resid:.3e} exceeds 1e-8; the operator "
            "looks defective -- use the jordan module")
    return BiSpectralDecomposition(eigenvalues=vals, right=P, left=Q, biorth_residual=resid,
                                   hermitian=False, retained=retained, operator=op)


def _inverse_adjoint(V, Z, r):
    """(U, kappa) with U = V^{-H} for V = [V_r, Q_t], where Q_t is the
    first n - r columns of the unitary Z = [Q_t, Q_perp], each times a
    phase.  V = [Q_t, Q_perp] M with M = [[A, I], [C, 0]], A = Q_t^H V_r and
    C = Q_perp^H V_r (r x r), so M^{-1} = [[0, C^{-1}], [I, -A C^{-1}]],
    U = [Q_perp C^{-H}, Q_t - Q_perp C^{-H} A^H] and kappa = ||M||_1
    ||M^{-1}||_1 exactly; kappa is inf when C is singular (U None) or when
    kappa does not come out finite."""
    Vr, Qt, Qp = V[:, :r], V[:, r:], Z[:, V.shape[0] - r:]
    A, C = Qt.conj().T @ Vr, Qp.conj().T @ Vr
    try:
        Cinv = np.linalg.inv(C)
    except np.linalg.LinAlgError:
        return None, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # the columns of M are [A; C] and those of M^{-1} [C^{-1}; -A C^{-1}],
        # next to identity columns of 1-norm 1 (none when Q_t is empty)
        kappa = float(np.prod([np.max(np.abs(np.vstack(X)).sum(axis=0), initial=float(Qt.size > 0))
                               for X in ((A, C), (Cinv, A @ Cinv))]))
        Ur = Qp @ Cinv.conj().T
        U = np.hstack((Ur, Qt - Ur @ A.conj().T))
    return U, kappa if np.isfinite(kappa) else np.inf


def _rebasis_degenerate(vals, V, retained):
    """Orthonormalize eigenvector groups of (numerically) equal retained eigenvalues.

    LAPACK returns an arbitrary and possibly ill-conditioned basis for a
    repeated semisimple eigenvalue; mixing within each eigenspace is free,
    and a QR basis makes the later inversion and condition check reflect
    the geometry between eigenspaces only.  Neighbours are grouped when
    they differ by at most 1e-9 of the larger modulus or by the roundoff
    floor N * eps * |nu_1|, so small distinct eigenvalues stay apart.
    """
    if retained < 2:
        return
    floor = _roundoff_floor(vals)
    groups = []
    start = 0
    for j in range(1, retained):
        scale = max(abs(vals[j - 1]), abs(vals[j]))
        if abs(vals[j] - vals[j - 1]) > max(DEGENERATE_RTOL * scale, floor):
            groups.append((start, j))
            start = j
    groups.append((start, retained))
    for a, b in groups:
        if b - a >= 2:
            Q, _ = np.linalg.qr(V[:, a:b])
            V[:, a:b] = Q


def asymptotic_profile(d: BiSpectralDecomposition, cluster_tol=1e-8) -> AsymptoticProfile:
    """Top-modulus tier of the spectrum and its coefficient evaluator.

    R counts eigenvalues with |nu| >= (1 - cluster_tol) |nu_1|; r0 is the
    largest modulus below the tier (0 if the tier exhausts the retained
    spectrum).
    """
    cluster_tol = _number_arg(cluster_tol, "cluster_tol", real=True)
    if d.retained == 0:
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
    scale = float(np.sum(_wnorm(d.weights, d.left[:, profile.R : d.retained])))
    approx = _finite_power(n, "iterate", lambda: (profile.r1 ** n) * profile.coefficient_matrix(n))
    bound = _finite_power(n, "iterate", lambda: (profile.r0 ** n) * scale)
    return approx, bound


def reconstruct(d: BiSpectralDecomposition, k: int) -> np.ndarray:
    """Partial kernel reconstruction sum_{j<=k} nu_j p_j q_j^* at node pairs."""
    k = _count_arg(k, "rank", 0, d.eigenvalues.size)
    if k == 0:
        return np.zeros(d.operator.K.shape, dtype=complex)
    P = d.right[:, :k]
    Q = d.left[:, :k]
    return (P * d.eigenvalues[None, :k]) @ Q.conj().T
