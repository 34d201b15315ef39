"""Jordan blocks, chains, decomposition, and defective power asymptotics.

Numerical Jordan structure is ill-posed, so everything here is scoped to
desk scale (dimension <= 64) with explicit tolerances and hard errors when
the structure cannot be trusted: eigenvalues are clustered by single
linkage, the Weyr staircase is read off singular-value ranks of powers of
(N - lambda I), eigenvectors of each block are taken from
ker(S) intersect range(S^{size-1}), and chains extend by minimum-norm
least-squares solves of S p_k = p_{k-1}.  Blocks are listed in the order
the spectral decompositions list eigenvalues (spectral._sort_order):
descending modulus, near-ties by descending phase.  Powers that overflow
are refused with InvalidArgumentError naming n.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusteringError,
    ConvergenceError,
    IllConditionedChainError,
    InvalidArgumentError,
    NoSpectrumError,
    UnsupportedProfileError,
    _count_arg, _number_arg,
)
from .kernels import basis_kernel
from .nystrom import _anchor_phase, _finite_power
from .spectral import _sort_order

DESK_DIM_LIMIT = 64
RANK_RTOL = 1e-10
CHAIN_RESID_RTOL = 1e-6


def binomial(n, a):
    """Binomial coefficient as a float, multiplicative form (no overflow
    for n up to ~1e6 with small a)."""
    if a < 0:
        return 0.0
    out = 1.0
    for t in range(1, a + 1):
        out *= (n - a + t) / t
    return out


def jordan_block(lam, m):
    """m x m block: lam on the diagonal, 1 on the superdiagonal."""
    m = _count_arg(m, "block size", 1)
    return _number_arg(lam, "lam") * np.eye(m, dtype=complex) + np.diag(
        np.ones(m - 1, dtype=complex), 1
    )


def jordan_block_power(lam, m, n):
    """n-th power of a Jordan block via the binomial expansion.

    Entry (j, k) equals C(n, k-j) * lam^{n-(k-j)} for 0 <= k-j <= min(n, m-1)
    and 0 otherwise, with the 0^0 = 1 convention when lam = 0.  A power that
    overflows raises InvalidArgumentError naming n.
    """
    m = _count_arg(m, "block size", 1)
    n = _count_arg(n, "exponent")
    lam = _number_arg(lam, "lam")

    def power():
        out = np.zeros((m, m), dtype=complex)
        for a in range(0, min(n, m - 1) + 1):
            e = n - a
            if lam == 0:
                coef = 1.0 if e == 0 else 0.0
            else:
                coef = lam ** e
            val = binomial(n, a) * coef
            if val != 0:
                idx = np.arange(m - a)
                out[idx, idx + a] = val
        return out

    return _finite_power(n, "exponent", power)


@dataclass(frozen=True)
class JordanForm:
    """Blocks with chain vectors: N = P J Q^* with Q^* = P^{-1}.

    P columns are grouped per block as the Jordan chain
    p_{j,1}, ..., p_{j,m_j} satisfying N p_{jk} = lam_j p_{jk} + p_{j,k-1};
    Q columns satisfy the adjoint recurrence
    N^* q_{jk} = conj(lam_j) q_{jk} + q_{j,k+1}.
    residuals holds the worst chain residual per block.
    """

    blocks: tuple
    P: np.ndarray
    Q: np.ndarray
    residuals: tuple

    @property
    def dim(self):
        return self.P.shape[0]

    def assemble_j(self, n=1):
        """Block-diagonal J^n (n = 1 gives J itself)."""
        s = self.dim
        J = np.zeros((s, s), dtype=complex)
        i = 0
        for lam, m in self.blocks:
            J[i : i + m, i : i + m] = jordan_block_power(lam, m, n)
            i += m
        return J


def _cluster_eigenvalues(eigs, delta):
    """Single-linkage clusters with linkage radius delta."""
    remaining = list(eigs)
    clusters = []
    while remaining:
        group = [remaining.pop(0)]
        merged = True
        while merged:
            merged = False
            for ev in remaining[:]:
                if min(abs(ev - g) for g in group) <= delta:
                    group.append(ev)
                    remaining.remove(ev)
                    merged = True
        clusters.append(group)
    return clusters


def jordan_decompose(N, cluster_tol=1e-7):
    """Numerical Jordan form of a small dense matrix.

    Blocks are grouped by eigenvalue cluster, the clusters in the order
    spectral._sort_order gives their centres, longest blocks first within a
    cluster.

    Parameters
    ----------
    N : square complex matrix, dimension <= 64
    cluster_tol : float
        Relative linkage radius for grouping computed eigenvalues; clusters
        must then stay separated by more than 10x this radius.  Perturbed
        defective eigenvalues split like eps^(1/m), so decompositions with
        blocks of size m need cluster_tol well above that splitting.

    Raises
    ------
    ClusteringError
        When two clusters sit closer than 10 * cluster_tol * spectral
        radius, or the staircase ranks are inconsistent with the cluster.
    IllConditionedChainError
        When a computed chain fails N p_k = lam p_k + p_{k-1} beyond
        1e-6 * ||N||.
    ConvergenceError
        When a LAPACK call (eigvals, svd, qr, lstsq, inv) fails.  inv does
        on a P with a zero chain vector, which the chain residual admits
        once ||N|| >= 1e6: diag(0.99, 1, 1, 1.01, 1e6) is one such input.
    InvalidArgumentError
        When N is not square, exceeds desk scale or has an entry that is
        not finite (checked before any LAPACK call), when cluster_tol is not
        a finite real number, or when a power ||N - lambda I||^k the rank
        staircase needs overflows.
    """
    cluster_tol = _number_arg(cluster_tol, "cluster_tol", real=True)
    N = np.asarray(N, dtype=complex)
    if N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise InvalidArgumentError("need a square matrix")
    if N.shape[0] > DESK_DIM_LIMIT:
        raise InvalidArgumentError(f"dimension {N.shape[0]} exceeds desk scale {DESK_DIM_LIMIT}")
    if not np.isfinite(N).all():
        raise InvalidArgumentError("N has an entry that is not finite")
    try:
        return _decompose(N, cluster_tol)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Jordan decomposition failed in LAPACK: {exc}") from exc


def _decompose(N, cluster_tol):
    """jordan_decompose on a checked finite square N."""
    s = N.shape[0]
    nrm = float(np.linalg.norm(N, 2))
    eigs = np.linalg.eigvals(N)
    rho = float(np.max(np.abs(eigs)))
    if rho <= 1e-10 * max(nrm, 1e-300):
        clusters = [list(eigs)]  # nilpotent: one cluster at zero
        delta = 0.0
    else:
        delta = cluster_tol * rho
        clusters = _cluster_eigenvalues(eigs, delta)
    centers = [complex(np.mean(c)) for c in clusters]
    if len(clusters) > 1:
        gaps = [
            abs(centers[i] - centers[j])
            for i in range(len(centers))
            for j in range(i + 1, len(centers))
        ]
        gap = min(gaps)
        if gap <= 10.0 * delta:
            raise ClusteringError(
                f"cluster gap {gap:.3e} is within 10x the linkage radius "
                f"{delta:.3e}; increase cluster_tol or treat the values as one cluster",
                gap=gap,
                threshold=10.0 * delta,
            )
    blocks = []
    P_cols = []
    residuals = []
    for ci in _sort_order(np.array(centers)):
        lam = centers[ci]
        amult = len(clusters[ci])
        chains = _cluster_chains(N, lam, amult)
        for chain in chains:
            blocks.append((lam, len(chain)))
            res = 0.0
            prev = np.zeros(s, dtype=complex)
            for vec in chain:
                res = max(res, float(np.linalg.norm(N @ vec - lam * vec - prev)))
                prev = vec
            residuals.append(res)
            P_cols.extend(chain)
    worst = max(residuals) if residuals else 0.0
    if worst > CHAIN_RESID_RTOL * max(nrm, 1e-300):
        raise IllConditionedChainError(
            f"worst chain residual {worst:.3e} exceeds 1e-6 * ||N|| = "
            f"{CHAIN_RESID_RTOL * nrm:.3e}"
        )
    P = np.column_stack(P_cols)
    Q = np.linalg.inv(P).conj().T
    return JordanForm(blocks=tuple(blocks), P=P, Q=Q, residuals=tuple(residuals))


def _cluster_chains(N, lam, amult):
    """Chains for one eigenvalue cluster, longest blocks first."""
    s = N.shape[0]
    S = N - lam * np.eye(s)
    smax = float(np.linalg.norm(S, 2))
    nulls = [np.zeros((s, 0), dtype=complex)]
    ranges = [np.eye(s, dtype=complex)]
    Sk = np.eye(s, dtype=complex)
    dims = [0]
    k = 0
    while dims[-1] < amult:
        k += 1
        if k > amult:
            raise ClusteringError(
                f"staircase for lambda={lam:.6g} failed to reach multiplicity "
                f"{amult} (kernel dims {dims[1:]}); the cluster tolerance does "
                "not match the actual eigenvalue splitting"
            )
        # ||S^k||_2 <= smax^k: while the rank tolerance is finite, so is S^k
        try:
            tol = RANK_RTOL * max(smax, 1e-300) ** k
        except OverflowError:
            raise InvalidArgumentError(
                f"||N - lambda I||^{k} overflows for lambda={lam:.6g}; the staircase "
                "rank tolerance cannot be formed -- rescale N"
            ) from None
        Sk = S @ Sk
        u, sv, vh = np.linalg.svd(Sk)
        r = int(np.sum(sv > tol))
        if s - r > amult:
            raise ClusteringError(
                f"kernel of (N - lambda I)^{k} has dimension {s - r} > cluster "
                f"multiplicity {amult} for lambda={lam:.6g}; rank threshold and "
                "cluster tolerance disagree"
            )
        nulls.append(vh[r:, :].conj().T)
        ranges.append(u[:, :r])
        dims.append(s - r)
    m = k
    w = [dims[i] - dims[i - 1] for i in range(1, m + 1)] + [0]
    counts = [w[i] - w[i + 1] for i in range(m)]  # blocks of size i+1
    if min(counts) < 0:  # a Jordan structure's kernel dims grow by less each power
        raise ClusteringError(
            f"staircase for lambda={lam:.6g} has kernel dims {dims[1:]}, whose "
            "increments grow; the rank threshold does not resolve the cluster"
        )
    ker1 = nulls[1]
    chains = []
    used = []
    for size in range(m, 0, -1):
        n_blocks = counts[size - 1]
        if n_blocks <= 0:
            continue
        # basis of ker(S) intersect range(S^{size-1}): the w[size-1] directions of
        # ker(S) with the smallest residual off range(S^{size-1})
        R = ranges[size - 1]
        resid = ker1 - R @ (R.conj().T @ ker1)
        _, sv2, v2h = np.linalg.svd(resid, full_matrices=False)
        take = w[size - 1]
        coef = v2h[len(sv2) - take :, :].conj().T
        W = ker1 @ coef
        if used:
            Uq, _ = np.linalg.qr(np.column_stack(used))
            W = W - Uq @ (Uq.conj().T @ W)
        u3, _, _ = np.linalg.svd(W, full_matrices=False)
        for i in range(n_blocks):
            g = u3[:, i]
            g = g * _anchor_phase(g)
            chain = [g]
            for _ in range(size - 1):
                sol, *_ = np.linalg.lstsq(S, chain[-1], rcond=None)
                chain.append(sol)
            used.append(g)
            chains.append(chain)
    return chains


def matrix_power_via_jordan(jf: JordanForm, n: int) -> np.ndarray:
    """N^n = P J^n Q^* assembled from per-block binomial powers; a power
    that overflows raises InvalidArgumentError naming n."""
    n = _count_arg(n, "exponent")
    return _finite_power(n, "exponent", lambda: jf.P @ jf.assemble_j(n) @ jf.Q.conj().T)


def defective_asymptotic(jf: JordanForm, n: int, tier_rtol=1e-8):
    """Leading matrix and growth envelope of N^n for defective spectra.

    With r1 the top eigenvalue modulus and M the largest block size on
    that tier, N^n grows like envelope = C(n, M-1) * r1^(n-M+1) times the
    direction matrix
    D_n = sum_c e^{i (n-M+1) theta_c} p_{c,1} q_{c,M}^*
    over the tier's maximal blocks.  Returns (D_n, envelope).

    Raises UnsupportedProfileError when one top-tier eigenvalue carries
    several maximal blocks: the per-eigenvalue enumeration behind the
    asymptotic form breaks down there, and InvalidArgumentError naming n
    when the envelope overflows.
    """
    n = _count_arg(n, "iterate", 1)
    tier_rtol = _number_arg(tier_rtol, "tier_rtol", real=True)
    mods = [abs(lam) for lam, _ in jf.blocks]
    r1 = max(mods)
    if r1 == 0.0:
        raise NoSpectrumError("all eigenvalues are zero; no growth envelope")
    offsets = np.cumsum([0] + [m for _, m in jf.blocks])
    tier = [
        (i, lam, m)
        for i, (lam, m) in enumerate(jf.blocks)
        if abs(lam) >= (1.0 - tier_rtol) * r1
    ]
    M = max(m for _, _, m in tier)
    leading = [(i, lam) for i, lam, m in tier if m == M]
    seen = []
    for _, lam in leading:
        for other in seen:
            if abs(lam - other) <= tier_rtol * r1:
                raise UnsupportedProfileError(
                    f"eigenvalue {lam:.6g} carries more than one maximal block "
                    f"of size {M} on the top tier; this tie is outside the "
                    "supported asymptotic profile"
                )
        seen.append(lam)
    envelope = _finite_power(n, "iterate", lambda: binomial(n, M - 1) * r1 ** (n - M + 1))
    D = np.zeros((jf.dim, jf.dim), dtype=complex)
    for i, lam in leading:
        theta = np.angle(lam)
        p_first = jf.P[:, offsets[i]]
        q_last = jf.Q[:, offsets[i] + M - 1]
        D += np.exp(1j * (n - M + 1) * theta) * np.outer(p_first, np.conj(q_last))
    return D, envelope


def lift_to_kernel(blocks, basis, rule):
    """Finite-rank kernel whose operator carries the given Jordan blocks.

    The basis must be orthonormal under the rule; the operator then acts
    on span(basis) exactly as blockdiag(J_{m_j}(lambda_j)) and as zero on
    the orthogonal complement.  The chain functions are the basis entries
    grouped block by block.
    """
    blocks = [(_number_arg(lam, "lam"), _count_arg(m, "block size", 1)) for lam, m in blocks]
    total = sum(m for _, m in blocks)
    if total != len(basis):
        raise InvalidArgumentError(
            f"basis length {len(basis)} must equal the total block size {total}"
        )
    J = np.zeros((total, total), dtype=complex)
    i = 0
    for lam, m in blocks:
        J[i : i + m, i : i + m] = jordan_block(lam, m)
        i += m
    return basis_kernel(J, basis, rule)
