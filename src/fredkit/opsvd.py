"""Singular value decomposition of discretized integral operators.

The SVD is computed on B = W^{1/2} K W^{1/2}, read (DiscreteOperator.B,
formed on every read) for that one svd call, so Euclidean orthonormality of
the singular vectors becomes weighted orthonormality of the node samples.
Only the rank_numerical triples (theta_j > 1e-12 theta_1) keep their vectors;
Gram-operator powers (N N^*)^n, their odd variants, the trace power sums and
truncation follow from them, and a power that overflows raises InvalidArgumentError naming n.

When B is Hermitian to roundoff (DiscreteOperator.hermitian_to_roundoff)
the triples are read by name from hermitian_family instead of an svd:
theta_j = |nu_j| in a stable descending sort, p_j its polished, anchored
samples and q_j = sign(nu_j) p_j, where a nu_j at or below the roundoff
floor N eps |nu_1| (nystrom._roundoff_floor) counts as 0 and sign(0) = +1.
When no retained nu_j is negative, as on a positive semi-definite kernel,
right is left: one array.
"""
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, _array_arg, _count_arg, _instance_arg
from .nystrom import (DiscreteOperator, _anchor_phase, _finite, _linalg, _matvec, _norm,
                      _operator_arg, _read_only, _retained_count, _roundoff_floor, _scale_free)


@dataclass(frozen=True, eq=False)
class OperatorSVD:
    """Singular triples (theta_j, p_j, q_j) of a discretized operator.

    singular_values are real, non-negative, non-increasing, all N of them;
    left holds the p_j node samples column-wise, right the q_j samples, both
    N x rank_numerical (theta_j > 1e-12 * theta_1), weighted-orthonormal and
    read-only; right may be left itself (see the module docstring).
    w_rows and w_cols are the operator's read-only weights; the SVD never
    holds its operator.
    """

    singular_values: np.ndarray
    left: np.ndarray
    right: np.ndarray
    shape: tuple
    rank_numerical: int
    w_rows: np.ndarray
    w_cols: np.ndarray


def _svd_arg(svd):
    """svd; InvalidArgumentError unless it is an OperatorSVD, the one check
    of every entry point's SVD argument."""
    return _instance_arg(svd, OperatorSVD, "svd")


def operator_svd(op: DiscreteOperator) -> OperatorSVD:
    """Singular triples of the operator via the dense SVD of B, or from its
    Hermitian family on the route (see the module docstring; op.family
    would build a Schur form off it).  From the SVD, the retained samples are
    un-weighted back from the singular vectors (division by sqrt(w)); each
    p_j gets a real-positive anchor entry and q_j inherits the same
    rotation, so A q_j = theta_j p_j is preserved.  Both families are
    read-only on both routes.  A ||B||_F that is not finite raises
    InvalidArgumentError.
    """
    if _operator_arg(op).hermitian_to_roundoff():
        family = op.hermitian_family
        nu = family.eigenvalues.real
        order = np.argsort(-np.abs(nu), kind="stable")
        nu = nu[order]
        s, r = np.abs(nu), family.retained
        P = family.right[:, order[:r]]
        negative = nu[:r] < -_roundoff_floor(nu)
        Q = P * np.where(negative, -1.0, 1.0) if negative.any() else P
    else:
        B = op.B
        _finite("B has an entry that is not finite, or ||B||_F overflows", lambda: _norm(B))
        U, s, Vh = _linalg("svd", B, full_matrices=False)
        r = _retained_count(s)
        P = U[:, :r] / np.sqrt(op.w_rows)[:, None]
        Q = Vh[:r].conj().T / np.sqrt(op.w_cols)[:, None]
        ph = _anchor_phase(P)
        P *= ph
        Q *= ph
    return OperatorSVD(
        singular_values=s,
        left=_read_only(P),
        right=_read_only(Q),
        shape=op.shape,
        rank_numerical=r,
        w_rows=op.w_rows,
        w_cols=op.w_cols,
    )


def _side_matrix(svd, side):
    svd = _svd_arg(svd)
    if side == "left":
        return svd.left
    if side == "right":
        return svd.right
    raise InvalidArgumentError(f"side must be 'left' or 'right', got {side!r}")


def iterated_gram(svd: OperatorSVD, n: int, side="left") -> np.ndarray:
    """Kernel samples of (N N^*)^n (left) or (N^* N)^n (right), n >= 1.

    Expansion sum_j theta_j^{2n} p_j p_j^* (resp. q_j q_j^*) over the stored triples.
    """
    n = _count_arg(n, "iterate", 1)
    V = _side_matrix(svd, side)
    theta = svd.singular_values[None, :svd.rank_numerical]
    return _finite(f"iterate n={n} overflows: its entries are not finite",
                   lambda: (V * theta ** (2 * n)) @ V.conj().T)


def iterated_gram_with_kernel(svd: OperatorSVD, n: int, side="left") -> np.ndarray:
    """Odd-power kernel samples: sum_j theta_j^{2n+1} p_j q_j^*, n >= 0.

    side="left" gives (N N^*)^n N (K less its null space at n = 0), side="right"
    the adjoint variant sum_j theta_j^{2n+1} q_j p_j^*; each over the stored triples.
    """
    n = _count_arg(n, "iterate")
    V = _side_matrix(svd, side)
    W = svd.right if side == "left" else svd.left
    theta = svd.singular_values[None, :svd.rank_numerical]
    return _finite(f"iterate n={n} overflows: its entries are not finite",
                   lambda: (V * theta ** (2 * n + 1)) @ W.conj().T)


def gram_apply(svd: OperatorSVD, n: int, f, side="left") -> np.ndarray:
    """Apply (N N^*)^n to node samples through the retained triples.

    Returns sum_j theta_j^{2n} p_j <p_j, f>_W (left) or the q-side
    analogue.  At n = 0 this is the orthogonal projection onto the
    retained singular subspace, not the identity: truncation discards the
    null directions that would be needed to resolve arbitrary f.  Scale-free.
    """
    n = _count_arg(n, "iterate")
    V = _side_matrix(svd, side)
    w = svd.w_rows if side == "left" else svd.w_cols
    f = _array_arg(f, "f", (V.shape[0],))
    theta = svd.singular_values[:svd.rank_numerical]
    return _scale_free(f"iterate n={n} overflows: its entries are not finite", f,
                       lambda g: _matvec(V, theta ** (2 * n) * _matvec(V.conj().T, w * g)))


def trace_power(svd: OperatorSVD, n: int) -> float:
    """Trace identity value sum_j theta_j^{2n+2}, n >= 0.

    Equals the quadrature of trace[N^* (N N^*)^n N](x, x) over the measure.
    """
    n = _count_arg(n, "iterate")
    svd = _svd_arg(svd)
    return _finite(f"iterate n={n} overflows: its entries are not finite",
                   lambda: float(np.sum(svd.singular_values ** (2 * n + 2))))


def svd_truncate(svd: OperatorSVD, M: int):
    """Keep the top M triples; returns (truncated SVD, tail bound theta_{M+1}).

    The tail bound drives the O(theta_{M+1}^{2n}) error of truncated
    iterated Gram kernels.  The kept columns are copied once, read-only, and
    right is left when it was so in svd.
    """
    M = _count_arg(M, "kept count", 1, _svd_arg(svd).rank_numerical)
    tail = float(svd.singular_values[M]) if M < svd.singular_values.size else 0.0
    left = _read_only(svd.left[:, :M].copy())
    trunc = replace(
        svd,
        singular_values=svd.singular_values[:M].copy(),
        left=left,
        right=left if svd.right is svd.left else _read_only(svd.right[:, :M].copy()),
        rank_numerical=M,
    )
    return trunc, tail
