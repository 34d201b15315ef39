"""The weighted-geometry conventions at benchmark scale.

hermitian_eig, djf_eig and operator_svd normalize whole arrays of columns
through nystrom's column-wise helpers.  The scalar helpers they replaced
are kept below, verbatim, as the oracle: column by column, the array forms
must give the same bits, the decompositions must return what the helpers
made of one column at a time, bit for bit, and the outputs must keep unit
W-norms, a real-positive first maximal entry, and the orthonormality and
bi-orthogonality budgets.  Cases are seeded, at the N = 64 / 256 sizes of
the benchmark's smaller workloads and at its N = 1024 for the Hermitian
and SVD paths, real and complex; djf_eig's general path at N = 1024 is
checked against invariants in test_djf_general.py.

mehler, twin and basis are Hermitian to roundoff, so djf_eig and
operator_svd answer from the eigh of B's Hermitian part there: their oracles
are the eigh one, upcast to complex for djf_eig, and the sign-folded eigh
one for the SVD.  That eigh is the call fredkit makes, dsyevd for real
mehler and basis and zheevr for twin, so the oracle sees the same bits.
skew, the real e^{0.2y} M(y, z) e^{-0.2z}, is not, and keeps djf_eig's
general path and the svd path under their own oracles; the djf one runs a
real eig and builds the left family from the same r x r formulas as
djf_eig (V = [V_r, Q_t] = [Q_t, Q_perp] M), one column of the polish at a
time.
"""
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

import fredkit as fk
from fredkit import spectral
from fredkit.errors import DefectiveSuspectedError
from fredkit.kernels import ClosedForm
from fredkit.nystrom import EIGH_DRIVER, _anchor_phase, _winner, _wnorm

UNIT = np.finfo(float).eps / 2  # unit roundoff u


def winner(w, u, v):
    """Weighted inner product sum_i w_i * conj(u_i) * v_i."""
    return complex(np.sum(w * np.conj(u) * v))


def wnorm(w, u):
    """Weighted 2-norm induced by `winner`."""
    return float(np.sqrt(np.sum(w * np.abs(u) ** 2).real))


def anchor_phase(u):
    """Unit-modulus factor that rotates the largest-|.| entry real positive.

    Ties resolve to the first maximal entry, which makes the convention
    deterministic.  Returns 1.0 for the zero vector.
    """
    a = int(np.argmax(np.abs(u)))
    ua = u[a]
    if ua == 0:
        return 1.0
    return abs(ua) / ua


def twin_kernel(a):
    """e^{iay} M(y, z) e^{-iaz}: Hermitian, complex, with Mehler's spectrum."""
    mehler = fk.mehler_kernel(0.5).body.evaluator
    return fk.Kernel(shape=(1, 1), body=ClosedForm(
        lambda y, z: np.exp(1j * a * y) * mehler(y, z) * np.exp(-1j * a * z)))


def skew_kernel(b):
    """e^{by} M(y, z) e^{-bz}: real, not Hermitian, with Mehler's spectrum."""
    mehler = fk.mehler_kernel(0.5).body.evaluator
    return fk.Kernel(shape=(1, 1), body=ClosedForm(
        lambda y, z: np.exp(b * y) * mehler(y, z) * np.exp(-b * z)))


HERMITIAN = {"mehler": True, "twin": True, "basis": True, "skew": False}


@lru_cache(maxsize=None)
def operator(name, n):
    """The seeded operator `name` on Gauss-Legendre n over [-4, 4]."""
    rule = fk.gauss_legendre(n, -4.0, 4.0)
    rng = np.random.default_rng(n)
    if name == "mehler":
        kern = fk.mehler_kernel(0.5)
    elif name == "skew":
        kern = skew_kernel(0.2)
    elif name == "twin":
        kern = twin_kernel(rng.uniform(0.5, 1.5))
    else:  # a real symmetric basis kernel of rank 6
        C = rng.standard_normal((6, 6))
        kern = fk.basis_kernel(C + C.T, fk.orthonormal_poly_basis(rule, 6), rule)
    return fk.discretize(kern, rule)


METHODS = {"eig": fk.hermitian_eig, "djf": fk.djf_eig, "svd": fk.operator_svd}
CASES = ([(name, n, method) for n in (64, 256) for name in ("mehler", "twin", "basis")
          for method in METHODS]
         + [("skew", n, method) for n in (64, 256) for method in ("djf", "svd")]
         + [("mehler", 1024, "eig"), ("mehler", 1024, "svd"), ("twin", 1024, "eig")])


@lru_cache(maxsize=None)
def decomposition(name, n, method):
    return METHODS[method](operator(name, n))


def teardown_module():
    operator.cache_clear()  # the N = 1024 operator and its decompositions
    decomposition.cache_clear()


def families(d, method):
    """(anchored family, other family, row weights, scored columns)."""
    if method == "svd":
        return d.left, d.right, d.w_rows, d.rank_numerical
    return d.right, d.left, d.weights, d.retained


def columns(f, w, X, *more):
    return np.array([f(w, X[:, j], *(Y[:, j] for Y in more)) for j in range(X.shape[1])])


@pytest.mark.parametrize("name, n, method", CASES)
def test_array_helpers_match_the_scalar_ones(name, n, method):
    d = decomposition(name, n, method)
    P, Q, w, _ = families(d, method)  # square blocks: one weight vector serves P and Q
    rng = np.random.default_rng(n)
    # the outputs, and a copy with seeded column phases: an unanchored input
    spun = P * np.exp(1j * rng.uniform(-np.pi, np.pi, P.shape[1]))
    for X in (P, Q, spun):
        anchors = np.array([int(np.argmax(np.abs(X[:, j]))) for j in range(X.shape[1])])
        assert np.array_equal(np.argmax(np.abs(X), axis=0), anchors)
        phases = np.array([anchor_phase(X[:, j]) for j in range(X.shape[1])])
        assert np.array_equal(_anchor_phase(X), phases)
        assert np.array_equal(_wnorm(w, X), columns(wnorm, w, X))
    assert np.array_equal(_winner(w, Q, P), columns(winner, w, Q, P))
    assert np.array_equal(_winner(w, spun, P), columns(winner, w, spun, P))
    for j in (0, P.shape[1] - 1):  # a vector is the one-column case
        assert _wnorm(w, P[:, j]) == wnorm(w, P[:, j])
        assert _winner(w, Q[:, j], P[:, j]) == winner(w, Q[:, j], P[:, j])
        assert _anchor_phase(P[:, j]) == anchor_phase(P[:, j])


def test_exact_ties_go_to_the_first_maximal_entry():
    X = np.array([[1.0, -1j, 0.0], [-1.0, 1.0, 0.0], [1j, -1.0, 0.0]])
    phases = [anchor_phase(X[:, j]) for j in range(3)]
    assert phases == [1.0, 1j, 1.0]  # the zero column keeps phase 1
    assert np.array_equal(_anchor_phase(X), phases)
    assert _anchor_phase(X[:, 1]) == 1j


@pytest.mark.parametrize("name, n, method", CASES)
def test_outputs_keep_the_conventions(name, n, method):
    d = decomposition(name, n, method)
    P, Q, w, r = families(d, method)
    assert r >= 6
    Pr, Qr = P[:, :r], Q[:, :r]
    assert np.max(np.abs(columns(wnorm, w, Pr) - 1.0)) <= n * UNIT
    # the anchor, the first maximal entry before the final rounding, is real
    # positive; rounding may lift a mirror-node twin a hair above it
    mods = np.abs(Pr)
    near_top = mods >= (1.0 - 8 * UNIT) * mods.max(axis=0)
    positive = np.abs(Pr - mods) <= 4 * UNIT * mods
    assert np.all(np.any(near_top & positive, axis=0))
    gram = Qr.conj().T @ (w[:, None] * Pr) - np.eye(r)
    if method == "djf":
        assert np.max(np.abs(gram)) <= 1e-8
        assert d.biorth_residual == pytest.approx(np.max(np.abs(gram)), abs=1e-15)
    else:
        for X in (Pr, Qr):
            assert np.max(np.abs(X.conj().T @ (w[:, None] * X) - np.eye(r))) <= 1e-10


def hermitian_eigh(op):
    """The eigh fredkit makes of op's Hermitian part: LAPACK's dsyevd for a
    real B and zheevr for a complex one (nystrom.EIGH_DRIVER)."""
    S = 0.5 * (op.B + op.B.conj().T)
    return scipy.linalg.eigh(S, driver=EIGH_DRIVER[S.dtype.kind], overwrite_a=True,
                             check_finite=False)


def column_at_a_time(op, method):
    """The decompositions' outputs as the scalar helpers made them, one column
    at a time; the LAPACK calls, sort and refusal checks are fredkit's own.
    On an operator Hermitian to roundoff, djf_eig's oracle is the eigh one
    upcast to complex, and the SVD's comes from the same eigh: theta = |nu|
    in a stable descending sort, q = sign(nu) p with sign(0) = +1."""
    w = op.w_rows
    if method == "djf" and op.hermitian_to_roundoff():
        P, _ = column_at_a_time(op, "eig")
        P = P.astype(complex)
        return P, P
    if method == "svd" and op.hermitian_to_roundoff():
        vals, vecs = hermitian_eigh(op)
        order = np.argsort(-np.abs(vals), kind="stable")
        P = vecs[:, order] / np.sqrt(w)[:, None]
        Q = P * np.where(vals[order] < 0, -1.0, 1.0)
        for j in range(P.shape[1]):
            ph = anchor_phase(P[:, j])
            P[:, j] *= ph
            Q[:, j] *= ph
        return P, Q
    if method == "svd":
        U, s, Vh = np.linalg.svd(op.B, full_matrices=False)
        P, Q = U / np.sqrt(w)[:, None], Vh.conj().T / np.sqrt(op.w_cols)[:, None]
        for j in range(P.shape[1]):
            ph = anchor_phase(P[:, j])
            P[:, j] *= ph
            Q[:, j] *= ph
        return P, Q
    if method == "eig":
        vals, vecs = hermitian_eigh(op)
        order = spectral._sort_order(vals.astype(complex))
        vals, P = vals[order], vecs[:, order] / np.sqrt(w)[:, None]
        for j in range(P.shape[1]):
            col = P[:, j]
            if abs(vals[j]) >= spectral.REFINE_RTOL * abs(vals[0]):
                col = (op.A @ col) / vals[j]
            P[:, j] = col * (anchor_phase(col) / wnorm(w, col))
        return P, P
    vals, V = np.linalg.eig(op.B)  # real LAPACK for a real B; the pairs are complex
    vals, V = vals.astype(complex), V.astype(complex)
    order = spectral._sort_order(vals)
    vals, V = vals[order], V[:, order]
    r = spectral._retained_count(vals)
    spectral._rebasis_degenerate(vals, V, r)
    # the tail becomes Q_t of the complete QR Z = [Q_t, Q_perp] of itself
    n = V.shape[0]
    Z, _ = np.linalg.qr(V[:, r:], mode="complete")
    V[:, r:] = Z[:, : n - r]
    sqw = np.sqrt(w)
    for j in range(n):
        p = V[:, j] / sqw
        V[:, j] *= anchor_phase(p) / wnorm(w, p)
    # V = Z [[A, I], [C, 0]], so V^{-H} = [Q_perp C^{-H}, Q_t - Q_perp C^{-H} A^H]
    Qt, Qp = V[:, r:], Z[:, n - r:]
    A, C = Qt.conj().T @ V[:, :r], Qp.conj().T @ V[:, :r]
    Ur = Qp @ np.linalg.inv(C).conj().T
    P, Q = V / sqw[:, None], np.hstack((Ur, Qt - Ur @ A.conj().T)) / sqw[:, None]
    # the pass runs where REFINE_RTOL |nu_1| times the largest retained ||q_j||_W fits
    kappa_max = max([1.0] + [wnorm(w, Q[:, j]) for j in range(r)])
    for j in range(r):
        if abs(vals[j]) >= spectral.REFINE_RTOL * abs(vals[0]) * kappa_max:
            p = (op.A @ P[:, j]) / vals[j]
            p *= anchor_phase(p) / wnorm(w, p)
            q = (op.K.conj().T @ (w * Q[:, j])) / np.conj(vals[j])
            P[:, j], Q[:, j] = p, q / np.conj(winner(w, q, p))
    return P, Q


@pytest.mark.parametrize("name, n, method", CASES)
def test_outputs_equal_the_column_at_a_time_ones(name, n, method):
    """Bit for bit, so every anchor lands where one column alone puts it:
    Mehler's odd eigenfunctions on a symmetric rule have mirror-node entries
    tied up to rounding, and a matrix-matrix polish moves some of them."""
    P, Q, _, _ = families(decomposition(name, n, method), method)
    op = operator(name, n)
    assert op.hermitian_to_roundoff() == HERMITIAN[name]
    P_ref, Q_ref = column_at_a_time(op, method)
    assert np.array_equal(P, P_ref)
    assert np.array_equal(Q, Q_ref)


def _basis(rule, m, a):
    """The first m orthonormal polynomials, times e^{iax} when a != 0: still
    orthonormal, so a kernel on them keeps its spectrum and becomes complex."""
    basis = fk.orthonormal_poly_basis(rule, m)
    return basis if a == 0 else [lambda x, e=e: e(x) * np.exp(1j * a * x) for e in basis]


def basis_operator(C, a=0.0, n=12):
    """The kernel acting as the matrix C on len(C) basis functions over
    Gauss-Legendre n on [0, 1]."""
    rule = fk.gauss_legendre(n, 0.0, 1.0)
    C = np.asarray(C, dtype=float)
    return fk.discretize(fk.basis_kernel(C, _basis(rule, C.shape[0], a), rule), rule)


def jordan_like(m, delta, n=12, a=0.0):
    """A kernel acting as 0.5 I + N + delta diag(0, 1, .., m-1) on m basis
    functions over Gauss-Legendre n: a Jordan block for delta = 0."""
    J = 0.5 * np.eye(m) + np.diag(np.ones(m - 1), 1) + delta * np.diag(np.arange(m))
    return basis_operator(J, a, n)


def defective(m, n=12, a=0.0):
    rule = fk.gauss_legendre(n, 0.0, 1.0)
    return fk.discretize(fk.defective_kernel(0.5, m, _basis(rule, m, a), rule), rule)


def polish_noise(n=12, a=0.0):
    """Rank 2, eigenvalues 1 and 1e-4 with an eigenvector angle of about
    1e-3: kappa n u is about 3e-12, and ||q_2||_W about 1e3 lifts the pass
    threshold to about 1e-2 |nu_1|, so nu = 1e-4 keeps its unpolished pair.
    A pass there would amplify rounding by ||K|| ||q_2||_W / |nu|, to a
    bi-orthogonality residual of about 2e-7."""
    return basis_operator([[1.0, 1e3], [0.0, 1e-4]], a, n)


# 1e-8 / (n u) at n = 12
LIMIT = (r"exceeds 1e-8 / \(n u\) = 7\.506e\+06; "
         r"the operator looks defective -- use the jordan module$")


@pytest.mark.parametrize("op, message", [
    # kappa n u = 1.6e-7: the coalescing eigenvectors of a Jordan block
    (lambda: defective(2), r"^eigenvector matrix condition 1\.\d+e\+08 " + LIMIT),
    (lambda: defective(3), r"^eigenvector matrix condition \S+e\+10 " + LIMIT),
    # kappa n u = 1.03e-8: refused on the condition, where a rule on the residual
    # would be decided by rounding (1.7e-8 to 1.8e-8 with complex eig, 9.0e-9 with real)
    (lambda: jordan_like(3, 1.778e-4), r"^eigenvector matrix condition 7\.\d+e\+07 " + LIMIT),
], ids=["defective-2 condition", "condition", "near-jordan condition"])
def test_djf_refusal_branches(op, message):
    with pytest.raises(DefectiveSuspectedError, match=message):
        fk.djf_eig(op())
