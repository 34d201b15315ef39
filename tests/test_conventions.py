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
are the eigh one, in its dtype, for djf_eig, and the same one sorted by
modulus and sign-folded for the SVD.  That eigh is the call fredkit makes,
so the oracle sees the same bits: on the symmetric rules here mehler and
twin are reflection-symmetric, and take the reflection route's two
half-size real eighs (mehler) or one real eigh of the real form (twin);
basis takes dsyevd.
skew, the real e^{0.2y} M(y, z) e^{-0.2z}, is not: its svd path keeps the
bit-for-bit oracle, and djf_eig's general path, built from a sorted Schur
form, is checked against an independent reference instead, numpy's eig of
B with V^{-H} for the left family, within first-order perturbation bounds
(test_skew_djf_agrees_with_an_eig_reference).  The polish applies A as
K (w p) and the adjoint as K^H (w q); a real K applies to a complex column
as one real product on its (n, 2) float view.
"""
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

import fredkit as fk
from fredkit import nystrom
from fredkit.errors import DefectiveSuspectedError
from fredkit.kernels import ClosedForm
from fredkit.nystrom import EIGH_DRIVER, _anchor_phase, _winner, _wnorm

from conftest import symmetrized

UNIT = np.finfo(float).eps / 2  # unit roundoff u


def winner(w, u, v):
    """Weighted inner product sum_i w_i * conj(u_i) * v_i."""
    return complex(np.sum(w * np.conj(u) * v))


def wnorm(w, u):
    """Weighted 2-norm induced by `winner`."""
    return float(np.sqrt(np.sum(w * np.abs(u) ** 2).real))


def weighted(M, w, x):
    """M @ (w x) for one column x, as the polish rounds it: a real M applies
    to a complex x as one product with the (n, 2) columns of its real and
    imaginary parts."""
    y = w * x
    if M.dtype.kind == "f" and y.dtype.kind == "c":
        return np.ascontiguousarray(M @ np.column_stack((y.real, y.imag))).view(complex)[:, 0]
    return M @ y


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
    """The eigh fredkit makes of op's Hermitian part: on the reflection route
    (op.reflection_symmetric) its own two half-size real eighs or real-form
    eigh (nystrom._reflected_eigh), else LAPACK's dsyevd for a real B and
    zheevr for a complex one (nystrom.EIGH_DRIVER).  The route's output is
    first checked against one plain full-size eigh of S, independent of the
    route: both are backward stable, each within n u ||S||_2 of S, so the
    spectra agree within 2 n u ||S||_2 (Weyl) and each unit vector with
    |nu| >= REFINE_RTOL nu_1 within pi n u nu_1 / gap after the best unit
    phase (Davis-Kahan, as tests/test_dtype.py bounds it)."""
    B = symmetrized(op)
    S = 0.5 * (B + B.conj().T)
    if not op.reflection_symmetric:
        return scipy.linalg.eigh(S, driver=EIGH_DRIVER[S.dtype.kind], overwrite_a=True,
                                 check_finite=False)
    vals, vecs = nystrom._reflected_eigh(S)
    ref, ref_vecs = scipy.linalg.eigh(S, check_finite=False)
    n, top = S.shape[0], np.max(np.abs(ref))
    order = np.argsort(vals, kind="stable")
    assert np.max(np.abs(vals[order] - ref)) <= 2 * n * UNIT * top
    sel = np.flatnonzero(np.abs(ref) >= nystrom.REFINE_RTOL * top)
    gaps = np.array([np.min(np.abs(np.delete(ref, j) - ref[j])) for j in sel])
    P, Q = vecs[:, order[sel]], ref_vecs[:, sel]
    inner = np.sum(np.conj(Q) * P, axis=0)
    dist = np.linalg.norm(P - Q * (inner / np.abs(inner)), axis=0)
    assert np.all(dist <= np.pi * n * UNIT * top / gaps)
    return vals, vecs


def column_at_a_time(op, method):
    """The decompositions' outputs as the scalar helpers made them, one column
    at a time; the LAPACK calls, sort and refusal checks are fredkit's own.
    On an operator Hermitian to roundoff, djf_eig's oracle is the eigh one,
    in its dtype, and the SVD's is the eigh one re-sorted: theta = |nu|
    in a stable descending sort of its eigenvalues, q = sign(nu) p with
    sign(nu) = +1 for |nu| at or below the roundoff floor N eps |nu_1| (not
    resolved, so 0), and q is p itself when no resolved nu is negative."""
    w = op.w_rows
    if method == "djf" and op.hermitian_to_roundoff():
        return column_at_a_time(op, "eig")
    if method == "svd" and op.hermitian_to_roundoff():
        P, _ = column_at_a_time(op, "eig")
        vals = hermitian_eigh(op)[0]
        vals = vals[nystrom._sort_order(vals.astype(complex))]
        order = np.argsort(-np.abs(vals), kind="stable")
        P, vals = P[:, order], vals[order]
        negative = vals < -vals.size * np.finfo(float).eps * np.max(np.abs(vals))
        return P, P * np.where(negative, -1.0, 1.0) if negative.any() else P
    if method == "svd":
        U, s, Vh = np.linalg.svd(symmetrized(op), full_matrices=False)
        P, Q = U / np.sqrt(w)[:, None], Vh.conj().T / np.sqrt(op.w_cols)[:, None]
        for j in range(P.shape[1]):
            ph = anchor_phase(P[:, j])
            P[:, j] *= ph
            Q[:, j] *= ph
        return P, Q
    if method == "eig":
        vals, vecs = hermitian_eigh(op)
        order = nystrom._sort_order(vals.astype(complex))
        vals, P = vals[order], vecs[:, order] / np.sqrt(w)[:, None]
        for j in range(P.shape[1]):
            col = P[:, j]
            if abs(vals[j]) >= nystrom.REFINE_RTOL * abs(vals[0]):
                col = weighted(op.K, op.w_cols, col) / vals[j]
            P[:, j] = col * (anchor_phase(col) / wnorm(w, col))
        return P, P
    raise ValueError(f"no column-at-a-time oracle for {method} off the Hermitian route")


@pytest.mark.parametrize("name, n, method", [c for c in CASES if c[::2] != ("skew", "djf")])
def test_outputs_equal_the_column_at_a_time_ones(name, n, method):
    """Bit for bit, so every anchor lands where one column alone puts it:
    Mehler's odd eigenfunctions on a symmetric rule have mirror-node entries
    tied up to rounding, and a matrix-matrix polish moves some of them."""
    P, Q, _, _ = families(decomposition(name, n, method), method)
    op = operator(name, n)
    assert op.hermitian_to_roundoff() == HERMITIAN[name]
    P_ref, Q_ref = column_at_a_time(op, method)
    assert P.dtype == P_ref.dtype and Q.dtype == Q_ref.dtype
    assert np.array_equal(P, P_ref)
    assert np.array_equal(Q, Q_ref)
    assert (Q is P) == (Q_ref is P_ref)


@pytest.mark.parametrize("n", [64, 256])
def test_skew_djf_agrees_with_an_eig_reference(n):
    """djf_eig's general path against numpy's eig of the test's own B, sorted
    by descending modulus (the skew spectrum, Mehler's 2^-j up to scale, has
    no ties), with p = v / sqrt(w) and the left family from V^{-H}.  Both
    factorizations are backward stable, each within ||E|| <= n u ||B||_F of
    B, so to first order (Wilkinson, The Algebraic Eigenvalue Problem, ch. 2;
    with ||p_k||_W = 1 and <q_k, p_k>_W = 1, the condition of nu_k is
    ||q_k||_W):
    * each retained eigenvalue is within ||q_j||_W ||E|| of the exact one;
    * each unpolished right vector within
      delta_j = ||E|| sum_{k != j} ||q_k||_W / |nu_j - nu_k|, and a polished
      one, p <- A p / nu, within ||E|| sum_{k != j} ||q_k||_W |nu_k| /
      (|nu_j| |nu_j - nu_k|) plus its own rounding n u ||B||_F / |nu_j|;
    * each left vector within ||q_j||_W times its right vector's bound, of
      the exact one scaled to <q_j, p_j>_W = 1.
    The two sides' bounds add, and aligning the phase of unit vectors at
    most doubles a distance (2 sin(phi / 2) <= phi <= (pi / 2) sin(phi))."""
    op = operator("skew", n)
    assert not op.hermitian_to_roundoff()
    d = fk.djf_eig(op)
    r, nu, P, Q = d.retained, d.eigenvalues, d.right, d.left
    w = op.w_rows
    sqw = np.sqrt(w)[:, None]
    B = symmetrized(op)
    E = n * UNIT * np.linalg.norm(B)
    vals, V = np.linalg.eig(B)
    order = np.argsort(-np.abs(vals), kind="stable")
    vals, V = vals[order], V[:, order]
    P_ref, Q_ref = V / sqw, np.linalg.inv(V).conj().T / sqw
    qn = np.sqrt(np.sum(w[:, None] * np.abs(Q) ** 2, axis=0))
    assert np.all(np.abs(nu[:r] - vals[:r]) <= 2 * qn[:r] * E)
    polished = np.abs(nu[:r]) >= nystrom.REFINE_RTOL * abs(nu[0]) * np.max(qn[:r])
    for j in range(r):
        others = np.arange(nu.size) != j
        terms = qn[others] / np.abs(nu[j] - nu[others])
        ref_bound = E * np.sum(terms)
        if polished[j]:
            ours = E * np.sum(terms * np.abs(nu[others])) / abs(nu[j]) + E / abs(nu[j])
        else:
            ours = ref_bound
        bound = np.pi * (ours + ref_bound)
        c = np.sum(w * np.conj(P_ref[:, j]) * P[:, j])
        c /= abs(c)
        assert wnorm(w, P[:, j] - c * P_ref[:, j]) <= bound
        assert wnorm(w, Q[:, j] - c * Q_ref[:, j]) <= 2 * qn[j] * bound


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
    # the coalescing eigenvectors of a Jordan block.  Where rounding splits
    # the double eigenvalue, kappa is about u^{-1/2} times the Schur vectors'
    # geometry (defective(3)); on this mirrored rule the real Schur form holds
    # it exactly, LAPACK's two eigenvectors agree to rounding and kappa is
    # about 1/u (kappa n u = 24)
    (lambda: defective(2), r"^eigenvector matrix condition \S+e\+16 " + LIMIT),
    (lambda: defective(3), r"^eigenvector matrix condition \S+e\+10 " + LIMIT),
    # kappa n u = 8.4e-8: refused on the condition.  kappa = cond_1(M) depends
    # on the orthonormal basis Q_t of the tail (here the Schur vectors; the
    # 2-norm condition does not), within a factor n of cond_2(V)
    (lambda: jordan_like(3, 1.778e-4), r"^eigenvector matrix condition 6\.\d+e\+07 " + LIMIT),
], ids=["defective-2 condition", "condition", "near-jordan condition"])
def test_djf_refusal_branches(op, message):
    with pytest.raises(DefectiveSuspectedError, match=message):
        fk.djf_eig(op())
