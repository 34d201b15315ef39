"""djf_eig's general path: operators that are not Hermitian to roundoff.

There one Schur form B = Z T Z^H runs in the operator's dtype, reordered so
that the eigenvalues outside the retained cut lead; its first n - r Schur
vectors are the tail Q_t, a Sylvester solve and an r x r eig give the r
retained right vectors, and the left family and the condition
kappa = cond_1(M) of V = Z M come from r x r algebra (see
DiscreteOperator.general_family).  The one refusal rule is
kappa n u <= 1e-8, tested first; the eigen-residual and bi-orthogonality
checks after it are output assertions that only the fault-injection tests
at the end reach.

Invariants are checked at the benchmark's sizes on the real skew kernel
e^{0.2y} M(y, z) e^{-0.2z} (M Mehler's, r = 0.5) and its complex twin
e^{iay} e^{0.2y} M(y, z) e^{-0.2z} e^{-iaz}, on Gauss-Legendre n over [-4, 4].
Both are diagonal similarities of Mehler on the same rule, so they share
its discrete spectrum.  Bounds come from n, u, kappa and REFINE_RTOL:

* the pairs not touched by the Nystrom pass are bi-orthogonal to within
  kappa n u, the error of an inverse of condition kappa (Higham, Accuracy
  and Stability of Numerical Algorithms, 2nd ed., ch. 14);
* the pass p <- A p / nu, q <- K^H (w q) / conj(nu) rounds at about
  u ||B|| kappa_max / |nu| in the Gram matrix, kappa_max = max_j ||q_j||_W,
  and runs only for |nu| >= REFINE_RTOL kappa_max |nu_1|, so the pairs below
  REFINE_RTOL |nu_1| are untouched and the whole families stay within
  kappa n u / REFINE_RTOL;
* eigenvalues move by at most kappa times their backward error n u ||B||.
"""
import numpy as np
import pytest
import scipy.linalg

import fredkit as fk
from fredkit import fredholm, nystrom
from fredkit.errors import DefectiveSuspectedError

from test_conventions import (
    UNIT, basis_operator, defective, jordan_like, polish_noise, skew_kernel,
)

A_TWIN = 0.7  # the twin's phase rate: skew_kernel(0.2 + 0.7i)


def _wnorms(w, X):
    return np.sqrt(np.sum(w[:, None] * np.abs(X) ** 2, axis=0))


def kappa_spy(monkeypatch):
    """A list that collects kappa from every _inverse_adjoint call."""
    seen = []
    inverse_adjoint = nystrom._inverse_adjoint

    def spy(*args):
        U, kappa = inverse_adjoint(*args)
        seen.append(kappa)
        return U, kappa

    monkeypatch.setattr(nystrom, "_inverse_adjoint", spy)
    return seen


def assert_eigen_residuals(op, d):
    """Right and left eigen-residuals of the retained pairs within djf_eig's 1e-9 |nu_1|."""
    w, P, Q, r, nu = op.w_rows, d.right, d.left, d.retained, d.eigenvalues
    right = _wnorms(w, op.A @ P[:, :r] - P[:, :r] * nu[:r])
    left = _wnorms(w, op.K.conj().T @ (w[:, None] * Q[:, :r]) - Q[:, :r] * np.conj(nu[:r]))
    assert np.max(right) <= 1e-9 * abs(nu[0])
    assert np.max(left / _wnorms(w, Q[:, :r])) <= 1e-9 * abs(nu[0])


@pytest.mark.parametrize("n, a", [(64, 0.0), (64, A_TWIN), (256, 0.0), (256, A_TWIN),
                                  (1024, 0.0)])
def test_invariants_at_benchmark_scale(monkeypatch, n, a):
    rule = fk.gauss_legendre(n, -4.0, 4.0)
    op = fk.discretize(skew_kernel(0.2 + 1j * a if a else 0.2), rule)
    assert not op.hermitian_to_roundoff()
    assert op.K.dtype == (np.float64 if a == 0 else np.complex128)
    seen = kappa_spy(monkeypatch)
    d = fk.djf_eig(op)
    (kappa,) = seen
    assert kappa * n * UNIT <= 1e-8
    w, P, Q, r, nu = op.w_rows, d.right, d.left, d.retained, d.eigenvalues
    nu1 = abs(nu[0])
    assert r >= 6

    # bi-orthogonality: the retained pairs as reported, the whole families
    # within the polish bound, and the pairs the pass left alone within kappa n u
    G = Q.conj().T @ (w[:, None] * P) - np.eye(n)
    assert d.biorth_residual == pytest.approx(np.max(np.abs(G[:r, :r])), rel=n * UNIT)
    assert np.max(np.abs(G)) <= kappa * n * UNIT / nystrom.REFINE_RTOL
    untouched = np.abs(nu) < nystrom.REFINE_RTOL * nu1
    assert np.max(np.abs(G[np.ix_(untouched, untouched)])) <= kappa * n * UNIT

    assert_eigen_residuals(op, d)

    # the trace, and the spectrum of Mehler on the same rule
    assert abs(np.sum(nu) - np.sum(w * np.diag(op.K))) <= n * UNIT * np.sum(np.abs(nu))
    mehler = np.sort(fk.hermitian_eig(fk.discretize(fk.mehler_kernel(0.5), rule)).eigenvalues.real)
    ref = mehler[::-1][:r]
    assert np.max(np.abs(nu[:r] - ref)) <= (kappa + 1) * n * UNIT * op.hs_norm()

    # the retained left vectors against this test's own inverse of V = W^{1/2} P:
    # U - V^{-H} = V^{-H} G^H, so column j moves by at most ||V^{-1}|| ||G[j, :]||,
    # plus the rounding of the test's inverse, cond(V) n u ||V^{-1}||
    sqw = np.sqrt(w)[:, None]
    V = sqw * P
    Vinv = np.linalg.inv(V)
    inv_norm = np.linalg.norm(Vinv)
    cond = np.linalg.norm(V) * inv_norm
    Qref = Vinv.conj().T[:, :r] / sqw
    bound = inv_norm * (np.linalg.norm(G[:r], axis=1) + cond * n * UNIT)
    assert np.all(_wnorms(w, Q[:, :r] - Qref) <= bound)


def _branch(op):
    """(branch, None) for the refusal branch djf_eig takes on op, or
    (None, decomposition) when it accepts."""
    try:
        return None, fk.djf_eig(op)
    except DefectiveSuspectedError as exc:
        for prefix, branch in (("eigenvector matrix condition", "condition"),
                               ("eigen-residual", "residual"),
                               ("bi-orthogonality residual", "bi-orthogonality")):
            if str(exc).startswith(prefix):
                return branch, None
        raise


def _jordan_row(d, branch):
    return (lambda a: jordan_like(3, d, a=a)), branch, 0.5 + d * np.arange(3)


def _matrix_row(C, branch):
    return (lambda a: basis_operator(C, a)), branch, np.linalg.eigvals(C)


@pytest.mark.parametrize("make, branch, eigenvalues", [
    *[_jordan_row(d, "condition") for d in (1e-4, 1.778e-4, 2.371e-4, 3.2e-4)],
    *[_jordan_row(d, None) for d in (1e-3, 1e-2)],
    ((lambda a: defective(2, a=a)), "condition", None),
    ((lambda a: defective(3, a=a)), "condition", None),
    ((lambda a: polish_noise(a=a)), None, np.array([1.0, 1e-4])),
    # kappa n u / 1e-8 = 0.28 / 0.32 (real / twin): nearly equal eigenvalues
    # with independent eigenvectors, accepted on both dtypes
    _matrix_row([[1.0, 1.0], [0.0, 1.0 + 1e-6]], None),
    # noise eigenvalues of ||B||_F = 1e5 are retained, and stay inside every bound
    _matrix_row([[1.0, 1e5], [0.0, 0.5]], None),
    # kappa n u / 1e-8 = 6.7: refused before a noise eigen-residual is read
    _matrix_row([[1.0, 1e7], [0.0, 0.5]], "condition"),
    # a semisimple double eigenvalue 0.5 beside a non-normal coupling: its
    # pair is rebased and accepted on both dtypes
    _matrix_row([[0.5, 0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.25]], None),
], ids=["jordan-1e-4", "jordan-1.778e-4", "jordan-2.371e-4", "jordan-3.2e-4",
        "jordan-1e-3", "jordan-1e-2", "defective-2", "defective-3", "polish-noise",
        "near-equal", "offdiag-1e5", "offdiag-1e7", "semisimple-2"])
def test_refusal_table_is_independent_of_dtype(monkeypatch, make, branch, eigenvalues):
    """Each row takes the same branch on the real operator (real Schur form)
    and on its complex twin, whose basis functions carry e^{iax} (complex
    Schur form), and kappa n u sits a factor 2 or more from 1e-8, so neither
    the Schur flavour nor the rounding of a BLAS thread count can flip a
    decision.  The one
    refusal is the condition rule; an accepted row meets the bounds of
    test_invariants_at_benchmark_scale against the eigenvalues of its matrix."""
    seen = kappa_spy(monkeypatch)
    for a, dtype in ((0.0, np.float64), (A_TWIN, np.complex128)):
        op = make(a)
        n = op.K.shape[0]
        assert op.K.dtype == dtype and not op.hermitian_to_roundoff()
        seen.clear()
        taken, d = _branch(op)
        assert taken == branch
        (kappa,) = seen
        margin = kappa * n * UNIT / 1e-8
        assert margin <= 0.5 or margin >= 2.0
        if d is not None:
            # within 1e-8, and within the kappa n u / REFINE_RTOL the pass threshold keeps
            assert d.biorth_residual <= min(1e-8, kappa * n * UNIT / nystrom.REFINE_RTOL)
            assert_eigen_residuals(op, d)
            # the matrix's eigenvalues by descending modulus, then the retained noise
            r, nu = d.retained, d.eigenvalues
            ref = np.zeros(r, dtype=complex)
            ref[:eigenvalues.size] = eigenvalues[np.argsort(-np.abs(eigenvalues))]
            assert np.max(np.abs(nu[:r] - ref)) <= (kappa + 1) * n * UNIT * op.hs_norm()


def test_rebasis_leaves_coalescing_vectors_to_the_condition_rule():
    """_rebasis_degenerate orthonormalizes a group of equal eigenvalues whose
    vectors are independent (a semisimple eigenvalue), and leaves a group
    whose unit vectors agree to rounding (a defective eigenvalue the Schur
    form holds exactly, as defective(2) on its mirrored rule): rebasing that
    one would set kappa to 1 and hide the defect from the condition rule."""
    vals = np.array([0.5, 0.5, 0.25, 0.25], dtype=complex)
    V = np.zeros((12, 4))
    V[0, :2] = V[1, 0] = 1.0
    V[0, 2] = V[0, 3] = 1.0
    V[1, 3] = 1e-16
    rebased = V.copy()
    nystrom._rebasis_degenerate(vals, rebased, 4)
    assert np.allclose(rebased[:, :2].T @ rebased[:, :2], np.eye(2), rtol=0.0, atol=1e-15)
    assert np.array_equal(rebased[:, 2:], V[:, 2:])


def test_one_real_schur_form_and_no_n_by_n_eig(monkeypatch):
    """On a non-Hermitian operator one Schur form runs, on a float64 B for a
    real operator, and no eig, eigvals, LU, gecon, solve, inverse or
    complete QR runs on an n x n matrix: the one eig is T22's and the one
    inverse C's, both r x r."""
    n = 256
    op = fk.discretize(skew_kernel(0.2), fk.gauss_legendre(n, -4.0, 4.0))
    calls = []

    def spying(name, fn):
        def spy(*args, **kwargs):
            calls.append((name, np.shape(args[0]) if args and hasattr(args[0], "shape")
                          else args[:1], np.asarray(args[0]).dtype if name == "schur" else None,
                          kwargs.get("mode")))
            return fn(*args, **kwargs)
        return spy

    scipy_names = ("schur", "eig", "eigvals", "lu_factor", "lu_solve", "inv", "solve", "qr")
    # and fredholm's getrf seam and every LAPACK lookup
    for module, names in ((np.linalg, ("eig", "eigvals", "inv", "solve", "qr")),
                          (scipy.linalg, scipy_names), (fredholm, ("_getrf", "get_lapack_funcs"))):
        for name in names:
            monkeypatch.setattr(module, name, spying(name, getattr(module, name)))
    d = fk.djf_eig(op)
    r = d.retained
    assert [c for c in calls if c[0] == "schur"] == [("schur", (n, n), np.float64, None)]
    assert [c[:2] for c in calls if c[0] != "schur"] == [("eig", (r, r)), ("inv", (r, r))]
    assert d.right.dtype == d.left.dtype == d.eigenvalues.dtype == np.complex128


def test_eigen_residual_check_refuses_a_wrong_eigenvalue(monkeypatch):
    """An r x r eig of T22 whose top eigenvalue is off by 1e-6 relative
    leaves kappa and the bi-orthogonality as they were, so only the
    eigen-residual check can refuse it."""
    op = fk.discretize(skew_kernel(0.2), fk.gauss_legendre(64, -4.0, 4.0))
    linalg = nystrom._linalg

    def spoiled(name, *args, **kwargs):
        out = linalg(name, *args, **kwargs)
        if name != "eig":
            return out
        vals, V = out
        vals = vals.copy()
        vals[np.argmax(np.abs(vals))] *= 1.0 + 1e-6
        return vals, V

    monkeypatch.setattr(nystrom, "_linalg", spoiled)
    with pytest.raises(DefectiveSuspectedError,
                       match=r"^eigen-residual \S+ for nu=\S+ exceeds 1e-9 \|nu_1\|"):
        fk.djf_eig(op)


def test_biorthogonality_check_refuses_a_spoiled_left_family(monkeypatch):
    """A last retained left vector that leans 1e-6 toward the first, a pair
    the pass leaves alone, keeps kappa and the right pairs, so only the
    bi-orthogonality check can refuse it."""
    op = fk.discretize(skew_kernel(0.2), fk.gauss_legendre(64, -4.0, 4.0))
    inverse_adjoint = nystrom._inverse_adjoint

    def spoiled(A, C, Qt, Qp):
        U, kappa = inverse_adjoint(A, C, Qt, Qp)
        r = C.shape[0]
        U[:, r - 1] += 1e-6 * U[:, 0]
        return U, kappa

    monkeypatch.setattr(nystrom, "_inverse_adjoint", spoiled)
    with pytest.raises(DefectiveSuspectedError, match=r"^bi-orthogonality residual \S+e-0[67] "):
        fk.djf_eig(op)
