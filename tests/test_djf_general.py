"""djf_eig's general path: operators that are not Hermitian to roundoff.

There eig runs in the operator's dtype, the non-retained tail of
eigenvectors is replaced by an orthonormal basis of its span from one
complete QR, and the left family and the condition kappa = cond_1(M) of
V = Z M come from r x r algebra on the r retained right vectors (see
djf_eig).  The refusal rule is kappa n u <= 1e-8.

Invariants are checked at the benchmark's sizes on the real skew kernel
e^{0.2y} M(y, z) e^{-0.2z} (M Mehler's, r = 0.5) and its complex twin
e^{iay} e^{0.2y} M(y, z) e^{-0.2z} e^{-iaz}, on Gauss-Legendre n over [-4, 4].
Both are diagonal similarities of Mehler on the same rule, so they share
its discrete spectrum.  Bounds come from n, u, kappa and REFINE_RTOL:

* the pairs not touched by the Nystrom pass are bi-orthogonal to within
  kappa n u, the error of an inverse of condition kappa (Higham, Accuracy
  and Stability of Numerical Algorithms, 2nd ed., ch. 14);
* the pass p <- A p / nu, q <- K^H (w q) / conj(nu), run for
  |nu| >= REFINE_RTOL |nu_1|, rounds at n u ||A|| / |nu|, so the whole
  families stay within kappa n u / REFINE_RTOL;
* eigenvalues move by at most kappa times their backward error n u ||B||.
"""
import numpy as np
import pytest
import scipy.linalg

import fredkit as fk
from fredkit import spectral
from fredkit.errors import DefectiveSuspectedError

from test_conventions import UNIT, defective, jordan_like, skew_kernel

A_TWIN = 0.7  # the twin's phase rate: skew_kernel(0.2 + 0.7i)


def kappa_spy(monkeypatch):
    """A list that collects kappa from every _inverse_adjoint call."""
    seen = []
    inverse_adjoint = spectral._inverse_adjoint

    def spy(V, Z, r):
        U, kappa = inverse_adjoint(V, Z, r)
        seen.append(kappa)
        return U, kappa

    monkeypatch.setattr(spectral, "_inverse_adjoint", spy)
    return seen


@pytest.mark.parametrize("n, a", [(64, 0.0), (64, A_TWIN), (256, 0.0), (256, A_TWIN),
                                  (1024, 0.0)])
def test_invariants_at_benchmark_scale(monkeypatch, n, a):
    rule = fk.gauss_legendre(n, -4.0, 4.0)
    op = fk.discretize(skew_kernel(0.2 + 1j * a if a else 0.2), rule)
    assert not op.hermitian_to_roundoff()
    assert op.B.dtype == (np.float64 if a == 0 else np.complex128)
    seen = kappa_spy(monkeypatch)
    d = fk.djf_eig(op)
    (kappa,) = seen
    assert kappa * n * UNIT <= 1e-8
    w, P, Q, r, nu = op.w_rows, d.right, d.left, d.retained, d.eigenvalues
    nu1 = abs(nu[0])
    assert r >= 6

    def wnorms(X):
        return np.sqrt(np.sum(w[:, None] * np.abs(X) ** 2, axis=0))

    # bi-orthogonality: the retained pairs as reported, the whole families
    # within the polish bound, and the pairs the pass left alone within kappa n u
    G = Q.conj().T @ (w[:, None] * P) - np.eye(n)
    assert d.biorth_residual == pytest.approx(np.max(np.abs(G[:r, :r])), rel=n * UNIT)
    assert np.max(np.abs(G)) <= kappa * n * UNIT / spectral.REFINE_RTOL
    untouched = np.abs(nu) < spectral.REFINE_RTOL * nu1
    assert np.max(np.abs(G[np.ix_(untouched, untouched)])) <= kappa * n * UNIT

    # right and left eigen-residuals of the retained pairs, within djf_eig's 1e-9 |nu_1|
    right = wnorms(op.A @ P[:, :r] - P[:, :r] * nu[:r])
    left = wnorms(op.K.conj().T @ (w[:, None] * Q[:, :r]) - Q[:, :r] * np.conj(nu[:r]))
    assert np.max(right) <= 1e-9 * nu1
    assert np.max(left / wnorms(Q[:, :r])) <= 1e-9 * nu1

    # the trace, and the spectrum of Mehler on the same rule
    assert abs(np.sum(nu) - np.sum(w * np.diag(op.K))) <= n * UNIT * np.sum(np.abs(nu))
    mehler = np.sort(fk.hermitian_eig(fk.discretize(fk.mehler_kernel(0.5), rule)).eigenvalues.real)
    ref = mehler[::-1][:r]
    assert np.max(np.abs(nu[:r] - ref)) <= (kappa + 1) * n * UNIT * np.linalg.norm(op.B)

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
    assert np.all(wnorms(Q[:, :r] - Qref) <= bound)


def _branch(op):
    """The branch djf_eig takes on op: None when it accepts."""
    try:
        fk.djf_eig(op)
    except DefectiveSuspectedError as exc:
        for prefix, branch in (("eigenvectors of nearly equal", "coalescence"),
                               ("eigenvector matrix condition", "condition"),
                               ("eigen-residual", "residual"),
                               ("bi-orthogonality residual", "bi-orthogonality")):
            if str(exc).startswith(prefix):
                return branch
        raise
    return None


@pytest.mark.parametrize("make, branch", [
    *[((lambda a, d=d: jordan_like(3, d, a=a)), "condition")
      for d in (1e-4, 1.778e-4, 2.371e-4, 3.2e-4)],
    *[((lambda a, d=d: jordan_like(3, d, a=a)), None) for d in (1e-3, 1e-2)],
    ((lambda a: defective(2, a=a)), "coalescence"),
    ((lambda a: defective(3, a=a)), "condition"),
], ids=["jordan-1e-4", "jordan-1.778e-4", "jordan-2.371e-4", "jordan-3.2e-4",
        "jordan-1e-3", "jordan-1e-2", "defective-2", "defective-3"])
def test_refusal_table_is_independent_of_dtype(monkeypatch, make, branch):
    """Each row takes the same branch on the real operator (real eig) and on
    its complex twin, whose basis functions carry e^{iax} (complex eig), and
    kappa n u sits a factor 2 or more from 1e-8, so neither the eig flavour
    nor the rounding of a BLAS thread count can flip a decision."""
    seen = kappa_spy(monkeypatch)
    for a, dtype in ((0.0, np.float64), (A_TWIN, np.complex128)):
        op = make(a)
        assert op.B.dtype == dtype and not op.hermitian_to_roundoff()
        seen.clear()
        assert _branch(op) == branch
        for kappa in seen:
            margin = kappa * op.B.shape[0] * UNIT / 1e-8
            assert margin <= 0.5 or margin >= 2.0


def test_no_n_by_n_factorization_and_a_real_eig(monkeypatch):
    """On a non-Hermitian operator no LU, gecon, solve or inverse runs on an
    n x n matrix, and a real B goes to eig as float64."""
    n = 256
    op = fk.discretize(skew_kernel(0.2), fk.gauss_legendre(n, -4.0, 4.0))
    calls = []

    def spying(name, fn):
        def spy(*args, **kwargs):
            calls.append((name, np.shape(args[0]) if args and hasattr(args[0], "shape")
                          else args[:1], np.asarray(args[0]).dtype if name == "eig" else None))
            return fn(*args, **kwargs)
        return spy

    scipy_names = ("lu_factor", "lu_solve", "inv", "solve", "get_lapack_funcs")
    for module, names in ((np.linalg, ("eig", "inv", "solve")), (scipy.linalg, scipy_names),
                          (spectral, scipy_names)):  # and any binding spectral holds
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spying(name, getattr(module, name)))
    d = fk.djf_eig(op)
    assert ("eig", (n, n), np.float64) in calls
    assert [c for c in calls if c[0] == "eig"] == [("eig", (n, n), np.float64)]
    # the one inverse is C's, r x r
    assert [c for c in calls if c[0] != "eig"] == [("inv", (d.retained, d.retained), None)]
    assert d.right.dtype == d.left.dtype == d.eigenvalues.dtype == np.complex128
