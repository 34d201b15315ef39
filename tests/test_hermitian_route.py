"""The Hermitian route: one eigh per operator.

An operator whose B is Hermitian to roundoff, hermitian_defect() <= n u
(n = B.shape[0], u = eps / 2), is decomposed by one eigh of B's Hermitian
part, cached on the operator; hermitian_eig, djf_eig and operator_svd all
answer from it.  The bounds are those perfbench/README.md sets for the
spectra-n1024 workload: sum theta^2 = ||B||_F^2 within N u, weighted
orthonormality within 1e-10, and A q = theta p within 1e-9 theta_1.
"""
import numpy as np
import pytest
import scipy.linalg

import fredkit as fk
from fredkit import nystrom

from test_conventions import basis_operator, twin_kernel

UNIT = np.finfo(float).eps / 2  # unit roundoff u
ORTH_TOL = 1e-10
RESID_RTOL = 1e-9


def wnorms(w, X):
    return np.sqrt(np.sum(w[:, None] * np.abs(X) ** 2, axis=0))


def library(name):
    """The module whose <name> fredkit calls: scipy.linalg for eigh, which
    takes a LAPACK driver per dtype (nystrom.EIGH_DRIVER), else np.linalg."""
    return scipy.linalg if name == "eigh" else np.linalg


def spy_on(monkeypatch, names, fail=None):
    """Record each call of library(name).<name>; raise `fail` from them if given."""
    calls = []
    for name in names:
        real = getattr(library(name), name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            if fail is not None:
                raise fail
            return _real(*args, **kwargs)

        monkeypatch.setattr(library(name), name, spy)
    return calls


def check_svd_bounds(op, sv):
    """The spectra-n1024 SVD checks, on the operator's own B."""
    n = op.B.shape[0]
    theta = sv.singular_values
    assert theta.dtype == np.float64 and np.all(np.diff(theta) <= 0)
    hs2 = float(np.sum(np.abs(op.B) ** 2))
    assert abs(float(np.sum(theta ** 2)) - hs2) <= n * UNIT * hs2
    r, w = sv.rank_numerical, op.w_rows
    P, Q = sv.left[:, :r], sv.right[:, :r]
    for X in (P, Q):
        assert np.max(np.abs(X.conj().T @ (w[:, None] * X) - np.eye(r))) <= ORTH_TOL
    assert np.max(wnorms(w, op.A @ Q - P * theta[:r])) <= RESID_RTOL * theta[0]


@pytest.fixture(scope="module")
def twin1024():
    """The spectra-n1024 twin: e^{iay} M(y, z) e^{-iaz} on Gauss-Legendre
    1024 over [-4, 4], complex and Hermitian to roundoff."""
    return fk.discretize(twin_kernel(0.8), fk.gauss_legendre(1024, -4.0, 4.0))


def test_djf_is_hermitian_eig_at_benchmark_scale(twin1024):
    op = twin1024
    assert op.hermitian_to_roundoff()
    h, d = fk.hermitian_eig(op), fk.djf_eig(op)
    for name in ("eigenvalues", "right", "left"):
        got = getattr(d, name)
        assert got.dtype == np.complex128
        assert np.array_equal(got, getattr(h, name).astype(complex))
    assert d.right is d.left
    assert np.all(d.eigenvalues.imag == 0.0)
    assert (d.retained, d.biorth_residual, d.hermitian) == (h.retained, h.biorth_residual, True)


def test_svd_from_eigh_at_benchmark_scale(twin1024):
    sv = fk.operator_svd(twin1024)
    assert sv.left.dtype == sv.right.dtype == np.complex128
    check_svd_bounds(twin1024, sv)


def test_indefinite_kernel_folds_the_sign_into_q():
    """A real symmetric rank-6 kernel with eigenvalues of both signs: q_j is
    p_j times the sign of the eigenvalue whose modulus theta_j is."""
    rule = fk.gauss_legendre(256, -4.0, 4.0)
    C = np.random.default_rng(256).standard_normal((6, 6))
    op = fk.discretize(fk.basis_kernel(C + C.T, fk.orthonormal_poly_basis(rule, 6), rule), rule)
    assert op.hermitian_to_roundoff()
    sv, h = fk.operator_svd(op), fk.hermitian_eig(op)
    r = sv.rank_numerical
    assert r == h.retained == 6
    signs = np.sign(h.eigenvalues[:r].real)
    assert set(signs) == {-1.0, 1.0}
    assert np.array_equal(sv.singular_values[:r], np.abs(h.eigenvalues[:r]))
    assert np.array_equal(sv.right[:, :r], sv.left[:, :r] * signs)
    check_svd_bounds(op, sv)


def test_one_eigh_serves_every_decomposition(monkeypatch, gh40):
    calls = spy_on(monkeypatch, ("eigh", "eig", "svd"))
    op = fk.discretize(twin_kernel(0.8), gh40)
    fk.hermitian_eig(op)
    fk.djf_eig(op)
    fk.operator_svd(op)
    fk.hermitian_eig(op)
    assert calls == ["eigh"]
    vals, vecs = op.hermitian_eigh
    assert not vals.flags.writeable and not vecs.flags.writeable


@pytest.mark.parametrize("first", ["spectrum", "hermitian_eig", "djf_eig", "operator_svd",
                                   "hermitian_eigh"])
def test_one_hermitian_part_per_operator(monkeypatch, first):
    """B's Hermitian part is built once on GH256 Mehler, whichever reader
    comes first, and no N x N array but K, A and B outlives the eigh."""
    calls = []
    build = nystrom._hermitian_part

    def spy(B):
        calls.append(B.shape)
        return build(B)

    monkeypatch.setattr(nystrom, "_hermitian_part", spy)
    op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
    readers = {"spectrum": lambda: op.spectrum, "hermitian_eigh": lambda: op.hermitian_eigh,
               **{name: (lambda f=getattr(fk, name): f(op))
                  for name in ("hermitian_eig", "djf_eig", "operator_svd")}}
    readers.pop(first)()
    for read in readers.values():
        read()
    assert op.hermitian_to_roundoff()
    assert calls == [(256, 256)]
    assert sorted(k for k, v in vars(op).items()
                  if isinstance(v, np.ndarray) and v.ndim == 2) == ["A", "B", "K"]


def test_mrrr_family_is_orthonormal_through_clusters():
    """zheevr, MRRR, where it is weakest: a complex Hermitian kernel acting
    as diag(1, 1, 1, -1/2, -1/2, 1/4) on six basis functions that carry
    e^{0.7ix}, on Gauss-Legendre 256 over [0, 1].  Its spectrum holds 1
    three times, -1/2 twice and a zero cluster of n - 6.  All n columns of the
    cached eigh are orthonormal within ORTH_TOL, each has an eigen-residual
    within the backward error n u ||B||_F (far inside RESID_RTOL |nu_1|),
    and the eigenvalues are within (kappa + 1) n u ||B||_F, kappa = 1, of
    the matrix's, as test_djf_general bounds them."""
    C = np.diag([1.0, 1.0, 1.0, -0.5, -0.5, 0.25])
    op = basis_operator(C, 0.7, 256)
    n = op.B.shape[0]
    assert op.B.dtype == np.complex128 and op.hermitian_to_roundoff()
    vals, V = op.hermitian_eigh
    backward = n * UNIT * np.linalg.norm(op.B)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= ORTH_TOL
    S = 0.5 * (op.B + op.B.conj().T)
    resid = np.linalg.norm(S @ V - V * vals, axis=0)
    assert np.max(resid) <= min(backward, RESID_RTOL * np.max(np.abs(vals)))
    ref = np.sort(np.concatenate((np.diag(C), np.zeros(n - 6))))
    assert np.max(np.abs(vals - ref)) <= 2 * backward


def band_operator(op):
    """op with a seeded skew-symmetric perturbation of K that puts its
    Hermitian defect near 1e-12: above n u for n <= 1024, so off the
    Hermitian route, and still within hermitian_eig's 1e-10."""
    E = np.random.default_rng(12).standard_normal(op.K.shape)
    E -= E.T
    sw = np.sqrt(op.w_rows)
    E *= 0.5e-12 * np.linalg.norm(op.B) / np.linalg.norm(sw[:, None] * E * sw[None, :])
    return fk.DiscreteOperator(rule=op.rule, shape=op.shape, K=op.K + E)


def test_skew_above_roundoff_takes_the_general_path(monkeypatch):
    """A twin with a 1e-12 skew-Hermitian perturbation, above n u: djf_eig
    runs eig, operator_svd runs svd and the spectrum eigvals, and djf_eig's
    decomposition is not marked Hermitian; hermitian_eig still accepts it."""
    skewed = band_operator(fk.discretize(twin_kernel(0.8), fk.gauss_legendre(256, -4.0, 4.0)))
    n = skewed.B.shape[0]
    defect = skewed.hermitian_defect()
    direct = np.linalg.norm(skewed.B - skewed.B.conj().T) / np.linalg.norm(skewed.B)
    assert abs(defect - direct) <= 4 * UNIT + n * UNIT * direct
    assert n * UNIT < defect <= fk.spectral.HERMITIAN_RTOL
    assert not skewed.hermitian_to_roundoff()
    calls = spy_on(monkeypatch, ("eigh", "eig", "svd", "eigvals"))
    d = fk.djf_eig(skewed)
    fk.operator_svd(skewed)
    fk.hermitian_eig(skewed)
    skewed.spectrum
    assert calls == ["eig", "svd", "eigh", "eigvals"]
    assert not d.hermitian and d.right is not d.left


def test_eigh_failure_is_cached_nowhere(monkeypatch, gh40):
    """A LinAlgError from the eigh, real (dsyevd) or complex (zheevr, whose
    internal error scipy raises as "Internal Error."), leaves every reader
    of the cache as ConvergenceError and caches nothing."""
    failure = np.linalg.LinAlgError("Internal Error.")
    for kernel in (fk.mehler_kernel(0.5), twin_kernel(0.8)):
        op = fk.discretize(kernel, gh40)
        assert op.hermitian_to_roundoff()
        calls = spy_on(monkeypatch, ("eigh",), fail=failure)
        for read in (fk.hermitian_eig, fk.djf_eig, fk.operator_svd, lambda op: op.spectrum):
            with pytest.raises(fk.ConvergenceError, match="^eigh did not converge: Int") as err:
                read(op)
            assert err.value.__cause__ is failure
        assert calls == ["eigh"] * 4
        assert not {"hermitian_eigh", "spectrum"} & set(vars(op))
        monkeypatch.undo()
        assert fk.hermitian_eig(op).retained > 0


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_non_finite_hermitian_part_is_refused_before_lapack(monkeypatch, gl8, dtype):
    """zheevr answers a NaN without an error, so a Hermitian part that is
    not finite is refused before any eigh, whichever the dtype."""
    K = np.ones((8, 8)) if dtype is np.float64 else np.full((8, 8), 1.0 + 0.5j)
    K[3, 4] = np.nan
    op = fk.DiscreteOperator(rule=gl8, shape=(1, 1), K=K)
    assert op.K.dtype == dtype
    calls = spy_on(monkeypatch, ("eigh",))
    for read in (fk.hermitian_eig, lambda op: op.hermitian_eigh):
        with pytest.raises(fk.InvalidArgumentError, match="Hermitian part has an entry"):
            read(op)
    assert calls == []
    assert "hermitian_eigh" not in vars(op)


def test_eigvals_failure_is_cached_nowhere(monkeypatch, yz2_kernel, gl8):
    """Off the Hermitian route a spectrum that does not converge raises
    ConvergenceError from every entry point that reads it, caching nothing."""
    failure = np.linalg.LinAlgError("Eigenvalues did not converge")
    op = fk.discretize(yz2_kernel, gl8)
    assert not op.hermitian_to_roundoff()
    calls = spy_on(monkeypatch, ("eigvals",), fail=failure)
    f = np.ones(8, dtype=complex)
    for read_spectrum in (lambda: fk.resolvent_solve(op, 1.0, f),
                          lambda: fk.resolvent_kernel(op, 1.0),
                          lambda: fk.fredholm_determinant(op, 1.0, "product"),
                          lambda: fk.determinant_log_derivative_check(op, (0.0, 1.0), 4)):
        with pytest.raises(fk.ConvergenceError, match="^eigvals did not converge") as err:
            read_spectrum()
        assert err.value.__cause__ is failure
    assert calls == ["eigvals"] * 4
    assert "spectrum" not in vars(op)
    monkeypatch.undo()
    assert fk.fredholm_determinant(op, 1.0, "product").value == pytest.approx(0.75, rel=1e-14)
