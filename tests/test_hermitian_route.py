"""The Hermitian route: one eigen-family per operator.

An operator whose B is Hermitian to roundoff, hermitian_defect() <= n u
(n = K.shape[0], u = eps / 2), is decomposed by one eigh of B's Hermitian
part (on a reflection-symmetric operator, two half-size eighs or one of the
real form: test_reflection_route.py), sorted and polished once into the family cached on the operator
(hermitian_family); hermitian_eig, djf_eig, operator_svd, first_kind_solve
and the spectrum all answer from it.  The bounds are those
perfbench/README.md sets for the spectra-n1024 workload: sum theta^2 =
||B||_F^2 within N u, weighted orthonormality within 1e-10, and
A q = theta p within 1e-9 theta_1.
"""
import dataclasses
import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

import fredkit as fk
from fredkit import nystrom

from conftest import symmetrized
from test_conventions import basis_operator, defective, skew_kernel, twin_kernel

UNIT = np.finfo(float).eps / 2  # unit roundoff u
ORTH_TOL = 1e-10
RESID_RTOL = 1e-9


def wnorms(w, X):
    return np.sqrt(np.sum(w[:, None] * np.abs(X) ** 2, axis=0))


def library(name):
    """The module whose <name> fredkit calls: scipy.linalg for eigh, which
    takes a LAPACK driver per dtype (nystrom.EIGH_DRIVER), and for the Schur
    form of the general family, else np.linalg."""
    return scipy.linalg if name in ("eigh", "schur") else np.linalg


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


def spy_on_polish(monkeypatch):
    """Record the shape of each polish product, _apply_A on a matrix of
    columns, in every fredkit module that binds _apply_A."""
    calls = []
    for module in (nystrom, fk.fredholm, fk.powerit):
        def spy(op, X, _real=module._apply_A):
            if X.ndim == 2:
                calls.append(X.shape)
            return _real(op, X)

        monkeypatch.setattr(module, "_apply_A", spy)
    return calls


def check_svd_bounds(op, sv):
    """The spectra-n1024 SVD checks, on the operator's own B."""
    B = symmetrized(op)
    n = B.shape[0]
    theta = sv.singular_values
    assert theta.dtype == np.float64 and np.all(np.diff(theta) <= 0)
    hs2 = float(np.sum(np.abs(B) ** 2))
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
        assert got is getattr(h, name)
    assert d.right is d.left
    assert np.all(d.eigenvalues.imag == 0.0)
    assert (d.retained, d.biorth_residual, d.hermitian) == (h.retained, h.biorth_residual, True)


def test_svd_from_eigh_at_benchmark_scale(twin1024):
    sv = fk.operator_svd(twin1024)
    assert sv.left.dtype == sv.right.dtype == np.complex128
    check_svd_bounds(twin1024, sv)


def indefinite_operator():
    """A real symmetric rank-6 kernel with eigenvalues of both signs, on
    Gauss-Legendre 256 over [-4, 4]."""
    rule = fk.gauss_legendre(256, -4.0, 4.0)
    C = np.random.default_rng(256).standard_normal((6, 6))
    return fk.discretize(fk.basis_kernel(C + C.T, fk.orthonormal_poly_basis(rule, 6), rule), rule)


def test_indefinite_kernel_folds_the_sign_into_q():
    """q_j is p_j times the sign of the eigenvalue whose modulus theta_j is."""
    op = indefinite_operator()
    assert op.hermitian_to_roundoff()
    sv, h = fk.operator_svd(op), fk.hermitian_eig(op)
    r = sv.rank_numerical
    assert r == h.retained == 6
    signs = np.sign(h.eigenvalues[:r].real)
    assert set(signs) == {-1.0, 1.0}
    assert np.array_equal(sv.singular_values[:r], np.abs(h.eigenvalues[:r]))
    assert np.array_equal(sv.right[:, :r], sv.left[:, :r] * signs)
    # the null space sits below the roundoff floor N eps |nu_1|
    nu = np.sort(np.abs(h.eigenvalues.real))
    assert nu[-r - 1] <= nu.size * np.finfo(float).eps * nu[-1]
    assert sv.right is not sv.left
    check_svd_bounds(op, sv)


@pytest.mark.parametrize("name", ["mehler-gh64", "twin-gl1024"])
def test_psd_operators_share_one_svd_family(name, request):
    """Every negative nu of a positive semi-definite kernel is noise, at or
    below the roundoff floor N eps |nu_1|, so it folds no sign: the SVD's
    right family is its left one, one read-only array."""
    op = request.getfixturevalue("twin1024") if name == "twin-gl1024" else ON_ROUTE[name]()
    nu = op.hermitian_family.eigenvalues.real
    assert 0 < np.count_nonzero(nu < 0)
    assert -nu.min() <= nu.size * np.finfo(float).eps * np.max(np.abs(nu))
    sv = fk.operator_svd(op)
    assert sv.right is sv.left and not sv.left.flags.writeable
    check_svd_bounds(op, sv)


ON_ROUTE = {
    "mehler-gh40": lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(40)),
    "mehler-gh64": lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(64)),
    "twin-gh40": lambda: fk.discretize(twin_kernel(0.8), fk.gauss_hermite_prob(40)),
    "indefinite": indefinite_operator,
}


# an operator per route, at the benchmark's sizes, with the route it takes
# (twin-gl1024, the spectra-n1024 twin, takes "hermitian-real")
ROUTES = {
    "mehler-gl1024": (lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_legendre(1024, -4.0, 4.0)),
                      "hermitian-split"),
    "mehler-gl256-0-1": (lambda: fk.discretize(fk.mehler_kernel(0.5),
                                               fk.gauss_legendre(256, 0.0, 1.0)), "hermitian"),
    "skew-gl256": (lambda: fk.discretize(skew_kernel(0.2), fk.gauss_legendre(256, -4.0, 4.0)),
                   "general"),
    "skew-twin-gl256": (lambda: fk.discretize(skew_kernel(0.2 + 0.7j),
                                              fk.gauss_legendre(256, -4.0, 4.0)), "general"),
}


@pytest.mark.parametrize("name", [*ROUTES, "twin-gl1024"])
def test_records_keep_the_retained_vectors_only(name, request):
    """On every route the family keeps all N eigenvalues and the vectors of
    its retained pairs only, N x retained, and the SVD all N singular values
    and its rank_numerical triples' vectors only, on the Hermitian route
    (from the family) and off it (from the svd): no N x N vector array."""
    if name == "twin-gl1024":
        op, route = request.getfixturevalue("twin1024"), "hermitian-real"
    else:
        make, route = ROUTES[name]
        op = make()
    n = op.K.shape[0]
    d, sv = op.family, fk.operator_svd(op)
    assert d.route == route
    assert d.eigenvalues.shape == sv.singular_values.shape == (n,)
    assert 0 < d.retained < n and 0 < sv.rank_numerical < n
    assert d.right.shape == d.left.shape == (n, d.retained)
    assert sv.left.shape == sv.right.shape == (n, sv.rank_numerical)


@pytest.mark.parametrize("name", [*ON_ROUTE, "twin-gl1024"])
def test_svd_is_the_sorted_sign_folded_hermitian_eig(name, request):
    """On the route operator_svd's families are hermitian_eig's, polished and
    anchored, in a stable descending sort by |nu| with q = sign(nu) p, bit for
    bit, where a nu at or below the roundoff floor N eps |nu_1| counts as 0
    and sign(0) = +1; the singular values are |nu| of the cached eigh values
    in that sort."""
    op = request.getfixturevalue("twin1024") if name == "twin-gl1024" else ON_ROUTE[name]()
    assert op.hermitian_to_roundoff()
    h, sv = fk.hermitian_eig(op), fk.operator_svd(op)
    nu = h.eigenvalues.real
    r = h.retained
    order = np.argsort(-np.abs(nu), kind="stable")[:r]
    negative = nu[order] < -nu.size * np.finfo(float).eps * np.max(np.abs(nu))
    assert np.array_equal(sv.left, h.right[:, order])
    assert np.array_equal(sv.right, h.right[:, order] * np.where(negative, -1.0, 1.0))
    assert (sv.right is sv.left) == (not negative.any())
    assert sv.left.dtype == sv.right.dtype == h.right.dtype
    vals = np.abs(op.hermitian_family.eigenvalues)
    assert np.array_equal(sv.singular_values, vals[np.argsort(-vals, kind="stable")])


def test_vector_samples_are_the_hermite_functions(gh40):
    """Mehler r = 0.5 has the eigenfunctions He_j / sqrt(j!) (HermitePair) for
    its eigenvalues r^j.  The first 8 samples of hermitian_eig's family and of
    operator_svd's left family match them up to sign, relative to their
    largest sample, within the polish budget n u / REFINE_RTOL."""
    op = fk.discretize(fk.mehler_kernel(0.5), gh40)
    x = gh40.nodes
    bound = x.size * UNIT / nystrom.REFINE_RTOL
    for P in (fk.hermitian_eig(op).right, fk.operator_svd(op).left):
        for j in range(8):
            ref = fk.HermitePair(j)(x)
            err = min(np.max(np.abs(P[:, j] - ref)), np.max(np.abs(P[:, j] + ref)))
            assert err <= bound * np.max(np.abs(ref))


def test_one_eigh_serves_every_decomposition(monkeypatch, gh40):
    """One eigh and one polish product (on the columns above REFINE_RTOL
    |nu_1|) serve every reader, and each hermitian_eig wraps the family's
    read-only arrays."""
    calls = spy_on(monkeypatch, ("eigh", "eig", "svd"))
    polishes = spy_on_polish(monkeypatch)
    op = fk.discretize(twin_kernel(0.8), gh40)
    first = fk.hermitian_eig(op)
    fk.djf_eig(op)
    fk.operator_svd(op)
    fk.first_kind_solve(op, 1.0, 1e-8)
    again = fk.hermitian_eig(op)
    op.spectrum
    assert calls == ["eigh"]
    assert len(polishes) == 1 and polishes[0][0] == 40
    family = op.hermitian_family
    nu, P = family.eigenvalues, family.right
    assert family.left is P and not (nu.flags.writeable or P.flags.writeable)
    for d in (first, again):
        assert d.eigenvalues is nu and d.right is d.left is P


def lambda_path(op):
    """A resolvent solve, a direct determinant and a log-derivative check:
    the readers of the node partition and of the shared LU.  Mehler
    r = 1/2 has its Fredholm eigenvalues at 2^j, away from all three."""
    fk.resolvent_solve(op, 0.5, np.ones(op.K.shape[0]))
    fk.fredholm_determinant(op, 2.5 + 1j, "direct")
    fk.determinant_log_derivative_check(op, (0.0, 0.5), 4)


def square_arrays(op):
    """Where op keeps a matrix: an attribute, entry i of a cached tuple or a
    field of a cached record (an eigen-family, the node partition), each
    array named once (a Hermitian family's left is its right)."""
    named = {}
    for k, v in vars(op).items():
        if isinstance(v, tuple):
            items = [(f"{k}[{i}]", x) for i, x in enumerate(v)]
        elif dataclasses.is_dataclass(v):
            items = [(f"{k}.{f.name}", getattr(v, f.name)) for f in dataclasses.fields(v)]
        else:
            items = [(k, v)]
        for name, x in items:
            if isinstance(x, np.ndarray) and x.ndim == 2:
                named.setdefault(id(x), name)
    return sorted(named.values())


READERS = ["spectrum", "hermitian_eig", "djf_eig", "operator_svd", "first_kind_solve",
           "hermitian_family", "lambda_path"]


@pytest.mark.parametrize("kernel, first", [("mehler", f) for f in READERS]
                         + [("twin", f) for f in READERS],
                         ids=READERS + [f"twin-{f}" for f in READERS])
def test_one_hermitian_part_per_operator(monkeypatch, kernel, first):
    """lambda-sweep's two operators, Mehler r = 1/2 on GH256 and its complex
    twin (a = 1): B's Hermitian part is built once, and one family build
    (the reflection route's two half-size eighs, or the twin's one real
    eigh) and one polish product run, whichever reader comes first.  Of the
    operator's matrices only K is stored; B is formed for each reader and
    dropped, so it is not among them: after every reader and the workload's
    refusal round (a read of op.A for f's length, then a solve refused at
    the pole lambda = 2), the other matrices are the family's samples, the
    node partition's K_e (K in its elimination order, the 152 kept nodes
    first) and the last lambda's LU factors of the kept block, 152 x 152.
    A and B are formed afresh on every read, each its expression bit for
    bit, and neither is kept."""
    eighs = spy_on(monkeypatch, ("eigh",))
    polishes = spy_on_polish(monkeypatch)
    calls = []
    build = nystrom._hermitian_part

    def spy(B):
        calls.append(B.shape)
        return build(B)

    monkeypatch.setattr(nystrom, "_hermitian_part", spy)
    op = fk.discretize(fk.mehler_kernel(0.5) if kernel == "mehler" else twin_kernel(1.0),
                       fk.gauss_hermite_prob(256))
    readers = {"spectrum": lambda: op.spectrum, "hermitian_family": lambda: op.hermitian_family,
               "lambda_path": lambda: lambda_path(op),
               "first_kind_solve": lambda: fk.first_kind_solve(op, 1.0, 1e-8),
               **{name: (lambda f=getattr(fk, name): f(op))
                  for name in ("hermitian_eig", "djf_eig", "operator_svd")}}
    readers.pop(first)()
    for read in readers.values():
        read()
    f = np.ones(op.A.shape[0], dtype=complex)
    with pytest.raises(fk.EigenvalueProximityError):
        fk.resolvent_solve(op, 2.0 * (1.0 + 1e-10), f)
    assert op.hermitian_to_roundoff()
    assert calls == [(256, 256)] and len(polishes) == 1
    assert eighs == ["eigh"] * (2 if kernel == "mehler" else 1)
    assert sorted(k for k, v in vars(op).items()
                  if isinstance(v, np.ndarray) and v.ndim == 2) == ["K"]
    assert square_arrays(op) == ["K", "_lu[1]", "hermitian_family.right", "node_partition.K_e"]
    part = vars(op)["node_partition"]
    assert part.kept_count == 152 and vars(op)["_lu"][1].shape == (152, 152)
    order = part.order
    assert np.array_equal(part.K_e, op.K[np.ix_(order, order)])
    assert np.array_equal(part.w_e, op.w_cols[order])
    assert not {"A", "B"} & set(vars(op))
    for name, expected in (("A", op.K * op.w_cols), ("B", symmetrized(op))):
        M = getattr(op, name)
        assert M is not getattr(op, name) and M.flags.writeable and M.dtype == op.K.dtype
        assert np.array_equal(M.view(np.uint64), expected.view(np.uint64))
    assert not {"A", "B"} & set(vars(op))


def test_mrrr_family_is_orthonormal_through_clusters():
    """zheevr, MRRR, where it is weakest: a complex Hermitian kernel acting
    as diag(1, 1, 1, -1/2, -1/2, 1/4) on six basis functions that carry
    e^{0.7ix}, on Gauss-Legendre 256 over [0, 1].  Its spectrum holds 1
    three times, -1/2 twice and a zero cluster of n - 6.  All n columns of
    the eigh the family is built from are orthonormal within ORTH_TOL, each
    has an eigen-residual within the backward error n u ||B||_F (far inside
    RESID_RTOL |nu_1|),
    and the eigenvalues are within (kappa + 1) n u ||B||_F, kappa = 1, of
    the matrix's, as test_djf_general bounds them."""
    C = np.diag([1.0, 1.0, 1.0, -0.5, -0.5, 0.25])
    op = basis_operator(C, 0.7, 256)
    B = symmetrized(op)
    n = B.shape[0]
    assert B.dtype == np.complex128 and op.hermitian_to_roundoff()
    vals, V = nystrom._hermitian_eigh(op)
    backward = n * UNIT * np.linalg.norm(B)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= ORTH_TOL
    S = 0.5 * (B + B.conj().T)
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
    E *= 0.5e-12 * op.hs_norm() / np.linalg.norm(sw[:, None] * E * sw[None, :])
    return fk.DiscreteOperator(rule=op.rule, shape=op.shape, K=op.K + E)


def test_skew_above_roundoff_takes_the_general_path(monkeypatch):
    """A twin with a 1e-12 skew-Hermitian perturbation, above n u: djf_eig
    runs the Schur form of B and the r x r eig of its retained block,
    operator_svd runs svd, and the spectrum reads djf_eig's family, whose
    decomposition is not marked Hermitian; hermitian_eig still accepts it."""
    skewed = band_operator(fk.discretize(twin_kernel(0.8), fk.gauss_legendre(256, -4.0, 4.0)))
    B = symmetrized(skewed)
    n = B.shape[0]
    defect = skewed.hermitian_defect()
    direct = np.linalg.norm(B - B.conj().T) / np.linalg.norm(B)
    assert abs(defect - direct) <= 4 * UNIT + n * UNIT * direct
    assert n * UNIT < defect <= fk.spectral.HERMITIAN_RTOL
    assert not skewed.hermitian_to_roundoff()
    calls = spy_on(monkeypatch, ("eigh", "eig", "svd", "eigvals", "schur"))
    d = fk.djf_eig(skewed)
    fk.operator_svd(skewed)
    fk.hermitian_eig(skewed)
    assert skewed.spectrum is skewed.general_family.eigenvalues
    assert calls == ["schur", "eig", "svd", "eigh"]
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
        assert not {"hermitian_family", "spectrum"} & set(vars(op))
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
    for read in (fk.hermitian_eig, lambda op: op.hermitian_family):
        with pytest.raises(fk.InvalidArgumentError, match="Hermitian part has an entry"):
            read(op)
    assert calls == []
    assert "hermitian_family" not in vars(op)


def test_schur_failure_is_cached_nowhere(monkeypatch, yz2_kernel, gl8):
    """Off the Hermitian route a Schur form that does not converge raises
    ConvergenceError from every entry point that reads the general family,
    caching nothing."""
    failure = np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    op = fk.discretize(yz2_kernel, gl8)
    assert not op.hermitian_to_roundoff()
    calls = spy_on(monkeypatch, ("schur",), fail=failure)
    f = np.ones(8, dtype=complex)
    for read in (lambda: fk.resolvent_solve(op, 1.0, f),
                 lambda: fk.resolvent_kernel(op, 1.0),
                 lambda: fk.fredholm_determinant(op, 1.0, "product"),
                 lambda: fk.determinant_log_derivative_check(op, (0.0, 1.0), 4),
                 lambda: fk.djf_eig(op), lambda: fk.first_kind_solve(op, 4.0, 1e-8)):
        with pytest.raises(fk.ConvergenceError, match="^schur did not converge: Schur") as err:
            read()
        assert err.value.__cause__ is failure
    assert calls == ["schur"] * 6
    assert not {"general_family", "spectrum"} & set(vars(op))
    monkeypatch.undo()
    assert fk.fredholm_determinant(op, 1.0, "product").value == pytest.approx(0.75, rel=1e-14)


OFF_ROUTE = {
    "skew-gl40": lambda: fk.discretize(skew_kernel(0.2), fk.gauss_legendre(40, -4.0, 4.0)),
    "skew-twin-gl40": lambda: fk.discretize(skew_kernel(0.2 + 0.7j),
                                            fk.gauss_legendre(40, -4.0, 4.0)),
    "defective-3": lambda: defective(3),
}


def test_dropped_operator_is_freed_without_the_collector():
    """Each family is a BiSpectralDecomposition, which holds arrays (the
    operator's K and weights among them), numbers and at most a refusal
    message, never its operator: with the cycle collector off, an operator
    that every reader has used is freed once it and its results are dropped.
    On the route that is the Hermitian family (Mehler and its twin on GH40);
    off it the general one (the skew kernel on GL40 and its complex twin),
    refused on defective(3), whose spectrum is still read."""
    cases = {name: ON_ROUTE[name] for name in ("mehler-gh40", "twin-gh40")} | OFF_ROUTE
    for name, make in cases.items():
        gc.disable()
        try:
            op = make()
            nus = op.spectrum
            if name == "defective-3":
                with pytest.raises(fk.DefectiveSuspectedError):
                    fk.djf_eig(op)
                results = [fk.operator_svd(op)]
            else:
                results = [fk.djf_eig(op), fk.operator_svd(op), nus,
                           fk.first_kind_solve(op, 1.0 / nus[np.argmax(np.abs(nus))], 1e-8)]
                lambda_path(op)
            if name in ON_ROUTE:
                results.append(fk.hermitian_eig(op))
            assert ("hermitian_family" if name in ON_ROUTE else "general_family") in vars(op)
            ref = weakref.ref(op)
            del op, results, nus
            assert ref() is None, name
        finally:
            gc.enable()


@pytest.mark.parametrize("name", ["mehler-gh40", "twin-gh40", "skew-gl40", "skew-twin-gl40"])
def test_decompositions_are_the_cached_family(name):
    """djf_eig returns op.family itself, and hermitian_eig on the route
    op.hermitian_family, the same record; first_kind_solve reads it."""
    op = (ON_ROUTE | OFF_ROUTE)[name]()
    d = fk.djf_eig(op)
    assert d is op.family and d.weights is op.w_rows and d.K is op.K
    if name in ON_ROUTE:
        assert fk.hermitian_eig(op) is op.hermitian_family is d
    basis = fk.first_kind_solve(op, 1.0 / d.eigenvalues[0], 1e-8)
    assert np.array_equal(basis[0], d.right[:, 0])


@pytest.mark.parametrize("name", ["mehler-gh40", "twin-gh40", "skew-gl40", "skew-twin-gl40"])
def test_results_do_not_keep_their_operator(name):
    """A decomposition and the operator SVD hold the operator's weights (and
    the decomposition its samples K), never the operator: with the cycle
    collector off, an operator is freed once it is dropped while its
    djf_eig, hermitian_eig (on the route) and operator_svd results are
    held, and those results read the same after the drop,
    second_kind_solve_series's Nystrom step bit for bit."""
    gc.disable()
    try:
        op = (ON_ROUTE | OFF_ROUTE)[name]()
        d, sv = fk.djf_eig(op), fk.operator_svd(op)
        h = fk.hermitian_eig(op) if name in ON_ROUTE else d
        weights = [op.w_rows.copy(), op.w_cols.copy()]
        f = np.cos(op.rule.nodes) + 0.5j * op.rule.nodes
        lam = 0.5 / d.eigenvalues[0]
        series = fk.second_kind_solve_series(d, lam, f, d.retained)
        ref = weakref.ref(op)
        del op
        assert ref() is None
        assert np.array_equal(d.weights, weights[0])
        assert np.array_equal(sv.w_rows, weights[0]) and np.array_equal(sv.w_cols, weights[1])
        assert np.array_equal(fk.second_kind_solve_series(d, lam, f, d.retained), series)
        assert h is d
    finally:
        gc.enable()


def spy_on_B(monkeypatch):
    """Record the name of the function that forms each B, through the
    DiscreteOperator.B property that every reader reads it from."""
    calls = []
    real = fk.DiscreteOperator.B.fget

    def spy(op):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(op)

    monkeypatch.setattr(fk.DiscreteOperator, "B", property(spy))
    return calls


def formed_by(calls, read):
    """The functions that formed a B while read() ran, in order."""
    del calls[:]
    read()
    return list(calls)


@pytest.mark.parametrize("kernel, n", [(fk.mehler_kernel(0.5), 1024), (twin_kernel(0.8), 256)],
                         ids=["mehler-gl1024", "twin-gl256"])
def test_only_k_is_stored_at_benchmark_scale(monkeypatch, kernel, n):
    """The spectra-n1024 calls, on real Mehler and on its complex twin:
    discretizing forms no B (its zero-kernel check reads K), the readers
    form it once (the Hermitian defect), and none keeps it.  Afterwards the operator's only
    N x N arrays are K and the family's samples.  Each outside read of op.B
    forms a fresh, writeable B, bit for bit the expression, and the operator
    keeps none."""
    calls = spy_on_B(monkeypatch)
    op = fk.discretize(kernel, fk.gauss_legendre(n, -4.0, 4.0))
    assert calls == []
    assert formed_by(calls, lambda: fk.hermitian_eig(op)) == ["_hermitian_defect"]
    for read in (lambda: fk.djf_eig(op), lambda: fk.operator_svd(op),
                 lambda: fk.iterated_kernel(op, 20), lambda: op.spectrum):
        assert formed_by(calls, read) == []
    assert square_arrays(op) == ["K", "hermitian_family.right"]
    assert formed_by(calls, lambda: op.B) == ["<lambda>"]
    B = op.B
    assert B is not op.B and B.flags.writeable and B.dtype == op.K.dtype
    assert np.array_equal(B.view(np.uint64), symmetrized(op).view(np.uint64))
    assert square_arrays(op) == ["K", "hermitian_family.right"] and "B" not in vars(op)


def test_iterate_holds_two_square_buffers_and_a_slab(twin1024):
    """iterated_kernel(op, 20) at N = 1024, complex: the iterate and the
    product it fills take turns in two N x N buffers, and a square forms
    X W one slab of ITERATE_SLAB rows at a time, so the call's peak is two
    N x N arrays and one slab (a fresh X W and a fresh product would make
    three N x N arrays)."""
    op = twin1024
    op.w_rows, op.w_cols  # cached before the count
    assert op.K.dtype == np.complex128 and op.K.shape == (1024, 1024)
    square, slab = op.K.nbytes, nystrom.ITERATE_SLAB * op.K.shape[1] * op.K.itemsize
    tracemalloc.start()
    fk.iterated_kernel(op, 20)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2 * square + slab + square // 16


def test_each_reader_forms_b_at_most_once_per_call(monkeypatch):
    """Off the Hermitian route every reader of B forms its own, once per
    call, and no N x N array but K and the families is left on the
    operator.  On the skew kernel of test_djf_general, djf_eig's general
    family forms one, for its Schur form, once per operator, and
    operator_svd's svd forms one.  On a perturbed twin within hermitian_eig's
    1e-10, hermitian_eig forms one: the defect keeps the Hermitian part it
    builds for the eigh that follows in the same call."""
    calls = spy_on_B(monkeypatch)
    skew = fk.discretize(skew_kernel(0.2), fk.gauss_legendre(256, -4.0, 4.0))
    assert formed_by(calls, lambda: fk.djf_eig(skew)) == ["_hermitian_defect", "_general_family"]
    assert formed_by(calls, lambda: fk.djf_eig(skew)) == []
    assert formed_by(calls, lambda: fk.operator_svd(skew)) == ["operator_svd"]
    assert formed_by(calls, lambda: skew.spectrum) == []
    assert square_arrays(skew) == ["K", "general_family.left", "general_family.right"]
    band = band_operator(fk.discretize(twin_kernel(0.8), fk.gauss_legendre(64, -4.0, 4.0)))
    assert formed_by(calls, lambda: fk.hermitian_eig(band)) == ["_hermitian_defect"]
    assert formed_by(calls, lambda: fk.hermitian_eig(band)) == []
    assert not band.hermitian_to_roundoff()
    assert square_arrays(band) == ["K", "hermitian_family.right"]
    assert "B" not in vars(skew) and "B" not in vars(band)


def test_defect_takes_b_minus_s_in_the_transient_b():
    """The defect of a real GL256 Mehler operator forms B, builds
    S = (B + B^T) / 2 and takes B - S in B's buffer, so at most two N x N
    float64 arrays are alive at once; B - S in a fresh array would make
    three.  (A complex B's conjugate is a copy, so there the peak is three.)"""
    op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_legendre(256, -4.0, 4.0))
    op.w_rows, op.w_cols  # cached before the count
    tracemalloc.start()
    op.hermitian_defect()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert op.hermitian_to_roundoff()
    assert peak < 2.5 * op.K.nbytes
