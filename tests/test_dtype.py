"""The operator's dtype follows the kernel's: a real kernel gets float64 K, A
and B and real LAPACK calls, a complex one stays complex128.

The agreement bounds below are built as perfbench/README.md builds its
checks, from the size N, the unit roundoff u and the operator's own
spectrum: a backward-stable decomposition of the real B and one of the same
B stored as complex each lie within N u ||B|| of the exact one, so the two
differ by at most twice that, scaled by the condition of what is compared.
"""
import tracemalloc

import numpy as np
import pytest

import fredkit as fk
from fredkit import nystrom
from fredkit.kernels import ClosedForm
from fredkit.nystrom import _apply_A, _apply_adjoint, _matvec, _read_only

from conftest import symmetrized
from test_conventions import skew_kernel
from test_hermitian_route import library

U = np.finfo(float).eps / 2  # unit roundoff
N = 256


def gamma(k):
    return k * U / (1 - k * U)


def twin_kernel(r, a):
    """e^{iay} M_r(y, z) e^{-iaz}: complex samples, Mehler's spectrum."""
    mehler = fk.mehler_kernel(r).body.evaluator
    return fk.Kernel((1, 1), ClosedForm(
        lambda y, z: np.exp(1j * a * y) * mehler(y, z) * np.exp(-1j * a * z)))


def block_kernel(y, z):
    return np.array([[np.exp(-(y - z) ** 2), y * z], [np.sin(y + 2 * z), np.cos(y - z)]])


def forced_complex(op):
    """op with K stored as complex128, as the constructor stored every
    operator before the dtype followed the kernel; A and B, formed from K on
    every read, follow it.  The constructor itself would narrow K back, so
    the fields are set directly."""
    forced = object.__new__(fk.DiscreteOperator)
    object.__setattr__(forced, "rule", op.rule)
    object.__setattr__(forced, "shape", op.shape)
    object.__setattr__(forced, "K", _read_only(op.K.astype(complex)))
    return forced


def real_kernels(rule):
    basis = fk.orthonormal_poly_basis(rule, 3)
    table = np.random.default_rng(7).standard_normal((rule.count, rule.count))
    return {
        "mehler": fk.mehler_kernel(0.5),
        "separable": fk.separable_kernel([0.7, -0.2], [lambda y: y, np.cos],
                                         [lambda z: z * z, np.exp]),
        "defective": fk.defective_kernel(0.5, 3, basis, rule),
        "grid": fk.grid_kernel(rule, table),
        "grid-complex-zero-imag": fk.grid_kernel(rule, table.astype(complex)),
        "block": fk.Kernel((2, 2), ClosedForm(block_kernel)),
    }


def complex_kernels(rule):
    table = np.random.default_rng(7).standard_normal((rule.count, rule.count))
    return {
        "twin": twin_kernel(0.5, 0.8),
        "separable": fk.separable_kernel([0.7 + 0.1j], [lambda y: y], [lambda z: z * z]),
        "grid": fk.grid_kernel(rule, table + 1e-3j * table.T),
    }


REAL_KERNELS = ["mehler", "separable", "defective", "grid", "grid-complex-zero-imag", "block"]
COMPLEX_KERNELS = ["twin", "separable", "grid"]


class TestDtypeFollowsKernel:
    @pytest.mark.parametrize("name", REAL_KERNELS)
    def test_real_kernel_real_arrays(self, gl8, name):
        op = fk.discretize(real_kernels(gl8)[name], gl8)
        for M in (op.K, op.A, op.B):
            assert M.dtype == np.float64 and M.flags.c_contiguous
        # K is stored read-only; A and B are formed fresh for their reader
        assert not op.K.flags.writeable and op.A.flags.writeable and op.B.flags.writeable
        assert op.spectrum.dtype == np.complex128

    @pytest.mark.parametrize("name", COMPLEX_KERNELS)
    def test_complex_kernel_complex_arrays(self, gl8, name):
        op = fk.discretize(complex_kernels(gl8)[name], gl8)
        for M in (op.K, op.A, op.B):
            assert M.dtype == np.complex128

    def test_zero_imaginary_part_narrowed_on_construction(self, gl8):
        K = np.random.default_rng(3).standard_normal((8, 8))
        Kc = K.astype(complex)
        op = fk.DiscreteOperator(rule=gl8, shape=(1, 1), K=Kc)
        assert op.K.dtype == np.float64 and np.array_equal(op.K, K)
        assert Kc.flags.writeable  # the caller's complex array is not kept
        Kc[0, 0] += 1e-300j
        assert fk.DiscreteOperator(rule=gl8, shape=(1, 1), K=Kc).K.dtype == np.complex128

    def test_real_lapack_on_a_real_operator(self, monkeypatch, gl8):
        """The Hermitian, SVD and spectrum paths hand real matrices to LAPACK.
        On a Hermitian operator one family build (here the reflection route's
        two half-size real eighs) serves hermitian_eig, operator_svd, the
        spectrum and djf_eig, whose pairs are that build's float64 family; on one that is not, operator_svd runs a real svd and
        djf_eig a real eig, and djf_eig's pairs are complex there."""
        seen = []
        for name in ("eigh", "svd", "eigvals", "eig"):
            real = getattr(library(name), name)

            def spy(a, *args, _name=name, _real=real, **kwargs):
                seen.append((_name, np.asarray(a).dtype))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(library(name), name, spy)
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(40))
        d = fk.hermitian_eig(op)
        svd = fk.operator_svd(op)
        op.spectrum
        dj = fk.djf_eig(op)
        assert seen == [("eigh", np.float64)] * 2
        assert d.right.dtype == svd.left.dtype == svd.right.dtype == np.float64
        assert fk.iterated_kernel(op, 5).dtype == np.float64
        assert d.eigenvalues.dtype == dj.eigenvalues.dtype == np.complex128
        assert dj.right.dtype == dj.left.dtype == np.float64
        skew = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z]), gl8)
        skew_svd = fk.operator_svd(skew)
        skew_dj = fk.djf_eig(skew)
        assert seen[2:] == [("svd", np.float64), ("eig", np.float64)]
        assert skew_svd.left.dtype == skew_svd.right.dtype == np.float64
        assert skew_dj.right.dtype == skew_dj.left.dtype == np.complex128
        # an empty sum has the dtype of a nonempty one
        for k in (0, 2):
            assert fk.reconstruct(d, k).dtype == np.complex128
            assert fk.resolvent_series(d, 0.3, k).dtype == np.complex128

    def test_eigh_driver_follows_the_dtype(self, monkeypatch, gh40):
        """The eigh gets B's Hermitian part in B's dtype, for LAPACK to
        overwrite, with the LAPACK driver nystrom.EIGH_DRIVER names: dsyevd
        ("evd") for real Mehler, zheevr ("evr") for its complex twin, on
        Gauss-Legendre 40 over [0, 1], off the reflection route.  On GH40 both
        are reflection-symmetric and every eigh is a real dsyevd: two
        half-size ones for Mehler, one of the twin's real form."""
        seen = []
        real = library("eigh").eigh

        def spy(a, **kwargs):
            seen.append((a.dtype, a.shape, kwargs["driver"], kwargs["overwrite_a"]))
            return real(a, **kwargs)

        monkeypatch.setattr(library("eigh"), "eigh", spy)
        for rule in (fk.gauss_legendre(40, 0.0, 1.0), gh40):
            for kern in (fk.mehler_kernel(0.5), twin_kernel(0.5, 0.8)):
                fk.hermitian_eig(fk.discretize(kern, rule))
        assert seen == [(np.float64, (40, 40), "evd", True), (np.complex128, (40, 40), "evr", True),
                        *[(np.float64, (20, 20), "evd", True)] * 2,
                        (np.float64, (40, 40), "evd", True)]


@pytest.fixture(scope="module")
def pair():
    """Mehler r = 0.5 on Gauss-Legendre 256 over [-4, 4], stored real and
    forced to complex, with its spectrum nu (descending) from eigvalsh."""
    rule = fk.gauss_legendre(N, -4.0, 4.0)
    op = fk.discretize(fk.mehler_kernel(0.5), rule)
    nu = np.linalg.eigvalsh(symmetrized(op))[::-1]
    return op, forced_complex(op), nu


class TestRealAgreesWithComplex:
    def test_hermitian_eigenvalues(self, pair):
        op, opc, nu = pair
        a, b = fk.hermitian_eig(op), fk.hermitian_eig(opc)
        assert a.right.dtype == np.float64 and b.right.dtype == np.complex128
        assert a.retained == b.retained
        err = np.abs(np.sort(a.eigenvalues.real) - np.sort(b.eigenvalues.real))
        assert np.max(err) <= 2 * N * U * nu[0]

    def test_hermitian_eigenvectors(self, pair):
        """Davis-Kahan: each unit eigenvector turns by an angle phi with
        sin(phi) <= ||dB|| / gap, so the two lie within sin(phi) <=
        2 N u nu_1 / gap of each other, and their distance after the best
        unit phase, 2 sin(phi / 2) <= phi <= (pi / 2) sin(phi), within
        pi N u nu_1 / gap.  The anchor may pick either of two mirror entries
        tied up to rounding, so the phase is aligned before comparing."""
        op, opc, nu = pair
        a, b = fk.hermitian_eig(op), fk.hermitian_eig(opc)
        w = op.w_rows
        k = int(np.sum(np.abs(nu) >= fk.nystrom.REFINE_RTOL * nu[0]))
        gaps = np.array([np.min(np.abs(np.delete(nu, j) - nu[j])) for j in range(k)])
        P, Q = a.right[:, :k], b.right[:, :k]
        inner = np.sum(w[:, None] * np.conj(Q) * P, axis=0)
        dist = np.sqrt(np.sum(w[:, None] * np.abs(P - Q * (inner / np.abs(inner))) ** 2, axis=0))
        assert np.all(dist <= np.pi * N * U * nu[0] / gaps)

    def test_singular_values(self, pair):
        op, opc, nu = pair
        a, b = fk.operator_svd(op), fk.operator_svd(opc)
        assert a.left.dtype == a.right.dtype == np.float64
        assert a.rank_numerical == b.rank_numerical
        assert np.max(np.abs(a.singular_values - b.singular_values)) <= 2 * N * U * nu[0]

    def test_twentieth_iterate(self, pair):
        """Componentwise, as tests/test_nystrom.py bounds the doubling: each
        iterate within c_n M_n of the exact one, M_n = |K| (W |K|)^{n-1},
        with the complex product's g = sqrt(2) gamma_{2N} >= the real gamma_N."""
        op, opc, nu = pair
        n = 20
        a, b = fk.iterated_kernel(op, n), fk.iterated_kernel(opc, n)
        assert a.dtype == np.float64 and b.dtype == np.complex128
        M = np.abs(op.K)
        for _ in range(n - 1):
            M = (np.abs(op.K) * op.w_cols) @ M
        c = ((1 + U) * (1 + np.sqrt(2) * gamma(2 * N))) ** (n - 1) - 1
        assert np.all(np.abs(a - b) <= 2 * c / (1 - c) * M)

    def test_spectrum(self, pair):
        """Each spectrum comes from a backward-stable factorization of B
        itself, within N u ||B||_2 of B, not from an eigensolve of
        A = W^{-1/2} B W^{1/2}.  Mehler's is the eigh of B's Hermitian part,
        whose eigenvalues move by at most that (Weyl).  The skew kernel
        e^{0.2y} M(y, z) e^{-0.2z} on the same rule is off the Hermitian route:
        its spectrum is its Schur form's, and its B is D B_M D^{-1} for
        Mehler's symmetric B_M and D = diag(e^{0.2 x_i}), so each eigenvalue
        has condition at most cond(D) <= e^{1.6} and moves by at most that
        times N u ||B||_2.  A real and a complex spectrum differ by twice
        their bound, their real parts sorted; the exact ones are real."""
        op, opc, nu = pair
        skew = fk.discretize(skew_kernel(0.2), op.rule)
        for a, b, cond in ((op, opc, 1.0), (skew, forced_complex(skew), np.exp(1.6))):
            assert a.hermitian_to_roundoff() == b.hermitian_to_roundoff() == (cond == 1.0)
            assert b.K.dtype == np.complex128 and a.K.dtype == np.float64
            sa, sb = a.spectrum, b.spectrum
            assert sa.dtype == sb.dtype == np.complex128
            bound = 2 * cond * N * U * np.linalg.norm(symmetrized(a), 2)
            assert np.max(np.abs(np.sort(sa.real) - np.sort(sb.real))) <= bound
            assert np.max(np.abs(sa.imag)) <= bound and np.max(np.abs(sb.imag)) <= bound

    @pytest.mark.parametrize("lam", [-2.5, 0.7, 1.5, 0.7 + 0.4j])
    def test_determinants(self, pair, lam):
        """Direct: LU in the real or the complex field, each within
        N u cond of D relative, cond = (1 + |lam| nu_1) / min |1 - lam nu_j|
        (as for lambda-sweep).  Product: every factor 1 - lam nu_j moves by
        |lam| times the spectrum bound of test_spectrum, 2 N u ||B||_2, over
        min |1 - lam nu_j|."""
        op, opc, nu = pair
        gap = np.min(np.abs(1 - lam * nu))
        cond = (1 + abs(lam) * nu[0]) / gap
        d = fk.fredholm_determinant(op, lam, "direct").value
        assert abs(d - fk.fredholm_determinant(opc, lam, "direct").value) <= 2 * N * cond * U * abs(d)
        dnu = 2 * N * U * np.linalg.norm(symmetrized(op), 2)
        p = fk.fredholm_determinant(op, lam, "product").value
        pc = fk.fredholm_determinant(opc, lam, "product").value
        assert abs(p - pc) <= N * (abs(lam) * dnu / gap + 2 * U) * abs(p)


class TestRealAwareMatvec:
    """_matvec(M, x) for a real M and a complex x is one real product on x's
    float view, (n, 2) for a vector and (n, 2m) for a matrix; each part is an N-term real sum on one side and a
    2N-term one (with zero terms) in complex arithmetic, so they differ by at
    most (gamma_N + gamma_2N) |M| |x| componentwise."""

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_matches_complex_product(self, layout):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((N, N))
        X = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
        x = X[:, 1] if layout == "strided" else np.ascontiguousarray(X[:, 1])
        if layout == "transposed":
            M = M.T
        got = _matvec(M, x)
        assert got.dtype == np.complex128 and got.shape == (N,)
        ref = M.astype(complex) @ x
        bound = (gamma(N) + gamma(2 * N)) * (np.abs(M) @ np.abs(x))
        assert np.all(np.abs(got.real - ref.real) <= bound)
        assert np.all(np.abs(got.imag - ref.imag) <= bound)

    def test_other_dtypes_are_plain_products(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((40, 40))
        Mc = M + 1j * rng.standard_normal((40, 40))
        x = rng.standard_normal(40)
        xc = x + 1j * rng.standard_normal(40)
        for A, v in ((M, x), (Mc, x), (Mc, xc)):
            assert np.array_equal(_matvec(A, v), A @ v)

    def test_apply_and_adjoint_on_a_real_operator(self, pair):
        op, opc, nu = pair
        f = np.random.default_rng(13).standard_normal((N, 2)) @ [1, 1j]
        for fn, M, v in ((fk.apply, op.A, f), (fk.apply_adjoint, op.K.T, op.w_rows * f)):
            bound = (gamma(N) + gamma(2 * N)) * (np.abs(M) @ np.abs(v))
            assert np.all(np.abs(fn(op, f) - fn(opc, f)) <= np.sqrt(2) * bound)

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_matrix_right_hand_side(self, layout):
        rng = np.random.default_rng(14)
        M = rng.standard_normal((N // 2, N))
        X = rng.standard_normal((N, 6)) + 1j * rng.standard_normal((N, 6))
        X = X[:, ::2] if layout == "strided" else np.ascontiguousarray(X[:, :3])
        got = _matvec(M, X)
        assert got.dtype == np.complex128 and got.shape == (N // 2, 3)
        ref = M.astype(complex) @ X
        bound = (gamma(N) + gamma(2 * N)) * (np.abs(M) @ np.abs(X))
        assert np.all(np.abs(got.real - ref.real) <= bound)
        assert np.all(np.abs(got.imag - ref.imag) <= bound)


def product_gap(M, x):
    """Bound on |M @ x as _matvec forms it - M @ x in complex arithmetic|, for
    a real M, a complex x and M's inner dimension k: each part of each lies
    within gamma_2k |M| |x| of the exact product (TestRealAwareMatvec), so
    the moduli of the two differ by at most 2 sqrt(2) of that."""
    return 2 * np.sqrt(2) * gamma(2 * M.shape[1]) * (np.abs(M) @ np.abs(x))


# One complex multiply or divide rounds within this relative error, also
# when an operand is real (Higham, 2nd ed., lemma 3.5).
ELEM = np.sqrt(2) * gamma(4)


class TestRealAwarePaths:
    """gram_apply, second_kind_solve_series and nystrom_extend apply a real
    matrix to complex samples through _matvec.  Each is compared with the
    same formula in plain complex products: the gaps of its products
    (product_gap) are carried through the elementwise steps between them,
    each of which rounds within ELEM relative on either side."""

    def test_gram_apply(self, pair):
        op, _, _ = pair
        sv = fk.operator_svd(op)
        assert sv.left.dtype == np.float64
        f = np.random.default_rng(15).standard_normal((N, 2)) @ [1, 1j]
        r, w = sv.rank_numerical, sv.w_rows
        V, pw = sv.left[:, :r], sv.singular_values[:r] ** 4
        c = V.T.astype(complex) @ (w * f)
        ref = V.astype(complex) @ (pw * c)
        dc = product_gap(V.T, w * f)
        t = pw * (np.abs(c) + dc)  # bounds |pw * c| on either side
        bound = np.abs(V) @ (pw * dc + 2 * ELEM * t) + product_gap(V, (1 + ELEM) * t)
        assert np.all(np.abs(fk.gram_apply(sv, 2, f) - ref) <= bound)

    @pytest.mark.parametrize("lam", [0.3, 0.7 + 0.4j])
    def test_second_kind_solve_series(self, pair, lam):
        op, _, _ = pair
        d = fk.hermitian_eig(op)
        assert d.right.dtype == np.float64
        f = np.random.default_rng(16).standard_normal((N, 2)) @ [1, 1j]
        k, w = d.retained, d.weights
        P, den = d.right[:, :k], 1.0 / d.eigenvalues[:k] - lam
        proj = P.T.astype(complex) @ (w * f)
        y = P.astype(complex) @ (lam * proj / den)
        s = f + y
        dproj = product_gap(P.T, w * f)
        t = abs(lam) * (np.abs(proj) + dproj) / np.abs(den)  # bounds |lam proj / den|
        dy = (np.abs(P) @ (abs(lam) * dproj / np.abs(den) + 4 * ELEM * t)
              + product_gap(P, (1 + 2 * ELEM) * t))
        ds = dy + 2 * ELEM * (np.abs(f) + np.abs(y) + dy)  # the series s = f + y, either side
        # the Nystrom form f + lam A s: A's product, the multiply by lam, the final sum
        z = op.A.astype(complex) @ s
        dz = np.abs(op.A) @ ds + product_gap(op.A, np.abs(s) + ds)
        u = lam * z
        du = abs(lam) * (dz + 2 * ELEM * (np.abs(z) + dz))
        ref = f + u
        bound = du + 2 * ELEM * (np.abs(f) + np.abs(u) + du)
        assert np.all(np.abs(fk.second_kind_solve_series(d, lam, f, k) - ref) <= bound)

    def test_nystrom_extend(self):
        rule = fk.gauss_legendre(N, -1.0, 1.0)
        kern = fk.Kernel((2, 2), ClosedForm(block_kernel))
        p = np.random.default_rng(17).standard_normal((2 * N, 2)) @ [1, 1j]
        nu, y = 0.7 - 0.2j, 0.3141
        row = kern.body._samples(kern.shape, np.array([y]), rule.nodes)
        assert row.dtype == np.float64
        wp = np.repeat(rule.weights, 2) * p
        acc = row.astype(complex) @ wp
        ref = acc / nu
        dacc = product_gap(row, wp)
        bound = dacc / abs(nu) + 2 * ELEM * (np.abs(acc) + dacc) / abs(nu)
        assert np.all(np.abs(fk.nystrom_extend(kern, rule, p, nu, y) - ref) <= bound)

    def test_no_complex_copy_of_the_matrix(self, pair):
        op, _, _ = pair
        sv, d = fk.operator_svd(op), fk.hermitian_eig(op)
        f = np.random.default_rng(18).standard_normal((N, 2)) @ [1, 1j]
        calls = [(lambda: fk.gram_apply(sv, 2, f), sv.left[:, :sv.rank_numerical]),
                 (lambda: fk.second_kind_solve_series(d, 0.3, f, d.retained),
                  d.right[:, :d.retained])]
        for call, M in calls:
            tracemalloc.start()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < M.size * np.dtype(complex).itemsize

    @pytest.mark.parametrize("product", [_apply_A, _apply_adjoint])
    def test_polish_products_make_no_copy_of_the_matrix(self, pair, product):
        """The polishes' products, K (w x) and K^H (w x), on 10 complex columns
        of a real operator: each column rounds as it does alone, and the call
        allocates less than one N x N float64 array (a complex copy of K or
        of A would take twice that)."""
        op, _, _ = pair
        X = np.random.default_rng(19).standard_normal((N, 20)) @ np.kron(np.eye(10), [1, 1j]).T
        product(op, X[:, :1])  # w_rows and w_cols are cached before the count
        tracemalloc.start()
        Y = product(op, X)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < op.K.size * np.dtype(float).itemsize
        assert Y.dtype == np.complex128 and Y.shape == X.shape
        for j in range(X.shape[1]):
            assert np.array_equal(Y[:, j], product(op, X[:, j]))


@pytest.fixture(scope="module")
def gh64_pair():
    """Real Mehler r = 0.5 on Gauss-Hermite 64 and its complex twin, both
    Hermitian to roundoff; Mehler's noise eigenvalues below the roundoff
    floor are negative."""
    rule = fk.gauss_hermite_prob(64)
    return fk.discretize(fk.mehler_kernel(0.5), rule), fk.discretize(twin_kernel(0.5, 0.8), rule)


class TestDecompositionsShareTheFamily:
    """Every decomposition of an operator holds its one family record's own
    read-only arrays, in the family's dtype: nothing is cast or copied."""

    @pytest.mark.parametrize("which, dtype", [(0, np.float64), (1, np.complex128)],
                             ids=["mehler", "twin"])
    def test_djf_eig_is_hermitian_eig_on_the_route(self, gh64_pair, which, dtype):
        op = gh64_pair[which]
        assert op.hermitian_to_roundoff()
        family = op.family
        assert family.right.dtype == dtype and not family.right.flags.writeable
        for d in (fk.hermitian_eig(op), fk.djf_eig(op), fk.djf_eig(op)):
            assert d.right is d.left is family.right
            assert d.eigenvalues is family.eigenvalues

    def test_vectors_read_off_a_real_family_are_real(self, gh64_pair):
        """first_kind_solve's basis and variational_estimate's pair are the
        family's columns, float64 on a real operator on the route."""
        op = gh64_pair[0]
        P = op.family.right
        (p,) = fk.first_kind_solve(op, 1.0, 1e-8)
        value, g, h = fk.variational_estimate(op)
        for v in (p, g, h):
            assert v.dtype == np.float64
            assert np.array_equal(v, P[:, 0])
        assert value == op.family.eigenvalues[0].real


def spy_on_float_view(monkeypatch):
    """Record the shape of each complex sample array a real map takes on its
    float view, in every fredkit module that binds _on_float_view."""
    calls = []
    for module in (nystrom, fk.fredholm):
        def spy(M, apply, x, _real=module._on_float_view):
            if M.dtype.kind == "f" and x.dtype.kind == "c":
                calls.append(x.shape)
            return _real(M, apply, x)

        monkeypatch.setattr(module, "_on_float_view", spy)
    return calls


class TestRealPowerIteration:
    """Power iteration follows the kernel: a real start on a real operator
    runs in real products, with no float view, and gives float64 iterates,
    pairs and deflated samples, and real estimates; a complex start there
    still takes the float view and stays complex.  On a complex operator a
    real start is read as complex, so it gives the complex start's bits."""

    def runs(self, op, f):
        trace = fk.power_ratio_estimate(op, f, 60, 1e-12)
        p, q = fk.extract_leading_pair(op, trace.estimate, f, f, 400, 1e-8)
        d = fk.djf_eig(op)  # complex eigenvalues, a real one narrowed by deflate
        deflated = fk.deflate(op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        return trace, p, q, deflated, fk.sequential_spectrum(op, 2, 400, 1e-10)

    def test_real_start_on_a_real_operator(self, gh64_pair, monkeypatch):
        op = gh64_pair[0]
        f = np.cos(op.rule.nodes)
        views = spy_on_float_view(monkeypatch)
        trace, p, q, deflated, res = self.runs(op, f)
        assert views == []
        assert all(h.dtype == np.float64 for h in trace.iterates)
        assert all(isinstance(r, float) for r in [trace.estimate, *trace.ratios])
        assert p.dtype == q.dtype == deflated.K.dtype == np.float64
        assert all(isinstance(nu, float) and p.dtype == q.dtype == np.float64 for nu, p, q in res)
        trace_c, p_c, _q_c, _deflated, _res = self.runs(op, f.astype(complex))
        assert views and trace_c.iterates[-1].dtype == p_c.dtype == np.complex128
        assert abs(trace_c.estimate - trace.estimate) <= 1e-12 * abs(trace.estimate)

    def test_real_start_on_a_complex_operator(self, gh64_pair):
        op = gh64_pair[1]
        f = np.cos(op.rule.nodes)
        trace, p, q, _deflated, _res = self.runs(op, f)
        trace_c, p_c, q_c, _deflated, _res = self.runs(op, f.astype(complex))
        assert trace.ratios == trace_c.ratios and trace.scales == trace_c.scales
        assert all(np.array_equal(h, h_c) for h, h_c in zip(trace.iterates, trace_c.iterates))
        assert np.array_equal(p, p_c) and np.array_equal(q, q_c)


class TestRealSamples:
    """A sample vector keeps its kind (errors._array_arg): a real f meets a
    real operator in real products, takes no float view and gives a float64
    result, bit for bit the formula in real numpy products; the complex f
    with the same values still takes the float view and stays complex128,
    within TestRealAwareMatvec's bound of it.  nystrom_extend divides by a
    complex nu, so its value stays complex."""

    def calls(self, op):
        sv = fk.operator_svd(op)
        w, r = op.w_rows, sv.rank_numerical
        V = sv.left[:, :r]
        row = op.rule.nodes[3]
        return {
            "apply": (lambda f: fk.apply(op, f), lambda f: op.K @ (w * f), op.K),
            "apply_adjoint": (lambda f: fk.apply_adjoint(op, f), lambda f: op.K.T @ (w * f),
                              op.K.T),
            "gram_apply": (lambda f: fk.gram_apply(sv, 1, f),
                           lambda f: V @ (sv.singular_values[:r] ** 2 * (V.T @ (w * f))), None),
            "nystrom_extend": (
                lambda f: fk.nystrom_extend(fk.mehler_kernel(0.5), op.rule, f, 0.5, row),
                lambda f: complex((op.K[3] @ (w * f)) / 0.5), None),
        }

    @pytest.mark.parametrize("name", ["apply", "apply_adjoint", "gram_apply", "nystrom_extend"])
    def test_real_f_takes_real_products(self, gh64_pair, monkeypatch, name):
        op = gh64_pair[0]
        call, formula, M = self.calls(op)[name]
        f = np.cos(op.rule.nodes)
        views = spy_on_float_view(monkeypatch)
        got = call(f)
        assert views == []
        if name == "nystrom_extend":
            assert got == formula(f)
            return
        assert got.dtype == np.float64 and np.array_equal(got, formula(f))
        ref = call(f.astype(complex))
        assert ref.dtype == np.complex128 and views
        if M is not None:
            v = op.w_rows * f
            assert np.all(np.abs(got - ref) <= (gamma(N) + gamma(2 * N)) * (np.abs(M) @ np.abs(v)))
