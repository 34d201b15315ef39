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
from fredkit.kernels import ClosedForm
from fredkit.nystrom import _matvec, _read_only

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
    """op with K, A and B stored as complex128, as the constructor stored
    every operator before the dtype followed the kernel; the constructor
    itself would narrow them back, so the fields are set directly."""
    forced = object.__new__(fk.DiscreteOperator)
    object.__setattr__(forced, "rule", op.rule)
    object.__setattr__(forced, "shape", op.shape)
    for name in ("K", "A", "B"):
        object.__setattr__(forced, name, _read_only(getattr(op, name).astype(complex)))
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
            assert M.dtype == np.float64
            assert M.flags.c_contiguous and not M.flags.writeable
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
        On a Hermitian operator one real eigh serves hermitian_eig,
        operator_svd, the spectrum and djf_eig, which upcasts its pairs to
        complex; on one that is not, operator_svd runs a real svd and djf_eig
        a real eig, and djf_eig's pairs are complex either way."""
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
        assert seen == [("eigh", np.float64)]
        assert d.right.dtype == svd.left.dtype == svd.right.dtype == np.float64
        assert fk.iterated_kernel(op, 5).dtype == np.float64
        assert d.eigenvalues.dtype == dj.right.dtype == dj.left.dtype == np.complex128
        skew = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z]), gl8)
        skew_svd = fk.operator_svd(skew)
        skew_dj = fk.djf_eig(skew)
        assert seen[1:] == [("svd", np.float64), ("eig", np.float64)]
        assert skew_svd.left.dtype == skew_svd.right.dtype == np.float64
        assert skew_dj.right.dtype == skew_dj.left.dtype == np.complex128
        # an empty sum has the dtype of a nonempty one
        for k in (0, 2):
            assert fk.reconstruct(d, k).dtype == np.complex128
            assert fk.resolvent_series(d, 0.3, k).dtype == np.complex128

    def test_eigh_driver_follows_the_dtype(self, monkeypatch, gh40):
        """The one eigh gets B's Hermitian part in B's dtype, for LAPACK to
        overwrite, with the LAPACK driver nystrom.EIGH_DRIVER names: dsyevd
        ("evd") for real Mehler, zheevr ("evr") for its complex twin."""
        seen = []
        real = library("eigh").eigh

        def spy(a, **kwargs):
            seen.append((a.dtype, kwargs["driver"], kwargs["overwrite_a"]))
            return real(a, **kwargs)

        monkeypatch.setattr(library("eigh"), "eigh", spy)
        for kern in (fk.mehler_kernel(0.5), twin_kernel(0.5, 0.8)):
            fk.hermitian_eig(fk.discretize(kern, gh40))
        assert seen == [(np.float64, "evd", True), (np.complex128, "evr", True)]


@pytest.fixture(scope="module")
def pair():
    """Mehler r = 0.5 on Gauss-Legendre 256 over [-4, 4], stored real and
    forced to complex, with its spectrum nu (descending) from eigvalsh."""
    rule = fk.gauss_legendre(N, -4.0, 4.0)
    op = fk.discretize(fk.mehler_kernel(0.5), rule)
    nu = np.linalg.eigvalsh(op.B)[::-1]
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
        k = int(np.sum(np.abs(nu) >= fk.spectral.REFINE_RTOL * nu[0]))
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
        """Eigenvalues of A = W^{-1/2} B W^{1/2}: the eigenvector matrix
        W^{-1/2} V has condition at most sqrt(max w / min w), so each
        spectrum lies within that times N u ||A||_2 of the exact one."""
        op, opc, nu = pair
        a, b = op.spectrum, opc.spectrum
        assert a.dtype == b.dtype == np.complex128
        w = op.rule.weights
        bound = 2 * np.sqrt(w.max() / w.min()) * N * U * np.linalg.norm(op.A, 2)
        assert np.max(np.abs(np.sort(a.real) - np.sort(b.real))) <= bound
        assert np.max(np.abs(a.imag)) <= bound and np.max(np.abs(b.imag)) <= bound

    @pytest.mark.parametrize("lam", [-2.5, 0.7, 1.5, 0.7 + 0.4j])
    def test_determinants(self, pair, lam):
        """Direct: LU in the real or the complex field, each within
        N u cond of D relative, cond = (1 + |lam| nu_1) / min |1 - lam nu_j|
        (as for lambda-sweep).  Product: every factor 1 - lam nu_j moves by
        |lam| times the spectrum bound of test_spectrum, over min |1 - lam nu_j|."""
        op, opc, nu = pair
        gap = np.min(np.abs(1 - lam * nu))
        cond = (1 + abs(lam) * nu[0]) / gap
        d = fk.fredholm_determinant(op, lam, "direct").value
        assert abs(d - fk.fredholm_determinant(opc, lam, "direct").value) <= 2 * N * cond * U * abs(d)
        w = op.rule.weights
        dnu = 2 * np.sqrt(w.max() / w.min()) * N * U * np.linalg.norm(op.A, 2)
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
