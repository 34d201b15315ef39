import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import fredkit as fk
from fredkit.errors import (
    EigenvalueProximityError,
    InvalidArgumentError,
    NoSolutionError,
    PoleError,
)

from conftest import wfro
from test_hermitian_route import library


class TestResolventSolve:
    def test_rank_one_hand_solution(self, yz_op, gl8):
        # oracle: p = y / (1 - lambda/3), so lambda = 1 gives 1.5 y
        f = gl8.nodes.astype(complex)
        sol = fk.resolvent_solve(yz_op, 1.0, f)
        assert sol.solution == pytest.approx(1.5 * gl8.nodes, abs=1e-10)
        assert sol.residual <= 1e-9
        assert sol.nearest_eigen_gap == pytest.approx(2.0, rel=1e-10)

    def test_lambda_zero_is_identity(self, two_term_op):
        rng = np.random.default_rng(2)
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        sol = fk.resolvent_solve(two_term_op, 0.0, f)
        assert np.max(np.abs(sol.solution - f)) <= 1e-14

    def test_eigenvalue_proximity_rejected(self, yz_op):
        with pytest.raises(EigenvalueProximityError) as err:
            fk.resolvent_solve(yz_op, 3.0, np.ones(8, dtype=complex))
        assert err.value.nearest == pytest.approx(3.0, abs=1e-10)

    def test_bad_rhs_length(self, yz_op):
        with pytest.raises(InvalidArgumentError):
            fk.resolvent_solve(yz_op, 1.0, np.ones(5))


class TestResolventKernel:
    def test_lambda_zero_is_k(self, yz_op):
        assert np.max(np.abs(fk.resolvent_kernel(yz_op, 0.0) - yz_op.K)) <= 1e-14

    def test_rank_one_scaling(self, yz_op):
        # oracle: N_lambda = N / (1 - lambda/3)
        got = fk.resolvent_kernel(yz_op, 1.0)
        assert np.max(np.abs(got - 1.5 * yz_op.K)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_defining_identities(self, two_term_op, mehler_op, seed):
        # oracle check on the sign: for yz at lambda=1, N_lambda = 1.5 K and
        # lambda*A*N_lambda = 0.5 K = N_lambda - K (Neumann: R - K = lambda*K*R)
        rng = np.random.default_rng(seed)
        for op in (two_term_op, mehler_op):
            lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
            NL = fk.resolvent_kernel(op, lam)
            scale = max(wfro(op, op.K), 1e-300)
            left = lam * (op.A @ NL)
            right = lam * ((NL * op.w_cols[None, :]) @ op.K)
            assert wfro(op, left - (NL - op.K)) <= 1e-9 * scale
            assert wfro(op, right - (NL - op.K)) <= 1e-9 * scale


class TestResolventSeries:
    def test_rank_one_term(self, yz_op):
        # oracle: p1 q1^* = 3K (normalization arithmetic), lambda_1 = 3,
        # so the k=1 series at lambda=1 is 3K/(3-1) = 1.5 K
        d = fk.djf_eig(yz_op)
        got = fk.resolvent_series(d, 1.0, 1)
        assert np.max(np.abs(got - 1.5 * yz_op.K)) <= 1e-12

    def test_zero_truncation(self, yz_op):
        d = fk.djf_eig(yz_op)
        assert np.all(fk.resolvent_series(d, 1.0, 0) == 0)

    def test_mehler_series_vs_direct(self, mehler_op):
        # truncation-tail oracle: the dropped terms are p_j q_j^*/(2^j - 0.9)
        # with unit weighted norms, so the gap is the tail's l2 sum
        d = fk.hermitian_eig(mehler_op)
        k = 12
        got = fk.resolvent_series(d, 0.9, k)
        want = fk.resolvent_kernel(mehler_op, 0.9)
        tail = np.sqrt(sum((1.0 / (2.0 ** j - 0.9)) ** 2 for j in range(k, 40)))
        assert wfro(mehler_op, got - want) <= 2.0 * tail

    def test_full_rank_matches_direct(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        got = fk.resolvent_series(d, 0.7, d.retained)
        want = fk.resolvent_kernel(two_term_op, 0.7)
        assert wfro(two_term_op, got - want) <= 1e-9 * wfro(two_term_op, want)

    def test_pole_rejected(self, yz_op):
        d = fk.djf_eig(yz_op)
        with pytest.raises(PoleError):
            fk.resolvent_series(d, 3.0, 1)


class TestSecondKindSeries:
    def test_lambda_zero(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        f = np.linspace(0, 1, 8).astype(complex)
        got = fk.second_kind_solve_series(d, 0.0, f, d.retained)
        assert np.array_equal(got, f)

    def test_matches_direct_solve(self, yz_op, gl8):
        d = fk.djf_eig(yz_op)
        f = gl8.nodes.astype(complex)
        got = fk.second_kind_solve_series(d, 1.0, f, 1)
        assert got == pytest.approx(1.5 * gl8.nodes, abs=1e-10)

    def test_agreement_on_finite_rank(self, two_term_op):
        rng = np.random.default_rng(4)
        d = fk.djf_eig(two_term_op)
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        for lam in (0.9, -1.3, 0.4 + 0.2j):
            series = fk.second_kind_solve_series(d, lam, f, d.retained)
            direct = fk.resolvent_solve(two_term_op, lam, f).solution
            assert np.max(np.abs(series - direct)) <= 1e-9 * np.max(np.abs(direct))

    def test_orthogonal_rhs_unchanged(self, yz_op, gl8):
        # f with <q1, f>_W = 0 passes through for any lambda off the spectrum
        d = fk.djf_eig(yz_op)
        w = d.weights
        f = np.ones(8, dtype=complex)
        q1 = d.left[:, 0]
        f -= d.right[:, 0] * np.sum(w * np.conj(q1) * f) / np.sum(
            w * np.conj(q1) * d.right[:, 0]
        )
        got = fk.second_kind_solve_series(d, 1.7, f, 1)
        assert np.max(np.abs(got - f)) <= 1e-12


class TestFredholmDeterminant:
    def test_rank_one_affine(self, yz_op):
        # oracle: D(lambda) = 1 - lambda/3
        for lam in (0.0, 1.0, 2.5, -4.0, 1.0 + 2.0j):
            d = fk.fredholm_determinant(yz_op, lam, "direct")
            assert d.value == pytest.approx(1.0 - lam / 3.0, abs=1e-12)

    def test_lambda_zero_is_one(self, two_term_op):
        for method in ("direct", "product"):
            assert fk.fredholm_determinant(two_term_op, 0.0, method).value == 1.0

    def test_zero_located_by_root_find(self, yz_op):
        f = lambda lam: fk.fredholm_determinant(yz_op, lam, "direct").value.real
        root = brentq(f, 2.5, 3.5, xtol=1e-13)
        assert root == pytest.approx(3.0, abs=1e-10)

    def test_mehler_two_methods(self, mehler_op):
        # lambda = 2 is the Fredholm eigenvalue 1/nu_1 = 1/0.5: the product
        # contains the exact factor (1 - 2*0.5) = 0, so D(2) = 0 and the two
        # methods can only agree absolutely there
        d1 = fk.fredholm_determinant(mehler_op, 2.0, "direct")
        d2 = fk.fredholm_determinant(mehler_op, 2.0, "product")
        assert abs(d1.value - d2.value) <= 1e-6
        assert abs(d1.value) <= 1e-8
        assert abs(d2.value) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_product_agreement(self, yz_op, yz2_op, two_term_op, mehler_op, seed):
        rng = np.random.default_rng(100 + seed)
        for op in (yz_op, yz2_op, two_term_op, mehler_op):
            nu1 = np.max(np.abs(np.linalg.eigvals(op.A)))
            for _ in range(5):
                lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.9 / nu1
                d1 = fk.fredholm_determinant(op, lam, "direct").value
                d2 = fk.fredholm_determinant(op, lam, "product").value
                assert abs(d1 - d2) <= 1e-9 * max(abs(d1), 1.0)

    def test_unknown_method(self, yz_op):
        with pytest.raises(InvalidArgumentError):
            fk.fredholm_determinant(yz_op, 1.0, "mystery")

    def test_non_string_method(self, yz_op):
        with pytest.raises(InvalidArgumentError, match="unknown method 3"):
            fk.fredholm_determinant(yz_op, 1.0, 3)

    def test_method_name_any_case(self, yz_op):
        got = fk.fredholm_determinant(yz_op, 1.0, "Product")
        assert got.method == "product"
        assert got.value == fk.fredholm_determinant(yz_op, 1.0, "product").value


class TestProductDeterminantTail:
    def test_mehler_full_spectrum_gh256(self):
        # oracle: D(lambda) = prod_j (1 - lambda r^j); the bound is the
        # first-order LU estimate N u cond(I - lambda B) plus 4u per factor
        # of the reference product (perfbench's det_bound)
        r, lam = 0.5, 12.0 + 1.0j
        op = fk.discretize(fk.mehler_kernel(r), fk.gauss_hermite_prob(256))
        ref, j = 1.0 + 0.0j, 0
        while abs(lam) * r ** j > 1e-20:
            ref *= 1.0 - lam * r ** j
            j += 1
        cond = (1.0 + abs(lam)) / float(np.min(np.abs(1.0 - lam * r ** np.arange(j + 1))))
        bound = (256 * cond + 4 * j) * np.finfo(float).eps / 2
        for method in ("direct", "product"):
            got = fk.fredholm_determinant(op, lam, method).value
            assert abs(got - ref) / abs(ref) <= bound


@pytest.fixture
def lapack_calls(monkeypatch):
    """The input shapes of the eigvals and eigh calls made while the test
    runs, by name (np.linalg.eigvals, scipy.linalg.eigh: see library)."""
    calls = {"eigvals": [], "eigh": []}
    for name, seen in calls.items():
        real = getattr(library(name), name)

        def counting(a, *args, _real=real, _seen=seen, **kwargs):
            _seen.append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(library(name), name, counting)
    return calls


class TestSpectrumCache:
    def test_one_eigh_per_hermitian_operator_gh256(self, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        assert op.hermitian_to_roundoff()
        f = np.ones(256, dtype=complex)
        for lam in (0.3, -1.0, 1.5 + 0.5j, 3.0 - 1.0j, 7.0):
            fk.resolvent_solve(op, lam, f)
            fk.fredholm_determinant(op, lam, "product")
        with pytest.raises(EigenvalueProximityError) as err:
            fk.resolvent_solve(op, 4.0 * (1.0 + 1e-10), f)
        assert err.value.nearest == pytest.approx(4.0, rel=1e-12)
        fk.determinant_log_derivative_check(op, (0.0, 0.9), 20)
        fk.hermitian_eig(op)
        fk.djf_eig(op)
        fk.operator_svd(op)
        assert lapack_calls == {"eigvals": [], "eigh": [(256, 256)]}
        assert op.spectrum.tobytes() == op.hermitian_eigh[0].astype(complex).tobytes()
        fresh = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        fk.fredholm_determinant(fresh, 1.0, "product")
        assert lapack_calls == {"eigvals": [], "eigh": [(256, 256)] * 2}

    def test_one_eigvals_per_non_hermitian_operator(self, yz2_kernel, gl8, lapack_calls):
        op = fk.discretize(yz2_kernel, gl8)
        assert not op.hermitian_to_roundoff()
        f = np.ones(8, dtype=complex)
        for lam in (1.0, 2.0 + 1.0j):
            fk.resolvent_solve(op, lam, f)
            fk.fredholm_determinant(op, lam, "product")
        fk.determinant_log_derivative_check(op, (0.0, 1.0), 10)
        assert lapack_calls == {"eigvals": [(8, 8)], "eigh": []}

    def test_deflated_operator_has_its_own(self, gh40, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), gh40)
        d = fk.hermitian_eig(op)
        deflated = fk.deflate(op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        assert deflated.hermitian_to_roundoff()
        fk.fredholm_determinant(deflated, 1.0, "product")
        assert lapack_calls == {"eigvals": [], "eigh": [(40, 40)] * 2}
        assert np.min(np.abs(deflated.spectrum - 1.0)) > 0.4  # nu_1 = 1 removed
        assert deflated.spectrum.tobytes() == deflated.hermitian_eigh[0].astype(complex).tobytes()
        assert len(lapack_calls["eigh"]) == 2

    def test_other_paths_never_compute_it(self, gh40, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), gh40)
        fk.hermitian_eig(op)
        fk.djf_eig(op)
        fk.operator_svd(op)
        fk.iterated_kernel(op, 5)
        fk.sequential_spectrum(op, 2, 200, 1e-10)
        assert lapack_calls["eigvals"] == []
        assert "spectrum" not in vars(op)

    def test_cached_spectrum_is_read_only(self, yz_op):
        nus = yz_op.spectrum
        assert nus is yz_op.spectrum
        with pytest.raises(ValueError):
            nus[0] = 0.0

    def test_rectangular_block_has_no_spectrum(self, gl8):
        kern = fk.separable_kernel(
            [1.0], [lambda y: np.stack([y, y], axis=-1)], [lambda z: z], shape=(2, 1)
        )
        op = fk.discretize(kern, gl8)
        with pytest.raises(InvalidArgumentError):
            op.spectrum


class TestLogDerivativeCheck:
    def test_rank_one_path(self, yz_op):
        # oracle: trace N_lambda = (1/3)/(1 - lambda/3) = -d/dlambda log D
        dev = fk.determinant_log_derivative_check(yz_op, (0.0, 1.0), 200)
        assert dev <= 1e-6

    def test_zero_kernel(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        assert fk.determinant_log_derivative_check(op, (0.0, 1.0), 10) <= 1e-14

    def test_mehler_path(self, mehler_op):
        dev = fk.determinant_log_derivative_check(mehler_op, (0.0, 0.9), 400)
        assert dev <= 1e-4

    def test_pole_on_path_rejected(self, yz_op):
        with pytest.raises(PoleError):
            fk.determinant_log_derivative_check(yz_op, (0.0, 3.0), 50)

    def test_one_factorization_per_path_point(self, monkeypatch):
        from fredkit import fredholm

        calls = []
        lu_factor, det = fredholm.lu_factor, np.linalg.det
        monkeypatch.setattr(fredholm, "lu_factor",
                            lambda M, **kw: calls.append("lu") or lu_factor(M, **kw))
        monkeypatch.setattr(np.linalg, "det", lambda M: calls.append("det") or det(M))
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        assert fk.determinant_log_derivative_check(op, (0.0, 0.9), 20) <= 0.05
        assert calls == ["lu"] * 21


class TestFirstKindSolve:
    def test_rank_one_eigenspace(self, yz_op, gl8):
        basis = fk.first_kind_solve(yz_op, 3.0, tol=1e-6)
        assert len(basis) == 1
        v = basis[0] / np.linalg.norm(basis[0])
        ref = gl8.nodes / np.linalg.norm(gl8.nodes)
        assert min(np.max(np.abs(v - ref)), np.max(np.abs(v + ref))) <= 1e-10

    def test_off_spectrum_rejected(self, yz_op):
        with pytest.raises(NoSolutionError):
            fk.first_kind_solve(yz_op, 1.0, tol=1e-6)

    def test_double_eigenvalue_gives_plane(self, gl8):
        e = fk.orthonormal_poly_basis(gl8, 2)
        kern = fk.separable_kernel([0.3, 0.3], [e[0], e[1]], [e[0], e[1]])
        op = fk.discretize(kern, gl8)
        basis = fk.first_kind_solve(op, 1.0 / 0.3, tol=1e-6)
        assert len(basis) == 2


NON_FINITE = [complex("nan"), complex("inf"), complex(0.5, -np.inf), complex(1.0, np.nan)]
# entry point -> a call taking (operator, lambda, rhs)
LAMBDA_ENTRY_POINTS = {
    "resolvent_solve": lambda op, lam, f: fk.resolvent_solve(op, lam, f),
    "resolvent_kernel": lambda op, lam, f: fk.resolvent_kernel(op, lam),
    "det_direct": lambda op, lam, f: fk.fredholm_determinant(op, lam, "direct"),
    "det_product": lambda op, lam, f: fk.fredholm_determinant(op, lam, "product"),
}


class TestNonFiniteLambda:
    @pytest.mark.parametrize("lam", NON_FINITE, ids=str)
    @pytest.mark.parametrize("entry", LAMBDA_ENTRY_POINTS)
    def test_refused_with_its_name(self, mehler_op, entry, lam):
        with pytest.raises(InvalidArgumentError, match="lambda=.* is not finite"):
            LAMBDA_ENTRY_POINTS[entry](mehler_op, lam, np.ones(40))

    @pytest.mark.parametrize("method", ["direct", "product"])
    @pytest.mark.parametrize("lam", [1e300, complex(1e308, 1e308)], ids=str)
    def test_overflowing_determinant_refused(self, lam, method):
        # Mehler on GH8: D(lambda) ~ prod_j (1 - lambda 2^-j), far beyond 1e308
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(8))
        with np.errstate(all="ignore"):
            with pytest.raises(InvalidArgumentError, match=rf"{method} D\(lambda="):
                fk.fredholm_determinant(op, lam, method)

    @pytest.mark.parametrize("entry", ["resolvent_solve", "resolvent_kernel"])
    def test_overflowing_system_refused(self, entry):
        # lambda is finite, but ||I - lambda A||_1 is not: the condition
        # estimate cannot say anything about eigenvalue proximity
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError,
                               match=r"lambda=1e\+308\+1e\+308j has 1-norm inf"):
                LAMBDA_ENTRY_POINTS[entry](op, complex(1e308, 1e308), np.ones(8))


class TestOverflowingSolve:
    """lambda and the right-hand side are finite, but the solution or the
    residual norm is not: refused as invalid, naming lambda, with no numpy
    warning and no raw error from lu_solve."""

    def test_overflowing_rhs_refused(self, gl8):
        op = fk.discretize(fk.mehler_kernel(0.5), gl8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=r"lambda=0\.3"):
                fk.resolvent_solve(op, 0.3, np.full(8, 1e308))

    def test_large_rhs_gives_a_finite_residual(self, gl8):
        """||f|| overflows at 1e200 entries; f and the residual are scaled by
        one power of two, and the relative residual comes out as at f = 1."""
        op = fk.discretize(fk.mehler_kernel(0.5), gl8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = fk.resolvent_solve(op, 0.3, np.full(8, 1e200))
        ref = fk.resolvent_solve(op, 0.3, np.ones(8))
        assert np.isfinite(sol.residual)
        assert sol.residual <= 8 * ref.residual + 8 * np.finfo(float).eps
        assert np.max(np.abs(sol.solution / 1e200 - ref.solution)) <= 1e-15

    def test_ordinary_residual_is_the_plain_one(self, gl8):
        op = fk.discretize(fk.mehler_kernel(0.5), gl8)
        rng = np.random.default_rng(5)
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        sol = fk.resolvent_solve(op, 0.3, f)
        r = sol.solution - 0.3 * fk.apply(op, sol.solution) - f
        assert sol.residual == float(np.linalg.norm(r)) / float(np.linalg.norm(f))

    def test_overflowing_resolvent_kernel_refused(self, gl8):
        # K = 1e305 everywhere: nu = 1e305 (the weights sum to 1), so at
        # lambda = (1 - 1e-5) / nu the resolvent is K / (1 - lambda nu) = 1e310
        op = fk.DiscreteOperator(rule=gl8, shape=(1, 1), K=np.full((8, 8), 1e305))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(fk.resolvent_kernel(op, 0.999e-305)).all()
            with pytest.raises(InvalidArgumentError, match=r"lambda=9\.9999e-306.* overflows"):
                fk.resolvent_kernel(op, 0.99999e-305)
