import inspect
import itertools
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import fredkit as fk
from fredkit import fredholm
from fredkit.errors import (
    EigenvalueProximityError,
    InvalidArgumentError,
    NoSolutionError,
    PoleError,
)

from conftest import wfro
from test_conventions import skew_kernel, twin_kernel
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
    """The input shapes of the eigvals, eig, eigh, schur, getrf and det calls
    made while the test runs, by name (np.linalg.eigvals and eig,
    scipy.linalg.eigh and schur: see library; fredholm._getrf, the seam of
    every LU fredholm makes; np.linalg.det)."""
    calls = {"eigvals": [], "eig": [], "eigh": [], "schur": [], "getrf": [], "det": []}
    for name, seen in calls.items():
        owner, attr = (fredholm, "_getrf") if name == "getrf" else (library(name), name)
        real = getattr(owner, attr)

        def counting(a, *args, _real=real, _seen=seen, **kwargs):
            _seen.append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    return calls


def no_lapack(**calls):
    """lapack_calls' record with the given entries, every other one empty."""
    return {"eigvals": [], "eig": [], "eigh": [], "schur": [], "getrf": [], "det": [], **calls}


class TestSpectrumCache:
    def test_one_eigh_per_hermitian_operator_gh256(self, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        assert op.hermitian_to_roundoff()
        f = np.ones(256, dtype=complex)
        for lam in (0.3, -1.0, 1.5 + 0.5j, 3.0 - 1.0j, 7.0):
            fk.resolvent_solve(op, lam, f)
            fk.resolvent_kernel(op, lam)
            for method in ("direct", "product"):
                fk.fredholm_determinant(op, lam, method)
        with pytest.raises(EigenvalueProximityError) as err:
            fk.resolvent_solve(op, 4.0 * (1.0 + 1e-10), f)
        assert err.value.nearest == pytest.approx(4.0, rel=1e-12)
        fk.determinant_log_derivative_check(op, (0.0, 0.9), 20)
        fk.hermitian_eig(op)
        fk.djf_eig(op)
        fk.operator_svd(op)
        # one LU per lambda and per path point, of the 152 kept nodes'
        # block (node_partition); the pole refusal needs none
        assert lapack_calls == no_lapack(eigh=[(128, 128)] * 2, getrf=[(152, 152)] * (5 + 21))
        assert op.spectrum is op.family.eigenvalues is op.hermitian_family.eigenvalues
        fresh = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        fk.fredholm_determinant(fresh, 1.0, "product")
        assert lapack_calls == no_lapack(eigh=[(128, 128)] * 4, getrf=[(152, 152)] * 26)

    def test_one_lu_per_lambda_gh256(self, lapack_calls):
        """Solve, resolvent kernel and direct determinant at one lambda share
        one LU, in any order, and no det runs."""
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        f = np.ones(256, dtype=complex)
        calls = [lambda lam: fk.resolvent_solve(op, lam, f),
                 lambda lam: fk.resolvent_kernel(op, lam),
                 lambda lam: fk.fredholm_determinant(op, lam, "direct")]
        orders = itertools.permutations(calls)
        for lam in (0.3, -1.0, 1.5 + 0.5j, 3.0 - 1.0j, 7.0):
            for call in next(orders):
                call(lam)
        assert lapack_calls == no_lapack(eigh=[(128, 128)] * 2, getrf=[(152, 152)] * 5)

    @pytest.mark.parametrize("make, lambdas, path", [
        (lambda k: fk.discretize(k, fk.gauss_legendre(8, 0.0, 1.0)), (1.0, 2.0 + 1.0j), (0.0, 1.0)),
        (lambda k: fk.discretize(skew_kernel(0.2), fk.gauss_legendre(256, -4.0, 4.0)),
         (1e-3, 2.0 + 1.0j), (0.0, 5e-3)),
    ], ids=["yz2-gl8", "skew-gl256"])
    def test_one_schur_per_non_hermitian_operator(self, yz2_kernel, lapack_calls, make, lambdas,
                                                  path):
        """Off the Hermitian route one Schur form of B, and the r x r eig of
        its retained block, serve the spectrum, the pole guards, the product
        determinant, the log-derivative path, djf_eig and first_kind_solve:
        no eigvals and no n x n eig runs.  (The skew kernel's Fredholm
        eigenvalues are real and above 0.011.)"""
        op = make(yz2_kernel)
        n = op.K.shape[0]
        assert not op.hermitian_to_roundoff()
        f = np.ones(n, dtype=complex)
        for lam in lambdas:
            fk.resolvent_solve(op, lam, f)
            fk.fredholm_determinant(op, lam, "product")
        fk.determinant_log_derivative_check(op, path, 10)
        d = fk.djf_eig(op)
        nus = op.spectrum
        fk.first_kind_solve(op, 1.0 / nus[np.argmax(np.abs(nus))], 1e-8)
        r = d.retained
        assert lapack_calls == no_lapack(schur=[(n, n)], eig=[(r, r)], getrf=[(n, n)] * (2 + 11))
        assert nus is op.general_family.eigenvalues is op.family.eigenvalues
        assert d.eigenvalues is nus

    def test_deflated_operator_has_its_own(self, gh40, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), gh40)
        d = fk.hermitian_eig(op)
        deflated = fk.deflate(op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        assert deflated.hermitian_to_roundoff()
        fk.fredholm_determinant(deflated, 1.0, "product")
        # op takes the reflection route's two half-size eighs; the deflated
        # K, less a rank-one term of polished samples, is not mirror-exact
        assert not deflated.reflection_symmetric
        assert lapack_calls == no_lapack(eigh=[(20, 20)] * 2 + [(40, 40)])
        assert np.min(np.abs(deflated.spectrum - 1.0)) > 0.4  # nu_1 = 1 removed
        assert deflated.spectrum is deflated.hermitian_family.eigenvalues
        assert len(lapack_calls["eigh"]) == 3

    def test_other_paths_never_compute_it(self, gh40, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), gh40)
        fk.hermitian_eig(op)
        fk.djf_eig(op)
        fk.operator_svd(op)
        fk.iterated_kernel(op, 5)
        fk.sequential_spectrum(op, 2, 200, 1e-10)
        assert lapack_calls["eigvals"] == []
        assert "general_family" not in vars(op)  # op.spectrum is the Hermitian family's

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


def constant_on_two_atoms():
    """Constant kernel 1 on the discrete rule {0, 1} with weights 1/4, 1/4:
    A = [[1/4, 1/4], [1/4, 1/4]], so I - 2A = [[1/2, -1/2], [-1/2, 1/2]] is
    exactly singular and D(2) = 0."""
    one = fk.separable_kernel([1.0], [np.ones_like], [np.ones_like])
    return fk.discretize(one, fk.discrete_measure([0.0, 1.0], [0.25, 0.25]))


def defective_gl8():
    """A 2 x 2 Jordan block at nu = 1/2: the condition of I - lambda A grows
    as the gap squared, so lambda = 2 (1 + 1e-5) passes the pole rule and
    the gecon bound refuses it."""
    gl8 = fk.gauss_legendre(8, 0.0, 1.0)
    return fk.discretize(fk.defective_kernel(0.5, 2, fk.orthonormal_poly_basis(gl8, 2), gl8), gl8)


# case -> (a fresh operator, lambda, the refusal each call expects or None)
SHARED_LU_CASES = {
    "real-complex-lambda": (
        lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(40)), 1.5 + 0.5j, {}),
    "real-real-lambda": (
        lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(40)), 0.9, {}),
    "complex-real-lambda": (
        lambda: fk.discretize(twin_kernel(1.0), fk.gauss_hermite_prob(40)), -1.5, {}),
    "gecon-refusal": (defective_gl8, 2.0 * (1.0 + 1e-5), {
        "solve": "system condition .* exceeds 1e10", "kernel": "system condition .* exceeds 1e10"}),
    "overflowing-norm": (
        lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(8)), 1e308 + 1e308j, {
            "solve": "has 1-norm inf", "kernel": "has 1-norm inf",
            "det": r"direct D\(lambda=.* is not finite"}),
    "singular": (constant_on_two_atoms, 2.0, {
        "solve": "within 1e-08 relative", "kernel": "within 1e-08 relative"}),
}
SHARED_LU_CALLS = {
    "solve": lambda op, lam: fk.resolvent_solve(op, lam, np.ones(op.A.shape[0])),
    "kernel": lambda op, lam: fk.resolvent_kernel(op, lam),
    "det": lambda op, lam: fk.fredholm_determinant(op, lam, "direct"),
}


def outcome(call, op, lam):
    """("refused", its message) when call(op, lam) raises a FredkitError,
    else ("ok", the result's bits)."""
    try:
        out = call(op, lam)
    except fk.FredkitError as exc:
        return "refused", f"{type(exc).__name__}: {exc}"
    if isinstance(out, np.ndarray):
        return "ok", (out.dtype.str, out.tobytes())
    if isinstance(out, fk.ResolventSolve):
        return "ok", (out.solution.tobytes(), out.residual, out.nearest_eigen_gap)
    return "ok", repr(out)


class TestSharedLU:
    """One LU of I - lambda*A per operator and lambda serves the solve, the
    resolvent kernel and the direct determinant: each result, and each
    refusal, is the one a fresh operator gives, whatever the call order."""

    @pytest.mark.parametrize("case", SHARED_LU_CASES)
    def test_call_order_does_not_matter(self, case):
        make, lam, refusals = SHARED_LU_CASES[case]
        alone = {}
        for name, call in SHARED_LU_CALLS.items():
            kind, got = alone[name] = outcome(call, make(), lam)
            assert kind == ("refused" if name in refusals else "ok"), got
            assert name not in refusals or re.search(refusals[name], got), got
        for order in itertools.permutations(SHARED_LU_CALLS):
            op = make()
            assert {name: outcome(SHARED_LU_CALLS[name], op, lam) for name in order} == alone

    def test_exactly_singular_system_has_zero_determinant(self):
        op = constant_on_two_atoms()
        assert fk.fredholm_determinant(op, 2.0, "direct").value == 0
        with pytest.raises(EigenvalueProximityError):
            fk.resolvent_solve(op, 2.0, np.ones(2))
        assert fk.fredholm_determinant(op, 2.0, "direct").value == 0

    def test_real_lambda_on_a_real_operator_is_one_real_lu(self, mehler_op, lapack_calls):
        f = np.linspace(-1.0, 1.0, 40) * (1.0 + 0.5j)
        sol = fk.resolvent_solve(mehler_op, 0.9, f)
        NL = fk.resolvent_kernel(mehler_op, 0.9)
        fk.fredholm_determinant(mehler_op, 0.9, "direct")
        assert sol.solution.dtype == np.complex128 and NL.dtype == np.float64
        assert lapack_calls["getrf"] == [(40, 40)]
        M, lu, _piv = fredholm._lu(mehler_op, 0.9 + 0j)
        assert M is None  # the cached factors
        assert lu.dtype == np.float64 and not lu.flags.writeable
        # the float-view solve is the complex one within its refinement
        M = np.eye(40) - 0.9 * mehler_op.A
        assert np.max(np.abs(M @ sol.solution - f)) <= 1e-14 * np.max(np.abs(f))


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

    def test_one_factorization_per_path_point(self, lapack_calls):
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        assert fk.determinant_log_derivative_check(op, (0.0, 0.9), 20) <= 0.05
        assert lapack_calls == no_lapack(eigh=[(128, 128)] * 2, getrf=[(152, 152)] * 21)


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
    warning and no raw error from lu_solve.  A right-hand side near either
    end of the float range gets the relative residual of its unit scale."""

    def test_overflowing_rhs_refused(self, gl8):
        """f is solved at the power of two that brings max |f| into [1/2, 1):
        at f = 1e308 the solution, 1.62e308 at most, is 1e308 times the f = 1
        solve; at f = 1.7e308 it lies past the float range and is refused."""
        op = fk.discretize(fk.mehler_kernel(0.5), gl8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = fk.resolvent_solve(op, 0.3, np.full(8, 1e308))
            ref = fk.resolvent_solve(op, 0.3, np.ones(8))
            with pytest.raises(InvalidArgumentError, match=r"lambda=0\.3"):
                fk.resolvent_solve(op, 0.3, np.full(8, 1.7e308))
        assert 1.6e308 < np.max(sol.solution) < 1.63e308
        assert np.max(np.abs(sol.solution / 1e308 - ref.solution)) <= 2.3e-16
        assert sol.residual <= 3e-16

    @pytest.mark.parametrize("k", [1070, 1074])
    @pytest.mark.parametrize("n", [16, 256])
    def test_subnormal_rhs_solves_as_its_scaled_copy(self, n, k):
        """f = 2^-k cos(x) is subnormal: its solve, and its residual, are
        those of 2^k f, the solution scaled back by 2^-k, bit for bit."""
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(n))
        f = np.ldexp(np.cos(op.rule.nodes), -k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = fk.resolvent_solve(op, 0.5, f)
            ref = fk.resolvent_solve(op, 0.5, np.ldexp(f, k))
        assert np.array_equal(tiny.solution, np.ldexp(ref.solution, -k))
        assert tiny.residual == ref.residual <= 3e-13

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

    def test_tiny_rhs_gives_the_residual_of_its_unit_scale(self):
        """||r||^2 underflows below about 1e-150: the residual read 0.0 there.
        Through nystrom._norm it stays within 4x of the unscaled one, on
        Mehler GH64 with f = cos(x) scaled by 1e-150 and 1e-200, and the
        unscaled one keeps the bits of the plain norms."""
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(64))
        f = np.cos(op.rule.nodes)
        ref = fk.resolvent_solve(op, 0.5, f)
        r = ref.solution - 0.5 * fk.apply(op, ref.solution) - f
        assert ref.residual == float(np.linalg.norm(r)) / float(np.linalg.norm(f)) > 0.0
        for scale in (1e-150, 1e-200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                residual = fk.resolvent_solve(op, 0.5, f * scale).residual
            assert ref.residual / 4 <= residual <= 4 * ref.residual, scale

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


def power_run(op, f):
    """The last iterate and every ratio of a power run started and probed by f."""
    trace = fk.power_ratio_estimate(op, f, 30, 1e-10, probe=f)
    return np.append(trace.iterates[-1], trace.ratios)


# every public callable that takes node samples (a name in SAMPLE_ARGUMENTS),
# as (degree, call on an operator and samples f): a map that runs at the
# power-of-two scale of f's largest entry and scales its result back
# (nystrom._scale_free; degree 1, fn(2^-k f) = 2^-k fn(f)), or a power
# iteration that divides that scale out of its start (powerit._unit_scaled;
# degree 0, fn(2^-k f) = fn(f)); or else an exemption, with its reason
SAMPLE_ARGUMENTS = {"f", "g", "p", "p1", "q1", "probe", "eig_samples", "x"}
SCALE_FREE_MAPS = {
    "second_kind_solve_series": (1, lambda op, f: fk.second_kind_solve_series(
        fk.djf_eig(op), 0.5, f, fk.djf_eig(op).retained)),
    "gram_apply-left": (1, lambda op, f: fk.gram_apply(fk.operator_svd(op), 1, f)),
    "gram_apply-right": (1, lambda op, f: fk.gram_apply(fk.operator_svd(op), 0, f, side="right")),
    "resolvent_solve": (1, lambda op, f: fk.resolvent_solve(op, 0.5, f).solution),
    "apply": (1, fk.apply),
    "apply_adjoint": (1, fk.apply_adjoint),
    "nystrom_extend": (1, lambda op, f: np.array([fk.nystrom_extend(
        fk.mehler_kernel(0.5), op.rule, f, 0.5, 0.3)])),
    "power_ratio_estimate": (0, power_run),
    "extract_leading_pair": (0, lambda op, f: np.concatenate(
        fk.extract_leading_pair(op, 1.0, f, f, 30))),
}
SCALE_EXEMPT = {
    "deflate": "p1 and q1 are a bi-orthonormal pair, <q1, p1>_W = 1, not free samples",
    "hermite_he": "x holds points, not samples: He_j(2^-k x) is no scaled copy of He_j(x)",
}


def test_every_public_map_of_samples_is_listed():
    """A public function taking samples is in SCALE_FREE_MAPS or exempt,
    so a new entry point cannot skip the scale tests below."""
    takers = {name for name in fk.__all__ if inspect.isfunction(getattr(fk, name))
              and SAMPLE_ARGUMENTS & set(inspect.signature(getattr(fk, name)).parameters)}
    listed = {name.split("-")[0] for name in SCALE_FREE_MAPS}
    assert not listed & set(SCALE_EXEMPT)
    assert takers == listed | set(SCALE_EXEMPT)


def scaled(x, k):
    """2^k x, real and imaginary parts alike, past the float range as inf."""
    with np.errstate(over="ignore"):
        return np.ldexp(x.view(float), k).view(x.dtype)


@pytest.mark.parametrize("k", [1040, 1070])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", SCALE_FREE_MAPS)
def test_maps_of_samples_are_scale_free(name, n, k):
    """f = 2^-k cos(x) is subnormal: each map of it is the map of 2^k f
    scaled back by 2^-k per degree, bit for bit."""
    op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(n))
    f = np.ldexp(np.cos(op.rule.nodes), -k)
    degree, fn = SCALE_FREE_MAPS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny, ref = fn(op, f), fn(op, np.ldexp(f, k))
    assert np.array_equal(tiny, scaled(ref, -k * degree))


@pytest.mark.parametrize("k", [1000, 1023])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", SCALE_FREE_MAPS)
def test_huge_samples_map_as_their_scaled_copy_or_are_refused(name, n, k):
    """f = 2^k cos(x) is finite: each map of it is the map of cos(x) scaled
    by 2^k per degree, bit for bit, or raises InvalidArgumentError, with no
    numpy warning, exactly when that copy is not finite."""
    op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(n))
    f = np.cos(op.rule.nodes)
    degree, fn = SCALE_FREE_MAPS[name]
    expected = scaled(fn(op, f), k * degree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite(expected).all():
            assert np.array_equal(fn(op, np.ldexp(f, k)), expected)
        else:
            with pytest.raises(InvalidArgumentError, match="overflows"):
                fn(op, np.ldexp(f, k))
