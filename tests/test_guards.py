"""One implementation of each spectral guard, reached by every caller.

* the pole rule (fredholm._guard_pole): lambda is refused when its gap to the
  nearest Fredholm eigenvalue is at most rtol times that eigenvalue, with
  rtol 1e-8 for solves, 1e-12 for eigen-series and 1e-3 for paths;
* the retained cut (nystrom._retained): |nu| > 1e-12 max |nu|;
* the eigenvalue order (nystrom._sort_order), Jordan blocks included;
* power iteration's start and collapse test, which scale with the kernel;

and the refusals of results that overflow (nystrom._finite, the one rule):
deflation updates and powers, ||B||_F of finite samples, and each map that
once leaked numpy's raw overflow warning instead.
"""
import warnings

import numpy as np
import pytest

import fredkit as fk
from fredkit import fredholm, nystrom, powerit
from fredkit.errors import (
    EigenvalueProximityError,
    InvalidArgumentError,
    PoleError,
)

from conftest import wfro
from test_conventions import basis_operator

UNIT = np.finfo(float).eps / 2  # unit roundoff u


def one(x):
    return np.ones_like(x)


def wnorm(rule, v):
    return np.sqrt(np.sum(rule.weights * np.abs(v) ** 2))


class TestPoleRule:
    def test_series_near_a_pole_of_a_large_truncation(self, mehler_op, gh40):
        # lambda = 0.9 is 10 % from lambda_0 = 1; the series over all 40
        # retained pairs matches the direct resolvent kernel in the weighted
        # norm, and the direct solve at every node, as closely as the
        # full-truncation test on the two-term kernel asks: the Nystrom form
        # of the solve reads no sample at the outer nodes (weight 1.5e-29)
        d = fk.hermitian_eig(mehler_op)
        assert d.retained == 40
        want = fk.resolvent_kernel(mehler_op, 0.9)
        got = fk.resolvent_series(d, 0.9, d.retained)
        assert wfro(mehler_op, got - want) <= 1e-9 * wfro(mehler_op, want)
        f = np.cos(gh40.nodes).astype(complex)
        sol = fk.second_kind_solve_series(d, 0.9, f, d.retained)
        ref = fk.resolvent_solve(mehler_op, 0.9, f).solution
        assert np.max(np.abs(sol - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_series_relative_to_the_nearest_eigenvalue(self, gl8):
        # nu = 1e6 and 1e-5: lambda = 1.05e-6 is 5 % from lambda_1 = 1e-6,
        # and the largest Fredholm eigenvalue 1e5 must not widen that margin
        basis = fk.orthonormal_poly_basis(gl8, 2)
        op = fk.discretize(fk.basis_kernel(np.diag([1e6, 1e-5]), basis, gl8), gl8)
        d = fk.djf_eig(op)
        assert d.retained == 2
        want = fk.resolvent_kernel(op, 1.05e-6)
        got = fk.resolvent_series(d, 1.05e-6, d.retained)
        assert wfro(op, got - want) <= 1e-9 * wfro(op, want)

    @pytest.mark.parametrize("call", ["resolvent_series", "second_kind_solve_series"])
    def test_series_refusal_names_the_pole(self, yz_op, call):
        d = fk.djf_eig(yz_op)
        args = (np.ones(8),) if call == "second_kind_solve_series" else ()
        with pytest.raises(PoleError, match=r"Fredholm eigenvalue 3\+0j") as err:
            getattr(fk, call)(d, 3.0, *args, 1)
        assert err.value.nearest == pytest.approx(3.0, rel=1e-12)
        assert err.value.gap <= fredholm.SERIES_RTOL * 3.0

    def test_path_refusal_names_the_pole(self, yz_op):
        # the grid of (0, 3) in 50 steps lands on lambda_1 = 3
        with pytest.raises(PoleError, match=r"path point lambda=3 .*eigenvalue 3\+0j") as err:
            fk.determinant_log_derivative_check(yz_op, (0.0, 3.0), 50)
        assert err.value.nearest == pytest.approx(3.0, rel=1e-12)
        assert err.value.gap <= fredholm.PATH_RTOL * 3.0

    def test_path_refuses_by_the_nearest_eigenvalue(self, yz_op):
        # 1e-3 relative of lambda_1 = 3 on either side of the rule
        inside = 3.0 * (1 - 0.9 * fredholm.PATH_RTOL)
        outside = 3.0 * (1 - 1.1 * fredholm.PATH_RTOL)
        with pytest.raises(PoleError):
            fk.determinant_log_derivative_check(yz_op, (0.0, inside), 1)
        assert fk.determinant_log_derivative_check(yz_op, (0.0, outside), 1) >= 0.0

    def test_solve_refusal_carries_nearest_and_gap(self, yz_op):
        lam = 3.0 * (1 + 0.5 * fredholm.GAP_RTOL)
        with pytest.raises(EigenvalueProximityError, match="Fredholm eigenvalue 3") as err:
            fk.resolvent_solve(yz_op, lam, np.ones(8))
        assert err.value.nearest == pytest.approx(3.0, rel=1e-12)
        assert err.value.gap == pytest.approx(1.5 * fredholm.GAP_RTOL, rel=1e-6)


class TestRetainedCut:
    def test_one_cut_for_decompositions_svd_and_poles(self, gl8):
        # nu = 1, 1e-11, 1e-13: the cut 1e-12 max |nu| keeps two
        basis = fk.orthonormal_poly_basis(gl8, 3)
        op = fk.discretize(fk.basis_kernel(np.diag([1.0, 1e-11, 1e-13]), basis, gl8), gl8)
        assert fk.hermitian_eig(op).retained == 2
        assert fk.operator_svd(op).rank_numerical == 2
        assert fredholm._fredholm_lambdas(op).size == 2

    def test_zero_spectrum_keeps_nothing(self):
        assert not nystrom._retained(np.zeros(4)).any()
        assert nystrom._retained_count(np.zeros(0)) == 0

    @pytest.mark.parametrize("coupling", [0.0, 0.5], ids=["hermitian", "general"])
    def test_retained_pairs_lead_across_a_straddling_tie(self, coupling):
        """nu = 1, 1.01e-12, -0.995e-12 on GL256: the two small moduli tie
        within the roundoff floor N eps |nu_1|, where the sort puts the
        negative one first, but only 1.01e-12 is above the cut.  Both
        families move the retained pairs to the front, so eigenvalues[:retained]
        are the pairs the cut keeps, on the Hermitian route (hermitian_eig and
        djf_eig) and off it (coupling 1 to 1.01e-12 makes B non-Hermitian),
        and the profile, the first-kind solve and the pole guards read them."""
        C = np.diag([1.0, 1.01e-12, -0.995e-12])
        C[0, 1] = coupling
        op = basis_operator(C, 0.0, 256)
        assert op.hermitian_to_roundoff() == (coupling == 0.0)
        decompose = [fk.djf_eig] + ([fk.hermitian_eig] if coupling == 0.0 else [])
        for d in (f(op) for f in decompose):
            nu = d.eigenvalues
            assert d.retained == 2
            assert np.array_equal(nystrom._retained(nu), np.arange(nu.size) < 2)
            assert nu[:2].real == pytest.approx([1.0, 1.01e-12], rel=1e-4)
            assert fk.asymptotic_profile(d).r0 == abs(nu[1])
            lam = 1.0 / nu[1]
            got = fk.first_kind_solve(op, lam, 1e-6 * abs(lam))
            assert len(got) == 1 and np.array_equal(got[0], d.right[:, 1])
            with pytest.raises(fk.NoSolutionError):
                fk.first_kind_solve(op, 1.0 / -0.995e-12, 1e-3 / 0.995e-12)
        assert op.spectrum is op.family.eigenvalues is d.eigenvalues
        assert np.array_equal(fredholm._fredholm_lambdas(op), 1.0 / nu[:2])


def pm_similar(seed):
    """Q diag(0.5, -0.5, 0.25, -0.25) Q^{-1}, Q standard normal: the moduli
    tie in pairs, and the computed ones differ by rounding."""
    Q = np.random.default_rng(seed).standard_normal((4, 4))
    return Q @ np.diag([0.5, -0.5, 0.25, -0.25]) @ np.linalg.inv(Q)


class TestJordanOrder:
    def test_blocks_follow_the_eigenvalue_order(self):
        for seed in range(200):
            lams = np.array([lam for lam, _m in fk.jordan_decompose(pm_similar(seed)).blocks])
            assert np.array_equal(nystrom._sort_order(lams), np.arange(4)), seed
            # within the default linkage radius 1e-7 rho of the true values
            assert lams.real == pytest.approx([-0.5, 0.5, -0.25, 0.25], abs=1e-7 * 0.5)


def scaled_kernel(c):
    """c y z + (c/2): rank two, nu_1 = 0.78 c on [0, 1]."""
    return fk.separable_kernel([c, c / 2], [lambda y: y, one], [lambda z: z, one])


class TestPowerIterationScale:
    """The start is unit in the W-norm and the collapse test compares the
    image A h with COLLAPSE_RTOL ||A||_F, so both scale with the kernel;
    norms that would overflow are taken after a power-of-two scaling."""

    def run(self, op, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fk.sequential_spectrum(op, k, 400, 1e-10)
            f = np.ones(op.A.shape[0])
            p, q = fk.extract_leading_pair(op, result.eigenvalues[0], f, f, 400)
        assert result.failure_reason is None
        return np.array(result.eigenvalues), p, q

    def test_same_spectrum_at_every_scale(self, gl8):
        # the same computation up to one rounding per sample and operation:
        # n u relative, for the eigenvalues and the unit right vector
        ref, p_ref, _q = self.run(fk.discretize(scaled_kernel(1.0), gl8), 2)
        for c in (1e15, 1e100, 1e300):
            nus, p, q = self.run(fk.discretize(scaled_kernel(c), gl8), 2)
            assert np.all(np.abs(nus / c - ref) <= gl8.count * UNIT * np.abs(ref)), c
            assert np.sum(gl8.weights * np.conj(q) * p) == pytest.approx(1.0, abs=1e-12)
            assert wnorm(gl8, p - p_ref) <= gl8.count * UNIT, c  # p has unit W-norm

    def test_kernel_whose_squares_overflow(self, gl8):
        # nu_1 = 1e305 / 3: the entries of A and of each iterate square to inf
        op = fk.discretize(fk.separable_kernel([1e305], [lambda y: y], [lambda z: z]), gl8)
        nus, _p, _q = self.run(op, 1)
        assert abs(nus[0] / 1e305 * 3 - 1) <= gl8.count * UNIT

    def test_subnormal_start_runs_as_its_scaled_copy(self):
        """A start 2^-1074 v runs as v does on Mehler GH16: the power of two
        that scales it is capped at 2^1023, so its largest entry lands at
        2^-51 or above, where its squares are normal, and the unit start, the
        estimate, every iterate and the leading pair keep v's bits."""
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(16))
        v = np.arange(16) % 5 - 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref, tiny = [fk.power_ratio_estimate(op, c * v, 60, 1e-12) for c in (1.0, 2.0 ** -1074)]
            pairs = [fk.extract_leading_pair(op, ref.estimate, c * v, c * v, 60)
                     for c in (1.0, 2.0 ** -1074)]
        assert ref.converged and tiny.estimate == ref.estimate
        assert len(tiny.iterates) == len(ref.iterates)
        for a, b in [*zip(ref.iterates, tiny.iterates), *zip(*pairs)]:
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_subnormal_weighted_norm(self, gl8):
        # the weights sum to 1, so ||u||_W is the entries' common value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nystrom._wnorm(gl8.weights, np.full(8, 1e-320)) == 1e-320

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["power_ratio_estimate", "extract_leading_pair",
                                       "sequential_spectrum"])
    def test_sample_that_is_not_finite_is_refused(self, gl8, entry, value):
        """The collapse test's floor, COLLAPSE_RTOL ||A||_F, is not finite
        for such a K: each power-iteration entry point refuses it, where a
        NaN floor gave NaN results and an infinite one a false collapse."""
        K = fk.discretize(fk.mehler_kernel(0.5), gl8).K.copy()
        K[2, 5] = value
        op = fk.DiscreteOperator(rule=gl8, shape=(1, 1), K=K)
        f = np.ones(K.shape[0])
        call = {"power_ratio_estimate": lambda: fk.power_ratio_estimate(op, f, 60, 1e-12),
                "extract_leading_pair": lambda: fk.extract_leading_pair(op, 1.0, f, f, 60),
                "sequential_spectrum": lambda: fk.sequential_spectrum(op, 2, 60, 1e-12)}[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="K has an entry that is not finite"):
                call()

    def test_null_space_start_still_collapses(self, gl8):
        # orthogonal to z in the weighted inner product: A f = 0
        f = gl8.nodes - np.sum(gl8.weights * gl8.nodes ** 2) / np.sum(gl8.weights * gl8.nodes)
        for c in (1.0, 1e300):
            op = fk.discretize(fk.separable_kernel([c], [lambda y: y], [lambda z: z]), gl8)
            with pytest.raises(fk.StartingVectorError, match="collapsed"):
                fk.power_ratio_estimate(op, f, 10, 1e-10)


class TestSequentialSpectrumWarnings:
    def test_other_warnings_reach_the_caller(self, two_term_op, monkeypatch):
        real = powerit.power_ratio_estimate

        def warning_stage(*args, **kwargs):
            warnings.warn("a warning from inside a stage", RuntimeWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(powerit, "power_ratio_estimate", warning_stage)
        with pytest.warns(RuntimeWarning, match="from inside a stage"):
            result = fk.sequential_spectrum(two_term_op, 2, 400, 1e-10)
        assert result.failure_reason is None

    def test_unsettled_ratios_are_reported_not_warned(self, pm_half_op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fk.sequential_spectrum(pm_half_op, 2, 60, 1e-12)
        assert "did not converge" in result.failure_reason


class TestOverflowRefused:
    def test_deflation_update(self, yz_op):
        d = fk.djf_eig(yz_op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=r"nu1=1e\+308.* overflows"):
                fk.deflate(yz_op, 1e308, d.right[:, 0], d.left[:, 0])

    @staticmethod
    def calls(gl8):
        # nu = 2 (6 y z on [0, 1]) and the Jordan block [[2, 1], [0, 2]]:
        # their 2000th powers overflow
        op = fk.discretize(fk.separable_kernel([6.0], [lambda y: y], [lambda z: z]), gl8)
        d, sv = fk.djf_eig(op), fk.operator_svd(op)
        jf = fk.jordan_decompose(np.array([[2.0, 1.0], [0.0, 2.0]]))
        return {
            "power_approx": lambda n: fk.power_approx(d, fk.asymptotic_profile(d), n),
            "defective_asymptotic": lambda n: fk.defective_asymptotic(jf, n),
            "jordan_block_power": lambda n: fk.jordan_block_power(2.0, 2, n),
            "matrix_power_via_jordan": lambda n: fk.matrix_power_via_jordan(jf, n),
            "trace_power": lambda n: fk.trace_power(sv, n),
            "iterated_gram": lambda n: fk.iterated_gram(sv, n),
            "iterated_gram_with_kernel": lambda n: fk.iterated_gram_with_kernel(sv, n),
            "gram_apply": lambda n: fk.gram_apply(sv, n, np.ones(8)),
        }

    @pytest.mark.parametrize("name", [
        "power_approx", "defective_asymptotic", "jordan_block_power", "matrix_power_via_jordan",
        "trace_power", "iterated_gram", "iterated_gram_with_kernel", "gram_apply",
    ])
    def test_power(self, gl8, name):
        call = self.calls(gl8)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite = call(100)
            with pytest.raises(InvalidArgumentError, match="n=2000 overflows"):
                call(2000)
        for x in finite if isinstance(finite, tuple) else (finite,):
            assert np.isfinite(x).all()

    @staticmethod
    def leaks():
        """Calls whose result lies past the float range, each of which raised
        numpy's raw RuntimeWarning before its refusal went through
        nystrom._finite: a series solution (1.7e308 / (1 - 1.9 nu_1)), a
        Nystrom extension divided by nu = 1e-10, the images of f = 1e308
        under N(y, z) = 4 on [0, 1] (4e308), a product determinant
        (prod_j (1 - 1e300 2^-j)) and a Jordan cluster centre whose sum
        (2e308) overflows."""
        gh16 = fk.gauss_hermite_prob(16)
        mehler = fk.discretize(fk.mehler_kernel(0.5), gh16)
        d = fk.djf_eig(mehler)
        four = fk.discretize(fk.separable_kernel([4.0], [one], [one]),
                             fk.gauss_legendre(8, 0.0, 1.0))
        return {
            "second_kind_solve_series": lambda: fk.second_kind_solve_series(
                d, 1.9, np.full(16, 1.7e308), d.retained),
            "nystrom_extend": lambda: fk.nystrom_extend(
                fk.mehler_kernel(0.5), gh16, 1e300 * np.cos(gh16.nodes), 1e-10, 0.3),
            "apply": lambda: fk.apply(four, np.full(8, 1e308)),
            "apply_adjoint": lambda: fk.apply_adjoint(four, np.full(8, 1e308)),
            "product_determinant": lambda: fk.fredholm_determinant(mehler, 1e300, "product"),
            "jordan_decompose": lambda: fk.jordan_decompose([[1e308, 1e308], [0.0, 1e308]]),
        }

    @pytest.mark.parametrize("name", ["second_kind_solve_series", "nystrom_extend", "apply",
                                      "apply_adjoint", "product_determinant",
                                      "jordan_decompose"])
    def test_leak_refused(self, name):
        call = self.leaks()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="overflows|not finite"):
                call()


# every reader of ||B||_F or ||A||_F, by name: the Hermitian defect, each
# reader of the family or the lambda-path (which read the defect first), the
# operator SVD and power iteration
NORM_READERS = {
    "hermitian_defect": lambda op: op.hermitian_defect(),
    "hermitian_eig": fk.hermitian_eig,
    "djf_eig": fk.djf_eig,
    "family": lambda op: op.family,
    "spectrum": lambda op: op.spectrum,
    "product_determinant": lambda op: fk.fredholm_determinant(op, 1e-310, "product"),
    "resolvent_solve": lambda op: fk.resolvent_solve(op, 1e-310, np.ones(op.K.shape[1])),
    "resolvent_kernel": lambda op: fk.resolvent_kernel(op, 1e-310),
    "operator_svd": fk.operator_svd,
    "power_ratio_estimate": lambda op: fk.power_ratio_estimate(op, np.ones(op.K.shape[1]), 60,
                                                               1e-12),
}


class TestNormPastTheFloatRange:
    """K = 1e308 on GL8 over [0, 8] has rank one and nu = 8e308: every sample
    is finite, ||B||_F is not.  At K = 1.7e308 the entries of B and A are not
    finite either, as the largest weight is 1.45: B and A are formed with
    no warning.  Each reader refuses both as invalid, with no numpy
    warning; a non-square block is refused for its shape first, except by
    the SVD.  K = 1e307 (||B||_F = 8e307) is read as before."""

    @staticmethod
    def operator(shape, value):
        rule = fk.gauss_legendre(8, 0.0, 8.0)
        return fk.DiscreteOperator(rule=rule, shape=shape, K=np.full((8 * shape[0], 8), value))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1)], ids=["1x1", "2x1"])
    @pytest.mark.parametrize("entry", list(NORM_READERS))
    def test_refused(self, shape, entry):
        overflow = shape == (1, 1) or entry == "operator_svd"
        for value in (1e308, 1.7e308):
            op = self.operator(shape, value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert op.hs_norm() == np.inf
                with pytest.raises(InvalidArgumentError,
                                   match="overflows" if overflow else "square block shape"):
                    NORM_READERS[entry](op)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1)], ids=["1x1", "2x1"])
    def test_largest_finite_norm_is_read(self, shape):
        op = self.operator(shape, 1e307)
        top = np.sqrt(shape[0]) * 8e307  # ||B||_F, the one singular value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op.hs_norm() == pytest.approx(top, rel=1e-15)
            theta = fk.operator_svd(op).singular_values
            if shape == (1, 1):
                assert op.hermitian_defect() <= 8 * np.finfo(float).eps
                assert op.spectrum[0] == pytest.approx(top, rel=1e-15)
                assert fk.power_ratio_estimate(op, np.ones(8), 60, 1e-12).estimate == \
                    pytest.approx(top, rel=1e-14)
        assert theta[0] == pytest.approx(top, rel=1e-15)
        assert np.all(theta[1:] <= 1e-15 * top)

