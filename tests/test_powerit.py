import collections
import tracemalloc
import warnings

import numpy as np
import pytest

import fredkit as fk
from fredkit import powerit
from fredkit.errors import (
    ConvergenceError,
    PreconditionViolationError,
    StartingVectorError,
    UnsupportedProfileError,
)

from test_dtype import gamma, spy_on_float_view


class TestPowerRatioEstimate:
    def test_rank_one_converges_immediately(self, yz_op):
        # oracle: N 1 = y/2, N(y/2) = y/6, so the ratio is exactly 1/3 from
        # the second application on
        trace = fk.power_ratio_estimate(yz_op, np.ones(8, dtype=complex), 50, 1e-12)
        assert trace.converged
        assert trace.iterations_used <= 3
        assert abs(trace.estimate - 1.0 / 3.0) <= 1e-10

    def test_eigenvector_start_is_exact_from_first_ratio(self, yz_op, gl8):
        trace = fk.power_ratio_estimate(yz_op, gl8.nodes.astype(complex), 50, 1e-12)
        assert abs(trace.ratios[0] - 1.0 / 3.0) <= 1e-13
        assert trace.iterations_used <= 2

    def test_invariant_subspace_caveat(self, mehler_op, gh40):
        # odd starting vector stays orthogonal to the even top eigenfunction,
        # so the run converges to the second eigenvalue 0.5
        f = gh40.nodes.astype(complex)
        trace = fk.power_ratio_estimate(mehler_op, f, 200, 1e-10)
        assert trace.converged
        assert abs(trace.estimate - 0.5) <= 1e-8

    def test_zero_start_rejected(self, yz_op):
        with pytest.raises(StartingVectorError):
            fk.power_ratio_estimate(yz_op, np.zeros(8), 10, 1e-10)

    def test_null_space_start_collapses(self, yz_op, gl8):
        # f = 1 - 1.5 z has int z f(z) dz = 0, so A f = 0 exactly
        f = 1.0 - 1.5 * gl8.nodes
        with pytest.raises(StartingVectorError):
            fk.power_ratio_estimate(yz_op, f.astype(complex), 10, 1e-10)

    def test_tiny_kernel_does_not_collapse(self, gl8):
        """Weighted norms of a kernel scaled by 2^-600, whose squares fall
        below the normal range, are rescaled exactly: the collapse floor is
        not zero, no iterate collapses, and every ratio is the unit kernel's
        times 2^-600, bit for bit."""
        runs = [fk.power_ratio_estimate(
            fk.discretize(fk.separable_kernel([c], [lambda y: 1.0 + y], [lambda z: z]), gl8),
            np.ones(8), 50, 1e-12) for c in (1.0, 2.0 ** -600)]
        assert runs[1].converged
        assert runs[1].ratios == [2.0 ** -600 * r for r in runs[0].ratios]

    def test_equal_modulus_pair_oscillates(self, pm_half_op):
        rng = np.random.default_rng(6)
        f = rng.normal(size=8)
        with pytest.warns(UserWarning, match="simple"):
            trace = fk.power_ratio_estimate(pm_half_op, f, 60, 1e-10)
        assert not trace.converged

    def test_geometric_ratio_convergence(self, mehler_op):
        # |ratio_n - nu_1| should decay like (r0/r1)^n = 0.5^n
        rng = np.random.default_rng(7)
        f = rng.normal(size=40)
        trace = fk.power_ratio_estimate(mehler_op, f, 200, 1e-12)
        errs = [abs(r - 1.0) for r in trace.ratios]
        c = errs[2] / 0.5 ** 3
        for n in range(3, min(len(errs), 20)):
            assert errs[n] <= 20.0 * c * 0.5 ** (n + 1) + 1e-12

    def test_pointwise_ratios_recorded(self, yz_op):
        trace = fk.power_ratio_estimate(yz_op, np.ones(8, dtype=complex), 50, 1e-12)
        assert len(trace.pointwise_ratios) == len(trace.ratios)
        assert trace.pointwise_ratios[-1] == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestScaleFreeStart:
    """Starting vectors and probes are divided by a power of two near their
    largest entry once per call: exact, so a large start runs without
    overflow and any start runs as its scaled copies do, bit for bit."""

    def test_huge_starting_vectors(self, gl8):
        op = fk.discretize(fk.mehler_kernel(0.5), gl8)
        huge = np.full(8, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = fk.power_ratio_estimate(op, huge, 50, 1e-10, probe=huge)
            p, q = fk.extract_leading_pair(op, trace.estimate, huge, huge, 50)
        ref = fk.power_ratio_estimate(op, np.ones(8), 50, 1e-10)
        assert trace.converged and trace.estimate == pytest.approx(ref.estimate, rel=1e-12)
        assert np.sum(op.w_rows * np.conj(q) * p) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_starts_give_the_same_bits(self, gl8):
        op = fk.discretize(fk.mehler_kernel(0.5), gl8)
        rng = np.random.default_rng(11)
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        g = rng.normal(size=8)
        runs = [fk.power_ratio_estimate(op, f * s, 50, 1e-10, probe=g * s)
                for s in (1.0, 2.0 ** 40)]
        assert runs[0].ratios == runs[1].ratios
        assert all(np.array_equal(a, b) for a, b in zip(runs[0].iterates, runs[1].iterates))
        nu1 = runs[0].estimate
        pairs = [fk.extract_leading_pair(op, nu1, f * s, g * s, 50) for s in (1.0, 2.0 ** -40)]
        assert np.array_equal(pairs[0][0], pairs[1][0])
        assert np.array_equal(pairs[0][1], pairs[1][1])


class TestVariationalEstimate:
    def test_symmetric_rank_one(self, yz_op, gl8):
        value, g, h = fk.variational_estimate(yz_op)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
        ref = gl8.nodes / np.linalg.norm(gl8.nodes)
        for v in (g, h):
            u = v.real / np.linalg.norm(v.real)
            assert min(np.max(np.abs(u - ref)), np.max(np.abs(u + ref))) <= 1e-10

    def test_nonsymmetric_pair_normalized(self, yz2_op):
        value, g, h = fk.variational_estimate(yz2_op)
        assert value == pytest.approx(1.0 / 4.0, abs=1e-12)
        w = yz2_op.w_rows
        assert np.sum(w * np.conj(g) * h) == pytest.approx(1.0, abs=1e-10)

    def test_negative_definite_inf_form(self, gl8):
        kern = fk.separable_kernel([-1.0], [lambda y: y], [lambda z: z])
        op = fk.discretize(kern, gl8)
        value, g, h = fk.variational_estimate(op)
        assert value == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_complex_dominant_rejected(self, gl8):
        kern = fk.separable_kernel([1j], [lambda y: y], [lambda z: z])
        op = fk.discretize(kern, gl8)
        with pytest.raises(UnsupportedProfileError):
            fk.variational_estimate(op)

    def test_first_order_stationarity(self, yz2_op):
        # the bilinear ratio R(g,h) = <g, N h> / <g, h> is stationary at the
        # leading pair: perturbations move the value only at second order
        value, g, h = fk.variational_estimate(yz2_op)
        w = yz2_op.w_rows.real
        A = yz2_op.A.real
        g = g.real
        h = h.real

        def ratio(gv, hv):
            return float((gv * w) @ (A @ hv)) / float((gv * w) @ hv)

        rng = np.random.default_rng(9)
        eps_grid = np.array([0.5e-4, 1e-4, 2e-4, 4e-4])
        for _ in range(20):
            dg = rng.normal(size=8)
            dh = rng.normal(size=8)
            deltas = np.array(
                [abs(ratio(g + e * dg, h + e * dh) - value) for e in eps_grid]
            )
            # quadratic fit through the origin: R^2 of |delta| vs eps^2
            x = eps_grid ** 2
            coef = float(x @ deltas) / float(x @ x)
            ss_res = float(np.sum((deltas - coef * x) ** 2))
            ss_tot = float(np.sum((deltas - deltas.mean()) ** 2))
            assert 1.0 - ss_res / ss_tot >= 0.99


class TestExtractLeadingPair:
    def test_rank_one_one_step(self, yz_op, gl8):
        p, q = fk.extract_leading_pair(
            yz_op, 1.0 / 3.0, np.ones(8, dtype=complex), np.ones(8, dtype=complex), 5
        )
        ref = gl8.nodes / np.sqrt(np.sum(gl8.weights * gl8.nodes ** 2))
        assert np.max(np.abs(p.real - ref)) <= 1e-10
        w = yz_op.w_rows
        assert np.sum(w * np.conj(q) * p) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_is_fixed_point(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        p0, q0 = d.right[:, 0], d.left[:, 0]
        p, q = fk.extract_leading_pair(two_term_op, d.eigenvalues[0], p0, q0, 3)
        assert np.max(np.abs(p - p0)) <= 1e-9
        assert np.max(np.abs(q - q0)) <= 1e-9

    def test_defective_dominant_stagnates(self, defective_op):
        rng = np.random.default_rng(10)
        f = rng.normal(size=8)
        with pytest.raises(ConvergenceError, match="jordan"):
            fk.extract_leading_pair(defective_op, 0.5, f, f, 400)


class TestDeflate:
    def test_real_pair_deflates_in_real_arrays(self):
        """A real operator with a real pair is updated in float64: at most
        K1, A, B and one N x N temporary are alive, and K1 is the complex
        update's real part."""
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256))
        d = fk.hermitian_eig(op)
        nu, p, q = d.eigenvalues[0], d.right[:, 0], d.left[:, 0]
        tracemalloc.start()
        op1 = fk.deflate(op, nu, p, q)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert op1.K.dtype == np.float64
        assert peak < 4.5 * op.K.nbytes
        update = complex(nu) * np.outer(p.astype(complex), np.conj(q.astype(complex)))
        assert np.array_equal(op1.K, (op.K - update).real)

    def test_rank_one_annihilation(self, yz_op):
        d = fk.djf_eig(yz_op)
        op1 = fk.deflate(yz_op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        assert np.max(np.abs(op1.K)) <= 1e-12

    def test_two_term_exposes_second(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        op1 = fk.deflate(two_term_op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        nus = np.linalg.eigvals(op1.A)
        assert np.max(np.abs(nus)) == pytest.approx(0.2, abs=1e-10)

    def test_remaining_pairs_unchanged(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        op1 = fk.deflate(two_term_op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        # the second right eigenvector still satisfies A p = 0.2 p
        p2 = d.right[:, 1]
        assert np.linalg.norm(op1.A @ p2 - 0.2 * p2) <= 1e-8

    def test_rank_drops_by_exactly_one(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        before = fk.operator_svd(two_term_op).rank_numerical
        op1 = fk.deflate(two_term_op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
        after = fk.operator_svd(op1).rank_numerical
        assert after == before - 1

    def test_wrong_normalization_rejected(self, yz_op):
        d = fk.djf_eig(yz_op)
        with pytest.raises(PreconditionViolationError):
            fk.deflate(yz_op, d.eigenvalues[0], 2.0 * d.right[:, 0], d.left[:, 0])

    def test_nan_pair_rejected(self, yz_op):
        d = fk.djf_eig(yz_op)
        nu, p, q = d.eigenvalues[0], d.right[:, 0], d.left[:, 0]
        with pytest.raises(PreconditionViolationError):
            fk.deflate(yz_op, nu, np.where(np.arange(p.size) == 3, np.nan, p), q)
        with pytest.raises(PreconditionViolationError):
            fk.deflate(yz_op, complex("nan"), p, q)

    def test_kernel_input_with_rule(self, yz_kernel, gl8, yz_op):
        d = fk.djf_eig(yz_op)
        op1 = fk.deflate(yz_kernel, d.eigenvalues[0], d.right[:, 0], d.left[:, 0], rule=gl8)
        assert np.max(np.abs(op1.K)) <= 1e-12


class TestSequentialSpectrum:
    def test_two_term_in_order(self, two_term_op):
        res = fk.sequential_spectrum(two_term_op, 2, 200, 1e-12)
        assert res.failure_reason is None
        assert res.stages_completed == 2
        assert res.eigenvalues[0] == pytest.approx(0.5, abs=1e-10)
        assert res.eigenvalues[1] == pytest.approx(0.2, abs=1e-10)

    def test_single_stage_rank_one(self, yz_op, gl8):
        res = fk.sequential_spectrum(yz_op, 1, 100, 1e-12)
        assert len(res) == 1
        nu, p, q = res[0]
        assert nu == pytest.approx(1.0 / 3.0, abs=1e-10)
        ref = gl8.nodes / np.sqrt(np.sum(gl8.weights * gl8.nodes ** 2))
        assert np.max(np.abs(p.real - ref)) <= 1e-7

    def test_mehler_top_three(self, mehler_op):
        res = fk.sequential_spectrum(mehler_op, 3, 400, 1e-10)
        assert res.failure_reason is None
        for got, want in zip(res.eigenvalues, (1.0, 0.5, 0.25)):
            assert abs(got - want) <= 1e-6 * want

    def test_triples_match_djf(self, two_term_op):
        res = fk.sequential_spectrum(two_term_op, 2, 200, 1e-12)
        d = fk.djf_eig(two_term_op)
        for j, (nu, p, q) in enumerate(res):
            assert abs(nu - d.eigenvalues[j]) <= 1e-6 * abs(d.eigenvalues[j])

    def test_partial_result_on_equal_modulus_pair(self, pm_half_op):
        res = fk.sequential_spectrum(pm_half_op, 2, 40, 1e-10)
        assert res.failure_reason is not None
        assert res.stages_completed == 0

    def test_traces_recorded(self, two_term_op):
        res = fk.sequential_spectrum(two_term_op, 2, 200, 1e-12)
        assert len(res.traces) == 2
        assert all(t.converged for t in res.traces)


class TestBenchmarkScale:
    """sequential_spectrum(op, 3, 400, 1e-10) on the benchmark's block shape:
    a real 2 x 2 block operator on Gauss-Hermite 256 (N = 512) whose block at
    each node pair is S diag(M_0.6, 0.8 M_-0.5) S^-1, so its top eigenvalues
    are 1, 0.8 and 0.6.  K is built from Mehler samples with numpy, not by a
    point-pair sampling loop."""

    S = np.array([[1.8, 0.4], [-0.3, 1.2]])

    @pytest.fixture(scope="class")
    def block_op(self):
        rule = fk.gauss_hermite_prob(256)
        M = np.stack([fk.discretize(fk.mehler_kernel(0.6), rule).K,
                      0.8 * fk.discretize(fk.mehler_kernel(-0.5), rule).K])
        K = np.einsum("ak,kij,kb->iajb", self.S, M, np.linalg.inv(self.S)).reshape(512, 512)
        return fk.DiscreteOperator(rule=rule, shape=(2, 2), K=K)

    @staticmethod
    def run(monkeypatch, op, complex_start):
        """(result, operator applications): sequential_spectrum with each
        stage's starting vector as drawn, or cast to complex128."""
        counts = collections.Counter()
        with monkeypatch.context() as m:
            for name in ("_apply_A", "_apply_adjoint"):
                def counted(o, x, _apply=getattr(powerit, name), _name=name):
                    counts[_name] += 1
                    return _apply(o, x)
                m.setattr(powerit, name, counted)
            if complex_start:
                m.setattr(powerit, "power_ratio_estimate",
                          lambda o, f, *args: fk.power_ratio_estimate(o, f.astype(complex), *args))
            res = fk.sequential_spectrum(op, 3, 400, 1e-10)
        return res, counts

    def test_real_triples_and_invariants(self, monkeypatch, block_op):
        views = spy_on_float_view(monkeypatch)
        res, applications = self.run(monkeypatch, block_op, complex_start=False)
        assert views == [] and res.stages_completed == 3
        for nu, p, q in res:
            assert isinstance(nu, float) and p.dtype == q.dtype == np.float64
        assert np.max(np.abs(np.array(res.eigenvalues) - [1.0, 0.8, 0.6])) <= 1e-8
        w = block_op.w_rows
        P = np.column_stack([p for _, p, _ in res])
        Q = np.column_stack([q for _, _, q in res])
        assert np.max(np.abs(Q.T @ (w[:, None] * P) - np.eye(3))) <= 1e-8

        ref, ref_applications = self.run(monkeypatch, block_op, complex_start=True)
        assert views and all(p.dtype == np.complex128 for _, p, _ in ref)
        # The same applications in both runs, so they differ by rounding only.
        # One product K (w h), in real arithmetic or on the float view, lies
        # within gamma(2N) |K| (w |h|) of the exact one, so the two runs' images
        # of a pair's p_j differ by at most e relative, in the W-norm.  To first
        # order the differences of T applications add up, grown at most by the
        # eigenbasis' condition cond(S) (A is, node by node, a similarity by S
        # of a W-self-adjoint operator) and, through each deflation, by one
        # over the smallest relative gap, 0.2 between 1 and 0.8.
        assert [len(t.ratios) for t in ref.traces] == [len(t.ratios) for t in res.traces]
        assert ref_applications == applications
        K, n = block_op.K, block_op.K.shape[0]

        def wnorm(x):
            return np.sqrt(np.sum(w * np.abs(x) ** 2))

        e = 2 * gamma(2 * n) * max(wnorm(np.abs(K) @ (w * np.abs(p))) / abs(nu) for nu, p, _ in res)
        bound = np.linalg.cond(self.S) * sum(applications.values()) * e / 0.2
        assert bound < 1e-8  # finer than the checks above
        for (nu, p, q), (nu_c, p_c, q_c) in zip(res, ref):
            assert wnorm(p - p_c) <= bound and wnorm(q - q_c) <= bound * wnorm(q)
            assert abs(nu - nu_c) <= abs(nu) * (1 + wnorm(q)) * bound

    def test_complex_operator_keeps_its_bits(self, monkeypatch, block_op):
        """The twin's shape, e^{iay} K e^{-iaz} node by node: a real start is
        read as complex on a complex operator, so every triple and trace has
        the bits of the complex start's run."""
        D = np.repeat(np.exp(0.8j * block_op.rule.nodes), 2)
        twin = fk.DiscreteOperator(rule=block_op.rule, shape=(2, 2),
                                   K=D[:, None] * block_op.K * np.conj(D))
        res, applications = self.run(monkeypatch, twin, complex_start=False)
        ref, ref_applications = self.run(monkeypatch, twin, complex_start=True)
        assert res.stages_completed == ref.stages_completed == 3
        assert applications == ref_applications
        for (nu, p, q), (nu_c, p_c, q_c) in zip(res, ref):
            assert nu == nu_c and np.array_equal(p, p_c) and np.array_equal(q, q_c)
        for t, t_c in zip(res.traces, ref.traces):
            assert t.ratios == t_c.ratios and t.scales == t_c.scales
            assert all(np.array_equal(h, h_c) for h, h_c in zip(t.iterates, t_c.iterates))
