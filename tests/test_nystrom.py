import warnings

import numpy as np
import pytest

import fredkit as fk
from fredkit.errors import (
    EvaluationError,
    InvalidArgumentError,
    UnsupportedKernelError,
    ZeroDivisionSignal,
)
from fredkit.kernels import ClosedForm


def gram_project(op, rule, basis):
    """Coordinates of the operator restricted to an orthonormal basis."""
    E = np.column_stack([e(rule.nodes) for e in basis])
    return E.conj().T @ (rule.weights[:, None] * (op.A @ E))


class TestDiscretize:
    def test_zero_kernel_warns(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        assert np.all(op.A == 0)
        assert op.hs_norm() == 0.0

    def test_rank_one_third_on_two_points(self, yz_kernel):
        # Gauss-2 is exact for the cubic moment, so 1/3 appears exactly
        op = fk.discretize(yz_kernel, fk.gauss_legendre(2, 0.0, 1.0))
        nus = np.linalg.eigvals(op.A)
        nus = nus[np.argsort(-np.abs(nus))]
        assert nus[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert abs(nus[1]) <= 1e-14

    def test_mehler_top_eigenvalue_one(self, mehler_op):
        top = np.max(np.abs(np.linalg.eigvals(mehler_op.A)))
        assert top == pytest.approx(1.0, abs=1e-8)

    def test_matrices_consistent(self, yz2_op):
        w = yz2_op.rule.weights
        assert np.array_equal(yz2_op.A, yz2_op.K * w[None, :])
        sw = np.sqrt(w)
        assert np.allclose(yz2_op.B, sw[:, None] * yz2_op.K * sw[None, :], rtol=0, atol=0)

    def test_built_from_rule_shape_and_samples(self, gl8):
        rng = np.random.default_rng(3)
        K = rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
        op = fk.DiscreteOperator(rule=gl8, shape=(2, 3), K=K)
        wr, wc = np.repeat(gl8.weights, 2), np.repeat(gl8.weights, 3)
        assert np.array_equal(op.A, K * wc[None, :])
        assert np.array_equal(op.B, np.sqrt(wr)[:, None] * K * np.sqrt(wc)[None, :])
        assert op.hs_norm() == np.linalg.norm(op.B)
        with pytest.raises(TypeError):
            fk.DiscreteOperator(rule=gl8, shape=(2, 3), K=K, A=op.A, B=op.B)

    def test_hs_norm_quadrature(self, gl8, yz_kernel):
        # oracle: ||N||_2^2 = int int y^2 z^2 dy dz = 1/9
        op = fk.discretize(yz_kernel, gl8)
        assert op.hs_norm() ** 2 == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_hermitian_defect_small_for_symmetric(self, mehler_op):
        assert mehler_op.hermitian_defect() <= 1e-13


class TestNonFiniteSamples:
    def test_grid_nan_names_first_pair(self):
        rule = fk.gauss_legendre(8, 0.0, 1.0)
        table = np.ones((8, 8), dtype=complex)
        table[2, 5] = np.nan
        table[6, 1] = np.inf
        with pytest.raises(EvaluationError) as err:
            fk.discretize(fk.grid_kernel(rule, table), rule)
        assert err.value.pair == (rule.nodes[2], rule.nodes[5])

    def test_infinite_diagonal_closed_form(self, gl8):
        kern = fk.Kernel(shape=(1, 1), body=ClosedForm(lambda y, z: 1.0 / (y - z)))
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError) as err:
            fk.discretize(kern, gl8)
        assert err.value.pair == (gl8.nodes[0], gl8.nodes[0])

    def test_block_kernel_pair_is_node_pair(self, gl8):
        bad = (gl8.nodes[3], gl8.nodes[4])

        def evaluator(y, z):
            return np.array([[1.0, 0.0], [0.0, np.nan if (y, z) == bad else 1.0]])

        kern = fk.Kernel(shape=(2, 2), body=ClosedForm(evaluator))
        with pytest.raises(EvaluationError) as err:
            fk.discretize(kern, gl8)
        assert err.value.pair == bad


class TestApply:
    def test_constant_maps_to_half_y(self, yz_op, gl8):
        f = np.ones(8, dtype=complex)
        got = fk.apply(yz_op, f)
        assert got == pytest.approx(gl8.nodes / 2.0, abs=1e-15)

    def test_zero_maps_to_zero(self, yz_op):
        assert np.all(fk.apply(yz_op, np.zeros(8)) == 0)

    def test_eigen_relation(self, yz2_op, gl8):
        f = gl8.nodes.astype(complex)
        got = fk.apply(yz2_op, f)
        assert got == pytest.approx(f / 4.0, abs=1e-15)

    def test_length_checked(self, yz_op):
        with pytest.raises(InvalidArgumentError):
            fk.apply(yz_op, np.ones(5))


class TestApplyAdjoint:
    def test_adjoint_of_yz2(self, yz2_op, gl8):
        # oracle: N* p (z) = z^2 int y p(y) dy; with p = y this is z^2 / 3
        p = gl8.nodes.astype(complex)
        got = fk.apply_adjoint(yz2_op, p)
        assert got == pytest.approx(gl8.nodes ** 2 / 3.0, abs=1e-15)

    def test_zero(self, yz2_op):
        assert np.all(fk.apply_adjoint(yz2_op, np.zeros(8)) == 0)

    def test_hermitian_case_matches_apply(self, mehler_op):
        rng = np.random.default_rng(5)
        p = rng.normal(size=40) + 1j * rng.normal(size=40)
        lhs = fk.apply_adjoint(mehler_op, p)
        rhs = np.conj(fk.apply(mehler_op, np.conj(p)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_duality(self, two_term_op):
        rng = np.random.default_rng(11)
        w = two_term_op.w_rows
        for _ in range(10):
            f = rng.normal(size=8) + 1j * rng.normal(size=8)
            p = rng.normal(size=8) + 1j * rng.normal(size=8)
            lhs = np.sum(w * np.conj(p) * fk.apply(two_term_op, f))
            rhs = np.sum(w * np.conj(fk.apply_adjoint(two_term_op, p)) * f)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_duality_on_block_kernel(self):
        # a complex, non-Hermitian 2 x 2 block kernel: node-major rows and
        # columns, each node weight repeated over the block's components
        def evaluator(y, z):
            return np.array([[np.exp(-(y - z) ** 2), y * z],
                             [1j * np.sin(y + 2 * z), np.cos(y - 2 * z) + 1j * y]])

        rule = fk.gauss_legendre(64, 0.0, 1.0)
        op = fk.discretize(fk.Kernel(shape=(2, 2), body=ClosedForm(evaluator)), rule)
        rng = np.random.default_rng(12)
        w = op.w_rows
        for _ in range(10):
            f = rng.normal(size=128) + 1j * rng.normal(size=128)
            p = rng.normal(size=128) + 1j * rng.normal(size=128)
            lhs = np.sum(w * np.conj(p) * fk.apply(op, f))
            rhs = np.sum(w * np.conj(fk.apply_adjoint(op, p)) * f)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def doubling_cases():
    twin_rule = fk.gauss_legendre(256, -4.0, 4.0)
    mehler = fk.mehler_kernel(0.5).body.evaluator
    phase = np.exp(1j * 0.8 * twin_rule.nodes)
    gl8 = fk.gauss_legendre(8, 0.0, 1.0)
    return {
        "mehler-gl256": lambda: fk.discretize(fk.mehler_kernel(0.5), twin_rule),
        # e^{iay} M(y, z) e^{-iaz}: Mehler's complex twin, as the benchmark runs it
        "twin-gl256": lambda: fk.discretize(
            fk.Kernel(shape=(1, 1), body=ClosedForm(
                lambda y, z: np.exp(0.8j * y) * mehler(y, z) * np.exp(-0.8j * z))),
            twin_rule),
        "defective-gl8": lambda: fk.discretize(
            fk.defective_kernel(0.5, 2, fk.orthonormal_poly_basis(gl8, 2), gl8), gl8),
    }


class TestIteratedKernel:
    def test_first_iterate_is_k(self, yz_op):
        assert np.array_equal(fk.iterated_kernel(yz_op, 1), yz_op.K)

    def test_second_iterate_of_yz(self, yz_op):
        # For the rank-one kernel y z, (K W) K is K scaled by the discrete
        # self-moment m = sum_k w_k x_k^2.  m is 1/3 only up to the rule's
        # roundoff; the analytic 1/3 is checked in test_cli's iterate test.
        x, w = yz_op.rule.nodes, yz_op.rule.weights
        n = x.size
        got = fk.iterated_kernel(yz_op, 2)
        want = yz_op.K * np.sum(w * x * x)
        # Both sides are sum_k t_k, t_k = x_i x_j w_k x_k^2, up to n + 3
        # roundings per term.  got: K_ik, A_ik = K_ik w_k and K_kj carry
        # three, the n-term inner product n (Higham, Accuracy and Stability
        # of Numerical Algorithms, 2nd ed., sec. 3.1).  want: x_k^2,
        # w_k x_k^2, the n-term sum, K_ij and the final product.  So
        # |got - want| <= 2 gamma_{n+3} sum_k |t_k|, and the computed
        # (|A||K|)_ij is at least (1 - gamma_{n+3}) sum_k |t_k|.
        u = np.finfo(float).eps / 2
        gamma = (n + 3) * u / (1 - (n + 3) * u)
        bound = 2 * gamma / (1 - gamma) * (np.abs(yz_op.A) @ np.abs(yz_op.K))
        err = np.abs(got - want)
        assert np.all(err <= bound), np.max(err / bound)

    def test_defective_tenth_power_coordinates(self, defective_op, gl8):
        # oracle: direct matrix multiplication of the 2x2 block
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        J10 = np.linalg.matrix_power(J, 10)
        K10 = fk.iterated_kernel(defective_op, 10)
        basis = fk.orthonormal_poly_basis(gl8, 2)
        E = np.column_stack([e(gl8.nodes) for e in basis])
        coords = E.T @ (gl8.weights[:, None] * K10 * gl8.weights[None, :]) @ E
        assert coords == pytest.approx(J10, abs=1e-12)

    def test_advancing_composes(self, mehler_op):
        K3 = fk.iterated_kernel(mehler_op, 3)
        K7 = fk.iterated_kernel(mehler_op, 7)
        adv = np.linalg.matrix_power(mehler_op.A, 4) @ K3
        assert np.max(np.abs(adv - K7)) <= 1e-12 * np.max(np.abs(K7))

    def test_bad_iterate(self, yz_op):
        with pytest.raises(InvalidArgumentError):
            fk.iterated_kernel(yz_op, 0)

    def test_overflow_refused(self, gl8):
        # N(y, z) = 10 y z has eigenvalue 10/3, so X_700 ~ (10/3)^699 overflows
        op = fk.discretize(fk.separable_kernel([10.0], [lambda y: y], [lambda z: z]), gl8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="iterate n=700 overflows"):
                fk.iterated_kernel(op, 700)

    @pytest.mark.parametrize("case", list(doubling_cases()))
    def test_doubling_matches_sequential_product(self, case):
        """Componentwise, for n = 1..33.  One complex gemm rounds within
        g = sqrt(2) gamma_{2N}: the real and the imaginary part of each entry
        are sums of 2N real products, each within gamma_{2N} of
        sum_k |a_r b_r| + |a_i b_i| <= sum_k |a_k| |b_k| in any summation
        order (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        sec. 3.1), and scaling by W rounds within u.  If the computed X_a and
        X_b are within c_a, c_b of M_a, M_b (M_m = |K| (W |K|)^{m-1}), the
        computed X_a W X_b is within (1 + c_a)(1 + c_b)(1 + u)(1 + g) - 1 of
        M_{a+b}, since M_a W M_b = M_{a+b}; with c_1 = 0 every order of
        evaluation, sequential or doubling, gives
        c_n = ((1 + u)(1 + g))^{n-1} - 1 (sec. 3.5).  So the two differ by
        at most 2 c_n M_n, and M_n computed in real arithmetic is at least
        (1 - c_n) of the exact one.  n = 1 and n = 2 are exact."""
        op = doubling_cases()[case]()
        K, A = op.K, op.A
        assert np.array_equal(fk.iterated_kernel(op, 1), K)
        assert np.array_equal(fk.iterated_kernel(op, 2), A @ K)
        N = K.shape[0]
        u = np.finfo(float).eps / 2
        g = np.sqrt(2) * 2 * N * u / (1 - 2 * N * u)
        absA = np.abs(K) * op.w_cols
        M, seq = np.abs(K), K
        for n in range(2, 34):
            # the reference: (K W)^{n-1} K as n - 1 left products with A
            M, seq = absA @ M, A @ seq
            c = ((1 + u) * (1 + g)) ** (n - 1) - 1
            err = np.abs(fk.iterated_kernel(op, n) - seq)
            bound = 2 * c / (1 - c) * M
            assert np.all(err <= bound), (n, np.max(err / bound))


class TestSimilarity:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_eig_a_matches_eig_b(self, n):
        rule = fk.gauss_legendre(n, 0.0, 1.0)
        gallery = [
            fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]),
            fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z]),
            fk.mehler_kernel(0.5),
        ]
        for kern in gallery:
            op = fk.discretize(kern, rule)
            ea = np.sort_complex(np.linalg.eigvals(op.A))
            eb = np.sort_complex(np.linalg.eigvals(op.B))
            scale = max(np.max(np.abs(ea)), 1e-300)
            assert np.max(np.abs(ea - eb)) <= 1e-10 * scale


class TestBlockKernels:
    def test_block_diagonal_composition(self, gl8):
        # 2x2 block-diagonal copy of yz: every scalar eigenvalue doubles up
        kern = fk.separable_kernel(
            [1.0, 1.0],
            [lambda y: np.array([y, 0.0]), lambda y: np.array([0.0, y])],
            [lambda z: np.array([z, 0.0]), lambda z: np.array([0.0, z])],
            shape=(2, 2),
        )
        op = fk.discretize(kern, gl8)
        assert op.K.shape == (16, 16)
        # node-major block layout: entry (2i+a, 2j+b) = N(x_i, x_j)[a, b] w_j
        assert op.K[0, 0] == gl8.nodes[0] ** 2
        assert op.K[0, 1] == 0.0
        nus = np.linalg.eigvals(op.A)
        nus = nus[np.argsort(-np.abs(nus))]
        assert nus[0] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert nus[1] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert np.max(np.abs(nus[2:])) <= 1e-13
        # weighted trace identity: sum theta^2 = 2 * (1/3) * (1/3)
        sv = fk.operator_svd(op)
        from fredkit.opsvd import trace_power

        assert trace_power(sv, 0) == pytest.approx(2.0 / 9.0, abs=1e-13)

    def test_block_apply_shapes(self, gl8):
        kern = fk.separable_kernel(
            [1.0],
            [lambda y: np.array([1.0, y])],
            [lambda z: np.array([z, 0.0])],
            shape=(2, 2),
        )
        op = fk.discretize(kern, gl8)
        f = np.ones(16, dtype=complex)
        out = fk.apply(op, f)
        assert out.shape == (16,)
        back = fk.apply_adjoint(op, out)
        assert back.shape == (16,)

    def test_expanded_weights_cached_read_only(self, gl8):
        kern = fk.Kernel((2, 3), ClosedForm(lambda y, z: np.full((2, 3), y * z)))
        op = fk.discretize(kern, gl8)
        assert np.array_equal(op.w_rows, np.repeat(gl8.weights, 2))
        assert np.array_equal(op.w_cols, np.repeat(gl8.weights, 3))
        for name in ("w_rows", "w_cols"):
            assert getattr(op, name) is getattr(op, name)
            with pytest.raises(ValueError):
                getattr(op, name)[0] = 1.0


class TestNystromExtend:
    def test_rank_one_closed_form(self, yz_kernel, gl8):
        samples = gl8.nodes.astype(complex)
        val = fk.nystrom_extend(yz_kernel, gl8, samples, 1.0 / 3.0, 0.25)
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_node_consistency(self, yz_kernel, gl8):
        samples = gl8.nodes.astype(complex)
        for i in (0, 3, 7):
            val = fk.nystrom_extend(yz_kernel, gl8, samples, 1.0 / 3.0, gl8.nodes[i])
            assert val == pytest.approx(samples[i], abs=1e-10)

    def test_mehler_hermite_eigenfunction_off_grid(self, gh40, mehler_op):
        d = fk.hermitian_eig(mehler_op)
        samples = d.right[:, 1]
        val = fk.nystrom_extend(fk.mehler_kernel(0.5), gh40, samples, 0.5, 2.0)
        assert min(abs(val - 2.0), abs(val + 2.0)) <= 1e-4

    def test_zero_nu_rejected(self, yz_kernel, gl8):
        with pytest.raises(ZeroDivisionSignal):
            fk.nystrom_extend(yz_kernel, gl8, np.ones(8), 0.0, 0.5)

    def test_grid_body_rejected(self, gl8):
        kern = fk.grid_kernel(gl8, np.eye(8))
        with pytest.raises(UnsupportedKernelError):
            fk.nystrom_extend(kern, gl8, np.ones(8), 1.0, 0.5)

    def test_grid_body_at_its_nodes(self, gl8):
        kern = fk.grid_kernel(gl8, np.outer(gl8.nodes, gl8.nodes))
        samples = gl8.nodes.astype(complex)
        for i in (0, 3, 7):
            val = fk.nystrom_extend(kern, gl8, samples, 1.0 / 3.0, gl8.nodes[i])
            assert val == pytest.approx(samples[i], abs=1e-14)

    @pytest.mark.parametrize("nu, y", [
        (float("nan"), 0.5), (complex(1.0, float("inf")), 0.5), (np.array([1.0]), 0.5),
        ("1", 0.5), (1.0, float("nan")), (1.0, float("-inf")), (1.0, np.array([0.25, 0.5])),
        (1.0, 0.5 + 0j), (1.0, None), (10 ** 400, 0.5), (1.0, -(10 ** 400)),
    ])
    def test_nu_and_y_checked(self, yz_kernel, gl8, nu, y):
        with pytest.raises(InvalidArgumentError):
            fk.nystrom_extend(yz_kernel, gl8, gl8.nodes.astype(complex), nu, y)

    def test_matches_node_by_node_sum(self):
        # reference: the sum node by node that one row product replaced; the
        # two round the same terms in another order, within 2 n u sum |term|
        def evaluator(y, z):
            return np.array([[np.exp(-(y - z) ** 2), y * z], [1j * np.sin(y + 2 * z), np.cos(y)]])

        rule = fk.gauss_legendre(64, 0.0, 1.0)
        kern = fk.Kernel((2, 2), ClosedForm(evaluator))
        rng = np.random.default_rng(7)
        p = rng.normal(size=128) + 1j * rng.normal(size=128)
        nu, y = 0.7 - 0.2j, 0.3141
        terms = [kern.eval_block(y, x) @ (w * p[2 * i : 2 * i + 2])
                 for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
        ref = sum(terms) / nu
        scale = sum(np.abs(kern.eval_block(y, x)) @ np.abs(w * p[2 * i : 2 * i + 2])
                    for i, (x, w) in enumerate(zip(rule.nodes, rule.weights)))
        bound = 2 * 128 * np.finfo(float).eps * scale / abs(nu)
        got = fk.nystrom_extend(kern, rule, p, nu, y)
        assert np.all(np.abs(got - ref) <= bound)
