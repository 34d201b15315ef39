import math
import tracemalloc

import numpy as np
import pytest

import fredkit as fk
from fredkit.errors import (
    EvaluationError,
    InvalidArgumentError,
    PreconditionViolationError,
    UnsupportedKernelError,
)
from fredkit.kernels import ClosedForm, _evaluate


class TestHermite:
    def test_recurrence(self):
        # He_{j+1}(x) = x He_j(x) - j He_{j-1}(x) pointwise
        x = np.linspace(-6.0, 6.0, 241)
        for j in range(1, 13):
            lhs = fk.hermite_he(j + 1, x)
            rhs = x * fk.hermite_he(j, x) - j * fk.hermite_he(j - 1, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_pair_base_case(self):
        p0 = fk.HermitePair(0)
        assert np.all(p0(np.linspace(-3, 3, 7)) == 1.0)

    def test_orthonormality_under_gh40(self, gh40):
        pairs = [fk.HermitePair(j) for j in range(9)]
        for j, pj in enumerate(pairs):
            for k, pk in enumerate(pairs):
                got = float(np.sum(gh40.weights * pj(gh40.nodes) * pk(gh40.nodes)))
                assert got == pytest.approx(1.0 if j == k else 0.0, abs=1e-9)


class TestMehler:
    def test_independence_case_is_constant_one(self):
        k = fk.mehler_kernel(0.0)
        for y, z in [(0.0, 0.0), (1.3, -0.4), (2.0, 2.0)]:
            assert k.eval_block(y, z)[0, 0] == pytest.approx(1.0)

    def test_closed_form_matches_expansion(self):
        # oracle: partial sums of sum_j r^j p_j(y) p_j(z) at y = z = 1
        r = 0.5
        k = fk.mehler_kernel(r)
        total = 0.0
        for j in range(80):
            pj = fk.HermitePair(j)(np.array([1.0]))[0]
            total += r ** j * pj * pj
        assert abs(k.eval_block(1.0, 1.0)[0, 0] - total) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        k = fk.mehler_kernel(0.5)
        pts = rng.normal(size=(10_000, 2)) * 2.0
        vals_yz = k.body.evaluator(pts[:, 0], pts[:, 1])
        vals_zy = k.body.evaluator(pts[:, 1], pts[:, 0])
        assert np.max(np.abs(vals_yz - vals_zy)) <= 1e-13 * max(1.0, np.max(np.abs(vals_yz)))

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5])
    def test_bad_correlation(self, r):
        with pytest.raises(InvalidArgumentError):
            fk.mehler_kernel(r)


class TestSeparable:
    def test_rank_one_eigenvalue_third(self, yz_op):
        nus = np.linalg.eigvals(yz_op.A)
        nus = nus[np.argsort(-np.abs(nus))]
        assert nus[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert np.max(np.abs(nus[1:])) <= 1e-14

    def test_adjoint_pair_quarter(self, yz2_op):
        nus = np.linalg.eigvals(yz2_op.A)
        nus = nus[np.argsort(-np.abs(nus))]
        assert nus[0] == pytest.approx(1.0 / 4.0, abs=1e-14)

    def test_empty_lists_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fk.separable_kernel([], [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fk.separable_kernel([1.0], [lambda y: y], [])

    def test_finite_rank_reconstruction(self, gl8):
        # samples must equal the sum of outer products exactly as composed
        coeffs = [0.3 + 0.1j, -0.7]
        rights = [lambda y: y, lambda y: np.cos(y)]
        lefts = [lambda z: z * z, lambda z: np.exp(z)]
        kern = fk.separable_kernel(coeffs, rights, lefts)
        K = kern.sample_matrix(gl8)
        x = gl8.nodes
        expected = coeffs[0] * np.outer(rights[0](x), np.conj(lefts[0](x))) + coeffs[
            1
        ] * np.outer(rights[1](x), np.conj(lefts[1](x)))
        assert np.array_equal(K, expected)


class TestDefective:
    def test_operator_matrix_in_basis(self, gl8):
        # oracle: Gram projection <e_a, N e_b>_W recovers the block matrix
        basis = fk.orthonormal_poly_basis(gl8, 2)
        kern = fk.defective_kernel(0.5, 2, basis, gl8)
        op = fk.discretize(kern, gl8)
        E = np.column_stack([e(gl8.nodes) for e in basis])
        M = E.T @ (gl8.weights[:, None] * (op.A @ E))
        assert M == pytest.approx(np.array([[0.5, 1.0], [0.0, 0.5]]), abs=1e-12)

    def test_nilpotent_square_vanishes(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 2)
        kern = fk.defective_kernel(0.0, 2, basis, gl8)
        op = fk.discretize(kern, gl8)
        span = np.column_stack([e(gl8.nodes) for e in basis])
        assert np.max(np.abs(op.A @ (op.A @ span))) <= 1e-14

    def test_norm_growth_envelope(self, defective_op):
        # ||N_n|| ~ n * 0.5^(n-1): the ratio flattens out
        ratios = []
        for n in (30, 45, 60):
            Kn = fk.iterated_kernel(defective_op, n)
            sw = np.sqrt(defective_op.rule.weights)
            nrm = np.linalg.norm(sw[:, None] * Kn * sw[None, :])
            ratios.append(nrm / (n * 0.5 ** (n - 1)))
        assert ratios[2] == pytest.approx(ratios[1], rel=2e-2)
        assert ratios[1] == pytest.approx(ratios[0], rel=5e-2)

    def test_orthonormality_checked(self, gl8):
        bad = [lambda y: y * 0 + 1.0, lambda y: y]  # not orthonormal on [0,1]
        with pytest.raises(PreconditionViolationError, match="Gram residual"):
            fk.defective_kernel(0.5, 2, bad, gl8)

    @pytest.mark.parametrize("orthonormal", [True, False])
    @pytest.mark.parametrize("gram_tol", [float("nan"), float("inf"), -float("inf"), -1.0,
                                          -1e-300, 1j, "1e-3", None])
    def test_gram_tol_must_be_finite_and_nonnegative(self, gl8, gram_tol, orthonormal):
        # a NaN or infinite tolerance would pass a basis that is not orthonormal
        basis = fk.orthonormal_poly_basis(gl8, 2) if orthonormal else [lambda y: y * 0 + 1.0,
                                                                       lambda y: y]
        with pytest.raises(InvalidArgumentError, match="gram_tol must be a finite number >= 0"):
            fk.basis_kernel(np.eye(2), basis, gl8, gram_tol=gram_tol)

    def test_small_block_rejected(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 1)
        with pytest.raises(InvalidArgumentError):
            fk.defective_kernel(0.5, 1, basis, gl8)


class TestGridKernel:
    def test_zero_table(self):
        rule = fk.discrete_measure([0.0, 1.0], [0.5, 0.5])
        kern = fk.grid_kernel(rule, np.zeros((2, 2)))
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, rule)
        assert op.hs_norm() == 0.0

    def test_two_node_eigenvalue(self):
        # oracle: A = K diag(w) = [[0,0],[0,0.5]], eigenvalues {0, 0.5}
        rule = fk.discrete_measure([0.0, 1.0], [0.5, 0.5])
        kern = fk.grid_kernel(rule, np.array([[0.0, 0.0], [0.0, 1.0]]))
        op = fk.discretize(kern, rule)
        nus = sorted(np.linalg.eigvals(op.A).real)
        assert nus == pytest.approx([0.0, 0.5], abs=1e-15)

    def test_matches_closed_form_path(self, gh40, mehler_op):
        table = fk.mehler_kernel(0.5).sample_matrix(gh40)
        op2 = fk.discretize(fk.grid_kernel(gh40, table), gh40)
        assert np.max(np.abs(op2.A - mehler_op.A)) <= 1e-12 * np.max(np.abs(mehler_op.A))

    def test_shape_mismatch(self, gl8):
        with pytest.raises(InvalidArgumentError):
            fk.grid_kernel(gl8, np.zeros((3, 8)))

    def test_off_grid_evaluation_rejected(self):
        rule = fk.discrete_measure([0.0, 1.0], [0.5, 0.5])
        kern = fk.grid_kernel(rule, np.eye(2))
        with pytest.raises(UnsupportedKernelError):
            kern.eval_block(0.25, 0.5)


class TestBasisHelper:
    def test_shifted_legendre_on_unit_interval(self, gl8):
        e = fk.orthonormal_poly_basis(gl8, 3)
        x = gl8.nodes
        assert e[0](x) == pytest.approx(np.ones(8), abs=1e-13)
        assert e[1](x) == pytest.approx(math.sqrt(3.0) * (2 * x - 1), abs=1e-12)
        G = np.array(
            [[np.sum(gl8.weights * a(x) * b(x)) for b in e] for a in e]
        )
        assert G == pytest.approx(np.eye(3), abs=1e-13)


def _mehler_twin(y, z):
    # complex exponentials round differently on scalars and on arrays
    return np.exp(0.8j * y) * fk.mehler_kernel(0.5).body.evaluator(y, z) * np.exp(-0.8j * z)


def _block(y, z):
    return np.array([[np.exp(-(y - z) ** 2), y * z], [1j * np.sin(y + 2 * z), np.cos(y - z)]])


SAMPLED_BODIES = {
    "closed-form": lambda rule: fk.Kernel((1, 1), ClosedForm(_mehler_twin)),
    "closed-form-scalar-only": lambda rule: fk.Kernel(
        (1, 1), ClosedForm(lambda y, z: math.exp(-(y - z) ** 2) + y * z)),
    "closed-form-block": lambda rule: fk.Kernel((2, 3), ClosedForm(
        lambda y, z: np.outer([1.0, y], [z, 1j * np.exp(z), np.cos(y * z)]))),
    "finite-rank": lambda rule: fk.separable_kernel(
        [0.3 + 0.1j, -0.7], [lambda y: np.exp(0.5j * y), np.cos], [np.sin, lambda z: z * z]),
    "finite-rank-block": lambda rule: fk.separable_kernel(
        [1.0, 0.5j], [lambda y: np.array([y, np.cos(y)]), lambda y: np.stack([y, y * y], -1)],
        [lambda z: [math.sin(z), z], lambda z: np.stack([np.exp(1j * z), z], -1)], shape=(2, 2)),
    "grid": lambda rule: fk.grid_kernel(
        rule, fk.Kernel((1, 1), ClosedForm(_mehler_twin)).sample_matrix(rule)),
    "grid-block": lambda rule: fk.grid_kernel(
        rule, fk.Kernel((2, 2), ClosedForm(_block)).sample_matrix(rule), shape=(2, 2)),
}


class TestSampling:
    """Every sample comes from one routine per body, and a failing or
    wrong-sized evaluation is an EvaluationError naming the point."""

    @pytest.mark.parametrize("body", sorted(SAMPLED_BODIES))
    def test_eval_block_is_block_of_sample_matrix(self, body):
        rule = fk.gauss_legendre(16, -4.0, 4.0)
        kern = SAMPLED_BODIES[body](rule)
        K = kern.sample_matrix(rule)
        s1, s2 = kern.shape
        for i, y in enumerate(rule.nodes):
            for j, z in enumerate(rule.nodes):
                block = K[i * s1 : (i + 1) * s1, j * s2 : (j + 1) * s2]
                assert np.array_equal(kern.eval_block(float(y), float(z)), block), (i, j)

    @pytest.mark.parametrize("body", ["finite-rank", "finite-rank-block"])
    def test_eval_block_is_block_of_a_large_sample_matrix(self, body):
        """GL256: a complex sample matrix of 256 KiB or more, where numpy
        would run `coeff * outer` in place with its operands swapped."""
        rule = fk.gauss_legendre(256, -4.0, 4.0)
        kern = SAMPLED_BODIES[body](rule)
        K = kern.sample_matrix(rule)
        assert K.dtype == np.complex128 and K.nbytes >= 256 * 1024
        s1, s2 = kern.shape
        for i in range(0, rule.count, 7):
            for j in range(0, rule.count, 7):
                block = K[i * s1 : (i + 1) * s1, j * s2 : (j + 1) * s2]
                y, z = float(rule.nodes[i]), float(rule.nodes[j])
                assert np.array_equal(kern.eval_block(y, z), block), (i, j)

    @staticmethod
    def failing_kernels(fn):
        """A kernel of each evaluating body whose one function is fn."""
        ok = lambda y: y  # noqa: E731
        return {
            "closed-form": fk.Kernel((1, 1), ClosedForm(fn)),
            "closed-form-block": fk.Kernel((2, 2), ClosedForm(fn)),
            "finite-rank-right": fk.separable_kernel([1.0], [lambda y: fn(y, y)], [ok]),
            "finite-rank-left": fk.separable_kernel([1.0], [ok], [lambda z: fn(z, z)]),
        }

    @pytest.mark.parametrize("kind", ["closed-form", "closed-form-block",
                                      "finite-rank-right", "finite-rank-left"])
    def test_raising_evaluation(self, kind, gl8):
        def fn(y, z):
            raise RuntimeError("evaluator is broken")

        kern = self.failing_kernels(fn)[kind]
        with pytest.raises(EvaluationError, match="evaluator is broken"):
            fk.discretize(kern, gl8)
        with pytest.raises(EvaluationError, match=r"at .* = .*evaluator is broken"):
            kern.eval_block(0.25, 0.5)

    @pytest.mark.parametrize("kind", ["closed-form", "closed-form-block",
                                      "finite-rank-right", "finite-rank-left"])
    def test_buggy_evaluator_called_once(self, kind, gl8):
        calls = []

        def fn(y, z):
            calls.append(1)
            return undefined_name  # noqa: F821

        with pytest.raises(EvaluationError, match="undefined_name") as err:
            self.failing_kernels(fn)[kind].sample_matrix(gl8)
        assert isinstance(err.value.__cause__, NameError)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["closed-form", "closed-form-block",
                                      "finite-rank-right", "finite-rank-left"])
    def test_wrong_number_of_entries(self, kind, gl8):
        # scalar-only, so every body ends at a call for one point
        kern = self.failing_kernels(lambda y, z: [math.exp(y), math.exp(z), 1.0])[kind]
        with pytest.raises(EvaluationError, match="size 3") as err:
            fk.discretize(kern, gl8)
        x0 = float(gl8.nodes[0])
        assert err.value.pair == ((x0, x0) if kind.startswith("closed-form") else None)
        with pytest.raises(EvaluationError, match="size 3"):
            kern.eval_block(0.25, 0.5)

    def test_block_layout_not_over_nodes_is_sampled_per_node(self, gl8):
        # (s, n) from node arrays is not taken for (n, s): the term is called per node
        x = gl8.nodes
        kern = fk.separable_kernel([1.0], [lambda y: np.array([y, 2 * y])],
                                   [lambda z: np.array([z, np.ones_like(z)])], shape=(2, 2))
        expected = np.outer(np.stack([x, 2 * x], -1).ravel(), np.stack([x, np.ones(8)], -1).ravel())
        assert np.array_equal(kern.sample_matrix(gl8), expected)

    def test_scalar_only_evaluator_call_count(self, gl8):
        calls = []

        def evaluator(y, z):
            calls.append(1)
            return math.exp(y * z)

        K = fk.Kernel((1, 1), ClosedForm(evaluator)).sample_matrix(gl8)
        assert len(calls) == 1 + 64  # one try on the meshgrid, then pair by pair
        assert np.array_equal(K, [[math.exp(y * z) for z in gl8.nodes] for y in gl8.nodes])

    @pytest.mark.parametrize("y, z", [(float("nan"), 0.5), (0.5, float("inf")),
                                      (np.array([0.5]), 0.5), (0.5, 1j), ("0.5", 0.5),
                                      (10 ** 400, 0.5)])
    def test_eval_block_needs_finite_real_points(self, y, z):
        with pytest.raises(InvalidArgumentError):
            fk.mehler_kernel(0.5).eval_block(y, z)


def _powerit_block(y, z):
    """A block-powerit-style 2 x 2 block S diag(m1, m2) S^-1 of two Mehler
    kernels, S = [[2, 1], [1, 1]], from scalars only (math.exp)."""
    m1 = math.exp((1.2 * y * z - 0.36 * (y * y + z * z)) / 1.28) / 0.8
    m2 = 0.8 * math.exp((-y * z - 0.25 * (y * y + z * z)) / 1.5) / math.sqrt(0.75)
    return [[2 * m1 - m2, 2 * (m2 - m1)], [m1 - m2, 2 * m2 - m1]]


@pytest.fixture(scope="module")
def gh256():
    return fk.gauss_hermite_prob(256)


@pytest.fixture(scope="module")
def powerit_K(gh256):
    """The block samples on GH256 and the number of evaluator calls made."""
    calls = []

    def evaluator(y, z):
        calls.append(1)
        return _powerit_block(y, z)

    return fk.Kernel((2, 2), ClosedForm(evaluator)).sample_matrix(gh256), len(calls)


class TestBlockSamplingAtScale:
    """Block kernels are sampled one row of pairs at a time, at the size the
    block-powerit benchmark samples: 256 nodes, 65,536 pairs."""

    def test_matches_per_pair_oracle(self, gh256, powerit_K):
        K, calls = powerit_K
        x = gh256.nodes
        oracle = np.empty((256, 2, 256, 2))
        for i, y in enumerate(x):
            for j, z in enumerate(x):
                oracle[i, :, j] = _evaluate(_powerit_block, (y, z), (2, 2))
        assert K.dtype == np.float64 and K.shape == (512, 512) and K.flags.c_contiguous
        assert K.tobytes() == oracle.tobytes()
        assert calls == 256 ** 2

    def test_complex_value_in_the_last_row(self, gh256, powerit_K):
        x = gh256.nodes
        last = (x[-1], x[-1])

        def evaluator(y, z):
            block = _powerit_block(y, z)
            return np.multiply(block, 1 + 1e-3j) if (y, z) == last else block

        K = fk.Kernel((2, 2), ClosedForm(evaluator)).sample_matrix(gh256)
        real = powerit_K[0]
        assert K.dtype == np.complex128
        assert np.array_equal(K[:, :-2], real[:, :-2]) and np.array_equal(K[:-2], real[:-2])
        assert np.array_equal(K[-2:, -2:], np.multiply(_powerit_block(*last), 1 + 1e-3j))

    @pytest.mark.parametrize("value", [[1.0, 2.0, 3.0], None])
    def test_bad_value_mid_row_named(self, gh256, value):
        x = gh256.nodes
        bad = (x[3], x[117])
        calls = []

        def evaluator(y, z):
            calls.append(1)
            return value if (y, z) == bad else _powerit_block(y, z)

        with pytest.raises(EvaluationError, match=r"at \(y, z\)") as err:
            fk.Kernel((2, 2), ClosedForm(evaluator)).sample_matrix(gh256)
        assert err.value.pair == bad
        assert len(calls) == 4 * 256  # the bad pair's row is called once, in full


class TestRealFiniteRankFill:
    def test_real_terms_fill_float64_bit_for_bit(self, gl8):
        rights, lefts = [np.cos, lambda y: y], [np.sin, lambda z: z * z]
        kern = fk.separable_kernel([0.5, -0.25], rights, lefts)
        K = kern.sample_matrix(gl8)
        x = gl8.nodes
        complex_fill = np.zeros((8, 8), dtype=complex)
        for c, r, l in zip([0.5 + 0j, -0.25 + 0j], rights, lefts):
            complex_fill += c * np.outer(r(x), np.conj(l(x)))
        assert K.dtype == np.float64 and not complex_fill.imag.any()
        assert K.tobytes() == complex_fill.real.tobytes()

    @pytest.mark.parametrize("coeffs, right", [([0.5 + 1e-300j, 1.0], np.cos),
                                               ([0.5, 1.0], lambda y: np.exp(1e-3j * y))])
    def test_complex_coefficient_or_values_stay_complex(self, gl8, coeffs, right):
        kern = fk.separable_kernel(coeffs, [right, np.sin], [np.cos, np.sin])
        assert kern.sample_matrix(gl8).dtype == np.complex128

    def test_peak_memory_at_most_mehler(self):
        """A real separable kernel allocates float64 K and one term buffer, no
        more than the meshgrid of a closed-form kernel on the same rule."""
        rule = fk.gauss_legendre(1024, -1.0, 1.0)
        kernels = [fk.separable_kernel([0.5, -0.25], [np.cos, lambda y: y],
                                       [np.sin, lambda z: z * z]),
                   fk.mehler_kernel(0.5)]
        peaks = []
        for kern in kernels:
            tracemalloc.start()
            fk.discretize(kern, rule)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestGridTable:
    def test_table_is_copied_and_read_only(self):
        rule = fk.discrete_measure([0.0, 1.0], [0.5, 0.5])
        table = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        kern = fk.grid_kernel(rule, table)
        table[0, 0] = 99.0
        assert kern.eval_block(0.0, 0.0)[0, 0] == 1.0
        assert fk.discretize(kern, rule).K[0, 0] == 1.0
        with pytest.raises(ValueError):
            kern.body.table[0, 0] = 5.0

    def test_eval_block_is_not_a_view(self):
        rule = fk.discrete_measure([0.0, 1.0], [0.5, 0.5])
        kern = fk.grid_kernel(rule, np.array([[1.0, 2.0], [3.0, 4.0]]))
        block = kern.eval_block(1.0, 0.0)
        block[0, 0] = 99.0
        assert kern.eval_block(1.0, 0.0)[0, 0] == 3.0

    def test_other_rule_rejected(self, gl8):
        kern = fk.grid_kernel(gl8, np.eye(8))
        with pytest.raises(UnsupportedKernelError):
            kern.sample_matrix(fk.gauss_legendre(8, 0.0, 2.0))


class TestBlockShape:
    @pytest.mark.parametrize("shape", [(2,), (1, 1, 1), (1.5, 1), (True, 1), (1, False),
                                       (0, 1), (1, -2), "ab", 2, None, (1, "1")])
    def test_rejected(self, shape):
        with pytest.raises(InvalidArgumentError, match="block shape"):
            fk.Kernel(shape, ClosedForm(lambda y, z: y * z))

    def test_integers_kept_as_a_tuple(self):
        kern = fk.Kernel([np.int64(2), 3], ClosedForm(lambda y, z: np.zeros((2, 3))))
        assert kern.shape == (2, 3) and all(type(s) is int for s in kern.shape)
