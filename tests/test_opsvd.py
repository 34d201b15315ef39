import math

import numpy as np
import pytest

import fredkit as fk
from fredkit.errors import InvalidArgumentError

from conftest import symmetrized, wfro
from test_conventions import UNIT, skew_kernel


def gram_oracle(op, n, side="left"):
    """Kernel samples of (N N^*)^n by direct composition.

    The first Gram kernel is int N(y,x) N(z,x)^* dmu(x) -> K W K^H; each
    further application composes through the measure: M_{j+1} = (M_j W) M_1.
    """
    if side == "left":
        M1 = op.K @ (op.w_cols[:, None] * op.K.conj().T)
        w = op.w_rows
    else:
        M1 = op.K.conj().T @ (op.w_rows[:, None] * op.K)
        w = op.w_cols
    out = M1
    for _ in range(n - 1):
        out = (out * w[None, :]) @ M1
    return out


class TestOperatorSVD:
    def test_rank_one_triple(self, yz2_op, gl8):
        # oracle: theta_1 = ||y|| * ||z^2|| = sqrt(1/3) * sqrt(1/5) = 1/sqrt(15)
        sv = fk.operator_svd(yz2_op)
        assert sv.singular_values[0] == pytest.approx(1.0 / math.sqrt(15.0), abs=1e-12)
        assert sv.rank_numerical == 1
        x = gl8.nodes
        p = sv.left[:, 0].real
        q = sv.right[:, 0].real
        ref_p = math.sqrt(3.0) * x
        ref_q = math.sqrt(5.0) * x ** 2
        assert min(np.max(np.abs(p - ref_p)), np.max(np.abs(p + ref_p))) <= 1e-10
        assert min(np.max(np.abs(q - ref_q)), np.max(np.abs(q + ref_q))) <= 1e-10

    def test_mehler_psd_svd_equals_spectrum(self, mehler_op):
        sv = fk.operator_svd(mehler_op)
        for j in range(6):
            assert abs(sv.singular_values[j] - 0.5 ** j) <= 1e-6 * 0.5 ** j

    def test_zero_kernel(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        sv = fk.operator_svd(op)
        assert np.all(sv.singular_values == 0)
        assert sv.rank_numerical == 0

    @pytest.mark.parametrize("name", ["mehler_op", "pm_half_op", "two_term_op"])
    def test_families_are_read_only(self, name, request):
        """On the Hermitian route (Mehler, and +-1/2, whose q folds a sign)
        and off it (two_term), as every decomposition's families are."""
        sv = fk.operator_svd(request.getfixturevalue(name))
        assert (sv.right is sv.left) == (name == "mehler_op")
        for X in (sv.left, sv.right):
            assert not X.flags.writeable
            with pytest.raises(ValueError):
                X[0, 0] = 0.0

    def test_weighted_orthonormality(self, two_term_op):
        sv = fk.operator_svd(two_term_op)
        w = sv.w_rows
        for V in (sv.left, sv.right):
            G = V.conj().T @ (w[:, None] * V)
            assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-10

    def test_triple_relations(self, two_term_op):
        sv = fk.operator_svd(two_term_op)
        t1 = sv.singular_values[0]
        for j in range(sv.rank_numerical):
            th = sv.singular_values[j]
            r1 = fk.apply(two_term_op, sv.right[:, j]) - th * sv.left[:, j]
            r2 = fk.apply_adjoint(two_term_op, sv.left[:, j]) - th * sv.right[:, j]
            assert np.linalg.norm(r1) <= 1e-9 * t1
            assert np.linalg.norm(r2) <= 1e-9 * t1

    def test_gram_eigen_consistency(self, two_term_op):
        sv = fk.operator_svd(two_term_op)
        B = symmetrized(two_term_op)
        G = B @ B.conj().T
        evals = np.sort(np.linalg.eigvalsh(G))[::-1]
        theta2 = np.sort(sv.singular_values ** 2)[::-1]
        assert np.max(np.abs(evals - theta2)) <= 1e-9 * max(theta2[0], 1e-300)

    def test_reconstruction(self, mehler_op, two_term_op):
        for op in (mehler_op, two_term_op):
            sv = fk.operator_svd(op)
            r = sv.rank_numerical
            rec = (sv.left[:, :r] * sv.singular_values[:r][None, :]) @ sv.right[
                :, :r
            ].conj().T
            assert wfro(op, rec - op.K) <= 1e-8 * wfro(op, op.K)


class TestIteratedGram:
    def test_rank_one_closed_form(self, yz2_op, gl8):
        # single term: theta^2 * (sqrt(3) y)(sqrt(3) y')^* = (1/15) * 3 y y'
        sv = fk.operator_svd(yz2_op)
        got = fk.iterated_gram(sv, 1, side="left")
        x = gl8.nodes
        want = (1.0 / 15.0) * 3.0 * np.outer(x, x)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_dense_oracle(self, mehler_op, n, side):
        sv = fk.operator_svd(mehler_op)
        got = fk.iterated_gram(sv, n, side=side)
        want = gram_oracle(mehler_op, n, side=side)
        assert wfro(mehler_op, got - want) <= 1e-9 * wfro(mehler_op, want)

    def test_zero_kernel(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        sv = fk.operator_svd(op)
        assert np.all(fk.iterated_gram(sv, 2) == 0)

    def test_iterate_bound(self, yz2_op):
        sv = fk.operator_svd(yz2_op)
        with pytest.raises(InvalidArgumentError):
            fk.iterated_gram(sv, 0)


class TestIteratedGramWithKernel:
    def test_zeroth_reproduces_kernel(self, two_term_op):
        sv = fk.operator_svd(two_term_op)
        got = fk.iterated_gram_with_kernel(sv, 0, side="left")
        assert wfro(two_term_op, got - two_term_op.K) <= 1e-9 * wfro(
            two_term_op, two_term_op.K
        )

    def test_rank_one_scaling(self, yz2_op):
        # theta^3 = theta * theta^2 shrinks K by theta^2 = 1/15
        sv = fk.operator_svd(yz2_op)
        got = fk.iterated_gram_with_kernel(sv, 1, side="left")
        assert np.max(np.abs(got - yz2_op.K / 15.0)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_composition_oracle(self, mehler_op, n):
        sv = fk.operator_svd(mehler_op)
        got = fk.iterated_gram_with_kernel(sv, n, side="left")
        G = gram_oracle(mehler_op, n, side="left")
        want = (G * mehler_op.w_rows[None, :]) @ mehler_op.K
        assert wfro(mehler_op, got - want) <= 1e-10 * wfro(mehler_op, want)


class TestGramApply:
    def test_singular_vector_eigenrelation(self, two_term_op):
        sv = fk.operator_svd(two_term_op)
        p1 = sv.left[:, 0]
        for n in (0, 1, 3):
            got = fk.gram_apply(sv, n, p1, side="left")
            want = sv.singular_values[0] ** (2 * n) * p1
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_orthogonal_input_annihilated(self, yz2_op, gl8):
        sv = fk.operator_svd(yz2_op)
        w = sv.w_rows
        f = np.ones(8, dtype=complex)
        f -= sv.left[:, 0] * np.sum(w * np.conj(sv.left[:, 0]) * f)
        got = fk.gram_apply(sv, 2, f, side="left")
        assert np.max(np.abs(got)) <= 1e-12

    def test_matches_dense_oracle_full_rank(self, mehler_op):
        rng = np.random.default_rng(12)
        sv = fk.operator_svd(mehler_op)
        f = rng.normal(size=40) + 1j * rng.normal(size=40)
        got = fk.gram_apply(sv, 2, f, side="left")
        want = f.copy()
        for _ in range(2):
            want = fk.apply(mehler_op, fk.apply_adjoint(mehler_op, want))
        w = mehler_op.w_rows
        err = np.sqrt(np.sum(w * np.abs(got - want) ** 2))
        ref = np.sqrt(np.sum(w * np.abs(want) ** 2))
        assert err <= 1e-9 * ref

    def test_semigroup_in_retained_span(self, two_term_op):
        rng = np.random.default_rng(13)
        sv = fk.operator_svd(two_term_op)
        f = fk.gram_apply(sv, 0, rng.normal(size=8), side="left")  # project
        one_then_one = fk.gram_apply(sv, 1, fk.gram_apply(sv, 1, f))
        two = fk.gram_apply(sv, 2, f)
        assert np.max(np.abs(one_then_one - two)) <= 1e-10

    def test_length_checked(self, yz2_op):
        sv = fk.operator_svd(yz2_op)
        with pytest.raises(InvalidArgumentError):
            fk.gram_apply(sv, 1, np.ones(5))


class TestTracePower:
    def test_rank_one_value(self, yz2_op):
        # oracle: int int N^2 = (1/3)(1/5) = 1/15
        sv = fk.operator_svd(yz2_op)
        assert fk.trace_power(sv, 0) == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_zero_kernel(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        assert fk.trace_power(fk.operator_svd(op), 0) == 0.0

    def test_mehler_geometric_sum(self, mehler_op):
        # oracle: sum_j r^{2j} = 1/(1 - 1/4) = 4/3
        sv = fk.operator_svd(mehler_op)
        assert fk.trace_power(sv, 0) == pytest.approx(4.0 / 3.0, abs=1e-5)

    def test_matches_diagonal_quadrature(self, mehler_op):
        # cross-check against quadrature of the iterated kernel's diagonal
        sv = fk.operator_svd(mehler_op)
        G = gram_oracle(mehler_op, 1, side="left")
        M = (G * mehler_op.w_rows[None, :]) @ mehler_op.K  # theta^(2+1) kernel
        T = mehler_op.K.conj().T  # one more adjoint factor for theta^(2n+2)
        diag_kernel = (T * mehler_op.w_cols[None, :]) @ M
        quad = float(np.sum(mehler_op.rule.weights * np.diag(diag_kernel)).real)
        assert fk.trace_power(sv, 1) == pytest.approx(quad, rel=1e-10)

    def test_decay(self, mehler_op):
        sv = fk.operator_svd(mehler_op)
        t1sq = sv.singular_values[0] ** 2
        prev = fk.trace_power(sv, 0)
        for n in range(1, 51):
            cur = fk.trace_power(sv, n)
            assert cur <= t1sq * prev * (1 + 1e-12)
            prev = cur


# benchmark-size operators: Mehler r = 0.5 on the route, the real skew
# kernel e^{0.2y} M(y, z) e^{-0.2z} off it
TRACE_OPERATORS = {
    "mehler-gh64": lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(64)),
    "mehler-gh256": lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(256)),
    "skew-gl64": lambda: fk.discretize(skew_kernel(0.2), fk.gauss_legendre(64, -4.0, 4.0)),
    "skew-gl256": lambda: fk.discretize(skew_kernel(0.2), fk.gauss_legendre(256, -4.0, 4.0)),
    "mehler-gl1024": lambda: fk.discretize(fk.mehler_kernel(0.5),
                                           fk.gauss_legendre(1024, -4.0, 4.0)),
}


@pytest.mark.parametrize("case", TRACE_OPERATORS)
def test_trace_identities_at_benchmark_scale(case):
    """sum theta_j^2 = ||B||_F^2, and trace_power(k) = sum_j mu_j^(k+1) with
    the squared singular values mu_j from eigvalsh of the test's own B:
    nu_j^2 of B on the Hermitian route, the eigenvalues of B^H B off it.

    The bounds are test_djf_general's: a singular value moves by at most
    delta = (kappa + 1) n u ||B||_F with kappa = 1, the backward error of
    the decomposition and of the reference, plus on the route the distance
    ||B - B^H||_F from B to the Hermitian matrices the two eigensolvers
    read.  So ||theta|| is within delta of ||B||_F (the Frobenius norm is
    unitarily invariant), and each theta_j^2 within eta = 4 delta ||B||_F
    of mu_j (theta_j <= ||B||_F, and B^H B rounds by n u ||B||_F^2 before
    its eigvalsh).  A sum of m-th powers then moves by
    sum_j m (mu_j + eta)^(m-1) eta, and each side rounds by (m + n) u of it.
    """
    op = TRACE_OPERATORS[case]()
    B = symmetrized(op)
    n = B.shape[0]
    hermitian = op.hermitian_to_roundoff()
    assert hermitian == case.startswith("mehler")
    sv = fk.operator_svd(op)
    norm = np.linalg.norm(B)
    delta = 2 * n * UNIT * norm + (np.linalg.norm(B - B.conj().T) if hermitian else 0.0)
    assert abs(np.linalg.norm(sv.singular_values) - norm) <= delta
    mu = np.abs(np.linalg.eigvalsh(B) ** 2 if hermitian else np.linalg.eigvalsh(B.conj().T @ B))
    eta = 4 * delta * norm
    for k in (0, 1, 2):
        m = k + 1
        ref = np.sum(mu ** m)
        bound = np.sum(m * (mu + eta) ** (m - 1) * eta) + 2 * (m + n) * UNIT * ref
        assert abs(fk.trace_power(sv, k) - ref) <= bound


class TestSvdTruncate:
    def test_full_rank_is_identity(self, two_term_op):
        sv = fk.operator_svd(two_term_op)
        trunc, tail = fk.svd_truncate(sv, sv.rank_numerical)
        assert tail <= 1e-12 * sv.singular_values[0]
        assert np.array_equal(trunc.singular_values, sv.singular_values[: sv.rank_numerical])

    def test_rank_one_exact(self, yz2_op):
        sv = fk.operator_svd(yz2_op)
        trunc, tail = fk.svd_truncate(sv, 1)
        assert tail <= 1e-12 * sv.singular_values[0]

    def test_mehler_truncation_error_tracks_tail(self, mehler_op):
        sv = fk.operator_svd(mehler_op)
        trunc, tail = fk.svd_truncate(sv, 1)
        assert tail == pytest.approx(0.5, abs=1e-6)
        n = 5
        full = fk.iterated_gram(sv, n)
        part = fk.iterated_gram(trunc, n)
        err = wfro(mehler_op, full - part)
        assert err <= 10.0 * tail ** (2 * n)
        assert err >= 0.1 * tail ** (2 * n)

    @pytest.mark.parametrize("name", ["mehler_op", "pm_half_op", "two_term_op"])
    def test_copies_once_and_keeps_the_sharing(self, name, request):
        """The kept columns are copied once, read-only, and the right family
        is the left one exactly when it was so in the input."""
        sv = fk.operator_svd(request.getfixturevalue(name))
        trunc, _ = fk.svd_truncate(sv, sv.rank_numerical)
        assert (trunc.right is trunc.left) == (sv.right is sv.left)
        for got, full in ((trunc.left, sv.left), (trunc.right, sv.right)):
            assert not got.flags.writeable and not np.shares_memory(got, full)
            assert np.array_equal(got, full[:, : sv.rank_numerical])

    def test_out_of_range(self, yz2_op):
        sv = fk.operator_svd(yz2_op)
        with pytest.raises(InvalidArgumentError):
            fk.svd_truncate(sv, 0)
        with pytest.raises(InvalidArgumentError):
            fk.svd_truncate(sv, sv.rank_numerical + 1)


def test_lapack_non_convergence_is_a_convergence_error(monkeypatch, two_term_op):
    """On an operator that is not Hermitian, where operator_svd runs svd."""
    failure = np.linalg.LinAlgError("SVD did not converge")

    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(fk.ConvergenceError, match="svd did not converge") as err:
        fk.operator_svd(two_term_op)
    assert err.value.__cause__ is failure
