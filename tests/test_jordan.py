import numpy as np
import pytest

import fredkit as fk
from fredkit.errors import (
    ClusteringError,
    ConvergenceError,
    InvalidArgumentError,
    UnsupportedProfileError,
)
from fredkit.jordan import binomial


def random_block_matrix(rng, blocks, cond_max=300.0):
    s = sum(m for _, m in blocks)
    J = np.zeros((s, s), dtype=complex)
    i = 0
    for lam, m in blocks:
        J[i : i + m, i : i + m] = fk.jordan_block(lam, m)
        i += m
    while True:
        S = rng.normal(size=(s, s))
        if np.max(np.abs(np.asarray(J).imag)) > 0:
            S = S + 0.3j * rng.normal(size=(s, s))
        if np.linalg.cond(S) <= cond_max:
            return S @ J @ np.linalg.inv(S), J


class TestJordanBlock:
    def test_size_one(self):
        assert np.array_equal(fk.jordan_block(3.5, 1), np.array([[3.5 + 0j]]))

    def test_two_by_two(self):
        assert np.array_equal(
            fk.jordan_block(2.0, 2), np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
        )

    def test_nilpotent_cube(self):
        U3 = fk.jordan_block(0.0, 3)
        assert np.all(np.linalg.matrix_power(U3, 3) == 0)

    def test_bad_size(self):
        with pytest.raises(InvalidArgumentError):
            fk.jordan_block(1.0, 0)


class TestJordanBlockPower:
    def test_cube_of_two_block(self):
        # oracle: direct multiplication of [[2,1],[0,2]] three times
        J = fk.jordan_block(2.0, 2)
        want = J @ J @ J
        got = fk.jordan_block_power(2.0, 2, 3)
        assert np.array_equal(got, want)
        assert got == pytest.approx(np.array([[8.0, 12.0], [0.0, 8.0]]))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 19])
    def test_two_block_closed_form(self, n):
        lam = 0.7 - 0.2j
        got = fk.jordan_block_power(lam, 2, n)
        want = np.array(
            [[lam ** n, n * lam ** (n - 1) if n else 0.0], [0.0, lam ** n]]
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_binomial_row(self):
        got = fk.jordan_block_power(1.0, 3, 2)
        want = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 1j])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_repeated_multiplication(self, lam, m):
        J = fk.jordan_block(lam, m)
        acc = np.eye(m, dtype=complex)
        for n in range(21):
            got = fk.jordan_block_power(lam, m, n)
            scale = max(np.max(np.abs(acc)), 1.0)
            assert np.max(np.abs(got - acc)) <= 1e-12 * scale
            acc = acc @ J

    def test_nilpotent_shift_structure(self):
        # (U_m^a)_{jk} = delta_{j,k-a}, and U_m^m = 0
        for m in range(1, 5):
            for a in range(m):
                Ua = fk.jordan_block_power(0.0, m, a)
                want = np.zeros((m, m))
                idx = np.arange(m - a)
                want[idx, idx + a] = 1.0
                assert np.array_equal(Ua, want)
            assert np.all(fk.jordan_block_power(0.0, m, m) == 0)

    def test_binomial_large_n(self):
        assert binomial(10 ** 6, 2) == pytest.approx(499999500000.0, rel=1e-12)
        assert binomial(50, 2) == 1225.0


class TestJordanDecompose:
    def test_diagonalizable(self):
        jf = fk.jordan_decompose(np.diag([3.0, 1.0]))
        assert jf.blocks == ((3.0 + 0j, 1), (1.0 + 0j, 1))
        assert np.max(np.abs(np.abs(jf.P) - np.eye(2))) <= 1e-12

    def test_already_jordan(self):
        N = np.array([[0.5, 1.0], [0.0, 0.5]])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        assert len(jf.blocks) == 1
        lam, m = jf.blocks[0]
        assert m == 2 and lam == pytest.approx(0.5, abs=1e-10)
        rec = jf.P @ jf.assemble_j() @ jf.Q.conj().T
        assert np.max(np.abs(rec - N)) <= 1e-9

    def test_similarity_round_trip(self):
        rng = np.random.default_rng(17)
        N, _ = random_block_matrix(rng, [(0.5, 2)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        assert [m for _, m in jf.blocks] == [2]
        assert jf.blocks[0][0] == pytest.approx(0.5, abs=1e-9)
        rec = jf.P @ jf.assemble_j() @ jf.Q.conj().T
        assert np.linalg.norm(rec - N) <= 1e-9 * np.linalg.norm(N)

    @pytest.mark.parametrize(
        "blocks,ctol",
        [
            ([(1.0, 3)], 1e-4),
            ([(1.0, 2), (1.0, 1)], 1e-5),
            ([(2.0, 2), (-1.0, 2), (0.3, 1)], 1e-5),
            ([(1.0 + 1.0j, 2), (0.5, 1)], 1e-5),
            ([(1.0, 1), (1.0, 1), (0.2, 2)], 1e-5),
        ],
    )
    def test_structures_recovered(self, blocks, ctol):
        rng = np.random.default_rng(23)
        for _ in range(5):
            N, _ = random_block_matrix(rng, blocks)
            jf = fk.jordan_decompose(N, cluster_tol=ctol)
            got = sorted(
                ((round(l.real, 4), round(l.imag, 4)), m) for l, m in jf.blocks
            )
            want = sorted(
                ((round(complex(l).real, 4), round(complex(l).imag, 4)), m)
                for l, m in blocks
            )
            assert got == want
            rec = jf.P @ jf.assemble_j() @ jf.Q.conj().T
            assert np.linalg.norm(rec - N) <= 1e-9 * np.linalg.norm(N)

    def test_chain_relations(self):
        rng = np.random.default_rng(29)
        N, _ = random_block_matrix(rng, [(1.0, 3), (0.2, 1)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-4)
        i = 0
        for lam, m in jf.blocks:
            prev = np.zeros(jf.dim, dtype=complex)
            for k in range(m):
                p = jf.P[:, i + k]
                assert np.linalg.norm(N @ p - lam * p - prev) <= 1e-7
                prev = p
            i += m

    def test_adjoint_chain_relations(self):
        rng = np.random.default_rng(31)
        N, _ = random_block_matrix(rng, [(1.0, 3), (0.2, 1)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-4)
        i = 0
        for lam, m in jf.blocks:
            for k in range(m):
                q = jf.Q[:, i + k]
                nxt = jf.Q[:, i + k + 1] if k + 1 < m else np.zeros(jf.dim, complex)
                res = N.conj().T @ q - np.conj(lam) * q - nxt
                assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(jf.Q)
            i += m

    def test_biorthogonality(self):
        rng = np.random.default_rng(37)
        N, _ = random_block_matrix(rng, [(2.0, 2), (0.5, 1)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        G = jf.Q.conj().T @ jf.P
        assert np.max(np.abs(G - np.eye(jf.dim))) <= 1e-9

    def test_ambiguous_clusters_rejected(self):
        N = np.diag([1.0, 1.0 + 5e-7])
        with pytest.raises(ClusteringError, match="gap"):
            fk.jordan_decompose(N, cluster_tol=1e-7)

    def test_desk_scale_limit(self):
        with pytest.raises(InvalidArgumentError):
            fk.jordan_decompose(np.eye(65))

    def test_zero_matrix(self):
        jf = fk.jordan_decompose(np.zeros((3, 3)))
        assert sorted(m for _, m in jf.blocks) == [1, 1, 1]
        assert all(lam == 0 for lam, _ in jf.blocks)

    def test_nilpotent_block(self):
        jf = fk.jordan_decompose(np.diag([1.0, 1.0], 1), cluster_tol=1e-5)
        assert [m for _, m in jf.blocks] == [3]
        assert abs(jf.blocks[0][0]) <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_refused_before_lapack(self, bad, monkeypatch):
        # a NaN made LAPACK's SVD fail to converge, an inf failed its input check
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite matrix")

        for name in ("norm", "eigvals", "svd", "qr", "lstsq", "inv"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        N = np.diag([1.0, 1.0], 1).astype(complex)
        N[2, 0] = bad
        with pytest.raises(InvalidArgumentError, match="not finite"):
            fk.jordan_decompose(N)

    @pytest.mark.parametrize("name", ["eigvals", "svd", "qr", "lstsq", "inv"])
    def test_lapack_failure_is_convergence_error(self, name, monkeypatch):
        # no finite input is known to make the others fail (inv's is in
        # test_singular_chain_matrix_is_convergence_error), so each is made
        # to fail in turn on a matrix whose decomposition calls all of them
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{name} failed")

        N = np.diag([0.5, 0.5, 0.5, 0.2]) + np.diag([1.0, 0.0, 0.0], 1)
        assert [m for _, m in fk.jordan_decompose(N, cluster_tol=1e-5).blocks] == [2, 1, 1]
        monkeypatch.setattr(np.linalg, name, fails)
        with pytest.raises(ConvergenceError, match=f"{name} failed") as err:
            fk.jordan_decompose(N, cluster_tol=1e-5)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_singular_chain_matrix_is_convergence_error(self):
        """A finite input whose inv(P) is exactly singular.  diag(0.99, 1, 1,
        1.01, 1e6) puts the four values near 1 in one cluster (radius
        1e-7 * 1e6), the rank thresholds 1e-10 ||S^k|| read kernel dims
        [2, 4] there, so two blocks of size 2, and each chain's second
        vector is the zero least-squares solution, whose residual
        ||p_1|| = 1 is within 1e-6 ||N||: P has two zero columns."""
        with pytest.raises(ConvergenceError, match="Singular matrix") as err:
            fk.jordan_decompose(np.diag([0.99, 1.0, 1.0, 1.01, 1e6]))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_growing_staircase_refused(self):
        """diag(1, 1 + 4e-10, 2): the two values near 1 form one cluster whose
        kernel dims read [0, 2], since 2e-10 ||S|| clears the rank threshold
        and its square does not; no Jordan structure has them."""
        with pytest.raises(ClusteringError, match=r"kernel dims \[0, 2\], whose increments grow"):
            fk.jordan_decompose(np.diag([1.0, 1.0 + 4e-10, 2.0]))

    def test_overflowing_rank_tolerance_refused(self):
        # rho = 1 <= 1e-10 ||N|| takes N as nilpotent, one cluster of two, so
        # the staircase reaches k = 2, where ||N - lambda I||^2 ~ 2^2000
        with pytest.raises(InvalidArgumentError, match=r"\|\|N - lambda I\|\|\^2 overflows"):
            fk.jordan_decompose([[1, 2 ** 1000], [0, 0.5]], cluster_tol=1e-3)


class TestMatrixPowerViaJordan:
    def test_zeroth_power(self):
        rng = np.random.default_rng(41)
        N, _ = random_block_matrix(rng, [(0.5, 2), (0.1, 1)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        assert np.max(np.abs(fk.matrix_power_via_jordan(jf, 0) - np.eye(3))) <= 1e-10

    def test_first_power(self):
        rng = np.random.default_rng(43)
        N, _ = random_block_matrix(rng, [(0.5, 2), (0.1, 1)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        assert np.max(np.abs(fk.matrix_power_via_jordan(jf, 1) - N)) <= 1e-10

    def test_tenth_power_matches_oracle(self):
        rng = np.random.default_rng(47)
        N, _ = random_block_matrix(rng, [(0.5, 2)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        want = np.linalg.matrix_power(N, 10)
        got = fk.matrix_power_via_jordan(jf, 10)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(np.max(np.abs(want)), 1.0)


class TestDefectiveAsymptotic:
    def test_single_two_block(self):
        jf = fk.jordan_decompose(np.array([[0.5, 1.0], [0.0, 0.5]]), cluster_tol=1e-5)
        D, env = fk.defective_asymptotic(jf, 100)
        assert env == pytest.approx(100 * 0.5 ** 99, rel=1e-12)
        exact = fk.jordan_block_power(0.5, 2, 100)
        assert np.max(np.abs(exact - env * D)) <= 1e-2 * env

    def test_diagonalizable_reduces_to_top_tier_sum(self):
        N = np.diag([0.5, -0.5, 0.1])
        jf = fk.jordan_decompose(N)
        D, env = fk.defective_asymptotic(jf, 7)
        assert env == pytest.approx(0.5 ** 7)
        # C_n with phases 0 and pi at n = 7: diag(1, -1, 0)
        assert D == pytest.approx(np.diag([1.0, -1.0, 0.0]), abs=1e-10)

    def test_j3_envelope_and_corner(self):
        jf = fk.jordan_decompose(fk.jordan_block(1.0, 3), cluster_tol=1e-4)
        D, env = fk.defective_asymptotic(jf, 50)
        assert env == pytest.approx(1225.0, rel=1e-12)
        exact = fk.jordan_block_power(1.0, 3, 50)
        assert exact[0, 2] == pytest.approx(1225.0)
        assert (env * D)[0, 2] == pytest.approx(1225.0, rel=1e-9)

    def test_ratio_tends_to_one(self):
        rng = np.random.default_rng(53)
        N, _ = random_block_matrix(rng, [(0.5, 2), (0.1, 1)])
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        for n in (40, 80):
            D, env = fk.defective_asymptotic(jf, n)
            exact = np.linalg.matrix_power(N, n)
            rel = np.linalg.norm(exact - env * D) / (env * np.linalg.norm(D))
            assert rel <= 5.0 / n

    def test_tie_rejected(self):
        # one eigenvalue with two maximal blocks breaks the enumeration
        N = np.zeros((4, 4), dtype=complex)
        N[:2, :2] = fk.jordan_block(1.0, 2)
        N[2:, 2:] = fk.jordan_block(1.0, 2)
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        with pytest.raises(UnsupportedProfileError):
            fk.defective_asymptotic(jf, 10)

    def test_distinct_phases_supported(self):
        N = np.zeros((4, 4), dtype=complex)
        N[:2, :2] = fk.jordan_block(0.5, 2)
        N[2:, 2:] = fk.jordan_block(-0.5, 2)
        jf = fk.jordan_decompose(N, cluster_tol=1e-5)
        D, env = fk.defective_asymptotic(jf, 30)
        exact = np.linalg.matrix_power(N, 30)
        assert np.max(np.abs(exact - env * D)) <= 0.1 * env


class TestLiftToKernel:
    def test_single_block_matches_defective_kernel(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 2)
        k1 = fk.lift_to_kernel([(0.5, 2)], basis, gl8)
        k2 = fk.defective_kernel(0.5, 2, basis, gl8)
        assert np.array_equal(k1.sample_matrix(gl8), k2.sample_matrix(gl8))

    def test_diagonal_blocks_give_djf(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 2)
        kern = fk.lift_to_kernel([(0.5, 1), (0.25, 1)], basis, gl8)
        d = fk.djf_eig(fk.discretize(kern, gl8))
        assert d.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
        assert d.eigenvalues[1] == pytest.approx(0.25, abs=1e-12)

    def test_mixed_blocks_growth_envelope(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 3)
        kern = fk.lift_to_kernel([(0.5, 2), (0.1, 1)], basis, gl8)
        op = fk.discretize(kern, gl8)
        sw = np.sqrt(gl8.weights)
        ratios = []
        for n in (20, 40, 60):
            Kn = fk.iterated_kernel(op, n)
            nrm = np.linalg.norm(sw[:, None] * Kn * sw[None, :])
            ratios.append(nrm / (n * 0.5 ** (n - 1)))
        assert ratios[2] == pytest.approx(ratios[1], rel=3e-2)

    def test_operator_jordan_structure_recovered(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 3)
        kern = fk.lift_to_kernel([(0.5, 2), (0.1, 1)], basis, gl8)
        op = fk.discretize(kern, gl8)
        jf = fk.jordan_decompose(op.A, cluster_tol=1e-5)
        nonzero = [(lam, m) for lam, m in jf.blocks if abs(lam) > 1e-8]
        nonzero.sort(key=lambda t: -abs(t[0]))
        assert len(nonzero) == 2
        assert nonzero[0][0] == pytest.approx(0.5, abs=1e-9)
        assert nonzero[0][1] == 2
        assert nonzero[1][0] == pytest.approx(0.1, abs=1e-9)
        assert nonzero[1][1] == 1

    def test_basis_length_checked(self, gl8):
        basis = fk.orthonormal_poly_basis(gl8, 2)
        with pytest.raises(InvalidArgumentError):
            fk.lift_to_kernel([(0.5, 3)], basis, gl8)
