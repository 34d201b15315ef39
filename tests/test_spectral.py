import math
import warnings

import numpy as np
import pytest

import fredkit as fk
from fredkit import nystrom
from fredkit.errors import (
    DefectiveSuspectedError,
    InvalidArgumentError,
    NoSpectrumError,
    WrongDecompositionError,
)
from fredkit.kernels import ClosedForm

from conftest import wfro
from test_conventions import UNIT, defective, jordan_like, twin_kernel
from test_hermitian_route import library


class TestHermitianEig:
    def test_rank_one_spectrum(self, yz_op):
        d = fk.hermitian_eig(yz_op)
        assert d.eigenvalues[0].real == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.max(np.abs(d.eigenvalues[1:])) <= 1e-12
        assert d.hermitian and d.retained == 1

    def test_mehler_geometric_spectrum(self, mehler_op):
        d = fk.hermitian_eig(mehler_op)
        for j in range(6):
            assert abs(d.eigenvalues[j].real - 0.5 ** j) <= 1e-6 * 0.5 ** j

    def test_mehler_eigenfunctions_are_hermite(self, mehler_op, gh40):
        d = fk.hermitian_eig(mehler_op)
        for j in range(5):
            ref = fk.HermitePair(j)(gh40.nodes)
            got = d.right[:, j].real
            err = min(np.max(np.abs(got - ref)), np.max(np.abs(got + ref)))
            assert err <= 1e-4

    def test_zero_kernel(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        d = fk.hermitian_eig(op)
        assert np.all(d.eigenvalues == 0)
        assert d.retained == 0

    def test_weighted_orthonormality(self, mehler_op):
        d = fk.hermitian_eig(mehler_op)
        w = d.weights
        G = d.right.conj().T @ (w[:, None] * d.right)
        assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-10

    def test_non_hermitian_rejected(self, yz2_op):
        with pytest.raises(WrongDecompositionError, match="djf_eig"):
            fk.hermitian_eig(yz2_op)


class TestDjfEig:
    def test_yz2_biorthogonal_pair(self, yz2_op, gl8):
        d = fk.djf_eig(yz2_op)
        assert d.eigenvalues[0] == pytest.approx(1.0 / 4.0, abs=1e-12)
        x = gl8.nodes
        assert d.right[:, 0].real == pytest.approx(math.sqrt(3.0) * x, abs=1e-10)
        assert d.left[:, 0].real == pytest.approx(4.0 / math.sqrt(3.0) * x ** 2, abs=1e-10)
        w = d.weights
        assert np.sum(w * np.conj(d.left[:, 0]) * d.right[:, 0]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hermitian_input_consistency(self, mehler_op):
        dh = fk.hermitian_eig(mehler_op)
        dd = fk.djf_eig(mehler_op)
        assert dd.hermitian
        for j in range(10):
            assert abs(dd.eigenvalues[j] - dh.eigenvalues[j]) <= 1e-10
        # same vectors up to phase
        for j in range(6):
            overlap = abs(
                np.sum(dd.weights * np.conj(dd.right[:, j]) * dh.right[:, j])
            )
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_defective_kernel_detected(self, defective_op):
        with pytest.raises(DefectiveSuspectedError, match="jordan"):
            fk.djf_eig(defective_op)

    def test_biorthogonality_across_gallery(self, yz_op, yz2_op, two_term_op, mehler_op):
        for op in (yz_op, yz2_op, two_term_op, mehler_op):
            d = fk.djf_eig(op)
            assert d.biorth_residual <= 1e-8

    def test_two_term_values(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        assert d.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
        assert d.eigenvalues[1] == pytest.approx(0.2, abs=1e-12)


class TestSmallEigenvaluesGH256:
    """Mehler r = 1/2 on GH256: the discrete spectrum is 2^-j to roundoff, so
    every retained eigenvalue (2^-j >= 1e-12, j < 40) sits within the
    Weyl-type bound N eps |nu_1| of 2^-j."""

    N = 256
    BOUND = N * np.finfo(float).eps

    def test_hermitian_prefix_holds_no_noise(self):
        op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(self.N))
        d = fk.hermitian_eig(op)
        assert d.retained == 40
        assert np.max(np.abs(d.eigenvalues[:40] - 0.5 ** np.arange(40))) <= self.BOUND

    def test_djf_keeps_small_distinct_eigenvalues_apart(self):
        # e^{0.2y} M(y, z) e^{-0.2z} is similar to Mehler: same spectrum,
        # non-Hermitian samples
        mehler = fk.mehler_kernel(0.5).body.evaluator
        kern = fk.Kernel((1, 1), ClosedForm(
            lambda y, z: np.exp(0.2 * y) * mehler(y, z) * np.exp(-0.2 * z)))
        d = fk.djf_eig(fk.discretize(kern, fk.gauss_hermite_prob(self.N)))
        assert d.retained == 40
        assert np.max(np.abs(d.eigenvalues[:40] - 0.5 ** np.arange(40))) <= self.BOUND


class TestAsymptoticProfile:
    def test_rank_one(self, yz_op):
        prof = fk.asymptotic_profile(fk.djf_eig(yz_op))
        assert prof.r1 == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert prof.R == 1
        assert prof.r0 == 0.0

    def test_mehler(self, mehler_op):
        prof = fk.asymptotic_profile(fk.hermitian_eig(mehler_op))
        assert prof.r1 == pytest.approx(1.0, abs=1e-7)
        assert prof.R == 1
        assert prof.r0 == pytest.approx(0.5, abs=1e-7)

    def test_symmetric_pair(self, pm_half_op):
        prof = fk.asymptotic_profile(fk.hermitian_eig(pm_half_op))
        assert prof.r1 == pytest.approx(0.5, abs=1e-12)
        assert prof.R == 2
        phases = sorted(abs(t) for t in prof.phases)
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        assert phases[1] == pytest.approx(math.pi, abs=1e-12)

    def test_no_spectrum(self, gl8):
        kern = fk.separable_kernel([0.0], [lambda y: y], [lambda z: z])
        with pytest.warns(fk.NontrivialityWarning):
            op = fk.discretize(kern, gl8)
        with pytest.raises(NoSpectrumError):
            fk.asymptotic_profile(fk.hermitian_eig(op))

    def test_coefficient_matrix_bounded(self, mehler_op):
        prof = fk.asymptotic_profile(fk.hermitian_eig(mehler_op))
        norms = [
            wfro(mehler_op, prof.coefficient_matrix(n)) for n in range(1, 201, 20)
        ]
        assert max(norms) <= 10.0 * min(norms)


class TestPowerApprox:
    def test_rank_one_exact(self, yz_op):
        d = fk.djf_eig(yz_op)
        prof = fk.asymptotic_profile(d)
        for n in (1, 3, 7):
            approx, bound = fk.power_approx(d, prof, n)
            exact = fk.iterated_kernel(yz_op, n)
            assert wfro(yz_op, exact - approx) <= 1e-12 * wfro(yz_op, exact)
            assert bound == 0.0

    def test_mehler_twenty(self, mehler_op):
        d = fk.hermitian_eig(mehler_op)
        prof = fk.asymptotic_profile(d)
        approx, bound = fk.power_approx(d, prof, 20)
        exact = fk.iterated_kernel(mehler_op, 20)
        rel = wfro(mehler_op, exact - approx) / wfro(mehler_op, exact)
        assert rel <= 0.5 ** 20 * 10.0
        assert wfro(mehler_op, exact - approx) <= bound * 1.01

    def test_alternating_pair_has_period_two(self, pm_half_op):
        d = fk.hermitian_eig(pm_half_op)
        prof = fk.asymptotic_profile(d)
        C2 = prof.coefficient_matrix(2)
        C3 = prof.coefficient_matrix(3)
        C4 = prof.coefficient_matrix(4)
        C5 = prof.coefficient_matrix(5)
        assert np.max(np.abs(C4 - C2)) <= 1e-10
        assert np.max(np.abs(C5 - C3)) <= 1e-10
        assert np.max(np.abs(C3 - C2)) > 0.1  # even/odd genuinely differ

    def test_bound_dominates_for_gallery(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        prof = fk.asymptotic_profile(d)
        for n in (2, 5, 9):
            approx, bound = fk.power_approx(d, prof, n)
            exact = fk.iterated_kernel(two_term_op, n)
            assert wfro(two_term_op, exact - approx) <= bound * 1.01 + 1e-15


class TestReconstruct:
    def test_zero_rank(self, yz_op):
        d = fk.djf_eig(yz_op)
        assert np.all(fk.reconstruct(d, 0) == 0)

    def test_rank_one_exact(self, yz2_op):
        d = fk.djf_eig(yz2_op)
        got = fk.reconstruct(d, 1)
        assert np.max(np.abs(got - yz2_op.K)) <= 1e-12 * np.max(np.abs(yz2_op.K))

    def test_mehler_truncation_tail(self, mehler_op):
        d = fk.hermitian_eig(mehler_op)
        got = fk.reconstruct(d, 12)
        rel = wfro(mehler_op, got - mehler_op.K) / wfro(mehler_op, mehler_op.K)
        r = 0.5
        assert rel <= (r ** 13 / (1 - r)) * 10.0

    def test_full_rank_reproduces_k(self, two_term_op, mehler_op):
        for op in (two_term_op, mehler_op):
            d = fk.djf_eig(op)
            got = fk.reconstruct(d, d.retained)
            assert wfro(op, got - op.K) <= 1e-8 * wfro(op, op.K)

    def test_range_checked(self, yz_op):
        d = fk.djf_eig(yz_op)
        with pytest.raises(InvalidArgumentError):
            fk.reconstruct(d, d.eigenvalues.size + 1)


class TestExpansionInvariants:
    def test_spectral_mapping(self, two_term_op, gl8):
        d = fk.djf_eig(two_term_op)
        nus = d.eigenvalues[: d.retained]
        for n in range(1, 6):
            Kn = fk.iterated_kernel(two_term_op, n)
            opn = fk.discretize(fk.grid_kernel(gl8, Kn), gl8)
            got = np.linalg.eigvals(opn.A)
            got = got[np.argsort(-np.abs(got))][: d.retained]
            want = nus ** n
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_power_expansion_applies(self, two_term_op):
        d = fk.djf_eig(two_term_op)
        rng = np.random.default_rng(8)
        w = d.weights
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        for n in (1, 3, 5):
            exact = f.copy()
            for _ in range(n):
                exact = fk.apply(two_term_op, exact)
            series = np.zeros_like(f)
            for j in range(d.retained):
                proj = np.sum(w * np.conj(d.left[:, j]) * f)
                series += d.eigenvalues[j] ** n * proj * d.right[:, j]
            scale = max(np.max(np.abs(exact)), 1e-300)
            assert np.max(np.abs(exact - series)) <= 1e-8 * scale


@pytest.mark.parametrize("name, decompose, kernel", [
    ("eigh", fk.hermitian_eig, fk.mehler_kernel(0.5)),
    ("eigh", fk.hermitian_eig, twin_kernel(0.8)),
    ("schur", fk.djf_eig, None),
    ("eig", fk.djf_eig, None),
], ids=["eigh-hermitian_eig", "eigh-hermitian_eig-twin", "schur-djf_eig", "eig-djf_eig"])
def test_lapack_non_convergence_is_a_convergence_error(monkeypatch, gh40, gl8, two_term_kernel,
                                                       name, decompose, kernel):
    failure = np.linalg.LinAlgError("Eigenvalues did not converge")

    def fail(*args, **kwargs):
        raise failure

    # on a fresh operator, since a shared one may hold its family already:
    # eigh on a Hermitian one, real (dsyevd) or complex (zheevr); the Schur
    # form of B, or the r x r eig of its retained block, on one that is not
    # Hermitian, where djf_eig runs them
    op = fk.discretize(two_term_kernel if kernel is None else kernel, gl8 if kernel is None else gh40)
    monkeypatch.setattr(library(name), name, fail)
    with pytest.raises(fk.ConvergenceError, match=f"{name} did not converge") as err:
        decompose(op)
    assert err.value.__cause__ is failure


@pytest.mark.parametrize("case", [1e-4, 1.778e-4, 2.371e-4, 3.2e-4, 1e-3, "defective"], ids=str)
def test_condition_refusal_agrees_with_two_norm_condition(monkeypatch, case):
    """djf_eig refuses when kappa n u > 1e-8, kappa = ||M||_1 ||M^{-1}||_1 for
    V = Z M with Z = [Q_t, Q_perp] unitary (the reordered Schur vectors), so
    cond_2(V) = cond_2(M) and cond_1(M) / n <= cond_2(V) <= n cond_1(M) for
    any n x n matrix.  kappa is the exact cond_1(M) up to the rounding of
    M^{-1}, about kappa u relative, and on the near-Jordan kernels that
    straddle the limit it decides as cond_2(V) would: the nearest case sits
    a factor 3.7 below the limit (delta = 1e-3) and the next a factor 2.6
    above it (delta = 3.2e-4)."""
    seen = []

    def spy(A, C, Qt, Qp):
        U, kappa = inverse_adjoint(A, C, Qt, Qp)
        seen.append((A.copy(), C.copy(), np.hstack((Qt, Qp)), kappa))
        return U, kappa

    inverse_adjoint = nystrom._inverse_adjoint
    monkeypatch.setattr(nystrom, "_inverse_adjoint", spy)
    op = defective(3) if case == "defective" else jordan_like(3, case)
    try:
        fk.djf_eig(op)
        refused = False
    except DefectiveSuspectedError as exc:
        refused = str(exc).startswith("eigenvector matrix condition ")
    (A, C, Z, kappa), = seen
    n, r = Z.shape[0], C.shape[0]
    M = np.block([[A, np.eye(n - r)], [C, np.zeros((r, n - r))]])
    assert kappa == pytest.approx(np.linalg.cond(M, 1), rel=kappa * n * UNIT)
    sv = np.linalg.svd(Z @ M, compute_uv=False)
    cond_2 = sv[0] / sv[-1]
    assert kappa / n <= cond_2 <= n * kappa
    assert refused == (kappa * n * UNIT > 1e-8) == (cond_2 * n * UNIT > 1e-8)
    assert refused == (case != 1e-3)


def test_exactly_singular_eigenvectors_refused(monkeypatch):
    """A zero eigenvector of the retained block makes V exactly singular:
    C = G is exactly zero, its inverse fails, and djf_eig refuses at
    condition inf without letting a LinAlgError or a warning through, while
    the operator keeps its spectrum."""
    rule = fk.gauss_legendre(2, 0.0, 1.0)
    x1 = rule.nodes[1]
    # rank one and zero on the second row: B = [[a, b], [0, 0]], not Hermitian,
    # so djf_eig takes the general path, with r = 1
    op = fk.discretize(fk.separable_kernel([1.0], [lambda y: y - x1], [lambda z: z]), rule)
    assert not op.hermitian_to_roundoff()
    eig = np.linalg.eig

    def zero(M):
        vals, G = eig(M)
        return vals, np.zeros_like(G)

    monkeypatch.setattr(np.linalg, "eig", zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveSuspectedError,
                           match=r"^eigenvector matrix condition inf exceeds 1e-8 / \(n u\)"):
            fk.djf_eig(op)
    family = op.general_family
    assert (family.right, family.left, family.biorth_residual) == (None, None, None)
    assert family.refusal.startswith("eigenvector matrix condition inf")
    assert np.count_nonzero(op.spectrum) == 1
