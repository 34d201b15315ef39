"""Acceptance suite: ten gate criteria, one printed pass/fail line each.

Every tolerance is pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they print.
"""
import math

import numpy as np
import pytest

import fredkit as fk

from conftest import symmetrized, wfro

EPS = np.finfo(float).eps


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"acceptance criterion {number} failed: {name}"


def gallery(gl8, gh40):
    e = fk.orthonormal_poly_basis(gl8, 3)
    return [
        ("yz", fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]), gl8)),
        ("yz2", fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z]), gl8)),
        (
            "two-term",
            fk.discretize(
                fk.separable_kernel(
                    [0.5, 0.2], [e[0], e[1]], [e[0] + 0.6 * e[2], e[1] - 0.4 * e[2]]
                ),
                gl8,
            ),
        ),
        (
            "pm-half",
            fk.discretize(fk.separable_kernel([0.5, -0.5], [e[0], e[1]], [e[0], e[1]]), gl8),
        ),
        ("mehler", fk.discretize(fk.mehler_kernel(0.5), gh40)),
    ]


def test_01_mehler_spectrum(mehler_op, gh40):
    d = fk.hermitian_eig(mehler_op)
    ok = all(
        abs(d.eigenvalues[j].real - 0.5 ** j) <= 1e-6 * 0.5 ** j for j in range(6)
    )
    for j in range(5):
        ref = fk.HermitePair(j)(gh40.nodes)
        got = d.right[:, j].real
        err = min(np.max(np.abs(got - ref)), np.max(np.abs(got + ref)))
        ok = ok and err <= 1e-4
    report(1, "Mehler spectrum r^j and Hermite eigenfunctions", ok)


def test_02_degenerate_exactness(gl8):
    yz = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]), gl8)
    d = fk.hermitian_eig(yz)
    ok = abs(d.eigenvalues[0].real - 1.0 / 3.0) <= 1e-12
    ok = ok and np.max(np.abs(d.eigenvalues[1:])) <= 1e-12

    yz2 = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z]), gl8)
    dd = fk.djf_eig(yz2)
    x = gl8.nodes
    ok = ok and abs(dd.eigenvalues[0] - 0.25) <= 1e-12
    ok = ok and np.max(np.abs(dd.right[:, 0] - math.sqrt(3.0) * x)) <= 1e-10
    ok = ok and np.max(np.abs(dd.left[:, 0] - 4.0 / math.sqrt(3.0) * x ** 2)) <= 1e-10
    report(2, "degenerate kernels: nu = 1/3 and bi-orthonormalized 1/4 pair", ok)


def test_03_resolvent_and_series(gl8, gh40):
    yz = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]), gl8)
    f = gl8.nodes.astype(complex)
    direct = fk.resolvent_solve(yz, 1.0, f).solution
    series = fk.second_kind_solve_series(fk.djf_eig(yz), 1.0, f, 1)
    ok = np.max(np.abs(direct - 1.5 * gl8.nodes)) <= 1e-10
    ok = ok and np.max(np.abs(series - 1.5 * gl8.nodes)) <= 1e-10

    rng = np.random.default_rng(2024)
    for name, op in gallery(gl8, gh40):
        nu1 = np.max(np.abs(np.linalg.eigvals(op.A)))
        scale = wfro(op, op.K)
        for _ in range(20):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.9 / nu1
            NL = fk.resolvent_kernel(op, lam)
            left = lam * (op.A @ NL)
            right = lam * ((NL * op.w_cols[None, :]) @ op.K)
            ok = ok and wfro(op, left - (NL - op.K)) <= 1e-9 * scale
            ok = ok and wfro(op, right - (NL - op.K)) <= 1e-9 * scale
    report(3, "resolvent solves, series agreement, two-sided identities", ok)


def test_04_determinant(gl8, gh40):
    from scipy.optimize import brentq

    rng = np.random.default_rng(401)
    ok = True
    for name, op in gallery(gl8, gh40):
        nu1 = np.max(np.abs(np.linalg.eigvals(op.A)))
        for _ in range(20):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.9 / nu1
            d1 = fk.fredholm_determinant(op, lam, "direct").value
            d2 = fk.fredholm_determinant(op, lam, "product").value
            ok = ok and abs(d1 - d2) <= 1e-9 * max(abs(d1), 1.0)

    yz = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]), gl8)
    root = brentq(
        lambda lam: fk.fredholm_determinant(yz, lam, "direct").value.real,
        2.5,
        3.5,
        xtol=1e-12,
    )
    ok = ok and abs(root - 3.0) <= 1e-10
    ok = ok and fk.determinant_log_derivative_check(yz, (0.0, 1.0), 200) <= 1e-6
    report(4, "determinant: direct/product, zero at 3, log-derivative path", ok)


def test_05_jordan_suite():
    ok = True
    for lam in (0.0, 0.5, 2.0, 1j):
        for m in range(1, 5):
            J = fk.jordan_block(lam, m)
            acc = np.eye(m, dtype=complex)
            for n in range(21):
                got = fk.jordan_block_power(lam, m, n)
                ok = ok and np.max(np.abs(got - acc)) <= 1e-12 * max(
                    np.max(np.abs(acc)), 1.0
                )
                acc = acc @ J

    rng = np.random.default_rng(505)
    catalog = [
        [(3.0, 1), (1.0, 1)],
        [(0.5, 2)],
        [(0.5, 2), (0.1, 1)],
        [(1.0, 3)],
        [(2.0, 2), (-1.0, 2), (0.3, 1)],
        [(1.0 + 1.0j, 2), (0.5, 1)],
        [(1.0, 1), (1.0, 1), (0.2, 2)],
        [(1.0, 2), (1.0, 1)],
    ]
    for trial in range(100):
        blocks = catalog[trial % len(catalog)]
        s = sum(m for _, m in blocks)
        J = np.zeros((s, s), dtype=complex)
        i = 0
        for lam, m in blocks:
            J[i : i + m, i : i + m] = fk.jordan_block(lam, m)
            i += m
        while True:
            S = rng.normal(size=(s, s))
            if np.max(np.abs(J.imag)) > 0:
                S = S + 0.3j * rng.normal(size=(s, s))
            if np.linalg.cond(S) <= 1e3:
                break
        N = S @ J @ np.linalg.inv(S)
        jf = fk.jordan_decompose(N, cluster_tol=1e-4)
        got = sorted(((round(l.real, 3), round(l.imag, 3)), m) for l, m in jf.blocks)
        want = sorted(
            ((round(complex(l).real, 3), round(complex(l).imag, 3)), m)
            for l, m in blocks
        )
        ok = ok and got == want
        ev_err = max(
            min(abs(complex(l) - complex(lam)) for l, _ in jf.blocks)
            for lam, _m in blocks
        )
        ok = ok and ev_err <= 1e-8
        rec = jf.P @ jf.assemble_j() @ jf.Q.conj().T
        ok = ok and np.linalg.norm(rec - N) <= 1e-8 * np.linalg.norm(N)
    report(5, "Jordan block powers and 100 decomposition round trips", ok)


def test_06_defective_asymptotics(gl8, defective_op):
    ratios = {}
    for n in (80, 100):
        Kn = fk.iterated_kernel(defective_op, n)
        ratios[n] = wfro(defective_op, Kn) / (n * 0.5 ** (n - 1))
    ok = abs(ratios[100] / ratios[80] - 1.0) < 0.01
    report(6, "lifted J2(0.5): norm envelope n * 0.5^(n-1) settles within 1%", ok)


def test_07_svd_suite(gl8, mehler_op):
    yz2 = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z * z]), gl8)
    sv = fk.operator_svd(yz2)
    ok = abs(sv.singular_values[0] - 1.0 / math.sqrt(15.0)) <= 1e-12
    ok = ok and abs(fk.trace_power(sv, 0) - 1.0 / 15.0) <= 1e-12

    svm = fk.operator_svd(mehler_op)
    ok = ok and abs(fk.trace_power(svm, 0) - 4.0 / 3.0) <= 1e-5

    for n in range(1, 6):
        got = fk.iterated_gram(svm, n, side="left")
        M1 = mehler_op.K @ (mehler_op.w_cols[:, None] * mehler_op.K.conj().T)
        want = M1
        for _ in range(n - 1):
            want = (want * mehler_op.w_rows[None, :]) @ M1
        ok = ok and wfro(mehler_op, got - want) <= 1e-9 * wfro(mehler_op, want)

    trunc, tail = fk.svd_truncate(svm, 1)
    for n in (2, 5):
        err = wfro(mehler_op, fk.iterated_gram(svm, n) - fk.iterated_gram(trunc, n))
        ok = ok and 0.1 * tail ** (2 * n) <= err <= 10.0 * tail ** (2 * n)
    report(7, "SVD: 1/sqrt(15) triple, trace powers, Gram oracle, truncation", ok)


def test_08_power_methods(gl8, mehler_op, two_term_op):
    yz = fk.discretize(fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]), gl8)
    trace = fk.power_ratio_estimate(yz, np.ones(8, dtype=complex), 50, 1e-12)
    ok = trace.converged and trace.iterations_used <= 3
    ok = ok and abs(trace.estimate - 1.0 / 3.0) <= 1e-10

    res = fk.sequential_spectrum(mehler_op, 3, 400, 1e-10)
    ok = ok and res.failure_reason is None
    for got, want in zip(res.eigenvalues, (1.0, 0.5, 0.25)):
        ok = ok and abs(got - want) <= 1e-6 * want

    d = fk.djf_eig(two_term_op)
    rank_before = fk.operator_svd(two_term_op).rank_numerical
    deflated = fk.deflate(two_term_op, d.eigenvalues[0], d.right[:, 0], d.left[:, 0])
    rank_after = fk.operator_svd(deflated).rank_numerical
    ok = ok and rank_after == rank_before - 1
    second = np.linalg.eigvals(deflated.A)
    second = second[np.argmax(np.abs(second))]
    ok = ok and abs(second - 0.2) <= 1e-10
    report(8, "power ratio 1/3 in <= 3 iters, sequential Mehler, deflation", ok)


def test_09_asymptotic_power_formula(gl8, gh40):
    ok = True
    for name, op in gallery(gl8, gh40):
        d = fk.hermitian_eig(op) if op.hermitian_defect() <= 1e-10 else fk.djf_eig(op)
        prof = fk.asymptotic_profile(d)
        approx5, _ = fk.power_approx(d, prof, 5)
        dev5 = wfro(op, fk.iterated_kernel(op, 5) - approx5)
        if prof.r0 == 0.0:
            # the tier exhausts the spectrum: the formula is exact
            ok = ok and dev5 <= 1e-11 * prof.r1 ** 5
            continue
        c = dev5 / prof.r0 ** 5
        for n in (10, 20, 40):
            approx, _ = fk.power_approx(d, prof, n)
            dev = wfro(op, fk.iterated_kernel(op, n) - approx)
            # the O(r0^n) deviation plus the rounding of n-fold float products,
            # which cannot resolve below ~ eps * r1^n: the two add
            floor = 64.0 * n * EPS * prof.r1 ** n
            ok = ok and dev <= c * prof.r0 ** n + floor
    report(9, "iterated kernels track r1^n C_n with O(r0^n) deviation", ok)


def test_10_cross_decomposition(gl8, gh40):
    ok = True
    for name, op in gallery(gl8, gh40):
        sv = fk.operator_svd(op)
        B = symmetrized(op)
        gram = B @ B.conj().T
        evals = np.sort(np.linalg.eigvalsh(gram))[::-1]
        theta2 = np.sort(sv.singular_values ** 2)[::-1]
        scale = max(theta2[0], 1e-300)
        ok = ok and np.max(np.abs(evals - theta2)) <= 1e-9 * scale

        d = fk.djf_eig(op)
        ok = ok and d.biorth_residual <= 1e-8
        if op.hermitian_defect() <= 1e-10:
            dh = fk.hermitian_eig(op)
            ok = ok and np.max(np.abs(d.eigenvalues - dh.eigenvalues)) <= 1e-10
    report(10, "theta^2 vs Gram spectrum, djf/hermitian agreement, bi-orthogonality", ok)
