"""The node partition and the deflated lambda-path, at the sizes the
lambda-sweep benchmark runs.

DiscreteOperator.node_partition drops the nodes whose rows and columns of
B = W^(1/2) K W^(1/2) carry at most u ||B||_F / sqrt(2) between them, and
every LU of I - lambda*A factors the kept block only.  The checks:

- Mehler and its twin e^{iy} M_r(y, z) e^{-iz} on the probabilists'
  Gauss-Hermite rules of 64 to 256 nodes, listed as the rule lists them
  and in reverse: the solve of (I - lambda*A) p = f for a degree-5 Hermite
  f against its closed form, within lambda-sweep's SOLVE_TOL, and D(lambda)
  against prod_j (1 - lambda r^j), within its det_bound.  At r = 0.9 no
  rule up to 256 nodes resolves the kernel to that tolerance (the
  discretization error goes as r^N, 5.7e-10 at N = 256), and none drops a
  node, so there the lambda-path is checked bit for bit instead;
- the partition is mirror-symmetric bit for bit on every such rule, and on
  Gauss-Hermite 256 it drops the 104 lightest nodes;
- a kernel whose tail rows sit exactly at the threshold drops them, and one
  ulp above it keeps what the threshold does not allow; a node with a zero
  row of B but a live column is kept;
- where nothing is dropped (every Gauss-Legendre operator here), the
  lambda-path keeps every bit of a reference built the way it was built
  before the partition, I - K_e (lambda w_e) with the nodes by decreasing
  weight, one LU of it, one refinement pass and gecon's condition estimate;
- operators off the Hermitian route (a skew similarity of Mehler, a 2 x 2
  block kernel) drop rows too, and their solves and determinants meet the
  full system's backward-error and first-order bounds;
- the condition estimate of the deflated system is never below gecon's
  estimate of the full system, which this file computes itself.
"""
import dataclasses

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from scipy.linalg import get_lapack_funcs

import fredkit as fk
from fredkit import fredholm
from fredkit.kernels import ClosedForm

from test_conventions import skew_kernel
from test_dtype import block_kernel
from test_resolvent_invariants import sweep_lambdas

U = np.finfo(float).eps / 2
SOLVE_TOL = 3e-13  # lambda-sweep's bound on a solve's max-norm relative error
DEGREE = 5
LAMBDAS = sweep_lambdas() + [0.9]
SIZES = [64, 96, 128, 200, 256]


def twin(r):
    """e^{iy} M_r(y, z) e^{-iz}: a unitary diagonal similarity of Mehler."""
    mehler = fk.mehler_kernel(r).body.evaluator
    return fk.Kernel((1, 1), ClosedForm(
        lambda y, z: np.exp(1j * y) * mehler(y, z) * np.exp(-1j * z)))


def rule_for(n, listing):
    """Gauss-Hermite n, or the same rule listed in reverse (x -> -x)."""
    rule = fk.gauss_hermite_prob(n)
    return rule if listing == "natural" else fk.discrete_measure(-rule.nodes, rule.weights)


def fredholm_det(r, lam):
    """prod_j (1 - lambda r^j) and the number of factors taken."""
    out, j = 1.0 + 0.0j, 0
    while abs(lam) * r ** j > 1e-20:
        out *= 1.0 - lam * r ** j
        j += 1
    return out, j


def det_bound(n, lam, r, factors):
    """lambda-sweep's: n u cond(I - lambda B) plus 4u per reference factor."""
    cond = (1.0 + abs(lam)) / float(np.min(np.abs(1.0 - lam * r ** np.arange(factors + 1))))
    return (n * cond + 4 * factors) * U


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module", params=["natural", "reversed"])
def listing(request):
    return request.param


@pytest.mark.parametrize("r", [0.3, 0.5, 0.6])
@pytest.mark.parametrize("n", SIZES)
def test_closed_forms(n, r, listing):
    """Solves and D(lambda) of Mehler r and its twin against their closed
    forms, at lambda-sweep's lambda, within its bounds as they stand."""
    rule = rule_for(n, listing)
    x = rule.nodes
    he = np.array([hermite_e.hermeval(x, np.eye(DEGREE + 1)[k]) for k in range(DEGREE + 1)])
    gain = r ** np.arange(DEGREE + 1)
    for kernel, phase in ((fk.mehler_kernel(r), np.ones(n)), (twin(r), np.exp(1j * x))):
        op = fk.discretize(kernel, rule)
        for i, lam in enumerate(LAMBDAS):
            c = [1.0, 1j] @ np.random.default_rng([n, i]).standard_normal((2, DEGREE + 1))
            p = fk.resolvent_solve(op, lam, (c @ he) * phase).solution
            assert max_rel(p, ((c / (1.0 - lam * gain)) @ he) * phase) <= SOLVE_TOL
            D, factors = fredholm_det(r, lam)
            d = fk.fredholm_determinant(op, lam).value
            assert abs(d - D) <= det_bound(n, lam, r, factors) * abs(D)


@pytest.mark.parametrize("n", SIZES)
def test_mirror_symmetric_partition(n):
    """On every Gauss-Hermite rule (mirror-exact) the dropped nodes are
    their own mirror image, bit for bit, and they are the lightest: the
    order is the one by decreasing weight, the kept nodes first."""
    rule = fk.gauss_hermite_prob(n)
    for r in (0.3, 0.5, 0.6, 0.9):
        for kernel in (fk.mehler_kernel(r), twin(r)):
            op = fk.discretize(kernel, rule)
            assert op.reflection_symmetric
            part = op.node_partition
            dropped = np.sort(part.dropped)
            assert np.array_equal(dropped, n - 1 - dropped[::-1])
            assert np.array_equal(part.order, np.argsort(-op.w_cols, kind="stable"))
            assert part.dropped_mass <= U / np.sqrt(2)


def test_gauss_hermite_256_drops_its_lightest_104():
    """lambda-sweep's operators: 152 of 256 nodes kept, the record read-only
    and built once, and the one LU per lambda 152 x 152."""
    rule = fk.gauss_hermite_prob(256)
    for op in (fk.discretize(fk.mehler_kernel(0.5), rule), fk.discretize(twin(0.5), rule)):
        part = op.node_partition
        assert op.node_partition is part and part.kept_count == 152
        assert 0.0 < part.dropped_mass <= U / np.sqrt(2)
        assert set(part.dropped) == set(np.argsort(rule.weights)[:104])
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.kept_count = 256
        assert not any(a.flags.writeable for a in (part.order, part.K_e, part.w_e, part.dropped))
        fk.fredholm_determinant(op, 2.5 + 1j)
        assert op.__dict__["_lu"][1].shape == (152, 152)


def mehler_block(y, z):
    """A 2 x 2 block of Mehler samples, not Hermitian."""
    m = fk.mehler_kernel(0.5).body.evaluator(y, z)
    return np.array([[m, 0.3 * m * np.exp(-0.1 * (y - z) ** 2)], [0.2 * m, 0.5 * m]])


@pytest.mark.parametrize("name, kernel, n", [
    ("skew-gh128", skew_kernel(0.2), 128), ("skew-gh256", skew_kernel(0.2), 256),
    ("block-gh128", fk.Kernel((2, 2), ClosedForm(mehler_block)), 128),
])
def test_deflated_off_the_hermitian_route(name, kernel, n):
    """Operators whose B is not Hermitian, the diagonal similarity
    e^{0.2y} M(y, z) e^{-0.2z} of Mehler and a 2 x 2 block kernel, drop rows
    by their B-rows and B-columns alike.  The deflated solve is backward
    stable for the full system, ||(I - lambda*A) p - f||_inf <=
    N u (||M||_inf ||p||_inf + ||f||_inf), and D(lambda) is within
    N u cond_1(M) of the full system's determinant (numpy's slogdet), the
    first-order LU estimate."""
    op = fk.discretize(kernel, fk.gauss_hermite_prob(n))
    N = op.K.shape[0]
    assert not op.hermitian_to_roundoff() and op.node_partition.kept_count < N
    f = np.cos(np.repeat(op.rule.nodes, op.shape[0])) + 0.1j
    for lam in (1.3 + 0.7j, -2.0 + 0.5j, 0.9):
        M = np.eye(N) - lam * op.A
        p = fk.resolvent_solve(op, lam, f).solution
        bound = N * U * (np.linalg.norm(M, np.inf) * np.max(np.abs(p)) + np.max(np.abs(f)))
        assert np.max(np.abs(M @ p - f)) <= bound
        sign, logabs = np.linalg.slogdet(M)
        D = sign * np.exp(logabs)
        assert abs(fk.fredholm_determinant(op, lam).value - D) <= N * U * np.linalg.cond(M, 1) * abs(D)


def diagonal_operator(entries):
    """K = diag(entries) on six unit-weight atoms, so B = K."""
    rule = fk.discrete_measure(np.arange(6.0), np.ones(6))
    return fk.DiscreteOperator(rule=rule, shape=(1, 1), K=np.diag(entries).astype(float))


@pytest.mark.parametrize("mirrored", [False, True])
def test_tail_exactly_at_the_threshold(mirrored):
    """||B||_F^2 = 4 rounds to 4 with two tail entries e: they are dropped
    while e^2 + e^2 <= u^2 ||B||_F^2 / 2, so exactly at e = u, and one ulp
    above it only the first of the tied pair goes (or, as a mirror pair,
    neither).  Each lambda-path then solves diag systems exactly."""
    e = U
    for tail, kept in ((e, 4), (np.nextafter(e, 1.0), 6 if mirrored else 5)):
        entries = [tail, 1, 1, 1, 1, tail] if mirrored else [1, 1, 1, 1, tail, tail]
        op = diagonal_operator(entries)
        assert op.reflection_symmetric == mirrored
        part = op.node_partition
        assert part.kept_count == kept
        if kept == 4:
            assert part.dropped_mass == pytest.approx(U / np.sqrt(2), rel=1e-15)
        lam = 0.75 + 0.5j
        f = np.arange(1.0, 7.0) + 1j
        p = fk.resolvent_solve(op, lam, f).solution
        assert np.max(np.abs(p - f / (1.0 - lam * np.array(entries)))) <= 4 * U * np.max(np.abs(p))
        D = np.prod(1.0 - lam * np.array(entries))
        assert abs(fk.fredholm_determinant(op, lam).value - D) <= 8 * U * abs(D)


def test_rows_and_columns_both_count():
    """On six unit-weight atoms (B = K), node 4's row and column are zero and
    it is dropped; node 5's row is zero but its column is not, so it is
    kept, and the solve and D(lambda) are the dense ones to rounding."""
    K = np.ones((6, 6))
    K[4, :] = K[:, 4] = K[5, :] = 0.0
    op = fk.DiscreteOperator(rule=fk.discrete_measure(np.arange(6.0), np.ones(6)), shape=(1, 1),
                             K=K)
    assert list(op.node_partition.dropped) == [4]
    lam, f = 0.1 + 0.05j, np.arange(1.0, 7.0) + 1j
    M = np.eye(6) - lam * K
    ref = np.linalg.solve(M, f)
    assert np.max(np.abs(fk.resolvent_solve(op, lam, f).solution - ref)) <= 8 * U * np.max(np.abs(ref))
    D = np.linalg.det(M)
    assert abs(fk.fredholm_determinant(op, lam).value - D) <= 8 * U * abs(D)


def todays_system(op, lam):
    """The lambda-path's system as it was built before the node partition:
    (order, K_e, w_e, M), M = I - K_e (lambda w_e) with the nodes by
    decreasing weight."""
    order = np.argsort(-op.w_cols, kind="stable")
    Ke, we = op.K[np.ix_(order, order)], op.w_cols[order]
    M = Ke * ((-(lam.real if lam.imag == 0 else lam)) * we)
    M.reshape(-1)[:: M.shape[0] + 1] += 1.0
    return order, Ke, we, M


def todays_solve(order, M, lu, piv, rhs):
    """The solve as it was: getrs in that order, one refinement pass."""
    getrs = get_lapack_funcs("getrs", (lu,))
    b = rhs[order]
    Y = getrs(lu, piv, b)[0]
    Y = Y + getrs(lu, piv, b - M @ Y)[0]
    X = np.empty_like(Y)
    X[order] = Y
    return X


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


GL_OPERATORS = {
    "mehler-gl32": lambda: fk.discretize(fk.mehler_kernel(0.5), fk.gauss_legendre(32, -4.0, 4.0)),
    "mehler-gl1024": lambda: fk.discretize(fk.mehler_kernel(0.5),
                                           fk.gauss_legendre(1024, -4.0, 4.0)),
    "twin-gl128": lambda: fk.discretize(twin(0.5), fk.gauss_legendre(128, -4.0, 4.0)),
    "skew-gl256": lambda: fk.discretize(skew_kernel(0.2), fk.gauss_legendre(256, -4.0, 4.0)),
    "block-gl24": lambda: fk.discretize(fk.Kernel((2, 2), ClosedForm(block_kernel)),
                                        fk.gauss_legendre(24, 0.0, 1.0)),
    "mehler-0.9-gh256": lambda: fk.discretize(fk.mehler_kernel(0.9), fk.gauss_hermite_prob(256)),
}


@pytest.mark.parametrize("name", GL_OPERATORS)
def test_nothing_dropped_keeps_every_bit(name):
    """Every Gauss-Legendre operator here, and Mehler r = 0.9 on
    Gauss-Hermite 256, drops nothing, and its LU, solve (a complex f at a
    complex lambda, a real f at a real one), resolvent kernel and condition
    estimate are those of the reference bit for bit."""
    op = GL_OPERATORS[name]()
    n = op.K.shape[0]
    part = op.node_partition
    assert part.kept_count == n and part.dropped.size == 0 and part.dropped_mass == 0.0
    rng = np.random.default_rng(n)
    for lam, f in ((0.05 + 0.02j, np.array([1.0, 1j]) @ rng.standard_normal((2, n))),
                   (0.05 + 0.0j, rng.standard_normal(n))):
        order, Ke, we, M = todays_system(op, lam)
        assert same_bits(part.K_e, Ke) and same_bits(part.w_e, we)
        p = fk.resolvent_solve(op, lam, f).solution
        _lam, lu, piv = op.__dict__["_lu"]
        ref_lu, ref_piv, _info = get_lapack_funcs("getrf", (M,))(M)
        assert same_bits(lu, ref_lu) and same_bits(piv, ref_piv)
        # at two BLAS threads getrs and gecon can round by the factors'
        # address, so the rest reads the very factors the path cached
        assert same_bits(p, todays_solve(order, M, lu, piv, f))
        rcond = get_lapack_funcs("gecon", (lu,))(lu, float(np.linalg.norm(M, 1)))[0]
        assert fredholm._condition(op, lam, fredholm._system(op, lam), lu) == 1.0 / rcond
        if n <= 256:
            assert same_bits(fk.resolvent_kernel(op, lam), todays_solve(order, M, lu, piv, op.K))


@pytest.mark.parametrize("r", [0.5, 0.6])
def test_condition_estimate_is_no_looser(r):
    """On Gauss-Hermite 256, at 60 of lambda-sweep's lambda, the guard's
    estimate for the deflated system is at least gecon's estimate for the
    full I - lambda*A in the listed order, and within 4 times it."""
    rule = fk.gauss_hermite_prob(256)
    for op in (fk.discretize(fk.mehler_kernel(r), rule), fk.discretize(twin(r), rule)):
        k = op.node_partition.kept_count
        assert k < 256
        for lam in sweep_lambdas(1, range(60)):
            M = fredholm._system(op, lam)
            new = fredholm._condition(op, lam, M, fredholm._getrf(M[:k, :k])[0])
            full = np.eye(256) - lam * op.A
            lu, _piv, _info = get_lapack_funcs("getrf", (full,))(full)
            rcond = get_lapack_funcs("gecon", (lu,))(lu, float(np.linalg.norm(full, 1)))[0]
            assert 1.0 <= new * rcond <= 4.0
