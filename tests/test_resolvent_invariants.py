"""Resolvent invariants at the size the lambda-sweep benchmark runs.

Mehler r = 0.5 and its twin e^{iy} M(y, z) e^{-iz} (a unitary diagonal
similarity: Hermitian, complex, the same spectrum r^j) on the 256- and
64-node probabilists' Gauss-Hermite rules, at the complex lambda the
benchmark draws for rounds 0-8 of seed 1 and at the real lambda = 0.9, 10 %
from the Fredholm eigenvalue 1.

The bounds are perfbench/README.md's, in weighted Frobenius norms.
M = I - lambda B, the symmetrized system, has norm at most 1 + |lambda| and
condition cond = (1 + |lambda|) / min_j |1 - lambda r^j| (det_bound's); for
a Hermitian B with other eigenvalues nu_j the norm is 1 + |lambda| max |nu_j|
and the minimum runs over 1 - lambda nu_j (system_norm, cond).  A
refined LU solve is backward stable to N u, so the left identity, its
residual, is within N u (1 + |lambda|) ||N_lambda||, and its forward error
within cond N u ||N_lambda||; the right identity is that error times
I - lambda B.  The series at full truncation drops the terms the retained
cut drops, p_j q_j^* nu_j / (1 - lambda nu_j) with |lambda nu_j| far below 1,
whose weighted norms sum to within dropped_mass(r), which starts one index
early; its own rounding is first order in N u as the solve's, and so is
bounded by the same forward error.  Each determinant is within det_bound of
the product formula, the spectral product within |lambda| dropped_mass(r)
more; and since the eigh values the product reads are backward stable in B
itself, the direct and product determinants agree within det_bound.

Both operators are Hermitian to roundoff, so their spectrum is the eigh the
decompositions share and no eigvals runs.  A refusal names the Fredholm
eigenvalue within 1e-12 relative, the bound of lambda-sweep's refusal rounds.
Gauss-Hermite rules stop at 320 nodes, so the N = 1024 case is Mehler on
spectra-n1024's Gauss-Legendre rule over [-4, 4].  Against Lebesgue measure
its spectrum is not r^j, so there the bounds read the operator's own: the
two identities, and the direct and product determinants against each other,
at one complex and one real lambda, with one LU per lambda.

That LU eliminates the nodes by decreasing weight.  On GH256 its factors
hold no subnormal number, whichever way the rule lists its nodes, and the
rule listed in reverse gives the same resolvent, solution and D(lambda),
re-indexed, within the bounds above.
"""
import math

import numpy as np
import pytest

import fredkit as fk
from fredkit import fredholm
from fredkit.nystrom import RETAIN_RTOL

from conftest import wfro
from test_conventions import twin_kernel
from test_dtype import spy_on_float_view
from test_hermitian_route import RESID_RTOL, band_operator, spy_on

U = np.finfo(float).eps / 2  # unit roundoff u
R = 0.5


def sweep_lambdas(seed=1, rounds=range(9)):
    """The complex lambda of lambda-sweep's normal rounds (perfbench
    LambdaSweep.draw): Re in [-4, 12], |Im| in [0.5, 3]."""
    out = []
    for i in rounds:
        rng = np.random.default_rng([seed, i])
        out.append(complex(rng.uniform(-4.0, 12.0), rng.uniform(0.5, 3.0) * rng.choice([-1, 1])))
    return out


LAMBDAS = sweep_lambdas() + [0.9]
LAMBDA_IDS = [f"round{i}" for i in range(9)] + ["0.9"]


def fredholm_det(lam):
    """D(lambda) = prod_j (1 - lambda r^j) and the number of factors taken."""
    out, j = 1.0 + 0.0j, 0
    while abs(lam) * R ** j > 1e-20:
        out *= 1.0 - lam * R ** j
        j += 1
    return out, j


def mehler_nus(factors):
    """Mehler's eigenvalues r^j over the reference product's factors."""
    return R ** np.arange(factors + 1)


def system_norm(lam, nus):
    """The bound 1 + |lambda| max |nu| on ||I - lambda B||, B Hermitian with
    eigenvalues nus."""
    return 1.0 + abs(lam) * float(np.max(np.abs(nus)))


def cond(lam, nus):
    return system_norm(lam, nus) / float(np.min(np.abs(1.0 - lam * nus)))


def det_bound(n, lam, nus, factors):
    return (n * cond(lam, nus) + 4 * factors) * U


def dropped_mass():
    j = math.ceil(math.log(RETAIN_RTOL) / math.log(R)) - 1
    return R ** j / (1.0 - R)


def sweep_operators(n):
    """lambda-sweep's Mehler and twin on the n-node Gauss-Hermite rule."""
    rule = fk.gauss_hermite_prob(n)
    return [fk.discretize(k, rule) for k in (fk.mehler_kernel(R), twin_kernel(1.0))]


@pytest.fixture(scope="module", params=[256, 64])
def operators(request):
    return sweep_operators(request.param)


def check_identities(op, lam, NL, nus):
    """Both defining identities of the resolvent kernel NL, within the
    bounds above for a B with eigenvalues nus; returns the forward bound."""
    n = op.A.shape[0]
    size = wfro(op, NL)
    forward = cond(lam, nus) * n * U * size
    diff = NL - op.K
    assert wfro(op, lam * op.A @ NL - diff) <= n * U * system_norm(lam, nus) * size
    assert wfro(op, lam * NL @ (op.w_cols[:, None] * op.K) - diff) <= \
        system_norm(lam, nus) * forward
    return forward


@pytest.mark.parametrize("lam", LAMBDAS, ids=LAMBDA_IDS)
def test_resolvent_invariants(operators, lam):
    D, factors = fredholm_det(lam)
    nus = mehler_nus(factors)
    for op in operators:
        n = op.A.shape[0]
        NL = fk.resolvent_kernel(op, lam)
        forward = check_identities(op, lam, NL, nus)
        d = fk.djf_eig(op)
        series = fk.resolvent_series(d, lam, d.retained)
        assert wfro(op, series - NL) <= dropped_mass() + 2.0 * forward
        direct = fk.fredholm_determinant(op, lam, "direct").value
        product = fk.fredholm_determinant(op, lam, "product").value
        bound = det_bound(n, lam, nus, factors)
        assert abs(direct - D) <= bound * abs(D)
        assert abs(product - D) <= (abs(lam) * dropped_mass() + bound) * abs(D)
        assert abs(product - direct) <= bound * abs(D)


@pytest.fixture(scope="module")
def mehler_gl1024():
    return fk.discretize(fk.mehler_kernel(R), fk.gauss_legendre(1024, -4.0, 4.0))


@pytest.mark.parametrize("lam", [LAMBDAS[0], 0.9], ids=["round0", "0.9"])
def test_resolvent_invariants_gl1024(mehler_gl1024, monkeypatch, lam):
    """Mehler on spectra-n1024's rule, Gauss-Legendre 1024 over [-4, 4]:
    against Lebesgue measure its spectrum is not r^j (max |nu| = 90.4), so
    the bounds read the operator's own, the eigh values of a B Hermitian to
    roundoff.  The solve, the resolvent kernel and the direct determinant
    at one lambda share one LU, real at the real lambda."""
    op = mehler_gl1024
    n = op.A.shape[0]
    lus = []
    getrf = fredholm._getrf
    monkeypatch.setattr(fredholm, "_getrf", lambda M: lus.append((M.shape, M.dtype)) or getrf(M))
    nus = op.spectrum
    fk.resolvent_solve(op, lam, np.ones(n, dtype=complex))
    check_identities(op, lam, fk.resolvent_kernel(op, lam), nus)
    direct = fk.fredholm_determinant(op, lam, "direct").value
    product = fk.fredholm_determinant(op, lam, "product").value
    factors = np.count_nonzero(np.abs(lam * nus) >= fredholm.TAIL_CUTOFF)
    assert abs(product - direct) <= det_bound(n, lam, nus, factors) * abs(direct)
    assert lus == [((n, n), np.result_type(lam.real if lam.imag == 0 else lam, op.A))]


def reflected_operators(n):
    """lambda-sweep's two kernels on the n-node Gauss-Hermite rule reflected,
    x -> -x: a discrete rule listing the nodes and weights in reverse, so
    node i of it is node n - 1 - i of the rule.  Mehler is even and the
    twin's reflection is the twin with a = -1, so each sample matrix is the
    original with rows and columns reversed."""
    rule = fk.gauss_hermite_prob(n)
    mirror = fk.discrete_measure(-rule.nodes, rule.weights)
    assert np.array_equal(mirror.weights, rule.weights[::-1])
    return [fk.discretize(k, mirror) for k in (fk.mehler_kernel(R), twin_kernel(-1.0))]


def subnormal_parts(X):
    """How many real and imaginary parts of X are subnormal (non-zero and
    below the smallest normal float)."""
    parts = np.abs(np.stack([X.real, X.imag]))
    return int(np.count_nonzero((parts != 0) & (parts < np.finfo(float).tiny)))


@pytest.mark.parametrize("lam", [LAMBDAS[0], 0.9], ids=["round0", "0.9"])
@pytest.mark.parametrize("listing", ["natural", "reversed"])
def test_lu_eliminates_heavy_nodes_first(monkeypatch, lam, listing):
    """GH256's weights span 1 down to 3e-211.  The one LU per lambda, of
    the 152 kept nodes' block (node_partition), eliminates the nodes by
    decreasing weight, whatever the order the rule lists them in, so its
    factors hold no subnormal entry; all 256 eliminated in the listed
    order, the light nodes first, held 556 to 1,070."""
    lus = []
    getrf = fredholm._getrf
    monkeypatch.setattr(fredholm, "_getrf", lambda M: lus.append(M.shape) or getrf(M))
    ops = sweep_operators(256) if listing == "natural" else reflected_operators(256)
    for op in ops:
        assert subnormal_parts(op.A) > 0
        fk.resolvent_solve(op, lam, np.ones(256, dtype=complex))
        fk.fredholm_determinant(op, lam, "direct")
        assert subnormal_parts(op.__dict__["_lu"][1]) == 0  # the cached factors
    assert lus == [(152, 152)] * 2


@pytest.fixture(scope="module")
def both_listings():
    return list(zip(sweep_operators(256), reflected_operators(256)))


@pytest.mark.parametrize("lam", LAMBDAS, ids=LAMBDA_IDS)
def test_reversed_listing_reindexes_the_solution(both_listings, lam):
    """The same kernels on the same rule, its nodes listed in reverse: the
    resolvent kernel, the solve re-indexed and D(lambda) agree with the
    natural listing's within this file's bounds, so the elimination order
    follows the weights and the solution is put back in the caller's
    order."""
    D, factors = fredholm_det(lam)
    nus = mehler_nus(factors)
    f = np.cos(fk.gauss_hermite_prob(256).nodes) * (1.0 + 0.5j)
    for op, mirror in both_listings:
        n = op.A.shape[0]
        NL = fk.resolvent_kernel(op, lam)
        forward = check_identities(op, lam, NL, nus)
        NLm = fk.resolvent_kernel(mirror, lam)
        check_identities(mirror, lam, NLm, nus)
        assert wfro(op, NLm[::-1, ::-1] - NL) <= 2.0 * forward
        p = fk.resolvent_solve(op, lam, f).solution
        pm = fk.resolvent_solve(mirror, lam, f[::-1]).solution
        size = math.sqrt(float(np.sum(op.w_rows * np.abs(p) ** 2)))
        assert math.sqrt(float(np.sum(op.w_rows * np.abs(pm[::-1] - p) ** 2))) <= \
            2.0 * cond(lam, nus) * n * U * size
        bound = det_bound(n, lam, nus, factors)
        for o in (op, mirror):
            assert abs(fk.fredholm_determinant(o, lam, "direct").value - D) <= bound * abs(D)


@pytest.mark.parametrize("n", [256, 64])
def test_no_eigvals_on_the_hermitian_route(monkeypatch, n):
    """Every public entry point that reads the spectrum, and every
    decomposition, runs on one family build per fresh operator: on the
    reflection route, two half-size eighs for Mehler and one real eigh of the
    real form for its twin."""
    calls = spy_on(monkeypatch, ("eigvals", "eigh", "eig", "svd"))
    lam = LAMBDAS[0]
    for op in sweep_operators(n):
        assert op.hermitian_to_roundoff()
        fk.resolvent_solve(op, lam, np.ones(n, dtype=complex))
        fk.resolvent_kernel(op, lam)
        for method in ("direct", "product"):
            fk.fredholm_determinant(op, lam, method)
        fk.determinant_log_derivative_check(op, (0.0, 0.9), 4)
        fk.first_kind_solve(op, 1.0, 1e-8)
        for decompose in (fk.hermitian_eig, fk.djf_eig, fk.operator_svd):
            decompose(op)
        assert op.spectrum is op.family.eigenvalues is op.hermitian_family.eigenvalues
    assert calls == ["eigh", "eigh", "eigh"]


def test_real_rhs_is_solved_in_real_arithmetic(operators, monkeypatch):
    """A real f at the real lambda = 0.9 on real Mehler: the LU is real and f
    keeps its kind, so the solve, its refinement pass and the residual's
    product take no float view, and p is float64.  p meets the backward
    bound of the left identity above, ||p - lambda A p - f||_W <= N u ||M||
    ||p||_W, and lies within twice the forward bound, 2 cond N u ||p||_W, of
    the solve of the same f stored as complex, which takes the float view
    and stays complex128."""
    op, lam = operators[0], 0.9
    n, nus = op.A.shape[0], mehler_nus(fredholm_det(lam)[1])
    calls = spy_on_float_view(monkeypatch)
    f = np.cos(op.rule.nodes)
    p = fk.resolvent_solve(op, lam, f).solution
    assert p.dtype == np.float64 and calls == []
    pc = fk.resolvent_solve(op, lam, f.astype(complex)).solution
    assert pc.dtype == np.complex128 and calls

    def wnorm(v):
        return math.sqrt(float(np.sum(op.w_rows * np.abs(v) ** 2)))

    size = wnorm(p)
    assert wnorm(p - lam * (op.A @ p) - f) <= n * U * system_norm(lam, nus) * size
    assert wnorm(p - pc) <= 2 * cond(lam, nus) * n * U * size


@pytest.mark.parametrize("j", range(6))
@pytest.mark.parametrize("offset", [1e-10, -1e-10])
def test_refusal_names_the_eigenvalue(operators, j, offset):
    """lambda-sweep's refusal rounds: lambda = 2^j (1 + offset) is refused,
    naming 2^j within 1e-12 relative."""
    for op in operators:
        n = op.A.shape[0]
        with pytest.raises(fk.EigenvalueProximityError) as err:
            fk.resolvent_solve(op, 2.0 ** j * (1.0 + offset), np.ones(n, dtype=complex))
        assert abs(err.value.nearest - 2.0 ** j) <= 1e-12 * 2.0 ** j


def test_first_kind_solve_follows_the_one_gate(monkeypatch):
    """On real Mehler GH256, Hermitian to roundoff, first_kind_solve takes
    hermitian_eig's real vectors (the reflection route's two half-size
    eighs); on its band operator, above n u, it takes djf_eig's general path
    (one eig, no eigh).  Either vector p is an
    eigenfunction: ||A p - p / lambda_j||_W within 1e-9 |nu_1| = 1e-9, the
    eigen-residual bound of perfbench/README.md, for ||p||_W = 1."""
    mehler = sweep_operators(256)[0]
    band = band_operator(mehler)
    assert not band.hermitian_to_roundoff()
    calls = spy_on(monkeypatch, ("eigh", "eig"))
    for op, dtype, route in ((mehler, np.float64, ["eigh"] * 2), (band, np.complex128, ["eig"])):
        del calls[:]
        (p,) = fk.first_kind_solve(op, 2.0, 1e-8)
        assert p.dtype == dtype and calls == route
        w = op.w_rows
        assert math.sqrt(float(np.sum(w * np.abs(op.A @ p - p / 2.0) ** 2))) <= RESID_RTOL
