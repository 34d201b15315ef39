"""Resolvent invariants at the size the lambda-sweep benchmark runs.

Mehler r = 0.5 and its twin e^{iy} M(y, z) e^{-iz} (a unitary diagonal
similarity: Hermitian, complex, the same spectrum r^j) on the 256- and
64-node probabilists' Gauss-Hermite rules, at the complex lambda the
benchmark draws for rounds 0-8 of seed 1 and at the real lambda = 0.9, 10 %
from the Fredholm eigenvalue 1.

The bounds are perfbench/README.md's, in weighted Frobenius norms.
M = I - lambda B, the symmetrized system, has norm at most 1 + |lambda| and
condition cond = (1 + |lambda|) / min_j |1 - lambda r^j| (det_bound's).  A
refined LU solve is backward stable to N u, so the left identity, its
residual, is within N u (1 + |lambda|) ||N_lambda||, and its forward error
within cond N u ||N_lambda||; the right identity is that error times
I - lambda B.  The series at full truncation drops the terms the retained
cut drops, p_j q_j^* nu_j / (1 - lambda nu_j) with |lambda nu_j| far below 1,
whose weighted norms sum to within dropped_mass(r), which starts one index
early; its own rounding is first order in N u as the solve's, and so is
bounded by the same forward error.  Each determinant is within det_bound of
the product formula, the spectral product within |lambda| dropped_mass(r)
more, so the two agree within the sum.

Gauss-Hermite rules stop at 320 nodes, so there is no N = 1024 case.
"""
import math

import numpy as np
import pytest

import fredkit as fk
from fredkit.spectral import RETAIN_RTOL

from conftest import wfro
from test_conventions import twin_kernel

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


def cond(lam, factors):
    return (1.0 + abs(lam)) / float(np.min(np.abs(1.0 - lam * R ** np.arange(factors + 1))))


def det_bound(n, lam, factors):
    return (n * cond(lam, factors) + 4 * factors) * U


def dropped_mass():
    j = math.ceil(math.log(RETAIN_RTOL) / math.log(R)) - 1
    return R ** j / (1.0 - R)


@pytest.fixture(scope="module", params=[256, 64])
def operators(request):
    rule = fk.gauss_hermite_prob(request.param)
    return [fk.discretize(k, rule) for k in (fk.mehler_kernel(R), twin_kernel(1.0))]


@pytest.mark.parametrize("lam", LAMBDAS, ids=LAMBDA_IDS)
def test_resolvent_invariants(operators, lam):
    D, factors = fredholm_det(lam)
    for op in operators:
        n = op.A.shape[0]
        NL = fk.resolvent_kernel(op, lam)
        size = wfro(op, NL)
        forward = cond(lam, factors) * n * U * size
        diff = NL - op.K
        assert wfro(op, lam * op.A @ NL - diff) <= n * U * (1.0 + abs(lam)) * size
        assert wfro(op, lam * NL @ (op.w_cols[:, None] * op.K) - diff) <= \
            (1.0 + abs(lam)) * forward
        d = fk.djf_eig(op)
        series = fk.resolvent_series(d, lam, d.retained)
        assert wfro(op, series - NL) <= dropped_mass() + 2.0 * forward
        direct = fk.fredholm_determinant(op, lam, "direct").value
        product = fk.fredholm_determinant(op, lam, "product").value
        bound = det_bound(n, lam, factors)
        assert abs(direct - D) <= bound * abs(D)
        assert abs(product - D) <= (abs(lam) * dropped_mass() + bound) * abs(D)
