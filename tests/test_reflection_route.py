"""The reflection route: half-size or real eigensolves and half-row iterates
on reflection-symmetric operators.

An operator is reflection-symmetric (DiscreteOperator.reflection_symmetric)
when its block is 1 x 1, its weights are mirrored bit for bit and
J K J == K (real K) or J K J == conj(K) (complex K), J reversing the node
order.  Mehler on a mirror-exact rule is the first kind, its twin
e^{iay} M(y, z) e^{-iaz} the second.  There the Hermitian family comes from
two half-size real eighs (route "hermitian-split") or one real eigh of the
real form (route "hermitian-real"), and iterated_kernel forms the top
ceil(N/2) rows of each product and reflects them into the bottom ones.
Every other operator keeps the full-size path, bit for bit.

The bounds are those of perfbench/README.md and tests/test_dtype.py: a
backward-stable eigensolve of B is within n u ||B||_2 of B's spectrum
(Weyl), and two such families' unit eigenvectors lie within
pi n u nu_1 / gap of each other (Davis-Kahan).
"""
import numpy as np
import pytest

import fredkit as fk
from fredkit import nystrom
from fredkit.kernels import ClosedForm

from conftest import symmetrized
from test_conventions import column_at_a_time, skew_kernel, twin_kernel
from test_hermitian_route import spy_on

UNIT = np.finfo(float).eps / 2  # unit roundoff u

RULES = {
    "gl1024": lambda: fk.gauss_legendre(1024, -4.0, 4.0),
    "gh256": lambda: fk.gauss_hermite_prob(256),
    "gh65": lambda: fk.gauss_hermite_prob(65),
    "gl129": lambda: fk.gauss_legendre(129, -4.0, 4.0),
}
KERNELS = {"mehler": lambda: fk.mehler_kernel(0.5), "twin": lambda: twin_kernel(0.8)}
ROUTE = {"mehler": "hermitian-split", "twin": "hermitian-real"}


def off_the_reflection_route(op):
    """A fresh operator on op's rule and samples whose cached reflection gate
    is set False before any read, so its family and iterates take the
    full-size path."""
    off = fk.DiscreteOperator(rule=op.rule, shape=op.shape, K=op.K)
    vars(off)["reflection_symmetric"] = False
    return off


def full_row_iterate(op, n):
    """iterated_kernel's doubling with every row of every product formed, as
    fredkit forms it off the reflection route."""
    X = op.K.copy()
    Y = np.empty_like(X)
    w = op.w_cols
    for bit in bin(n)[3:]:
        for r in range(0, X.shape[0], nystrom.ITERATE_SLAB):
            np.matmul(X[r:r + nystrom.ITERATE_SLAB] * w, X, out=Y[r:r + nystrom.ITERATE_SLAB])
        X, Y = Y, X
        if bit == "1":
            X *= w[:, None]
            np.matmul(op.K, X, out=Y)
            X, Y = Y, X
    return X


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_route_agrees_with_the_full_eigh(kernel, rule):
    """On the route and off it, each spectrum is within Weyl's n u ||B||_2 of
    eigvalsh of the test's own B, and the polished vectors with
    |nu| >= REFINE_RTOL nu_1 agree within Davis-Kahan's pi n u nu_1 / gap
    after the best unit phase.  Odd sizes (GH65, GL129), whose middle node
    is exactly 0, take the route too."""
    op = fk.discretize(KERNELS[kernel](), RULES[rule]())
    n = op.K.shape[0]
    assert op.reflection_symmetric and op.hermitian_to_roundoff()
    if n % 2:
        assert op.rule.nodes[n // 2] == 0.0
    off = off_the_reflection_route(op)
    on_d, off_d = fk.hermitian_eig(op), fk.hermitian_eig(off)
    assert (on_d.route, off_d.route) == (ROUTE[kernel], "hermitian")
    assert on_d.right.dtype == off_d.right.dtype == op.K.dtype
    B = symmetrized(op)
    nu = np.linalg.eigvalsh(B)
    weyl = n * UNIT * np.linalg.norm(B, 2)
    for d in (on_d, off_d):
        assert d.hermitian == (d.route != "general")
        assert np.max(np.abs(d.eigenvalues.imag)) == 0.0
        assert np.max(np.abs(np.sort(d.eigenvalues.real) - nu)) <= weyl
    nu = nu[::-1]
    k = int(np.sum(np.abs(nu) >= nystrom.REFINE_RTOL * nu[0]))
    gaps = np.array([np.min(np.abs(np.delete(nu, j) - nu[j])) for j in range(k)])
    w = op.w_rows
    P, Q = on_d.right[:, :k], off_d.right[:, :k]
    inner = np.sum(w[:, None] * np.conj(Q) * P, axis=0)
    dist = np.sqrt(np.sum(w[:, None] * np.abs(P - Q * (inner / np.abs(inner))) ** 2, axis=0))
    assert np.all(dist <= np.pi * n * UNIT * nu[0] / gaps)


@pytest.mark.parametrize("rule", ["gh64", "gh65"])
def test_raw_vectors_are_exactly_even_or_odd(rule):
    """The route's reassembled eigenvectors, before the polish: Mehler's
    first ceil(N/2) are exactly even and the rest exactly odd, the twin's
    bottom halves are the exact conjugate reflections of their tops, and
    each set is orthonormal within the eigh budget."""
    gh = fk.gauss_hermite_prob(int(rule[2:]))
    for kernel in KERNELS.values():
        op = fk.discretize(kernel(), gh)
        B = symmetrized(op)
        vals, V = nystrom._reflected_eigh(0.5 * (B + B.conj().T))
        n = V.shape[0]
        assert V.dtype == B.dtype and vals.dtype == np.float64
        if V.dtype.kind == "f":
            h = (n + 1) // 2
            assert np.array_equal(V[::-1, :h], V[:, :h])
            assert np.array_equal(V[::-1, h:], -V[:, h:])
        else:
            assert np.array_equal(V[::-1], V.conj())
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= n * UNIT * 8
        assert np.max(np.linalg.norm(B @ V - V * vals, axis=0)) <= n * UNIT * np.linalg.norm(B)


def test_polished_vectors_keep_the_hermite_parity():
    """Mehler on GH64 has the eigenfunctions He_j / sqrt(j!), of parity
    (-1)^j.  The family's vectors with nu_j = 2^-j above REFINE_RTOL are
    polished, p = K (w v) / nu times the unit-anchor factor: rows i and
    N - 1 - i sum the same products in reverse order, each within
    gamma_N (|K| (w |v|))_i of the exact sum, and the factor rounds each within
    u, so they keep the parity within 2 gamma_N (|K| (w |p|))_i / |nu| +
    2 u |p_i|, doubled for v ~ p.  The unpolished ones keep it exactly."""
    op = fk.discretize(fk.mehler_kernel(0.5), fk.gauss_hermite_prob(64))
    d = fk.hermitian_eig(op)
    assert d.route == "hermitian-split"
    n, w = op.K.shape[0], op.w_rows
    gamma = n * UNIT / (1 - n * UNIT)
    for j in range(30):
        nu, p = d.eigenvalues[j].real, d.right[:, j]
        assert nu == pytest.approx(0.5 ** j, rel=1e-12)
        mirror = (-1) ** j * p[::-1]
        if abs(nu) >= nystrom.REFINE_RTOL * d.eigenvalues[0].real:
            bound = 4 * gamma * (np.abs(op.K) @ (w * np.abs(p))) / abs(nu) + 4 * UNIT * np.abs(p)
            assert np.all(np.abs(mirror - p) <= bound), j
        else:
            assert np.array_equal(mirror, p), j


def off_route_operators():
    rule = fk.gauss_legendre(64, -4.0, 4.0)
    mehler = fk.discretize(fk.mehler_kernel(0.5), rule)
    # a symmetric perturbation of relative size 10 n u: Hermitian, not mirrored
    E = np.random.default_rng(35).standard_normal(mehler.K.shape)
    E += E.T
    sw = np.sqrt(mehler.w_rows)
    E *= 10 * 64 * UNIT * mehler.hs_norm() / np.linalg.norm(sw[:, None] * E * sw[None, :])
    m = fk.mehler_kernel(0.5).body.evaluator
    block = fk.Kernel(shape=(2, 2), body=ClosedForm(
        lambda y, z: np.array([[m(y, z), 0.5 * m(y, z)], [0.5 * m(y, z), m(y, z)]])))
    return {
        "skew": (fk.discretize(skew_kernel(0.2), rule), "general"),
        "mehler-perturbed": (fk.DiscreteOperator(rule=rule, shape=(1, 1), K=mehler.K + E),
                             "hermitian"),
        "mehler-gl-0-1": (fk.discretize(fk.mehler_kernel(0.5), fk.gauss_legendre(64, 0.0, 1.0)),
                          "hermitian"),
        "block-2x2": (fk.discretize(block, rule), "hermitian"),
    }


@pytest.mark.parametrize("name", ["skew", "mehler-perturbed", "mehler-gl-0-1", "block-2x2"])
def test_other_operators_keep_the_full_size_path(monkeypatch, name):
    """The skew kernel (not Hermitian), Mehler 10 n u off mirror symmetry,
    Mehler on Gauss-Legendre over [0, 1] (the affine map's rounding breaks
    the mirror) and a Hermitian 2 x 2 block kernel fail the gate.  Their
    Hermitian family comes from one full-size eigh of B's Hermitian part in
    B's dtype and equals the column-at-a-time oracle bit for bit, and their
    iterates form every row, bit for bit."""
    op, route = off_route_operators()[name]
    assert not op.reflection_symmetric
    assert op.hermitian_to_roundoff() == (route == "hermitian")
    calls = spy_on(monkeypatch, ("eigh",))
    d = op.family
    assert d.route == route and d.hermitian == (d.route != "general")
    if route == "hermitian":
        assert calls == ["eigh"]
        assert np.array_equal(d.right, column_at_a_time(op, "eig")[0])
    else:
        assert calls == []
    for n in (3, 20):
        assert np.array_equal(fk.iterated_kernel(op, n), full_row_iterate(op, n))


@pytest.mark.parametrize("rule", ["gh65", "gl129"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_iterate_bottom_half_is_the_exact_reflection(kernel, rule):
    """On the route, every iterate from n = 3 on has its bottom floor(N/2)
    rows equal to J X J of its top rows (conjugated for a complex X), bit for
    bit; n = 1 is K and n = 2 is the one full product A @ K, as off the
    route."""
    op = fk.discretize(KERNELS[kernel](), RULES[rule]())
    n = op.K.shape[0]
    h, m = (n + 1) // 2, n // 2
    assert op.reflection_symmetric
    assert np.array_equal(fk.iterated_kernel(op, 1), op.K)
    assert np.array_equal(fk.iterated_kernel(op, 2), op.A @ op.K)
    for k in (3, 4, 7, 20):
        X = fk.iterated_kernel(op, k)
        assert X.dtype == op.K.dtype
        assert np.array_equal(X[h:], np.conj(X[:m][::-1, ::-1]))


def test_the_gate_reads_k_alone():
    """The gate is cached and forms no B; a sample off by one ulp, a weight
    off its mirror, or a 2 x 2 block each fail it."""
    rule = fk.gauss_hermite_prob(16)
    op = fk.discretize(fk.mehler_kernel(0.5), rule)
    assert op.reflection_symmetric and "B" not in vars(op)
    assert vars(op)["reflection_symmetric"] is True
    K = op.K.copy()
    K[3, 5] = np.nextafter(K[3, 5], 2.0)
    assert not fk.DiscreteOperator(rule=rule, shape=(1, 1), K=K).reflection_symmetric
    w = rule.weights.copy()
    w[0] = np.nextafter(w[0], 1.0)
    skewed = fk.QuadratureRule(rule.nodes, w)
    assert not fk.DiscreteOperator(rule=skewed, shape=(1, 1), K=op.K).reflection_symmetric
    twin = fk.discretize(twin_kernel(0.8), rule)
    assert twin.reflection_symmetric
    # a complex K with J K J == K, not its conjugate, fails
    assert not fk.DiscreteOperator(rule=rule, shape=(1, 1), K=op.K * (1 + 1j)).reflection_symmetric
    half = fk.gauss_hermite_prob(8)
    assert not fk.DiscreteOperator(rule=half, shape=(2, 2), K=op.K).reflection_symmetric
