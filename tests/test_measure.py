import json

import numpy as np
import pytest

import fredkit as fk
from fredkit.errors import InvalidArgumentError


def analytic_moment_legendre(k, a, b):
    # oracle: int_a^b x^k dx
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


def analytic_moment_normal(k):
    # oracle: E X^k for X ~ N(0,1): 0 for odd k, (k-1)!! for even k
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestGaussLegendre:
    def test_one_point_is_midpoint(self):
        r = fk.gauss_legendre(1, 0.0, 1.0)
        assert r.nodes == pytest.approx([0.5])
        assert r.weights == pytest.approx([1.0])

    def test_two_point_symmetric_interval(self):
        # oracle: moment equations sum w x^k = int x^k for k = 0..3 force
        # nodes +-1/sqrt(3), weights 1, 1
        r = fk.gauss_legendre(2, -1.0, 1.0)
        assert r.nodes == pytest.approx([-0.5773502691896257, 0.5773502691896257], abs=1e-14)
        assert r.weights == pytest.approx([1.0, 1.0], abs=1e-14)
        for k in range(4):
            got = float(r.integrate(r.nodes ** k))
            assert got == pytest.approx(analytic_moment_legendre(k, -1, 1), abs=1e-13)

    def test_two_point_quadratic_exact(self):
        r = fk.gauss_legendre(2, 0.0, 1.0)
        assert float(r.integrate(r.nodes ** 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 13, 40])
    def test_monomial_exactness(self, n):
        a, b = -0.3, 1.7
        r = fk.gauss_legendre(n, a, b)
        for k in range(2 * n):
            exact = analytic_moment_legendre(k, a, b)
            got = float(r.integrate(r.nodes ** k))
            assert abs(got - exact) <= 1e-11 * max(abs(exact), 1.0)

    def test_weight_sum_is_length(self):
        r = fk.gauss_legendre(17, 2.0, 5.5)
        assert float(np.sum(r.weights)) == pytest.approx(3.5, rel=1e-14)

    def test_node_symmetry(self):
        r = fk.gauss_legendre(9, -2.0, 2.0)
        assert np.max(np.abs(r.nodes + r.nodes[::-1])) <= 1e-13

    @pytest.mark.parametrize("n,a,b", [(0, 0, 1), (-3, 0, 1), (2, 1, 1), (2, 2, 1)])
    def test_invalid_arguments(self, n, a, b):
        with pytest.raises(InvalidArgumentError):
            fk.gauss_legendre(n, a, b)

    def test_size_cap(self):
        with pytest.raises(InvalidArgumentError):
            fk.gauss_legendre(1025, 0, 1)


class TestGaussHermiteProb:
    def test_one_point(self):
        r = fk.gauss_hermite_prob(1)
        assert r.nodes == pytest.approx([0.0])
        assert r.weights == pytest.approx([1.0])

    def test_two_point(self):
        # oracle: matching E1 = 1, EX = 0, EX^2 = 1, EX^3 = 0
        r = fk.gauss_hermite_prob(2)
        assert r.nodes == pytest.approx([-1.0, 1.0], abs=1e-14)
        assert r.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_three_point(self):
        # oracle: moment matching through EX^4 = 3 gives +-sqrt(3), 0 with
        # weights 1/6, 2/3, 1/6
        r = fk.gauss_hermite_prob(3)
        s3 = np.sqrt(3.0)
        assert r.nodes == pytest.approx([-s3, 0.0, s3], abs=1e-14)
        assert r.weights == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 6, 25])
    def test_normal_moments(self, n):
        r = fk.gauss_hermite_prob(n)
        assert float(np.sum(r.weights)) == pytest.approx(1.0, rel=1e-12)
        if n >= 2:
            assert float(r.integrate(r.nodes ** 2)) == pytest.approx(1.0, rel=1e-12)
        for k in range(2 * n):
            exact = analytic_moment_normal(k)
            got = float(r.integrate(r.nodes ** k))
            # odd moments vanish by cancellation; scale by the absolute mass
            scale = max(abs(exact), float(r.integrate(np.abs(r.nodes) ** k)), 1.0)
            assert abs(got - exact) <= 1e-11 * scale

    def test_node_symmetry(self):
        r = fk.gauss_hermite_prob(12)
        assert np.max(np.abs(r.nodes + r.nodes[::-1])) <= 1e-13

    def test_invalid(self):
        with pytest.raises(InvalidArgumentError):
            fk.gauss_hermite_prob(0)

    @pytest.mark.parametrize("n", [64, 128, 320])
    def test_large_rules_keep_positive_weights(self, n):
        # the eigenvector route loses extreme components to underflow here;
        # the Christoffel-function weights must stay positive and exact
        r = fk.gauss_hermite_prob(n)
        assert np.all(r.weights > 0)
        assert float(np.sum(r.weights)) == pytest.approx(1.0, rel=1e-12)
        assert float(r.integrate(r.nodes ** 8)) == pytest.approx(105.0, rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(InvalidArgumentError, match="underflow"):
            fk.gauss_hermite_prob(321)


class TestDiscreteMeasure:
    def test_two_point(self):
        r = fk.discrete_measure([0.0, 1.0], [0.5, 0.5])
        assert r.kind == "discrete"
        assert float(np.sum(r.weights)) == pytest.approx(1.0)

    def test_single_atom(self):
        r = fk.discrete_measure([1.0], [2.0])
        assert float(r.integrate(r.nodes)) == pytest.approx(2.0)

    def test_weighted_sum(self):
        r = fk.discrete_measure([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert float(r.integrate(r.nodes ** 2)) == pytest.approx(1.25)

    def test_unsorted_points_are_sorted(self):
        r = fk.discrete_measure([1.0, 0.0], [2.0, 3.0])
        assert r.nodes.tolist() == [0.0, 1.0]
        assert r.weights.tolist() == [3.0, 2.0]

    def test_duplicate_points_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fk.discrete_measure([0.0, 0.0], [1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fk.discrete_measure([0.0, 1.0], [1.0, 0.0])


class TestRuleObject:
    def test_mass_matches_kind(self):
        for r, mass in [
            (fk.gauss_legendre(7, 0.0, 2.0), 2.0),
            (fk.gauss_hermite_prob(7), 1.0),
            (fk.discrete_measure([0, 1, 2], [1, 2, 3]), 6.0),
        ]:
            got = float(r.integrate(np.ones(r.count)))
            assert got == pytest.approx(mass, rel=1e-12)

    def test_immutable(self, gl8):
        with pytest.raises(ValueError):
            gl8.nodes[0] = 99.0

    def test_json_round_trip(self, gl8):
        d = gl8.to_dict()
        assert set(d) == {"kind", "nodes", "weights", "interval"}
        # the constructor reads the dict back, as the CLI's inline rule does
        d = json.loads(json.dumps(d))
        back = fk.QuadratureRule(d["nodes"], d["weights"], d["kind"], tuple(d["interval"]))
        assert back.kind == gl8.kind
        assert np.array_equal(back.nodes, gl8.nodes)
        assert np.array_equal(back.weights, gl8.weights)
        assert back.interval == gl8.interval
