import json

import numpy as np
import pytest

import fredkit as fk
from fredkit import measure
from fredkit.errors import InvalidArgumentError

U = np.finfo(float).eps / 2


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
        # built as its nonnegative half and reflected: mirror-exact in its
        # bits on an interval symmetric about 0, an odd n's middle node 0.0
        for n in (9, 1023, 1024):
            r = fk.gauss_legendre(n, -2.0, 2.0)
            assert np.array_equal(r.nodes, -r.nodes[::-1]), n
            assert np.array_equal(r.weights, r.weights[::-1]), n
            if n % 2:
                assert r.nodes[n // 2] == 0.0, n

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
        # every size is mirror-exact in its bits, an odd n's middle node 0.0
        for n in range(1, measure.MAX_HERMITE_SIZE + 1):
            r = fk.gauss_hermite_prob(n)
            assert np.array_equal(r.nodes, -r.nodes[::-1]), n
            assert np.array_equal(r.weights, r.weights[::-1]), n
            if n % 2:
                assert r.nodes[n // 2] == 0.0, n

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


class TestBenchmarkSizes:
    """Even moments below degree 4 at the sizes the benchmark runs, within
    N*u relative to the exact value."""

    @pytest.mark.parametrize("n", [64, 96, 128, 200, 256, 320])
    def test_hermite_even_moments(self, n):
        r = fk.gauss_hermite_prob(n)
        for k in (0, 2):
            exact = analytic_moment_normal(k)
            assert abs(float(r.integrate(r.nodes ** k)) - exact) <= n * U * exact

    @pytest.mark.parametrize("n,a,b", [(32, 0.0, 1.0), (128, 0.0, 1.0), (48, -1.0, 1.0),
                                       (1024, -4.0, 4.0)])
    def test_legendre_even_moments(self, n, a, b):
        r = fk.gauss_legendre(n, a, b)
        for k in (0, 2):
            exact = analytic_moment_legendre(k, a, b)
            assert abs(float(r.integrate(r.nodes ** k)) - exact) <= n * U * exact


def _fresh_legendre(n, a, b):
    # an uncached build: Golub-Welsch on [-1, 1], mapped onto [a, b] as
    # gauss_legendre maps it
    k = np.arange(1.0, n)
    nodes, weights = measure._golub_welsch(k / np.sqrt(4.0 * k * k - 1.0), 2.0)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * nodes, half * weights


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestRuleCache:
    def test_cached_hermite_rules_equal_a_fresh_build(self):
        for n in range(1, measure.MAX_HERMITE_SIZE + 1):
            nodes, weights = measure._golub_welsch(np.sqrt(np.arange(1.0, n)), 1.0)
            for _ in range(2):  # the build and the cached copy
                r = fk.gauss_hermite_prob(n)
                assert _same_bits(r.nodes, nodes) and _same_bits(r.weights, weights), n

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 48, 64, 128, 255, 256, 1023, 1024])
    def test_cached_legendre_rules_equal_a_fresh_build(self, n):
        for a, b in [(-1.0, 1.0), (0.0, 1.0), (-4.0, 4.0)]:
            nodes, weights = _fresh_legendre(n, a, b)
            for _ in range(2):
                r = fk.gauss_legendre(n, a, b)
                assert _same_bits(r.nodes, nodes) and _same_bits(r.weights, weights), (a, b)

    def test_each_kind_and_size_is_built_once(self, monkeypatch):
        built = []
        real = measure._golub_welsch

        def spy(offdiag, mu0):
            built.append((mu0, offdiag.size + 1))
            return real(offdiag, mu0)

        monkeypatch.setattr(measure, "_golub_welsch", spy)
        measure._jacobi_rule.cache_clear()
        rules = [fk.gauss_hermite_prob(64) for _ in range(3)]
        rules += [fk.gauss_legendre(128, 0.0, 1.0), fk.gauss_legendre(128, -4.0, 4.0)]
        assert built == [(1.0, 64), (2.0, 128)]
        assert rules[3].interval == (0.0, 1.0) and rules[4].interval == (-4.0, 4.0)
        assert float(np.sum(rules[4].weights)) == pytest.approx(8.0, rel=1e-14)

    def test_shared_arrays_are_read_only(self):
        first, second = fk.gauss_hermite_prob(16), fk.gauss_hermite_prob(16)
        assert first.nodes is second.nodes and first.weights is second.weights
        legendre = measure._jacobi_rule(measure.KIND_GAUSS_LEGENDRE, 16)
        for array in (first.nodes, first.weights) + legendre:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 99.0

    def test_cached_rules_cannot_be_made_writeable(self):
        """Each rule hands out views of arrays frozen in their owner, so the
        write flag cannot be set again and no later rule of that (kind, n)
        can change, cached (Hermite, the Legendre reference) or mapped."""
        rules = [fk.gauss_hermite_prob(16), fk.gauss_hermite_prob(16),
                 fk.gauss_legendre(16, 0.0, 1.0)]
        arrays = [a for r in rules for a in (r.nodes, r.weights)]
        arrays += measure._jacobi_rule(measure.KIND_GAUSS_LEGENDRE, 16)
        for array in arrays:
            assert array.base is not None and not array.base.flags.writeable
            with pytest.raises(ValueError):
                array.setflags(write=True)
        assert _same_bits(rules[0].nodes, fk.gauss_hermite_prob(16).nodes)

    def test_cache_is_bounded(self):
        info = measure._jacobi_rule.cache_info()
        # two float64 arrays of at most MAX_RULE_SIZE entries per rule: 1 MB
        assert info.maxsize * 2 * measure.MAX_RULE_SIZE * 8 <= 2 ** 20
        measure._jacobi_rule.cache_clear()
        for n in range(1, info.maxsize + 2):
            fk.gauss_hermite_prob(n)
        assert measure._jacobi_rule.cache_info().currsize == info.maxsize

    @pytest.mark.parametrize("kind,n", [
        ("hermite", 0), ("hermite", 321), ("hermite", 1025), ("hermite", True),
        ("hermite", 64.0), ("legendre", 0), ("legendre", 1025), ("legendre", True),
        ("legendre", 64.0),
    ])
    def test_invalid_sizes_are_not_cached(self, kind, n):
        before = measure._jacobi_rule.cache_info()
        with pytest.raises(InvalidArgumentError):
            if kind == "hermite":
                fk.gauss_hermite_prob(n)
            else:
                fk.gauss_legendre(n, 0.0, 1.0)
        after = measure._jacobi_rule.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)


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

    def test_integrate_vectorizes_over_trailing_axes(self, gl8):
        values = np.stack([np.ones(8), gl8.nodes, 1j * gl8.nodes ** 2], axis=1)
        got = gl8.integrate(values)
        assert got.shape == (3,)
        assert got == pytest.approx([1.0, 0.5, 1j / 3], abs=1e-15)

    @pytest.mark.parametrize("values", [
        np.ones(7), np.ones(9), np.ones((7, 2)), 1.0, [], "abcdefgh", None,
        [1.0] * 7 + [np.nan], [1.0] * 7 + [np.inf], [True] * 8, np.ones(8, dtype=bool),
        [1.0] * 7 + ["1"],
    ], ids=["short", "long", "short-2d", "scalar", "empty", "string", "none", "nan", "inf",
            "bool-list", "bool-array", "string-entry"])
    def test_integrate_refuses_bad_values(self, gl8, values):
        with pytest.raises(InvalidArgumentError, match="values"):
            gl8.integrate(values)

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
