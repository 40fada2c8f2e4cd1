import math

import numpy as np
import pytest

from effcap.errors import DomainError
from effcap.special import gauss_laguerre
from oracles import confluent_1f1, gamma_fn, upper_incomplete_gamma


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles_rejected(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            gamma_fn(float("nan"))


class TestUpperIncompleteGamma:
    def test_alpha_one_is_exp(self):
        assert abs(upper_incomplete_gamma(1.0, 2.0) - math.exp(-2.0)) < 1e-12

    def test_alpha_two_small_x(self):
        # Gamma(2, 0+) -> Gamma(2) = 1
        assert abs(upper_incomplete_gamma(2.0, 1e-12) - 1.0) < 1e-9

    def test_negative_alpha_small_x_limit(self):
        # Gamma(alpha, x) / x^alpha -> -1/alpha as x -> 0 for alpha < 0
        for x in (1e-4, 1e-6):
            ratio = upper_incomplete_gamma(-1.5, x) / x ** (-1.5)
            assert abs(ratio - (1.0 / 1.5)) < 2e-4 / 1.5 * (x / 1e-4 + 1)

    def test_x_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            upper_incomplete_gamma(-0.5, -1.0)

    @pytest.mark.parametrize("alpha", [-5.0, -2.5, -0.5, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_recurrence(self, alpha, x):
        # Gamma(alpha+1, x) = alpha*Gamma(alpha, x) + x^alpha e^{-x}
        lhs = upper_incomplete_gamma(alpha + 1.0, x)
        rhs = alpha * upper_incomplete_gamma(alpha, x) \
            + x ** alpha * math.exp(-x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)


class TestConfluent1F1:
    def test_z_zero(self):
        assert confluent_1f1(3.7, 1.2, 0.0) == 1.0

    def test_a_equals_b_is_exp(self):
        assert abs(confluent_1f1(2.0, 2.0, 1.0) - math.e) < 1e-12

    def test_one_two_one(self):
        # 1F1(1,2,z) = (e^z - 1)/z
        assert abs(confluent_1f1(1.0, 2.0, 1.0) - (math.e - 1.0)) < 1e-12

    def test_b_pole_rejected(self):
        with pytest.raises(DomainError):
            confluent_1f1(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            confluent_1f1(1.0, -3.0, 0.5)

    def test_series_matches_integral_representation(self):
        # 1F1(a,b,z) = Gamma(b)/(Gamma(a)Gamma(b-a)) int_0^1 e^{zt}
        #              t^{a-1}(1-t)^{b-a-1} dt for b > a > 0
        from scipy import integrate
        for a, b, z in [(1.0, 2.5, 0.7), (0.5, 3.0, 2.0), (2.0, 4.5, -1.5)]:
            pref = gamma_fn(b) / (gamma_fn(a) * gamma_fn(b - a))
            val, _ = integrate.quad(
                lambda t: math.exp(z * t) * t ** (a - 1)
                * (1 - t) ** (b - a - 1), 0.0, 1.0)
            assert abs(confluent_1f1(a, b, z) - pref * val) < 1e-8


class TestGaussLaguerre:
    def test_one_point_rule(self):
        rule = gauss_laguerre(1)
        assert np.allclose(rule.nodes, [1.0])
        assert np.allclose(rule.weights, [1.0])

    def test_two_point_nodes(self):
        rule = gauss_laguerre(2)
        assert np.allclose(sorted(rule.nodes),
                           [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)])

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 256])
    def test_weights_sum_to_one(self, n):
        assert abs(gauss_laguerre(n).weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_exact_for_monomials(self, n):
        rule = gauss_laguerre(n)
        for k in range(2 * n):
            got = rule.integrate(lambda z: z ** float(k))
            assert abs(got - math.factorial(k)) <= 1e-10 * math.factorial(k)

    def test_nodes_increasing(self):
        nodes = gauss_laguerre(32).nodes
        assert np.all(np.diff(nodes) > 0)

    def test_rule_is_shared_and_read_only(self):
        rule = gauss_laguerre(32)
        assert gauss_laguerre(32) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0

    @pytest.mark.parametrize("n", [0, -1, 257])
    def test_order_out_of_range(self, n):
        with pytest.raises(DomainError):
            gauss_laguerre(n)
