"""Tests for special functions and quadrature primitives."""

import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy.special import k1e

from qamcpricer.errors import DomainError
from qamcpricer.numerics import (
    QuadratureRule,
    gauss_legendre_panels,
    integrate,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)


def k1_integral_oracle(z: float) -> float:
    """K1 via its integral representation: int_0^inf exp(-z cosh t) cosh t dt."""
    val, _ = sci_integrate.quad(
        lambda t: np.exp(-z * (np.cosh(t) - 1.0)) * np.cosh(t), 0.0, 40.0, limit=300
    )
    return val * math.exp(-z)


def bessel_k1(z):
    """K1 as nig_pdf evaluates it: the scaled kernel k1e times exp(-z)."""
    return k1e(z) * np.exp(-z)


def rule_integral(f, interval, rule: QuadratureRule) -> float:
    """One panel of ``rule`` mapped onto ``interval``."""
    x, half = gauss_legendre_panels(interval, rule)
    return float(half[0] * np.dot(rule.weights, f(x[0])))


class TestBesselK1:
    def test_matches_integral_representation_at_one(self):
        assert bessel_k1(1.0) == pytest.approx(k1_integral_oracle(1.0), abs=1e-10)

    def test_relative_accuracy_across_range(self):
        for z in [1e-8, 1e-4, 0.1, 0.5, 2.0, 10.0, 100.0]:
            oracle = k1_integral_oracle(z)
            assert abs(bessel_k1(z) - oracle) / oracle < 1e-11

    def test_large_argument_in_log_space(self):
        # Scaled integral oracle: K1(700) e^700 = int exp(-700(cosh t - 1)) cosh t dt
        scaled_oracle, _ = sci_integrate.quad(
            lambda t: np.exp(-700.0 * (np.cosh(t) - 1.0)) * np.cosh(t), 0.0, 1.0
        )
        value = bessel_k1(700.0)
        assert value > 0.0
        assert value == pytest.approx(scaled_oracle * math.exp(-700.0), rel=1e-10)

    def test_asymptotic_series_at_50(self):
        z = 50.0
        series = math.sqrt(math.pi / 2.0) * (
            1.0 + 3.0 / (8.0 * z) - 15.0 / (128.0 * z**2) + 105.0 / (1024.0 * z**3)
        )
        assert bessel_k1(z) * math.exp(z) * math.sqrt(z) == pytest.approx(series, abs=1e-6)

    def test_underflows_to_zero_not_error(self):
        assert bessel_k1(5000.0) == 0.0

    def test_strictly_decreasing_on_log_grid(self):
        grid = np.logspace(-6, 2.5, 60)
        values = bessel_k1(grid)
        assert np.all(np.diff(values) < 0)


class TestStdNormal:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 3.0])
    def test_cdf_symmetry(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15

    def test_cdf_high_precision_point(self):
        # Frozen from a 30-digit erf-series evaluation.
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_cdf_monotone(self):
        grid = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(std_normal_cdf(grid)) >= 0)

    def test_quantile_at_half(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_frozen_point(self):
        # Frozen from bisection on std_normal_cdf (matches erfinv to 15 digits).
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_quantile_cdf_round_trip(self):
        for u in [1e-12, 1e-6, 0.025, 0.3, 0.5, 0.9, 1 - 1e-9]:
            assert abs(std_normal_cdf(std_normal_quantile(u)) - u) <= 1e-12

    @pytest.mark.parametrize("x", [-4.0, -1.0, 0.3, 4.0])
    def test_cdf_quantile_round_trip(self, x):
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_quantile_monotone(self):
        u = np.linspace(1e-6, 1 - 1e-6, 501)
        assert np.all(np.diff(std_normal_quantile(u)) > 0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.4, float("nan")])
    def test_quantile_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)

    def test_cdf_domain(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("inf"))


class TestQuadrature:
    def test_constant_exact(self):
        assert integrate(lambda x: np.ones_like(x), (0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_linear_gauss_legendre(self):
        rule = QuadratureRule.gauss_legendre(2)
        assert rule_integral(lambda x: x, (0.0, 1.0), rule) == pytest.approx(0.5, abs=1e-14)

    def test_normal_density_integrates_to_one(self):
        total = integrate(std_normal_pdf, (-8.0, 8.0))
        expected = std_normal_cdf(8.0) - std_normal_cdf(-8.0)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_polynomial_exactness_degree_2n_minus_1(self):
        for n in [2, 5, 11]:
            rule = QuadratureRule.gauss_legendre(n)
            for degree in range(2 * n):
                exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
                approx = rule_integral(lambda x, d=degree: x**d, (-1.0, 1.0), rule)
                assert approx == pytest.approx(exact, abs=1e-13)

    def test_panels_match_single_interval(self):
        f = lambda x: np.exp(-(x**2))
        whole = integrate(f, (-3.0, 3.0), panels=8)
        ref, _ = sci_integrate.quad(f, -3.0, 3.0)
        assert whole == pytest.approx(ref, abs=1e-13)

    def test_integrand_evaluated_once_across_panels(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-(x**2))

        integrate(f, (-3.0, 3.0), panels=8)
        assert sizes == [8 * 64]

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, (1.0, 1.0))
        with pytest.raises(DomainError):
            integrate(lambda x: x, (2.0, 1.0))

    def test_rule_invariants(self):
        with pytest.raises(DomainError):
            QuadratureRule(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            QuadratureRule(np.array([-1.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            QuadratureRule(np.array([0.0]), np.array([2.0]))
