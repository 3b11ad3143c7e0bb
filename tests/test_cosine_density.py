"""Tests for cosine-series density and CDF estimation."""

import json
import math

import numpy as np
import pytest

from qamcpricer.cosine_density import (
    CosineSeries,
    Interval,
    KSelection,
    basis_gamma,
    basis_gamma_plus,
    choose_interval,
    coeffs_classical,
    estimate_decay,
    eval_cdf,
    eval_pdf,
    select_terms,
    series_to_json,
)
from qamcpricer.errors import DomainError
from qamcpricer.nig import cumulant_interval, nig_cdf, nig_pdf, support_interval
from qamcpricer.numerics import integrate


@pytest.fixture(scope="module")
def axa_series(axa_params):
    iv = Interval(*support_interval(axa_params, 1.0, 1e-5))
    return coeffs_classical(lambda x: nig_pdf(x, axa_params, 1.0), iv, 128)


class TestBasis:
    def test_constant_mode(self):
        iv = Interval(-1.0, 3.0)
        assert basis_gamma(0, 0.7, iv) == pytest.approx(0.5)

    def test_first_mode_at_left_edge(self):
        iv = Interval(-1.0, 3.0)
        assert basis_gamma(1, -1.0, iv) == pytest.approx(math.sqrt(0.5))

    def test_orthogonality_by_quadrature(self):
        iv = Interval(-2.0, 1.5)
        val = integrate(lambda x: basis_gamma(2, x, iv) * basis_gamma(3, x, iv), (iv.a, iv.b), panels=8)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_gram_matrix_is_identity(self):
        iv = Interval(0.0, 2.0)
        gram = np.empty((16, 16))
        for i in range(16):
            for j in range(16):
                gram[i, j] = integrate(
                    lambda x: basis_gamma(i, x, iv) * basis_gamma(j, x, iv), (0.0, 2.0), panels=8
                )
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10

    def test_uniform_bound(self):
        iv = Interval(0.0, 0.5)
        xs = np.linspace(0.0, 0.5, 200)
        for k in range(8):
            assert np.all(np.abs(basis_gamma(k, xs, iv)) <= math.sqrt(2.0 / 0.5) + 1e-14)

    def test_domain_error_outside(self):
        with pytest.raises(DomainError):
            basis_gamma(1, 5.0, Interval(0.0, 1.0))


class TestBasisPlus:
    def test_range_and_extremes(self):
        iv = Interval(0.0, 2.0)
        xs = np.linspace(0.0, 2.0, 401)
        for k in range(1, 6):
            vals = basis_gamma_plus(k, xs, iv)
            assert np.all((vals >= -1e-12) & (vals <= 1 + 1e-12))
        assert basis_gamma_plus(1, 0.0, iv) == pytest.approx(1.0)  # gamma at max
        assert basis_gamma_plus(1, 1.0, iv) == pytest.approx(0.5)  # gamma zero crossing

    def test_inversion_identity_dual_path(self, axa_params):
        iv = Interval(*support_interval(axa_params, 1.0, 1e-6))
        pdf = lambda x: nig_pdf(x, axa_params, 1.0)
        for k in [1, 3, 9]:
            direct = integrate(lambda x: pdf(x) * basis_gamma(k, x, iv), (iv.a, iv.b), panels=24)
            via_plus = integrate(lambda x: pdf(x) * basis_gamma_plus(k, x, iv), (iv.a, iv.b), panels=24)
            mass = integrate(pdf, (iv.a, iv.b), panels=24)
            recovered = math.sqrt(2.0 / iv.width) * (2.0 * via_plus - mass)
            assert direct == pytest.approx(recovered, abs=1e-12)


class TestCoeffs:
    def test_uniform_density(self):
        iv = Interval(1.0, 4.0)
        series = coeffs_classical(lambda x: np.full_like(x, 1.0 / 3.0), iv, 12)
        assert series.coeffs[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert np.max(np.abs(series.coeffs[1:])) <= 1e-12

    def test_reconstruction_sup_error(self, axa_params, axa_series):
        # 128 terms on the tight support: the thin analyticity strip of this
        # parameter set floors the achievable sup error near 3e-6 for any
        # interval choice (decay rate ~ pi delta / width vs edge aliasing).
        iv = axa_series.interval
        xs = np.linspace(iv.a, iv.b - 1e-9, 2000)
        err = np.max(np.abs(eval_pdf(axa_series, xs) - nig_pdf(xs, axa_params, 1.0)))
        assert err <= 5e-6

    def test_exponential_coefficient_decay(self, axa_series):
        zeta, nu = estimate_decay(axa_series)
        assert nu > 0.0
        assert zeta > 0.0
        # Geometric error reduction: tail bound shrinks at least geometrically.
        mags = np.abs(axa_series.coeffs)
        head = mags[1:33].max()
        tail = mags[64:].max()
        assert tail < head * 1e-2


class TestEvalPdf:
    def test_single_term_series_constant(self):
        series = CosineSeries(Interval(0.0, 2.0), np.array([0.7]))
        xs = np.linspace(0.0, 2.0, 5)
        assert eval_pdf(series, xs) == pytest.approx(0.7 / math.sqrt(2.0))

    def test_matches_direct_sum(self, axa_series):
        rng = np.random.default_rng(3)
        iv = axa_series.interval
        xs = rng.uniform(iv.a, iv.b, 5)
        direct = np.zeros_like(xs)
        for k, coef in enumerate(axa_series.coeffs):
            direct += coef * np.array([basis_gamma(k, x, iv) for x in xs])
        assert eval_pdf(axa_series, xs) == pytest.approx(direct, abs=1e-12)


class TestEvalCdf:
    def test_outside_values(self, axa_series):
        iv = axa_series.interval
        assert eval_cdf(axa_series, iv.a - 1.0) == 0.0
        assert eval_cdf(axa_series, iv.b) == 1.0
        assert eval_cdf(axa_series, iv.a) == pytest.approx(0.0, abs=1e-12)

    def test_left_limit_at_b_is_total_mass(self, axa_series):
        iv = axa_series.interval
        approached = eval_cdf(axa_series, iv.b - 1e-12)
        assert approached == pytest.approx(axa_series.coeffs[0] * math.sqrt(iv.width), abs=1e-9)

    def test_uniform_series_linear(self):
        iv = Interval(0.0, 4.0)
        series = coeffs_classical(lambda x: np.full_like(x, 0.25), iv, 8)
        xs = np.linspace(0.0, 4.0 - 1e-12, 9)
        assert eval_cdf(series, xs) == pytest.approx(xs / 4.0, abs=1e-12)

    def test_matches_quadrature_cdf(self, axa_params, axa_series):
        iv = axa_series.interval
        xs = np.linspace(iv.a - 0.3, iv.b + 0.3, 801)
        truth = np.array([nig_cdf(x, axa_params, 1.0) for x in xs])
        err = np.max(np.abs(eval_cdf(axa_series, xs) - truth))
        assert err <= 1e-4

    def test_weak_monotonicity_up_to_truncation_wiggle(self, axa_series):
        iv = axa_series.interval
        xs = np.linspace(iv.a, iv.b, 4000)
        values = eval_cdf(axa_series, xs)
        assert np.min(np.diff(values)) >= -1e-3

    def test_derivative_matches_pdf(self, axa_series):
        iv = axa_series.interval
        h = 1e-6
        for x in np.linspace(iv.a + 0.2, iv.b - 0.2, 7):
            fd = (eval_cdf(axa_series, x + h) - eval_cdf(axa_series, x - h)) / (2 * h)
            assert fd == pytest.approx(eval_pdf(axa_series, x), abs=1e-4)


class TestSelectTerms:
    def test_exponential_example(self):
        sel = KSelection("exponential", zeta=1.0, rate=1.0, epsilon=4e-3)
        assert select_terms(sel, Interval(0.0, 1.0)) == 7  # ceil(ln 1000)

    def test_algebraic_boundary(self):
        # 4 * zeta * width / epsilon == 1 exactly: the ceiling lands on 1.
        sel = KSelection("algebraic", zeta=1.0, rate=1.0, epsilon=0.4)
        assert select_terms(sel, Interval(0.0, 0.1)) == 1

    def test_halving_epsilon_growth_bound(self):
        nu = 0.7
        iv = Interval(0.0, 1.0)
        for eps in [1e-2, 1e-3, 1e-4]:
            k1 = select_terms(KSelection("exponential", 1.0, nu, eps), iv)
            k2 = select_terms(KSelection("exponential", 1.0, nu, eps / 2.0), iv)
            assert k2 - k1 <= math.ceil(math.log(2.0) / nu) + 1

    def test_invalid_selection(self):
        with pytest.raises(DomainError):
            KSelection("exponential", zeta=-1.0, rate=1.0, epsilon=0.1)
        with pytest.raises(DomainError):
            KSelection("other", zeta=1.0, rate=1.0, epsilon=0.1)


class TestChooseInterval:
    def test_axa_keeps_default_width_at_1e6(self, axa_params):
        iv = choose_interval(axa_params, 1.0, 1e-6)
        a10, b10 = cumulant_interval(axa_params, 1.0, 10.0)
        assert iv.a == pytest.approx(a10) and iv.b == pytest.approx(b10)
        assert nig_cdf(iv.a, axa_params) <= 5e-7
        assert 1.0 - nig_cdf(iv.b, axa_params) <= 1e-6

    def test_symmetric_params_symmetric_interval(self):
        from qamcpricer.nig import NIGParams

        p = NIGParams(4.0, 0.0, 0.3)
        iv = choose_interval(p, 1.0, 1e-6)
        assert iv.a == pytest.approx(-iv.b, abs=1e-12)

    def test_widening_reduces_tail_mass(self, axa_params):
        tight = choose_interval(axa_params, 1.0, 1e-4)
        wide = choose_interval(axa_params, 1.0, 1e-9)
        assert wide.a <= tight.a and wide.b >= tight.b
        assert nig_cdf(wide.a, axa_params) <= nig_cdf(tight.a, axa_params)


class TestSerialization:
    def test_json_round_trip(self, axa_series):
        data = json.loads(series_to_json(axa_series))
        back = CosineSeries(Interval(data["a"], data["b"]), np.asarray(data["coeffs"]))
        assert back.interval == axa_series.interval
        assert np.array_equal(back.coeffs, axa_series.coeffs)
