"""Tests for the NIG distribution and the exponential-NIG pricing model."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from qamcpricer.errors import DomainError
from qamcpricer.market_data import MarketSlice
from qamcpricer.nig import (
    ExpNIGModel,
    NIGParams,
    cumulant_interval,
    martingale_adjustment,
    nig_cdf,
    nig_cumulants,
    nig_pdf,
    price_european_batch,
    support_interval,
)
from qamcpricer.numerics import integrate

from cos_pricing import nig_char_exponent, price_european_cos
from nig_sampling import sample_nig


class TestParams:
    def test_admissibility(self):
        NIGParams(5.0, -3.0, 0.2)  # fine
        with pytest.raises(DomainError):
            NIGParams(-1.0, 0.0, 0.2)
        with pytest.raises(DomainError):
            NIGParams(2.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            NIGParams(2.0, 2.5, 0.2)  # beta^2 >= alpha^2
        with pytest.raises(DomainError):
            NIGParams(2.0, 1.5, 0.2)  # (beta+1)^2 >= alpha^2

    def test_gamma(self):
        p = NIGParams(5.0, 3.0, 0.2)
        assert p.gamma == pytest.approx(4.0)


class TestPdf:
    def test_symmetric_when_beta_mu_zero(self):
        p = NIGParams(4.0, 0.0, 0.3)
        for x in [0.1, 0.7, 2.3]:
            assert nig_pdf(x, p) == pytest.approx(nig_pdf(-x, p), abs=1e-14)

    def test_normalizes_on_widened_cumulant_interval(self, axa_params):
        a, b = cumulant_interval(axa_params, 1.0, 20.0)
        total = integrate(lambda x: nig_pdf(x, axa_params), (a, b), panels=24)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mode_negative_for_negative_beta(self, axa_params):
        res = minimize_scalar(lambda x: -nig_pdf(x, axa_params), bounds=(-1.0, 1.0), method="bounded")
        assert res.x < 0.0

    def test_mu_shift_equivariance(self, axa_params):
        shifted = replace(axa_params, mu=0.4)
        t = 0.7
        for x in [-0.5, 0.0, 0.9]:
            assert nig_pdf(x, shifted, t) == pytest.approx(nig_pdf(x - 0.4 * t, axa_params, t), rel=1e-13)

    def test_time_scaling(self, axa_params):
        # density at horizon t equals the NIG with (delta t, mu t)
        direct = nig_pdf(0.05, axa_params, 0.25)
        scaled = NIGParams(axa_params.alpha, axa_params.beta, axa_params.delta * 0.25, 0.0)
        assert direct == pytest.approx(nig_pdf(0.05, scaled, 1.0), rel=1e-13)

    def test_domain_error_on_bad_t(self, axa_params):
        with pytest.raises(DomainError):
            nig_pdf(0.0, axa_params, 0.0)


class TestCharExponent:
    def test_zero_at_zero(self, axa_params):
        assert nig_char_exponent(0.0, axa_params) == 0.0

    def test_conjugate_symmetry(self, axa_params):
        for u in [0.3, 1.7, 12.0]:
            lhs = nig_char_exponent(-u, axa_params)
            rhs = np.conj(nig_char_exponent(u, axa_params))
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_fourier_inversion_matches_pdf(self, axa_params):
        x = 0.1
        val, _ = quad(
            lambda u: (np.exp(nig_char_exponent(u, axa_params)) * np.exp(-1j * u * x)).real / np.pi,
            0.0,
            300.0,
            limit=500,
        )
        assert val == pytest.approx(nig_pdf(x, axa_params), abs=1e-8)


class TestMartingaleAdjustment:
    def test_closed_form_beta_zero(self):
        p = NIGParams(3.0, 0.0, 0.5)
        assert martingale_adjustment(p) == pytest.approx(0.5 * (math.sqrt(8.0) - 3.0))

    def test_linear_in_mu(self, axa_params):
        for mu in [-0.3, 0.7, 2.0]:
            assert martingale_adjustment(replace(axa_params, mu=mu)) == pytest.approx(
                martingale_adjustment(axa_params) - mu, abs=1e-14
            )

    def test_enforces_forward(self, axa_params, axa_slice):
        model = ExpNIGModel(axa_params, axa_slice)
        a, b = cumulant_interval(axa_params, 1.0, 20.0)
        mean_s = integrate(
            lambda x: axa_slice.spot * np.exp(model.drift + x) * nig_pdf(x, axa_params),
            (a, b),
            panels=32,
        )
        assert mean_s == pytest.approx(axa_slice.forward, rel=1e-7)

    def test_domain_error(self):
        p = NIGParams(5.0, -3.0, 0.2)
        bad = NIGParams.__new__(NIGParams)
        object.__setattr__(bad, "alpha", 2.0)
        object.__setattr__(bad, "beta", 1.2)
        object.__setattr__(bad, "delta", 0.2)
        object.__setattr__(bad, "mu", 0.0)
        with pytest.raises(DomainError):
            martingale_adjustment(bad)
        assert martingale_adjustment(p) != 0.0


class TestCumulants:
    def test_symmetric_centered(self):
        p = NIGParams(4.0, 0.0, 0.3)
        c1, c2, c4 = nig_cumulants(p)
        assert c1 == 0.0
        assert c2 > 0.0
        assert c4 > 0.0

    def test_match_quadrature_moments(self, axa_params):
        c1, c2, _ = nig_cumulants(axa_params)
        a, b = cumulant_interval(axa_params, 1.0, 20.0)
        m1 = integrate(lambda x: x * nig_pdf(x, axa_params), (a, b), panels=32)
        m2 = integrate(lambda x: (x - c1) ** 2 * nig_pdf(x, axa_params), (a, b), panels=32)
        assert m1 == pytest.approx(c1, abs=1e-8)
        assert m2 == pytest.approx(c2, abs=1e-8)


class TestSupportInterval:
    def test_tail_masses_bounded(self, axa_params):
        a, b = support_interval(axa_params, 1.0, 1e-6)
        assert nig_cdf(a, axa_params) <= 5e-7
        assert 1.0 - nig_cdf(b, axa_params) <= 5e-7

    def test_asymmetric_for_skewed(self, axa_params):
        c1, _, _ = nig_cumulants(axa_params)
        a, b = support_interval(axa_params, 1.0, 1e-8)
        assert (c1 - a) > 2.0 * (b - c1)  # fat left tail needs more room


class TestPriceEuropean:
    def test_small_strike_call_is_discounted_forward(self, axa_params, axa_slice):
        model = ExpNIGModel(axa_params, axa_slice)
        price = price_european_batch(model, [1e-6], ["C"])[0]
        target = axa_slice.discount_factor * (axa_slice.forward - 1e-6)
        assert price == pytest.approx(target, rel=1e-6)

    def test_mu_independence(self, axa_params, axa_slice):
        base = ExpNIGModel(axa_params, axa_slice)
        moved = ExpNIGModel(replace(axa_params, mu=0.7), axa_slice)
        for strike in [25.0, 33.8, 45.0]:
            assert price_european_batch(base, [strike], ["C"])[0] == pytest.approx(
                price_european_batch(moved, [strike], ["C"])[0], abs=1e-9
            )

    def test_put_call_parity(self, axa_params, axa_slice):
        model = ExpNIGModel(axa_params, axa_slice)
        for strike in [28.0, 33.8, 40.0]:
            call = price_european_batch(model, [strike], ["C"])[0]
            put = price_european_batch(model, [strike], ["P"])[0]
            parity = axa_slice.discount_factor * (axa_slice.forward - strike)
            assert call - put == pytest.approx(parity, abs=1e-9)

    def test_monotone_in_strike(self, michelin_params, michelin_slice):
        model = ExpNIGModel(michelin_params, michelin_slice)
        strikes = np.linspace(0.7, 1.3, 13) * michelin_slice.forward
        calls = [price_european_batch(model, [k], ["C"])[0] for k in strikes]
        puts = [price_european_batch(model, [k], ["P"])[0] for k in strikes]
        assert all(a > b for a, b in zip(calls, calls[1:]))
        assert all(a < b for a, b in zip(puts, puts[1:]))

    def test_batch_shape_checked(self, axa_params, axa_slice):
        model = ExpNIGModel(axa_params, axa_slice)
        with pytest.raises(DomainError):
            price_european_batch(model, [30.0, 31.0, 32.0], ["C"])  # fewer kinds than strikes
        with pytest.raises(DomainError):
            price_european_batch(model, [30.0], ["C", "P"])
        with pytest.raises(DomainError):
            price_european_batch(model, [[30.0, 31.0]], ["C", "C"])

    @pytest.mark.parametrize("params", [NIGParams(2.0, -1.99999, 0.3), NIGParams(6.0, -5.9999, 0.2)])
    def test_tails_too_heavy_to_price_rejected(self, params):
        # Admissible, but alpha + beta ~ 0 stretches the pricing interval to
        # ~1e5-1e6 in log-price, where the asset price overflows: the batch
        # used to come back NaN.
        model = ExpNIGModel(params, MarketSlice.from_rates("X", 30.0, 1.0, 0.02))
        with pytest.raises(DomainError):
            price_european_batch(model, [27.0, 30.0, 33.0], ["C", "C", "C"])


def central_differences(model, strikes, kinds):
    """d price / d(alpha, beta, delta) by central differences.

    The step is 1e-4 (1 + |theta_i|), capped at 1e-4 of the room to the edge
    of the NIG domain, where the curvature in alpha and beta grows like
    1 / (alpha - beta - 1) and 1 / (alpha + beta), and of delta.
    """
    p = model.params
    theta = np.array([p.alpha, p.beta, p.delta])
    edge = min(p.alpha - p.beta - 1.0, p.alpha + p.beta)
    room = (edge, edge, p.delta)
    out = np.empty((len(strikes), 3))
    for i in range(3):
        step = 1e-4 * min(1.0 + abs(theta[i]), room[i])
        moved = []
        for sign in (1.0, -1.0):
            shifted = theta.copy()
            shifted[i] += sign * step
            moved.append(ExpNIGModel(NIGParams(*shifted, p.mu), model.slice_))
        out[:, i] = (price_european_batch(moved[0], strikes, kinds) - price_european_batch(moved[1], strikes, kinds)) / (
            2.0 * step
        )
    return out


def gradient_quotes(slice_):
    """Calls and puts across the smile, plus a call struck below the pricing interval."""
    strikes = np.concatenate([[1e-3 * slice_.spot], np.linspace(0.7, 1.3, 13) * slice_.forward])
    strikes = np.concatenate([strikes, strikes[1:]])
    kinds = ["C"] * 14 + ["P"] * 13
    return strikes, kinds


class TestPriceGradient:
    @pytest.mark.parametrize(
        "name, params, spot",
        [
            ("AXA", NIGParams(5.24, -3.26, 0.18), 33.8),
            ("CREDIT_AGRICOLE", NIGParams(4.69, -3.06, 0.18), 12.91),
            ("MICHELIN", NIGParams(6.2, -3.31, 0.26), 31.76),
            # alpha - beta = 1.001: e^x f decays like exp(-0.001 x), so the
            # moving interval ends carry most of the derivative.
            ("SLOW_RIGHT", NIGParams(3.0, 1.999, 0.2), 30.0),
            # alpha + beta = 0.01: a finite S(T) on the pricing interval needs
            # delta t <~ 0.002, a sharp core, and the width-60 stop.
            ("SLOW_LEFT", NIGParams(0.6, -0.59, 0.001), 30.0),
        ],
    )
    def test_matches_central_differences(self, name, params, spot):
        model = ExpNIGModel(params, MarketSlice.from_rates(name, spot, 1.0, 0.02))
        strikes, kinds = gradient_quotes(model.slice_)
        prices, grad = price_european_batch(model, strikes, kinds, gradient=True)
        assert [repr(v) for v in prices] == [repr(v) for v in price_european_batch(model, strikes, kinds)]
        reference = central_differences(model, strikes, kinds)
        scale = np.max(np.abs(reference), axis=0)
        assert np.all(np.abs(grad - reference) <= 1e-6 * scale)

    def test_mu_independence(self, axa_params, axa_slice):
        strikes, kinds = gradient_quotes(axa_slice)
        base = ExpNIGModel(axa_params, axa_slice)
        moved = ExpNIGModel(replace(axa_params, mu=0.3), axa_slice)
        _, grad = price_european_batch(base, strikes, kinds, gradient=True)
        _, moved_grad = price_european_batch(moved, strikes, kinds, gradient=True)
        reference = central_differences(moved, strikes, kinds)
        scale = np.max(np.abs(grad), axis=0)
        assert np.all(np.abs(moved_grad - grad) <= 1e-9 * scale)
        assert np.all(np.abs(moved_grad - reference) <= 1e-6 * scale)

    def test_zero_where_the_price_is_zero(self, axa_params, axa_slice):
        # A call struck beyond the interval and a put below it price to 0 for
        # every nearby theta.
        model = ExpNIGModel(axa_params, axa_slice)
        prices, grad = price_european_batch(model, [1e8, 1e-8], ["C", "P"], gradient=True)
        assert np.all(prices == 0.0) and np.all(grad == 0.0)


class TestPriceCos:
    def test_agreement_with_quadrature_atm(self, axa_params, axa_slice):
        model = ExpNIGModel(axa_params, axa_slice)
        q = price_european_batch(model, [axa_slice.spot], ["C"])[0]
        c = price_european_cos(model, axa_slice.spot, "C", terms=256)
        assert abs(c - q) / q <= 1e-6

    def test_term_doubling_shrinks_error(self, axa_params, axa_slice):
        model = ExpNIGModel(axa_params, axa_slice)
        q = price_european_batch(model, [35.0], ["C"])[0]
        # Spectral decay holds once past the pre-asymptotic wiggle (~2^5 terms).
        errors = [abs(price_european_cos(model, 35.0, "C", terms=k) - q) for k in (32, 64, 128, 256)]
        assert all(a >= b * 0.9 for a, b in zip(errors, errors[1:]))  # monotone up to floor
        assert errors[-1] < 1e-4 * errors[0]

    def test_put_nonnegative(self, ca_params, ca_slice):
        model = ExpNIGModel(ca_params, ca_slice)
        for strike in np.linspace(0.5, 1.5, 11) * ca_slice.forward:
            assert price_european_cos(model, strike, "P", terms=256) >= -1e-12

    def test_two_pricers_agree_on_strike_grid(self, axa_params, ca_params, michelin_params,
                                              axa_slice, ca_slice, michelin_slice):
        pairs = [
            (axa_params, axa_slice),
            (ca_params, ca_slice),
            (michelin_params, michelin_slice),
        ]
        for params, slc in pairs:
            model = ExpNIGModel(params, slc)
            for moneyness in np.linspace(0.8, 1.2, 21):
                strike = moneyness * slc.forward
                for kind in ("C", "P"):
                    q = price_european_batch(model, [strike], [kind])[0]
                    c = price_european_cos(model, strike, kind, terms=256)
                    assert abs(c - q) <= 1e-6 * max(q, 1e-12), (slc.underlying, strike, kind)

    def test_terms_floor(self, axa_params, axa_slice):
        with pytest.raises(DomainError):
            price_european_cos(ExpNIGModel(axa_params, axa_slice), 30.0, "C", terms=8)


# Equity-skew NIG laws (left tail rate alpha + beta, right tail rate alpha - beta),
# the region of the bundled fixtures, with strikes at 0.7-1.3 x forward.
equity_laws = st.builds(
    lambda left, right, delta: NIGParams((left + right) / 2, (left - right) / 2, delta),
    st.floats(1.5, 4.0),
    st.floats(6.0, 12.0),
    st.floats(0.1, 0.4),
)
moneyness = st.floats(0.7, 1.3)
property_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)
PROPERTY_SLICE = MarketSlice.from_rates("PROP", spot=30.0, expiry=1.0, rate=0.02, dividend_yield=0.0)


class TestPricerProperties:
    @property_settings
    @given(params=equity_laws, m=moneyness)
    def test_put_call_parity_both_pricers(self, params, m):
        model = ExpNIGModel(params, PROPERTY_SLICE)
        strike = m * PROPERTY_SLICE.forward
        parity = PROPERTY_SLICE.discount_factor * (PROPERTY_SLICE.forward - strike)
        call, put = price_european_batch(model, [strike, strike], ["C", "P"])
        assert call - put == pytest.approx(parity, abs=1e-9)
        cos_gap = price_european_cos(model, strike, "C") - price_european_cos(model, strike, "P")
        assert cos_gap == pytest.approx(parity, abs=1e-6 * PROPERTY_SLICE.forward)

    @property_settings
    @given(params=equity_laws, m=moneyness, kind=st.sampled_from(["C", "P"]))
    def test_batch_of_one_matches_multi_strike_batch(self, params, m, kind):
        model = ExpNIGModel(params, PROPERTY_SLICE)
        strike = m * PROPERTY_SLICE.forward
        ladder = list(np.linspace(0.7, 1.3, 7) * PROPERTY_SLICE.forward)
        batch = price_european_batch(model, ladder + [strike], ["C", "P"] * 3 + ["C", kind])
        assert price_european_batch(model, [strike], [kind])[0] == pytest.approx(batch[-1], abs=1e-12)


class TestSampling:
    def test_mean_matches_first_cumulant(self, axa_params):
        rng = np.random.default_rng(1234)
        draws = sample_nig(axa_params, 1.0, rng, 10**6)
        c1, c2, _ = nig_cumulants(axa_params)
        se = math.sqrt(c2 / draws.size)
        assert abs(draws.mean() - c1) <= 4.0 * se

    def test_symmetric_skewness(self):
        p = NIGParams(4.0, 0.0, 0.3)
        rng = np.random.default_rng(99)
        draws = sample_nig(p, 1.0, rng, 200_000)
        std = draws.std()
        skew = np.mean(((draws - draws.mean()) / std) ** 3)
        se_skew = math.sqrt(6.0 / draws.size) * 3  # NIG excess kurtosis inflates the naive SE
        assert abs(skew) <= 4.0 * se_skew

    def test_seed_reproducibility(self, axa_params):
        a = sample_nig(axa_params, 1.0, np.random.default_rng(7), 100)
        b = sample_nig(axa_params, 1.0, np.random.default_rng(7), 100)
        assert np.array_equal(a, b)

    def test_count_validation(self, axa_params):
        with pytest.raises(DomainError):
            sample_nig(axa_params, 1.0, np.random.default_rng(0), 0)
