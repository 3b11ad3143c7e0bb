"""Tests for the NIG distribution and the exponential-NIG pricing model."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from qamcpricer import nig
from qamcpricer.calibration import BOUNDS, _theta
from qamcpricer.errors import DomainError
from qamcpricer.experiments import FIXTURES, fixture_slice
from qamcpricer.market_data import MarketSlice
from qamcpricer.nig import (
    ExpNIGModel,
    NIGParams,
    kve,
    martingale_adjustment,
    nig_cdf,
    nig_cumulants,
    nig_pdf,
    price_european_batch,
    pricing_interval,
    support_interval,
)
from qamcpricer.numerics import integrate

from cos_pricing import nig_char_exponent, price_european_cos
from nig_sampling import sample_nig
from series_bounds import cumulant_interval


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


class TestScaledBessel:
    # Cell edges of the z > 2 table sit at z = 2 cells / j, z = 2 among them.
    EDGES = 2.0 * nig._BESSEL_CELLS / np.arange(1, nig._BESSEL_CELLS + 1)

    @pytest.mark.parametrize("nu, oracle", [(0, special.k0e), (1, special.k1e)], ids=["k0e", "k1e"])
    def test_matches_scipy(self, nu, oracle):
        z = np.concatenate(
            [np.logspace(-4, 6, 4001), self.EDGES, np.nextafter(self.EDGES, 0.0), np.nextafter(self.EDGES, np.inf)]
        )
        assert np.max(np.abs(kve(nu, z) / oracle(z) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("nu", [0, 1])
    def test_nan_gives_nan(self, nu):
        # As scipy's k0e and k1e do; the z > 2 table cannot index a NaN.
        out = kve(nu, np.array([1.0, np.nan, 3.0]))
        assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2]]))
        assert np.isnan(kve(nu, np.nan))

    def test_keeps_the_input_shape(self):
        z = np.array([[0.5, 3.0], [2.0, 40.0]])
        assert kve(1, z).shape == (2, 2)
        assert kve(0, 3.0).shape == ()


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
        for f in (nig_pdf, nig_cdf):
            with pytest.raises(DomainError):
                f(0.0, axa_params, 0.0)

    @pytest.mark.parametrize("f", [nig_pdf, nig_cdf], ids=["pdf", "cdf"])
    @pytest.mark.parametrize("x", [math.nan, [0.0, math.nan]], ids=["scalar", "array"])
    def test_domain_error_on_nan_x(self, axa_params, f, x):
        with pytest.raises(DomainError):
            f(x, axa_params)


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

    @pytest.mark.parametrize("strike", [0.0, -1.0, math.nan, math.inf])
    def test_strikes_positive_and_finite(self, axa_params, axa_slice, strike):
        # Unchecked, a NaN strike prices to nan and an infinite put to inf.
        with pytest.raises(DomainError):
            price_european_batch(ExpNIGModel(axa_params, axa_slice), [30.0, strike], ["C", "P"])

    def test_put_call_parity_slow_right_tail(self):
        # alpha - beta - 1 = 1.21: a right tail with little mass but much of
        # the forward.  Cut on its mass alone, parity misses by 3.4e-6.
        model = ExpNIGModel(NIGParams(4.91, 2.70, 0.33), PROPERTY_SLICE)
        strikes = np.linspace(20.0, 40.0, 21)
        calls = price_european_batch(model, strikes, ["C"] * strikes.size)
        puts = price_european_batch(model, strikes, ["P"] * strikes.size)
        parity = PROPERTY_SLICE.discount_factor * (PROPERTY_SLICE.forward - strikes)
        assert np.max(np.abs(calls - puts - parity)) <= 1e-9

    def test_runs_no_tail_quadrature(self, axa_params, axa_slice, monkeypatch):
        # The pricing interval is closed-form: a batch calls no integrate.
        monkeypatch.setattr(nig, "integrate", None)
        assert price_european_batch(ExpNIGModel(axa_params, axa_slice), [33.8], ["C"], gradient=True)[0][0] > 0.0

    @pytest.mark.parametrize("params", [NIGParams(2.0, -1.99999, 0.3), NIGParams(6.0, -5.9999, 0.2)])
    def test_tails_too_heavy_to_price_rejected(self, params):
        # Admissible, but alpha + beta ~ 0 stretches the pricing interval to
        # ~1e5-1e6 in log-price, where the asset price overflows: the batch
        # used to come back NaN.
        model = ExpNIGModel(params, MarketSlice("X", 30.0, 1.0, 0.02))
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


# alpha - beta = 1.001: e^x f decays like exp(-0.001 x), so the moving
# interval ends carry most of the price derivative.
SLOW_RIGHT = NIGParams(3.0, 1.999, 0.2)
# alpha + beta = 0.01: a finite S(T) on the pricing interval needs
# delta t <~ 0.002, a sharp core, and the width-60 stop.
SLOW_LEFT = NIGParams(0.6, -0.59, 0.001)


class TestPriceGradient:
    @pytest.mark.parametrize(
        "name, params, spot",
        [
            ("AXA", NIGParams(5.24, -3.26, 0.18), 33.8),
            ("CREDIT_AGRICOLE", NIGParams(4.69, -3.06, 0.18), 12.91),
            ("MICHELIN", NIGParams(6.2, -3.31, 0.26), 31.76),
            ("SLOW_RIGHT", SLOW_RIGHT, 30.0),
            ("SLOW_LEFT", SLOW_LEFT, 30.0),
        ],
    )
    def test_matches_central_differences(self, name, params, spot):
        model = ExpNIGModel(params, MarketSlice(name, spot, 1.0, 0.02))
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

    def test_one_bessel_pass_per_kind(self, axa_params, axa_slice, monkeypatch):
        # The scores reuse the K1 values of the density pass: a plain batch
        # evaluates K1 once, and a gradient batch K1 and then K0.
        orders = []

        def counting(nu, z):
            orders.append(nu)
            return kve(nu, z)

        monkeypatch.setattr(nig, "kve", counting)
        model = ExpNIGModel(axa_params, axa_slice)
        strikes, kinds = gradient_quotes(axa_slice)
        price_european_batch(model, strikes, kinds)
        assert orders == [1]
        orders.clear()
        price_european_batch(model, strikes, kinds, gradient=True)
        assert orders == [1, 0]

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
PROPERTY_SLICE = MarketSlice("PROP", spot=30.0, expiry=1.0, rate=0.02, dividend_yield=0.0)


def reference_mesh(p, t, inner, refine, nodes):
    """Edges, nodes and weights of a composite Gauss-Legendre rule on the pricing interval [a, b].

    The mesh is 24 * ``refine`` equal panels, the points ``inner`` inside
    (a, b), and the edges graded toward mu t: mu t and mu t +- delta t 2^k
    for k = -1, 0, 1, ... while 2^k delta t is below (b - a) / 24, kept
    strictly inside (a, b).  Each panel carries a ``nodes``-node rule.
    """
    a, b = pricing_interval(p, t)
    dt = p.delta * t
    steps = [0.0]
    c = 0.5
    while c * dt < (b - a) / 24:
        steps += [-c, c]
        c *= 2.0
    graded = [p.mu * t + dt * step for step in steps if a < p.mu * t + dt * step < b]
    inner = [v for v in inner if a < v < b]
    edges = np.unique(np.concatenate([np.linspace(a, b, 24 * refine + 1), inner, graded]))
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * ref_nodes[None, :]).ravel()
    w = (half[:, None] * ref_weights[None, :]).ravel()
    return edges, x, w


def per_quote_prices(model, strikes, kinds, refine=1, nodes=16):
    """Each quote priced by its own dot product over ``reference_mesh`` with the batch's kinks.

    At the defaults these are price_european_batch's own nodes, so the
    function is the reference for its prefix and suffix sums; at
    ``refine=4, nodes=64`` it is the quadrature oracle.  It shares only
    nig_pdf and pricing_interval with the package.
    """
    p, slice_ = model.params, model.slice_
    t = slice_.expiry
    a, b = pricing_interval(p, t)
    omega = -p.mu + p.delta * (math.sqrt(p.alpha**2 - (p.beta + 1.0) ** 2) - math.sqrt(p.alpha**2 - p.beta**2))
    drift = (slice_.rate - slice_.dividend_yield + omega) * t
    x_stars = [math.log(strike / slice_.spot) - drift for strike in strikes]
    _, x, w = reference_mesh(p, t, x_stars, refine, nodes)
    dens = nig_pdf(x, p, t)
    s_vals = slice_.spot * np.exp(drift + x)
    out = []
    for strike, kind, x_star in zip(strikes, kinds, x_stars):
        if kind == "C":
            run = slice(np.searchsorted(x, min(x_star, b), side="left"), None)
            payoff = s_vals[run] - strike
        else:
            run = slice(0, np.searchsorted(x, max(x_star, a), side="right"))
            payoff = strike - s_vals[run]
        out.append(slice_.discount_factor * float(np.dot(w[run], payoff * dens[run])))
    return np.array(out)


def certified(model, strikes, kinds):
    """Whether the batch's prices lie within 1e-12 of spot of the quadrature oracle."""
    prices = price_european_batch(model, strikes, kinds)
    oracle = per_quote_prices(model, strikes, kinds, refine=4, nodes=64)
    return np.max(np.abs(prices - oracle)) <= 1e-12 * model.slice_.spot


def desk_quotes(slice_):
    """The make-bundle quote layout: 12 strikes 0.82-1.18 F, each as a call and a put."""
    strikes = np.repeat(np.linspace(0.82, 1.18, 12) * slice_.forward, 2)
    return strikes, ["C", "P"] * 12


class TestPricerProperties:
    @property_settings
    @given(params=equity_laws)
    def test_batch_matches_per_quote_sums(self, params):
        # Calls and puts from deep in the money to far out, plus a call and a
        # put struck beyond the pricing interval (price 0).
        model = ExpNIGModel(params, PROPERTY_SLICE)
        strikes = np.concatenate([np.linspace(0.4, 2.0, 17) * PROPERTY_SLICE.forward, [1e8, 1e-8]])
        kinds = ["C", "P"] * 8 + ["C", "C", "P"]
        prices, _ = price_european_batch(model, strikes, kinds, gradient=True)
        assert prices.tobytes() == price_european_batch(model, strikes, kinds).tobytes()
        reference = per_quote_prices(model, strikes, kinds)
        assert np.all(np.abs(prices - reference) <= 1e-12 * np.abs(reference))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(BOUNDS[0][0], BOUNDS[1][0]),
        st.floats(BOUNDS[0][1], BOUNDS[1][1]),
        st.floats(BOUNDS[0][2], BOUNDS[1][2]),
    )
    def test_prices_certified_over_the_calibration_box(self, u, v, delta):
        # Every law the calibration may price, at the desk's quotes: the
        # 16-node batch is within 1e-12 of spot of the 4x refined 64-node
        # oracle.  Laws whose S(T) overflows on the interval are rejected.
        model = ExpNIGModel(NIGParams(*_theta((u, v, delta))), PROPERTY_SLICE)
        try:
            ok = certified(model, *desk_quotes(PROPERTY_SLICE))
        except DomainError:
            return
        assert ok

    @pytest.mark.parametrize("delta", [1e-3, 2e-3, 5e-3, 2e-2])
    def test_narrow_core_certified(self, delta):
        # NIG(0.6, -0.59, delta): a core of width ~delta, far narrower than an
        # equal panel (delta = 1e-3 is SLOW_LEFT).
        slice_ = MarketSlice("CORE", 30.0, 1.0, 0.03)
        strikes, kinds = desk_quotes(slice_)
        strikes = np.concatenate([strikes, [25.0, 25.0, 30.0, 30.0, 35.0, 35.0]])
        assert certified(ExpNIGModel(NIGParams(0.6, -0.59, delta), slice_), strikes, kinds + ["C", "P"] * 3)

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


def strike_on_a_panel_edge(model):
    """A strike whose kink log(K / S0) - drift is exactly an inner equal-panel edge of the model's mesh.

    None if no strike within 16 ulps of S0 exp(edge + drift) hits one.
    """
    a, b = model.interval
    spot, drift = model.slice_.spot, model.drift
    for edge in np.linspace(a, b, 25)[1:-1]:
        if not -700.0 < edge + drift < 700.0:
            continue
        guess = spot * math.exp(edge + drift)
        for strike in (guess * (1.0 + j * 2.0**-52) for j in range(-16, 17)):
            if math.log(strike / spot) - drift == edge:
                return strike
    return None


# Laws drawn from the calibration box, in its coordinates (u, v, delta).
box_laws = st.builds(
    lambda u, v, delta: NIGParams(*_theta((u, v, delta))),
    st.floats(BOUNDS[0][0], BOUNDS[1][0]),
    st.floats(BOUNDS[0][1], BOUNDS[1][1]),
    st.floats(BOUNDS[0][2], BOUNDS[1][2]),
)


class TestStackedBatch:
    @property_settings
    @given(st.lists(box_laws, min_size=1, max_size=12))
    def test_rows_match_single_batches(self, laws):
        # Each row of a stack is the batch of its law alone, bit for bit: a
        # ladder from deep in the money to beyond the interval (kinks outside
        # (a, b)) and, where one exists, a strike whose kink is a panel edge.
        # Twelve desk-sized rows overflow one block of nig._STACK_NODES.
        models = [m for m in (ExpNIGModel(p, PROPERTY_SLICE) for p in laws) if m.priceable]
        assume(models)
        strikes = list(np.linspace(0.4, 2.0, 9) * PROPERTY_SLICE.forward) + [1e-8, 1e8]
        on_edge = strike_on_a_panel_edge(models[-1])
        strikes += [] if on_edge is None else [on_edge]
        kinds = ["C", "P"] * (len(strikes) // 2) + ["C"] * (len(strikes) % 2)
        stack = price_european_batch(models, strikes, kinds)
        assert stack.shape == (len(models), len(strikes))
        for model, row in zip(models, stack):
            assert row.tobytes() == price_european_batch(model, strikes, kinds).tobytes()
        # The stacked equal-panel edges are np.linspace's, bit for bit.
        log_k = np.log(np.asarray(strikes) / PROPERTY_SLICE.spot)
        fields = nig._LawColumns._fields
        rows = np.array([(*m.interval, m.drift, *(getattr(m.params, f) for f in fields)) for m in models])
        panels = nig._Mesh.build(rows, log_k - rows[:, 2:3], PROPERTY_SLICE.expiry).candidates[:, :25]
        assert panels.tobytes() == np.array([np.linspace(*m.interval, 25) for m in models]).tobytes()

    def test_kink_on_a_panel_edge(self, axa_params, ca_params, michelin_params, axa_slice):
        # The edge and the kink are one edge after the dedupe, in the stack
        # as in each single batch.
        models = [ExpNIGModel(p, axa_slice) for p in (axa_params, ca_params, michelin_params)]
        strikes = [strike_on_a_panel_edge(m) for m in models]
        assert None not in strikes
        kinds = ["C", "P", "C"]
        stack = price_european_batch(models, strikes, kinds)
        for model, row in zip(models, stack):
            assert row.tobytes() == price_european_batch(model, strikes, kinds).tobytes()

    def test_stack_checked(self, axa_params, ca_params, axa_slice, michelin_slice):
        heavy = ExpNIGModel(NIGParams(2.0, -1.99999, 0.3), axa_slice)
        models = [ExpNIGModel(axa_params, axa_slice), ExpNIGModel(ca_params, axa_slice)]
        assert not heavy.priceable and all(m.priceable for m in models)
        with pytest.raises(DomainError):
            price_european_batch(models + [heavy], [30.0], ["C"])  # one row cannot be priced
        with pytest.raises(DomainError):
            price_european_batch(models + [ExpNIGModel(axa_params, michelin_slice)], [30.0], ["C"])
        with pytest.raises(DomainError):
            price_european_batch([], [30.0], ["C"])
        with pytest.raises(DomainError):
            price_european_batch(models, [30.0], ["C"], gradient=True)


# Pinned at the commit before nig_cdf and the gradient batch moved onto the
# pricer's deduped mesh: the make-bundle AXA slice's 24 prices and their
# (alpha, beta, delta)-gradient, and a stack of the three fixtures on that
# slice, each strike the kink of its row's law on an equal-panel edge.
AXA_PLAIN_HEX = [
    "0x1.c5ab715707997p+2", "0x1.012cbf371d745p+0", "0x1.8c9cfe76d4667p+2", "0x1.3821af02d48b8p+0",
    "0x1.5630ce399c2e1p+2", "0x1.799fa95a778c8p+0", "0x1.22ddf61498133p+2", "0x1.c7830412eb00ap+0",
    "0x1.e652c9a697b66p+1", "0x1.11efbd2d1f02ep+1", "0x1.8f3fcc190b4d1p+1", "0x1.48741d45d4875p+1",
    "0x1.41929fbedd436p+1", "0x1.885e4e91e86ddp+1", "0x1.fc4cdcb5f523bp+0", "0x1.d2897ad447ad5p+1",
    "0x1.8ad68e0462b50p+0", "0x1.13b2d890e032fp+2", "0x1.2e6dbeaa19fd2p+0", "0x1.4364538d6efd7p+2",
    "0x1.cae34ab9521f5p-1", "0x1.77f0fc0d33bbbp+2", "0x1.5a824335d0564p-1", "0x1.b0b089efe47b0p+2",
]
AXA_GRADIENT_HEX = [
    ["-0x1.b3325d0bb3ae5p-2", "-0x1.dd04c65b64d0bp-2", "0x1.52a02e3a0f35bp+2"],
    ["-0x1.b3325d0a5e4c1p-2", "-0x1.dd04c65a3c2e4p-2", "0x1.52a02e3b2c8e0p+2"],
    ["-0x1.d2800d40488d9p-2", "-0x1.fe61b0146c0d5p-2", "0x1.85ccdcee62dfbp+2"],
    ["-0x1.d2800d3ee58b7p-2", "-0x1.fe61b01337940p-2", "0x1.85ccdcef8b9bap+2"],
    ["-0x1.ec295ab942dc0p-2", "-0x1.0c31bb28a8a22p-1", "0x1.baa141996233ap+2"],
    ["-0x1.ec295ab7d239ep-2", "-0x1.0c31bb28087a1p-1", "0x1.baa1419a96532p+2"],
    ["-0x1.fdbdfa0034121p-2", "-0x1.13eb9468ae574p-1", "0x1.ee7d2a195f175p+2"],
    ["-0x1.fdbdf9feb5cffp-2", "-0x1.13eb94680843dp-1", "0x1.ee7d2a1a9e9a7p+2"],
    ["-0x1.024f333ce5614p-1", "-0x1.14a5947fcc7aap-1", "0x1.0ebef46adb358p+3"],
    ["-0x1.024f333c1f706p-1", "-0x1.14a5947f207bfp-1", "0x1.0ebef46b80a91p+3"],
    ["-0x1.fe5c8c2a19e53p-2", "-0x1.0ccf4d05cd52fp-1", "0x1.2139d2e9ad5dap+3"],
    ["-0x1.fe5c8c288063bp-2", "-0x1.0ccf4d051b68cp-1", "0x1.2139d2ea58832p+3"],
    ["-0x1.e9652693ce36ep-2", "-0x1.f6fed26121874p-2", "0x1.2baf038d4b0e1p+3"],
    ["-0x1.e965269227156p-2", "-0x1.f6fed25fb1dbfp-2", "0x1.2baf038dfbe58p+3"],
    ["-0x1.c5de4826b15bfp-2", "-0x1.c231659d349c9p-2", "0x1.2b65420aed7fdp+3"],
    ["-0x1.c5de4824fc9a6p-2", "-0x1.c231659bb919cp-2", "0x1.2b65420ba4092p+3"],
    ["-0x1.9656a6d61e7fep-2", "-0x1.7f87c7fe2867fp-2", "0x1.1f0218746890ep+3"],
    ["-0x1.9656a6d45c1e1p-2", "-0x1.7f87c7fca10e5p-2", "0x1.1f02187524cbfp+3"],
    ["-0x1.5f9f72eb3cabfp-2", "-0x1.36766bdf968b7p-2", "0x1.078351b172ccbp+3"],
    ["-0x1.5f9f72e96caa1p-2", "-0x1.36766bde035b1p-2", "0x1.078351b234b96p+3"],
    ["-0x1.2780dfa770407p-2", "-0x1.decb257307c18p-3", "0x1.d081d98db090bp+2"],
    ["-0x1.2780dfa5929e8p-2", "-0x1.decb256fc9b33p-3", "0x1.d081d98f3fcd0p+2"],
    ["-0x1.e5e091113275ap-3", "-0x1.61d149d574350p-3", "0x1.8b6a83461e5e3p+2"],
    ["-0x1.e5e0910d5bf23p-3", "-0x1.61d149d21e792p-3", "0x1.8b6a8347b8fe2p+2"],
]
EDGE_STRIKES_HEX = [
    "0x1.09e291fb5b563p+6", "0x1.25db4b0c76c5fp+6", "0x1.f3a35b19c9bc8p+5",
]
EDGE_STACK_HEX = [
    ["0x1.400c2f1ca88ebp-8", "0x1.31b0f0d0a51a3p+5", "0x1.2079d8b6bfc7ep-7"],
    ["0x1.069a557b0a9e1p-7", "0x1.31b3fa366a819p+5", "0x1.c4085fa79f94dp-7"],
    ["0x1.ba931e37607a1p-8", "0x1.31b21025ee4d4p+5", "0x1.9f9418b387360p-7"],
]


class TestPinnedBits:
    def test_make_bundle_axa_slice(self):
        slice_ = fixture_slice("AXA")
        model = ExpNIGModel(FIXTURES["AXA"][0], slice_)
        strikes, kinds = desk_quotes(slice_)
        prices, grad = price_european_batch(model, strikes, kinds, gradient=True)
        assert [v.hex() for v in price_european_batch(model, strikes, kinds)] == AXA_PLAIN_HEX
        assert [v.hex() for v in prices] == AXA_PLAIN_HEX
        assert [[v.hex() for v in row] for row in grad] == AXA_GRADIENT_HEX

    def test_stack_with_kinks_on_panel_edges(self):
        slice_ = fixture_slice("AXA")
        models = [ExpNIGModel(FIXTURES[name][0], slice_) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
        strikes = [float.fromhex(v) for v in EDGE_STRIKES_HEX]
        for model, strike in zip(models, strikes):
            assert math.log(strike / slice_.spot) - model.drift in np.linspace(*model.interval, 25)[1:-1]
        stack = price_european_batch(models, strikes, ["C", "P", "C"])
        assert [[v.hex() for v in row] for row in stack] == EDGE_STACK_HEX

    def test_edge_sources_are_the_first_equal_candidates(self):
        # The gradient moves each panel edge as its first equal candidate:
        # np.unique's first indices, on the make-bundle AXA slice, with the
        # AXA kink on an equal-panel edge (the edge's source is the panel's,
        # not the kink's), and on the stack of the three fixtures' edge kinks,
        # whose shorter rows pad with b.
        slice_ = fixture_slice("AXA")
        models = [ExpNIGModel(FIXTURES[name][0], slice_) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
        desk, _ = desk_quotes(slice_)
        edge = [float.fromhex(v) for v in EDGE_STRIKES_HEX]
        for laws, strikes in (([models[0]], desk), ([models[0]], [*desk, edge[0]]), (models, edge)):
            mesh = pricer_mesh(laws, strikes)
            for row in range(len(laws)):
                values, first = np.unique(mesh.candidates[row], return_index=True)
                pad = mesh.edges.shape[1] - values.size
                assert np.array_equal(mesh.edges[row], np.concatenate([values, np.full(pad, values[-1])]))
                assert np.array_equal(mesh.sources(row), np.concatenate([first, np.full(pad, first[-1])]))
            assert mesh.edges.shape[1] > min(mesh.count) or len(laws) == 1
        on_edge = pricer_mesh([models[0]], [*desk, edge[0]])
        kink = on_edge.candidates.shape[1] - on_edge.steps.size - 1
        assert on_edge.candidates[0, kink] in on_edge.candidates[0, 1:24]
        assert kink not in on_edge.sources(0)


def pricer_mesh(models, strikes):
    """The mesh that price_european_batch builds for ``models`` on their one slice."""
    slice_ = models[0].slice_
    rows = np.array([(*m.interval, m.drift, *(getattr(m.params, f) for f in nig._LawColumns._fields)) for m in models])
    log_k = np.array([math.log(strike / slice_.spot) for strike in strikes])
    return nig._Mesh.build(rows, log_k - rows[:, 2:3], slice_.expiry)


def check_reads(mesh):
    """``mesh.reads()`` is each kink's left and right searchsorted over its row's live nodes.

    A kink beside a panel narrower than 256 ulps, whose nodes may round onto
    its ends, is only held between the two: the count of such kinks is
    returned.  Every padding weight is +0.0.
    """
    x, w = mesh.quadrature()
    reads, crowded = mesh.reads(), 0
    for row, live in enumerate(mesh.nodes):
        kinks = mesh.extra[row]
        left = np.searchsorted(x[row, :live], kinks, side="left")
        right = np.searchsorted(x[row, :live], kinks, side="right")
        gap = np.abs(mesh.edges[row][None, :] - kinks[:, None])
        near = np.any((gap > 0.0) & (gap <= 256.0 * np.spacing(np.abs(kinks))[:, None]), axis=1)
        assert np.all(left <= reads[row]) and np.all(reads[row] <= right)
        assert np.array_equal(reads[row][~near], left[~near]) and np.array_equal(reads[row][~near], right[~near])
        crowded += int(near.sum())
        padding = w[row, live:]
        assert np.all(padding == 0.0) and not np.signbit(padding).any()
    return crowded


class TestMeshReads:
    def test_reads_split_the_live_nodes_at_each_kink(self):
        # The make-bundle AXA slice, the three fixtures with kinks on
        # equal-panel edges, the slow tails and a narrow core, and kinks
        # below a and above b; stacked, the shorter rows pad with b.
        slice_ = fixture_slice("AXA")
        desk, _ = desk_quotes(slice_)
        edge = [float.fromhex(v) for v in EDGE_STRIKES_HEX]
        beyond = [1e-8, 1e8]
        fixtures = [ExpNIGModel(FIXTURES[name][0], slice_) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
        hard = [ExpNIGModel(p, slice_) for p in (SLOW_LEFT, SLOW_RIGHT, NIGParams(0.6, -0.59, 0.2))]
        for models, strikes in (
            (fixtures[:1], desk),
            (fixtures, edge),
            (hard, [*desk, *beyond]),
            (fixtures + hard, [*desk, *edge, *beyond]),
        ):
            mesh = pricer_mesh(models, strikes)
            assert check_reads(mesh) == 0
            assert mesh.edges.shape[1] > min(mesh.count) or len(models) == 1

    @property_settings
    @given(st.lists(box_laws, min_size=1, max_size=12))
    def test_reads_split_the_live_nodes_on_box_law_stacks(self, laws):
        models = [m for m in (ExpNIGModel(p, PROPERTY_SLICE) for p in laws) if m.priceable]
        assume(models)
        strikes, _ = desk_quotes(PROPERTY_SLICE)
        check_reads(pricer_mesh(models, [*strikes, 1e-8, 1e8]))


def reference_cdf(p, t, xs):
    """The CDF at xs clipped to the pricing interval [a, b], by one cumulative
    sum over a 4x refined 64-node ``reference_mesh`` with the points as edges."""
    a, b = pricing_interval(p, t)
    clipped = np.clip(xs, a, b)
    edges, x, w = reference_mesh(p, t, clipped, refine=4, nodes=64)
    cum = np.concatenate([[0.0], np.cumsum(w * nig_pdf(x, p, t))])
    return cum[np.searchsorted(edges, clipped) * 64]


def check_cdf(p, t=1.0):
    """nig_cdf is 0 at and below a and within 1e-12 of the oracle across and beyond [a, b]."""
    a, b = pricing_interval(p, t)
    c1, c2, c4 = nig_cumulants(p, t)
    scale = math.sqrt(c2 + math.sqrt(c4))
    core = p.mu * t + p.delta * t * np.array([-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 4.0])
    inside = np.concatenate([np.linspace(a, b, 41)[1:-1], c1 + scale * np.linspace(-3.0, 3.0, 13), core])
    xs = np.concatenate([[a - 1.0, a], inside, [b, b + 1.0]])
    cdf = nig_cdf(xs, p, t)
    assert cdf[0] == 0.0 and cdf[1] == 0.0
    assert np.max(np.abs(cdf - reference_cdf(p, t, xs))) <= 1e-12


class TestCdf:
    def test_narrow_core_reaches_one(self):
        # NIG(0.6, -0.59, 0.2) lies inside the calibration box and has a
        # core far narrower than an equal panel of its interval.
        p = NIGParams(0.6, -0.59, 0.2)
        a, b = pricing_interval(p, 1.0)
        assert abs(nig_cdf(b, p) - 1.0) <= 1e-10
        xs = np.concatenate([np.linspace(-5.0, 5.0, 201), [a, b]])
        batch = nig_cdf(xs, p)
        assert np.max(np.abs(np.array([nig_cdf(v, p) for v in xs]) - batch)) <= 1e-14

    @pytest.mark.parametrize(
        "params",
        [*(params for params, _ in FIXTURES.values()), SLOW_RIGHT, SLOW_LEFT, NIGParams(0.6, -0.59, 0.2)],
        ids=[*FIXTURES, "SLOW_RIGHT", "SLOW_LEFT", "NARROW_CORE"],
    )
    def test_matches_refined_oracle(self, params):
        check_cdf(params)

    @property_settings
    @given(params=equity_laws, t=st.floats(0.1, 2.0))
    def test_matches_refined_oracle_on_equity_laws(self, params, t):
        check_cdf(params, t)


class TestSupportIntervalTightness:
    @pytest.mark.parametrize(
        "params",
        [*(params for params, _ in FIXTURES.values()), SLOW_RIGHT, SLOW_LEFT, NIGParams(0.6, -0.59, 0.2)],
        ids=[*FIXTURES, "SLOW_RIGHT", "SLOW_LEFT", "NARROW_CORE"],
    )
    def test_each_end_holds_almost_its_share(self, params):
        # An independent oracle, scipy's adaptive quadrature over each
        # half-line, puts between 0.99 and 1 + 1e-6 of tail_eps / 2 beyond
        # each end: the bisection stops within 1e-3 of the tightest end.
        tail_eps = 1e-5
        a, b = support_interval(params, 1.0, tail_eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails = [
                quad(lambda x: nig_pdf(x, params), lo, hi, epsabs=1e-16, epsrel=1e-11)[0]
                for lo, hi in ((-np.inf, a), (b, np.inf))
            ]
        for tail in tails:
            assert 0.99 <= tail / (0.5 * tail_eps) <= 1.0 + 1e-6


def tail_bound(p, t, end, side):
    """The closed-form tail bound of nig.pricing_interval, inf for an end on the wrong side of mu t.

    Left: the mass below ``end``.  Right: the share of E[e^X] above it.
    """
    dt = p.delta * t
    if side == "left":
        m, g, rate = p.mu * t - end, p.gamma, p.alpha + p.beta
    else:
        m, g, rate = end - p.mu * t, math.sqrt(p.alpha**2 - (p.beta + 1.0) ** 2), p.alpha - p.beta - 1.0
    if m <= 0:
        return math.inf
    root = dt * math.sqrt(p.alpha / (2.0 * math.pi)) * math.exp(dt * g)
    return root * m**-1.5 * (1.0 + 3.0 / (8.0 * p.alpha * m)) * math.exp(-rate * m) / rate


def quadrature_tail(p, t, end, side):
    """The tail that tail_bound bounds, by quadrature over 100 e-folds of its rate.

    The right tail stops by x = 700, where e^x still fits a float.  A cut tail
    is a lower estimate, so it may be held to the bound all the same.
    """
    if side == "left":
        return integrate(lambda x: nig_pdf(x, p, t), (end - 100.0 / (p.alpha + p.beta), end), panels=64)
    log_mean = t * (p.mu + p.delta * (p.gamma - math.sqrt(p.alpha**2 - (p.beta + 1.0) ** 2)))
    reach = min(100.0 / (p.alpha - p.beta - 1.0), 700.0 - end)
    return integrate(lambda x: np.exp(x - log_mean) * nig_pdf(x, p, t), (end, end + reach), panels=64)


def check_pricing_interval(p, t):
    """Each end lies at the first width of 10, 12, ..., 60 whose tail bound is <= 1e-11 (60 is the stop),
    and the quadrature tail beyond it is within the bound."""
    c1, c2, c4 = nig_cumulants(p, t)
    scale = math.sqrt(c2 + math.sqrt(c4))
    a, b = pricing_interval(p, t)
    for side, sign, end in (("left", -1.0, a), ("right", 1.0, b)):
        width = round(sign * (end - c1) / scale)
        assert width in range(10, 62, 2) and end == c1 + sign * width * scale
        bound = tail_bound(p, t, end, side)
        assert quadrature_tail(p, t, end, side) <= bound
        assert bound <= 1e-11 or width == 60
        assert width == 10 or tail_bound(p, t, c1 + sign * (width - 2) * scale, side) > 1e-11


class TestPricingInterval:
    def test_bessel_majorant(self):
        # DLMF 10.40(ii): K1(z) <= sqrt(pi / 2z) e^-z (1 + 3 / 8z) for z > 0.
        z = np.logspace(-3, 3, 601)
        assert np.all(np.sqrt(2.0 * z / np.pi) * special.k1e(z) <= 1.0 + 3.0 / (8.0 * z))

    @pytest.mark.parametrize(
        "params",
        [*(params for params, _ in FIXTURES.values()), SLOW_RIGHT, SLOW_LEFT],
        ids=[*FIXTURES, "SLOW_RIGHT", "SLOW_LEFT"],
    )
    def test_ends_pass_the_tail_bound(self, params):
        check_pricing_interval(params, 1.0)

    @property_settings
    @given(params=equity_laws, t=st.floats(0.1, 2.0))
    def test_ends_pass_the_tail_bound_on_equity_laws(self, params, t):
        check_pricing_interval(params, t)

    def test_slow_tails_stop_at_width_60(self):
        # SLOW_RIGHT's forward share and SLOW_LEFT's mass beyond width 60 are
        # above 1e-11: the stop is silent.
        for params, side in ((SLOW_RIGHT, 1), (SLOW_LEFT, 0)):
            c1, c2, c4 = nig_cumulants(params)
            end = pricing_interval(params, 1.0)[side]
            assert abs(end - c1) == pytest.approx(60.0 * math.sqrt(c2 + math.sqrt(c4)), rel=1e-12)


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
