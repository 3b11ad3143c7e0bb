"""Tests for the regularized NIG calibration."""

import numpy as np
import pytest

from qamcpricer.calibration import (
    CalibrationConfig,
    bs_prior,
    calibrate,
    grid_init,
    objective,
    quote_weights,
)
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.market_data import MarketSlice, OptionQuote, generate_synthetic_quotes
from qamcpricer.nig import NIGParams, nig_cumulants


@pytest.fixture(scope="module")
def axa_quote_slice(axa_params, axa_slice):
    strikes = np.linspace(0.8, 1.2, 20) * axa_slice.forward
    quotes = generate_synthetic_quotes(axa_params, axa_slice, strikes, spread=0.0)
    return axa_slice.with_quotes(quotes)


@pytest.fixture(scope="module")
def michelin_quote_slice(michelin_params, michelin_slice):
    strikes = np.linspace(0.82, 1.18, 16) * michelin_slice.forward
    quotes = generate_synthetic_quotes(michelin_params, michelin_slice, strikes, spread=0.0)
    return michelin_slice.with_quotes(quotes)


class TestObjective:
    def test_zero_at_truth_with_no_regularization(self, axa_params, axa_quote_slice):
        cfg = CalibrationConfig(regularization=0.0, weights_rule="uniform")
        truth = (axa_params.alpha, axa_params.beta, axa_params.delta)
        assert objective(truth, axa_quote_slice, cfg) <= 1e-14

    def test_penalty_vanishes_at_prior(self, axa_quote_slice):
        prior = (6.0, -2.0, 0.25)
        with_pen = CalibrationConfig(regularization=10.0, prior=prior, weights_rule="uniform")
        without = CalibrationConfig(regularization=0.0, prior=prior, weights_rule="uniform")
        assert objective(prior, axa_quote_slice, with_pen) == pytest.approx(
            objective(prior, axa_quote_slice, without), rel=1e-12
        )

    def test_quadratic_penalty_by_finite_differences(self, axa_quote_slice):
        prior = (6.0, -2.0, 0.25)
        lam = 3.0
        cfg = CalibrationConfig(regularization=lam, prior=prior, weights_rule="uniform")
        cfg0 = CalibrationConfig(regularization=0.0, prior=prior, weights_rule="uniform")
        delta = np.array([0.02, -0.01, 0.005])
        theta = np.array(prior) + delta
        penalty = objective(tuple(theta), axa_quote_slice, cfg) - objective(
            tuple(theta), axa_quote_slice, cfg0
        )
        assert penalty == pytest.approx(lam * float(np.sum(delta**2)), rel=1e-9)

    def test_inadmissible_rejected(self, axa_quote_slice):
        with pytest.raises(DomainError):
            objective((2.0, 1.5, 0.2), axa_quote_slice, CalibrationConfig())


class TestWeights:
    def test_uniform(self):
        quotes = [OptionQuote("X", 1.0, 100.0, "C", 1.0, 1.2)] * 3
        assert np.all(quote_weights(quotes, "uniform") == 1.0)

    def test_inverse_squared_spread_with_floor(self):
        wide = OptionQuote("X", 1.0, 100.0, "C", 1.0, 1.5)
        tight = OptionQuote("X", 1.0, 100.0, "C", 1.0, 1.0)
        w = quote_weights([wide, tight], "inverse-bid-ask")
        assert w[0] == pytest.approx(4.0)
        assert w[1] == pytest.approx(1e8)


class TestGridInit:
    def test_truth_in_lattice_is_chosen(self, axa_params, axa_quote_slice):
        cfg = CalibrationConfig(
            regularization=0.0,
            weights_rule="uniform",
            grid={"alpha": (4.0, 5.24, 8.0), "beta": (-3.26, 0.0), "delta": (0.18, 0.4)},
        )
        assert grid_init(axa_quote_slice, cfg) == (5.24, -3.26, 0.18)

    def test_singleton_lattice(self, axa_quote_slice):
        cfg = CalibrationConfig(grid={"alpha": (6.0,), "beta": (-2.0,), "delta": (0.2,)})
        assert grid_init(axa_quote_slice, cfg) == (6.0, -2.0, 0.2)

    def test_default_lattice_beats_median(self, axa_quote_slice):
        cfg = CalibrationConfig()
        start = grid_init(axa_quote_slice, cfg)
        admissible = [
            (a, b, d)
            for a in cfg.grid["alpha"]
            for b in cfg.grid["beta"]
            for d in cfg.grid["delta"]
            if a - b >= 1.0 + 1e-6 and a + b >= 1e-6
        ]
        scores = sorted(objective(p, axa_quote_slice, cfg) for p in admissible)
        assert objective(start, axa_quote_slice, cfg) <= scores[len(scores) // 2]

    def test_empty_lattice_error(self, axa_quote_slice):
        cfg = CalibrationConfig(grid={"alpha": (1.0,), "beta": (4.0,), "delta": (0.2,)})
        with pytest.raises(ValidationError):
            grid_init(axa_quote_slice, cfg)


class TestBsPrior:
    def test_recovers_bs_sigma(self, axa_slice):
        from qamcpricer.black_scholes import BSInputs, bs_price

        strikes = np.linspace(0.9, 1.1, 11) * axa_slice.forward
        quotes = []
        for k in strikes:
            inp = BSInputs(axa_slice.spot, float(k), 1.0, axa_slice.rate, 0.0, 0.2)
            for kind in ("C", "P"):
                mid = bs_price(inp, kind)
                quotes.append(OptionQuote("AXA", 1.0, float(k), kind, mid, mid))
        alpha0, beta0, delta0 = bs_prior(axa_slice.with_quotes(quotes))
        assert beta0 == 0.0
        assert delta0 == pytest.approx(10.0 * 0.04, abs=1e-6 * 0.4)

    def test_prior_admissible_over_vol_range(self):
        for sigma in [0.01, 0.2, 1.0, 2.0]:
            NIGParams(10.0, 0.0, 10.0 * sigma**2)  # does not raise

    def test_prior_variance_identity(self, axa_quote_slice):
        alpha0, beta0, delta0 = bs_prior(axa_quote_slice)
        p = NIGParams(alpha0, beta0, delta0)
        _, c2, _ = nig_cumulants(p, 1.0)
        sigma2 = delta0 / alpha0
        assert c2 == pytest.approx(sigma2, rel=1e-12)


class TestCalibrate:
    def test_axa_round_trip(self, axa_params, axa_quote_slice):
        result = calibrate(axa_quote_slice, CalibrationConfig(regularization=5e-7))
        theta = result.theta
        assert abs(theta.alpha - axa_params.alpha) / axa_params.alpha <= 0.02
        assert abs(theta.beta - axa_params.beta) / abs(axa_params.beta) <= 0.02
        assert abs(theta.delta - axa_params.delta) / axa_params.delta <= 0.02
        assert result.rmse_bp <= 10.0
        assert result.objective >= 0.0

    def test_michelin_price_space_accuracy(self, michelin_quote_slice):
        result = calibrate(michelin_quote_slice, CalibrationConfig(regularization=5e-7))
        assert result.max_err_bp <= 6.0

    def test_huge_lambda_pins_to_prior(self, axa_quote_slice):
        prior = (6.0, -2.0, 0.25)
        cfg = CalibrationConfig(regularization=1e3, prior=prior, weights_rule="uniform")
        result = calibrate(axa_quote_slice, cfg)
        theta = result.theta
        assert theta.alpha == pytest.approx(prior[0], abs=0.05)
        assert theta.beta == pytest.approx(prior[1], abs=0.05)
        assert theta.delta == pytest.approx(prior[2], abs=0.05)

    def test_monotone_descent_and_determinism(self, axa_quote_slice):
        cfg = CalibrationConfig(regularization=5e-7)
        first = calibrate(axa_quote_slice, cfg)
        again = calibrate(axa_quote_slice, cfg)
        assert first == again  # bit-for-bit: no hidden RNG
        assert first.objective <= objective(first.start, axa_quote_slice, cfg)

    def test_admissible_at_every_accepted_iterate(self, axa_quote_slice):
        from qamcpricer.calibration import ADMISSIBILITY_MARGIN

        trace: list = []
        calibrate(axa_quote_slice, CalibrationConfig(regularization=5e-7), iterate_log=trace)
        assert len(trace) > 0
        for theta in trace:
            alpha, beta, delta = theta
            assert alpha > 0 and delta > 0
            assert alpha - beta >= 1.0 + ADMISSIBILITY_MARGIN / 2
            assert alpha + beta >= ADMISSIBILITY_MARGIN / 2

    def test_mu_invariance_of_fit_quality(self, axa_quote_slice):
        # Prices from the fitted theta are unchanged when mu is moved (and the
        # martingale adjustment recenters), restated at price level.
        from qamcpricer.nig import ExpNIGModel, price_european_batch

        result = calibrate(axa_quote_slice, CalibrationConfig(regularization=5e-7))
        base = ExpNIGModel(result.theta, axa_quote_slice)
        moved = ExpNIGModel(result.theta.with_mu(0.3), axa_quote_slice)
        for strike in [30.0, 34.0, 38.0]:
            assert price_european_batch(base, [strike], ["C"])[0] == pytest.approx(
                price_european_batch(moved, [strike], ["C"])[0], abs=1e-9
            )
