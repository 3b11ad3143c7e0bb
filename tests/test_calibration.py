"""Tests for the regularized NIG calibration."""

from dataclasses import replace

import numpy as np
import pytest

from qamcpricer import calibration, experiments
from qamcpricer.calibration import (
    CalibrationConfig,
    _least_squares,
    bs_prior,
    calibrate,
    grid_init,
    quote_weights,
)
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.market_data import MarketSlice, OptionQuote, generate_synthetic_quotes
from qamcpricer.nig import NIGParams, nig_cumulants


def quote_slice(params, slice_, strikes):
    return replace(slice_, quotes=generate_synthetic_quotes(params, slice_, strikes, spread=0.0))


def objective(theta, slice_, cfg) -> float:
    """J(theta) as calibrate evaluates it."""
    fun, _ = _least_squares(slice_, cfg)
    return fun(np.asarray(theta, dtype=float))[0]


@pytest.fixture(scope="module")
def axa_quote_slice(axa_params, axa_slice):
    return quote_slice(axa_params, axa_slice, np.linspace(0.8, 1.2, 20) * axa_slice.forward)


@pytest.fixture(scope="module")
def michelin_quote_slice(michelin_params, michelin_slice):
    return quote_slice(michelin_params, michelin_slice, np.linspace(0.82, 1.18, 16) * michelin_slice.forward)


class TestObjective:
    def test_zero_at_truth_with_no_regularization(self, axa_params, axa_quote_slice):
        cfg = CalibrationConfig(regularization=0.0, weights_rule="uniform")
        truth = (axa_params.alpha, axa_params.beta, axa_params.delta)
        assert objective(truth, axa_quote_slice, cfg) <= 1e-14

    def test_penalty_vanishes_at_prior(self, axa_quote_slice):
        prior = bs_prior(axa_quote_slice)
        with_pen = CalibrationConfig(regularization=10.0, weights_rule="uniform")
        without = CalibrationConfig(regularization=0.0, weights_rule="uniform")
        assert objective(prior, axa_quote_slice, with_pen) == pytest.approx(
            objective(prior, axa_quote_slice, without), rel=1e-12
        )

    def test_quadratic_penalty_by_finite_differences(self, axa_quote_slice):
        prior = bs_prior(axa_quote_slice)
        lam = 3.0
        cfg = CalibrationConfig(regularization=lam, weights_rule="uniform")
        cfg0 = CalibrationConfig(regularization=0.0, weights_rule="uniform")
        delta = np.array([0.02, -0.01, 0.005])
        theta = np.array(prior) + delta
        penalty = objective(tuple(theta), axa_quote_slice, cfg) - objective(
            tuple(theta), axa_quote_slice, cfg0
        )
        assert penalty == pytest.approx(lam * float(np.sum(delta**2)), rel=1e-9)

    def test_gradient_matches_central_differences(self, axa_quote_slice):
        cfg = CalibrationConfig(regularization=1e-3)
        fun, fun_and_grad = _least_squares(axa_quote_slice, cfg)
        theta = np.array([5.0, -3.0, 0.2])
        value, grad = fun_and_grad(theta)
        assert value == fun(theta)[0]  # one arithmetic for J on both paths
        for i in range(3):
            step = 1e-5 * (1.0 + abs(theta[i]))
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            central = (fun(up)[0] - fun(dn)[0]) / (2.0 * step)
            assert grad[i] == pytest.approx(central, rel=1e-6, abs=1e-6 * np.max(np.abs(grad)))

    def test_inadmissible_rejected(self, axa_quote_slice):
        # (beta + 1)^2 >= alpha^2: the NIG law itself refuses the point.
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
    def test_truth_in_lattice_is_chosen(self, axa_params, axa_quote_slice, monkeypatch):
        lattice = {"alpha": (4.0, 5.24, 8.0), "beta": (-3.26, 0.0), "delta": (0.18, 0.4)}
        monkeypatch.setattr(calibration, "DEFAULT_GRID", lattice)
        cfg = CalibrationConfig(regularization=0.0, weights_rule="uniform")
        assert grid_init(axa_quote_slice, cfg)[0] == (5.24, -3.26, 0.18)

    def test_singleton_lattice(self, axa_quote_slice, monkeypatch):
        monkeypatch.setattr(calibration, "DEFAULT_GRID", {"alpha": (6.0,), "beta": (-2.0,), "delta": (0.2,)})
        assert grid_init(axa_quote_slice, CalibrationConfig()) == (
            (6.0, -2.0, 0.2),
            objective((6.0, -2.0, 0.2), axa_quote_slice, CalibrationConfig()),
        )

    def test_default_lattice_beats_median(self, axa_quote_slice):
        cfg = CalibrationConfig()
        start, _ = grid_init(axa_quote_slice, cfg)
        lattice = calibration.DEFAULT_GRID
        admissible = [
            (a, b, d)
            for a in lattice["alpha"]
            for b in lattice["beta"]
            for d in lattice["delta"]
            if a - b >= 1.0 + 1e-6 and a + b >= 1e-6
        ]
        scores = sorted(objective(p, axa_quote_slice, cfg) for p in admissible)
        assert objective(start, axa_quote_slice, cfg) <= scores[len(scores) // 2]

    def test_empty_lattice_error(self, axa_quote_slice, monkeypatch):
        monkeypatch.setattr(calibration, "DEFAULT_GRID", {"alpha": (1.0,), "beta": (4.0,), "delta": (0.2,)})
        with pytest.raises(ValidationError):
            grid_init(axa_quote_slice, CalibrationConfig())


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
        alpha0, beta0, delta0 = bs_prior(replace(axa_slice, quotes=quotes))
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
        prior = bs_prior(axa_quote_slice)
        cfg = CalibrationConfig(regularization=1e3, weights_rule="uniform")
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

    def test_admissible_at_every_accepted_iterate(self, axa_quote_slice, monkeypatch):
        # Every point priced lies in the NIG domain.  The gradient comes with
        # the prices, so only iterates are priced; on the second slice, whose
        # truth has alpha - beta = 1.00001, a finite-difference step of
        # 1e-5 (1 + |theta|) around the constrained iterates would cross
        # alpha - beta = 1.
        edge_slice = MarketSlice.from_rates("EDGE", 30.0, 1.0, 0.02)
        edge_slice = quote_slice(
            NIGParams(3.0, 1.99999, 0.2), edge_slice, np.linspace(0.8, 1.2, 12) * edge_slice.forward
        )
        priced = []
        model_prices = calibration._model_prices

        def recording(theta, slice_, quotes, **kwargs):
            priced.append(np.array(theta, copy=True))
            return model_prices(theta, slice_, quotes, **kwargs)

        monkeypatch.setattr(calibration, "_model_prices", recording)
        monkeypatch.setattr(calibration, "MAX_ITERATIONS", 40)
        for slice_, cfg in (
            (axa_quote_slice, CalibrationConfig(regularization=5e-7)),
            (edge_slice, CalibrationConfig(regularization=0.0, weights_rule="uniform")),
        ):
            priced.clear()
            calibrate(slice_, cfg)
            assert len(priced) > 0
            for alpha, beta, delta in priced:
                assert delta > 0 and alpha - beta > 1.0 and alpha + beta > 0.0
                NIGParams(alpha, beta, delta)  # does not raise

    def test_desk_slice_prices_few_batches(self, monkeypatch):
        # The make-bundle AXA slice.  With finite-difference gradients its
        # calibration priced 338 batches (6 extra per gradient, the optimum
        # twice and the grid start twice); now it is one batch per lattice
        # point, one per optimizer evaluation and one at the optimum.
        params, _ = experiments.FIXTURES["AXA"]
        slice_ = experiments.fixture_slice("AXA")
        slice_ = replace(
            slice_,
            quotes=tuple(
                generate_synthetic_quotes(params, slice_, np.linspace(0.82, 1.18, 12) * slice_.forward, 0.01)
            ),
        )
        calls = []
        model_prices = calibration._model_prices

        def counting(*args, **kwargs):
            calls.append(kwargs["gradient"])
            return model_prices(*args, **kwargs)

        monkeypatch.setattr(calibration, "_model_prices", counting)
        calibrate(slice_, CalibrationConfig())
        assert len(calls) <= 100
        assert calls[-1] is False  # the optimum: objective and residuals off one batch

    def test_mu_invariance_of_fit_quality(self, axa_quote_slice):
        # Prices from the fitted theta are unchanged when mu is moved (and the
        # martingale adjustment recenters), restated at price level.
        from qamcpricer.nig import ExpNIGModel, price_european_batch

        result = calibrate(axa_quote_slice, CalibrationConfig(regularization=5e-7))
        base = ExpNIGModel(result.theta, axa_quote_slice)
        moved = ExpNIGModel(replace(result.theta, mu=0.3), axa_quote_slice)
        for strike in [30.0, 34.0, 38.0]:
            assert price_european_batch(base, [strike], ["C"])[0] == pytest.approx(
                price_european_batch(moved, [strike], ["C"])[0], abs=1e-9
            )
