"""Tests for the regularized NIG calibration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qamcpricer import calibration, experiments
from qamcpricer.calibration import (
    BOUNDS,
    CalibrationConfig,
    _least_squares,
    _theta,
    _z,
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
    fun, _, _ = _least_squares(slice_, cfg)
    return fun(np.asarray(theta, dtype=float))[0]


def desk_slice(name):
    """The make-bundle slice of a desk name: 12 strikes 0.82-1.18 F, half-spread 0.01."""
    params, _ = experiments.FIXTURES[name]
    slice_ = experiments.fixture_slice(name)
    return replace(
        slice_,
        quotes=tuple(
            generate_synthetic_quotes(params, slice_, np.linspace(0.82, 1.18, 12) * slice_.forward, 0.01)
        ),
    )


def jacobian_by_central_differences(residual, z):
    """dr/dz by central differences.

    The step is 1e-4 (1 + |z_i|), capped at 1e-4 of z_i for u, v and delta,
    whose zero is the edge of the NIG domain.
    """
    columns = []
    for i in range(3):
        step = 1e-4 * min(1.0 + abs(z[i]), z[i])
        up, dn = z.copy(), z.copy()
        up[i] += step
        dn[i] -= step
        columns.append((residual(up) - residual(dn)) / (2.0 * step))
    return np.column_stack(columns)


# The fixtures and a law with alpha - beta = 1.001.
FIT_POINTS = [(5.24, -3.26, 0.18), (4.69, -3.06, 0.18), (6.2, -3.31, 0.26), (3.0, 1.999, 0.2)]


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

    def test_residual_norm_is_the_objective(self, axa_quote_slice):
        cfg = CalibrationConfig(regularization=1e-3)
        fun, residual, _ = _least_squares(axa_quote_slice, cfg)
        for theta in FIT_POINTS[:3] + [bs_prior(axa_quote_slice)]:
            z = _z(theta)
            value = fun(_theta(z))[0]
            assert float(np.sum(residual(z) ** 2)) == pytest.approx(value, rel=1e-14, abs=0.0)

    def test_jacobian_matches_central_differences(self, axa_quote_slice):
        cfg = CalibrationConfig(regularization=1e-3)
        _, residual, jac = _least_squares(axa_quote_slice, cfg)
        for theta in FIT_POINTS:
            z = _z(theta)
            exact = jac(z)  # first at this z: priced anew
            assert np.array_equal(exact, jac(z))
            reference = jacobian_by_central_differences(residual, z)
            scale = np.max(np.abs(reference), axis=0)
            assert np.all(np.abs(exact - reference) <= 1e-6 * scale)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(BOUNDS[0][0], BOUNDS[1][0]),
        st.floats(BOUNDS[0][1], BOUNDS[1][1]),
        st.floats(BOUNDS[0][2], BOUNDS[1][2]),
    )
    def test_box_maps_into_the_nig_domain(self, u, v, delta):
        theta = _theta((u, v, delta))
        NIGParams(*theta)  # does not raise
        assert theta[0] - theta[1] > 1.0 and theta[0] + theta[1] > 0.0
        np.testing.assert_allclose(_theta(_z(theta)), theta, rtol=1e-12, atol=1e-12)

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
        # Every point priced lies in the NIG domain: the fit keeps every trial
        # point strictly inside its box on (alpha - beta - 1, alpha + beta,
        # delta), whose lower bounds are admissibility, and takes the
        # Jacobian from the pricing pass instead of stepping around the
        # point.  The second slice's truth has alpha - beta = 1.00001, 1e-5
        # from the edge.
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
        # The make-bundle AXA slice.  The fit prices one batch per lattice
        # point, one per evaluation (the Jacobian comes with the residual at
        # the same point) and one at the optimum: 27 + 8 + 1.
        calls = []
        model_prices = calibration._model_prices

        def counting(*args, **kwargs):
            calls.append(kwargs["gradient"])
            return model_prices(*args, **kwargs)

        monkeypatch.setattr(calibration, "_model_prices", counting)
        result = calibrate(desk_slice("AXA"), CalibrationConfig())
        assert len(calls) <= 45
        assert calls.count(True) == result.iterations
        assert calls[-1] is False  # the optimum: objective and residuals off one batch

    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("AXA", 1.667132355685896e-05),
            ("CREDIT_AGRICOLE", 1.8824029274544555e-05),
            ("MICHELIN", 1.2731685915757092e-05),
        ],
    )
    def test_desk_optimum_no_worse_than_trust_constr(self, name, pinned):
        # J at the optimum of the quasi-Newton trust-constr fit this one
        # replaced, on the make-bundle slices with the default config.
        assert calibrate(desk_slice(name), CalibrationConfig()).objective <= pinned * (1.0 + 1e-9)

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
