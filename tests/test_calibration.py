"""Tests for the regularized NIG calibration."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qamcpricer import calibration, experiments, nig
from qamcpricer.calibration import (
    BOUNDS,
    TOLERANCE,
    CalibrationConfig,
    _inside,
    _least_squares,
    _levenberg_marquardt,
    _theta,
    _usable_quotes,
    _z,
    bs_prior,
    calibrate,
    grid_init,
    quote_weights,
)
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.market_data import MarketSlice, OptionQuote, generate_synthetic_quotes
from qamcpricer.nig import ExpNIGModel, NIGParams, nig_cumulants, price_european_batch


def quote_slice(params, slice_, strikes):
    return replace(slice_, quotes=generate_synthetic_quotes(params, slice_, strikes, spread=0.0))


def pricing_errors(theta, slice_):
    """V(theta) - mid over the usable quotes of the slice."""
    quotes = _usable_quotes(slice_)
    model = ExpNIGModel(NIGParams(theta[0], theta[1], theta[2], 0.0), slice_)
    prices = price_european_batch(model, [q.strike for q in quotes], [q.kind for q in quotes])
    return prices - np.array([q.mid for q in quotes])


def objective(theta, slice_, cfg) -> float:
    """J(theta) = sum_m w_m (V_m - mid_m)^2 + lambda ||theta - theta0||^2, from its definition."""
    weights = quote_weights(_usable_quotes(slice_), cfg.weights_rule)
    penalty = np.sum((np.asarray(theta, dtype=float) - bs_prior(slice_)) ** 2)
    return float(weights @ pricing_errors(theta, slice_) ** 2 + cfg.regularization * penalty)


def lattice_size():
    """The number of DEFAULT_GRID points strictly inside the box."""
    lattice = calibration.DEFAULT_GRID
    return sum(_inside(_z(p)) for p in itertools.product(lattice["alpha"], lattice["beta"], lattice["delta"]))


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


# Inside BOUNDS, but alpha + beta -> 0 stretches the pricing interval's right
# end until S(T) overflows there on the make-bundle AXA slice.
UNPRICEABLE_Z = (5.0, 1e-3, 0.2)


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
        residual = _least_squares(axa_quote_slice, cfg)
        for theta in FIT_POINTS[:3] + [bs_prior(axa_quote_slice)]:
            z = _z(theta)
            r = residual(z)
            assert r @ r == pytest.approx(objective(_theta(z), axa_quote_slice, cfg), rel=1e-14, abs=0.0)
            # The lattice's plain batch and the fit's gradient batch give the same r, bit for bit.
            np.testing.assert_array_equal(residual(z, gradient=True)[0], r)

    def test_jacobian_matches_central_differences(self, axa_quote_slice):
        cfg = CalibrationConfig(regularization=1e-3)
        residual = _least_squares(axa_quote_slice, cfg)
        for theta in FIT_POINTS:
            z = _z(theta)
            exact = residual(z, gradient=True)[1]
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
        assert grid_init(_least_squares(axa_quote_slice, cfg)) == (5.24, -3.26, 0.18)

    def test_singleton_lattice(self, axa_quote_slice, monkeypatch):
        monkeypatch.setattr(calibration, "DEFAULT_GRID", {"alpha": (6.0,), "beta": (-2.0,), "delta": (0.2,)})
        assert grid_init(_least_squares(axa_quote_slice, CalibrationConfig())) == (6.0, -2.0, 0.2)

    def test_default_lattice_beats_median(self, axa_quote_slice):
        cfg = CalibrationConfig()
        start = grid_init(_least_squares(axa_quote_slice, cfg))
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
            grid_init(_least_squares(axa_quote_slice, CalibrationConfig()))

    @pytest.mark.parametrize("name", ["AXA", "CREDIT_AGRICOLE", "MICHELIN", "axa_quote_slice"])
    def test_lattice_scored_as_per_point_residuals(self, name, request):
        # The stacked lattice pass gives each point the prices of its own
        # pricing batch and the score ||r(z)||^2 of its own residual, bit for bit.
        slice_ = request.getfixturevalue(name) if name == "axa_quote_slice" else desk_slice(name)
        residual, quotes = _least_squares(slice_, CalibrationConfig()), _usable_quotes(slice_)
        lattice = calibration.DEFAULT_GRID
        zs = [_z(p) for p in itertools.product(lattice["alpha"], lattice["beta"], lattice["delta"]) if _inside(_z(p))]
        stack = calibration._model_prices(np.array([_theta(z) for z in zs]), slice_, quotes, gradient=False)
        scores = residual.scores(zs)
        assert stack.shape == (lattice_size(), len(quotes)) and scores.shape == (lattice_size(),)
        for z, row, score in zip(zs, stack, scores):
            r = residual(z)
            assert row.tobytes() == calibration._model_prices(_theta(z), slice_, quotes, gradient=False).tobytes()
            assert score.tobytes() == (r @ r).tobytes()

    def test_unpriceable_point_left_unscored(self, monkeypatch):
        slice_ = desk_slice("AXA")
        residual = _least_squares(slice_, CalibrationConfig())
        alpha, beta, delta = _theta(UNPRICEABLE_Z)
        assert _inside(_z((alpha, beta, delta))) and residual(_z((alpha, beta, delta))) is None
        assert residual(np.array(UNPRICEABLE_Z), gradient=True) is None
        ok = _z((6.0, beta, delta))
        scores = residual.scores([_z((alpha, beta, delta)), ok])
        assert np.isnan(scores[0]) and scores[1] == residual(ok) @ residual(ok)
        monkeypatch.setattr(calibration, "DEFAULT_GRID", {"alpha": (alpha, 6.0), "beta": (beta,), "delta": (delta,)})
        assert grid_init(residual) == (6.0, beta, delta)

    def test_unpriceable_lattice_is_an_empty_lattice(self, monkeypatch):
        alpha, beta, delta = _theta(UNPRICEABLE_Z)
        monkeypatch.setattr(calibration, "DEFAULT_GRID", {"alpha": (alpha,), "beta": (beta,), "delta": (delta,)})
        with pytest.raises(ValidationError, match="lattice empty"):
            grid_init(_least_squares(desk_slice("AXA"), CalibrationConfig()))


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


def linear_problem(matrix, target):
    """residual(z) = matrix (z - target), with the Jacobian matrix, recording every z evaluated."""
    matrix, target = np.asarray(matrix, dtype=float), np.asarray(target, dtype=float)
    evaluated = []

    def residual(z, gradient=False):
        evaluated.append(np.array(z, copy=True))
        r = matrix @ (z - target)
        return (r, matrix) if gradient else r

    return residual, evaluated


class TestLevenbergMarquardt:
    START = np.array([1.0, 1.0, 0.5])

    @pytest.mark.parametrize(
        "matrix",
        [np.eye(3), [[2.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.5, 1.0]]],
        ids=["diagonal", "coupled"],
    )
    @pytest.mark.parametrize("target, bound", [((-1.0, 2.0, 1.0), (0, 0)), ((2.0, 2.0, 9.0), (1, 2))])
    def test_ends_at_an_active_bound(self, matrix, target, bound, monkeypatch):
        # The unconstrained minimum lies outside the box.  With a diagonal
        # Jacobian the box minimum is the target with one coordinate on its
        # bound; coupled, the other coordinates move to the box minimum.
        monkeypatch.setattr(calibration, "MAX_ITERATIONS", 60)
        residual, evaluated = linear_problem(matrix, target)
        z, r_fit, evaluations = _levenberg_marquardt(residual, self.START)
        side, index = bound
        assert 0.0 < abs(z[index] - BOUNDS[side][index]) <= TOLERANCE * (TOLERANCE + np.linalg.norm(z))
        lower, upper = np.array(BOUNDS)
        assert all(np.all((lower < point) & (point < upper)) for point in evaluated)
        assert evaluations == len(evaluated) <= 60
        # First-order optimality on the box: the gradient vanishes in the
        # free coordinates and pushes out of the box in the bound one.
        r, jz = residual(z, gradient=True)
        np.testing.assert_array_equal(r_fit, r)  # the residual at the returned z
        gradient = jz.T @ r
        free = np.arange(3) != index
        assert np.all(np.abs(gradient[free]) <= 1e-6)
        assert gradient[index] * (1.0 if side == 0 else -1.0) > 0.0

    def test_evaluation_cap(self, monkeypatch):
        monkeypatch.setattr(calibration, "MAX_ITERATIONS", 3)
        residual, evaluated = linear_problem(np.eye(3), (-1.0, 2.0, 1.0))
        _, _, evaluations = _levenberg_marquardt(residual, self.START)
        assert evaluations == len(evaluated) == 3

    def test_singular_normal_matrix(self):
        # J^T J is singular along (1, -1, 0): only u + v is determined.
        residual, _ = linear_problem([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (1.5, 2.5, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, _, _ = _levenberg_marquardt(residual, self.START)
        assert z[0] + z[1] == pytest.approx(4.0, rel=1e-10)
        assert z[2] == pytest.approx(1.0, rel=1e-10)


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
        # At most the start's lattice score, exactly: the fit re-prices the
        # start bit for bit and takes only steps that lower ||r||^2.
        residual = _least_squares(axa_quote_slice, cfg)
        r = residual(_z(grid_init(residual)))
        assert first.objective <= r @ r

    @pytest.mark.parametrize("name", ["AXA", "MICHELIN"])
    def test_report_matches_the_definitions(self, name):
        # The objective and the errors in bp of spot, read off the residual at
        # the optimum, against J and V - mid evaluated at the fitted theta.
        slice_, cfg = desk_slice(name), CalibrationConfig()
        result = calibrate(slice_, cfg)
        theta = (result.theta.alpha, result.theta.beta, result.theta.delta)
        err_bp = np.abs(pricing_errors(theta, slice_)) / slice_.spot * 1e4
        assert result.objective == pytest.approx(objective(theta, slice_, cfg), rel=1e-12)
        assert result.rmse_bp == pytest.approx(np.sqrt(np.mean(err_bp**2)), rel=1e-12)
        assert result.max_err_bp == pytest.approx(np.max(err_bp), rel=1e-12)

    def test_admissible_at_every_accepted_iterate(self, axa_quote_slice, monkeypatch):
        # Every point priced lies in the NIG domain: the fit keeps every trial
        # point strictly inside its box on (alpha - beta - 1, alpha + beta,
        # delta), whose lower bounds are admissibility, and takes the
        # Jacobian from the pricing pass instead of stepping around the
        # point.  The second slice's truth has alpha - beta = 1.00001, 1e-5
        # from the edge.
        edge_slice = MarketSlice("EDGE", 30.0, 1.0, 0.02)
        edge_slice = quote_slice(
            NIGParams(3.0, 1.99999, 0.2), edge_slice, np.linspace(0.8, 1.2, 12) * edge_slice.forward
        )
        priced = []
        model_prices = calibration._model_prices

        def recording(theta, slice_, quotes, **kwargs):
            priced.extend(np.array(theta, copy=True).reshape(-1, 3))  # the lattice is one stack
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

    def test_unpriceable_trial_is_a_rejected_step(self, monkeypatch):
        # A trial step planted where S(T) overflows on the pricing interval
        # is a rejected step: the damping goes up and the fit goes on to the
        # optimum it reaches unplanted.
        slice_ = desk_slice("AXA")
        unplanted = calibrate(slice_, CalibrationConfig())
        trials = []
        fit = calibration._levenberg_marquardt

        def planted_fit(residual, z):
            def planted(trial, gradient=False):
                trials.append(np.array(trial, copy=True))
                return residual(np.array(UNPRICEABLE_Z) if len(trials) == 2 else trial, gradient=gradient)

            return fit(planted, z)

        monkeypatch.setattr(calibration, "_levenberg_marquardt", planted_fit)
        result = calibrate(slice_, CalibrationConfig())
        assert len(trials) == result.iterations > 2
        assert result.objective == pytest.approx(unplanted.objective, rel=1e-9)
        assert result.objective <= 1.667132355685896e-05 * (1.0 + 1e-9)

    def test_desk_slice_prices_few_batches(self, monkeypatch):
        # The make-bundle AXA slice.  The grid start prices the admissible
        # lattice points as one stacked plain batch and the fit one gradient
        # batch per evaluation (the Jacobian comes with the residual at the
        # same point); the optimum is not priced again.
        calls = []
        model_prices = calibration._model_prices

        def counting(*args, **kwargs):
            calls.append((kwargs["gradient"], len(np.reshape(args[0], (-1, 3)))))
            return model_prices(*args, **kwargs)

        monkeypatch.setattr(calibration, "_model_prices", counting)
        result = calibrate(desk_slice("AXA"), CalibrationConfig())
        assert calls == [(False, lattice_size())] + [(True, 1)] * result.iterations

    @pytest.mark.parametrize(
        "name, start, evaluations",
        [("AXA", (6.0, -4.0, 0.2), 6), ("CREDIT_AGRICOLE", (6.0, -4.0, 0.2), 6), ("MICHELIN", (4.0, -2.0, 0.2), 7)],
    )
    def test_desk_batches_stay_small(self, name, start, evaluations, monkeypatch):
        # The make-bundle slices.  Every lattice row and every fit evaluation
        # has at most 800 live density nodes, a bound on the graded 16-node
        # mesh that a 64-node rule on the 36 equal and kink panels (2,304
        # nodes) breaks.  Every price goes through nig._price_block: the
        # lattice in stacked plain blocks, each one density pass over all of
        # its rows' nodes, padding included, and holding at most
        # nig._STACK_NODES of them, then each fit evaluation in a gradient
        # block of one row.  The grid starts and the fit's evaluation counts
        # are pinned too.
        slice_ = desk_slice(name)
        points, blocks, starts = [], [], []
        pdf, price_block, init = nig.nig_pdf, nig._price_block, calibration.grid_init

        def counting_pdf(x, *args, **kwargs):
            points.append(np.size(x))
            return pdf(x, *args, **kwargs)

        def recording_block(models, mesh, strikes, is_call, gradient):
            blocks.append((mesh.nodes.copy(), mesh.edges.shape, gradient))
            return price_block(models, mesh, strikes, is_call, gradient)

        def recording_init(residual):
            starts.append(init(residual))
            return starts[-1]

        monkeypatch.setattr(nig, "nig_pdf", counting_pdf)
        monkeypatch.setattr(nig, "_price_block", recording_block)
        monkeypatch.setattr(calibration, "grid_init", recording_init)
        result = calibrate(slice_, CalibrationConfig())
        assert starts == [start] and result.iterations == evaluations
        lattice = len(blocks) - evaluations
        assert len(points) == len(blocks) and [g for _, _, g in blocks] == [False] * lattice + [True] * evaluations
        assert sum(len(live) for live, _, _ in blocks[:lattice]) == lattice_size()
        assert all(len(live) == 1 for live, _, _ in blocks[lattice:])
        assert max(max(live) for live, _, _ in blocks) <= 800
        held = [rows * (edges - 1) * 16 for _, (rows, edges), _ in blocks]
        assert max(held) <= nig._STACK_NODES and points == held

    def test_prior_inverted_once_per_slice(self, monkeypatch):
        # calibrate builds the slice's least-squares problem once and the
        # grid start scores the lattice with that residual, so the ATM
        # implied vol of the prior is inverted once.
        calls = []
        inverse = calibration.implied_vol

        def counting(*args, **kwargs):
            calls.append(args)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(calibration, "implied_vol", counting)
        calibrate(desk_slice("MICHELIN"), CalibrationConfig())
        assert len(calls) == 1

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
        result = calibrate(axa_quote_slice, CalibrationConfig(regularization=5e-7))
        base = ExpNIGModel(result.theta, axa_quote_slice)
        moved = ExpNIGModel(replace(result.theta, mu=0.3), axa_quote_slice)
        for strike in [30.0, 34.0, 38.0]:
            assert price_european_batch(base, [strike], ["C"])[0] == pytest.approx(
                price_european_batch(moved, [strike], ["C"])[0], abs=1e-9
            )
