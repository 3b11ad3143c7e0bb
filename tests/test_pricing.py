"""Tests for payoffs, the shared grid measure, Riemann reference, and CMC."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qamcpricer import copula, pricing
from qamcpricer.copula import CopulaSpec
from qamcpricer.cosine_density import CosineSeries, Interval, coeffs_classical
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.nig import nig_pdf, support_interval
from qamcpricer.pricing import (
    AssetMarginal,
    GridMeasure,
    Payoff,
    PriceEstimate,
    PricingGrid,
    cmc_price,
    eval_payoff,
    riemann_reference,
)


@pytest.fixture(scope="module")
def spread_setup(axa_params, michelin_params, axa_slice, michelin_slice):
    marginals = []
    for p, s in ((axa_params, axa_slice), (michelin_params, michelin_slice)):
        iv = Interval(*support_interval(p, 1.0, 1e-5))
        series = coeffs_classical(lambda x, p=p: nig_pdf(x, p, 1.0), iv, 128)
        marginals.append(AssetMarginal(p, s, series))
    spec = CopulaSpec.from_matrix([[1.0, -0.25], [-0.25, 1.0]])
    grid = PricingGrid.build(marginals, 3)
    payoff = Payoff("spread-call", 0.0)
    return payoff, marginals, spec, grid


class TestEvalPayoff:
    def test_basket(self):
        payoff = Payoff("basket-call", 25.0)
        assert eval_payoff(payoff, [30.0, 30.0, 30.0]) == 5.0

    def test_worst_of_put_out_of_money(self):
        payoff = Payoff("worst-of-put", 10.0)
        assert eval_payoff(payoff, [12.0, 15.0]) == 0.0

    def test_worst_of_put_in_the_money(self):
        payoff = Payoff("worst-of-put", 10.0)
        assert eval_payoff(payoff, [8.0, 15.0]) == 2.0

    def test_spread(self):
        payoff = Payoff("spread-call", 0.0)
        assert eval_payoff(payoff, [35.0, 30.0]) == 5.0

    def test_spread_dimension_check(self):
        with pytest.raises(DomainError):
            eval_payoff(Payoff("spread-call", 0.0), [35.0, 30.0, 10.0])

    def test_custom_basket_weights(self):
        payoff = Payoff("basket-call", 0.0, weights=(0.7, 0.3))
        assert eval_payoff(payoff, [10.0, 20.0]) == pytest.approx(13.0)
        with pytest.raises(DomainError):
            Payoff("basket-call", 0.0, weights=(0.7, 0.7))

    def test_vectorized(self):
        payoff = Payoff("basket-call", 10.0)
        s = np.array([[10.0, 12.0], [9.0, 9.0]])
        assert eval_payoff(payoff, s) == pytest.approx([1.0, 0.0])


class TestGrid:
    def test_midpoint_layout(self, spread_setup):
        _, marginals, _, grid = spread_setup
        a, b = marginals[0].interval
        nodes = grid.nodes[0]
        assert nodes.size == 8
        dx = (b - a) / 8
        assert nodes[0] == pytest.approx(a + dx / 2)
        assert nodes[-1] == pytest.approx(b - dx / 2)
        assert grid.total_nodes == 64

    def test_qubit_validation(self, spread_setup):
        _, marginals, _, _ = spread_setup
        with pytest.raises(Exception):
            PricingGrid.build(marginals, 0)


class TestMeasure:
    def test_masses_normalized(self, spread_setup):
        payoff, marginals, spec, grid = spread_setup
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        for p in measure.marginal_masses:
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)

    def test_large_clip_rejected(self, spread_setup):
        payoff, marginals, spec, _ = spread_setup
        # 1/2 + 0.6 cos(pi (x + 1) / 2) dips below zero over (0.63, 1]: at
        # 2^3 cells the last cell alone has mass about -0.022.
        lobed = AssetMarginal(
            marginals[0].params, marginals[0].slice_,
            CosineSeries(Interval(-1.0, 1.0), [1.0 / math.sqrt(2.0), 0.6]),
        )
        chosen = [lobed, marginals[1]]
        with pytest.raises(ValidationError):
            GridMeasure.build(payoff, chosen, spec, PricingGrid.build(chosen, 3))

    def test_identity_grid_identity(self, spread_setup):
        # f_joint h == f_ind H c_max node by node.
        payoff, marginals, _, grid = spread_setup
        spec = CopulaSpec.from_matrix([[1.0, -0.25], [-0.25, 1.0]])
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        h_max = measure.payoff_max
        joint_side = measure.joint_masses * measure.copula_total_mass * measure.payoff_values
        adj = measure.payoff_values * measure.copula_weights / (h_max * measure.c_max)
        ind_side = measure.independent_masses * adj * measure.c_max * h_max
        assert np.max(np.abs(joint_side - ind_side)) <= 1e-12 * max(h_max, 1.0)

    def test_copula_weights_evaluated_once(self, spread_setup, monkeypatch):
        payoff, marginals, spec, grid = spread_setup
        calls = []
        weights_on_grid = copula.copula_weights_on_grid

        def counted(*args):
            calls.append(args)
            return weights_on_grid(*args)

        for module in (copula, pricing):
            monkeypatch.setattr(module, "copula_weights_on_grid", counted)
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        assert len(calls) == 1
        assert measure.c_max == 1.01 * float(measure.copula_weights.max())

    def test_identity_copula_collapse(self, spread_setup):
        payoff, marginals, _, grid = spread_setup
        eye = CopulaSpec.from_matrix(np.eye(2))
        measure = GridMeasure.build(payoff, marginals, eye, grid)
        assert measure.copula_total_mass == pytest.approx(1.0, abs=1e-14)
        assert measure.c_max == 1.0
        assert np.array_equal(measure.copula_weights, np.ones_like(measure.copula_weights))


class TestRiemannReference:
    def test_constant_payoff_pins_discounting(self, spread_setup):
        _, marginals, spec, grid = spread_setup
        measure = GridMeasure.build(Payoff("spread-call", 0.0), marginals, spec, grid)
        ones = replace(measure, payoff_values=np.ones_like(measure.payoff_values), clipped_mass=0.0)
        df = marginals[0].slice_.discount_factor
        # payoff == 1: DF times the copula-weighted total grid mass (~1).
        assert ones.reference_value() == pytest.approx(df * measure.copula_total_mass, rel=1e-12)
        assert measure.copula_total_mass == pytest.approx(1.0, abs=0.1)

    def test_identity_matches_iterated_sums(self, spread_setup):
        payoff, marginals, _, grid = spread_setup
        eye = CopulaSpec.from_matrix(np.eye(2))
        measure = GridMeasure.build(payoff, marginals, eye, grid)
        byhand = 0.0
        p0, p1 = measure.marginal_masses
        s0 = marginals[0].price_at(grid.nodes[0])
        s1 = marginals[1].price_at(grid.nodes[1])
        for i in range(8):
            for j in range(8):
                byhand += p0[i] * p1[j] * max(s0[i] - s1[j], 0.0)
        byhand *= measure.discount_factor
        assert measure.reference_value() == pytest.approx(byhand, rel=1e-12)

    def test_basket_monotone_in_strike(self, spread_setup):
        _, marginals, spec, grid = spread_setup
        values = [
            riemann_reference(Payoff("basket-call", k), marginals, spec, grid).value
            for k in np.linspace(20.0, 45.0, 8)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deterministic(self, spread_setup):
        payoff, marginals, spec, grid = spread_setup
        a = riemann_reference(payoff, marginals, spec, grid).value
        b = riemann_reference(payoff, marginals, spec, grid).value
        assert a == b

    def test_deterministic_value_has_zero_stderr(self, spread_setup):
        assert riemann_reference(*spread_setup).stderr == 0.0


class TestCmc:
    def test_grid_sampling_unbiased(self, spread_setup):
        payoff, marginals, spec, grid = spread_setup
        ref = riemann_reference(payoff, marginals, spec, grid).value
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        reps = 32
        rng = np.random.default_rng(7)
        for formulation in ("joint", "independent"):
            values = [
                cmc_price(payoff, marginals, spec, formulation, 4096, rng, measure=measure).value
                for _ in range(reps)
            ]
            mean = np.mean(values)
            combined_se = np.std(values, ddof=1) / math.sqrt(reps)
            assert abs(mean - ref) <= 4.0 * combined_se

    def test_rmse_scales_like_inverse_sqrt(self, spread_setup):
        payoff, marginals, spec, grid = spread_setup
        ref = riemann_reference(payoff, marginals, spec, grid).value
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        ladder = [2**8, 2**10, 2**12, 2**14, 2**16, 2**18]
        errs = []
        for L in ladder:
            trial = [
                abs(
                    cmc_price(
                        payoff, marginals, spec, "joint", L,
                        np.random.default_rng([L, r]), measure=measure,
                    ).value
                    - ref
                )
                for r in range(16)
            ]
            errs.append(np.mean(trial))
        slope = np.polyfit(np.log(ladder[1:-1]), np.log(errs[1:-1]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_constant_payoff_discounts_exactly_once(self, spread_setup):
        # payoff == 1 under the identity copula: every draw equals 1, so the
        # estimate is DF exactly for any sample count.
        payoff, marginals, _, grid = spread_setup
        eye = CopulaSpec.from_matrix(np.eye(2))
        base = GridMeasure.build(payoff, marginals, eye, grid)
        flat = replace(base, payoff_values=np.ones_like(base.payoff_values), clipped_mass=0.0)
        df = marginals[0].slice_.discount_factor
        for L in (1, 7, 256):
            est = cmc_price(payoff, marginals, eye, "joint", L, np.random.default_rng(0), measure=flat)
            assert est.value == pytest.approx(df, abs=1e-14)

    def test_identity_formulations_agree(self, spread_setup):
        payoff, marginals, _, grid = spread_setup
        eye = CopulaSpec.from_matrix(np.eye(2))
        measure = GridMeasure.build(payoff, marginals, eye, grid)
        joint = cmc_price(payoff, marginals, eye, "joint", 2**16, np.random.default_rng(1), measure=measure)
        indep = cmc_price(payoff, marginals, eye, "independent", 2**16, np.random.default_rng(2), measure=measure)
        spread_se = math.hypot(joint.stderr, indep.stderr)
        assert abs(joint.value - indep.value) <= 4.0 * spread_se

    def test_validation(self, spread_setup):
        payoff, marginals, spec, grid = spread_setup
        with pytest.raises(DomainError):
            cmc_price(payoff, marginals, spec, "joint", 0, np.random.default_rng(0), grid=grid)
        with pytest.raises(DomainError):
            cmc_price(payoff, marginals, spec, "sideways", 10, np.random.default_rng(0), grid=grid)
        with pytest.raises(DomainError):
            cmc_price(payoff, marginals, spec, "joint", 10, np.random.default_rng(0))

    def test_measure_of_another_payoff_rejected(self, spread_setup):
        # A measure holds the payoff values it was built for; priced as a
        # strike-1000 spread (worth 0) it used to return the strike-0 price.
        payoff, marginals, spec, grid = spread_setup
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        assert measure.payoff == payoff
        for formulation in ("joint", "independent"):
            with pytest.raises(DomainError):
                cmc_price(Payoff("spread-call", 1000.0), marginals, spec, formulation, 16,
                          np.random.default_rng(0), measure=measure)


class TestPriceEstimate:
    def test_invariants(self):
        with pytest.raises(Exception):
            PriceEstimate(float("nan"), "riemann", 10)
        with pytest.raises(Exception):
            PriceEstimate(1.0, "riemann", 0)
