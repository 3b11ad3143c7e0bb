"""Tests for the amplitude estimators, checked against the statevector model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qamcpricer import qamc
from qamcpricer.cosine_density import Interval, basis_gamma
from qamcpricer.copula import CopulaSpec
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.experiments import basket_setup, spread_setup
from qamcpricer.nig import nig_pdf
from qamcpricer.pricing import AssetMarginal, GridMeasure, Payoff, PricingGrid, riemann_reference
from qamcpricer.qamc import (
    AEConfig,
    AEResult,
    iqae_estimate,
    qamc_coefficient,
    qamc_price,
    run_log_line,
    signed_ae_estimate,
)
from statevector import GroverOperator, load_masses, prepare, rotate_payoff


def flat(a: float, nodes: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Uniform masses and a constant payoff: amplitude a."""
    return np.full(nodes, 1.0 / nodes), np.full(nodes, a)


class TestDensityOracle:
    def test_uniform_masses(self):
        state = load_masses(np.full(8, 1.0 / 8.0))
        assert np.allclose(state.amplitudes[0:16:2], 1.0 / math.sqrt(8.0))
        assert state.ancilla_one_probability == 0.0

    def test_single_unit_mass(self):
        state = load_masses([0.0, 1.0, 0.0, 0.0])
        dist = state.data_distribution()
        assert dist[1] == pytest.approx(1.0)
        assert np.sum(dist) == pytest.approx(1.0)

    def test_register_distribution_matches_masses(self, axa_params):
        a, b = -3.0, 1.0
        nodes = np.linspace(a, b, 32)
        masses = nig_pdf(nodes, axa_params, 1.0)
        masses /= masses.sum()
        dist = load_masses(masses).data_distribution()
        assert np.max(np.abs(dist - masses)) <= 1e-12

    def test_all_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            load_masses(np.zeros(4))

    def test_large_clip_rejected(self):
        with pytest.raises(ValidationError):
            load_masses([0.5, 0.5, -0.1, 0.0])


class TestPayoffRotation:
    def test_constant_one(self):
        rotated = prepare(np.full(4, 0.25), np.ones(4))
        assert rotated.ancilla_one_probability == pytest.approx(1.0, abs=1e-14)

    def test_constant_zero(self):
        rotated = prepare(np.full(4, 0.25), np.zeros(4))
        assert rotated.ancilla_one_probability == 0.0

    def test_dot_product_identity(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(8))
        phi = rng.uniform(0, 1, 8)
        state = prepare(p, phi)
        assert state.ancilla_one_probability == pytest.approx(float(np.dot(p, phi)), abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(16))
        phi = rng.uniform(0, 1, 16)
        state = prepare(p, phi)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_range_validation(self):
        state = load_masses(np.full(4, 0.25))
        with pytest.raises(DomainError):
            rotate_payoff(state, [0.5, 1.5, 0.0, 0.0])


class TestGrover:
    def test_quarter_amplitude_single_step(self):
        masses, values = flat(0.25)
        state = GroverOperator(masses, values).apply(prepare(masses, values), 1)
        assert state.ancilla_one_probability == pytest.approx(1.0, abs=1e-12)

    def test_zero_power_is_identity(self):
        masses, values = flat(0.37)
        state = GroverOperator(masses, values).apply(prepare(masses, values), 0)
        assert state.ancilla_one_probability == pytest.approx(0.37, abs=1e-12)

    def test_rotation_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.dirichlet(np.ones(8))
            phi = rng.uniform(0, 1, 8)
            theta = math.asin(math.sqrt(float(np.dot(p, phi))))
            op = GroverOperator(p, phi)
            for m in (1, 2, 3):
                prob = op.apply(prepare(p, phi), m).ancilla_one_probability
                assert prob == pytest.approx(math.sin((2 * m + 1) * theta) ** 2, abs=1e-10)

    def test_norm_preserved_across_powers(self):
        masses, values = flat(0.12)
        state = GroverOperator(masses, values).apply(prepare(masses, values), 7)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestProductionAmplitude:
    @pytest.mark.parametrize("setup", [spread_setup, basket_setup], ids=["spread", "basket"])
    @pytest.mark.parametrize("formulation", ["joint", "independent"])
    def test_statevector_matches_amplitude_handed_to_iqae(self, monkeypatch, setup, formulation):
        payoff, marginals, spec, grid = setup()
        assert grid.total_nodes == 64
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        handed = []
        estimate = qamc.iqae_estimate

        def spy(amplitude, cfg, rng=None):
            handed.append(amplitude)
            return estimate(amplitude, cfg, rng)

        monkeypatch.setattr(qamc, "iqae_estimate", spy)
        qamc_price(payoff, marginals, spec, formulation, grid, AEConfig(epsilon=1e-2, seed=0), measure=measure)
        h_max = measure.payoff_max
        if formulation == "joint":
            masses = measure.joint_masses.ravel()
            values = measure.payoff_values.ravel() / h_max
        else:
            masses = measure.independent_masses.ravel()
            values = (measure.payoff_values * measure.copula_weights).ravel() / (h_max * measure.c_max)
        assert handed and 0.0 < handed[0] < 1.0
        assert prepare(masses, values).ancilla_one_probability == pytest.approx(handed[0], abs=1e-12)


class TestIqae:
    def test_coverage_at_contract_point(self):
        hits = 0
        for seed in range(200):
            res = iqae_estimate(
                0.25,
                AEConfig(epsilon=1e-3, rho=0.05),
                np.random.default_rng([seed, 5]),
            )
            hits += abs(res.estimate - 0.25) <= 1e-3
        assert hits / 200 >= 0.95

    def test_trivial_epsilon(self):
        res = iqae_estimate(0.8, AEConfig(epsilon=0.5, rho=0.05), np.random.default_rng(0))
        assert abs(res.estimate - 0.8) <= 0.5
        assert res.oracle_queries == 0
        assert res.rounds == ()

    def test_trivial_epsilon_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        iqae_estimate(0.8, AEConfig(epsilon=0.6), rng)
        assert rng.bit_generator.state == before

    def test_query_scaling_slope(self):
        ladder = [2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4]
        means = []
        for eps in ladder:
            qs = [
                iqae_estimate(
                    0.25, AEConfig(epsilon=eps, rho=0.05), np.random.default_rng([s, 9])
                ).oracle_queries
                for s in range(10)
            ]
            means.append(np.mean(qs))
        slope = np.polyfit(np.log(ladder[1:-1]), np.log(means[1:-1]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_halving_epsilon_doubles_queries(self):
        def mean_queries(eps):
            return np.mean(
                [
                    iqae_estimate(
                        0.3, AEConfig(epsilon=eps, rho=0.05), np.random.default_rng([s, 2])
                    ).oracle_queries
                    for s in range(16)
                ]
            )

        ratio = mean_queries(5e-4) / mean_queries(1e-3)
        assert 1.4 <= ratio <= 2.6  # factor 2 within 30%

    def test_query_accounting_audit(self):
        res = iqae_estimate(0.25, AEConfig(epsilon=1e-3, rho=0.05), np.random.default_rng(4))
        recomputed = sum(shots * (2 * k + 1) for k, shots in res.rounds)
        assert recomputed == res.oracle_queries

    def test_extreme_amplitudes(self):
        for a in (0.0, 1.0, 1e-4, 1 - 1e-4):
            res = iqae_estimate(a, AEConfig(epsilon=5e-3, rho=0.05), np.random.default_rng(11))
            assert abs(res.estimate - a) <= 5e-3

    def test_depth_cap_flag(self):
        res = iqae_estimate(
            0.25,
            AEConfig(epsilon=1e-5, rho=0.05, max_grover_depth=2, max_rounds=40),
            np.random.default_rng(0),
        )
        assert res.capped
        assert res.half_width > 1e-5  # honest unfinished interval

    def test_looks_per_depth_bounded_by_confidence_split(self):
        # Depth 0 only: the interval cannot reach 2e-4 within 32 looks.
        res = iqae_estimate(0.25, AEConfig(epsilon=1e-4, max_grover_depth=0), np.random.default_rng(0))
        assert len(res.rounds) == 32
        assert res.capped
        assert abs(res.estimate - 0.25) <= res.half_width

    def test_budget_stop_is_capped(self):
        res = iqae_estimate(0.25, AEConfig(epsilon=1e-5, max_queries=1000), np.random.default_rng(0))
        assert res.oracle_queries <= 1000
        assert res.capped
        assert res.half_width > 1e-5

    def test_amplitude_outside_unit_interval_rejected(self):
        cfg = AEConfig(epsilon=1e-2)
        for a in (-1e-9, 1.0 + 1e-9, float("nan")):
            with pytest.raises(DomainError):
                iqae_estimate(a, cfg, np.random.default_rng(0))
        for a in (-1e-13, 1.0 + 1e-13):  # roundoff is clamped
            res = iqae_estimate(a, cfg, np.random.default_rng(0))
            assert abs(res.estimate - min(max(a, 0.0), 1.0)) <= 1e-2

    def test_zero_round_cap_rejected(self):
        with pytest.raises(ValidationError):
            AEConfig(epsilon=1e-2, max_rounds=0)


class TestSignedAe:
    def test_negative_target_coverage(self):
        # v = -0.5 encoded as a = 0.25 with unit scale.
        hits = 0
        for seed in range(100):
            res = signed_ae_estimate(
                0.25,
                AEConfig(epsilon=5e-3, rho=0.05),
                scale=1.0,
                rng=np.random.default_rng([seed, 21]),
            )
            hits += abs(res.estimate - (-0.5)) <= res.half_width + 1e-15
        assert hits / 100 >= 0.95

    def test_zero_target_midpoint(self):
        res = signed_ae_estimate(
            0.5, AEConfig(epsilon=1e-3, rho=0.05), scale=1.0, rng=np.random.default_rng(1)
        )
        assert abs(res.estimate) <= 2e-3

    def test_sign_correct_when_target_clears_noise(self):
        for seed in range(40):
            res = signed_ae_estimate(
                0.53,  # v = +0.06, 3x the mapped epsilon 0.02
                AEConfig(epsilon=1e-2, rho=0.05),
                scale=1.0,
                rng=np.random.default_rng([seed, 33]),
            )
            assert res.estimate > 0


class TestQamcCoefficient:
    def test_k0_exact(self):
        iv = Interval(-2.0, 2.0)
        res = qamc_coefficient(np.full(32, 1 / 32), 0, iv, AEConfig(epsilon=1e-3))
        assert res.estimate == pytest.approx(0.5)  # 1/sqrt(4)
        assert res.oracle_queries == 0

    def test_matches_grid_truth(self, axa_params):
        # Reference setup: 2^5 grid nodes, 2^4 coefficients, every estimate
        # within the mapped epsilon of the classical Riemann value.
        iv = Interval(-3.0, 1.0)
        nodes = iv.a + iv.width / 32 * (np.arange(32) + 0.5)
        masses = nig_pdf(nodes, axa_params, 1.0)
        masses /= masses.sum()
        mapped_eps = 2.0 * math.sqrt(2.0 / iv.width) * 2e-3
        for k in range(16):
            truth = float(np.dot(masses, [basis_gamma(k, x, iv) for x in nodes]))
            res = qamc_coefficient(masses, k, iv, AEConfig(epsilon=2e-3, rho=0.05), np.random.default_rng([k, 7]))
            assert abs(res.estimate - truth) <= res.half_width + 1e-12
            assert res.half_width <= mapped_eps + 1e-12
            assert abs(res.estimate - truth) <= mapped_eps + 1e-12


@pytest.fixture(scope="module")
def small_pricing_setup(axa_params, michelin_params, axa_slice, michelin_slice):
    marginals = [
        AssetMarginal(axa_params, axa_slice),
        AssetMarginal(michelin_params, michelin_slice),
    ]
    spec = CopulaSpec.from_matrix([[1.0, -0.25], [-0.25, 1.0]])
    grid = PricingGrid.build(marginals, 3)
    payoff = Payoff("spread-call", 0.0)
    return payoff, marginals, spec, grid


class TestQamcPrice:
    def test_constant_payoff_is_discounted_max(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        # Constant payoff: amplitude 1 exactly, price = DF * h_max * Q.
        flat = replace(measure, payoff_values=np.full_like(measure.payoff_values, 3.7), clipped_mass=0.0)
        est = qamc_price(
            payoff, marginals, spec, "joint", grid,
            AEConfig(epsilon=1e-3, rho=0.05, seed=0), measure=flat,
        )
        expected = measure.discount_factor * 3.7 * measure.copula_total_mass
        assert est.value == pytest.approx(expected, abs=2e-3)

    def test_joint_matches_reference(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        ref = riemann_reference(payoff, marginals, spec, grid).value
        est = qamc_price(
            payoff, marginals, spec, "joint", grid,
            AEConfig(epsilon=1e-3, rho=0.05), np.random.default_rng(42),
        )
        assert abs(est.value - ref) <= 1e-3
        assert est.samples_or_queries > 0

    def test_independent_matches_reference(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        ref = riemann_reference(payoff, marginals, spec, grid).value
        est = qamc_price(
            payoff, marginals, spec, "independent", grid,
            AEConfig(epsilon=2e-3, rho=0.05), np.random.default_rng(43),
        )
        assert abs(est.value - ref) <= 2e-3

    def test_formulations_agree_within_two_epsilon(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        cfg = AEConfig(epsilon=2e-3, rho=0.05)
        joint = qamc_price(payoff, marginals, spec, "joint", grid, cfg, np.random.default_rng(1))
        indep = qamc_price(payoff, marginals, spec, "independent", grid, cfg, np.random.default_rng(2))
        assert abs(joint.value - indep.value) <= 2 * cfg.epsilon

    def test_query_budget_honoured(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        cfg = AEConfig(epsilon=1e-4, rho=0.05, max_queries=10_000)
        est = qamc_price(payoff, marginals, spec, "joint", grid, cfg, np.random.default_rng(5))
        assert est.samples_or_queries <= 10_000

    def test_joint_cheaper_at_matched_epsilon(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        cfg = AEConfig(epsilon=1e-3, rho=0.05)
        joint = qamc_price(payoff, marginals, spec, "joint", grid, cfg, np.random.default_rng(3))
        indep = qamc_price(payoff, marginals, spec, "independent", grid, cfg, np.random.default_rng(4))
        assert joint.samples_or_queries <= indep.samples_or_queries

    def test_measure_of_another_payoff_rejected(self, small_pricing_setup):
        payoff, marginals, spec, grid = small_pricing_setup
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        cfg = AEConfig(epsilon=1e-3, rho=0.05)
        with pytest.raises(DomainError):
            qamc_price(Payoff("spread-call", 1000.0), marginals, spec, "joint", grid, cfg,
                       np.random.default_rng(0), measure=measure)


class TestRunLog:
    def test_line_format(self):
        cfg = AEConfig(epsilon=1e-2, rho=0.05)
        res = AEResult(estimate=0.25, half_width=0.005, rounds=((20, 3),))  # 3 shots x 41 queries
        line = run_log_line("iqae", 0.251, cfg, res, seed=7)
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[0] == "iqae"
        assert int(fields[6]) == 123
