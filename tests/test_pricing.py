"""Tests for payoffs, the shared grid measure, Riemann reference, and CMC."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from dense_measure import (
    DenseMeasure,
    eval_payoff,
    flat_priced,
    regrouping_bound,
    reordering_bound,
    row_major_weights,
)
from qamcpricer import copula, experiments, pricing
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
    normalize_cell_masses,
    riemann_reference,
)
from qamcpricer.qamc import AEConfig, qamc_price


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


def node_payoff(payoff, s):
    """The payoff at one node's prices ``s`` (Python floats), grouped as the package groups it.

    A basket is (x_0 w + H) - K with H = x_1 w + ... + x_{d-1} w summed left
    to right: the left-to-right sum at d <= 2, a regrouping of it at d >= 3.
    """
    if payoff.kind == "spread-call":
        value = s[0] - s[1] - payoff.strike
    elif payoff.kind == "basket-call":
        weight = 1.0 / len(s)
        trailing = 0.0
        for x in s[1:]:
            trailing += x * weight
        value = (s[0] * weight + trailing) - payoff.strike
    else:
        value = payoff.strike - min(s)
    return max(value, 0.0)


def pointwise(payoff, prices):
    """The payoff node by node over the tensor grid of per-asset prices, by loops."""
    out = np.empty(tuple(len(v) for v in prices))
    for index in itertools.product(*(range(len(v)) for v in prices)):
        out[index] = node_payoff(payoff, [float(prices[i][j]) for i, j in enumerate(index)])
    return out


def axis_prices(dim, seed=0):
    """One price vector per asset, of distinct lengths, straddling the strikes used here."""
    rng = np.random.default_rng([dim, seed])
    return [rng.uniform(5.0, 45.0, size) for size in (3, 4, 5)[:dim]]


def assert_matches_pointwise(payoff, prices):
    values = eval_payoff(payoff, prices)
    assert values.shape == tuple(len(v) for v in prices)
    assert np.array_equal(values, pointwise(payoff, prices))


class TestEvalPayoff:
    def test_basket(self):
        payoff = Payoff("basket-call", 25.0)
        assert eval_payoff(payoff, [[30.0], [30.0], [30.0]]) == 5.0
        for dim in (2, 3):
            assert_matches_pointwise(payoff, axis_prices(dim))

    def test_worst_of_put_out_of_money(self):
        payoff = Payoff("worst-of-put", 10.0)
        assert eval_payoff(payoff, [[12.0], [15.0]]) == 0.0

    def test_worst_of_put_in_the_money(self):
        payoff = Payoff("worst-of-put", 10.0)
        assert eval_payoff(payoff, [[8.0], [15.0]]) == 2.0
        for dim in (2, 3):
            prices = axis_prices(dim)
            assert np.array_equal(eval_payoff(Payoff("worst-of-put", 20.0), prices),
                                  pointwise(Payoff("worst-of-put", 20.0), prices))

    def test_spread(self):
        payoff = Payoff("spread-call", 0.0)
        assert eval_payoff(payoff, [[35.0], [30.0]]) == 5.0
        prices = axis_prices(2)
        for strike in (0.0, 5.0):
            assert np.array_equal(eval_payoff(Payoff("spread-call", strike), prices),
                                  pointwise(Payoff("spread-call", strike), prices))

    def test_spread_dimension_check(self):
        with pytest.raises(DomainError):
            eval_payoff(Payoff("spread-call", 0.0), [[35.0], [30.0], [10.0]])
        with pytest.raises(DomainError):
            eval_payoff(Payoff("spread-call", 0.0), axis_prices(3))
        for kind in ("basket-call", "worst-of-put"):
            with pytest.raises(DomainError, match="at least 1 asset"):
                eval_payoff(Payoff(kind, 1.0), [])

    def test_vectorized(self):
        # One price vector per asset broadcasts to the tensor grid, axis i
        # carrying asset i; the stacked (nodes, assets) form is rejected, and
        # so is a non-positive price on any axis.
        payoff = Payoff("basket-call", 10.0)
        assert eval_payoff(payoff, [[10.0, 9.0], [12.0, 9.0]]) == pytest.approx(np.array([[1.0, 0.0], [0.5, 0.0]]))
        for kind, strike in (("basket-call", 25.0), ("worst-of-put", 20.0), ("spread-call", 3.0)):
            for dim in ((2,) if kind == "spread-call" else (2, 3)):
                assert_matches_pointwise(Payoff(kind, strike), axis_prices(dim, seed=1))
                with pytest.raises(DomainError):
                    eval_payoff(Payoff(kind, strike), [np.array([[10.0, 12.0], [9.0, 9.0]])] * dim)
                for axis in range(dim):
                    prices = axis_prices(dim, seed=1)
                    prices[axis][-1] = 0.0
                    with pytest.raises(DomainError):
                        eval_payoff(Payoff(kind, strike), prices)


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

    def test_marginal_pdf_outside_support_rejected(self, spread_setup):
        # The density is the series on its support; beyond it the pdf used
        # to return the value at the nearest end.
        marginal = spread_setup[1][0]
        a, b = marginal.interval
        assert np.all(np.isfinite(marginal.pdf(np.array([a, 0.5 * (a + b), b]))))
        for x in (a - 1.0, b + 1.0):
            with pytest.raises(DomainError):
                marginal.pdf(x)

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

    def test_small_clip_renormalizes_and_logs(self, caplog):
        # Below the 1e-4 bound the negative mass is clipped, the rest
        # renormalized, and the clipped mass returned and logged.
        with caplog.at_level("WARNING", logger="qamcpricer.pricing"):
            masses, clipped = normalize_cell_masses([0.25, 0.5, -5e-5])
        assert clipped == 5e-5
        assert masses.tolist() == [0.25 / 0.75, 0.5 / 0.75, 0.0]
        assert caplog.messages == ["clipped 5.000e-05 negative cell mass"]

    def test_marginals_on_other_discount_curves_rejected(self, spread_setup):
        payoff, marginals, spec, grid = spread_setup
        other = AssetMarginal(marginals[1].params, replace(marginals[1].slice_, rate=0.05), marginals[1].series)
        with pytest.raises(ValidationError, match="one discount curve"):
            GridMeasure.build(payoff, [marginals[0], other], spec, grid)

    def test_spec_of_another_dimension_rejected(self, spread_setup):
        payoff, marginals, _, grid = spread_setup
        with pytest.raises(DomainError, match="dimension mismatch"):
            GridMeasure.build(payoff, marginals, CopulaSpec.from_matrix(experiments.BASKET_CORRELATION), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_masses_rejected(self, bad):
        # [nan, 1.0] used to come back as ([nan, 0.], nan) after a RuntimeWarning.
        for raw in ([bad, 1.0], [0.5, 0.25, bad]):
            with pytest.raises(DomainError):
                normalize_cell_masses(raw)

    def test_identity_grid_identity(self, spread_setup):
        # f_joint h == f_ind H c_max node by node.
        payoff, marginals, _, grid = spread_setup
        spec = CopulaSpec.from_matrix([[1.0, -0.25], [-0.25, 1.0]])
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        dense = DenseMeasure.of(measure)
        h_max = measure.payoff_max
        joint_side = dense.masses * dense.payoff_values
        adj = dense.payoff_values * dense.weights / (h_max * measure.c_max)
        ind_side = reduce(np.multiply.outer, measure.marginal_masses) * adj * measure.c_max * h_max
        assert np.max(np.abs(joint_side - ind_side)) <= 1e-12 * max(h_max, 1.0)

    def test_copula_weights_evaluated_once(self, spread_setup, monkeypatch):
        # One copula call per slab, the slabs covering every node once: one
        # call on the 2^3 grid, 2^20 nodes in 32 calls on the 2^10 one.
        payoff, marginals, spec, _ = spread_setup
        sizes = []
        weights_on_grid = copula.copula_weights_on_grid

        def counted(*args):
            weights = weights_on_grid(*args)
            sizes.append(weights.size)
            return weights

        for qubits, calls in ((3, 1), (10, 32)):
            grid = PricingGrid.build(marginals, qubits)
            sizes.clear()
            with monkeypatch.context() as patch:
                for module in (copula, pricing):
                    patch.setattr(module, "copula_weights_on_grid", counted)
                measure = GridMeasure.build(payoff, marginals, spec, grid)
            assert len(sizes) == len(list(pricing._row_slabs(grid))) == calls
            assert sum(sizes) == grid.total_nodes
            assert measure.c_max == DenseMeasure.of(measure).c_max

    @pytest.mark.parametrize("setup", ["spread", "basket"])
    def test_independent_payoff_peaks_at_most_one(self, setup):
        # c_max is the largest weight, so the loaded payoff h c / (h_max c_max)
        # stays in [0, 1] node by node with no slack; with c_max = 1 it
        # would peak near 24 (spread) and 3.5 (basket).
        payoff, marginals, spec, grid = getattr(experiments, f"{setup}_setup")()
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        dense = DenseMeasure.of(measure)
        loaded = dense.payoff_values * dense.weights / (measure.payoff_max * measure.c_max)
        assert np.all(dense.weights <= measure.c_max)
        assert 0.0 <= loaded.min() and loaded.max() <= 1.0

    def test_identity_copula_collapse(self, spread_setup):
        payoff, marginals, _, grid = spread_setup
        eye = CopulaSpec.from_matrix(np.eye(2))
        measure = GridMeasure.build(payoff, marginals, eye, grid)
        assert measure.copula_total_mass == pytest.approx(1.0, abs=1e-14)
        assert measure.c_max == 1.0
        weights = DenseMeasure.of(measure).weights
        assert np.array_equal(weights, np.ones_like(weights))

    def test_build_peak_memory(self):
        # The measure reduces its node tensors slab by slab and keeps none:
        # at d=3, q=6 the build, the Riemann value and both QAMC estimates
        # peak below one node-sized tensor.
        marginals = [experiments.fixture_marginal(name) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
        spec = CopulaSpec.from_matrix(experiments.BASKET_CORRELATION)
        grid = PricingGrid.build(marginals, 6)
        node_tensor = grid.total_nodes * np.dtype(float).itemsize
        cfg = AEConfig(epsilon=1e-3, rho=0.05)
        for kind in ("basket-call", "worst-of-put"):
            payoff = Payoff(kind, experiments.BASKET_STRIKE)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                measure = GridMeasure.build(payoff, marginals, spec, grid)
                reference = measure.reference_value()
                quantum = [
                    qamc_price(payoff, marginals, spec, formulation, grid, cfg, np.random.default_rng(0), measure=measure)
                    for formulation in ("joint", "independent")
                ]
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(list(pricing._row_slabs(grid))) > 1
            assert peak - before < node_tensor
            assert after - before < 0.01 * node_tensor
            assert all(abs(q.value - reference) <= 4 * cfg.epsilon for q in quantum)

    def test_four_names_at_six_qubits_run_in_small_memory(self):
        # d=4, q=6 is 2^24 nodes, 128 MiB per node tensor: the Riemann value
        # and both QAMC estimates on one measure peak below 16 MiB.
        payoff, marginals, spec, grid = four_names_setup()
        cfg = AEConfig(epsilon=1e-3, rho=0.05)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            measure = GridMeasure.build(payoff, marginals, spec, grid)
            reference = measure.reference_value()
            quantum = [
                qamc_price(payoff, marginals, spec, formulation, grid, cfg, np.random.default_rng(1), measure=measure)
                for formulation in ("joint", "independent")
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.total_nodes == 2**24
        assert peak - before < 16 * 2**20
        assert 0.0 < reference < 25.0
        assert all(abs(q.value - reference) <= 4 * cfg.epsilon for q in quantum)


def four_names_setup():
    """(payoff, marginals, spec, grid) of a four-name basket at 2^6 cells per axis: 2^24 nodes."""
    marginals = [experiments.fixture_marginal(name) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN", "AXA")]
    sigma = np.eye(4)
    sigma[:3, :3] = experiments.BASKET_CORRELATION
    sigma[3, :3] = sigma[:3, 3] = 0.1
    return (Payoff("basket-call", experiments.BASKET_STRIKE), marginals, CopulaSpec.from_matrix(sigma),
            PricingGrid.build(marginals, 6))


def slab_outputs(measure_args, monkeypatch):
    """Build a measure and return it with the copula weights and payoff values its slabs formed, joined."""
    weights, values = [], []
    weights_on_grid, payoff_on_slab = pricing.copula_weights_on_grid, pricing._payoff_values

    def recorded(store, fn):
        def wrapper(*args):
            out = fn(*args)
            store.append(out.copy())
            return out

        return wrapper

    monkeypatch.setattr(pricing, "copula_weights_on_grid", recorded(weights, weights_on_grid))
    monkeypatch.setattr(pricing, "_payoff_values", recorded(values, payoff_on_slab))
    measure = GridMeasure.build(*measure_args)
    monkeypatch.undo()
    return measure, np.concatenate(weights), np.concatenate(values)


def _setup_at(name):
    """(payoff, marginals, spec, grid) of the study setups, the basket and worst-of at finer grids too."""
    if name in ("spread", "basket"):
        return getattr(experiments, f"{name}_setup")()
    kind, qubits = name.rsplit("-q", 1)
    if kind == "spread":
        payoff, marginals, spec, _ = experiments.spread_setup()
    else:
        _, marginals, spec, _ = experiments.basket_setup()
        payoff = Payoff(f"{kind}-call" if kind == "basket" else "worst-of-put", experiments.BASKET_STRIKE)
    return payoff, marginals, spec, PricingGrid.build(marginals, int(qubits))


def ulps(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


class TestSlabReductions:
    """The slab-reduced measure against the dense one (tests/dense_measure.py)."""

    ONE_SLAB = ("spread", "basket")
    MULTI_SLAB = ("basket-q6", "basket-q7", "worst-q6", "spread-q10")

    @pytest.mark.parametrize("name", ONE_SLAB + MULTI_SLAB)
    def test_tensors_and_bounds_are_the_dense_ones(self, name, monkeypatch):
        args = _setup_at(name)
        slabs = len(list(pricing._row_slabs(args[3])))
        assert (slabs == 1) == (name in self.ONE_SLAB)
        measure, weights, values = slab_outputs(args, monkeypatch)
        dense = DenseMeasure.of(measure)
        assert np.array_equal(weights, dense.weights)
        assert np.array_equal(values, dense.payoff_values)
        rows = list(pricing._row_slabs(measure.grid))
        assert measure.slab_masses.tolist() == [np.sum(dense.masses[r]) for r in rows]
        for r in rows:
            assert np.array_equal(measure._slab_cdf(r), normalized_cdf(dense.masses[r].ravel()))
        assert measure.c_max == dense.c_max
        assert measure.payoff_max == dense.payoff_max
        cells = np.arange(measure.grid.total_nodes)
        assert np.array_equal(measure.payoff_at(cells), dense.payoff_values.ravel())
        assert np.array_equal(measure.weights_at(cells), dense.weights.ravel())

    @pytest.mark.parametrize("name", ONE_SLAB + MULTI_SLAB)
    def test_reference_and_total_mass(self, name):
        measure = GridMeasure.build(*_setup_at(name))
        dense = DenseMeasure.of(measure)
        if name in self.ONE_SLAB:
            assert measure.reference_value() == dense.reference_value
            assert measure.copula_total_mass == dense.copula_total_mass
        else:
            assert ulps(measure.reference_value(), dense.reference_value) <= 4
            assert ulps(measure.copula_total_mass, dense.copula_total_mass) <= 4

    @pytest.mark.parametrize("name", ONE_SLAB + MULTI_SLAB)
    def test_joint_counts_are_the_dense_draws(self, name):
        # Two stages, a slab by the slab masses and then a cell by that slab's
        # cumulative masses, draw the cells of one inverse-CDF draw over every
        # node's mass, and leave the generator where it does: on one slab by
        # construction, and on several unless a uniform falls within roundoff
        # of a cell edge.
        measure = GridMeasure.build(*_setup_at(name))
        masses = DenseMeasure.of(measure).masses.ravel()
        for seed, count in itertools.product(range(10), (4096, 2**16)):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            cells, counts = measure.draw_counts(count, rng)
            expected_cells, expected_counts = pricing.count_grid_cells(masses, count, reference)
            assert np.array_equal(cells, expected_cells), (seed, count)
            assert np.array_equal(counts, expected_counts), (seed, count)
            assert rng.random() == reference.random()

    def test_zero_mass_is_never_drawn(self):
        # basket-q6 (8 slabs of 8 leading rows) with rows 8-15 and 56-63 and
        # the middle axis' last cell given zero mass: slabs 1 and 7 have empty
        # stage-1 intervals, and every slab ends in 64 cells of zero mass.
        # A uniform planted at a slab's start lands on its first cell of
        # positive mass, one just below its end on a cell of positive mass in
        # the same slab, and a random draw stays on positive mass.
        built = GridMeasure.build(*_setup_at("basket-q6"))
        p0, p1, p2 = (m.copy() for m in built.marginal_masses)
        p0[8:16] = p0[56:] = 0.0
        p1[-1] = 0.0
        rows = list(pricing._row_slabs(built.grid))
        masses = DenseMeasure.of(replace(built, marginal_masses=(p0, p1, p2))).masses
        measure = replace(built, marginal_masses=(p0, p1, p2),
                          slab_masses=np.array([np.sum(masses[r]) for r in rows]))
        by_slab = masses.reshape(len(rows), -1)
        assert np.all(by_slab[:, -64:] == 0.0)
        edges = pricing._normalize_cumulative(np.cumsum(measure.slab_masses))
        assert edges[0] == edges[1] and edges[6] == edges[7] == 1.0
        starts = np.concatenate(([0.0], edges[:-1]))
        live = np.flatnonzero(edges > starts)
        assert live.tolist() == [0, 2, 3, 4, 5, 6]
        drawn = []
        for planted in (starts[live], np.nextafter(edges[live], 0.0)):
            rng = _Uniforms(planted)
            cells, counts = measure.draw_counts(planted.size, rng)
            assert rng.used == planted.size and counts.tolist() == [1] * live.size
            slab, cell = np.divmod(cells, by_slab.shape[1])
            assert slab.tolist() == live.tolist()
            assert np.all(by_slab[slab, cell] > 0.0)
            drawn.append(cell)
        assert drawn[0].tolist() == [np.flatnonzero(by_slab[s])[0] for s in live]
        cells, counts = measure.draw_counts(2**16, np.random.default_rng(0))
        assert counts.sum() == 2**16 and np.all(masses.ravel()[cells] > 0.0)

    def test_uniform_rescaled_to_one_lands_on_the_last_cell_of_positive_mass(self):
        # Slab 1 spans [2^-54, 0.75 + 2^-53): at u = 0.75 both u - start and
        # end - start round to 0.75, so v rounds up to 1.0, which a search
        # would map past the slab's last cell.  v is held below 1, and u lands
        # on cell 2 of the slab, its last of positive mass.
        edges = np.array([2.0**-54, 0.75 + 2.0**-53, 1.0])
        assert (0.75 - edges[0]) / (edges[1] - edges[0]) == 1.0
        slab_cdfs = [np.array([1.0]), normalized_cdf(np.array([0.3, 0.5, 0.2, 0.0, 0.0])), np.array([0.5, 1.0])]
        bounds = [0, 1, 6, 8]
        rng = _Uniforms([0.75, 2.0**-54, 0.0])
        cells, counts = pricing._count_draws(edges, bounds, slab_cdfs.__getitem__, 3, rng)
        assert cells.tolist() == [0, 1, 3] and counts.tolist() == [1, 1, 1]


def node_prices(measure, cells):
    """Each node's prices, as Python floats, at the flat node indices ``cells``."""
    for index in zip(*np.unravel_index(cells, measure.grid.shape)):
        yield [float(measure.prices[i][j]) for i, j in enumerate(index)]


def left_to_right_payoff(measure, cells):
    """The payoff at the flat node indices ``cells`` in Python floats: a basket summed left to right."""
    n = measure.grid.dim
    values = []
    for s in node_prices(measure, cells):
        if measure.payoff.kind == "spread-call":
            value = s[0] - s[1] - measure.payoff.strike
        else:
            value = sum(x * (1.0 / n) for x in s) - measure.payoff.strike
        values.append(max(value, 0.0))
    return np.array(values)


def bit_policy_setup(name):
    """(payoff, marginals, spec, grid) of the study setups at finer grids, or of four names at 2^4 cells per axis."""
    if name != "four-names-q4":
        return _setup_at(name)
    payoff, marginals, spec, _ = four_names_setup()
    return payoff, marginals, spec, PricingGrid.build(marginals, 4)


class TestBitPolicy:
    """The measure's node tensors against the row-major fold, the left-to-right product and the left-to-right sum.

    Each tensor is a leading-axis factor combined with one table over the
    trailing axes.  The copula exponent is a leading part plus the trailing
    table of its terms, a node's mass is c (p_0 (p_1 ... p_{d-1})), and a
    basket is (x_0 w + (x_1 w + ... + x_{d-1} w)) - K: the same bits as the
    row-major fold, the left-to-right product and the left-to-right sum at
    d <= 2, and at d >= 3 a regrouping within the rounding bound of a
    reordered sum or product.  A worst-of's min and a spread keep their bits
    at every d.
    """

    def test_spread_measure_keeps_its_bits(self, spread_setup):
        measure = GridMeasure.build(*spread_setup)
        dense = DenseMeasure.of(measure)
        expected, _ = row_major_weights(measure.spec, measure.scores)
        assert np.array_equal(dense.weights, expected)
        assert measure.c_max == expected.max()
        cells = np.arange(measure.grid.total_nodes)
        assert np.array_equal(dense.payoff_values.ravel(), left_to_right_payoff(measure, cells))

    @pytest.mark.parametrize("name", ["basket-q6", "four-names-q4"])
    def test_regrouped_weights_stay_within_the_rounding_bound(self, name):
        measure = GridMeasure.build(*bit_policy_setup(name))
        dense = DenseMeasure.of(measure)
        expected, magnitude = row_major_weights(measure.spec, measure.scores)
        assert np.all(np.abs(dense.weights - expected) <= expected * regrouping_bound(measure.spec, magnitude))
        cells = np.random.default_rng(0).integers(0, measure.grid.total_nodes, 500)
        grouped = [node_payoff(measure.payoff, s) for s in node_prices(measure, cells)]
        assert np.array_equal(measure.payoff_at(cells), grouped)

    @pytest.mark.parametrize("name", ["basket-q6", "worst-q6", "four-names-q4"])
    def test_regrouped_masses_and_payoff_stay_within_the_rounding_bound(self, name):
        # Against the left-to-right forms ((p_0 p_1) p_2 ...) c and
        # ((x_0 w + x_1 w) + ...) - K: a mass is a product of d + 1 factors
        # and a basket a sum of d + 1 terms, whose two orders differ by the
        # rounding of a reordered product or sum; the regrouping moves some
        # masses (and basket values), and a worst-of's values not at all.
        measure = GridMeasure.build(*bit_policy_setup(name))
        dense = DenseMeasure.of(measure)
        dim, strike = measure.grid.dim, measure.payoff.strike
        bound = reordering_bound(dim + 1)
        left_to_right = reduce(np.multiply.outer, measure.marginal_masses) * dense.weights
        assert np.all(np.abs(dense.masses - left_to_right) <= bound * left_to_right)
        assert not np.array_equal(dense.masses, left_to_right)
        axes = np.ix_(*measure.prices)
        if measure.payoff.kind == "worst-of-put":
            expected = np.maximum(strike - reduce(np.minimum, axes), 0.0)
            assert np.array_equal(dense.payoff_values, expected)
            return
        summed = reduce(np.add, (axis * (1.0 / dim) for axis in axes[1:]), axes[0] * (1.0 / dim))
        expected = np.maximum(summed - strike, 0.0)
        assert np.all(np.abs(dense.payoff_values - expected) <= bound * (summed + strike))
        assert not np.array_equal(dense.payoff_values, expected)


class TestTrailingTable:
    def test_formed_once_per_build_and_per_joint_draw(self, monkeypatch):
        # Every slab of a grid combines its leading rows with the same
        # trailing-axes tables, the copula exponent's, the masses' and the
        # payoff's: a build forms each once, a joint draw on several slabs the
        # exponent and mass tables once per call (it forms no payoff), and a
        # one-slab grid's second draw none (it keeps its cumulative masses).
        # A slab that formed its own table would count here.
        formed = {"trailing_exponent": 0, "_mass_table": 0, "_payoff_table": 0}

        def counted(name, fn):
            def wrapper(*args):
                formed[name] += 1
                return fn(*args)

            return wrapper

        for name, module in (("trailing_exponent", copula), ("_mass_table", pricing), ("_payoff_table", pricing)):
            fn = getattr(module, name)
            for owner in {module, pricing}:
                monkeypatch.setattr(owner, name, counted(name, fn))
        measure = GridMeasure.build(*_setup_at("basket-q6"))
        assert len(list(pricing._row_slabs(measure.grid))) == 8
        assert list(formed.values()) == [1, 1, 1]
        for draws in (1, 2):
            measure.draw_counts(4096, np.random.default_rng(draws))
            assert list(formed.values()) == [1 + draws, 1 + draws, 1]
        formed.update(dict.fromkeys(formed, 0))
        measure = GridMeasure.build(*_setup_at("basket"))
        assert len(list(pricing._row_slabs(measure.grid))) == 1
        for _ in range(2):
            measure.draw_counts(4096, np.random.default_rng(0))
            assert list(formed.values()) == [2, 2, 1]


class TestRiemannReference:
    def test_constant_payoff_pins_discounting(self, spread_setup):
        _, marginals, spec, grid = spread_setup
        flat = flat_priced(marginals, (2.0, 1.0))
        measure = GridMeasure.build(Payoff("spread-call", 0.0), flat, spec, grid)
        assert DenseMeasure.of(measure).payoff_values.min() == measure.payoff_max == 1.0
        df = marginals[0].slice_.discount_factor
        # payoff == 1: DF times the copula-weighted total grid mass (~1).
        assert measure.reference_value() == pytest.approx(df * measure.copula_total_mass, rel=1e-12)
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


class _Uniforms:
    """Generator stand-in that hands out chosen uniforms, in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, size=None, out=None):
        count = size if out is None else out.size
        chunk = self.values[self.used : self.used + count]
        self.used += count
        if out is None:
            return chunk.copy()
        out[...] = chunk
        return out


def normalized_cdf(masses):
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def guide_buckets(cells):
    """The guide table's bucket count: the sampler uses it for draws at least this large."""
    return 1 << (pricing._GUIDE_BUCKETS_PER_CELL * cells - 1).bit_length()


class TestGridSampler:
    MASSES = {
        "dyadic": np.array([1.0, 1.0, 2.0, 0.0, 4.0]),
        "zero runs": np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 1e-9, 0.5, 0.0, 0.2, 0.0, 0.0]),
        "one cell": np.array([0.7]),
        "irregular": np.random.default_rng(3).random(37) ** 4,
    }

    @staticmethod
    def straddling_uniforms(masses):
        """(count, uniforms) pairs: every CDF step, just below each, 0.0, then
        random fill, at counts that straddle the guide threshold and the chunk size."""
        cdf = normalized_cdf(masses)
        steps = cdf[cdf < 1.0]
        chosen = np.concatenate([[0.0], steps, np.nextafter(steps, 0.0), [np.nextafter(1.0, 0.0)]])
        threshold, chunk = guide_buckets(masses.size), pricing._GUIDE_CHUNK
        for count in (threshold - 1, threshold, threshold + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            fill = np.random.default_rng(count).random(count)
            u = np.resize(chosen, count)
            u[chosen.size :: 2] = fill[chosen.size :: 2]
            yield count, u

    END_STATE_COUNTS = (5, 37, guide_buckets(37), pricing._GUIDE_CHUNK, 3 * pricing._GUIDE_CHUNK + 1)

    @pytest.mark.parametrize("name", MASSES)
    def test_equals_binary_search(self, name):
        # Independent CMC's fold on one axis counts the binary search's
        # indices, with uniforms on every CDF step and just below each, on
        # both sides of the guide threshold and of the chunk size.
        masses = self.MASSES[name]
        cdf = normalized_cdf(masses)
        for count, u in self.straddling_uniforms(masses):
            rng = _Uniforms(np.concatenate([u, [0.5]]))
            cells, counts = pricing._fold_draws([masses], count, rng)
            expected = np.bincount(np.searchsorted(cdf, u, side="right"), minlength=masses.size)
            assert np.array_equal(cells, np.flatnonzero(expected)), count
            assert np.array_equal(counts, expected[cells]), count
            assert rng.used == count

    @pytest.mark.parametrize("axes", [2, 3])
    @pytest.mark.parametrize("name", ["irregular", "zero runs"])
    def test_fold_equals_axis_by_axis_search(self, name, axes):
        # Independent CMC folds each axis's draw into one flat index as it is
        # drawn.  Its occupied nodes and counts are those of the axes' binary
        # searches taken one after the other off the same stream and raveled
        # row-major, and the generator ends where those searches leave it.
        masses = [np.roll(self.MASSES[name], 5 * axis) for axis in range(axes)]
        shape = tuple(m.size for m in masses)
        for count in self.END_STATE_COUNTS:
            rng, reference = np.random.default_rng(count), np.random.default_rng(count)
            cells, counts = pricing._fold_draws(masses, count, rng)
            per_axis = [np.searchsorted(normalized_cdf(m), reference.random(count), side="right") for m in masses]
            expected = np.bincount(np.ravel_multi_index(per_axis, shape), minlength=math.prod(shape))
            assert np.array_equal(cells, np.flatnonzero(expected)), count
            assert np.array_equal(counts, expected[cells]), count
            assert rng.random() == reference.random()

    @pytest.mark.parametrize("name", MASSES)
    def test_counts_equal_binary_search(self, name):
        # The counting form reduces the very same draw: its occupied cells and
        # counts are the nonzero entries of bincount(searchsorted(cdf, u)).
        masses = self.MASSES[name]
        cdf = normalized_cdf(masses)
        for count, u in self.straddling_uniforms(masses):
            rng = _Uniforms(np.concatenate([u, [0.5]]))
            cells, counts = pricing.count_grid_cells(masses, count, rng)
            expected = np.bincount(np.searchsorted(cdf, u, side="right"), minlength=masses.size)
            assert np.array_equal(cells, np.flatnonzero(expected)), count
            assert np.array_equal(counts, expected[cells]), count
            assert rng.used == count

    def test_counting_leaves_generator_where_one_draw_would(self):
        masses = self.MASSES["irregular"]
        cdf = normalized_cdf(masses)
        for count in self.END_STATE_COUNTS:
            rng, reference = np.random.default_rng(count), np.random.default_rng(count)
            cells, counts = pricing.count_grid_cells(masses, count, rng)
            expected = np.bincount(np.searchsorted(cdf, reference.random(count), side="right"), minlength=masses.size)
            assert np.array_equal(cells, np.flatnonzero(expected))
            assert np.array_equal(counts, expected[cells])
            assert rng.random() == reference.random()

    def test_counts_of_a_sparse_draw_are_no_longer_than_the_draw(self):
        # Fewer draws than cells: the binary search's indices are reduced
        # without a cell-sized count vector.
        masses = np.random.default_rng(5).random(4096)
        cells, counts = pricing.count_grid_cells(masses, 100, np.random.default_rng(0))
        assert cells.size == counts.size <= 100
        assert np.all(np.diff(cells) > 0) and counts.sum() == 100

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        # A zero count used to reach range(0, 0, 0) and raise a bare ValueError.
        with pytest.raises(DomainError):
            pricing.count_grid_cells(self.MASSES["dyadic"], count, np.random.default_rng(0))


class TestCmc:
    # float.hex() of (value, stderr) on the spread measure at default_rng(11),
    # recorded with the package's own normal quantile and Bessel K and the
    # moments taken from per-node counts: a change to the stream must be
    # deliberate.
    PINS = {
        ("joint", 500): ("0x1.9556c6a92a5d1p+3", "0x1.5cabc9f5090d6p-2"),
        ("joint", 2**17): ("0x1.8d04c51b4c8fdp+3", "0x1.52a300dfcc9c0p-6"),
        ("independent", 500): ("0x1.861146bd1f25ap+3", "0x1.b985d9a0cedd3p-2"),
        ("independent", 2**17): ("0x1.8b860fb056f57p+3", "0x1.ddd5dc8c22365p-6"),
    }

    @pytest.mark.parametrize("formulation, samples", PINS)
    def test_bit_identical_pins(self, spread_setup, formulation, samples):
        payoff, marginals, spec, grid = spread_setup
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        est = cmc_price(payoff, marginals, spec, formulation, samples, np.random.default_rng(11), measure=measure)
        assert (est.value.hex(), est.stderr.hex()) == self.PINS[formulation, samples]

    @pytest.mark.parametrize("setup", ["spread", "basket", "basket-q6"])
    @pytest.mark.parametrize("formulation", ["joint", "independent"])
    @pytest.mark.parametrize("samples", [500, 2**13, 2**17])
    def test_moments_equal_those_of_the_gathered_draws(self, setup, formulation, samples):
        # The same stream gathered draw by draw off the dense measure's
        # tensors: the count-weighted mean and stderr are np.mean and
        # np.std(ddof=1) / sqrt(n) up to summation order, on one slab and on
        # several (basket-q6).
        payoff, marginals, spec, grid = _setup_at(setup)
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        est = cmc_price(payoff, marginals, spec, formulation, samples, np.random.default_rng(4), measure=measure)
        draws = DenseMeasure.of(measure).draws(formulation, samples, np.random.default_rng(4))
        df = measure.discount_factor
        assert est.value == pytest.approx(df * np.mean(draws), rel=1e-13, abs=0.0)
        assert est.stderr == pytest.approx(df * np.std(draws, ddof=1) / math.sqrt(samples), rel=1e-13, abs=0.0)

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
        flat = flat_priced(marginals, (2.0, 1.0))
        measure = GridMeasure.build(payoff, flat, eye, grid)
        df = marginals[0].slice_.discount_factor
        for L in (1, 7, 256):
            for formulation in ("joint", "independent"):
                est = cmc_price(payoff, flat, eye, formulation, L, np.random.default_rng(0), measure=measure)
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

    def test_joint_sampling_peak_memory(self):
        # Joint CMC forms one slab's cumulative masses at a time, only for the
        # slabs its draws land in, and drops each: at d=3, q=6 it peaks below
        # a quarter of a node-sized tensor and keeps nothing.
        marginals = [experiments.fixture_marginal(name) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
        spec = CopulaSpec.from_matrix(experiments.BASKET_CORRELATION)
        grid = PricingGrid.build(marginals, 6)
        payoff = Payoff("basket-call", experiments.BASKET_STRIKE)
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        reference = measure.reference_value()
        node_tensor = grid.total_nodes * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            estimate = cmc_price(payoff, marginals, spec, "joint", 4096, np.random.default_rng(0), measure=measure)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(list(pricing._row_slabs(grid))) > 1
        assert abs(estimate.value - reference) <= 5.0 * estimate.stderr
        assert peak - before < 0.25 * node_tensor
        assert after - before < 0.01 * node_tensor

    def test_four_names_joint_cmc_runs_in_small_memory(self):
        # d=4, q=6 is 2^24 nodes, 128 MiB per node tensor: 2^16 joint draws
        # peak below 16 MiB and land within 5 standard errors of the Riemann
        # value.
        payoff, marginals, spec, grid = four_names_setup()
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        reference = measure.reference_value()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            estimate = cmc_price(payoff, marginals, spec, "joint", 2**16, np.random.default_rng(2), measure=measure)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 16 * 2**20
        assert after - before < 2**20
        assert abs(estimate.value - reference) <= 5.0 * estimate.stderr

    def test_joint_cmc_holds_no_draw_sized_array(self, spread_setup):
        # Joint CMC counts its draws chunk by chunk through the guide table:
        # at 2^19 draws it peaks below a quarter of one draw-sized array and
        # keeps nothing but the one-slab grid's cumulative masses (64 nodes).
        # Gathering the draws would hold two of them.
        payoff, marginals, spec, grid = spread_setup
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        count = 2**19
        draw_array = count * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            cmc_price(payoff, marginals, spec, "joint", count, np.random.default_rng(0), measure=measure)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 0.25 * draw_array
        assert after - before < 0.01 * draw_array

    @pytest.mark.parametrize("setup", ["spread", "basket"])
    def test_independent_cmc_holds_one_draw_sized_array(self, setup):
        # Independent CMC folds its axes' draws into one flat index array: at
        # 2^19 draws it peaks at about 1.1 draw-sized arrays and keeps nothing.
        # One index array per axis plus their raveled index held 3 (spread)
        # and 4 (basket).
        payoff, marginals, spec, grid = _setup_at(setup)
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        count = 2**19
        draw_array = count * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            cmc_price(payoff, marginals, spec, "independent", count, np.random.default_rng(0), measure=measure)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1.25 * draw_array
        assert after - before < 0.01 * draw_array

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

    def test_measure_of_other_inputs_rejected(self):
        # A measure built under the identity copula and priced with the
        # -0.25 spec used to return 9.92, where the -0.25 Riemann price is
        # 12.39; other marginals and another grid are just as wrong.
        payoff, marginals, spec, grid = experiments.spread_setup()
        eye = CopulaSpec.from_matrix(np.eye(2))
        identity_measure = GridMeasure.build(payoff, marginals, eye, grid)
        assert riemann_reference(payoff, marginals, spec, grid).value == pytest.approx(12.39, abs=0.01)
        swapped = [marginals[1], marginals[0]]
        for formulation in ("joint", "independent"):
            for given_spec, given_marginals, given_grid in (
                (spec, marginals, None),
                (eye, swapped, None),
                (eye, marginals, PricingGrid.build(marginals, 4)),
            ):
                with pytest.raises(DomainError):
                    cmc_price(payoff, given_marginals, given_spec, formulation, 2**16, np.random.default_rng(0),
                              grid=given_grid, measure=identity_measure)
        # Inputs are compared by value: a measure serves a rebuilt copy of
        # the ones it was built for.
        rebuilt = experiments.spread_setup()
        assert rebuilt[1][0] is not marginals[0]
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        same = cmc_price(*rebuilt[:3], "joint", 64, np.random.default_rng(0), grid=rebuilt[3], measure=measure)
        assert same.value == cmc_price(payoff, marginals, spec, "joint", 64, np.random.default_rng(0), grid=grid).value


class TestPriceEstimate:
    def test_invariants(self):
        with pytest.raises(Exception):
            PriceEstimate(float("nan"), 10, 0.0)
        with pytest.raises(Exception):
            PriceEstimate(1.0, 0, 0.0)
