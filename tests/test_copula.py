"""Tests for the Gaussian copula weights on the pricing grid and their bound.

The copula density is evaluated from normal scores, on a tensor grid
(copula_weights_on_grid) or at scattered points (copula_weights_at).
Pointwise checks use one-point axes; joint-density checks multiply the
weights by the marginal densities on the same tensor grid.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_measure import regrouping_bound, row_major_weights
from qamcpricer import copula
from qamcpricer.cli import main
from qamcpricer.copula import (
    CLAMP_EPS,
    CopulaSpec,
    copula_weights_at,
    copula_weights_on_grid,
    grid_c_max,
    load_correlation,
    normal_scores,
    trailing_exponent,
)
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.nig import nig_cdf, nig_pdf, support_interval
from qamcpricer.numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile


def two_asset_spec(rho=-0.25):
    return CopulaSpec.from_matrix([[1.0, rho], [rho, 1.0]])


def weights_on_grid(spec, unit_coords):
    """Copula weights on the tensor grid of per-axis CDF values."""
    scores = normal_scores(unit_coords)
    return copula_weights_on_grid(spec, scores, trailing_exponent(spec, scores))


def weight_at(spec, *u):
    """The copula density at one point: the weights of one-point axes."""
    return weights_on_grid(spec, [np.array([ui]) for ui in u]).item()


def normal_joint_on_grid(spec, grids):
    """Joint density of standard normal marginals under ``spec`` on a tensor grid."""
    weights = weights_on_grid(spec, [std_normal_cdf(g) for g in grids])
    product = std_normal_pdf(grids[0])
    for g in grids[1:]:
        product = np.multiply.outer(product, std_normal_pdf(g))
    return weights * product


def bivariate_normal_pdf(x, y, rho):
    det = 1 - rho**2
    quad = (x**2 - 2 * rho * x * y + y**2) / det
    return np.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(det))


def grid_weights(spec, cdfs, grids):
    """Copula weights on the tensor grid of ``grids`` and their c_max bound."""
    weights = weights_on_grid(spec, [cdf(g) for cdf, g in zip(cdfs, grids)])
    return weights, grid_c_max(weights)


class TestDensity:
    def test_identity_is_one(self):
        spec = CopulaSpec.from_matrix(np.eye(3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert weight_at(spec, *rng.uniform(0.05, 0.95, 3)) == 1.0

    def test_center_value_closed_form(self):
        spec = two_asset_spec(-0.25)
        value = weight_at(spec, 0.5, 0.5)
        assert value == pytest.approx(1.0 / math.sqrt(1.0 - 0.25**2), rel=1e-14)

    def test_exchange_symmetry(self):
        spec = two_asset_spec(0.4)
        assert weight_at(spec, 0.3, 0.8) == pytest.approx(weight_at(spec, 0.8, 0.3), rel=1e-14)
        u = np.array([0.1, 0.3, 0.8])
        v = np.array([0.05, 0.6])
        swapped = weights_on_grid(spec, [v, u]).T
        assert np.allclose(weights_on_grid(spec, [u, v]), swapped, rtol=1e-14, atol=0.0)

    def test_strictly_positive(self):
        spec = two_asset_spec(0.9)
        rng = np.random.default_rng(1)
        u = [rng.uniform(0.01, 0.99, 10), rng.uniform(0.01, 0.99, 10)]
        assert np.all(weights_on_grid(spec, u) > 0.0)

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            CopulaSpec.from_matrix([[1.0, 0.2], [0.3, 1.0]])  # asymmetric
        with pytest.raises(ValidationError):
            CopulaSpec.from_matrix([[2.0, 0.0], [0.0, 1.0]])  # diagonal not 1
        with pytest.raises(ValidationError):
            CopulaSpec.from_matrix([[1.0, 1.0], [1.0, 1.0]])  # singular


class TestJointPdf:
    """Copula weights times the marginal densities form the joint density (Sklar)."""

    def test_identity_reduces_to_product(self):
        spec = CopulaSpec.from_matrix(np.eye(2))
        x = np.random.default_rng(2).normal(size=(2, 5))
        expected = np.multiply.outer(std_normal_pdf(x[0]), std_normal_pdf(x[1]))
        assert np.array_equal(normal_joint_on_grid(spec, list(x)), expected)

    def test_matches_bivariate_normal(self):
        rho = -0.25
        spec = two_asset_spec(rho)
        x, y = np.random.default_rng(3).normal(size=(2, 10))
        expected = bivariate_normal_pdf(x[:, None], y[None, :], rho)
        assert np.allclose(normal_joint_on_grid(spec, [x, y]), expected, rtol=1e-12, atol=0.0)

    def test_riemann_normalization_two_asset_nig(self, axa_params, michelin_params):
        spec = two_asset_spec(-0.25)
        grids, pdfs, cdfs = [], [], []
        for p in (axa_params, michelin_params):
            a, b = support_interval(p, 1.0, 1e-5)
            nodes = np.linspace(a, b, 220)
            grids.append(nodes)
            pdfs.append(nig_pdf(nodes, p, 1.0))
            cdfs.append(np.array([nig_cdf(v, p, 1.0) for v in nodes]))
        values = weights_on_grid(spec, cdfs) * np.multiply.outer(*pdfs)
        dx = grids[0][1] - grids[0][0]
        dy = grids[1][1] - grids[1][0]
        assert float(values.sum() * dx * dy) == pytest.approx(1.0, abs=2e-3)

    def test_marginalization_recovers_first_marginal(self):
        spec = two_asset_spec(0.5)
        x1 = np.array([-0.7, 0.0, 1.3])
        x2 = np.linspace(-8, 8, 1601)
        integral = np.trapezoid(normal_joint_on_grid(spec, [x1, x2]), x2, axis=1)
        assert np.allclose(integral, std_normal_pdf(x1), rtol=0.0, atol=1e-6)

    def test_exchangeability_under_permutation(self):
        sigma = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.45], [-0.2, 0.45, 1.0]])
        perm = [2, 0, 1]
        u = [np.array([0.4, 0.7]), np.array([0.1, 0.5, 0.95]), np.array([0.2, 0.6, 0.8, 0.99])]
        direct = weights_on_grid(CopulaSpec.from_matrix(sigma), u)
        permuted = weights_on_grid(
            CopulaSpec.from_matrix(sigma[np.ix_(perm, perm)]), [u[k] for k in perm]
        )
        assert np.allclose(np.transpose(direct, perm), permuted, rtol=1e-13, atol=0.0)


class TestAdjustedPayoff:
    """The independent formulation's payoff h c / c_max on grid weights."""

    def test_stays_in_unit_interval(self):
        spec = two_asset_spec(0.6)
        grid = np.linspace(-3, 3, 41)
        weights, c_max = grid_weights(spec, [std_normal_cdf] * 2, [grid, grid])
        vals = weights / c_max  # unit payoff
        assert np.all((vals >= 0) & (vals <= 1))

    def test_identity_between_formulations_on_grid(self):
        # f_joint * h == f_independent * H_adj * c_max at every node.
        rho = -0.25
        spec = two_asset_spec(rho)
        grid = np.linspace(-2.5, 2.5, 21)
        weights, c_max = grid_weights(spec, [std_normal_cdf] * 2, [grid, grid])
        payoff = lambda x: np.clip(np.abs(x[..., 0] - x[..., 1]) / 6.0, 0, 1)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        lhs = bivariate_normal_pdf(xx, yy, rho) * payoff(pts)
        f_ind = std_normal_pdf(xx) * std_normal_pdf(yy)
        rhs = f_ind * (payoff(pts) * weights / c_max) * c_max
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestGridCMax:
    def test_identity_exactly_one(self):
        spec = CopulaSpec.from_matrix(np.eye(2))
        assert grid_weights(spec, [std_normal_cdf] * 2, [np.linspace(-1, 1, 5)] * 2)[1] == 1.0

    def test_center_lower_bound(self):
        spec = two_asset_spec(-0.25)
        grid = np.linspace(-2, 2, 9)  # includes 0
        weights, value = grid_weights(spec, [std_normal_cdf] * 2, [grid, grid])
        assert value >= 1.0 / math.sqrt(1 - 0.0625)
        assert value == weights.max()

    def test_grows_toward_corners(self):
        spec = two_asset_spec(-0.25)
        cdfs = [std_normal_cdf] * 2
        shallow = grid_weights(spec, cdfs, [np.linspace(-2, 2, 9)] * 2)[1]
        deep = grid_weights(spec, cdfs, [np.linspace(-4, 4, 17)] * 2)[1]
        assert deep >= shallow

    def test_weights_on_grid_identity(self):
        spec = CopulaSpec.from_matrix(np.eye(2))
        w = weights_on_grid(spec, [np.array([0.2, 0.5]), np.array([0.4, 0.9])])
        assert np.array_equal(w, np.ones((2, 2)))

    def test_scattered_points_need_one_array_per_dimension_of_one_shape(self):
        spec = two_asset_spec()
        with pytest.raises(DomainError):
            copula_weights_at(spec, [np.zeros(2), np.zeros(3)])
        with pytest.raises(DomainError):
            copula_weights_at(spec, [np.zeros(2)])

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            grid_c_max(np.ones((0, 3)))


class TestPerAxisKernel:
    def test_normal_quantile_runs_once_per_axis(self, monkeypatch):
        # 16 points per axis on 3 axes: 48 quantiles, not one per node and axis.
        points = []

        def counting(u):
            points.append(np.size(u))
            return std_normal_quantile(u)

        monkeypatch.setattr(copula, "std_normal_quantile", counting)
        sigma = [[1.0, -0.2, -0.25], [-0.2, 1.0, -0.15], [-0.25, -0.15, 1.0]]
        axes = [np.linspace(0.0, 1.0, 16)] * 3
        weights = weights_on_grid(CopulaSpec.from_matrix(sigma), axes)
        assert weights.shape == (16, 16, 16)
        assert sum(points) == 48

    def test_weights_peak_at_one_node_tensor(self):
        # The quadratic form is exponentiated and scaled in place: the
        # weights are the only node-sized tensor the kernel allocates.
        sigma = [[1.0, -0.2, -0.25], [-0.2, 1.0, -0.15], [-0.25, -0.15, 1.0]]
        axes = [np.linspace(0.01, 0.99, 64)] * 3
        node_tensor = 64**3 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            weights = weights_on_grid(CopulaSpec.from_matrix(sigma), axes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights.shape == (64, 64, 64)
        assert peak - before <= 1.5 * node_tensor


@st.composite
def correlation_matrices(draw):
    """Correlation matrices of dimension 2..4 with smallest eigenvalue >= 0.2.

    A mix of a random rank-deficient correlation and the identity keeps the
    weights at the clamped corners far from exp underflow.
    """
    dim = draw(st.integers(2, 4))
    rows = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim, max_size=dim * dim)))
    rows = rows.reshape(dim, dim)
    norms = np.linalg.norm(rows, axis=1)
    rows[norms < 1e-3] = np.eye(dim)[norms < 1e-3]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    mix = draw(st.floats(0.2, 1.0))
    sigma = (1.0 - mix) * (rows @ rows.T) + mix * np.eye(dim)
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 1.0)
    return sigma


@st.composite
def copula_grids(draw):
    """A correlation matrix, per-axis CDF vectors holding exact 0 and 1, an axis permutation."""
    sigma = draw(correlation_matrices())
    dim = sigma.shape[0]
    axes = [
        np.array([0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4)))
        for _ in range(dim)
    ]
    perm = draw(st.permutations(range(dim)))
    return sigma, axes, perm


copula_settings = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestCopulaProperties:
    @copula_settings
    @given(case=copula_grids())
    def test_identity_gives_all_ones(self, case):
        _, axes, _ = case
        weights = weights_on_grid(CopulaSpec.from_matrix(np.eye(len(axes))), axes)
        assert np.array_equal(weights, np.ones(tuple(len(a) for a in axes)))

    @copula_settings
    @given(case=copula_grids())
    def test_permuting_axes_and_sigma_permutes_weights(self, case):
        sigma, axes, perm = case
        direct = weights_on_grid(CopulaSpec.from_matrix(sigma), axes)
        permuted = weights_on_grid(
            CopulaSpec.from_matrix(sigma[np.ix_(perm, perm)]), [axes[k] for k in perm]
        )
        assert np.allclose(np.transpose(direct, perm), permuted, rtol=1e-12, atol=0.0)

    @copula_settings
    @given(case=copula_grids(), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_weights_match_pointwise_formula(self, case, picks):
        sigma, axes, _ = case
        spec = CopulaSpec.from_matrix(sigma)
        weights = weights_on_grid(spec, axes)
        for pick in picks:
            node = np.unravel_index(pick % weights.size, weights.shape)
            u = np.array([axes[i][k] for i, k in enumerate(node)])
            z = std_normal_quantile(np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS))
            expected = math.exp(-0.5 * z @ (np.linalg.inv(sigma) - np.eye(spec.dim)) @ z) / math.sqrt(spec.det)
            assert weights[node] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @copula_settings
    @given(case=copula_grids(), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_slabs_and_scattered_nodes_take_the_grid_bits(self, case, picks):
        # The grid measure reads the weights slab by slab (rows of the
        # leading axis) and CMC at the nodes it draws: both are the full
        # grid's entries bit for bit.
        sigma, axes, _ = case
        spec = CopulaSpec.from_matrix(sigma)
        scores = normal_scores(axes)
        trailing = trailing_exponent(spec, scores)
        weights = copula_weights_on_grid(spec, scores, trailing)
        for start in range(len(axes[0])):
            rows = slice(start, start + 2)
            assert np.array_equal(copula_weights_on_grid(spec, [scores[0][rows], *scores[1:]], trailing), weights[rows])
        nodes = np.unravel_index(np.array(picks) % weights.size, weights.shape)
        scattered = copula_weights_at(spec, [z[k] for z, k in zip(scores, nodes)])
        assert np.array_equal(scattered, weights[nodes])

    @copula_settings
    @given(case=copula_grids())
    def test_weights_follow_the_row_major_fold(self, case):
        # The exponent is summed as a leading part plus the trailing-axes
        # table: at d = 2 that is the row-major fold from zero, bit for bit;
        # at d >= 3 it is a regrouping of it, held to the rounding bound of
        # a reordered sum.
        sigma, axes, _ = case
        spec = CopulaSpec.from_matrix(sigma)
        scores = normal_scores(axes)
        weights = copula_weights_on_grid(spec, scores, trailing_exponent(spec, scores))
        expected, magnitude = row_major_weights(spec, scores)
        if spec.dim <= 2:
            assert np.array_equal(weights, expected)
        else:
            assert np.all(np.abs(weights - expected) <= expected * regrouping_bound(spec, magnitude))

    @copula_settings
    @given(case=copula_grids())
    def test_weights_finite_and_positive(self, case):
        sigma, axes, _ = case
        weights = weights_on_grid(CopulaSpec.from_matrix(sigma), axes)
        assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)


class TestLoadCorrelation:
    def test_from_dict(self):
        spec = load_correlation({"assets": ["A", "B"], "sigma": [[1.0, -0.25], [-0.25, 1.0]]}, ["A", "B"])
        assert spec.sigma[0, 1] == -0.25

    def test_from_file(self, tmp_path):
        payload = {"assets": ["X", "Y", "Z"], "sigma": [[1, -0.2, -0.25], [-0.2, 1, -0.15], [-0.25, -0.15, 1]]}
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(payload))
        spec = load_correlation(path, ["X", "Y", "Z"])
        assert spec.dim == 3
        assert np.array_equal(spec.sigma, load_correlation(payload, ["X", "Y", "Z"]).sigma)

    def test_bundle_subset_in_asset_order(self, tmp_path):
        # The spec takes the rows and columns of the assets asked for, in their order.
        assert main(["make-bundle", "--out", str(tmp_path)]) == 0
        path = tmp_path / "corr.json"
        data = json.loads(path.read_text())
        assert data["assets"] == ["AXA", "CREDIT_AGRICOLE", "MICHELIN"]
        subset = np.asarray(data["sigma"], dtype=float)[np.ix_([2, 0], [2, 0])]
        spec = load_correlation(path, ["MICHELIN", "AXA"])
        expected = CopulaSpec.from_matrix(subset)
        assert np.array_equal(spec.sigma, subset)
        assert np.array_equal(spec.inv_minus_identity, expected.inv_minus_identity)
        assert spec.det == expected.det

    def test_missing_asset(self):
        with pytest.raises(ValidationError, match=r"no correlation entry for asset\(s\) \['C'\]"):
            load_correlation({"assets": ["A", "B"], "sigma": [[1.0, 0.0], [0.0, 1.0]]}, ["A", "C"])

    def test_asset_count_mismatch(self):
        with pytest.raises(ValidationError):
            load_correlation({"assets": ["A"], "sigma": [[1.0, 0.0], [0.0, 1.0]]}, ["A"])

    def test_repeated_asset(self):
        # names.index would silently take the first "A" row and drop the third row's 0.1.
        data = {"assets": ["A", "B", "A"], "sigma": [[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 1.0]]}
        with pytest.raises(ValidationError, match=r"asset\(s\) \['A'\] more than once"):
            load_correlation(data, ["A", "B"])

    def test_repeated_requested_asset(self):
        # ["A", "A"] took the same row twice, and the singular matrix surfaced
        # as "correlation matrix must be positive definite".
        data = {"assets": ["A", "B"], "sigma": [[1.0, 0.5], [0.5, 1.0]]}
        with pytest.raises(ValidationError, match=r"asset\(s\) \['A'\] asked for more than once"):
            load_correlation(data, ["A", "B", "A"])
