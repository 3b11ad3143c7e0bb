"""Tests for the Gaussian copula density and joint-density assembly."""

import math

import numpy as np
import pytest

from qamcpricer.copula import (
    CopulaSpec,
    copula_weights_on_grid,
    gaussian_copula_density,
    grid_c_max,
    grid_c_prime_max,
    joint_pdf,
    load_correlation,
)
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.nig import NIGParams, nig_cdf, nig_pdf, support_interval
from qamcpricer.numerics import std_normal_cdf, std_normal_pdf


def two_asset_spec(rho=-0.25):
    return CopulaSpec.from_matrix([[1.0, rho], [rho, 1.0]])


def grid_weights(spec, cdfs, grids):
    """Copula weights on the tensor grid of ``grids`` and their c_max bound."""
    weights = copula_weights_on_grid(spec, [cdf(g) for cdf, g in zip(cdfs, grids)])
    return weights, grid_c_max(spec, weights)


class TestDensity:
    def test_identity_is_one(self):
        spec = CopulaSpec.from_matrix(np.eye(3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.uniform(0.05, 0.95, 3)
            assert gaussian_copula_density(u, spec) == pytest.approx(1.0, abs=1e-14)

    def test_center_value_closed_form(self):
        spec = two_asset_spec(-0.25)
        value = gaussian_copula_density([0.5, 0.5], spec)
        assert value == pytest.approx(1.0 / math.sqrt(1.0 - 0.25**2), rel=1e-14)

    def test_exchange_symmetry(self):
        spec = two_asset_spec(0.4)
        assert gaussian_copula_density([0.3, 0.8], spec) == pytest.approx(
            gaussian_copula_density([0.8, 0.3], spec), rel=1e-14
        )

    def test_strictly_positive(self):
        spec = two_asset_spec(0.9)
        rng = np.random.default_rng(1)
        u = rng.uniform(0.01, 0.99, (100, 2))
        assert np.all(gaussian_copula_density(u, spec) > 0.0)

    def test_boundary_rejected(self):
        spec = two_asset_spec()
        with pytest.raises(DomainError):
            gaussian_copula_density([0.0, 0.5], spec)
        with pytest.raises(DomainError):
            gaussian_copula_density([0.5, 1.0], spec)

    def test_matrix_validation(self):
        with pytest.raises(ValidationError):
            CopulaSpec.from_matrix([[1.0, 0.2], [0.3, 1.0]])  # asymmetric
        with pytest.raises(ValidationError):
            CopulaSpec.from_matrix([[2.0, 0.0], [0.0, 1.0]])  # diagonal not 1
        with pytest.raises(ValidationError):
            CopulaSpec.from_matrix([[1.0, 1.0], [1.0, 1.0]])  # singular


@pytest.fixture(scope="module")
def gauss_marginals():
    # Standard normal marginals make the joint law exactly multivariate normal.
    pdf = lambda x: std_normal_pdf(x)
    cdf = lambda x: std_normal_cdf(x)
    return [(pdf, cdf), (pdf, cdf)]


class TestJointPdf:
    def test_identity_reduces_to_product(self, gauss_marginals):
        spec = CopulaSpec.from_matrix(np.eye(2))
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=2)
            expected = std_normal_pdf(x[0]) * std_normal_pdf(x[1])
            assert joint_pdf(x, gauss_marginals, spec) == pytest.approx(expected, abs=1e-14)

    def test_matches_bivariate_normal(self, gauss_marginals):
        rho = -0.25
        spec = two_asset_spec(rho)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=2)
            det = 1 - rho**2
            quad = (x[0] ** 2 - 2 * rho * x[0] * x[1] + x[1] ** 2) / det
            expected = math.exp(-0.5 * quad) / (2 * math.pi * math.sqrt(det))
            assert joint_pdf(x, gauss_marginals, spec) == pytest.approx(expected, rel=1e-12)

    def test_riemann_normalization_two_asset_nig(self, axa_params, michelin_params):
        spec = two_asset_spec(-0.25)
        marginals = []
        grids = []
        for p in (axa_params, michelin_params):
            a, b = support_interval(p, 1.0, 1e-5)
            nodes = np.linspace(a, b, 220)
            marginals.append(
                (lambda x, p=p: nig_pdf(x, p, 1.0), lambda x, p=p: np.array([nig_cdf(v, p, 1.0) for v in np.atleast_1d(x)]))
            )
            grids.append(nodes)
        xx, yy = np.meshgrid(grids[0], grids[1], indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        values = joint_pdf(pts, marginals, spec)
        dx = grids[0][1] - grids[0][0]
        dy = grids[1][1] - grids[1][0]
        assert float(values.sum() * dx * dy) == pytest.approx(1.0, abs=2e-3)

    def test_marginalization_recovers_first_marginal(self, gauss_marginals):
        spec = two_asset_spec(0.5)
        x2 = np.linspace(-8, 8, 1601)
        for x1 in [-0.7, 0.0, 1.3]:
            pts = np.stack([np.full_like(x2, x1), x2], axis=-1)
            integral = np.trapezoid(joint_pdf(pts, gauss_marginals, spec), x2)
            assert integral == pytest.approx(std_normal_pdf(x1), abs=1e-6)

    def test_exchangeability_under_permutation(self, gauss_marginals):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        spec = CopulaSpec.from_matrix(sigma)
        x = np.array([0.4, -1.1])
        direct = joint_pdf(x, gauss_marginals, spec)
        swapped = joint_pdf(x[::-1], gauss_marginals[::-1], spec)
        assert direct == pytest.approx(swapped, rel=1e-13)


class TestAdjustedPayoff:
    """The independent formulation's payoff h c / c_max on grid weights."""

    def test_stays_in_unit_interval(self, gauss_marginals):
        spec = two_asset_spec(0.6)
        cdfs = [m[1] for m in gauss_marginals]
        grid = np.linspace(-3, 3, 41)
        weights, c_max = grid_weights(spec, cdfs, [grid, grid])
        vals = weights / c_max  # unit payoff
        assert np.all((vals >= 0) & (vals <= 1))

    def test_identity_between_formulations_on_grid(self, gauss_marginals):
        # f_joint * h == f_independent * H_adj * c_max at every node.
        spec = two_asset_spec(-0.25)
        cdfs = [m[1] for m in gauss_marginals]
        grid = np.linspace(-2.5, 2.5, 21)
        weights, c_max = grid_weights(spec, cdfs, [grid, grid])
        payoff = lambda x: np.clip(np.abs(x[..., 0] - x[..., 1]) / 6.0, 0, 1)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        lhs = joint_pdf(pts, gauss_marginals, spec) * payoff(pts)
        f_ind = std_normal_pdf(xx) * std_normal_pdf(yy)
        rhs = f_ind * (payoff(pts) * weights / c_max) * c_max
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestGridCMax:
    def test_identity_exactly_one(self, gauss_marginals):
        spec = CopulaSpec.from_matrix(np.eye(2))
        cdfs = [m[1] for m in gauss_marginals]
        assert grid_weights(spec, cdfs, [np.linspace(-1, 1, 5)] * 2)[1] == 1.0

    def test_center_lower_bound(self, gauss_marginals):
        spec = two_asset_spec(-0.25)
        cdfs = [m[1] for m in gauss_marginals]
        grid = np.linspace(-2, 2, 9)  # includes 0
        weights, value = grid_weights(spec, cdfs, [grid, grid])
        assert value >= 1.0 / math.sqrt(1 - 0.0625)
        assert value == 1.01 * weights.max()

    def test_grows_toward_corners(self, gauss_marginals):
        spec = two_asset_spec(-0.25)
        cdfs = [m[1] for m in gauss_marginals]
        shallow = grid_weights(spec, cdfs, [np.linspace(-2, 2, 9)] * 2)[1]
        deep = grid_weights(spec, cdfs, [np.linspace(-4, 4, 17)] * 2)[1]
        assert deep >= shallow

    def test_c_prime_max_positive_when_correlated(self, gauss_marginals):
        spec = two_asset_spec(0.5)
        cdfs = [m[1] for m in gauss_marginals]
        assert grid_c_prime_max(spec, cdfs, [np.linspace(-2, 2, 9)] * 2) > 0.0

    def test_weights_on_grid_identity(self):
        spec = CopulaSpec.from_matrix(np.eye(2))
        w = copula_weights_on_grid(spec, [np.array([0.2, 0.5]), np.array([0.4, 0.9])])
        assert np.array_equal(w, np.ones((2, 2)))

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            grid_c_max(two_asset_spec(), np.ones((0, 3)))


class TestLoadCorrelation:
    def test_from_dict(self):
        assets, spec = load_correlation({"assets": ["A", "B"], "sigma": [[1.0, -0.25], [-0.25, 1.0]]})
        assert assets == ["A", "B"]
        assert spec.sigma[0, 1] == -0.25

    def test_from_json_string_and_file(self, tmp_path):
        payload = '{"assets": ["X", "Y", "Z"], "sigma": [[1, -0.2, -0.25], [-0.2, 1, -0.15], [-0.25, -0.15, 1]]}'
        assets, spec = load_correlation(payload)
        assert spec.dim == 3
        path = tmp_path / "corr.json"
        path.write_text(payload)
        assets2, spec2 = load_correlation(path)
        assert assets2 == assets
        assert np.array_equal(spec2.sigma, spec.sigma)

    def test_asset_count_mismatch(self):
        with pytest.raises(ValidationError):
            load_correlation({"assets": ["A"], "sigma": [[1.0, 0.0], [0.0, 1.0]]})
