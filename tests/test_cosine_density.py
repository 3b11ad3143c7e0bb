"""Tests for cosine-series density and CDF estimation."""

import math
import tracemalloc

import numpy as np
import pytest

from dense_basis import one_matrix_cdf, one_matrix_coeffs, one_matrix_pdf
from qamcpricer import cosine_density, experiments
from qamcpricer.cosine_density import (
    CosineSeries,
    Interval,
    basis_matrix,
    coeffs_classical,
    eval_cdf,
    eval_pdf,
)
from qamcpricer.errors import DomainError
from qamcpricer.nig import nig_cdf, nig_pdf, support_interval
from qamcpricer.numerics import integrate
from qamcpricer.pricing import AssetMarginal
from qamcpricer.qamc import AEConfig, signed_ae_estimate

from series_bounds import KSelection, estimate_decay, select_terms


@pytest.fixture(scope="module")
def axa_series(axa_params):
    iv = Interval(*support_interval(axa_params, 1.0, 1e-5))
    return coeffs_classical(lambda x: nig_pdf(x, axa_params, 1.0), iv, 128)


def gamma(k: int, interval: Interval):
    """Basis function k as a callable, read off its row of basis_matrix."""
    return lambda x: basis_matrix(interval, k + 1, np.atleast_1d(np.asarray(x, dtype=float)))[k]


class TestBasis:
    def test_constant_mode(self):
        iv = Interval(-1.0, 3.0)
        assert gamma(0, iv)(0.7) == pytest.approx(0.5)

    def test_first_mode_at_left_edge(self):
        iv = Interval(-1.0, 3.0)
        assert gamma(1, iv)(-1.0) == pytest.approx(math.sqrt(0.5))

    def test_orthogonality_by_quadrature(self):
        iv = Interval(-2.0, 1.5)
        val = integrate(lambda x: gamma(2, iv)(x) * gamma(3, iv)(x), (iv.a, iv.b), panels=8)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_gram_matrix_is_identity(self):
        iv = Interval(0.0, 2.0)
        gram = np.empty((16, 16))
        for i in range(16):
            for j in range(16):
                gram[i, j] = integrate(lambda x: gamma(i, iv)(x) * gamma(j, iv)(x), (0.0, 2.0), panels=8)
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10

    def test_uniform_bound(self):
        iv = Interval(0.0, 0.5)
        xs = np.linspace(0.0, 0.5, 200)
        assert np.all(np.abs(basis_matrix(iv, 8, xs)) <= math.sqrt(2.0 / 0.5) + 1e-14)


class TestBasisPlus:
    def test_range_and_extremes(self):
        # The coefficient studies load gamma_k (k >= 1) as a signed value of
        # scale sqrt(2/w), i.e. the amplitude 1/2 + gamma_k/(2 scale): every
        # basis value must be a loadable amplitude, and gamma_1 spans it all.
        iv = Interval(0.0, 2.0)
        scale = math.sqrt(2.0 / iv.width)
        rows = basis_matrix(iv, 6, np.linspace(0.0, 2.0, 401))[1:]
        range_only = AEConfig(epsilon=0.5)  # draws no shot; the amplitude is range-checked
        for value in rows.ravel():
            signed_ae_estimate(value, range_only, scale, None)
        assert (rows[0, 0], rows[0, -1]) == (scale, -scale)  # amplitudes 1 and 0
        for value in (rows[0, 0], rows[0, 200], rows[0, -1]):
            res = signed_ae_estimate(value, AEConfig(epsilon=1e-3), scale, np.random.default_rng(0))
            assert abs(res.estimate - value) <= res.half_width + 1e-12


class TestCoeffs:
    def test_uniform_density(self):
        iv = Interval(1.0, 4.0)
        series = coeffs_classical(lambda x: np.full_like(x, 1.0 / 3.0), iv, 12)
        assert series.coeffs[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert np.max(np.abs(series.coeffs[1:])) <= 1e-12

    def test_reconstruction_sup_error(self, axa_params, axa_series):
        # 128 terms on the tight support: the thin analyticity strip of this
        # parameter set floors the achievable sup error near 3e-6 for any
        # interval choice (decay rate ~ pi delta / width vs edge aliasing).
        iv = axa_series.interval
        xs = np.linspace(iv.a, iv.b - 1e-9, 2000)
        err = np.max(np.abs(eval_pdf(axa_series, xs) - nig_pdf(xs, axa_params, 1.0)))
        assert err <= 5e-6

    def test_exponential_coefficient_decay(self, axa_series):
        zeta, nu = estimate_decay(axa_series)
        assert nu > 0.0
        assert zeta > 0.0
        # Geometric error reduction: tail bound shrinks at least geometrically.
        mags = np.abs(axa_series.coeffs)
        head = mags[1:33].max()
        tail = mags[64:].max()
        assert tail < head * 1e-2


class TestEvalPdf:
    def test_single_term_series_constant(self):
        series = CosineSeries(Interval(0.0, 2.0), np.array([0.7]))
        xs = np.linspace(0.0, 2.0, 5)
        assert eval_pdf(series, xs) == pytest.approx(0.7 / math.sqrt(2.0))

    def test_matches_direct_sum(self, axa_series):
        rng = np.random.default_rng(3)
        iv = axa_series.interval
        xs = rng.uniform(iv.a, iv.b, 5)
        direct = np.zeros_like(xs)
        for k, coef in enumerate(axa_series.coeffs):
            direct += coef * gamma(k, iv)(xs)
        assert eval_pdf(axa_series, xs) == pytest.approx(direct, abs=1e-12)


class TestEvalCdf:
    def test_outside_values(self, axa_series):
        iv = axa_series.interval
        assert eval_cdf(axa_series, iv.a - 1.0) == 0.0
        assert eval_cdf(axa_series, iv.b) == 1.0
        assert eval_cdf(axa_series, iv.a) == pytest.approx(0.0, abs=1e-12)

    def test_left_limit_at_b_is_total_mass(self, axa_series):
        iv = axa_series.interval
        approached = eval_cdf(axa_series, iv.b - 1e-12)
        assert approached == pytest.approx(axa_series.coeffs[0] * math.sqrt(iv.width), abs=1e-9)

    def test_uniform_series_linear(self):
        iv = Interval(0.0, 4.0)
        series = coeffs_classical(lambda x: np.full_like(x, 0.25), iv, 8)
        xs = np.linspace(0.0, 4.0 - 1e-12, 9)
        assert eval_cdf(series, xs) == pytest.approx(xs / 4.0, abs=1e-12)

    def test_matches_quadrature_cdf(self, axa_params, axa_series):
        iv = axa_series.interval
        xs = np.linspace(iv.a - 0.3, iv.b + 0.3, 801)
        truth = np.array([nig_cdf(x, axa_params, 1.0) for x in xs])
        err = np.max(np.abs(eval_cdf(axa_series, xs) - truth))
        assert err <= 1e-4

    def test_weak_monotonicity_up_to_truncation_wiggle(self, axa_series):
        iv = axa_series.interval
        xs = np.linspace(iv.a, iv.b, 4000)
        values = eval_cdf(axa_series, xs)
        assert np.min(np.diff(values)) >= -1e-3

    def test_derivative_matches_pdf(self, axa_series):
        iv = axa_series.interval
        h = 1e-6
        for x in np.linspace(iv.a + 0.2, iv.b - 0.2, 7):
            fd = (eval_cdf(axa_series, x + h) - eval_cdf(axa_series, x - h)) / (2 * h)
            assert fd == pytest.approx(eval_pdf(axa_series, x), abs=1e-4)


def traced_peak(call):
    """call()'s result and the peak bytes it allocated under tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


class TestBlocks:
    """The blocked projection and evaluators against the one-matrix products (tests/dense_basis.py)."""

    def test_one_item_tail_joins_the_block_before(self):
        blocks = cosine_density._blocks
        assert blocks(0, 16) == []
        assert blocks(1, 16) == [slice(0, 1)]
        assert blocks(16, 16) == [slice(0, 16)]
        assert blocks(17, 16) == [slice(0, 17)]
        assert blocks(37, 16) == [slice(0, 16), slice(16, 32), slice(32, 37)]

    @pytest.mark.parametrize("name", sorted(experiments.FIXTURES))
    @pytest.mark.parametrize("terms", [1, 16, 17, 37, 128, 200])
    def test_coeffs_are_the_one_matrix_bits(self, name, terms):
        # A one-row block goes down numpy's dot path rather than the matrix
        # kernel.  With OpenBLAS, a 17-term CREDIT_AGRICOLE projection whose
        # last row is its own block misses the one-matrix bits.
        params, _ = experiments.FIXTURES[name]
        iv = Interval(*support_interval(params, 1.0, experiments.MARGINAL_TAIL_EPS))

        def pdf(x):
            return nig_pdf(x, params, 1.0)

        blocked = coeffs_classical(pdf, iv, terms).coeffs
        assert [float(c).hex() for c in blocked] == [float(c).hex() for c in one_matrix_coeffs(pdf, iv, terms)]

    @pytest.mark.parametrize("points", [1, 2, 127, 128, 129, 257, 4096])
    def test_pdf_and_cdf_are_the_one_matrix_bits(self, axa_series, points):
        iv = axa_series.interval
        xs = np.random.default_rng(points).uniform(iv.a, iv.b, points)
        assert np.array_equal(eval_pdf(axa_series, xs), one_matrix_pdf(axa_series, xs))
        assert np.array_equal(eval_cdf(axa_series, xs), one_matrix_cdf(axa_series, xs))
        assert eval_pdf(axa_series, xs[0]) == one_matrix_pdf(axa_series, xs[:1])[0]
        assert eval_cdf(axa_series, xs[0]) == one_matrix_cdf(axa_series, xs[:1])[0]

    def test_values_keep_the_shape_of_the_points(self, axa_series):
        iv = axa_series.interval
        xs = np.linspace(iv.a - 0.1, iv.b + 0.1, 300).reshape(20, 15)
        inside = np.clip(xs, iv.a, iv.b - 1e-9)
        assert np.array_equal(eval_cdf(axa_series, xs).ravel(), eval_cdf(axa_series, xs.ravel()))
        assert np.array_equal(eval_pdf(axa_series, inside).ravel(), eval_pdf(axa_series, inside.ravel()))

    def test_fit_at_128_terms_peaks_below_one_mib(self):
        params, _ = experiments.FIXTURES["AXA"]
        slice_ = experiments.fixture_slice("AXA")
        marginal, peak = traced_peak(lambda: AssetMarginal.fit(params, slice_, 128, experiments.MARGINAL_TAIL_EPS))
        assert marginal.series.terms == 128
        assert peak < 2**20

    @pytest.mark.parametrize("evaluate", [eval_pdf, eval_cdf])
    def test_evaluation_peak_does_not_grow_with_the_points(self, axa_series, evaluate):
        # One 128 x 4096 basis takes 4 MiB.  The blocks hold 128 x 128
        # values (128 KiB) at a time, so a bound that does not depend on the
        # point count, 512 KiB, covers their temporaries and the 32 KiB of values.
        iv = axa_series.interval
        xs = np.linspace(iv.a, iv.b, 2**12)
        values, peak = traced_peak(lambda: evaluate(axa_series, xs))
        assert values.shape == xs.shape
        assert peak < 2**19


class TestNaN:
    @pytest.mark.parametrize("evaluate", [eval_pdf, eval_cdf])
    def test_a_nan_point_is_a_domain_error(self, axa_series, evaluate):
        middle = 0.5 * (axa_series.interval.a + axa_series.interval.b)
        with pytest.raises(DomainError, match="NaN"):
            evaluate(axa_series, np.array([math.nan, middle, math.nan]))
        with pytest.raises(DomainError, match="NaN"):
            evaluate(axa_series, math.nan)


class TestSelectTerms:
    def test_exponential_example(self):
        sel = KSelection("exponential", zeta=1.0, rate=1.0, epsilon=4e-3)
        assert select_terms(sel, Interval(0.0, 1.0)) == 7  # ceil(ln 1000)

    def test_algebraic_boundary(self):
        # 4 * zeta * width / epsilon == 1 exactly: the ceiling lands on 1.
        sel = KSelection("algebraic", zeta=1.0, rate=1.0, epsilon=0.4)
        assert select_terms(sel, Interval(0.0, 0.1)) == 1

    def test_halving_epsilon_growth_bound(self):
        nu = 0.7
        iv = Interval(0.0, 1.0)
        for eps in [1e-2, 1e-3, 1e-4]:
            k1 = select_terms(KSelection("exponential", 1.0, nu, eps), iv)
            k2 = select_terms(KSelection("exponential", 1.0, nu, eps / 2.0), iv)
            assert k2 - k1 <= math.ceil(math.log(2.0) / nu) + 1

    def test_invalid_selection(self):
        with pytest.raises(DomainError):
            KSelection("exponential", zeta=-1.0, rate=1.0, epsilon=0.1)
        with pytest.raises(DomainError):
            KSelection("other", zeta=1.0, rate=1.0, epsilon=0.1)

