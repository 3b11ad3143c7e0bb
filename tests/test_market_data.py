"""Tests for quote ingestion, parity stripping, and arbitrage checks."""

import math

import numpy as np
import pytest

from qamcpricer.black_scholes import BSInputs, bs_price
from qamcpricer.errors import DomainError, ValidationError
from qamcpricer.market_data import (
    ButterflyViolation,
    MarketSlice,
    OptionQuote,
    check_butterfly_arbitrage,
    check_digital_arbitrage,
    drop_violating_quotes,
    generate_synthetic_quotes,
    load_quotes,
    save_quotes,
    scan_arbitrage,
    strip_curves,
)
from qamcpricer.nig import ExpNIGModel, price_european_batch


def bs_quote_set(spot=100.0, r=0.03, q=0.01, expiry=1.0, sigma=0.2, strikes=None, spread=0.0):
    strikes = np.linspace(80, 120, 20) if strikes is None else np.asarray(strikes)
    quotes = []
    for k in strikes:
        for kind in ("C", "P"):
            mid = bs_price(BSInputs(spot, float(k), expiry, r, q, sigma), kind)
            quotes.append(
                OptionQuote("SYN", expiry, float(k), kind, max(mid - spread, 0.0), mid + spread)
            )
    return quotes


class TestQuoteTypes:
    def test_quote_invariants(self):
        OptionQuote("X", 1.0, 100.0, "C", 1.0, 2.0)
        with pytest.raises(ValidationError):
            OptionQuote("X", 1.0, 100.0, "C", 2.0, 1.0)
        with pytest.raises(ValidationError):
            OptionQuote("X", -1.0, 100.0, "C", 1.0, 2.0)
        with pytest.raises(ValidationError):
            OptionQuote("X", 1.0, 100.0, "Z", 1.0, 2.0)

    def test_slice_consistency_enforced(self):
        MarketSlice.from_rates("X", 100.0, 1.0, 0.03, 0.01)
        with pytest.raises(ValidationError):
            MarketSlice("X", 100.0, 1.0, math.exp(-0.03), 105.0, 0.05, 0.01)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_inputs_rejected(self, bad):
        for args in (("X", bad, 1.0, 0.02), ("X", 30.0, bad, 0.02), ("X", 30.0, 1.0, bad)):
            with pytest.raises(ValidationError):
                MarketSlice.from_rates(*args)
        for numbers in ((bad, 100.0, 1.0, 2.0), (1.0, bad, 1.0, 2.0), (1.0, 100.0, bad, 2.0),
                        (1.0, 100.0, 1.0, bad)):
            expiry, strike, bid, ask = numbers
            with pytest.raises(ValidationError):
                OptionQuote("X", expiry, strike, "C", bid, ask)

    def test_zero_expiry_slice_rejected(self):
        with pytest.raises(ValidationError):
            MarketSlice.from_rates("X", 30.0, 0.0, 0.02)


class TestLoadSave:
    def test_single_valid_row(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("underlying,expiry_years,strike,kind,bid,ask\nAXA,1.0,30.0,C,3.1,3.3\n")
        groups = load_quotes(path)
        assert list(groups) == [("AXA", 1.0)]
        (quote,) = groups[("AXA", 1.0)]
        assert quote.strike == 30.0 and quote.kind == "C"

    def test_crossed_quote_names_line(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text(
            "underlying,expiry_years,strike,kind,bid,ask\n"
            "AXA,1.0,30.0,C,3.1,3.3\n"
            "AXA,1.0,31.0,C,3.5,3.0\n"
        )
        with pytest.raises(ValidationError, match="line 3"):
            load_quotes(path)

    def test_malformed_row_reported(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("underlying,expiry_years,strike,kind,bid,ask\nAXA,oops,30.0,C,1,2\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_quotes(path)

    def test_non_finite_rows_reported(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text(
            "underlying,expiry_years,strike,kind,bid,ask\n"
            "AXA,1.0,30.0,C,nan,nan\n"
            "AXA,1.0,nan,C,3.1,3.3\n"
            "AXA,inf,30.0,C,3.1,3.3\n"
            "AXA,1.0,31.0,C,3.1,3.3\n"
        )
        with pytest.raises(ValidationError) as info:
            load_quotes(path)
        reported = [line.split(":")[0] for line in str(info.value).splitlines()[1:]]
        assert reported == ["line 2", "line 3", "line 4"]

    def test_round_trip_lossless(self, tmp_path, axa_params, axa_slice):
        quotes = generate_synthetic_quotes(axa_params, axa_slice, [30.0, 33.8, 37.0], spread=0.01)
        path = tmp_path / "round.csv"
        save_quotes(path, quotes)
        loaded = load_quotes(path)[("AXA", 1.0)]
        assert loaded == quotes


class TestStripCurves:
    def test_exact_black_scholes_recovery(self):
        quotes = bs_quote_set()
        curves = strip_curves(quotes, spot=100.0, expiry=1.0)
        assert curves.discount_factor == pytest.approx(math.exp(-0.03), rel=1e-10)
        assert curves.forward == pytest.approx(100.0 * math.exp(0.02), rel=1e-10)
        assert curves.rate == pytest.approx(0.03, abs=1e-10)
        assert curves.dividend_yield == pytest.approx(0.01, abs=1e-10)

    def test_zero_rates(self):
        quotes = bs_quote_set(r=0.0, q=0.0)
        curves = strip_curves(quotes, spot=100.0, expiry=1.0)
        assert curves.discount_factor == pytest.approx(1.0, abs=1e-12)
        assert curves.forward == pytest.approx(100.0, rel=1e-12)

    def test_noisy_quotes_close_to_truth(self):
        rng = np.random.default_rng(5)
        strikes = np.linspace(80, 120, 20)
        quotes = []
        for k in strikes:
            noise = rng.uniform(-0.001, 0.001)
            for kind in ("C", "P"):
                mid = bs_price(BSInputs(100.0, float(k), 1.0, 0.03, 0.01, 0.2), kind)
                mid += noise if kind == "C" else -noise  # symmetric perturbation of C - P
                quotes.append(OptionQuote("SYN", 1.0, float(k), kind, mid, mid))
        curves = strip_curves(quotes, spot=100.0, expiry=1.0)
        # Oracle: closed-form OLS on the same noisy parity differences.
        y = np.array(
            [q.mid for q in quotes if q.kind == "C"]
        ) - np.array([q.mid for q in quotes if q.kind == "P"])
        design = np.column_stack([strikes, np.ones_like(strikes)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert curves.discount_factor == pytest.approx(-coef[0], rel=1e-12)
        assert abs(curves.discount_factor - math.exp(-0.03)) <= 5e-4

    def test_requires_two_pairs(self):
        quotes = bs_quote_set(strikes=[100.0])
        with pytest.raises(ValidationError):
            strip_curves(quotes, 100.0, 1.0)

    def test_zero_bid_excluded(self):
        quotes = bs_quote_set(strikes=[90.0, 100.0, 110.0])
        dead = OptionQuote("SYN", 1.0, 95.0, "C", 0.0, 50.0)
        dead_p = OptionQuote("SYN", 1.0, 95.0, "P", 0.0, 50.0)
        curves = strip_curves(quotes + [dead, dead_p], 100.0, 1.0)
        assert curves.discount_factor == pytest.approx(math.exp(-0.03), rel=1e-10)

    def test_parity_exact_across_rate_grid(self):
        for r in [0.0, 0.04, 0.1]:
            for q in [0.0, 0.03]:
                quotes = bs_quote_set(r=r, q=q)
                curves = strip_curves(quotes, 100.0, 1.0)
                assert curves.discount_factor == pytest.approx(math.exp(-r), rel=1e-10)
                assert curves.forward == pytest.approx(100 * math.exp(r - q), rel=1e-10)


class TestDigitalCheck:
    def test_black_scholes_passes(self):
        strikes = np.array([90.0, 100.0, 110.0])
        call_mids = [bs_price(BSInputs(100.0, k, 1.0, 0.0, 0.0, 0.2), "C") for k in strikes]
        put_mids = [bs_price(BSInputs(100.0, k, 1.0, 0.0, 0.0, 0.2), "P") for k in strikes]
        assert check_digital_arbitrage(strikes, call_mids, "C") == []
        assert check_digital_arbitrage(strikes, put_mids, "P") == []

    def test_flat_call_price_is_violation(self):
        violations = check_digital_arbitrage([90.0, 100.0], [5.0, 5.0], "C")
        assert len(violations) == 1
        assert violations[0].strikes == (90.0, 100.0)
        assert violations[0].ratio == 0.0

    def test_increasing_call_price_is_violation(self):
        violations = check_digital_arbitrage([90.0, 100.0], [5.0, 6.0], "C")
        assert len(violations) == 1 and violations[0].ratio < 0.0

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            check_digital_arbitrage([100.0, 90.0], [5.0, 6.0], "C")


class TestButterflyCheck:
    def test_piecewise_linear_convex_passes(self):
        strikes = [80.0, 90.0, 100.0]
        mids = [max(100.0 - k, 0.0) + 1.0 for k in strikes]
        assert check_butterfly_arbitrage(strikes, mids, "C") == []

    def test_concave_triple_flagged_with_value(self):
        # Middle price above the chord: convexity fails.
        violations = check_butterfly_arbitrage([90.0, 100.0, 110.0], [10.0, 9.9, 9.0], "C")
        assert len(violations) == 1
        v = violations[0]
        assert v.strikes == (90.0, 100.0, 110.0)
        assert v.value == pytest.approx(-0.8)
        # Oracle: same inequality written as the butterfly-spread payoff.
        w = (100.0 - 90.0) / (110.0 - 100.0)
        fly = 10.0 - (1 + w) * 9.9 + w * 9.0
        assert v.value == pytest.approx(fly)

    def test_black_scholes_passes_all_triples(self):
        strikes = np.linspace(70, 130, 25)
        mids = [bs_price(BSInputs(100.0, float(k), 1.0, 0.01, 0.0, 0.25), "C") for k in strikes]
        assert check_butterfly_arbitrage(strikes, mids, "C") == []

    def test_insufficient_strikes(self):
        with pytest.raises(DomainError):
            check_butterfly_arbitrage([90.0, 100.0], [5.0, 4.0], "C")

    def test_order_insensitive_after_sorting(self):
        strikes = np.array([90.0, 100.0, 110.0])
        mids = np.array([10.0, 9.0, 9.5])
        base = check_butterfly_arbitrage(strikes, mids, "C")
        perm = [2, 0, 1]
        order = np.argsort(strikes[perm])
        again = check_butterfly_arbitrage(strikes[perm][order], mids[perm][order], "C")
        assert base == again


class TestDropViolations:
    def test_drops_far_tail_quote(self):
        quotes = bs_quote_set(strikes=np.linspace(80, 120, 9))
        # Corrupt one deep-OTM call into a butterfly violation.
        bad = OptionQuote("SYN", 1.0, 125.0, "C", 0.001, 0.001)
        cleaned = drop_violating_quotes(quotes + [bad])
        assert scan_arbitrage(cleaned) == []
        assert len(cleaned) >= len(quotes)


class TestSyntheticQuotes:
    def test_passes_all_checks(self, axa_params, axa_slice):
        strikes = np.linspace(0.8, 1.2, 15) * axa_slice.forward
        quotes = generate_synthetic_quotes(axa_params, axa_slice, strikes, spread=0.005)
        assert scan_arbitrage(quotes) == []

    def test_zero_spread_collapses(self, axa_params, axa_slice):
        (quote, *_) = generate_synthetic_quotes(axa_params, axa_slice, [33.8], spread=0.0)
        assert quote.bid == quote.ask == quote.mid

    def test_deep_itm_call_above_forward_bound(self, axa_params, axa_slice):
        strike = 0.5 * axa_slice.forward
        quotes = generate_synthetic_quotes(axa_params, axa_slice, [strike], spread=0.0)
        call = next(q for q in quotes if q.kind == "C")
        bound = axa_slice.discount_factor * (axa_slice.forward - strike)
        assert call.mid >= bound - 1e-8

    def test_mid_matches_pricer(self, michelin_params, michelin_slice):
        quotes = generate_synthetic_quotes(michelin_params, michelin_slice, [30.0], spread=0.0)
        model = ExpNIGModel(michelin_params, michelin_slice)
        call = next(q for q in quotes if q.kind == "C")
        assert call.mid == pytest.approx(price_european_batch(model, [30.0], ["C"])[0], abs=1e-14)
