"""Tests for quote ingestion, parity stripping, and arbitrage checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qamcpricer import nig
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

    @pytest.mark.parametrize(
        "spot, expiry, rate, dividend_yield",
        [(100.0, 1.0, 0.03, 0.01), (33.8, 1.0, 0.02, 0.0), (12.91, 0.25, -0.005, 0.04), (31.76, 3.7, 0.1, 0.0)],
    )
    def test_derived_curves_are_the_rate_expressions(self, spot, expiry, rate, dividend_yield):
        slc = MarketSlice("X", spot, expiry, rate, dividend_yield)
        assert slc.discount_factor.hex() == math.exp(-rate * expiry).hex()
        assert slc.forward.hex() == (spot * math.exp((rate - dividend_yield) * expiry)).hex()

    def test_rates_default_to_zero(self):
        slc = MarketSlice("X", 30.0, 2.0)
        assert (slc.rate, slc.dividend_yield, slc.discount_factor, slc.forward, slc.quotes) == (0.0, 0.0, 1.0, 30.0, ())

    def test_slice_holds_only_its_own_quotes(self):
        own = OptionQuote("X", 1.0, 30.0, "C", 1.0, 1.1)
        assert MarketSlice("X", 30.0, 1.0, 0.02, 0.0, [own]).quotes == (own,)
        for foreign in (replace(own, underlying="Y"), replace(own, expiry=2.0)):
            with pytest.raises(ValidationError, match="cannot hold"):
                MarketSlice("X", 30.0, 1.0, 0.02, 0.0, (own, foreign))

    def test_overflowing_curves_rejected(self):
        for rate, dividend_yield in ((-1e3, 0.0), (0.0, -1e3), (0.0, 1e3)):
            with pytest.raises(ValidationError):
                MarketSlice("X", 30.0, 1.0, rate, dividend_yield)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_inputs_rejected(self, bad):
        for args in (("X", bad, 1.0, 0.02), ("X", 30.0, bad, 0.02), ("X", 30.0, 1.0, bad)):
            with pytest.raises(ValidationError):
                MarketSlice(*args)
        for numbers in ((bad, 100.0, 1.0, 2.0), (1.0, bad, 1.0, 2.0), (1.0, 100.0, bad, 2.0),
                        (1.0, 100.0, 1.0, bad)):
            expiry, strike, bid, ask = numbers
            with pytest.raises(ValidationError):
                OptionQuote("X", expiry, strike, "C", bid, ask)

    def test_zero_expiry_slice_rejected(self):
        with pytest.raises(ValidationError):
            MarketSlice("X", 30.0, 0.0, 0.02)

    def test_discount_factor_sanity_bound(self):
        # A negative rate gives DF > 1; the stripping sanity bound is the limit.
        assert MarketSlice("X", 30.0, 1.0, -0.005).discount_factor > 1.0
        for rate in (-0.2, math.inf):
            with pytest.raises(ValidationError):
                MarketSlice("X", 30.0, 1.0, rate)


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

    def test_repeated_row_reported_with_both_lines(self, tmp_path):
        # The same (underlying, expiry, strike, kind) twice used to pass ingest;
        # a differently spelt number is the same quote, and the other kind is not.
        path = tmp_path / "quotes.csv"
        path.write_text(
            "underlying,expiry_years,strike,kind,bid,ask\n"
            "AXA,1.0,30.0,C,3.1,3.3\n"
            "AXA,1.0,30.0,P,1.1,1.3\n"
            "AXA,1,30,C,3.0,3.4\n"
            "AXA,2.0,30.0,C,4.1,4.3\n"
        )
        with pytest.raises(ValidationError) as info:
            load_quotes(path)
        assert str(info.value).splitlines()[1:] == ["line 4: repeats the quote ('AXA', 1.0, 30.0, 'C') of line 2"]

    def test_round_trip_lossless(self, tmp_path, axa_params, axa_slice):
        quotes = generate_synthetic_quotes(axa_params, axa_slice, [30.0, 33.8, 37.0], spread=0.01)
        path = tmp_path / "round.csv"
        save_quotes(path, quotes)
        loaded = load_quotes(path)[("AXA", 1.0)]
        assert loaded == quotes


class TestStripCurves:
    def test_exact_black_scholes_recovery(self):
        quotes = bs_quote_set()
        curves = strip_curves(quotes, spot=100.0)
        assert curves.discount_factor == pytest.approx(math.exp(-0.03), rel=1e-10)
        assert curves.forward == pytest.approx(100.0 * math.exp(0.02), rel=1e-10)
        assert curves.rate == pytest.approx(0.03, abs=1e-10)
        assert curves.dividend_yield == pytest.approx(0.01, abs=1e-10)

    def test_zero_rates(self):
        quotes = bs_quote_set(r=0.0, q=0.0)
        curves = strip_curves(quotes, spot=100.0)
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
        curves = strip_curves(quotes, spot=100.0)
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
            strip_curves(quotes, 100.0)

    def test_zero_bid_excluded(self):
        quotes = bs_quote_set(strikes=[90.0, 100.0, 110.0])
        dead = OptionQuote("SYN", 1.0, 95.0, "C", 0.0, 50.0)
        dead_p = OptionQuote("SYN", 1.0, 95.0, "P", 0.0, 50.0)
        curves = strip_curves(quotes + [dead, dead_p], 100.0)
        assert curves.discount_factor == pytest.approx(math.exp(-0.03), rel=1e-10)
        # The slice keeps every quote it was given, the dead ones too.
        assert (curves.underlying, curves.spot, curves.expiry) == ("SYN", 100.0, 1.0)
        assert curves.quotes == tuple(quotes + [dead, dead_p])

    def test_one_underlying_per_slice(self):
        quotes = bs_quote_set(strikes=[90.0, 100.0, 110.0])
        with pytest.raises(ValidationError):
            strip_curves(quotes + [replace(quotes[0], underlying="OTHER")], 100.0)

    def test_one_expiry_per_slice(self):
        quotes = bs_quote_set(strikes=[90.0, 100.0, 110.0])
        later = bs_quote_set(expiry=2.0, strikes=[90.0, 100.0, 110.0])
        with pytest.raises(ValidationError, match="cannot hold"):
            strip_curves(quotes + later, 100.0)

    def test_expiry_is_the_quotes_own(self):
        curves = strip_curves(bs_quote_set(expiry=0.5), 100.0)
        assert curves.expiry == 0.5
        assert curves.discount_factor == pytest.approx(math.exp(-0.03 * 0.5), rel=1e-10)

    @pytest.mark.parametrize("spot", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_spot_rejected(self, spot):
        with pytest.raises(ValidationError, match="spot must be finite and positive"):
            strip_curves(bs_quote_set(), spot)

    def test_negative_forward_rejected(self):
        # C - P is -5.0 at K = 1 and -5.8 at K = 2: DF 0.8 and forward -5.25.
        quotes = [
            OptionQuote("X", 1.0, 1.0, "C", 0.1, 0.2), OptionQuote("X", 1.0, 2.0, "C", 0.1, 0.2),
            OptionQuote("X", 1.0, 1.0, "P", 5.1, 5.2), OptionQuote("X", 1.0, 2.0, "P", 5.9, 6.0),
        ]
        with pytest.raises(ValidationError, match="forward .* is not positive"):
            strip_curves(quotes, 10.0)

    def test_parity_exact_across_rate_grid(self):
        for r in [-0.005, 0.0, 0.04, 0.1]:
            for q in [0.0, 0.03]:
                quotes = bs_quote_set(r=r, q=q)
                curves = strip_curves(quotes, 100.0)
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
        assert violations[0].value == 0.0

    def test_increasing_call_price_is_violation(self):
        violations = check_digital_arbitrage([90.0, 100.0], [5.0, 6.0], "C")
        assert len(violations) == 1 and violations[0].value < 0.0

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

    def test_negative_spread_rejected_before_pricing(self, axa_params, axa_slice, monkeypatch):
        monkeypatch.setattr(nig, "price_european_batch", None)  # a pricing call would raise TypeError
        with pytest.raises(DomainError):
            generate_synthetic_quotes(axa_params, axa_slice, [33.8], spread=-0.01)

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


@st.composite
def quote_sets(draw):
    """One slice's quotes on a dyadic grid: distinct strikes per side, bids and asks free to break arbitrage."""
    quotes = []
    for kind in ("C", "P"):
        for strike in draw(st.lists(st.integers(1, 400), max_size=8, unique=True)):
            bid = draw(st.integers(0, 6400)) / 64
            ask = bid + draw(st.integers(0, 320)) / 64
            quotes.append(OptionQuote("SYN", 1.0, strike / 4, kind, bid, ask))
    return quotes


scan_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestScanArbitrageProperties:
    @scan_settings
    @given(data=st.data())
    def test_invariant_under_quote_permutation(self, data):
        quotes = data.draw(quote_sets())
        assert scan_arbitrage(data.draw(st.permutations(quotes))) == scan_arbitrage(quotes)

    @scan_settings
    @given(quotes=quote_sets(), power=st.integers(-20, 20))
    def test_equivariant_under_power_of_two_scaling(self, quotes, power):
        # Scaling strikes and prices by 2^power is exact in floating point, so
        # the digital ratios come back bit for bit and the butterfly values
        # scale exactly.
        factor = 2.0**power
        scaled = [replace(q, strike=q.strike * factor, bid=q.bid * factor, ask=q.ask * factor) for q in quotes]
        expected = [
            replace(
                v,
                strikes=tuple(k * factor for k in v.strikes),
                value=v.value * factor if isinstance(v, ButterflyViolation) else v.value,
            )
            for v in scan_arbitrage(quotes)
        ]
        assert scan_arbitrage(scaled) == expected
