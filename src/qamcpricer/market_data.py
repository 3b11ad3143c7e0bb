"""Quote ingestion, parity curve stripping, and arbitrage sanity checks.

Quote CSVs carry the fixed header ``underlying,expiry_years,strike,kind,bid,ask``
with kind C or P.  Mid prices are (bid+ask)/2; quotes with zero bid are
treated as stale and excluded from parity regression and calibration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ValidationError
from . import nig as _nig

__all__ = [
    "OptionQuote",
    "MarketSlice",
    "DigitalViolation",
    "ButterflyViolation",
    "load_quotes",
    "save_quotes",
    "strip_curves",
    "check_digital_arbitrage",
    "check_butterfly_arbitrage",
    "drop_violating_quotes",
    "generate_synthetic_quotes",
]

CSV_HEADER = ["underlying", "expiry_years", "strike", "kind", "bid", "ask"]

# Sanity bound on a discount factor.  Above 1 is a negative rate, and the
# parity regression on zero-rate quotes can land a rounding error above 1.
_DF_BOUND = 1.2


@dataclass(frozen=True)
class OptionQuote:
    underlying: str
    expiry: float
    strike: float
    kind: str  # "C" or "P"
    bid: float
    ask: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.expiry, self.strike, self.bid, self.ask)):
            raise ValidationError(f"expiry, strike, bid and ask must be finite, got {self}")
        if self.expiry <= 0:
            raise ValidationError(f"expiry must be positive, got {self.expiry}")
        if self.strike <= 0:
            raise ValidationError(f"strike must be positive, got {self.strike}")
        if self.kind not in ("C", "P"):
            raise ValidationError(f"kind must be C or P, got {self.kind!r}")
        if self.bid < 0 or self.ask < self.bid:
            raise ValidationError(f"need ask >= bid >= 0, got bid={self.bid}, ask={self.ask}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)

    @property
    def spread(self) -> float:
        return self.ask - self.bid


@dataclass(frozen=True)
class MarketSlice:
    """Per-expiry market state of one underlying: spot, rates, and the quote set.

    The rate r and dividend yield q are stored; the discount factor
    exp(-r T) and the forward S exp((r - q) T) are derived from them, so
    the slice cannot disagree with itself.  Invariants, enforced at
    construction: every number finite, spot and expiry positive,
    0 < DF < 1.2 (negative rates allowed), a finite forward, and every
    quote of this slice's underlying and expiry.
    """

    underlying: str
    spot: float
    expiry: float
    rate: float = 0.0
    dividend_yield: float = 0.0
    quotes: tuple[OptionQuote, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "quotes", tuple(self.quotes))
        numbers = (self.spot, self.expiry, self.rate, self.dividend_yield)
        if not (all(math.isfinite(v) for v in numbers) and self.spot > 0 and self.expiry > 0):
            raise ValidationError(f"slice numbers must be finite, spot and expiry positive, got {numbers}")
        try:
            df, forward = self.discount_factor, self.forward
        except OverflowError:
            df = forward = math.inf
        if not (0.0 < df < _DF_BOUND and 0.0 < forward < math.inf):
            raise ValidationError(f"need 0 < DF < {_DF_BOUND} and a finite positive forward, got {df}, {forward}")
        foreign = [q for q in self.quotes if (q.underlying, q.expiry) != (self.underlying, self.expiry)]
        if foreign:
            raise ValidationError(f"a {self.underlying} slice at expiry {self.expiry} cannot hold {foreign[0]}")

    @property
    def discount_factor(self) -> float:
        return math.exp(-self.rate * self.expiry)

    @property
    def forward(self) -> float:
        return self.spot * math.exp((self.rate - self.dividend_yield) * self.expiry)


@dataclass(frozen=True)
class DigitalViolation:
    kind: str
    strikes: tuple[float, float]
    value: float


@dataclass(frozen=True)
class ButterflyViolation:
    kind: str
    strikes: tuple[float, float, float]
    value: float


def load_quotes(path) -> dict[tuple[str, float], list[OptionQuote]]:
    """Read and validate a quote CSV, grouped by (underlying, expiry).

    Invalid rows and rows that repeat an earlier (underlying, expiry, strike,
    kind) are collected and raised with their line numbers; nothing is
    silently dropped.  A file that cannot be opened, decoded or parsed as
    CSV is a ValidationError too.
    """
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read quotes {path}: {exc}") from exc
    header = rows[0] if rows else None
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise ValidationError(f"expected header {','.join(CSV_HEADER)}, got {header}")
    groups: dict[tuple[str, float], list[OptionQuote]] = {}
    first_lines: dict[tuple[str, float, float, str], int] = {}
    problems: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_HEADER):
            problems.append(f"line {lineno}: expected {len(CSV_HEADER)} columns, got {len(row)}")
            continue
        try:
            quote = OptionQuote(
                underlying=row[0].strip(),
                expiry=float(row[1]),
                strike=float(row[2]),
                kind=row[3].strip(),
                bid=float(row[4]),
                ask=float(row[5]),
            )
        except (ValueError, ValidationError) as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        key = (quote.underlying, quote.expiry, quote.strike, quote.kind)
        if key in first_lines:
            problems.append(f"line {lineno}: repeats the quote {key} of line {first_lines[key]}")
            continue
        first_lines[key] = lineno
        groups.setdefault((quote.underlying, quote.expiry), []).append(quote)
    if problems:
        raise ValidationError("invalid quote rows:\n" + "\n".join(problems))
    return groups


def save_quotes(path, quotes: Iterable[OptionQuote]) -> None:
    """Write quotes in the canonical CSV schema (floats via repr: lossless)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for q in quotes:
            writer.writerow(
                [q.underlying, repr(float(q.expiry)), repr(float(q.strike)), q.kind,
                 repr(float(q.bid)), repr(float(q.ask))]
            )


def _paired_mids(quotes: Iterable[OptionQuote]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strikes where both a call and a put mid exist (zero-bid quotes excluded)."""
    calls: dict[float, float] = {}
    puts: dict[float, float] = {}
    for q in quotes:
        if q.bid <= 0.0:
            continue
        (calls if q.kind == "C" else puts)[q.strike] = q.mid
    strikes = sorted(set(calls) & set(puts))
    return (
        np.array(strikes),
        np.array([calls[k] for k in strikes]),
        np.array([puts[k] for k in strikes]),
    )


def strip_curves(quotes: Iterable[OptionQuote], spot: float) -> MarketSlice:
    """The slice of one underlying's quotes at one expiry, its rates from put-call parity.

    OLS of C - P on K: the slope is -DF and the intercept FW*DF.  The rate is
    -ln(DF)/T and the dividend yield follows from the spot-forward relation;
    the underlying and expiry are the quotes' own, and the slice rejects
    quotes of any other.  The spot must be finite and positive, and the
    stripped forward positive.
    """
    if not (math.isfinite(spot) and spot > 0):
        raise ValidationError(f"spot must be finite and positive, got {spot}")
    quotes = tuple(quotes)
    strikes, call_mids, put_mids = _paired_mids(quotes)
    if strikes.size < 2:
        raise ValidationError("need call/put mids at >= 2 common strikes to strip curves")
    if np.ptp(strikes) == 0.0:
        raise ValidationError("degenerate regression: all paired strikes equal")
    y = call_mids - put_mids
    design = np.column_stack([strikes, np.ones_like(strikes)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    df = -float(slope)
    if not (0.0 < df < _DF_BOUND):
        raise ValidationError(f"stripped discount factor {df} outside sanity bound (0, {_DF_BOUND})")
    forward = float(intercept) / df
    if not forward > 0.0:
        raise ValidationError(f"stripped forward {forward} is not positive")
    underlying, expiry = quotes[0].underlying, quotes[0].expiry
    rate = -math.log(df) / expiry
    dividend_yield = rate - math.log(forward / spot) / expiry
    return MarketSlice(underlying, spot, expiry, rate, dividend_yield, quotes)


def _require_increasing(strikes: np.ndarray) -> None:
    if strikes.size >= 2 and not np.all(np.diff(strikes) > 0):
        raise DomainError("strikes must be strictly increasing")


def check_digital_arbitrage(strikes, mids, kind: str) -> list[DigitalViolation]:
    """Implied digital prices from adjacent strikes must lie strictly in (0, 1).

    For calls the digital is (V(K1) - V(K2)) / (K2 - K1); for puts it is
    (V(K2) - V(K1)) / (K2 - K1).
    """
    strikes = np.asarray(strikes, dtype=float)
    mids = np.asarray(mids, dtype=float)
    _require_increasing(strikes)
    drops = mids[:-1] - mids[1:] if kind == "C" else mids[1:] - mids[:-1]
    ratios = drops / (strikes[1:] - strikes[:-1])
    return [
        DigitalViolation(kind, (float(strikes[i]), float(strikes[i + 1])), float(ratio))
        for i, ratio in enumerate(ratios)
        if not (0.0 < ratio < 1.0)
    ]


def check_butterfly_arbitrage(strikes, mids, kind: str) -> list[ButterflyViolation]:
    """Convexity in strike on every adjacent triple.

    Flags triples where V(K1) - V(K2) - (K2-K1)/(K3-K2) (V(K2) - V(K3)) < 0
    (identical form for calls and puts).
    """
    strikes = np.asarray(strikes, dtype=float)
    mids = np.asarray(mids, dtype=float)
    _require_increasing(strikes)
    if strikes.size < 3:
        raise DomainError("butterfly check needs >= 3 strikes")
    k1, k2, k3 = strikes[:-2], strikes[1:-1], strikes[2:]
    values = mids[:-2] - mids[1:-1] - (k2 - k1) / (k3 - k2) * (mids[1:-1] - mids[2:])
    return [
        ButterflyViolation(kind, (float(k1[i]), float(k2[i]), float(k3[i])), float(value))
        for i, value in enumerate(values)
        if value < 0.0
    ]


def _sorted_kind(quotes: list[OptionQuote], kind: str) -> tuple[np.ndarray, np.ndarray, list[OptionQuote]]:
    sub = sorted((q for q in quotes if q.kind == kind), key=lambda q: q.strike)
    return np.array([q.strike for q in sub]), np.array([q.mid for q in sub]), sub


def scan_arbitrage(quotes: list[OptionQuote]) -> list[DigitalViolation | ButterflyViolation]:
    """Run both checks on the call and put sides of one slice."""
    found: list[DigitalViolation | ButterflyViolation] = []
    for kind in ("C", "P"):
        strikes, mids, _ = _sorted_kind(quotes, kind)
        if strikes.size >= 2:
            found.extend(check_digital_arbitrage(strikes, mids, kind))
        if strikes.size >= 3:
            found.extend(check_butterfly_arbitrage(strikes, mids, kind))
    return found


def drop_violating_quotes(quotes: list[OptionQuote]) -> list[OptionQuote]:
    """Iteratively remove the smaller-mid (far-tail) quote of each violation.

    Mirrors the pre-calibration cleanup: offending digital/butterfly tuples
    lose their lowest-mid member until both checks pass.
    """
    current = list(quotes)
    for _ in range(100):
        found = scan_arbitrage(current)
        if not found:
            return current
        worst = found[0]
        strikes, _, sub = _sorted_kind(current, worst.kind)
        members = [q for q in sub if q.strike in worst.strikes]
        victim = min(members, key=lambda q: q.mid)
        current = [q for q in current if q is not victim]
    raise ValidationError("arbitrage cleanup did not finish within 100 removals")


def generate_synthetic_quotes(
    params: _nig.NIGParams,
    slice_: MarketSlice,
    strikes: Iterable[float],
    spread: float,
) -> list[OptionQuote]:
    """Model-generated call and put quotes at the given strikes.

    Mids come from one batch of the exponential-NIG pricer, so the output is arbitrage-free
    by construction; ``spread`` is the nonnegative half-width of every quote.
    """
    half = float(spread)
    if half < 0:
        raise DomainError("spread half-width must be nonnegative")
    model = _nig.ExpNIGModel(params, slice_)
    pairs = [(float(strike), kind) for strike in strikes for kind in ("C", "P")]
    mids = _nig.price_european_batch(model, [k for k, _ in pairs], [kind for _, kind in pairs])
    return [
        OptionQuote(slice_.underlying, slice_.expiry, strike, kind, max(mid - half, 0.0), mid + half)
        for (strike, kind), mid in zip(pairs, mids.tolist())
    ]
