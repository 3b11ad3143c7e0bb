"""Quote ingestion, parity curve stripping, and arbitrage sanity checks.

Quote CSVs carry the fixed header ``underlying,expiry_years,strike,kind,bid,ask``
with kind C or P.  Mid prices are (bid+ask)/2; quotes with zero bid are
treated as stale and excluded from parity regression and calibration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, ValidationError
from . import nig as _nig

__all__ = [
    "OptionQuote",
    "MarketSlice",
    "StrippedCurves",
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
    """Per-expiry market state: spot, stripped curves, and the quote set.

    Invariants: rate = -ln(DF)/T and forward = spot * exp((r - q) T), both
    enforced at construction to 1e-10 relative.
    """

    underlying: str
    spot: float
    expiry: float
    discount_factor: float
    forward: float
    rate: float
    dividend_yield: float
    quotes: tuple[OptionQuote, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "quotes", tuple(self.quotes))
        numbers = (self.spot, self.expiry, self.discount_factor, self.forward, self.rate, self.dividend_yield)
        if not all(math.isfinite(v) for v in numbers):
            raise ValidationError(f"slice numbers must be finite, got {numbers}")
        if self.spot <= 0 or self.forward <= 0 or self.expiry <= 0:
            raise ValidationError("spot, forward and expiry must be positive")
        if not (0.0 < self.discount_factor <= 1.0):
            raise ValidationError(f"discount factor must lie in (0,1], got {self.discount_factor}")
        r_implied = -math.log(self.discount_factor) / self.expiry
        if abs(r_implied - self.rate) > 1e-10 * max(1.0, abs(self.rate)):
            raise ValidationError("rate inconsistent with discount factor")
        fw_implied = self.spot * math.exp((self.rate - self.dividend_yield) * self.expiry)
        if abs(fw_implied - self.forward) > 1e-10 * self.forward:
            raise ValidationError("forward inconsistent with spot-forward relation")

    @classmethod
    def from_rates(
        cls,
        underlying: str,
        spot: float,
        expiry: float,
        rate: float = 0.0,
        dividend_yield: float = 0.0,
    ) -> "MarketSlice":
        df = math.exp(-rate * expiry)
        fw = spot * math.exp((rate - dividend_yield) * expiry)
        return cls(underlying, spot, expiry, df, fw, rate, dividend_yield)


@dataclass(frozen=True)
class StrippedCurves:
    discount_factor: float
    forward: float
    dividend_yield: float
    rate: float


@dataclass(frozen=True)
class DigitalViolation:
    kind: str
    strikes: tuple[float, float]
    ratio: float


@dataclass(frozen=True)
class ButterflyViolation:
    kind: str
    strikes: tuple[float, float, float]
    value: float


def load_quotes(path) -> dict[tuple[str, float], list[OptionQuote]]:
    """Read and validate a quote CSV, grouped by (underlying, expiry).

    Invalid rows are collected and raised with their line numbers; nothing is
    silently dropped.
    """
    groups: dict[tuple[str, float], list[OptionQuote]] = {}
    problems: list[str] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise ValidationError(f"expected header {','.join(CSV_HEADER)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
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


def strip_curves(quotes: Iterable[OptionQuote], spot: float, expiry: float) -> StrippedCurves:
    """Discount factor and forward from put-call parity.

    OLS of C - P on K: the slope is -DF and the intercept FW*DF; the dividend
    yield then follows from the spot-forward relation.
    """
    strikes, call_mids, put_mids = _paired_mids(quotes)
    if strikes.size < 2:
        raise ValidationError("need call/put mids at >= 2 common strikes to strip curves")
    if np.ptp(strikes) == 0.0:
        raise ValidationError("degenerate regression: all paired strikes equal")
    y = call_mids - put_mids
    design = np.column_stack([strikes, np.ones_like(strikes)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    df = -float(slope)
    if not (0.0 < df < 1.2):
        raise ValidationError(f"stripped discount factor {df} outside sanity bound (0, 1.2)")
    forward = float(intercept) / df
    rate = -math.log(df) / expiry
    dividend_yield = rate - math.log(forward / spot) / expiry
    return StrippedCurves(df, forward, dividend_yield, rate)


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
    violations = []
    for i in range(strikes.size - 1):
        dk = strikes[i + 1] - strikes[i]
        if kind == "C":
            ratio = (mids[i] - mids[i + 1]) / dk
        else:
            ratio = (mids[i + 1] - mids[i]) / dk
        if not (0.0 < ratio < 1.0):
            violations.append(
                DigitalViolation(kind, (float(strikes[i]), float(strikes[i + 1])), float(ratio))
            )
    return violations


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
    violations = []
    for i in range(strikes.size - 2):
        k1, k2, k3 = strikes[i], strikes[i + 1], strikes[i + 2]
        value = mids[i] - mids[i + 1] - (k2 - k1) / (k3 - k2) * (mids[i + 1] - mids[i + 2])
        if value < 0.0:
            violations.append(
                ButterflyViolation(kind, (float(k1), float(k2), float(k3)), float(value))
            )
    return violations


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
    spread: float | Callable[[float, float], float] = 0.0,
) -> list[OptionQuote]:
    """Model-generated call and put quotes at the given strikes.

    Mids come from one batch of the exponential-NIG pricer, so the output is arbitrage-free
    by construction; ``spread`` is a half-width, constant or per-(strike, mid).
    """
    model = _nig.ExpNIGModel(params, slice_)
    pairs = [(float(strike), kind) for strike in strikes for kind in ("C", "P")]
    mids = _nig.price_european_batch(model, [k for k, _ in pairs], [kind for _, kind in pairs])
    out = []
    for (strike, kind), mid in zip(pairs, mids.tolist()):
        half = spread(strike, mid) if callable(spread) else float(spread)
        if half < 0:
            raise DomainError("spread half-width must be nonnegative")
        out.append(
            OptionQuote(
                underlying=slice_.underlying,
                expiry=slice_.expiry,
                strike=strike,
                kind=kind,
                bid=max(mid - half, 0.0),
                ask=mid + half,
            )
        )
    return out
