"""Spans and counters recorded around calls into qamcpricer's modules.

Only a traced pass process imports this module.  ``install`` replaces each
traced function on every module attribute that holds it, so the wrapper sits
where the caller looks the name up (``qamcpricer.calibration.price_european_batch``,
``qamcpricer.experiments.cmc_price`` and so on).  Spans are kept in memory as
(id, parent, name, start, end) and turned into per-layer metrics when the
pass ends.  A layer's self time is its spans' duration minus the part their
child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# Every per-layer metric a traced pass reports; absent work reads 0.
LAYER_METRICS = {
    "market_data.load_s": "s",
    "market_data.strip_s": "s",
    "market_data.arb_scan_s": "s",
    "market_data.quotes": "count",
    "calibration.calibrate_s": "s",
    "calibration.grid_init_s": "s",
    "calibration.iterations": "count",
    "calibration.objective_evals": "count",
    "calibration.rmse_bp_max": "bp",
    "black_scholes.implied_vol_calls": "count",
    "nig.pdf_calls": "count",
    "nig.pdf_points": "count",
    "nig.price_batch_s": "s",
    "nig.support_interval_s": "s",
    "numerics.integrate_calls": "count",
    "numerics.integrate_s": "s",
    "numerics.normal_quantile_points": "count",
    "numerics.normal_quantile_s": "s",
    "cosine_density.coeffs_s": "s",
    "cosine_density.eval_pdf_points": "count",
    "cosine_density.eval_cdf_points": "count",
    "cosine_density.eval_cdf_s": "s",
    "copula.weights_calls": "count",
    "copula.weights_nodes": "count",
    "copula.weights_s": "s",
    "copula.c_max_s": "s",
    "pricing.measure_builds": "count",
    "pricing.measure_build_s": "s",
    "pricing.grid_nodes": "count",
    "pricing.riemann_s": "s",
    "pricing.cmc_s": "s",
    "pricing.cmc_samples": "count",
    "qamc.price_s": "s",
    "qamc.iqae_s": "s",
    "qamc.iqae_calls": "count",
    "qamc.oracle_queries": "count",
    "qamc.rounds": "count",
    "qamc.max_depth": "count",
    "qamc.capped": "count",
    "experiments.self_s": "s",
    "cli.self_s": "s",
}

# metric -> span whose outermost occurrences give the metric's inclusive time.
_SPAN_TIMES = {
    "market_data.load_s": "market_data.load_quotes",
    "market_data.strip_s": "market_data.strip_curves",
    "market_data.arb_scan_s": "market_data.scan_arbitrage",
    "calibration.calibrate_s": "calibration.calibrate",
    "calibration.grid_init_s": "calibration.grid_init",
    "nig.price_batch_s": "nig.price_european_batch",
    "nig.support_interval_s": "nig.support_interval",
    "numerics.integrate_s": "numerics.integrate",
    "numerics.normal_quantile_s": "numerics.std_normal_quantile",
    "cosine_density.coeffs_s": "cosine_density.coeffs_classical",
    "cosine_density.eval_cdf_s": "cosine_density.eval_cdf",
    "copula.weights_s": "copula.copula_weights_on_grid",
    "copula.c_max_s": "copula.grid_c_max",
    "pricing.measure_build_s": "pricing.GridMeasure.build",
    "pricing.riemann_s": "pricing.riemann_reference",
    "pricing.cmc_s": "pricing.cmc_price",
    "qamc.price_s": "qamc.qamc_price",
    "qamc.iqae_s": "qamc.iqae_estimate",
}

# metric -> span whose count is the metric.
_SPAN_CALLS = {
    "numerics.integrate_calls": "numerics.integrate",
    "copula.weights_calls": "copula.copula_weights_on_grid",
    "pricing.measure_builds": "pricing.GridMeasure.build",
    "qamc.iqae_calls": "qamc.iqae_estimate",
}

# metric -> layer prefix whose spans' self times are summed.
_SELF_TIMES = {"experiments.self_s": "experiments.", "cli.self_s": "cli."}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.slices: list[dict] = []  # per-calibrate-call counter deltas
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def timed(self, name: str, fn, after=None):
        """Wrapper recording one span per call, then ``after(args, kwargs, result)``."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__perfbench__ = name
        return wrapper

    def counted(self, fn, calls: str | None = None, points: str | None = None, arg: int = 0):
        """Span-free wrapper for hot functions: a call count under ``calls``, and
        the size of positional argument ``arg`` added to ``points``."""

        def wrapper(*args, **kwargs):
            if calls is not None:
                self.counts[calls] += 1
            if points is not None:
                self.counts[points] += _size(args[arg])
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__perfbench__ = calls or points
        return wrapper

    # -- aggregation ---------------------------------------------------

    def _durations(self):
        children = Counter()
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        return children

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self seconds per span name, over the subtree of ``root`` (all spans if None)."""
        inside = None
        if root is not None:
            inside = {root}
            for sid, parent, *_ in self.spans[root + 1:]:
                if parent in inside:
                    inside.add(sid)
        children = self._durations()
        out: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            if inside is None or sid in inside:
                out[name] += (end - start) - children[sid]
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Seconds per span name, counting only outermost spans of each name."""
        names = {s[0]: s[2] for s in self.spans}
        parents = {s[0]: s[1] for s in self.spans}
        out: Counter = Counter()
        for sid, parent, name, start, end in self.spans:
            nested = False
            while parent is not None:
                if names[parent] == name:
                    nested = True
                    break
                parent = parents[parent]
            if not nested:
                out[name] += end - start
        return dict(out)

    def metrics(self) -> dict[str, float]:
        inclusive = self.inclusive_times()
        selfs = self.self_times()
        values = {name: 0 for name in LAYER_METRICS}
        for metric, span_name in _SPAN_TIMES.items():
            values[metric] = inclusive.get(span_name, 0.0)
        for metric, span_name in _SPAN_CALLS.items():
            values[metric] = sum(1 for s in self.spans if s[2] == span_name)
        for metric, prefix in _SELF_TIMES.items():
            values[metric] = sum(t for n, t in selfs.items() if n.startswith(prefix))
        for key, value in self.counts.items():
            if key in values:
                values[key] = value
        for key, value in self.maxima.items():
            values[key] = value
        return values


def _replace_everywhere(original, wrapper) -> int:
    """Point every qamcpricer module attribute holding ``original`` at ``wrapper``."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if name != "qamcpricer" and not name.startswith("qamcpricer."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the traced entry points of every qamcpricer layer."""
    from qamcpricer import (
        black_scholes,
        calibration,
        cli,
        copula,
        cosine_density,
        experiments,
        market_data,
        nig,
        numerics,
        pricing,
        qamc,
    )

    count = tracer.counts

    def after_load(args, kwargs, groups):
        count["market_data.quotes"] += sum(len(q) for q in groups.values())

    def after_iqae(args, kwargs, result):
        count["qamc.oracle_queries"] += result.oracle_queries
        count["qamc.rounds"] += len(result.rounds)
        count["qamc.capped"] += int(result.capped)
        tracer.peak("qamc.max_depth", max((k for k, _ in result.rounds), default=0))

    def after_weights(args, kwargs, weights):
        count["copula.weights_nodes"] += _size(weights)

    def after_build(args, kwargs, measure):
        count["pricing.grid_nodes"] += measure.grid.total_nodes

    def after_cmc(args, kwargs, estimate):
        count["pricing.cmc_samples"] += estimate.samples_or_queries

    def quantile_points(args, kwargs, result):
        count["numerics.normal_quantile_points"] += _size(args[0])

    def eval_cdf_points(args, kwargs, result):
        count["cosine_density.eval_cdf_points"] += _size(args[1])

    timed = [
        (market_data.load_quotes, "market_data.load_quotes", after_load),
        (market_data.strip_curves, "market_data.strip_curves", None),
        (market_data.scan_arbitrage, "market_data.scan_arbitrage", None),
        (calibration.grid_init, "calibration.grid_init", None),
        (nig.price_european_batch, "nig.price_european_batch", None),
        (nig.support_interval, "nig.support_interval", None),
        (numerics.integrate, "numerics.integrate", None),
        (numerics.std_normal_quantile, "numerics.std_normal_quantile", quantile_points),
        (cosine_density.coeffs_classical, "cosine_density.coeffs_classical", None),
        (cosine_density.eval_cdf, "cosine_density.eval_cdf", eval_cdf_points),
        (copula.copula_weights_on_grid, "copula.copula_weights_on_grid", after_weights),
        (copula.grid_c_max, "copula.grid_c_max", None),
        (pricing.riemann_reference, "pricing.riemann_reference", None),
        (pricing.cmc_price, "pricing.cmc_price", after_cmc),
        (qamc.qamc_price, "qamc.qamc_price", None),
        (qamc.iqae_estimate, "qamc.iqae_estimate", after_iqae),
        (experiments.fixture_marginal, "experiments.fixture_marginal", None),
        (experiments.study_price_convergence, "experiments.study_price_convergence", None),
        (cli.main, "cli.main", None),
    ]
    for fn, name, after in timed:
        if not _replace_everywhere(fn, tracer.timed(name, fn, after)):
            raise RuntimeError(f"traced function {name} is not reachable")

    # calibrate: one span per slice plus the counter deltas that slice caused.
    calibrate = calibration.calibrate

    def traced_calibrate(slice_, *args, **kwargs):
        before = Counter(count)
        first_span = len(tracer.spans)
        with tracer.span("calibration.calibrate"):
            result = calibrate(slice_, *args, **kwargs)
        count["calibration.iterations"] += result.iterations
        tracer.peak("calibration.rmse_bp_max", result.rmse_bp)
        delta = count - before
        tracer.slices.append(
            {
                "underlying": slice_.underlying,
                "quotes": len(slice_.quotes),
                "iterations": result.iterations,
                "pricing_batches": delta["calibration.objective_evals"],
                "nig_pdf_calls": delta["nig.pdf_calls"],
                "integrate_calls": sum(1 for sp in tracer.spans[first_span:] if sp[2] == "numerics.integrate"),
                "implied_vol_calls": delta["black_scholes.implied_vol_calls"],
            }
        )
        return result

    traced_calibrate.__wrapped__ = calibrate
    traced_calibrate.__perfbench__ = "calibration.calibrate"
    _replace_everywhere(calibrate, traced_calibrate)

    # The calibration objective prices one batch per evaluation.
    calibration.price_european_batch = tracer.counted(
        calibration.price_european_batch, calls="calibration.objective_evals"
    )
    for fn, calls, points, arg in (
        (nig.nig_pdf, "nig.pdf_calls", "nig.pdf_points", 0),
        (black_scholes.implied_vol, "black_scholes.implied_vol_calls", None, 0),
        (cosine_density.eval_pdf, None, "cosine_density.eval_pdf_points", 1),
    ):
        _replace_everywhere(fn, tracer.counted(fn, calls, points, arg))

    build = pricing.GridMeasure.__dict__["build"].__func__
    pricing.GridMeasure.build = classmethod(tracer.timed("pricing.GridMeasure.build", build, after_build))
