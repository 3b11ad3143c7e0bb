"""Study harness: convergence comparisons of CMC vs amplitude estimation.

Three studies, each returning its tables as records or dict rows,
reproducible bit-for-bit from (config, seed); the command line writes them
as CSV:

* coeffs            - per-coefficient and average error of cosine-coefficient
                      estimation against the classical Riemann-grid truth.
* density-recovery  - sup-norm pdf/CDF errors at matched per-coefficient cost
                      for increasing truncation orders.
* price-convergence - spread and basket option error against the pinned
                      Riemann reference for CMC and both QAMC formulations;
                      the two setups run in two processes when two CPUs are
                      usable, with outputs identical to a serial run.

Bundled fixture parameters are the calibrated 1-year NIG sets for three
liquid Euronext names (spots at the data date); a flat 2% rate stands in for
the proprietary discount/forward curves.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial

import numpy as np

from .copula import CopulaSpec
from .cosine_density import CosineSeries, Interval, basis_matrix, eval_cdf, eval_pdf
from .errors import ValidationError
from .market_data import MarketSlice
from .nig import NIGParams, nig_cdf, nig_pdf, support_interval
from .pricing import (
    AssetMarginal, GridMeasure, Payoff, PricingGrid, cmc_price, count_grid_cells, midpoint_cells,
    normalize_cell_masses,
)
from .qamc import AEConfig, qamc_price, signed_ae_estimate

__all__ = [
    "FIXTURES",
    "StudyConfig",
    "ConvergenceRecord",
    "fixture_slice",
    "fixture_marginal",
    "spread_setup",
    "basket_setup",
    "study_coeffs",
    "study_density_recovery",
    "study_price_convergence",
    "fit_loglog_slope",
    "cost_at_error",
]

# Calibrated 1Y NIG parameters and spots for the bundled reference names.
FIXTURES: dict[str, tuple[NIGParams, float]] = {
    "AXA": (NIGParams(5.24, -3.26, 0.18), 33.8),
    "CREDIT_AGRICOLE": (NIGParams(4.69, -3.06, 0.18), 12.91),
    "MICHELIN": (NIGParams(6.2, -3.31, 0.26), 31.76),
}

FIXTURE_RATE = 0.02
SPREAD_CORRELATION = [[1.0, -0.25], [-0.25, 1.0]]
BASKET_CORRELATION = [[1.0, -0.2, -0.25], [-0.2, 1.0, -0.15], [-0.25, -0.15, 1.0]]
BASKET_STRIKE = 25.0
MARGINAL_TERMS = 128
MARGINAL_TAIL_EPS = 1e-5
STUDY_ASSET = "AXA"  # the exact density the coefficient and density studies estimate

# Fixed seed tags per pricing setup (string hash is process-randomized).
_SETUP_TAG = {"spread": 1, "basket": 2}


def _sample_tag(samples: int) -> int:
    """The seed tag of a sample-ladder entry."""
    return int(math.log2(samples))


def _epsilon_tag(eps: float) -> int:
    """The seed tag of an epsilon-ladder entry."""
    return int(1.0 / eps)


@dataclass(frozen=True)
class StudyConfig:
    study: str = "coeffs"
    repetitions: int = 32
    epsilon_ladder: tuple[float, ...] = (2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4)
    sample_ladder: tuple[int, ...] = (2**8, 2**10, 2**12, 2**14, 2**16, 2**18)
    seed: int = 0
    qubits: int = 5
    terms: int = 16
    matched_cost: int = 5000
    recovery_terms: tuple[int, ...] = (8, 16, 32)
    rho: float = 0.05

    def __post_init__(self):
        if self.study not in ("coeffs", "density-recovery", "price-convergence"):
            raise ValidationError(f"unknown study {self.study!r}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if not (len(self.epsilon_ladder) and len(self.sample_ladder)):
            raise ValidationError("ladders must be non-empty")
        if not all(0.0 < eps < 1.0 and math.isfinite(1.0 / eps) for eps in self.epsilon_ladder):
            raise ValidationError(f"epsilons must lie in (0, 1) with a finite 1 / epsilon, got {self.epsilon_ladder}")
        if min(self.sample_ladder) < 1:
            raise ValidationError(f"sample counts must be >= 1, got {self.sample_ladder}")
        if self.terms < 2:
            raise ValidationError("terms must be >= 2: the coefficient study estimates k = 1 .. terms - 1")
        if min(self.recovery_terms, default=1) < 1:
            raise ValidationError(f"recovery orders must be >= 1, got {self.recovery_terms}")
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"rho must lie in (0, 1), got {self.rho}")
        if self.qubits < 1:
            raise ValidationError(f"a study needs at least one qubit per dimension, got {self.qubits}")
        if self.matched_cost < 1:
            raise ValidationError(f"matched_cost must be >= 1, got {self.matched_cost}")
        # Each entry seeds its own generators through its tag, a recovery order
        # being its own.  Rising tags mean epsilons strictly decreasing, sample
        # counts and orders strictly increasing, and no two entries sharing generators.
        for ladder, tag in ((self.epsilon_ladder, _epsilon_tag), (self.sample_ladder, _sample_tag),
                            (self.recovery_terms, int)):
            tags = [tag(level) for level in ladder]
            if any(a >= b for a, b in zip(tags, tags[1:])):
                raise ValidationError(f"ladder {ladder} must be strictly monotone with rising seed tags, got {tags}")


@dataclass(frozen=True)
class ConvergenceRecord:
    method: str
    cost: float
    mean_abs_err: float
    ci90_lo: float
    ci90_hi: float

    def __post_init__(self):
        # The mean need not lie inside the 5-95 band: a few large errors can lift it above.
        numbers = (self.cost, self.mean_abs_err, self.ci90_lo, self.ci90_hi)
        if not (all(math.isfinite(v) for v in numbers) and 0.0 <= self.ci90_lo <= self.ci90_hi
                and self.mean_abs_err >= 0.0):
            raise ValidationError(f"need finite numbers, 0 <= ci90_lo <= ci90_hi and mean_abs_err >= 0, got {numbers}")


def fixture_slice(name: str) -> MarketSlice:
    return MarketSlice(name, FIXTURES[name][1], 1.0, FIXTURE_RATE)


def fixture_marginal(name: str) -> AssetMarginal:
    """Cosine-series marginal (classical coefficients) on the tight support."""
    params, _ = FIXTURES[name]
    return AssetMarginal.fit(params, fixture_slice(name), MARGINAL_TERMS, MARGINAL_TAIL_EPS)


def spread_setup():
    """1Y spread call on AXA vs Michelin at zero strike, rho = -0.25, 2^3 nodes/dim."""
    marginals = [fixture_marginal("AXA"), fixture_marginal("MICHELIN")]
    spec = CopulaSpec.from_matrix(SPREAD_CORRELATION)
    grid = PricingGrid.build(marginals, 3)
    return Payoff("spread-call", 0.0), marginals, spec, grid


def basket_setup():
    """1Y arithmetic basket call at K=25 on the three names, 2^2 nodes/dim."""
    marginals = [fixture_marginal(name) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
    spec = CopulaSpec.from_matrix(BASKET_CORRELATION)
    grid = PricingGrid.build(marginals, 2)
    return Payoff("basket-call", BASKET_STRIKE), marginals, spec, grid


_PRICE_SETUPS = {"spread": spread_setup, "basket": basket_setup}


def _order_stats(values) -> tuple[float, float, float]:
    """The median and the 5th and 95th percentiles, bit for bit as np.median and np.percentile give them.

    One sort serves all three (np.median and np.percentile load numpy.ma on
    their first call).  The median is (a + b) / 2 of the middle pair as
    numpy averages it, and (a + a) / 2 = a for odd sizes; the percentiles
    interpolate at the virtual index (n - 1) q / 100 as numpy's default
    (linear) method does.  Bit equality needs values without -0.0, which
    numpy may order either side of 0.0 (the studies pass absolute errors).
    """
    ordered = np.sort(np.ravel(values))
    last = ordered.size - 1
    median = (float(ordered[last // 2]) + float(ordered[ordered.size // 2])) / 2
    bounds = []
    for q in (5, 95):
        virtual = last * (q / 100)
        lo = math.floor(virtual)
        t = virtual - lo
        below, above = float(ordered[lo]), float(ordered[min(lo + 1, last)])
        step = above - below
        bounds.append(above - step * (1 - t) if t >= 0.5 else below + step * t)
    return median, bounds[0], bounds[1]


def _percentile_record(method: str, cost: float, errors: np.ndarray) -> ConvergenceRecord:
    _, ci90_lo, ci90_hi = _order_stats(errors)
    return ConvergenceRecord(
        method=method,
        cost=float(cost),
        mean_abs_err=float(np.mean(errors)),
        ci90_lo=ci90_lo,
        ci90_hi=ci90_hi,
    )


def _coeff_grid(qubits: int, tail_eps: float):
    """The 2^qubits midpoint cells of STUDY_ASSET's support and the exact density's cell masses."""
    params, _ = FIXTURES[STUDY_ASSET]
    expiry = fixture_slice(STUDY_ASSET).expiry
    a, b = support_interval(params, expiry, tail_eps)
    nodes, dx = midpoint_cells(a, b, qubits)
    masses, _ = normalize_cell_masses(nig_pdf(nodes, params, expiry) * dx)
    return Interval(a, b), nodes, masses


def _cmc_coefficients(
    table: np.ndarray, masses: np.ndarray, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """All coefficients from one shared classical sample of grid nodes."""
    cells, drawn = count_grid_cells(masses, samples, rng)
    counts = np.zeros(masses.size, dtype=drawn.dtype)
    counts[cells] = drawn
    return (table @ counts) / samples


def study_coeffs(cfg: StudyConfig):
    """Error-vs-cost tables for cosine-coefficient estimation (CMC vs QAMC).

    Returns (records, per_k, run_log): aggregate ConvergenceRecords (error
    averaged over coefficients k >= 1), a per-(method, cost, k) mean-error
    table, and the amplitude-estimation run log, one row per (epsilon, k) of
    the first repetition in the columns algo, target, epsilon, rho, estimate,
    abs_err, queries and seed.
    """
    iv, nodes, masses = _coeff_grid(cfg.qubits, MARGINAL_TAIL_EPS)
    table = basis_matrix(iv, cfg.terms, nodes)
    truth = table @ masses
    scale = math.sqrt(2.0 / iv.width)
    ks = np.arange(1, cfg.terms)

    records: list[ConvergenceRecord] = []
    per_k: list[dict] = []
    run_log: list[dict] = []

    for samples in cfg.sample_ladder:
        errs = np.empty((cfg.repetitions, ks.size))
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng([cfg.seed, 101, _sample_tag(samples), rep])
            est = _cmc_coefficients(table, masses, samples, rng)
            errs[rep] = np.abs(est[1:] - truth[1:])
        records.append(_percentile_record("cmc", samples, errs.mean(axis=1)))
        per_k.extend(
            {"method": "cmc", "level": samples, "cost": samples, "k": int(k), "mean_abs_err": float(errs[:, j].mean())}
            for j, k in enumerate(ks)
        )

    for eps in cfg.epsilon_ladder:
        errs = np.empty((cfg.repetitions, ks.size))
        costs = np.empty((cfg.repetitions, ks.size))
        for rep in range(cfg.repetitions):
            for j, k in enumerate(ks):
                rng = np.random.default_rng([cfg.seed, 202, _epsilon_tag(eps), rep, int(k)])
                ae_cfg = AEConfig(epsilon=eps, rho=cfg.rho)
                res = signed_ae_estimate(truth[k], ae_cfg, scale, rng)
                errs[rep, j] = abs(res.estimate - truth[k])
                costs[rep, j] = res.oracle_queries
                if rep == 0:
                    target = float(truth[k])
                    run_log.append(
                        {"algo": "signed-iqae", "target": target, "epsilon": eps, "rho": cfg.rho,
                         "estimate": res.estimate, "abs_err": abs(res.estimate - target),
                         "queries": res.oracle_queries, "seed": cfg.seed}
                    )
        records.append(_percentile_record("qamc", float(costs.mean()), errs.mean(axis=1)))
        per_k.extend(
            {"method": "qamc", "level": eps, "cost": float(costs[:, j].mean()), "k": int(k),
             "mean_abs_err": float(errs[:, j].mean())}
            for j, k in enumerate(ks)
        )
    return records, per_k, run_log


def study_density_recovery(cfg: StudyConfig):
    """Sup-norm pdf/CDF recovery errors at matched cost across truncation orders.

    Uses a tighter support (tail mass 1e-3) than the pricing marginals: at
    the matched cost (~5000) the comparison is about estimation noise, so the
    truncation error of the largest order must sit below the noise floor.
    """
    params, _ = FIXTURES[STUDY_ASSET]
    iv, nodes, masses = _coeff_grid(cfg.qubits, 1e-3)
    xs = np.linspace(iv.a, iv.b - 1e-9, 800)
    pdf_true = nig_pdf(xs, params, 1.0)
    cdf_true = nig_cdf(xs, params, 1.0)
    scale = math.sqrt(2.0 / iv.width)
    budgeted = AEConfig(epsilon=1e-7, rho=cfg.rho, max_queries=cfg.matched_cost)

    rows: list[dict] = []
    for terms in cfg.recovery_terms:
        table = basis_matrix(iv, terms, nodes)
        truth = table @ masses
        for method in ("cmc", "qamc"):
            sup_pdf = np.empty(cfg.repetitions)
            sup_cdf = np.empty(cfg.repetitions)
            for rep in range(cfg.repetitions):
                rng = np.random.default_rng([cfg.seed, 303, terms, rep, 0 if method == "cmc" else 1])
                if method == "cmc":
                    coeffs = _cmc_coefficients(table, masses, cfg.matched_cost, rng)
                else:
                    coeffs = np.empty(terms)
                    coeffs[0] = truth[0]
                    for k in range(1, terms):
                        coeffs[k] = signed_ae_estimate(truth[k], budgeted, scale, rng).estimate
                series = CosineSeries(iv, coeffs)
                sup_pdf[rep] = np.max(np.abs(eval_pdf(series, xs) - pdf_true))
                sup_cdf[rep] = np.max(np.abs(eval_cdf(series, xs) - cdf_true))
            row = {"method": method, "terms": terms, "cost": cfg.matched_cost}
            for name, sup in (("pdf", sup_pdf), ("cdf", sup_cdf)):
                median, lo, hi = _order_stats(sup)
                row.update({f"sup_{name}_err_mean": float(sup.mean()), f"sup_{name}_err_median": median,
                            f"sup_{name}_ci90_lo": lo, f"sup_{name}_ci90_hi": hi})
            rows.append(row)
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot say or cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_join(tasks: list) -> list:
    """Each zero-argument task's result, in task order, the tasks run side by side.

    Tasks run in waves of one per usable CPU: the first of a wave in this
    process, each other in a forked child, so a task may be a closure and
    finds every module already imported.  With one usable CPU every task
    runs here in turn.  A child sends its pickled result, or its pickled
    exception, down a pipe and leaves through ``os._exit``; the exception
    is raised here with its type and message.  A child that sends nothing
    is an error naming its exit status.  Every child is reaped on every
    path, and one whose result is no longer wanted is killed first.

    Tasks must share no state that they change: a child's changes stay in
    the child.  Python 3.12+ warns (DeprecationWarning) on each fork of a
    process with more than one thread, and numpy's OpenBLAS holds such
    threads once imported.  The warning is emitted in this process once
    the child exists; no filter is set here, so the caller's filters decide
    whether it shows.  OpenBLAS stops its threads around a fork and starts
    them again on use, so a child waits on no thread it did not inherit.
    """
    width = _usable_cpus()
    results = []
    for start in range(0, len(tasks), width):
        first, *rest = tasks[start:start + width]
        children = []  # (pid, read end of its pipe), in task order
        try:
            for task in rest:
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:  # the child: never returns into the caller's stack
                    status = 1
                    try:
                        os.close(read_fd)
                        try:
                            outcome = (True, task())
                        except Exception as exc:
                            outcome = (False, exc)
                        with os.fdopen(write_fd, "wb") as pipe:
                            pipe.write(pickle.dumps(outcome))
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_fd)
                children.append((pid, os.fdopen(read_fd, "rb")))
            results.append(first())
            while children:
                pid, pipe = children[0]
                with pipe:
                    payload = pipe.read()  # to EOF: the child has written all it will
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if status != 0 or not payload:
                    raise RuntimeError(f"worker process {pid} ended with exit status {status} and sent no result")
                ok, value = pickle.loads(payload)
                if not ok:
                    raise value
                results.append(value)
        finally:
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _price_setup(cfg: StudyConfig, name: str) -> dict:
    """One setup's {"reference": value, "records": [...]}: it builds its own measure and seeds its own generators."""
    payoff, marginals, spec, grid = _PRICE_SETUPS[name]()
    measure = GridMeasure.build(payoff, marginals, spec, grid)
    reference = measure.reference_value()
    records: list[ConvergenceRecord] = []

    for samples in cfg.sample_ladder:
        errs = np.empty(cfg.repetitions)
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng([cfg.seed, 404, _SETUP_TAG[name], _sample_tag(samples), rep])
            est = cmc_price(payoff, marginals, spec, "joint", samples, rng, measure=measure)
            errs[rep] = abs(est.value - reference)
        records.append(_percentile_record("cmc", samples, errs))

    for formulation in ("joint", "independent"):
        for eps in cfg.epsilon_ladder:
            errs = np.empty(cfg.repetitions)
            costs = np.empty(cfg.repetitions)
            for rep in range(cfg.repetitions):
                rng = np.random.default_rng(
                    [cfg.seed, 505, _SETUP_TAG[name], _epsilon_tag(eps), rep,
                     0 if formulation == "joint" else 1]
                )
                est = qamc_price(
                    payoff, marginals, spec, formulation, grid,
                    AEConfig(epsilon=eps, rho=cfg.rho), rng, measure=measure,
                )
                errs[rep] = abs(est.value - reference)
                costs[rep] = est.samples_or_queries
            records.append(_percentile_record(f"qamc-{formulation}", float(costs.mean()), errs))
    return {"reference": reference, "records": records}


def study_price_convergence(cfg: StudyConfig):
    """Error-vs-cost tables for the spread and basket pricing problems.

    Returns {setup_name: {"reference": value, "records": [...]}} with CMC
    (grid sampling of the shared measure, joint formulation) and both QAMC
    formulations measured against the pinned Riemann reference.  The setups
    share no state, so they run side by side (``_fork_join``) and give what
    a serial run gives, bit for bit.
    """
    names = list(_PRICE_SETUPS)
    return dict(zip(names, _fork_join([partial(_price_setup, cfg, name) for name in names])))


def _trimmed_loglog(costs, errors) -> tuple[np.ndarray, np.ndarray]:
    """log(cost), log(error) without zero errors and, on 4+ points, the two ends (saturation guard)."""
    costs = np.asarray(costs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if costs.size > 3:
        costs = costs[1:-1]
        errors = errors[1:-1]
    keep = errors > 0
    if np.count_nonzero(keep) < 2:
        raise ValidationError(f"a log-log fit needs 2 points with a nonzero error, got {np.count_nonzero(keep)}")
    return np.log(costs[keep]), np.log(errors[keep])


def fit_loglog_slope(costs, errors) -> float:
    """Least-squares slope of log(error) against log(cost), ends trimmed."""
    log_costs, log_errors = _trimmed_loglog(costs, errors)
    slope, _ = np.polyfit(log_costs, log_errors, 1)
    return float(slope)


def cost_at_error(costs, errors, target: float) -> float:
    """Cost at a target error, read off the log-log line fitted with ends trimmed."""
    log_costs, log_errors = _trimmed_loglog(costs, errors)
    slope, intercept = np.polyfit(log_errors, log_costs, 1)
    return float(math.exp(intercept + slope * math.log(target)))

