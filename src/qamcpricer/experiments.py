"""Study harness: convergence comparisons of CMC vs amplitude estimation.

Three studies, each emitting CSV records reproducible bit-for-bit from
(config, seed):

* coeffs            - per-coefficient and average error of cosine-coefficient
                      estimation against the classical Riemann-grid truth.
* density-recovery  - sup-norm pdf/CDF errors at matched per-coefficient cost
                      for increasing truncation orders.
* price-convergence - spread and basket option error against the pinned
                      Riemann reference for CMC and both QAMC formulations.

Bundled fixture parameters are the calibrated 1-year NIG sets for three
liquid Euronext names (spots at the data date); a flat 2% rate stands in for
the proprietary discount/forward curves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .copula import CopulaSpec
from .cosine_density import CosineSeries, Interval, basis_matrix, coeffs_classical, eval_cdf, eval_pdf
from .errors import ValidationError
from .market_data import MarketSlice
from .nig import NIGParams, nig_cdf, nig_pdf, support_interval
from .pricing import (
    AssetMarginal, GridMeasure, Payoff, PricingGrid, cmc_price, normalize_cell_masses, sample_grid_indices,
)
from .qamc import AEConfig, qamc_coefficient, qamc_price, run_log_line, RUN_LOG_HEADER

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
    "write_records_csv",
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
        for ladder, descending in ((self.epsilon_ladder, True), (self.sample_ladder, False)):
            if len(ladder) == 0:
                raise ValidationError("ladders must be non-empty")
            diffs = np.diff(ladder)
            if descending and not np.all(diffs < 0):
                raise ValidationError("epsilon ladder must be strictly decreasing")
            if not descending and not np.all(diffs > 0):
                raise ValidationError("sample ladder must be strictly increasing")


@dataclass(frozen=True)
class ConvergenceRecord:
    method: str
    cost: float
    mean_abs_err: float
    ci90_lo: float
    ci90_hi: float

    def __post_init__(self):
        if not (self.ci90_lo <= self.mean_abs_err <= self.ci90_hi):
            raise ValidationError("CI must bracket the mean error")


def fixture_slice(name: str) -> MarketSlice:
    params, spot = FIXTURES[name]
    return MarketSlice.from_rates(name, spot, 1.0, FIXTURE_RATE, 0.0)


def fixture_marginal(name: str) -> AssetMarginal:
    """Cosine-series marginal (classical coefficients) on the tight support."""
    params, _ = FIXTURES[name]
    slc = fixture_slice(name)
    iv = Interval(*support_interval(params, slc.expiry, MARGINAL_TAIL_EPS))
    series = coeffs_classical(lambda x: nig_pdf(x, params, slc.expiry), iv, MARGINAL_TERMS)
    return AssetMarginal(params, slc, series)


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


def _percentile_record(method: str, cost: float, errors: np.ndarray) -> ConvergenceRecord:
    return ConvergenceRecord(
        method=method,
        cost=float(cost),
        mean_abs_err=float(np.mean(errors)),
        ci90_lo=float(np.percentile(errors, 5)),
        ci90_hi=float(np.percentile(errors, 95)),
    )


def _coeff_grid(qubits: int, tail_eps: float):
    """Pricing-grid cells and masses of STUDY_ASSET's exact density, for the coefficient studies."""
    marginal = AssetMarginal(FIXTURES[STUDY_ASSET][0], fixture_slice(STUDY_ASSET), tail_eps=tail_eps)
    grid = PricingGrid.build([marginal], qubits)
    (nodes,), (dx,) = grid.nodes, grid.deltas
    masses, _ = normalize_cell_masses(marginal.pdf(nodes) * dx)
    return Interval(*marginal.interval), nodes, masses


def _cmc_coefficients(
    table: np.ndarray, masses: np.ndarray, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """All coefficients from one shared classical sample of grid nodes."""
    idx = sample_grid_indices(masses, samples, rng)
    counts = np.bincount(idx, minlength=masses.size)
    return (table @ counts) / samples


def study_coeffs(cfg: StudyConfig):
    """Error-vs-cost tables for cosine-coefficient estimation (CMC vs QAMC).

    Returns (records, per_k, run_log): aggregate ConvergenceRecords (error
    averaged over coefficients k >= 1), a per-(method, cost, k) mean-error
    table, and amplitude-estimation run-log lines.
    """
    iv, nodes, masses = _coeff_grid(cfg.qubits, MARGINAL_TAIL_EPS)
    table = basis_matrix(iv, cfg.terms, nodes)
    truth = table @ masses
    ks = np.arange(1, cfg.terms)

    records: list[ConvergenceRecord] = []
    per_k: list[dict] = []
    run_log: list[str] = []

    for samples in cfg.sample_ladder:
        errs = np.empty((cfg.repetitions, ks.size))
        for rep in range(cfg.repetitions):
            rng = np.random.default_rng([cfg.seed, 101, int(math.log2(samples)), rep])
            est = _cmc_coefficients(table, masses, samples, rng)
            errs[rep] = np.abs(est[1:] - truth[1:])
        records.append(_percentile_record("cmc", samples, errs.mean(axis=1)))
        for j, k in enumerate(ks):
            per_k.append(
                {
                    "method": "cmc",
                    "level": samples,
                    "cost": samples,
                    "k": int(k),
                    "mean_abs_err": float(errs[:, j].mean()),
                }
            )

    for eps in cfg.epsilon_ladder:
        errs = np.empty((cfg.repetitions, ks.size))
        costs = np.empty((cfg.repetitions, ks.size))
        for rep in range(cfg.repetitions):
            for j, k in enumerate(ks):
                rng = np.random.default_rng([cfg.seed, 202, int(1.0 / eps), rep, int(k)])
                ae_cfg = AEConfig(epsilon=eps, rho=cfg.rho)
                res = qamc_coefficient(masses, int(k), iv, ae_cfg, rng)
                errs[rep, j] = abs(res.estimate - truth[k])
                costs[rep, j] = res.oracle_queries
                if rep == 0:
                    run_log.append(
                        run_log_line("signed-iqae", float(truth[k]), ae_cfg, res, seed=cfg.seed)
                    )
        records.append(_percentile_record("qamc", float(costs.mean()), errs.mean(axis=1)))
        for j, k in enumerate(ks):
            per_k.append(
                {
                    "method": "qamc",
                    "level": eps,
                    "cost": float(costs[:, j].mean()),
                    "k": int(k),
                    "mean_abs_err": float(errs[:, j].mean()),
                }
            )
    return records, per_k, run_log


def _budgeted_coefficient(masses, k, iv, budget, rho, rng) -> float:
    """Coefficient estimate at a fixed query budget (matched-cost studies)."""
    cfg = AEConfig(epsilon=1e-7, rho=rho, max_queries=budget)
    return qamc_coefficient(masses, k, iv, cfg, rng).estimate


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

    rows: list[dict] = []
    for terms in cfg.recovery_terms:
        table = basis_matrix(iv, terms, nodes)
        truth0 = float(table[0] @ masses)
        for method in ("cmc", "qamc"):
            sup_pdf = np.empty(cfg.repetitions)
            sup_cdf = np.empty(cfg.repetitions)
            for rep in range(cfg.repetitions):
                rng = np.random.default_rng([cfg.seed, 303, terms, rep, 0 if method == "cmc" else 1])
                if method == "cmc":
                    coeffs = _cmc_coefficients(table, masses, cfg.matched_cost, rng)
                else:
                    coeffs = np.empty(terms)
                    coeffs[0] = truth0
                    for k in range(1, terms):
                        coeffs[k] = _budgeted_coefficient(masses, k, iv, cfg.matched_cost, cfg.rho, rng)
                series = CosineSeries(iv, coeffs)
                sup_pdf[rep] = np.max(np.abs(eval_pdf(series, xs) - pdf_true))
                sup_cdf[rep] = np.max(np.abs(eval_cdf(series, xs) - cdf_true))
            rows.append(
                {
                    "method": method,
                    "terms": terms,
                    "cost": cfg.matched_cost,
                    "sup_pdf_err_mean": float(sup_pdf.mean()),
                    "sup_pdf_err_median": float(np.median(sup_pdf)),
                    "sup_pdf_ci90_lo": float(np.percentile(sup_pdf, 5)),
                    "sup_pdf_ci90_hi": float(np.percentile(sup_pdf, 95)),
                    "sup_cdf_err_mean": float(sup_cdf.mean()),
                    "sup_cdf_err_median": float(np.median(sup_cdf)),
                    "sup_cdf_ci90_lo": float(np.percentile(sup_cdf, 5)),
                    "sup_cdf_ci90_hi": float(np.percentile(sup_cdf, 95)),
                }
            )
    return rows


def study_price_convergence(cfg: StudyConfig):
    """Error-vs-cost tables for the spread and basket pricing problems.

    Returns {setup_name: {"reference": value, "records": [...]}} with CMC
    (grid sampling of the shared measure, joint formulation) and both QAMC
    formulations measured against the pinned Riemann reference.
    """
    out: dict[str, dict] = {}
    for name, setup in (("spread", spread_setup), ("basket", basket_setup)):
        payoff, marginals, spec, grid = setup()
        measure = GridMeasure.build(payoff, marginals, spec, grid)
        reference = measure.reference_value()
        records: list[ConvergenceRecord] = []

        for samples in cfg.sample_ladder:
            errs = np.empty(cfg.repetitions)
            for rep in range(cfg.repetitions):
                rng = np.random.default_rng([cfg.seed, 404, _SETUP_TAG[name], int(math.log2(samples)), rep])
                est = cmc_price(payoff, marginals, spec, "joint", samples, rng, measure=measure)
                errs[rep] = abs(est.value - reference)
            records.append(_percentile_record("cmc", samples, errs))

        for formulation in ("joint", "independent"):
            for eps in cfg.epsilon_ladder:
                errs = np.empty(cfg.repetitions)
                costs = np.empty(cfg.repetitions)
                for rep in range(cfg.repetitions):
                    rng = np.random.default_rng(
                        [cfg.seed, 505, _SETUP_TAG[name], int(1.0 / eps), rep,
                         0 if formulation == "joint" else 1]
                    )
                    est = qamc_price(
                        payoff, marginals, spec, formulation, grid,
                        AEConfig(epsilon=eps, rho=cfg.rho), rng, measure=measure,
                    )
                    errs[rep] = abs(est.value - reference)
                    costs[rep] = est.samples_or_queries
                records.append(_percentile_record(f"qamc-{formulation}", float(costs.mean()), errs))
        out[name] = {"reference": reference, "records": records}
    return out


def _trimmed_loglog(costs, errors) -> tuple[np.ndarray, np.ndarray]:
    """log(cost), log(error) without zero errors and, on 4+ points, the two ends (saturation guard)."""
    costs = np.asarray(costs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if costs.size > 3:
        costs = costs[1:-1]
        errors = errors[1:-1]
    keep = errors > 0
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


def write_records_csv(records: list[ConvergenceRecord], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "cost", "mean_abs_err", "ci90_lo", "ci90_hi"])
        for rec in records:
            writer.writerow(
                [rec.method, repr(rec.cost), repr(rec.mean_abs_err), repr(rec.ci90_lo), repr(rec.ci90_hi)]
            )


def write_rows_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValidationError("nothing to write")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_run_log(lines: list[str], path) -> None:
    with open(path, "w") as handle:
        handle.write(RUN_LOG_HEADER + "\n")
        for line in lines:
            handle.write(line + "\n")
