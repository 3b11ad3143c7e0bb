"""Command-line front end: quote pipeline stages plus the study harness.

Commands: ingest, curves, arb-check, calibrate, density, price,
study {coeffs,density,price}, pipeline, and make-bundle (synthetic demo
inputs).  All outputs are CSV/JSON; reruns with the same config and seed are
byte-identical.

Config JSON schema (paths are resolved relative to the config file):

    {
      "quotes_csv": "quotes.csv",
      "spots": {"AXA": 33.8, ...},
      "calibration": {"lambda": 5e-7, "weights_rule": "inverse-bid-ask"},
      "density": {"terms": 128, "tail_eps": 1e-5},
      "correlations": "corr.json",
      "payoff": {"kind": "spread-call", "strike": 0.0,
                 "assets": ["AXA", "MICHELIN"]},
      "pricing": {"qubits_per_dim": 3, "epsilon": 1e-3, "rho": 0.05,
                  "samples": 65536,
                  "estimators": ["riemann", "cmc-joint", "qamc-joint"]},
      "study": {"repetitions": 32}
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import market_data as md
from .copula import CopulaSpec, load_correlation
from .cosine_density import Interval, coeffs_classical, series_to_json
from .errors import QamcError, StageError, ValidationError
from .experiments import (
    BASKET_CORRELATION,
    FIXTURES,
    FIXTURE_RATE,
    StudyConfig,
    fit_loglog_slope,
    study_coeffs,
    study_density_recovery,
    study_price_convergence,
    write_records_csv,
    write_rows_csv,
    write_run_log,
)
from .market_data import MarketSlice, generate_synthetic_quotes
from .nig import nig_pdf, support_interval
from .pricing import AssetMarginal, GridMeasure, Payoff, PriceEstimate, PricingGrid, cmc_price
from .qamc import AEConfig, qamc_price

__all__ = ["main"]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    cfg_path = Path(path)
    with open(cfg_path) as handle:
        cfg = json.load(handle)
    cfg["_base"] = cfg_path.parent
    return cfg


def _resolve(cfg: dict, name: str) -> Path:
    return (cfg["_base"] / cfg[name]).resolve() if not Path(cfg[name]).is_absolute() else Path(cfg[name])


def _stage(name: str):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except QamcError as exc:
                raise StageError(name, str(exc)) from exc

        return run

    return wrap


@_stage("ingest")
def cmd_ingest(cfg: dict, out: Path) -> dict[tuple[str, float], list[md.OptionQuote]]:
    groups = md.load_quotes(_resolve(cfg, "quotes_csv"))
    md.save_quotes(out / "quotes_validated.csv", [q for qs in groups.values() for q in qs])
    _write_json(
        out / "ingest_summary.json",
        [
            {"underlying": u, "expiry_years": t, "n_quotes": len(qs)}
            for (u, t), qs in sorted(groups.items())
        ],
    )
    return groups


@_stage("curves")
def cmd_curves(cfg: dict, out: Path, groups=None) -> dict[tuple[str, float], md.StrippedCurves]:
    groups = groups if groups is not None else cmd_ingest(cfg, out)
    spots = cfg["spots"]
    curves = {}
    rows = []
    for (underlying, expiry), quotes in sorted(groups.items()):
        if underlying not in spots:
            raise ValidationError(f"no spot configured for {underlying}")
        stripped = md.strip_curves(quotes, float(spots[underlying]), expiry)
        curves[(underlying, expiry)] = stripped
        rows.append(
            {
                "underlying": underlying,
                "expiry_years": expiry,
                "df": stripped.discount_factor,
                "forward": stripped.forward,
                "r": stripped.rate,
                "q": stripped.dividend_yield,
            }
        )
    _write_json(out / "curves.json", rows)
    return curves


@_stage("arb-check")
def cmd_arb_check(cfg: dict, out: Path, drop_violations: bool, groups=None):
    groups = groups if groups is not None else cmd_ingest(cfg, out)
    report = []
    cleaned = {}
    for (underlying, expiry), quotes in sorted(groups.items()):
        found = md.scan_arbitrage(quotes)
        for violation in found:
            entry = {
                "underlying": underlying,
                "expiry_years": expiry,
                "type": type(violation).__name__,
                "kind": violation.kind,
                "strikes": list(violation.strikes),
            }
            entry["value"] = violation.ratio if hasattr(violation, "ratio") else violation.value
            report.append(entry)
        cleaned[(underlying, expiry)] = md.drop_violating_quotes(quotes) if found and drop_violations else quotes
    _write_json(out / "arb_report.json", report)
    if report and not drop_violations:
        raise StageError("arb-check", f"{len(report)} arbitrage violations (rerun with --drop-violations)")
    if drop_violations:
        md.save_quotes(out / "quotes_clean.csv", [q for qs in cleaned.values() for q in qs])
    return cleaned


def _build_slices(cfg, out, drop_violations):
    groups = cmd_ingest(cfg, out)
    curves = cmd_curves(cfg, out, groups)
    cleaned = cmd_arb_check(cfg, out, drop_violations, groups)
    slices = {}
    for key, quotes in sorted(cleaned.items()):
        underlying, expiry = key
        stripped = curves[key]
        slices[key] = MarketSlice(
            underlying=underlying,
            spot=float(cfg["spots"][underlying]),
            expiry=expiry,
            discount_factor=stripped.discount_factor,
            forward=stripped.forward,
            rate=stripped.rate,
            dividend_yield=stripped.dividend_yield,
            quotes=tuple(quotes),
        )
    return slices


@_stage("calibrate")
def cmd_calibrate(cfg: dict, out: Path, drop_violations: bool):
    slices = _build_slices(cfg, out, drop_violations)
    opts = cfg.get("calibration", {})
    config = cal.CalibrationConfig(
        regularization=float(opts.get("lambda", 5e-7)),
        weights_rule=opts.get("weights_rule", "inverse-bid-ask"),
    )
    rows = []
    results = {}
    for (underlying, expiry), slice_ in sorted(slices.items()):
        result = cal.calibrate(slice_, config)
        results[(underlying, expiry)] = (result, slice_)
        rows.append(
            {
                "underlying": underlying,
                "expiry_years": expiry,
                "alpha": result.theta.alpha,
                "beta": result.theta.beta,
                "delta": result.theta.delta,
                "lambda": config.regularization,
                "objective": result.objective,
                "rmse_bp": result.rmse_bp,
                "max_err_bp": result.max_err_bp,
                "n_quotes": len(slice_.quotes),
            }
        )
    _write_json(out / "calibration.json", rows)
    return results


@_stage("density")
def cmd_density(cfg: dict, out: Path, drop_violations: bool):
    calibrated = cmd_calibrate(cfg, out, drop_violations)
    opts = cfg.get("density", {})
    terms = int(opts.get("terms", 128))
    tail_eps = float(opts.get("tail_eps", 1e-5))
    marginals = {}
    for (underlying, expiry), (result, slice_) in sorted(calibrated.items()):
        params = result.theta
        iv = Interval(*support_interval(params, expiry, tail_eps))
        series = coeffs_classical(lambda x: nig_pdf(x, params, expiry), iv, terms)
        (out / f"density_{underlying}.json").write_text(series_to_json(series) + "\n")
        marginals[underlying] = AssetMarginal(params, slice_, series)
    return marginals


@_stage("price")
def cmd_price(cfg: dict, out: Path, seed: int, drop_violations: bool):
    marginals = cmd_density(cfg, out, drop_violations)
    payoff_cfg = cfg["payoff"]
    assets = payoff_cfg["assets"]
    missing = [a for a in assets if a not in marginals]
    if missing:
        raise ValidationError(f"no calibrated marginal for asset(s) {missing}")
    corr = cfg["correlations"]
    corr_assets, spec = load_correlation(corr if isinstance(corr, dict) else _resolve(cfg, "correlations"))
    order = [corr_assets.index(a) for a in assets]
    sigma = np.asarray(spec.sigma)[np.ix_(order, order)]
    spec = CopulaSpec.from_matrix(sigma)
    chosen = [marginals[a] for a in assets]
    payoff = Payoff(payoff_cfg["kind"], float(payoff_cfg["strike"]))
    opts = cfg.get("pricing", {})
    grid = PricingGrid.build(chosen, int(opts.get("qubits_per_dim", 3)))
    measure = GridMeasure.build(payoff, chosen, spec, grid)
    estimators = opts.get("estimators", ["riemann", "cmc-joint", "qamc-joint", "qamc-independent"])
    samples = int(opts.get("samples", 2**16))
    epsilon = float(opts.get("epsilon", 1e-3))
    rho = float(opts.get("rho", 0.05))

    rows = []
    for i, estimator in enumerate(estimators):
        rng = np.random.default_rng([seed, 7000 + i])
        if estimator == "riemann":
            est = PriceEstimate(measure.reference_value(), "riemann", grid.total_nodes, stderr=0.0)
        elif estimator.startswith("cmc-"):
            est = cmc_price(payoff, chosen, spec, estimator.removeprefix("cmc-"), samples, rng, measure=measure)
        elif estimator.startswith("qamc-"):
            est = qamc_price(
                payoff,
                chosen,
                spec,
                estimator.removeprefix("qamc-"),
                grid,
                AEConfig(epsilon=epsilon, rho=rho, seed=seed),
                rng,
                measure=measure,
            )
        else:
            raise ValidationError(f"unknown estimator {estimator!r}")
        rows.append(
            {
                "payoff": payoff_cfg["kind"],
                "formulation": estimator.split("-", 1)[1] if "-" in estimator else "n/a",
                "estimator": estimator,
                "value": est.value,
                "stderr_or_eps": est.stderr,
                "samples_or_queries": est.samples_or_queries,
                "seed": seed,
            }
        )
    _write_json(out / "prices.json", rows)
    return rows


def _study_config(cfg: dict, study: str, seed: int) -> StudyConfig:
    opts = dict(cfg.get("study", {}))
    # The command picks the study and --seed the seed; every other field is settable.
    settable = {f.name for f in fields(StudyConfig)} - {"study", "seed"}
    unknown = sorted(set(opts) - settable)
    if unknown:
        raise ValidationError(f"unknown study option(s) {unknown}; expected some of {sorted(settable)}")
    for tuple_key in ("epsilon_ladder", "sample_ladder", "recovery_terms"):
        if tuple_key in opts:
            opts[tuple_key] = tuple(opts[tuple_key])
    name = {"coeffs": "coeffs", "density": "density-recovery", "price": "price-convergence"}[study]
    return StudyConfig(study=name, seed=seed, **opts)


@_stage("study")
def cmd_study(cfg: dict, study: str, out: Path, seed: int) -> None:
    scfg = _study_config(cfg, study, seed)
    if study == "coeffs":
        records, per_k, run_log = study_coeffs(scfg)
        write_records_csv(records, out / "study_coeffs.csv")
        write_rows_csv(per_k, out / "study_coeffs_per_k.csv")
        write_run_log(run_log, out / "study_coeffs_runs.csv")
        slopes = {
            method: fit_loglog_slope(
                [r.cost for r in records if r.method == method],
                [r.mean_abs_err for r in records if r.method == method],
            )
            for method in ("cmc", "qamc")
        }
        _write_json(out / "study_coeffs_slopes.json", slopes)
    elif study == "density":
        rows = study_density_recovery(scfg)
        write_rows_csv(rows, out / "study_density.csv")
    else:
        results = study_price_convergence(scfg)
        summary = {}
        for name, data in results.items():
            write_records_csv(data["records"], out / f"study_price_{name}.csv")
            summary[name] = {"reference": data["reference"]}
        _write_json(out / "study_price_references.json", summary)


@_stage("make-bundle")
def cmd_make_bundle(out: Path) -> None:
    """Synthetic 3-asset demo inputs: fixture-priced calls and puts, 12 strikes each, half-spread 0.01."""
    quotes = []
    spots = {}
    for name, (params, spot) in FIXTURES.items():
        slice_ = MarketSlice.from_rates(name, spot, 1.0, FIXTURE_RATE, 0.0)
        strikes = np.linspace(0.82, 1.18, 12) * slice_.forward
        quotes.extend(generate_synthetic_quotes(params, slice_, strikes, spread=0.01))
        spots[name] = spot
    md.save_quotes(out / "quotes.csv", quotes)
    corr = {"assets": ["AXA", "CREDIT_AGRICOLE", "MICHELIN"], "sigma": BASKET_CORRELATION}
    _write_json(out / "corr.json", corr)
    config = {
        "quotes_csv": "quotes.csv",
        "spots": spots,
        "calibration": {"lambda": 5e-7, "weights_rule": "inverse-bid-ask"},
        "density": {"terms": 128, "tail_eps": 1e-5},
        "correlations": "corr.json",
        "payoff": {"kind": "spread-call", "strike": 0.0, "assets": ["AXA", "MICHELIN"]},
        "pricing": {
            "qubits_per_dim": 3,
            "epsilon": 1e-3,
            "rho": 0.05,
            "samples": 65536,
            "estimators": ["riemann", "cmc-joint", "qamc-joint", "qamc-independent"],
        },
        "study": {"repetitions": 32},
    }
    _write_json(out / "config.json", config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qamcpricer", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **spec) -> argparse.ArgumentParser:
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*names, **spec)
        return holder

    # Each command takes only the flags it reads.
    config = flag("--config", required=True, help="config JSON path")
    out = flag("--out", default="out", help="output directory (default ./out)")
    seed = flag("--seed", type=int, default=0, help="RNG seed (default 0)")
    drop = flag("--drop-violations", action="store_true", help="drop arbitrage-violating quotes")
    for name, help_text, flags in (
        ("ingest", "validate and normalize a quote CSV", [config, out]),
        ("curves", "strip discount factors and forwards by put-call parity", [config, out]),
        ("arb-check", "digital and butterfly arbitrage scan", [config, out, drop]),
        ("calibrate", "fit NIG marginals per underlying and expiry", [config, out, drop]),
        ("density", "export cosine-series densities for calibrated marginals", [config, out, drop]),
        ("price", "price the configured payoff with the configured estimators", [config, out, seed, drop]),
        ("study", "run a convergence study", [config, out, seed]),
        ("pipeline", "run ingest -> curves -> arb-check -> calibrate -> density -> price",
         [config, out, seed, drop]),
        ("make-bundle", "write a synthetic 3-asset demo bundle", [out]),
    ):
        sub.add_parser(name, help=help_text, parents=flags)
    sub.choices["study"].add_argument("kind", choices=["coeffs", "density", "price"])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "make-bundle":
            cmd_make_bundle(out)
            return 0
        cfg = _load_config(args.config)
        if args.command == "ingest":
            cmd_ingest(cfg, out)
        elif args.command == "curves":
            cmd_curves(cfg, out)
        elif args.command == "arb-check":
            cmd_arb_check(cfg, out, args.drop_violations)
        elif args.command == "calibrate":
            cmd_calibrate(cfg, out, args.drop_violations)
        elif args.command == "density":
            cmd_density(cfg, out, args.drop_violations)
        elif args.command in ("price", "pipeline"):
            # Each stage runs the stages before it, so price is the whole pipeline.
            cmd_price(cfg, out, args.seed, args.drop_violations)
        elif args.command == "study":
            cmd_study(cfg, args.kind, out, args.seed)
    except QamcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
