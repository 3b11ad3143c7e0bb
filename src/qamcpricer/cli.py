"""Command-line front end: quote pipeline stages plus the study harness.

Commands: ingest, curves, arb-check, calibrate, density, price,
study {coeffs,density,price}, pipeline, and make-bundle (synthetic demo
inputs).  The library's stages and studies return data, and this module
writes it: every JSON file through ``_write_json`` and every CSV but the
quote files (``market_data.save_quotes``) through ``_write_csv``.  Reruns
with the same config and seed are byte-identical.

Config JSON schema (paths are resolved relative to the config file).  A
config file that cannot be read as JSON, an unknown key, a missing required
key (quotes_csv, spots, correlations, payoff and its three keys, for the
stages that read them), a value of the wrong type (a fraction or a
boolean for an integer setting, or a string for a list of names,
included), a CMC sample count below 2 (one sample has no standard error),
a qubit count below 1, an epsilon or rho outside (0, 1), a density term
count below 1 or tail mass outside (0, 1), a negative or non-finite
calibration lambda or an unknown weights rule, an unknown
estimator name, a payoff on no asset or a spread-call on other than 2,
a payoff asset named twice, a spot that is not finite and positive, a repeated quote
row, and a quote or correlation file that cannot be read are errors that
exit 2:

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
import csv
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import market_data as md
from .copula import load_correlation
from .errors import QamcError, StageError, ValidationError
from .experiments import (
    BASKET_CORRELATION,
    FIXTURES,
    MARGINAL_TAIL_EPS,
    MARGINAL_TERMS,
    StudyConfig,
    fit_loglog_slope,
    fixture_slice,
    study_coeffs,
    study_density_recovery,
    study_price_convergence,
)
from .market_data import MarketSlice, generate_synthetic_quotes
from .pricing import AssetMarginal, GridMeasure, Payoff, PriceEstimate, PricingGrid, cmc_price
from .qamc import AEConfig, qamc_price

__all__ = ["main"]


def _write_json(path: Path, payload) -> None:
    # A non-finite float would be written as Infinity or NaN, which strict JSON parsers reject.
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    """``rows`` under a header of the first row's keys, in the csv module's default dialect."""
    if not rows:
        raise ValidationError("nothing to write")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _integer(value) -> int:
    """``value`` as an int; a boolean or non-integral value is an error where int() would take it."""
    number = int(value)
    if number != value or isinstance(value, bool):
        raise ValueError("not an integer")
    return number


def _at_least(minimum: int, why: str):
    """Conversion to an integer of at least ``minimum``; ``why`` is the error on a smaller one."""

    def convert(value) -> int:
        number = _integer(value)
        if number < minimum:
            raise ValueError(why)
        return number

    return convert


def _open_unit(value) -> float:
    """``value`` as a float strictly between 0 and 1."""
    number = float(value)
    if not 0.0 < number < 1.0:
        raise ValueError("must lie in (0, 1)")
    return number


def _names(value) -> list[str]:
    """``value`` as a list of names; a string, which list() would split into characters, is an error."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError("not a list of names")
    return value


_ESTIMATORS = ("riemann", "cmc-joint", "cmc-independent", "qamc-joint", "qamc-independent")


def _estimators(value) -> list[str]:
    """``value`` as a list of estimator names, each one of _ESTIMATORS."""
    unknown = [name for name in _names(value) if name not in _ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimator(s) {unknown}; expected some of {list(_ESTIMATORS)}")
    return value


def _converter(default):
    """Conversion to the type of ``default``, element-wise for a tuple."""
    if isinstance(default, tuple):
        convert = _converter(default[0])
        return lambda value: tuple(convert(v) for v in value)
    return _integer if isinstance(default, int) else type(default)


# Each config section's keys: key -> (conversion, default), a None default marking a required key.
_SECTIONS = {
    "calibration": {
        "lambda": (float, cal.CalibrationConfig.regularization),
        "weights_rule": (str, cal.CalibrationConfig.weights_rule),
    },
    "density": {
        "terms": (_at_least(1, "a cosine series needs at least 1 term"), MARGINAL_TERMS),
        "tail_eps": (_open_unit, MARGINAL_TAIL_EPS),
    },
    "payoff": {"kind": (str, None), "strike": (float, None), "assets": (_names, None)},
    "pricing": {
        "qubits_per_dim": (_at_least(1, "a pricing grid needs at least 1 qubit per dimension"), 3),
        "epsilon": (float, 1e-3),
        "rho": (float, 0.05),
        "samples": (_at_least(2, "CMC needs at least 2 samples, the fewest with a standard error"), 2**16),
        "estimators": (_estimators, ["riemann", "cmc-joint", "qamc-joint", "qamc-independent"]),
    },
    # The study command picks the study and --seed the seed; every other field is settable.
    "study": {
        f.name: (_converter(f.default), f.default) for f in fields(StudyConfig) if f.name not in ("study", "seed")
    },
}
_CONFIG_KEYS = ("quotes_csv", "spots", "correlations", *_SECTIONS)


def _reject_unknown(where: str, keys, settable) -> None:
    unknown = sorted(set(keys) - set(settable))
    if unknown:
        raise ValidationError(f"unknown {where} option(s) {unknown}; expected some of {sorted(settable)}")


def _load_config(path: str) -> dict:
    cfg_path = Path(path)
    try:
        with open(cfg_path) as handle:
            cfg = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown("config", cfg, _CONFIG_KEYS)
    cfg["_base"] = cfg_path.parent
    return cfg


def _required(cfg: dict, name: str):
    if name not in cfg:
        raise ValidationError(f"config needs {name!r}")
    return cfg[name]


def _read(where: str, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"config {where}: cannot read {value!r} ({exc})") from exc


def _section(cfg: dict, name: str) -> dict:
    """Config section ``name``, each value converted and each missing one defaulted by ``_SECTIONS``."""
    opts = cfg.get(name, {})
    if not isinstance(opts, dict):
        raise ValidationError(f"config {name} must be an object, got {opts!r}")
    spec = _SECTIONS[name]
    _reject_unknown(name, opts, spec)
    values = {}
    for key, (convert, default) in spec.items():
        if key in opts:
            values[key] = _read(f"{name}.{key}", opts[key], convert)
        elif default is None:
            raise ValidationError(f"config {name} needs {key!r}")
        else:
            values[key] = default
    return values


def _resolve(cfg: dict, name: str) -> Path:
    path = _read(name, _required(cfg, name), Path)
    return path if path.is_absolute() else (cfg["_base"] / path).resolve()


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
def _load_groups(cfg: dict) -> dict[tuple[str, float], list[md.OptionQuote]]:
    return md.load_quotes(_resolve(cfg, "quotes_csv"))


def _write_ingest(out: Path, groups) -> None:
    md.save_quotes(out / "quotes_validated.csv", [q for qs in groups.values() for q in qs])
    _write_json(
        out / "ingest_summary.json",
        [
            {"underlying": u, "expiry_years": t, "n_quotes": len(qs)}
            for (u, t), qs in sorted(groups.items())
        ],
    )


def cmd_ingest(cfg: dict, out: Path) -> dict[tuple[str, float], list[md.OptionQuote]]:
    groups = _load_groups(cfg)
    _write_ingest(out, groups)
    return groups


@_stage("curves")
def _strip_slices(cfg: dict, groups) -> dict[tuple[str, float], MarketSlice]:
    spots = _required(cfg, "spots")
    slices = {}
    for (underlying, expiry), quotes in sorted(groups.items()):
        if not isinstance(spots, dict) or underlying not in spots:
            raise ValidationError(f"no spot configured for {underlying}")
        slices[(underlying, expiry)] = md.strip_curves(quotes, _read(f"spots.{underlying}", spots[underlying], float))
    return slices


def cmd_curves(cfg: dict, out: Path):
    """Ingest, then curves: every slice is stripped before either stage writes, so a bad spot leaves no file."""
    groups = _load_groups(cfg)
    slices = _strip_slices(cfg, groups)
    _write_ingest(out, groups)
    _write_json(
        out / "curves.json",
        [
            {
                "underlying": underlying,
                "expiry_years": expiry,
                "df": slice_.discount_factor,
                "forward": slice_.forward,
                "r": slice_.rate,
                "q": slice_.dividend_yield,
            }
            for (underlying, expiry), slice_ in slices.items()
        ],
    )
    return groups, slices


@_stage("arb-check")
def cmd_arb_check(cfg: dict, out: Path, drop_violations: bool, groups):
    report = []
    cleaned = {}
    for (underlying, expiry), quotes in sorted(groups.items()):
        found = md.scan_arbitrage(quotes)
        for violation in found:
            report.append(
                {
                    "underlying": underlying,
                    "expiry_years": expiry,
                    "type": type(violation).__name__,
                    "kind": violation.kind,
                    "strikes": list(violation.strikes),
                    "value": violation.value,
                }
            )
        cleaned[(underlying, expiry)] = md.drop_violating_quotes(quotes) if found and drop_violations else quotes
    _write_json(out / "arb_report.json", report)
    if report and not drop_violations:
        raise StageError("arb-check", f"{len(report)} arbitrage violations (rerun with --drop-violations)")
    if drop_violations:
        md.save_quotes(out / "quotes_clean.csv", [q for qs in cleaned.values() for q in qs])
    return cleaned


def _build_slices(cfg, out, drop_violations):
    groups, slices = cmd_curves(cfg, out)
    cleaned = cmd_arb_check(cfg, out, drop_violations, groups)
    return {key: replace(slices[key], quotes=tuple(quotes)) for key, quotes in sorted(cleaned.items())}


@_stage("calibrate")
def cmd_calibrate(cfg: dict, out: Path, drop_violations: bool):
    # Its own inputs first, so that a bad one stops the run before an earlier stage writes files.
    opts = _section(cfg, "calibration")
    config = cal.CalibrationConfig(regularization=opts["lambda"], weights_rule=opts["weights_rule"])
    slices = _build_slices(cfg, out, drop_violations)
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
    opts = _section(cfg, "density")
    calibrated = cmd_calibrate(cfg, out, drop_violations)
    marginals = {}
    for (underlying, _), (result, slice_) in sorted(calibrated.items()):
        marginal = AssetMarginal.fit(result.theta, slice_, opts["terms"], opts["tail_eps"])
        series = marginal.series
        _write_json(out / f"density_{underlying}.json",
                    {"a": series.interval.a, "b": series.interval.b, "coeffs": series.coeffs.tolist()})
        marginals[underlying] = marginal
    return marginals


@_stage("price")
def cmd_price(cfg: dict, out: Path, seed: int, drop_violations: bool):
    # All of its own inputs first, so that a bad one stops the run before an earlier stage writes files.
    payoff_cfg = _section(cfg, "payoff")
    opts = _section(cfg, "pricing")
    payoff = Payoff(payoff_cfg["kind"], payoff_cfg["strike"])
    # Each QAMC row draws from its own generator, so the config carries no seed.
    ae_config = AEConfig(epsilon=opts["epsilon"], rho=opts["rho"])
    assets = payoff_cfg["assets"]
    payoff.check_assets(len(assets))
    corr = _required(cfg, "correlations")
    spec = load_correlation(corr if isinstance(corr, dict) else _resolve(cfg, "correlations"), assets)
    marginals = cmd_density(cfg, out, drop_violations)
    missing = [a for a in assets if a not in marginals]
    if missing:
        raise ValidationError(f"no calibrated marginal for asset(s) {missing}")
    chosen = [marginals[a] for a in assets]
    grid = PricingGrid.build(chosen, opts["qubits_per_dim"])
    measure = GridMeasure.build(payoff, chosen, spec, grid)

    rows = []
    for i, estimator in enumerate(opts["estimators"]):
        rng = np.random.default_rng([seed, 7000 + i])
        if estimator == "riemann":
            est = PriceEstimate(measure.reference_value(), grid.total_nodes, stderr=0.0)
        elif estimator.startswith("cmc-"):
            est = cmc_price(payoff, chosen, spec, estimator.removeprefix("cmc-"), opts["samples"], rng, measure=measure)
        else:
            est = qamc_price(
                payoff,
                chosen,
                spec,
                estimator.removeprefix("qamc-"),
                grid,
                ae_config,
                rng,
                measure=measure,
            )
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


@_stage("study")
def cmd_study(cfg: dict, kind: str, out: Path, seed: int) -> None:
    study = {"coeffs": "coeffs", "density": "density-recovery", "price": "price-convergence"}[kind]
    scfg = StudyConfig(study=study, seed=seed, **_section(cfg, "study"))
    if scfg.study == "coeffs":
        records, per_k, run_log = study_coeffs(scfg)
        # The slopes first: a ladder too short for a line stops the study before it writes a file.
        slopes = {
            method: fit_loglog_slope(
                [r.cost for r in records if r.method == method],
                [r.mean_abs_err for r in records if r.method == method],
            )
            for method in ("cmc", "qamc")
        }
        _write_csv(out / "study_coeffs.csv", [asdict(r) for r in records])
        _write_csv(out / "study_coeffs_per_k.csv", per_k)
        _write_csv(out / "study_coeffs_runs.csv", run_log)
        _write_json(out / "study_coeffs_slopes.json", slopes)
    elif scfg.study == "density-recovery":
        rows = study_density_recovery(scfg)
        _write_csv(out / "study_density.csv", rows)
    else:
        results = study_price_convergence(scfg)
        summary = {}
        for name, data in results.items():
            _write_csv(out / f"study_price_{name}.csv", [asdict(r) for r in data["records"]])
            summary[name] = {"reference": data["reference"]}
        _write_json(out / "study_price_references.json", summary)


@_stage("make-bundle")
def cmd_make_bundle(out: Path) -> None:
    """Synthetic 3-asset demo inputs: fixture-priced calls and puts, 12 strikes each, half-spread 0.01."""
    quotes = []
    spots = {}
    for name, (params, spot) in FIXTURES.items():
        slice_ = fixture_slice(name)
        strikes = np.linspace(0.82, 1.18, 12) * slice_.forward
        quotes.extend(generate_synthetic_quotes(params, slice_, strikes, spread=0.01))
        spots[name] = spot
    md.save_quotes(out / "quotes.csv", quotes)
    corr = {"assets": ["AXA", "CREDIT_AGRICOLE", "MICHELIN"], "sigma": BASKET_CORRELATION}
    _write_json(out / "corr.json", corr)
    # The demo config spells out every default of the sections that have one.
    config = {
        name: {key: default for key, (_, default) in _SECTIONS[name].items()}
        for name in ("calibration", "density", "pricing")
    }
    config.update(
        quotes_csv="quotes.csv",
        spots=spots,
        correlations="corr.json",
        payoff={"kind": "spread-call", "strike": 0.0, "assets": ["AXA", "MICHELIN"]},
        study={"repetitions": 32},
    )
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
            cmd_arb_check(cfg, out, args.drop_violations, cmd_ingest(cfg, out))
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
