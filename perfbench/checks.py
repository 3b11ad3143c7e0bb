"""Output checks for each workload, in the standard library only.

Each check returns (name, passed, detail).  Bounds come from the repository's
own pinned tolerances, or from an estimator's contract widened until a fixed
seed cannot break it by chance:

* CMC within 6 standard errors of the Riemann value (two-sided normal tail
  about 2e-9).
* QAMC within 4 epsilon of the Riemann value.  The (epsilon, rho) contract
  holds with probability 1 - rho = 0.95, so one seed in twenty may miss
  epsilon itself; missing 4 epsilon needs the Hoeffding interval at the last
  Grover depth to be wrong by several radii.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CMC_SIGMAS = 6.0
QAMC_EPSILONS = 4.0

# Riemann value of the fine-grid basket (three names, K=25, 2^7 nodes per
# dimension, 128-term fixture cosine marginals) at the commit that defined
# this benchmark.
FINE_GRID_REFERENCE_PIN = 2.1841704275078433
# tests/test_acceptance.py pins for the study setups.
STUDY_REFERENCE_PINS = {"spread": 12.394597730358317, "basket": 2.9351310237646007}
PIN_TOLERANCE = 1e-9

# Acceptance criterion 7 at target error 1e-3.
TARGET_ERROR = 1e-3
SLOPE_TARGETS = {"cmc": (-0.5, 0.1), "qamc-joint": (-1.0, 0.15), "qamc-independent": (-1.0, 0.15)}
SPEEDUP_BAND = (10.0, 100.0)
CONVERGENCE_FACTOR = 8.0
# Study seed at which tests/test_acceptance.py pins the statistical claims.
PINNED_STUDY_SEED = 0

# desk-pipeline: criterion 3 tolerances.
PARAM_REL_TOL = 0.02
RMSE_BP_MAX = 10.0
DESK_EPSILON = 1e-3


def _fit(xs, ys) -> tuple[float, float]:
    """Least-squares line y = slope x + intercept."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def _trimmed(costs, errors, trim=1):
    if trim > 0 and len(costs) > 2 * trim + 1:
        costs, errors = costs[trim:-trim], errors[trim:-trim]
    return [(c, e) for c, e in zip(costs, errors) if e > 0]


def loglog_slope(costs, errors) -> float:
    """Slope of log(error) on log(cost), ladder ends trimmed (criterion 7)."""
    pts = _trimmed(list(costs), list(errors))
    return _fit([math.log(c) for c, _ in pts], [math.log(e) for _, e in pts])[0]


def cost_at_error(costs, errors, target: float) -> float:
    """Cost at ``target`` error, read off the fitted log(cost)-on-log(error) line."""
    pts = _trimmed(list(costs), list(errors))
    slope, intercept = _fit([math.log(e) for _, e in pts], [math.log(c) for c, _ in pts])
    return math.exp(intercept + slope * math.log(target))


def _estimate_checks(prefix: str, rows: list[dict], reference: float, epsilon: float) -> list:
    out = []
    for row in rows:
        name = row["estimator"]
        err = abs(row["value"] - reference)
        if name.startswith("cmc-"):
            bound = CMC_SIGMAS * row["stderr"]
        elif name.startswith("qamc-"):
            bound = QAMC_EPSILONS * epsilon
        else:
            continue
        out.append((f"{prefix}.{name}", err <= bound and row["samples_or_queries"] >= 1,
                    f"|{name} - riemann| = {err:.3e} (<= {bound:.3e})"))
    return out


def check_desk(out_dir: Path, truth: dict) -> list:
    """Criterion 3 per calibrated name, plus each estimator against the Riemann price."""
    found = []
    rows = json.loads((out_dir / "calibration.json").read_text())
    seen = set()
    for row in rows:
        name = row["underlying"]
        seen.add(name)
        fitted = (row["alpha"], row["beta"], row["delta"])
        rel = max(abs(f - t) / abs(t) for f, t in zip(fitted, truth[name]))
        found.append((f"calibrate.{name}", rel <= PARAM_REL_TOL and row["rmse_bp"] <= RMSE_BP_MAX,
                      f"max rel param err {rel:.2e} (<= {PARAM_REL_TOL}), rmse {row['rmse_bp']:.3e}bp"))
    found.append(("calibrate.names", seen == set(truth), f"calibrated {sorted(seen)}"))
    prices = json.loads((out_dir / "prices.json").read_text())
    estimates = [
        {"estimator": p["estimator"], "value": p["value"], "stderr": p["stderr_or_eps"],
         "samples_or_queries": p["samples_or_queries"]}
        for p in prices
    ]
    riemann = [p["value"] for p in prices if p["estimator"] == "riemann"]
    found.append(("price.riemann", len(riemann) == 1 and len(prices) == 4, f"{len(prices)} price rows"))
    if riemann:
        found.extend(_estimate_checks("price", estimates, riemann[0], DESK_EPSILON))
    return found


def check_fine_grid(outputs: dict) -> list:
    rows = outputs["estimates"]
    ref = next(r["value"] for r in rows if r["estimator"] == "riemann")
    found = [("riemann.pin", abs(ref - FINE_GRID_REFERENCE_PIN) <= PIN_TOLERANCE,
              f"riemann {ref!r} vs pin {FINE_GRID_REFERENCE_PIN!r}")]
    found.extend(_estimate_checks("fine", rows, ref, outputs["epsilon"]))
    return found


def study_summary(outputs: dict) -> dict:
    """Slopes and cost ratios at the target error, per setup."""
    summary = {}
    for setup, data in outputs.items():
        by_method: dict[str, list] = {}
        for method, cost, err, *_ in data["records"]:
            by_method.setdefault(method, []).append((cost, err))
        slopes = {m: loglog_slope(*zip(*pts)) for m, pts in by_method.items()}
        costs = {m: cost_at_error(*zip(*pts), TARGET_ERROR) for m, pts in by_method.items()}
        summary[setup] = {
            "slopes": slopes,
            "costs": costs,
            "speedup": {m: costs["cmc"] / costs[m] for m in ("qamc-joint", "qamc-independent")},
        }
    return summary


def qae_speedup(outputs: dict) -> float:
    """Smallest CMC/QAMC cost ratio at the target error over setups and formulations."""
    return min(min(s["speedup"].values()) for s in study_summary(outputs).values())


def _criterion7(summary: dict) -> list:
    """Criterion 7's statistical claims: log-log slopes and the 10-100x band."""
    lo, hi = SPEEDUP_BAND
    found = []
    for setup, s in summary.items():
        for method, (target, tol) in SLOPE_TARGETS.items():
            slope = s["slopes"][method]
            found.append((f"{setup}.slope.{method}", abs(slope - target) <= tol,
                          f"slope {slope:.3f} ({target} +- {tol})"))
        for method, ratio in s["speedup"].items():
            found.append((f"{setup}.band.{method}", lo <= ratio <= hi,
                          f"cost ratio {ratio:.1f}x ({lo:g}-{hi:g}x)"))
    return found


def study_misses(outputs: dict) -> tuple[int, int]:
    """Criterion-7 slopes and speedups outside their tolerance or band."""
    claims = _criterion7(study_summary(outputs))
    return (sum(not ok for name, ok, _ in claims if ".slope." in name),
            sum(not ok for name, ok, _ in claims if ".band." in name))


def check_study(outputs: dict, seed: int) -> list:
    """Pinned references and contract bounds at every seed; criterion 7's
    statistical claims (slopes, 10-100x band) at the seed the repository pins."""
    found = []
    summary = study_summary(outputs)
    for setup, data in outputs.items():
        pin = STUDY_REFERENCE_PINS[setup]
        found.append((f"{setup}.pin", abs(data["reference"] - pin) <= PIN_TOLERANCE,
                      f"reference {data['reference']!r} vs pin {pin!r}"))
        # Repetitions of an (eps, rho = 0.05) estimator average an error below eps.
        for method in ("qamc-joint", "qamc-independent"):
            errs = [r[2] for r in data["records"] if r[0] == method]
            ok = len(errs) == len(data["epsilons"]) and all(e <= eps for e, eps in zip(errs, data["epsilons"]))
            found.append((f"{setup}.contract.{method}", ok,
                          "mean abs err per eps " + ", ".join(f"{e:.2e}" for e in errs)))
        # Across the ladder CMC error falls ~32x and QAMC error ~40x; 8x is far outside seed noise.
        for method in ("cmc", "qamc-joint", "qamc-independent"):
            errs = [r[2] for r in data["records"] if r[0] == method]
            found.append((f"{setup}.converges.{method}", errs[-1] * CONVERGENCE_FACTOR <= errs[0],
                          f"mean abs err {errs[0]:.2e} -> {errs[-1]:.2e} (>= {CONVERGENCE_FACTOR:g}x drop)"))
        costs = summary[setup]["costs"]
        found.append((f"{setup}.joint_cheaper", costs["qamc-joint"] <= costs["qamc-independent"],
                      f"cost at 1e-3: joint {costs['qamc-joint']:.0f} <= indep {costs['qamc-independent']:.0f}"))
    if seed == PINNED_STUDY_SEED:
        found.extend(_criterion7(summary))
    return found
