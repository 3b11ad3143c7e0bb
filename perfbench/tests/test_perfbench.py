"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They start real pass processes, so they take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Sum of self times of a traced pass against the pass's wall time, measured
# outside the root span.
SELF_SUM_SHARE = 0.01


def _child(*args):
    return subprocess.run([sys.executable, str(BENCH / "child.py"), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)


def _pass(tmp: Path, workload: str, seed: int, trace: int) -> dict:
    if workload == "desk-pipeline" and not (tmp / "inputs").exists():
        assert _child("inputs", "--workload", workload, "--seed", seed, "--dir", tmp / "inputs").returncode == 0
    proc = _child("pass", "--workload", workload, "--seed", seed, "--dir", tmp / f"pass-{trace}",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp / f"pass-{trace}" / "result.json").read_text())


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    return {"untraced": _pass(tmp, "desk-pipeline", 0, 0), "traced": _pass(tmp, "desk-pipeline", 0, 1)}


def _run_benchmark(trace: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "desk-pipeline", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_emitted_names_match_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = _run_benchmark(trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in out["metrics"].items()} == expected


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    emitted = run.layer_metrics("paper-study", {"error": "not run"}, 1.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in emitted.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(child.WORKLOADS) == list(child.SETUPS)


def test_no_wrapper_in_untraced_pass(desk):
    assert desk["untraced"]["wrappers_active"] == []
    assert desk["untraced"]["tracer_loaded"] is False
    # The same probe does see the wrappers of a traced pass.
    assert "qamcpricer.calibration.price_european_batch" in desk["traced"]["wrappers_active"]
    assert "qamcpricer.pricing.GridMeasure" in desk["traced"]["wrappers_active"]


def test_self_times_sum_to_pass_wall(desk):
    traced = desk["traced"]
    total = sum(traced["pass_self_times"].values())
    assert abs(total - traced["pass_s"]) <= SELF_SUM_SHARE * traced["pass_s"]
    assert all(t >= 0.0 for t in traced["pass_self_times"].values())


def test_desk_seed0_reproduces_calibration_counts(desk):
    slices = {s["underlying"]: s for s in desk["traced"]["calibrate_slices"]}
    axa = slices["AXA"]
    assert (axa["quotes"], axa["iterations"], axa["pricing_batches"], axa["nig_pdf_calls"]) == (24, 51, 338, 28434)
    assert [slices[n]["iterations"] for n in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")] == [51, 48, 49]
    layers = desk["traced"]["layers"]
    assert layers["calibration.iterations"] == 148
    assert layers["market_data.quotes"] == 72
    assert desk["traced"]["outputs"] == desk["untraced"]["outputs"] == {"exit_code": 0}


def test_fine_grid_pass_counts(tmp_path):
    layers = _pass(tmp_path, "fine-grid-basket", 0, 1)["layers"]
    nodes = 2 ** (3 * child.FINE_QUBITS)
    assert nodes == 2_097_152
    assert layers["pricing.measure_builds"] == 4
    assert layers["pricing.grid_nodes"] == 4 * nodes
    assert layers["copula.weights_calls"] == 8
    assert layers["copula.weights_nodes"] == 8 * nodes
    assert layers["calibration.calibrate_s"] == 0.0


def test_stdlib_fits_match_package():
    from qamcpricer.experiments import cost_at_error, fit_loglog_slope

    costs = [512.0, 2048.0, 8192.0, 32768.0, 131072.0, 524288.0]
    errors = [0.21, 0.1, 0.052, 0.0275, 0.0124, 0.0071]
    assert math.isclose(checks.loglog_slope(costs, errors), fit_loglog_slope(costs, errors), rel_tol=1e-9)
    assert math.isclose(checks.cost_at_error(costs, errors, 1e-3), cost_at_error(costs, errors, target=1e-3),
                        rel_tol=1e-9)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "desk-pipeline", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
