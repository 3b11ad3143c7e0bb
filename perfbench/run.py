"""qamcpricer benchmark: one workload, closed loop, one pass per fresh process.

    python3 perfbench/run.py --workload desk-pipeline --seed 0 --seconds 30 --trace 0

Runs untraced passes back to back (one client, the next pass starts when the
previous one has exited) for about ``--seconds``, at least MIN_PASSES of
them, and checks every pass's outputs.  With ``--trace 1`` one more pass runs
with counting wrappers installed and gives the per-layer metrics.  Prints one
line per metric, a manifest line, and as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
# Passes are not started once the run would predictably pass this many
# seconds, so a run ends well inside three minutes on a slower host.
RUN_BUDGET_S = 150.0

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )


def run_pass(workload: str, seed: int, run_dir: Path, index: int, traced: bool, timeout: float) -> dict:
    """Spawn one pass, wait for it, and check its outputs."""
    pass_dir = run_dir / f"pass-{index:02d}"
    spawned = time.monotonic()
    try:
        proc = _child(["pass", "--workload", workload, "--seed", str(seed), "--dir", str(pass_dir),
                       "--trace", str(int(traced))], timeout)
        error = proc.stderr.strip()[-2000:] if proc.returncode else None
    except subprocess.TimeoutExpired:
        error = f"pass exceeded {timeout:.0f}s"
    wall = time.monotonic() - spawned
    result_file = pass_dir / "result.json"
    if error is not None or not result_file.exists():
        return {"wall_s": wall, "traced": traced, "error": error or "no result written",
                "checks": [("pass.exit", False, error or "no result written")]}
    result = json.loads(result_file.read_text())
    result["wall_s"] = wall
    result["setup_s"] = result["first_call_monotonic"] - spawned
    try:
        result["checks"] = output_checks(workload, seed, run_dir, pass_dir, result["outputs"])
    except (OSError, KeyError, ValueError, StopIteration, ZeroDivisionError) as exc:
        result["checks"] = [("outputs.readable", False, f"{type(exc).__name__}: {exc}")]
    return result


def output_checks(workload: str, seed: int, run_dir: Path, pass_dir: Path, outputs: dict) -> list:
    if workload == "desk-pipeline":
        exit_ok = outputs["exit_code"] == 0
        found = [("pipeline.exit", exit_ok, f"exit code {outputs['exit_code']}")]
        if exit_ok:
            truth = json.loads((run_dir / "inputs" / "truth.json").read_text())
            found += checks.check_desk(pass_dir / "out", truth)
        return found
    if workload == "fine-grid-basket":
        return checks.check_fine_grid(outputs)
    return checks.check_study(outputs, seed)


def manifest(workload: str, seed: int, seconds: int, trace: int, passes: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "untraced_passes": sum(1 for p in passes if not p.get("traced")),
        "traced_passes": sum(1 for p in passes if p.get("traced")),
        "passes": [{key: p.get(key) for key in ("traced", "wall_s", "setup_s", "pass_s")} for p in passes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qamcpricer" / "__init__.py").is_file():
        print(f"error: no qamcpricer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(args, started, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, started: float, run_dir: Path) -> int:
    proc = _child(["inputs", "--workload", args.workload, "--seed", str(args.seed),
                   "--dir", str(run_dir / "inputs")], RUN_BUDGET_S)
    if proc.returncode:
        print(f"error: input generation failed:\n{proc.stderr}", file=sys.stderr)
        return 2

    passes: list[dict] = []
    loop_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        timeout = max(10.0, 170.0 - elapsed)
        passes.append(run_pass(args.workload, args.seed, run_dir, len(passes), False, timeout))
        mean_wall = statistics.fmean(p["wall_s"] for p in passes)
        in_loop = time.monotonic() - loop_start
        in_run = time.monotonic() - started
        reserve = mean_wall * (1 + args.trace)  # the next pass, and the traced one
        if in_run + reserve > RUN_BUDGET_S:
            break
        if len(passes) >= MIN_PASSES and in_loop + mean_wall > args.seconds:
            break
    if args.trace:
        timeout = max(10.0, 170.0 - (time.monotonic() - started))
        passes.append(run_pass(args.workload, args.seed, run_dir, len(passes), True, timeout))

    all_checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in all_checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    good = [p for p in passes if "error" not in p and not p.get("traced")]
    if good:
        e2e = {name: statistics.median(p[name] for p in good) for name in END_TO_END}
    else:  # every pass failed: report what the parent saw
        wall = statistics.median(p["wall_s"] for p in passes)
        e2e = {"setup_s": wall, "pass_s": wall, "peak_rss_mb": _children_rss_mb()}
    untraced = sum(1 for p in passes if not p.get("traced"))
    print(f"workload {args.workload} seed {args.seed}: {len(good)} of {untraced} untraced passes ok, "
          f"{len(all_checks)} checks, failed_frac {len(failed) / max(len(all_checks), 1):.4f}")
    for name, unit in END_TO_END.items():
        print(f"  {name} {e2e[name]:.6g} {unit} (median of {len(good)})")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        metrics = layer_metrics(args.workload, passes[-1], e2e["pass_s"])
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")

    info = manifest(args.workload, args.seed, args.seconds, args.trace, passes)
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(all_checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def layer_metrics(workload: str, traced: dict, untraced_pass_s: float) -> dict:
    """Per-layer metrics of the traced pass, plus tracing overhead and study statistics."""
    import spans

    units = dict(spans.LAYER_METRICS)
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s", "trace.self_sum_s": "s",
                  "qae_speedup_1e-3": "x", "experiments.slope_misses": "count",
                  "experiments.band_misses": "count"})
    values = {name: 0 for name in units}
    if "error" not in traced:
        values.update(traced["layers"])
        values["trace.pass_s"] = traced["pass_s"]
        values["trace.overhead_s"] = traced["pass_s"] - untraced_pass_s
        values["trace.self_sum_s"] = sum(traced["pass_self_times"].values())
        if workload == "paper-study":
            values["qae_speedup_1e-3"] = checks.qae_speedup(traced["outputs"])
            values["experiments.slope_misses"], values["experiments.band_misses"] = (
                checks.study_misses(traced["outputs"]))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
