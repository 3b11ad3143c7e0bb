"""One benchmark pass in a fresh process, or the generation of a run's inputs.

    python3 perfbench/child.py inputs --workload W --seed S --dir D
    python3 perfbench/child.py pass --workload W --seed S --dir D --trace 0|1

A pass imports qamcpricer from the checkout's ``src``, builds the workload's
inputs (its set-up), runs one unit of work and writes ``D/result.json``.
Each pass is its own process so that no process-global cache filled by an
earlier pass (``nig._pricing_interval`` is an ``lru_cache``) serves a later
one: a CLI user pays the cold cost on every run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("desk-pipeline", "fine-grid-basket", "paper-study")

# fine-grid-basket: 2^7 nodes per dimension over 3 names, priced as cmd_price does.
FINE_QUBITS = 7
FINE_ESTIMATORS = ("riemann", "cmc-joint", "qamc-joint", "qamc-independent")
FINE_SAMPLES = 2**16
FINE_EPSILON = 1e-3
FINE_RHO = 0.05

# paper-study: the acceptance criterion-7 configuration.
STUDY_REPETITIONS = 128
STUDY_SAMPLES = (2**9, 2**11, 2**13, 2**15, 2**17, 2**19)
STUDY_EPSILONS = (2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4)


def import_package():
    """Import qamcpricer from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "qamcpricer" / "__init__.py").is_file():
        raise SystemExit(f"qamcpricer sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qamcpricer

    if Path(qamcpricer.__file__).resolve().parent != SRC / "qamcpricer":
        raise SystemExit(f"imported qamcpricer from {qamcpricer.__file__}, not {SRC}")
    return qamcpricer


def make_desk_bundle(out: Path) -> dict:
    """Write the ``qamcpricer make-bundle`` demo (3 names, 1Y, 12 strikes, C+P,
    half-spread 0.01) and return its generating NIG parameters per name.

    Every seed prices this bundle; the seed is the pipeline's ``--seed``.
    """
    from qamcpricer import cli, experiments

    if cli.main(["make-bundle", "--out", str(out)]) != 0:
        raise SystemExit("make-bundle failed")
    return {name: [p.alpha, p.beta, p.delta] for name, (p, _) in experiments.FIXTURES.items()}


# -- workloads: set-up returns the pass as a closure, run returns its outputs --


def setup_desk(seed: int, work: Path):
    from qamcpricer import cli

    config = str(work.parent / "inputs" / "config.json")
    out = str(work / "out")

    def run():
        return {"exit_code": cli.main(["pipeline", "--config", config, "--out", out, "--seed", str(seed)])}

    return run


def setup_fine_grid(seed: int, work: Path):
    import numpy as np
    from qamcpricer import copula, experiments, pricing, qamc

    marginals = [experiments.fixture_marginal(name) for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN")]
    grid = pricing.PricingGrid.build(marginals, FINE_QUBITS)
    spec = copula.CopulaSpec.from_matrix(experiments.BASKET_CORRELATION)
    payoff = pricing.Payoff("basket-call", experiments.BASKET_STRIKE)

    def run():
        rows = []
        for i, estimator in enumerate(FINE_ESTIMATORS):
            rng = np.random.default_rng([seed, 7000 + i])
            if estimator == "riemann":
                est = pricing.riemann_reference(payoff, marginals, spec, grid)
            elif estimator == "cmc-joint":
                est = pricing.cmc_price(payoff, marginals, spec, "joint", FINE_SAMPLES, rng, grid=grid)
            else:
                cfg = qamc.AEConfig(epsilon=FINE_EPSILON, rho=FINE_RHO, seed=seed)
                est = qamc.qamc_price(payoff, marginals, spec, estimator.removeprefix("qamc-"), grid, cfg, rng)
            rows.append({"estimator": estimator, "value": est.value, "stderr": est.stderr,
                         "samples_or_queries": est.samples_or_queries})
        return {"estimates": rows, "epsilon": FINE_EPSILON}

    return run


def setup_study(seed: int, work: Path):
    from qamcpricer import experiments

    cfg = experiments.StudyConfig(
        study="price-convergence",
        repetitions=STUDY_REPETITIONS,
        seed=seed,
        sample_ladder=STUDY_SAMPLES,
        epsilon_ladder=STUDY_EPSILONS,
    )

    def run():
        results = experiments.study_price_convergence(cfg)
        return {
            name: {
                "reference": data["reference"],
                "epsilons": list(STUDY_EPSILONS),
                "records": [[r.method, r.cost, r.mean_abs_err, r.ci90_lo, r.ci90_hi] for r in data["records"]],
            }
            for name, data in results.items()
        }

    return run


SETUPS = {"desk-pipeline": setup_desk, "fine-grid-basket": setup_fine_grid, "paper-study": setup_study}


def active_wrappers() -> list[str]:
    """qamcpricer attributes currently replaced by a benchmark wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "qamcpricer" and not name.startswith("qamcpricer."):
            continue
        for attr, value in list(vars(module).items()):
            target = vars(value).get("build") if isinstance(value, type) else value
            if hasattr(getattr(target, "__func__", target), "__perfbench__"):
                found.append(f"{name}.{attr}")
    return found


def versions() -> dict:
    import numpy
    import scipy
    import qamcpricer

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"qamcpricer": qamcpricer.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_pass(workload: str, seed: int, work: Path, traced: bool) -> dict:
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    import_package()
    if tracer is not None:
        spans.install(tracer)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("setup"):
        run = SETUPS[workload](seed, work)

    first_call = time.monotonic()
    start = time.perf_counter()
    with span("pass"):
        outputs = run()
    pass_s = time.perf_counter() - start

    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "first_call_monotonic": first_call,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "wrappers_active": active_wrappers(),
        "tracer_loaded": "spans" in sys.modules,
        "versions": versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        root = next(sid for sid, _, name, *_ in tracer.spans if name == "pass")
        result["pass_self_times"] = tracer.self_times(root)
        result["calibrate_slices"] = tracer.slices
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["inputs", "pass"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "inputs":
        import_package()
        truth = make_desk_bundle(args.dir) if args.workload == "desk-pipeline" else {}
        (args.dir / "truth.json").write_text(json.dumps(truth))
        return 0
    result = run_pass(args.workload, args.seed, args.dir, bool(args.trace))
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
