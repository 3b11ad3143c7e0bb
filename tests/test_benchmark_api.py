"""The benchmark's traced pass must still find every name it wraps."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120
    )


def test_tracer_installs_on_the_package():
    proc = _run("import child, spans; child.import_package(); spans.install(spans.Tracer())")
    assert proc.returncode == 0, proc.stderr


COUNT_EVALS = """
import json
import numpy as np
from dataclasses import replace
import child, spans
child.import_package()
from qamcpricer import calibration, experiments
from qamcpricer.market_data import generate_synthetic_quotes

tracer = spans.Tracer()
spans.install(tracer)
calls = []
model_prices = calibration._model_prices

def counting(*args, **kwargs):
    calls.append(1)
    return model_prices(*args, **kwargs)

calibration._model_prices = counting
params, _ = experiments.FIXTURES["MICHELIN"]
slice_ = experiments.fixture_slice("MICHELIN")
strikes = np.linspace(0.82, 1.18, 12) * slice_.forward
slice_ = replace(slice_, quotes=tuple(generate_synthetic_quotes(params, slice_, strikes, 0.01)))
before = tracer.counts["calibration.objective_evals"]
result = calibration.calibrate(slice_, calibration.CalibrationConfig())
print(json.dumps([len(calls), tracer.counts["calibration.objective_evals"] - before,
                  1 + result.iterations]))
"""


def test_objective_evals_count_pricing_batches():
    # The traced pass counts calibration's pricing batches on the module
    # attribute calibration.price_european_batch: one per _model_prices call,
    # that is one stacked batch for the whole lattice (scored inside the
    # pricer in node-budget blocks) and one per fit evaluation.
    proc = _run(COUNT_EVALS)
    assert proc.returncode == 0, proc.stderr
    calls, evals, expected = json.loads(proc.stdout.strip().splitlines()[-1])
    assert evals == calls == expected


SUPPORT_SPANS = """
import json
import child, spans
child.import_package()
from qamcpricer import experiments, nig

tracer = spans.Tracer()
spans.install(tracer)
params, _ = experiments.FIXTURES["AXA"]
nig.support_interval(params, 1.0, 1e-5)
names = [span[2] for span in tracer.spans]
print(json.dumps([names.count("nig.support_interval"), names.count("numerics.integrate")]))
"""


def test_support_interval_integrates_through_the_traced_kernel():
    # The tail bisection reaches numerics.integrate through nig's module
    # global, so the traced pass counts each of its quadratures.
    proc = _run(SUPPORT_SPANS)
    assert proc.returncode == 0, proc.stderr
    supports, integrals = json.loads(proc.stdout.strip().splitlines()[-1])
    assert supports == 1 and integrals > 0


C_MAX_SPANS = """
import json
import child, spans
child.import_package()
from qamcpricer import experiments, pricing

tracer = spans.Tracer()
spans.install(tracer)
for setup in (experiments.spread_setup, experiments.basket_setup):
    pricing.GridMeasure.build(*setup())
names = [span[2] for span in tracer.spans]
metrics = tracer.metrics()
print(json.dumps([names.count("pricing.GridMeasure.build"), names.count("copula.grid_c_max"),
                  metrics["copula.c_max_s"]]))
"""


def test_measure_build_reaches_the_traced_c_max():
    # GridMeasure.build takes c_max through pricing's module global
    # grid_c_max, so copula.c_max_s times one bound per build.
    proc = _run(C_MAX_SPANS)
    assert proc.returncode == 0, proc.stderr
    builds, bounds, c_max_s = json.loads(proc.stdout.strip().splitlines()[-1])
    assert builds == bounds == 2 and c_max_s > 0.0


SLAB_SPANS = """
import json
import child, spans
child.import_package()
from qamcpricer import experiments, pricing

tracer = spans.Tracer()
spans.install(tracer)
payoff, marginals, spec, _ = experiments.basket_setup()
grid = pricing.PricingGrid.build(marginals, 6)
for _ in range(2):
    pricing.GridMeasure.build(payoff, marginals, spec, grid)
names = [span[2] for span in tracer.spans]
metrics = tracer.metrics()
print(json.dumps([grid.total_nodes, len(list(pricing._row_slabs(grid))), names.count("pricing.GridMeasure.build"),
                  metrics["copula.weights_calls"], names.count("copula.grid_c_max"), metrics["copula.weights_nodes"]]))
"""


def test_slab_build_reaches_the_traced_copula_kernels():
    # A multi-slab build calls copula_weights_on_grid and grid_c_max once
    # per slab through pricing's module globals, so copula.weights_calls
    # counts slabs and copula.weights_nodes counts each node once per build.
    proc = _run(SLAB_SPANS)
    assert proc.returncode == 0, proc.stderr
    nodes, slabs, builds, weights_calls, bounds, weights_nodes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert slabs > 1 and builds == 2
    assert weights_calls == bounds == builds * slabs
    assert weights_nodes == builds * nodes == 2 * 2**18


DENSITY_SPANS = """
import json
import numpy as np
import child, spans
child.import_package()
from qamcpricer import cosine_density, experiments

tracer = spans.Tracer()
spans.install(tracer)
marginals = [experiments.fixture_marginal(name) for name in sorted(experiments.FIXTURES)]
iv = marginals[0].series.interval
xs = np.linspace(iv.a, iv.b, 3 * cosine_density._POINT_BLOCK + 1, endpoint=False)
marginals[0].pdf(xs)
marginals[0].cdf(xs)
names = [span[2] for span in tracer.spans]
metrics = tracer.metrics()
print(json.dumps([len(marginals), names.count("cosine_density.coeffs_classical"), xs.size,
                  metrics["cosine_density.eval_pdf_points"], metrics["cosine_density.eval_cdf_points"],
                  names.count("cosine_density.eval_cdf")]))
"""


def test_density_stage_counts_each_marginal_and_point_once():
    # A marginal fit reaches coeffs_classical through pricing's module
    # global, once per marginal.  The pdf and CDF take their points in
    # blocks without re-entering the wrapped eval_pdf and eval_cdf, so the
    # point counters see each point once however many blocks it spans.
    proc = _run(DENSITY_SPANS)
    assert proc.returncode == 0, proc.stderr
    fits, projections, points, pdf_points, cdf_points, cdf_calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert fits == projections == 3
    assert pdf_points == cdf_points == points
    assert cdf_calls == 1
