"""Tests for the study harness and the command-line pipeline."""

import csv
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from qamcpricer import cli, experiments, pricing
from qamcpricer.cli import _build_parser, _write_json, main
from qamcpricer.cosine_density import CosineSeries, Interval
from qamcpricer.errors import ValidationError
from qamcpricer.experiments import (
    FIXTURES,
    ConvergenceRecord,
    StudyConfig,
    basket_setup,
    cost_at_error,
    fit_loglog_slope,
    fixture_marginal,
    fixture_slice,
    spread_setup,
    study_coeffs,
    study_density_recovery,
    study_price_convergence,
)


class TestStudyConfig:
    def test_defaults_valid(self):
        StudyConfig()

    def test_zero_length_ladder_rejected(self):
        with pytest.raises(ValidationError):
            StudyConfig(epsilon_ladder=())

    def test_unsorted_ladders_rejected(self):
        with pytest.raises(ValidationError):
            StudyConfig(sample_ladder=(1024, 256))
        with pytest.raises(ValidationError):
            StudyConfig(epsilon_ladder=(1e-3, 1e-2))

    def test_unknown_study(self):
        with pytest.raises(ValidationError):
            StudyConfig(study="other")

    @pytest.mark.parametrize(
        "fields",
        [
            {"epsilon_ladder": (math.nan,)}, {"epsilon_ladder": (0.0,)}, {"epsilon_ladder": (-1.0,)},
            {"epsilon_ladder": (1.0,)}, {"epsilon_ladder": (5e-324,)}, {"sample_ladder": (0, 4)}, {"sample_ladder": (-4, 4)},
            {"terms": 1}, {"terms": 0}, {"recovery_terms": (0,)},
            {"sample_ladder": (2, 3)}, {"epsilon_ladder": (0.5, 0.4)},
            {"rho": 0.0}, {"rho": 1.5}, {"qubits": 0}, {"matched_cost": 0},
        ],
        ids=repr,
    )
    def test_unrunnable_ladders_rejected(self, fields):
        with pytest.raises(ValidationError):
            StudyConfig(**fields)

    def test_benchmarked_ladders_keep_their_seed_tags(self):
        # The tags of the default and the criterion-7 ladders are distinct, so
        # they pass the shared-tag check with their seeds unchanged.
        cfg = StudyConfig(sample_ladder=tuple(2**n for n in range(9, 20, 2)))
        assert [experiments._sample_tag(n) for n in cfg.sample_ladder] == [9, 11, 13, 15, 17, 19]
        assert [experiments._epsilon_tag(e) for e in cfg.epsilon_ladder] == [50, 100, 200, 500, 1000, 2000]


class TestRecordsAndFits:
    def test_record_invariant(self):
        ConvergenceRecord("cmc", 100.0, 0.5, 0.1, 0.9)
        ConvergenceRecord("cmc", 100.0, 1.5, 0.1, 0.9)  # a mean may lie above the 95th percentile
        for numbers in ((100.0, 0.5, 0.9, 0.1), (100.0, 0.5, -0.1, 0.9), (100.0, -0.5, 0.1, 0.9),
                        (math.nan, 0.5, 0.1, 0.9), (100.0, math.inf, 0.1, 0.9), (100.0, 0.5, 0.1, math.nan)):
            with pytest.raises(ValidationError):
                ConvergenceRecord("cmc", *numbers)

    def test_record_of_rare_large_errors(self):
        # Six misses in 128 is within what rho = 0.05 allows; their mean lies
        # above the 95th percentile, which is still one of the small errors.
        errors = np.array([1e-4] * 122 + [1e-2] * 6)
        record = experiments._percentile_record("qamc-joint", 1000.0, errors)
        assert record.ci90_hi == 1e-4 < record.mean_abs_err

    def test_slope_on_exact_power_law(self):
        costs = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        errors = 3.0 / np.sqrt(costs)
        assert fit_loglog_slope(costs, errors) == pytest.approx(-0.5, abs=1e-12)

    def test_cost_at_error_on_exact_power_law(self):
        costs = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        errors = 3.0 / costs
        assert cost_at_error(costs, errors, 1e-3) == pytest.approx(3000.0, rel=1e-9)

    @pytest.mark.parametrize("fit", [fit_loglog_slope, lambda c, e: cost_at_error(c, e, 1e-3)],
                             ids=["slope", "cost-at-error"])
    @pytest.mark.parametrize("costs, errors", [([256.0], [0.1]), ([256.0, 1024.0, 4096.0], [0.1, 0.0, 0.0])],
                             ids=["one-point", "one-nonzero-error"])
    def test_loglog_fit_needs_two_points(self, fit, costs, errors):
        with pytest.raises(ValidationError, match="needs 2 points"):
            fit(costs, errors)

    def test_ci90_is_numpy_percentile_bit_for_bit(self):
        # Sizes 1-299, 512 and 1000; continuous values over many scales, ties
        # (rounded, without -0.0) and absolute values, like the studies' errors.
        rng = np.random.default_rng(0)
        for size in [*range(1, 300), 512, 1000]:
            for shape in ("continuous", "ties", "absolute"):
                values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
                if shape == "ties":
                    values = np.round(values, 1) + 0.0
                elif shape == "absolute":
                    values = np.abs(values)
                _, lo, hi = experiments._order_stats(values)
                assert (lo.hex(), hi.hex()) == (
                    float(np.percentile(values, 5)).hex(), float(np.percentile(values, 95)).hex()
                ), (size, shape)

    def test_median_is_numpy_median_bit_for_bit(self):
        # Odd sizes take the middle value, even sizes (a + b) / 2 of the
        # middle pair; the same value shapes as the percentile check.
        rng = np.random.default_rng(1)
        for size in [*range(1, 300), 512, 1000]:
            for shape in ("continuous", "ties", "absolute"):
                values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
                if shape == "ties":
                    values = np.round(values, 1) + 0.0
                elif shape == "absolute":
                    values = np.abs(values)
                median, _, _ = experiments._order_stats(values)
                assert median.hex() == float(np.median(values)).hex(), (size, shape)


class TestFixtures:
    def test_slices_consistent(self):
        for name in FIXTURES:
            slc = fixture_slice(name)
            assert slc.spot > 0
            assert slc.forward == pytest.approx(slc.spot * math.exp(0.02))

    def test_marginal_mass_near_one(self):
        marginal = fixture_marginal("AXA")
        a, b = marginal.interval
        xs = np.linspace(a, b, 4001)
        mass = np.trapezoid(np.asarray(marginal.pdf(xs)), xs)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_setups_shapes(self):
        payoff, marginals, spec, grid = spread_setup()
        assert len(marginals) == 2 and spec.dim == 2 and grid.total_nodes == 64
        payoff, marginals, spec, grid = basket_setup()
        assert len(marginals) == 3 and spec.dim == 3 and grid.total_nodes == 64


RUN_LOG_COLUMNS = ["algo", "target", "epsilon", "rho", "estimate", "abs_err", "queries", "seed"]


@pytest.fixture(scope="module")
def small_cfg():
    return StudyConfig(
        repetitions=8,
        epsilon_ladder=(2e-2, 1e-2, 5e-3),
        sample_ladder=(2**8, 2**10, 2**12),
        recovery_terms=(8, 16),
    )


class TestStudies:
    def test_coeffs_structure_and_reproducibility(self, small_cfg):
        records, per_k, run_log = study_coeffs(small_cfg)
        assert {r.method for r in records} == {"cmc", "qamc"}
        assert len(records) == len(small_cfg.epsilon_ladder) + len(small_cfg.sample_ladder)
        again, _, _ = study_coeffs(small_cfg)
        assert records == again  # bit-for-bit from (config, seed)
        # One run-log row per (epsilon, k >= 1) of the first repetition, its numbers Python floats.
        assert len(run_log) == len(small_cfg.epsilon_ladder) * (small_cfg.terms - 1)
        for row in run_log:
            assert list(row) == RUN_LOG_COLUMNS
            assert all(type(row[name]) is float for name in ("target", "epsilon", "rho", "estimate", "abs_err"))
            assert row["abs_err"] == abs(row["estimate"] - row["target"])
            assert type(row["queries"]) is int and row["queries"] > 0

    def test_coeffs_error_decreases_with_cost(self, small_cfg):
        records, _, _ = study_coeffs(small_cfg)
        cmc = [r.mean_abs_err for r in records if r.method == "cmc"]
        assert cmc[0] > cmc[-1]
        qam = [r.mean_abs_err for r in records if r.method == "qamc"]
        assert qam[0] > qam[-1]

    def test_density_recovery_rows(self, small_cfg):
        rows = study_density_recovery(small_cfg)
        assert len(rows) == 2 * len(small_cfg.recovery_terms)
        for row in rows:
            assert row["sup_pdf_ci90_lo"] <= row["sup_pdf_err_median"] <= row["sup_pdf_ci90_hi"]

    def test_price_convergence_shapes(self, small_cfg):
        out = study_price_convergence(small_cfg)
        assert set(out) == {"spread", "basket"}
        for data in out.values():
            assert data["reference"] > 0
            assert {r.method for r in data["records"]} == {"cmc", "qamc-joint", "qamc-independent"}

    def test_price_convergence_in_one_process_matches_two(self, small_cfg, monkeypatch):
        # The setups share no generator, so forking one of them off changes no bit and no order.
        def run(cpus):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            return [
                (name, data["reference"].hex(),
                 [(r.method, *(v.hex() for v in (r.cost, r.mean_abs_err, r.ci90_lo, r.ci90_hi)))
                  for r in data["records"]])
                for name, data in study_price_convergence(small_cfg).items()
            ]

        serial = run(1)
        assert [name for name, *_ in serial] == ["spread", "basket"]
        assert run(2) == serial


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exit_3():
    os._exit(3)


def _bad_spot():
    raise ValidationError("spot must be finite and positive, got -1.0")


class TestForkJoin:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    def test_results_in_task_order_one_child_per_extra_cpu(self):
        parent = os.getpid()
        results = experiments._fork_join([lambda i=i: (i, os.getpid()) for i in range(5)])
        assert [i for i, _ in results] == list(range(5))
        # Waves of two: the first task of each here, the second in a child.
        assert [pid == parent for _, pid in results] == [True, False, True, False, True]
        _no_child_left()

    def test_one_cpu_runs_every_task_here(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
        assert experiments._fork_join([os.getpid, os.getpid]) == [os.getpid()] * 2

    def test_child_exception_is_raised_with_its_type_and_message(self):
        with pytest.raises(ValidationError, match=r"^spot must be finite and positive, got -1\.0$"):
            experiments._fork_join([lambda: 1, _bad_spot])
        _no_child_left()

    def test_child_without_a_result_names_its_exit_status(self):
        with pytest.raises(RuntimeError, match="exit status 3"):
            experiments._fork_join([lambda: 1, _exit_3])
        _no_child_left()

    def test_failing_task_here_stops_the_children(self):
        # A child whose result is no longer wanted is killed, not waited for.
        start = time.monotonic()
        with pytest.raises(ValidationError):
            experiments._fork_join([_bad_spot, lambda: time.sleep(60)])
        assert time.monotonic() - start < 30
        _no_child_left()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    assert main(["make-bundle", "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def pipeline_out(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    rc = main(["pipeline", "--config", str(bundle / "config.json"), "--out", str(out), "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def price_run(bundle, tmp_path_factory):
    """A ``price --seed 7`` run and the number of grid measures it built."""
    out = tmp_path_factory.mktemp("price")
    build = pricing.GridMeasure.build.__func__
    builds = []

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pricing.GridMeasure, "build", classmethod(counted))
        rc = main(["price", "--config", str(bundle / "config.json"), "--out", str(out), "--seed", "7"])
    assert rc == 0
    return out, len(builds)


@pytest.fixture(scope="module")
def study_run(bundle, tmp_path_factory):
    """The study section and the output directory of one run of each study command."""
    root = tmp_path_factory.mktemp("study")
    study = {"repetitions": 4, "epsilon_ladder": [2e-2, 1e-2], "sample_ladder": [256, 1024], "recovery_terms": [8]}
    cfg = json.loads((bundle / "config.json").read_text())
    cfg.update(study=study, quotes_csv=str(bundle / "quotes.csv"), correlations=str(bundle / "corr.json"))
    cfg_path = root / "study_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = root / "out"
    for kind in ("coeffs", "density", "price"):
        assert main(["study", kind, "--config", str(cfg_path), "--out", str(out)]) == 0
    return study, out


class TestCli:
    def test_bundle_contents(self, bundle):
        assert {p.name for p in bundle.iterdir()} == {"quotes.csv", "corr.json", "config.json"}

    def test_pipeline_artifact_tree(self, pipeline_out):
        names = {p.name for p in pipeline_out.iterdir()}
        assert {"ingest_summary.json", "curves.json", "arb_report.json",
                "calibration.json", "prices.json"} <= names
        assert {"density_AXA.json", "density_CREDIT_AGRICOLE.json", "density_MICHELIN.json"} <= names

    def test_curves_schema_and_values(self, pipeline_out):
        rows = json.loads((pipeline_out / "curves.json").read_text())
        assert {"underlying", "expiry_years", "df", "forward", "r", "q"} == set(rows[0])
        for row in rows:
            assert row["df"] == pytest.approx(math.exp(-0.02), rel=1e-8)
            spot = FIXTURES[row["underlying"]][1]
            assert row["forward"] == pytest.approx(spot * math.exp(0.02), rel=1e-8)

    def test_calibration_schema_and_recovery(self, pipeline_out):
        rows = json.loads((pipeline_out / "calibration.json").read_text())
        assert {"underlying", "expiry_years", "alpha", "beta", "delta", "lambda",
                "objective", "rmse_bp", "max_err_bp", "n_quotes"} == set(rows[0])
        for row in rows:
            truth = FIXTURES[row["underlying"]][0]
            assert row["alpha"] == pytest.approx(truth.alpha, rel=0.02)
            assert row["beta"] == pytest.approx(truth.beta, rel=0.02)
            assert row["delta"] == pytest.approx(truth.delta, rel=0.02)
            assert row["rmse_bp"] <= 10.0

    def test_density_files_reload_float_hex_equal(self, bundle, tmp_path):
        # Each density file holds its fitted series exactly.
        marginals = cli.cmd_density(cli._load_config(str(bundle / "config.json")), tmp_path, False)
        assert sorted(marginals) == ["AXA", "CREDIT_AGRICOLE", "MICHELIN"]
        for name, marginal in marginals.items():
            data = json.loads((tmp_path / f"density_{name}.json").read_text())
            series = marginal.series
            assert [data["a"].hex(), data["b"].hex()] == [series.interval.a.hex(), series.interval.b.hex()]
            assert [c.hex() for c in data["coeffs"]] == [float(c).hex() for c in series.coeffs]

    def test_density_export_loadable(self, pipeline_out):
        data = json.loads((pipeline_out / "density_AXA.json").read_text())
        series = CosineSeries(Interval(data["a"], data["b"]), np.asarray(data["coeffs"]))
        assert series.terms == 128

    def test_price_schema(self, pipeline_out):
        rows = json.loads((pipeline_out / "prices.json").read_text())
        assert {r["estimator"] for r in rows} == {"riemann", "cmc-joint", "qamc-joint", "qamc-independent"}
        ref = next(r["value"] for r in rows if r["estimator"] == "riemann")
        for row in rows:
            assert {"payoff", "formulation", "estimator", "value",
                    "stderr_or_eps", "samples_or_queries", "seed"} == set(row)
            if row["estimator"].startswith("qamc"):
                assert row["value"] == pytest.approx(ref, abs=2e-3)

    def test_riemann_row_has_zero_stderr(self, pipeline_out):
        # The Riemann value is deterministic: its row carries no estimator error.
        rows = json.loads((pipeline_out / "prices.json").read_text())
        assert next(r["stderr_or_eps"] for r in rows if r["estimator"] == "riemann") == 0.0

    def test_rerun_byte_identical(self, bundle, pipeline_out, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["pipeline", "--config", str(bundle / "config.json"), "--out", str(out2), "--seed", "7"])
        assert rc == 0
        for name in ("curves.json", "calibration.json", "prices.json", "density_AXA.json"):
            assert (pipeline_out / name).read_bytes() == (out2 / name).read_bytes()

    def test_curves_command(self, bundle, pipeline_out, tmp_path):
        rc = main(["curves", "--config", str(bundle / "config.json"), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "curves.json").read_bytes() == (pipeline_out / "curves.json").read_bytes()

    def test_calibrate_command(self, bundle, pipeline_out, tmp_path):
        rc = main(["calibrate", "--config", str(bundle / "config.json"), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "calibration.json").read_bytes() == (pipeline_out / "calibration.json").read_bytes()
        assert not (tmp_path / "density_AXA.json").exists()

    def test_density_command(self, bundle, pipeline_out, tmp_path):
        rc = main(["density", "--config", str(bundle / "config.json"), "--out", str(tmp_path)])
        assert rc == 0
        for name in ("AXA", "CREDIT_AGRICOLE", "MICHELIN"):
            path = f"density_{name}.json"
            assert (tmp_path / path).read_bytes() == (pipeline_out / path).read_bytes()
        assert not (tmp_path / "prices.json").exists()

    def test_price_command_matches_pipeline(self, price_run, pipeline_out):
        out, _ = price_run
        assert (out / "prices.json").read_bytes() == (pipeline_out / "prices.json").read_bytes()

    def test_price_builds_one_grid_measure(self, price_run):
        # riemann, cmc-joint and both qamc formulations share one measure.
        _, builds = price_run
        assert builds == 1

    def test_arb_violation_stops_pipeline(self, bundle, tmp_path):
        quotes = (bundle / "quotes.csv").read_text().rstrip().splitlines()
        # Append a call quote above the top strike with a higher mid: digital
        # (rising call) and butterfly violations at the tail.
        top = max(float(r.split(",")[2]) for r in quotes[1:] if r.split(",")[3] == "C")
        quotes.append(f"AXA,1.0,{top + 2.0},C,9.0,9.0")
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "quotes.csv").write_text("\n".join(quotes) + "\n")
        cfg = json.loads((bundle / "config.json").read_text())
        (broken / "corr.json").write_text((bundle / "corr.json").read_text())
        (broken / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "broken_out"
        rc = main(["pipeline", "--config", str(broken / "config.json"), "--out", str(out)])
        assert rc == 2
        report = json.loads((out / "arb_report.json").read_text())
        assert report and any(v["underlying"] == "AXA" for v in report)

    def test_drop_violations_recovers(self, bundle, tmp_path):
        quotes = (bundle / "quotes.csv").read_text().rstrip().splitlines()
        top = max(float(r.split(",")[2]) for r in quotes[1:] if r.split(",")[3] == "C")
        quotes.append(f"AXA,1.0,{top + 2.0},C,9.0,9.0")
        broken = tmp_path / "fixable"
        broken.mkdir()
        (broken / "quotes.csv").write_text("\n".join(quotes) + "\n")
        (broken / "corr.json").write_text((bundle / "corr.json").read_text())
        (broken / "config.json").write_text((bundle / "config.json").read_text())
        out = tmp_path / "fixed_out"
        rc = main(["arb-check", "--config", str(broken / "config.json"), "--out", str(out), "--drop-violations"])
        assert rc == 0
        assert (out / "quotes_clean.csv").exists()

    def test_ingest_rejects_bad_rows(self, bundle, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "quotes.csv").write_text(
            "underlying,expiry_years,strike,kind,bid,ask\nAXA,1.0,30.0,C,3.0,2.0\n"
        )
        (bad / "config.json").write_text(json.dumps({"quotes_csv": "quotes.csv", "spots": {"AXA": 33.8}}))
        rc = main(["ingest", "--config", str(bad / "config.json"), "--out", str(tmp_path / "bad_out")])
        assert rc == 2

    def test_repeated_quote_row_stops_before_any_file(self, bundle, tmp_path, capsys):
        # A repeated call row passed ingest, which wrote three files, and the
        # run stopped only at the arbitrage scan's strike-order check.
        quotes = (bundle / "quotes.csv").read_text().rstrip().splitlines()
        first = next(i for i, row in enumerate(quotes) if row.startswith("AXA,") and row.split(",")[3] == "C")
        quotes.append(quotes[first])
        repeated = tmp_path / "repeated"
        repeated.mkdir()
        (repeated / "quotes.csv").write_text("\n".join(quotes) + "\n")
        (repeated / "corr.json").write_text((bundle / "corr.json").read_text())
        (repeated / "config.json").write_text((bundle / "config.json").read_text())
        out = tmp_path / "repeated_out"
        assert main(["pipeline", "--config", str(repeated / "config.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(quotes)}: repeats the quote ('AXA', 1.0, " in err and f"C') of line {first + 1}" in err
        assert list(out.iterdir()) == []

    def test_study_command_writes_csvs(self, study_run):
        _, out = study_run
        assert {p.name for p in out.iterdir()} == {
            "study_coeffs.csv", "study_coeffs_per_k.csv", "study_coeffs_runs.csv", "study_coeffs_slopes.json",
            "study_density.csv", "study_price_spread.csv", "study_price_basket.csv", "study_price_references.json",
        }

    def test_study_records_reload_equal(self, study_run):
        # A convergence record's CSV row reads back to the record, every float bit for bit.
        study, out = study_run
        records, _, _ = study_coeffs(StudyConfig(study="coeffs", seed=0, **study))
        with open(out / "study_coeffs.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        back = [ConvergenceRecord(row.pop("method"), **{k: float(v) for k, v in row.items()}) for row in rows]
        assert back == records

    def test_run_log_has_one_row_per_epsilon_and_k(self, study_run):
        study, out = study_run
        with open(out / "study_coeffs_runs.csv", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == RUN_LOG_COLUMNS
        ks = range(1, StudyConfig.terms)
        assert [float(row[2]) for row in rows] == [eps for eps in study["epsilon_ladder"] for _ in ks]
        for algo, target, _, rho, estimate, abs_err, queries, seed in rows:
            assert (algo, float(rho), seed) == ("signed-iqae", 0.05, "0")
            assert float(abs_err) == abs(float(estimate) - float(target))
            assert int(queries) > 0

    def test_every_study_csv_uses_one_dialect(self, study_run):
        # Each file is what the one CSV writer gives for its own parsed rows: csv's default
        # dialect, lines ended by \r\n, no quoting the values need not have.
        _, out = study_run
        paths = sorted(out.glob("*.csv"))
        assert len(paths) == 6
        for path in paths:
            raw = path.read_bytes()
            assert raw.count(b"\n") == raw.count(b"\r\n") > 1, path.name
            with open(path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            again = out.parent / f"again_{path.name}"
            cli._write_csv(again, rows)
            assert again.read_bytes() == raw, path.name

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--config", "c.json", "--seed", "3"],
            ["curves", "--config", "c.json", "--drop-violations"],
            ["arb-check", "--config", "c.json", "--seed", "3"],
            ["calibrate", "--config", "c.json", "--seed", "3"],
            ["density", "--config", "c.json", "--seed", "3"],
            ["study", "price", "--config", "c.json", "--drop-violations"],
            ["make-bundle", "--seed", "3"],
            ["make-bundle", "--config", "c.json"],
        ],
    )
    def test_flag_the_command_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            _build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flags_each_command_reads(self):
        parse = _build_parser().parse_args
        args = parse(["pipeline", "--config", "c.json", "--out", "o", "--seed", "5", "--drop-violations"])
        assert (args.config, args.out, args.seed, args.drop_violations) == ("c.json", "o", 5, True)
        args = parse(["study", "coeffs", "--config", "c.json", "--seed", "2"])
        assert (args.kind, args.seed) == ("coeffs", 2)
        assert parse(["make-bundle", "--out", "demo"]).out == "demo"
        assert parse(["arb-check", "--config", "c.json", "--drop-violations"]).drop_violations

    @pytest.mark.parametrize("kind", ["coeffs", "density"])
    @pytest.mark.parametrize("qubits", [0, -2])
    def test_study_without_a_qubit_rejected(self, bundle, tmp_path, capsys, kind, qubits):
        # 2^qubits midpoint cells need qubits >= 1; 2^-2 = 0.25 cells would
        # put a node outside the support.
        cfg = json.loads((bundle / "config.json").read_text())
        cfg["study"] = {"qubits": qubits, "repetitions": 1}
        cfg_path = tmp_path / "no_qubit.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["study", kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "at least one qubit" in capsys.readouterr().err

    def test_unknown_study_option_rejected(self, bundle, tmp_path, capsys):
        cfg = json.loads((bundle / "config.json").read_text())
        cfg["study"] = {"reps": 3}
        cfg_path = tmp_path / "bad_study.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["study", "price", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(qubit_per_dim=6),
                         "unknown pricing option(s) ['qubit_per_dim']", id="misspelt-pricing-key"),
            pytest.param(["price"], lambda cfg: cfg.pop("payoff"), "config payoff needs 'kind'", id="no-payoff"),
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(qubits_per_dim="abc"),
                         "pricing.qubits_per_dim", id="non-integer-qubits"),
            pytest.param(["price"], lambda cfg: cfg.update(correlations={"assets": ["AXA"], "sigma": [[1.0]]}),
                         "no correlation entry for asset(s) ['MICHELIN']", id="uncorrelated-asset"),
            pytest.param(["ingest"], lambda cfg: cfg.update(pricng={}),
                         "unknown config option(s) ['pricng']", id="misspelt-section"),
            pytest.param(["ingest"], lambda cfg: cfg.pop("quotes_csv"), "config needs 'quotes_csv'", id="no-quotes"),
            pytest.param(["calibrate"], lambda cfg: cfg["calibration"].update(lambda_=1.0),
                         "unknown calibration option", id="misspelt-calibration-key"),
            pytest.param(["density"], lambda cfg: cfg["density"].update(terms=[128]),
                         "density.terms", id="non-integer-terms"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(repetitions="abc"),
                         "study.repetitions", id="non-integer-repetitions"),
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(qubits_per_dim=2.9),
                         "pricing.qubits_per_dim", id="fractional-qubits"),
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(qubits_per_dim=True),
                         "pricing.qubits_per_dim", id="boolean-qubits"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(sample_ladder=[256.5, 1024]),
                         "study.sample_ladder", id="fractional-ladder-entry"),
            pytest.param(["pipeline"], lambda cfg: cfg["pricing"].update(samples=1),
                         "CMC needs at least 2 samples", id="one-cmc-sample"),
            pytest.param(["price"], lambda cfg: cfg.update(quotes_csv="missing.csv"),
                         "cannot read quotes", id="missing-quotes-file"),
            pytest.param(["price"], lambda cfg: cfg.update(quotes_csv="utf16.csv"),
                         "cannot read quotes", id="non-utf8-quotes"),
            pytest.param(["price"], lambda cfg: cfg.update(correlations="missing.json"),
                         "cannot read correlations", id="missing-correlation-file"),
            pytest.param(["price"], lambda cfg: cfg.update(correlations=cfg["quotes_csv"]),
                         "cannot read correlations", id="non-json-correlations"),
            pytest.param(["price"], lambda cfg: cfg.update(correlations={"sigma": [[1.0]]}),
                         'correlations need an "assets" list', id="correlations-without-assets"),
            pytest.param(["price"], lambda cfg: cfg.update(correlations={"assets": ["AXA"], "sigma": [["one"]]}),
                         "correlation matrix must be numeric", id="non-numeric-sigma"),
            pytest.param(["price"], lambda cfg: cfg.update(correlations={"assets": ["AXA", "MICHELIN", "AXA"],
                                                                          "sigma": np.eye(3).tolist()}),
                         "correlations name asset(s) ['AXA'] more than once", id="repeated-correlation-asset"),
            pytest.param(["price"], lambda cfg: cfg["payoff"].update(assets="AXA"),
                         "payoff.assets", id="string-assets"),
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(estimators="riemann"),
                         "pricing.estimators", id="string-estimators"),
            pytest.param(["calibrate"], lambda cfg: cfg["calibration"].update({"lambda": float("nan")}),
                         "regularization must be finite", id="nan-lambda"),
            pytest.param(["calibrate"], lambda cfg: cfg["calibration"].update({"lambda": float("inf")}),
                         "regularization must be finite", id="infinite-lambda"),
            pytest.param(["price"], lambda cfg: cfg["payoff"].update(strike=float("inf")),
                         "strike must be finite", id="infinite-strike"),
            pytest.param(["price"], lambda cfg: cfg["payoff"].update(strike=float("nan")),
                         "strike must be finite", id="nan-strike"),
            pytest.param(["curves"], lambda cfg: cfg["spots"].update(AXA=float("inf")),
                         "spot must be finite and positive", id="infinite-spot"),
            pytest.param(["curves"], lambda cfg: cfg["spots"].update(AXA=0.0),
                         "spot must be finite and positive", id="zero-spot"),
            pytest.param(["curves"], lambda cfg: cfg["spots"].update(AXA=-1.0),
                         "spot must be finite and positive", id="negative-spot"),
            pytest.param(["curves"], lambda cfg: cfg.update(quotes_csv="negative_forward.csv"),
                         "is not positive", id="negative-forward"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(epsilon_ladder=[float("nan")]),
                         "epsilons must lie in (0, 1)", id="nan-epsilon"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(epsilon_ladder=[0.0]),
                         "epsilons must lie in (0, 1)", id="zero-epsilon"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(epsilon_ladder=[-1.0]),
                         "epsilons must lie in (0, 1)", id="negative-epsilon"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(sample_ladder=[0, 4]),
                         "sample counts must be >= 1", id="zero-samples"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(sample_ladder=[-4, 4]),
                         "sample counts must be >= 1", id="negative-samples"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(sample_ladder=[2, 3]),
                         "rising seed tags", id="shared-sample-tag"),
            pytest.param(["study", "coeffs"], lambda cfg: cfg["study"].update(terms=0),
                         "terms must be >= 2", id="no-terms"),
            pytest.param(["study", "density"], lambda cfg: cfg["study"].update(recovery_terms=[0]),
                         "recovery orders must be >= 1", id="zero-recovery-order"),
            pytest.param(["study", "density"], lambda cfg: cfg["study"].update(recovery_terms=[4, 4]),
                         "rising seed tags", id="repeated-recovery-order"),
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(estimators=["riemann", "bogus"]),
                         "unknown estimator(s) ['bogus']", id="unknown-estimator"),
            pytest.param(["price"], lambda cfg: cfg["pricing"].update(estimators=["cmc-foo"]),
                         "unknown estimator(s) ['cmc-foo']", id="unknown-cmc-formulation"),
            pytest.param(["price"], lambda cfg: cfg["payoff"].update(assets=["AXA", "CREDIT_AGRICOLE", "MICHELIN"]),
                         "spread-call requires exactly 2 assets, got 3", id="three-asset-spread"),
            pytest.param(["price"], lambda cfg: cfg["payoff"].update(assets=["AXA", "AXA"]),
                         "asset(s) ['AXA'] asked for more than once", id="repeated-payoff-asset"),
            pytest.param(["price"], lambda cfg: cfg["payoff"].update(kind="basket-call", assets=[]),
                         "a payoff needs at least 1 asset", id="no-payoff-asset"),
        ],
    )
    def test_config_error_exits_2(self, bundle, tmp_path, capsys, command, edit, message):
        # Each of these used to be silently ignored or to end in a traceback.
        # Relative paths resolve against the config's directory, which holds
        # a quote header in UTF-16.
        (tmp_path / "utf16.csv").write_text("underlying,expiry_years,strike,kind,bid,ask\n", encoding="utf-16")
        # Parity on these quotes gives DF 0.8 and forward -5.25.
        (tmp_path / "negative_forward.csv").write_text(
            "underlying,expiry_years,strike,kind,bid,ask\n"
            "AXA,1.0,1.0,C,0.1,0.2\nAXA,1.0,2.0,C,0.1,0.2\nAXA,1.0,1.0,P,5.1,5.2\nAXA,1.0,2.0,P,5.9,6.0\n"
        )
        cfg = json.loads((bundle / "config.json").read_text())
        cfg.update(quotes_csv=str(bundle / "quotes.csv"), correlations=str(bundle / "corr.json"))
        edit(cfg)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "commands, edit",
        [
            (["pipeline"], lambda cfg: cfg["pricing"].update(estimators=["riemann", "bogus"])),
            (["pipeline"], lambda cfg: cfg["pricing"].update(epsilon=0)),
            (["pipeline"], lambda cfg: cfg["pricing"].update(rho=1.0)),
            (["pipeline"], lambda cfg: cfg["pricing"].update(qubits_per_dim=0)),
            (["pipeline"], lambda cfg: cfg.update(correlations="missing.json")),
            (["pipeline"], lambda cfg: cfg["payoff"].update(assets=["AXA", "CREDIT_AGRICOLE", "MICHELIN"])),
            (["pipeline"], lambda cfg: cfg["payoff"].update(assets=["AXA", "AXA"])),
            (["pipeline"], lambda cfg: cfg["payoff"].update(kind="basket-call", assets=[])),
            # Each of these stopped the run only after ingest, curves and
            # arb-check (and, for a density setting, calibrate) had written files.
            (["density", "pipeline"], lambda cfg: cfg["density"].update(terms=0)),
            (["density", "pipeline"], lambda cfg: cfg["density"].update(tail_eps=2.0)),
            (["calibrate", "density", "pipeline"], lambda cfg: cfg["calibration"].update({"lambda": -1})),
            (["calibrate", "density", "pipeline"], lambda cfg: cfg["calibration"].update(weights_rule="bogus")),
            # These two stopped at curves after ingest had written two files.
            (["curves", "calibrate", "density", "pipeline"], lambda cfg: cfg["spots"].update(AXA=-1.0)),
            (["curves", "calibrate", "density", "pipeline"], lambda cfg: cfg["spots"].pop("AXA")),
        ],
        ids=["unknown-estimator", "zero-epsilon", "unit-rho", "no-qubit", "missing-correlation-file",
             "three-asset-spread", "repeated-payoff-asset", "no-payoff-asset",
             "no-density-term", "tail-eps-above-1", "negative-lambda", "unknown-weights-rule",
             "negative-spot", "no-spot"],
    )
    def test_bad_estimator_stops_before_any_stage(self, bundle, tmp_path, commands, edit):
        # Each stage reads all of its own inputs first, so no earlier stage writes a file.
        cfg = json.loads((bundle / "config.json").read_text())
        cfg.update(quotes_csv=str(bundle / "quotes.csv"), correlations=str(bundle / "corr.json"))
        edit(cfg)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in commands:
            out = tmp_path / command
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
            assert list(out.iterdir()) == []

    def test_single_point_ladders_stop_the_coefficient_study(self, bundle, tmp_path, capsys):
        # Each method's slope was a line through one point, written with
        # numpy's "Polyfit may be poorly conditioned" warning.
        cfg = json.loads((bundle / "config.json").read_text())
        cfg["study"].update(sample_ladder=[256], epsilon_ladder=[0.1])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["study", "coeffs", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "log-log fit needs 2 points" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text", [None, "{bad"], ids=["missing-file", "malformed-json"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "config.json"
        if text is not None:
            cfg_path.write_text(text)
        rc = main(["ingest", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read config" in err

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_output_not_written(self, tmp_path, value):
        # A one-sample CMC row used to reach prices.json as "stderr_or_eps": Infinity.
        path = tmp_path / "prices.json"
        with pytest.raises(ValueError):
            _write_json(path, [{"stderr_or_eps": value}])
        assert not path.exists()
