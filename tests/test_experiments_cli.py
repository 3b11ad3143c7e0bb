"""Tests for the study harness and the command-line pipeline."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qamcpricer import pricing
from qamcpricer.cli import _build_parser, main
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
    write_records_csv,
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


class TestRecordsAndFits:
    def test_record_invariant(self):
        ConvergenceRecord("cmc", 100.0, 0.5, 0.1, 0.9)
        with pytest.raises(ValidationError):
            ConvergenceRecord("cmc", 100.0, 1.5, 0.1, 0.9)

    def test_slope_on_exact_power_law(self):
        costs = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        errors = 3.0 / np.sqrt(costs)
        assert fit_loglog_slope(costs, errors) == pytest.approx(-0.5, abs=1e-12)

    def test_cost_at_error_on_exact_power_law(self):
        costs = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        errors = 3.0 / costs
        assert cost_at_error(costs, errors, 1e-3) == pytest.approx(3000.0, rel=1e-9)

    def test_csv_round_trip(self, tmp_path):
        records = [ConvergenceRecord("cmc", 256.0, 0.05, 0.01, 0.1)]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["mean_abs_err"]) == 0.05
        assert rows[0]["method"] == "cmc"


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
        assert all(line.count(",") == 7 for line in run_log)

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

    def test_study_command_writes_csvs(self, bundle, tmp_path):
        cfg = json.loads((bundle / "config.json").read_text())
        cfg["study"] = {
            "repetitions": 4,
            "epsilon_ladder": [2e-2, 1e-2],
            "sample_ladder": [256, 1024],
            "recovery_terms": [8],
        }
        cfg_path = tmp_path / "study_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study_out"
        assert main(["study", "coeffs", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "study_coeffs.csv").exists()
        assert (out / "study_coeffs_runs.csv").read_text().startswith(
            "algo,target,epsilon,rho,estimate,abs_err,queries,seed"
        )
        assert main(["study", "density", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "study_density.csv").exists()
        assert main(["study", "price", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "study_price_spread.csv").exists()
        assert (out / "study_price_basket.csv").exists()

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

    def test_unknown_study_option_rejected(self, bundle, tmp_path, capsys):
        cfg = json.loads((bundle / "config.json").read_text())
        cfg["study"] = {"reps": 3}
        cfg_path = tmp_path / "bad_study.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["study", "price", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
