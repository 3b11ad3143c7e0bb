"""Acceptance suite: one test per acceptance criterion, stated tolerances pinned.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  The heavy studies reuse the bundled fixture parameter sets; pinned
pricing references are regression values produced by the deterministic
Riemann reference on the shared grid measure.
"""

import math
import time
from dataclasses import replace
from functools import reduce

import numpy as np

from qamcpricer.black_scholes import BSInputs, bs_price
from qamcpricer.copula import CopulaSpec
from qamcpricer.cosine_density import Interval, coeffs_classical, eval_cdf
from qamcpricer.calibration import CalibrationConfig, calibrate
from qamcpricer.experiments import (
    StudyConfig,
    cost_at_error,
    fit_loglog_slope,
    spread_setup,
    study_coeffs,
    study_price_convergence,
)
from qamcpricer.market_data import (
    MarketSlice,
    OptionQuote,
    check_butterfly_arbitrage,
    check_digital_arbitrage,
    generate_synthetic_quotes,
    strip_curves,
)
from qamcpricer.nig import (
    ExpNIGModel,
    NIGParams,
    nig_cdf,
    nig_pdf,
    price_european_batch,
    support_interval,
)
from qamcpricer.numerics import integrate
from qamcpricer.pricing import GridMeasure, cmc_price
from qamcpricer.qamc import AEConfig, iqae_estimate, qamc_price

from cos_pricing import price_european_cos
from dense_measure import DenseMeasure
from series_bounds import cumulant_interval, estimate_decay

# Deterministic regression pins for the experiment-scale Riemann references
# (spread: AXA/Michelin rho=-0.25 K=0 J=2^3/dim; basket: three names K=25
# J=2^2/dim; marginals = 2^7-term classical cosine series on tight supports).
SPREAD_REFERENCE_PIN = 12.394597730358317
BASKET_REFERENCE_PIN = 2.9351310237646007


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def paper_sets():
    return [
        (NIGParams(5.24, -3.26, 0.18), MarketSlice("AXA", 33.8, 1.0, 0.02)),
        (NIGParams(4.69, -3.06, 0.18), MarketSlice("CREDIT_AGRICOLE", 12.91, 1.0, 0.02)),
        (NIGParams(6.2, -3.31, 0.26), MarketSlice("MICHELIN", 31.76, 1.0, 0.02)),
    ]


def test_criterion_1_curve_stripping_exactness():
    start = time.monotonic()
    strikes = np.linspace(80.0, 120.0, 20)
    quotes = []
    for k in strikes:
        inp = BSInputs(100.0, float(k), 1.0, 0.03, 0.01, 0.2)
        for kind in ("C", "P"):
            mid = bs_price(inp, kind)
            quotes.append(OptionQuote("SYN", 1.0, float(k), kind, mid, mid))
    curves = strip_curves(quotes, spot=100.0)
    df_err = abs(curves.discount_factor - math.exp(-0.03)) / math.exp(-0.03)
    fw_err = abs(curves.forward - 100.0 * math.exp(0.02)) / (100.0 * math.exp(0.02))
    elapsed = time.monotonic() - start
    report(
        1,
        df_err <= 1e-10 and fw_err <= 1e-10 and elapsed < 1.0,
        f"DF rel err {df_err:.2e}, FW rel err {fw_err:.2e}, runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_nig_correctness_bundle():
    start = time.monotonic()
    norm_worst = 0.0
    mart_worst = 0.0
    mu_worst = 0.0
    dual_worst = 0.0
    for params, slc in paper_sets():
        a, b = cumulant_interval(params, 1.0, 20.0)
        mass = integrate(lambda x: nig_pdf(x, params, 1.0), (a, b), panels=24)
        norm_worst = max(norm_worst, abs(mass - 1.0))

        model = ExpNIGModel(params, slc)
        mean_s = integrate(
            lambda x: slc.spot * np.exp(model.drift + x) * nig_pdf(x, params, 1.0), (a, b), panels=32
        )
        mart_worst = max(mart_worst, abs(mean_s - slc.forward) / slc.forward)

        moved = ExpNIGModel(replace(params, mu=0.7), slc)
        for strike in (0.9 * slc.forward, slc.forward, 1.1 * slc.forward):
            call, moved_call = (price_european_batch(m, [strike], ["C"])[0] for m in (model, moved))
            mu_worst = max(mu_worst, abs(call - moved_call))

        for moneyness in np.linspace(0.8, 1.2, 21):
            strike = moneyness * slc.forward
            for kind in ("C", "P"):
                quad = price_european_batch(model, [strike], [kind])[0]
                cos = price_european_cos(model, strike, kind, terms=256)
                if quad > 1e-12:
                    dual_worst = max(dual_worst, abs(cos - quad) / quad)
    elapsed = time.monotonic() - start
    report(
        2,
        norm_worst <= 1e-9 and mart_worst <= 1e-7 and mu_worst <= 1e-9 and dual_worst <= 1e-6
        and elapsed < 10.0,
        f"normalization {norm_worst:.2e} (<=1e-9), martingale {mart_worst:.2e} (<=1e-7), "
        f"mu-independence {mu_worst:.2e} (<=1e-9), dual-pricer {dual_worst:.2e} (<=1e-6), "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_3_calibration_round_trip():
    start = time.monotonic()
    truth = NIGParams(5.24, -3.26, 0.18)
    slc = MarketSlice("AXA", 33.8, 1.0, 0.02)
    strikes = np.linspace(0.8, 1.2, 20) * slc.forward
    slc = replace(slc, quotes=generate_synthetic_quotes(truth, slc, strikes, spread=0.0))
    result = calibrate(slc, CalibrationConfig(regularization=5e-7))
    theta = result.theta
    rel = (
        abs(theta.alpha - truth.alpha) / truth.alpha,
        abs(theta.beta - truth.beta) / abs(truth.beta),
        abs(theta.delta - truth.delta) / truth.delta,
    )
    elapsed = time.monotonic() - start
    report(
        3,
        max(rel) <= 0.02 and result.rmse_bp <= 10.0 and elapsed < 120.0,
        f"component rel errs {tuple(f'{r:.2e}' for r in rel)} (<=2%), "
        f"price RMSE {result.rmse_bp:.4f}bp (<=10bp), runtime {elapsed:.1f}s (< 2min)",
    )


def test_criterion_4_cosine_recovery():
    start = time.monotonic()
    params = NIGParams(5.24, -3.26, 0.18)
    iv = Interval(*support_interval(params, 1.0, 1e-5))
    series = coeffs_classical(lambda x: nig_pdf(x, params, 1.0), iv, 128)
    xs = np.linspace(iv.a - 0.5, iv.b + 0.5, 3001)
    sup_cdf = float(np.max(np.abs(eval_cdf(series, xs) - nig_cdf(xs, params, 1.0))))
    zeta, nu = estimate_decay(series)
    elapsed = time.monotonic() - start
    report(
        4,
        sup_cdf <= 1e-4 and nu > 0.0 and elapsed < 5.0,
        f"sup|F_hat - F| {sup_cdf:.2e} (<=1e-4), fitted decay rate nu {nu:.4f} (>0), "
        f"runtime {elapsed:.1f}s (< 5s)",
    )


def test_criterion_5_qae_contract():
    start = time.monotonic()
    coverages = {}
    for a_true in (0.1, 0.25, 0.7):
        hits = 0
        for seed in range(200):
            res = iqae_estimate(
                a_true, AEConfig(epsilon=1e-2, rho=0.05), np.random.default_rng([seed, 55])
            )
            hits += abs(res.estimate - a_true) <= 1e-2
        coverages[a_true] = hits / 200
    ladder = (2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4)
    mean_queries = [
        np.mean(
            [
                iqae_estimate(
                    0.25, AEConfig(epsilon=eps, rho=0.05), np.random.default_rng([s, 3])
                ).oracle_queries
                for s in range(16)
            ]
        )
        for eps in ladder
    ]
    slope = fit_loglog_slope(ladder, mean_queries)
    elapsed = time.monotonic() - start
    report(
        5,
        min(coverages.values()) >= 0.92 and abs(slope - (-1.0)) <= 0.15 and elapsed < 120.0,
        f"coverage {coverages} (>=0.92 each), query slope {slope:.3f} (-1 +/- 0.15), "
        f"runtime {elapsed:.1f}s (< 2min)",
    )


def test_criterion_6_coefficient_study():
    start = time.monotonic()
    cfg = StudyConfig(study="coeffs", repetitions=32, seed=0, qubits=5, terms=16)
    records, per_k, _ = study_coeffs(cfg)
    cmc_rows = [(r.cost, r.mean_abs_err) for r in records if r.method == "cmc"]
    qam_rows = [(r.cost, r.mean_abs_err) for r in records if r.method == "qamc"]
    cmc_slope = fit_loglog_slope(*zip(*cmc_rows))
    qam_slope = fit_loglog_slope(*zip(*qam_rows))

    def k_ratio(method: str) -> float:
        levels = sorted({row["level"] for row in per_k if row["method"] == method})
        mid = levels[len(levels) // 2]
        err_at = {
            row["k"]: row["mean_abs_err"]
            for row in per_k
            if row["method"] == method and row["level"] == mid
        }
        return err_at[12] / err_at[1]

    cmc_ratio = k_ratio("cmc")
    qam_ratio = k_ratio("qamc")
    elapsed = time.monotonic() - start
    report(
        6,
        abs(cmc_slope - (-0.5)) <= 0.1
        and abs(qam_slope - (-1.0)) <= 0.15
        and cmc_ratio > 2.0
        and qam_ratio < 1.5
        and elapsed < 600.0,
        f"CMC slope {cmc_slope:.3f} (-0.5 +/- 0.1), QAMC slope {qam_slope:.3f} (-1 +/- 0.15), "
        f"k=12/k=1 error ratio CMC {cmc_ratio:.2f} (>2), QAMC {qam_ratio:.2f} (<1.5), "
        f"runtime {elapsed:.1f}s (< 10min)",
    )


def test_criterion_7_pricing_study():
    start = time.monotonic()
    cfg = StudyConfig(
        study="price-convergence",
        repetitions=128,
        seed=0,
        sample_ladder=(2**9, 2**11, 2**13, 2**15, 2**17, 2**19),
        epsilon_ladder=(2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4),
    )
    results = study_price_convergence(cfg)
    pins = {"spread": SPREAD_REFERENCE_PIN, "basket": BASKET_REFERENCE_PIN}
    details = []
    ok = True
    for name, data in results.items():
        ok &= abs(data["reference"] - pins[name]) <= 1e-9
        slopes = {}
        costs_at = {}
        for method in ("cmc", "qamc-joint", "qamc-independent"):
            rows = [(r.cost, r.mean_abs_err) for r in data["records"] if r.method == method]
            slopes[method] = fit_loglog_slope(*zip(*rows))
            costs_at[method] = cost_at_error(*zip(*rows), target=1e-3)
        ok &= abs(slopes["cmc"] - (-0.5)) <= 0.1
        ok &= abs(slopes["qamc-joint"] - (-1.0)) <= 0.15
        ok &= abs(slopes["qamc-independent"] - (-1.0)) <= 0.15
        joint_ratio = costs_at["cmc"] / costs_at["qamc-joint"]
        indep_ratio = costs_at["cmc"] / costs_at["qamc-independent"]
        ok &= 10.0 <= joint_ratio <= 100.0
        ok &= 10.0 <= indep_ratio <= 100.0
        ok &= costs_at["qamc-joint"] <= costs_at["qamc-independent"]
        details.append(
            f"{name}: slopes cmc {slopes['cmc']:.3f} / joint {slopes['qamc-joint']:.3f} / "
            f"indep {slopes['qamc-independent']:.3f}; cost ratio at 1e-3: joint {joint_ratio:.1f}x, "
            f"indep {indep_ratio:.1f}x (10-100x); joint <= indep {costs_at['qamc-joint'] <= costs_at['qamc-independent']}"
        )
    elapsed = time.monotonic() - start
    ok &= elapsed < 1800.0
    report(7, bool(ok), "; ".join(details) + f"; runtime {elapsed:.0f}s (< 30min)")


def test_criterion_8_copula_identities():
    start = time.monotonic()
    payoff, marginals, _, grid = spread_setup()
    eye = CopulaSpec.from_matrix(np.eye(2))
    rho_spec = CopulaSpec.from_matrix([[1.0, -0.25], [-0.25, 1.0]])

    # Identity collapse: all estimators agree on the product-marginal price.
    measure = GridMeasure.build(payoff, marginals, eye, grid)
    ref = measure.reference_value()
    cmc_joint = cmc_price(payoff, marginals, eye, "joint", 2**16, np.random.default_rng(1), measure=measure)
    cmc_ind = cmc_price(payoff, marginals, eye, "independent", 2**16, np.random.default_rng(2), measure=measure)
    qamc_joint = qamc_price(payoff, marginals, eye, "joint", grid, AEConfig(epsilon=1e-3, rho=0.05), np.random.default_rng(3), measure=measure)
    qamc_ind = qamc_price(payoff, marginals, eye, "independent", grid, AEConfig(epsilon=1e-3, rho=0.05), np.random.default_rng(4), measure=measure)
    collapse_ok = (
        abs(cmc_joint.value - ref) <= 4 * cmc_joint.stderr
        and abs(cmc_ind.value - ref) <= 4 * cmc_ind.stderr
        and abs(qamc_joint.value - ref) <= 1e-3
        and abs(qamc_ind.value - ref) <= 1e-3
        and measure.c_max == 1.0
    )

    # Node-level identity f_joint h == f_ind H_adj c_max, correlated case too.
    worst = 0.0
    for spec in (eye, rho_spec):
        m = GridMeasure.build(payoff, marginals, spec, grid)
        dense = DenseMeasure.of(m)
        h_max = m.payoff_max
        lhs = dense.masses * dense.payoff_values
        h_adj = dense.payoff_values * dense.weights / (h_max * m.c_max)
        rhs = reduce(np.multiply.outer, m.marginal_masses) * h_adj * m.c_max * h_max
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.monotonic() - start
    report(
        8,
        collapse_ok and worst <= 1e-12 * max(1.0, h_max) and elapsed < 10.0,
        f"identity collapse across estimators ok={collapse_ok}, node identity residual {worst:.2e} "
        f"(<=1e-12 x payoff scale), runtime {elapsed:.2f}s",
    )


def test_criterion_9_arbitrage_checkers():
    start = time.monotonic()
    strikes = np.linspace(70.0, 130.0, 25)
    call_mids = [bs_price(BSInputs(100.0, float(k), 1.0, 0.02, 0.0, 0.25), "C") for k in strikes]
    put_mids = [bs_price(BSInputs(100.0, float(k), 1.0, 0.02, 0.0, 0.25), "P") for k in strikes]
    clean = (
        check_digital_arbitrage(strikes, call_mids, "C")
        + check_digital_arbitrage(strikes, put_mids, "P")
        + check_butterfly_arbitrage(strikes, call_mids, "C")
        + check_butterfly_arbitrage(strikes, put_mids, "P")
    )

    digital = check_digital_arbitrage([90.0, 100.0, 110.0], [5.0, 5.5, 4.0], "C")
    digital_ok = len(digital) == 1 and digital[0].strikes == (90.0, 100.0)

    butterfly = check_butterfly_arbitrage([90.0, 100.0, 110.0, 120.0], [10.0, 9.9, 9.0, 8.8], "C")
    butterfly_ok = len(butterfly) == 1 and butterfly[0].strikes == (90.0, 100.0, 110.0)
    elapsed = time.monotonic() - start
    report(
        9,
        len(clean) == 0 and digital_ok and butterfly_ok and elapsed < 1.0,
        f"Black-Scholes surface violations {len(clean)} (=0), crafted digital at exact pair "
        f"{digital_ok}, crafted butterfly at exact triple {butterfly_ok}, runtime {elapsed:.2f}s (< 1s)",
    )
