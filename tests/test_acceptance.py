"""Acceptance gate: ten end-to-end criteria covering oracle equivalence,
variance and mean convergence, divergence above the load threshold, spectral
asymptotics, Monte-Carlo MSE prediction, verdict tables, flop accounting, and
the w=1 reduction identity. Each test emits one ``CRITERION n: PASS/FAIL``
line (echoed in the terminal summary by conftest)."""

from dataclasses import fields

import numpy as np

from gmpdetect import (
    ExperimentConfig,
    IterationTrace,
    SystemDims,
    aggregate_records,
    build_instance,
    gmp_block_detect,
    gmpid_detect,
    gmpid_mean_convergence_report,
    inverse_filter_detect,
    mmse_detect,
    realize,
    relaxation_iteration_matrix,
    run_complexity,
    run_convergence_table,
    run_experiment,
    sagmpid_detect,
    spectral_radius,
    variance_fixed_point,
)
from gmpdetect import gmpid
from gmpdetect.harness import resolve_relaxation
from node_reference import message_state

ACCEPTANCE_LINES = []


def _record(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_exact_detectors_agree_to_1e10():
    """Decorrelating and block-message detectors match direct MMSE."""
    sizes = [(2, 3), (10, 60), (100, 600)]
    worst = 0.0
    for idx in range(50):
        n_users, n_antennas = sizes[idx % 3]
        inst = build_instance(
            n_users, n_antennas, snr_db=15.0, channel_seed=1000 + idx
        )
        y = realize(inst, 2000 + idx).received
        ref = mmse_detect(inst, y).estimate
        dev_if = np.max(np.abs(inverse_filter_detect(inst, y).estimate - ref))
        dev_gmp = np.max(np.abs(gmp_block_detect(inst, y).estimate - ref))
        worst = max(worst, dev_if, dev_gmp)
    _record(1, worst < 1e-10, f"worst abs deviation {worst:.3e} < 1e-10")


def test_criterion_02_converged_variance_matches_closed_form_and_mmse():
    """Mean converged variance at K=100, M=600, 20 dB, over 20 seeds."""
    inst0 = build_instance(100, 600, snr_db=20.0)
    closed_form = variance_fixed_point(inst0).sigma_hat_sq
    run_vars, mmse_vars = [], []
    for s in range(20):
        inst = build_instance(100, 600, snr_db=20.0, channel_seed=5000 + s)
        y = realize(inst, 6000 + s).received
        out = gmpid_detect(inst, y, max_iter=200)
        run_vars.append(float(np.mean(out.posterior_var)))
        mmse_vars.append(float(np.mean(mmse_detect(inst, y).posterior_var)))
    mean_run = float(np.mean(run_vars))
    dev_cf = abs(mean_run / closed_form - 1.0)
    dev_mmse = abs(mean_run / float(np.mean(mmse_vars)) - 1.0)
    _record(
        2,
        dev_cf < 0.05 and dev_mmse < 0.05,
        f"vs closed form {dev_cf:.4f}, vs MMSE trace {dev_mmse:.4f}, both < 0.05",
    )


def test_criterion_03_user_to_sum_variance_monotone():
    """Componentwise non-increasing user-to-sum variances on 20 runs.

    The engine's user-to-sum variances are those of its variance schedule,
    one per user on every edge: ``vv[t] = 1/(u[t] + 1/prior)`` at step t,
    for the 30 steps a run of 30 iterations takes, or up to the step the
    schedule settles at, whose variances every later iteration keeps.
    """
    violations = steps = 0
    for s in range(20):
        inst = build_instance(40, 160, snr_db=10.0, channel_seed=7000 + s)
        schedule = gmpid._schedule(inst)
        schedule.reach(29)
        previous = None
        for u in schedule.u:
            current = 1.0 / (u + schedule.px)
            if previous is not None:
                violations += int(np.sum(current > previous + 1e-12))
                steps += 1
            previous = current
    _record(3, violations == 0, f"{violations} violations beyond 1e-12 slack in {steps} steps")


def test_criterion_04_mean_convergence_below_threshold():
    """K=20, M=400 (load 0.05): within 1e-6 of MMSE inside 200 iterations."""
    worst = 0.0
    for s in range(20):
        inst = build_instance(20, 400, noise_var=1e-8, channel_seed=4000 + s)
        y = realize(inst, 4000 + s + 10**6).received
        oracle = mmse_detect(inst, y).estimate
        out = gmpid_detect(inst, y, eps=0.0, max_iter=200)
        rel = float(
            np.linalg.norm(out.estimate - oracle) / np.linalg.norm(oracle)
        )
        worst = max(worst, rel)
    _record(4, worst < 1e-6, f"worst relative error {worst:.3e} < 1e-6")


def test_criterion_05_divergence_above_effective_radius_and_relaxed_rescue():
    """K=200, M=300 (load 2/3): plain iteration blows up, relaxed converges."""
    grew = 0
    worst_rel = 0.0
    min_ratio = np.inf
    for t in range(20):
        cseed = 107 * 1000 + t
        inst = build_instance(200, 300, noise_var=1e-5, channel_seed=cseed)
        y = realize(inst, cseed + 10**6).received
        oracle = mmse_detect(inst, y).estimate
        # Distance to MMSE, up to the factor sqrt(K) the ratio cancels.
        gap = np.sqrt(
            gmpid_detect(inst, y, eps=0.0, max_iter=70, truth=oracle).trace.mse_to_truth
        )
        ratio = gap[min(60, len(gap) - 1)] / gap[10]
        min_ratio = min(min_ratio, ratio)
        if ratio >= 10.0:
            grew += 1
        est = sagmpid_detect(inst, y, max_iter=300).estimate
        rel = float(np.linalg.norm(est - oracle) / np.linalg.norm(oracle))
        worst_rel = max(worst_rel, rel)
    ok = grew >= 18 and worst_rel < 1e-4
    _record(
        5,
        ok,
        f"error grew >=10x on {grew}/20 seeds (min ratio {min_ratio:.2e}); "
        f"relaxed worst rel {worst_rel:.3e} < 1e-4",
    )


def test_criterion_06_spectral_radius_asymptotics():
    """K=200, M=800 (load 0.25): plain radius near 1.25, relaxed near 0.8."""
    beta = 0.25
    plain_target = beta + 2.0 * np.sqrt(beta)
    relaxed_target = 2.0 * np.sqrt(beta) / (1.0 + beta)
    plain, relaxed = [], []
    for s in range(10):
        inst = build_instance(200, 800, snr_db=20.0, channel_seed=9000 + s)
        plain.append(gmpid_mean_convergence_report(inst).spectral_radius)
        relax = resolve_relaxation(inst, "beta")  # w = 1/(1+beta) = 0.8
        relaxed.append(spectral_radius(relaxation_iteration_matrix(inst, relax.w)))
    dev_plain = abs(float(np.mean(plain)) / plain_target - 1.0)
    dev_relaxed = abs(float(np.mean(relaxed)) / relaxed_target - 1.0)
    _record(
        6,
        dev_plain < 0.10 and dev_relaxed < 0.10,
        f"plain mean {np.mean(plain):.4f} vs {plain_target} ({dev_plain:.3f}); "
        f"relaxed mean {np.mean(relaxed):.4f} vs {relaxed_target} "
        f"({dev_relaxed:.4f}); both within 10%",
    )


def test_criterion_07_monte_carlo_mse_matches_random_matrix_prediction():
    """500-trial MMSE MSE at K=100, M=600, 20 dB vs noise_var/(M-K)."""
    cfg = ExperimentConfig(
        dims=SystemDims(100, 600),
        snr_grid_db=[20.0],
        trials=500,
        master_seed=0,
        detectors=("mmse",),
        max_iter=200,
        record_wall_time=False,
    )
    mean_mse = aggregate_records(run_experiment(cfg))[0].mean_mse
    target = 0.01 / (600 - 100)  # noise_var / (M - K) = 2.0e-5
    dev = abs(mean_mse / target - 1.0)
    _record(7, dev < 0.10, f"mean MSE {mean_mse:.4e} vs {target:.1e} ({dev:.4f} < 0.10)")


def test_criterion_08_convergence_verdict_table():
    """Verdicts across loads 0.05 / 0.20 / 0.9 at K=100."""
    cfg = ExperimentConfig(
        dims=SystemDims(100, 100),  # the table sets M from each load
        snr_grid_db=[80.0],
        trials=3,
        master_seed=1236,
        detectors=("jacobi", "gmpid", "richardson", "sagmpid"),
        max_iter=8000,
    )
    rows = run_convergence_table(cfg, [0.05, 0.20, 0.9])
    verdicts: dict[float, dict[str, str]] = {}
    for r in rows:
        verdicts.setdefault(round(r.beta, 2), {})[r.detector] = r.verdict
    expected = {
        0.05: {"jacobi": "C", "gmpid": "C", "richardson": "C", "sagmpid": "C"},
        0.20: {"jacobi": "D", "gmpid": "C", "richardson": "C", "sagmpid": "C"},
        0.90: {"jacobi": "D", "gmpid": "D", "richardson": "C", "sagmpid": "C"},
    }
    ok = verdicts == expected
    got = "; ".join(
        f"beta={b}: " + ",".join(f"{d}={v}" for d, v in sorted(verdicts[b].items()))
        for b in sorted(verdicts)
    )
    _record(8, ok, got)


def test_criterion_09_flop_accounting_and_complexity_advantage():
    """Per-iteration cost within 2x of 8KM; relaxed detector beats MMSE flops."""
    n_users, n_antennas = 500, 3500
    inst = build_instance(n_users, n_antennas, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    out = gmpid_detect(inst, y, eps=0.0, max_iter=12)
    steps = np.diff(out.trace.cum_flops)
    per_iter = float(np.max(steps))
    budget = 2.0 * 8.0 * n_users * n_antennas
    cfg = ExperimentConfig(
        dims=SystemDims(n_users, n_antennas),
        snr_grid_db=[10.0],
        trials=3,
        master_seed=0,
        detectors=("gmpid", "sagmpid"),
        max_iter=300,
        w_mode="beta",
    )
    records = run_complexity(cfg)
    relaxed = [r for r in records if r.detector == "sagmpid"]
    reach_ok = all(r.reach_iteration is not None for r in relaxed)
    flops_ok = all(r.flops_to_target < r.mmse_flops for r in relaxed)
    ratio = max(r.flops_to_target / r.mmse_flops for r in relaxed)
    ok = per_iter <= budget and reach_ok and flops_ok
    _record(
        9,
        ok,
        f"per-iteration flops {per_iter:.3e} = {per_iter / (8 * n_users * n_antennas):.3f}x8KM"
        f" <= 2x; relaxed reach-target flops <= {ratio:.3f}x MMSE flops on 3 trials",
    )


def test_criterion_10_unit_relaxation_reduces_exactly():
    """w=1 relaxed run reproduces the plain run bitwise on 5 seeds."""
    bitwise = True
    for s in range(5):
        inst = build_instance(30, 90, snr_db=15.0, channel_seed=100 + s)
        real = realize(inst, 200 + s)
        y = real.received
        plain = gmpid_detect(inst, y, max_iter=60, truth=real.symbols)
        relax = resolve_relaxation(inst, "manual:1.0")
        red = sagmpid_detect(inst, y, relax, max_iter=60, truth=real.symbols)
        for field in ("estimate", "posterior_var", "previous_estimate"):
            bitwise &= np.array_equal(getattr(plain, field), getattr(red, field))
        bitwise &= plain.iterations == red.iterations
        # Every trace column, the truth's MSE included.
        for column in fields(IterationTrace):
            bitwise &= getattr(plain.trace, column.name) == getattr(red.trace, column.name)
        plain_state = message_state(inst, y, plain)
        red_state = message_state(inst, y, red)
        for field in (
            "user_to_sum_mean",
            "user_to_sum_var",
            "sum_to_user_mean",
            "sum_to_user_var",
        ):
            bitwise &= np.array_equal(
                getattr(plain_state, field), getattr(red_state, field)
            )
    # variance path is shared for any w: auto-relaxed trace matches plain
    inst = build_instance(50, 300, snr_db=20.0, channel_seed=11)
    y = realize(inst, 12).received
    v_plain = gmpid_detect(inst, y, eps=0.0, max_iter=40).trace.mean_variance
    v_rel = sagmpid_detect(inst, y, eps=0.0, max_iter=40).trace.mean_variance
    var_dev = float(np.max(np.abs(np.array(v_plain) - np.array(v_rel))))
    ok = bitwise and var_dev == 0.0
    _record(
        10,
        ok,
        f"bitwise state/result/trace equality on 5 seeds: {bitwise}; "
        f"variance-path deviation {var_dev}",
    )
