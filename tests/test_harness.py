"""Tests for the Monte-Carlo experiment harness: seeded sweeps, record
emission, variance traces, verdict tables, and complexity accounting."""

import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmpdetect import (
    DetectionResult,
    SystemDims,
    Termination,
    build_instance,
    derive_trial_seeds,
    gmpid_detect,
    harness,
    iterate,
    jacobi_for_mmse,
    realize,
    richardson_for_mmse,
    sagmpid_detect,
    variance_fixed_point,
)
from gmpdetect.harness import (
    DETECTORS,
    ONE_SHOT_DETECTORS,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    aggregate_records,
    emit_csv,
    render_csv,
    render_rows,
    resolve_relaxation,
    run_analysis,
    run_complexity,
    run_convergence_table,
    run_detector,
    run_experiment,
    run_mset_trace,
)

CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


def _config(**overrides):
    base = dict(
        dims=SystemDims(10, 40),
        snr_grid_db=[10.0],
        trials=1,
        master_seed=0,
        detectors=("mmse",),
        max_iter=100,
        record_wall_time=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------


def test_single_trial_produces_one_record_and_one_aggregate():
    records = run_experiment(_config())
    assert len(records) == 1
    aggregates = aggregate_records(records)
    assert len(aggregates) == 1
    assert aggregates[0].trials == 1
    assert aggregates[0].mean_mse == records[0].mse


def test_full_registry_sweep_counts_pairing_and_order():
    cfg = _config(
        dims=SystemDims(30, 90),
        snr_grid_db=[0.0, 10.0],
        trials=2,
        detectors=tuple(sorted(DETECTORS)),
        max_iter=300,
    )
    records = run_experiment(cfg)
    assert len(records) == 8 * 2 * 2
    # paired trials: every detector at one (snr, trial) consumed the same seed
    seeds = {}
    for r in records:
        seeds.setdefault((r.snr_db, r.trial), set()).add(r.seed)
    assert all(len(s) == 1 for s in seeds.values())
    assert [(r.detector, r.snr_db, r.trial) for r in records] == sorted(
        (r.detector, r.snr_db, r.trial) for r in records
    )
    assert all(r.wall_time_ns == 0 for r in records)


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_registry_entry_returns_detection_result(name):
    inst = build_instance(6, 24, snr_db=10.0, channel_seed=0)
    real = realize(inst, 1)
    r = run_detector(name, inst, real.received, max_iter=50, truth=real.symbols)
    assert isinstance(r, DetectionResult)
    assert r.estimate.shape == (6,)
    assert r.flops > 0
    if name in ("mmse", "mf", "if", "gmp"):
        assert r.iterations == 0
        assert r.terminated is Termination.EXACT
        assert r.trace is None
    else:
        assert r.iterations >= 1
        assert len(r.trace) == r.iterations
    if name in ("jacobi", "richardson"):
        # The first trace entry carries the set-up on top of one K x K step.
        assert 2 * 6 * 6 + 3 * 6 < r.trace.cum_flops[0] < r.flops
        assert r.posterior_var is None


@pytest.mark.parametrize("name", sorted(DETECTORS - ONE_SHOT_DETECTORS))
def test_iterative_entries_share_one_run_contract(name):
    # Every iterative detector charges its set-up inside the trace, so the
    # last cum_flops entry is the run's flops, and records MSE to the truth.
    inst = build_instance(6, 24, snr_db=10.0, channel_seed=0)
    real = realize(inst, 1)
    run = run_detector(name, inst, real.received, max_iter=50, truth=real.symbols)
    assert run.flops == run.trace.cum_flops[-1]
    assert len(run.trace.mse_to_truth) == run.iterations
    assert run.trace.mse_to_truth[-1] == np.mean((run.estimate - real.symbols) ** 2)
    untraced = run_detector(name, inst, real.received, max_iter=50)
    assert untraced.trace.mse_to_truth is None
    assert untraced.trace.cum_flops == run.trace.cum_flops


def _assert_same_result(got, want):
    """Every field of two results equal, arrays and trace columns bit for bit."""
    for f in fields(DetectionResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "trace":
            for column in fields(a):
                x, y = getattr(a, column.name), getattr(b, column.name)
                assert (x is None) == (y is None), column.name
                if x is not None:
                    np.testing.assert_array_equal(x, y, err_msg=column.name)
        elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def test_run_detector_defaults_are_the_library_calls():
    # The 20x22, 80 dB channel of `table --users 20 --beta 0.5,0.9 --snr-db 80
    # --trials 1` (load 0.9 is the table's second point): richardson needs
    # 1,515 iterations and sagmpid 1,106, so both run out the library's
    # budget, well past the CLI's 200.
    channel_seed, realization_seed = derive_trial_seeds(0, 1, 0)
    inst = build_instance(20, 22, snr_db=80.0, channel_seed=channel_seed)
    y = realize(inst, realization_seed).received
    direct = {
        "gmpid": lambda: gmpid_detect(inst, y),
        "sagmpid": lambda: sagmpid_detect(inst, y),
        "jacobi": lambda: iterate(jacobi_for_mmse(inst, y)),
        "richardson": lambda: iterate(richardson_for_mmse(inst, y)),
    }
    assert set(direct) == DETECTORS - ONE_SHOT_DETECTORS
    for name, call in direct.items():
        want = call()
        if name in ("richardson", "sagmpid"):
            assert want.iterations > 200
        _assert_same_result(run_detector(name, inst, y), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_every_detector_rejects_a_non_finite_observation(name, bad):
    # One ValueError that names y, with or without eps: a NaN in y used to
    # reach the eps check, end Diverged or come back as an Exact NaN estimate.
    inst = build_instance(4, 12, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received.copy()
    y[5] = bad
    for eps in (None, 1e-6):
        with pytest.raises(ValueError, match=r"^y must be finite"):
            run_detector(name, inst, y, eps=eps)


@pytest.mark.parametrize("cut", ["column", "short"])
@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_every_detector_rejects_an_observation_of_the_wrong_shape(name, cut):
    # A 2-D y used to pass: some detectors returned a K x K estimate and
    # ended Converged, others a numpy matmul error.
    inst = build_instance(4, 16, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    message = r"^y must be finite, with no NaN or infinite entry, in shape \(16,\)$"
    with pytest.raises(ValueError, match=message):
        run_detector(name, inst, y[:, None] if cut == "column" else y[:-1])


@pytest.mark.parametrize("kind", ["complex", "text"])
@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_every_detector_refuses_an_observation_that_is_not_real(name, kind):
    # A complex y used to give mmse and mf a complex estimate and gmpid a
    # numpy casting error; a text y raised TypeError. One ValueError names y.
    inst = build_instance(4, 16, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    bad = y + 0.5j if kind == "complex" else y.astype(str)
    with pytest.raises(ValueError, match=r"^y must hold real numbers, not (complex128|<U\d+)$"):
        run_detector(name, inst, bad)


@pytest.mark.parametrize("name", sorted(DETECTORS - ONE_SHOT_DETECTORS))
def test_every_iterative_detector_refuses_a_complex_truth(name):
    # A complex truth used to be cast to its real part in mse_to_truth.
    inst = build_instance(8, 32, snr_db=10.0, channel_seed=0)
    real = realize(inst, 1)
    with pytest.raises(ValueError, match=r"^truth must hold real numbers, not complex128$"):
        run_detector(name, inst, real.received, truth=real.symbols + 1j)


@pytest.mark.parametrize("bad", ["one", "long", "nan"])
@pytest.mark.parametrize("name", sorted(DETECTORS - ONE_SHOT_DETECTORS))
def test_every_iterative_detector_rejects_a_bad_truth(name, bad):
    # One ValueError that names truth, before the first iteration: a
    # length-1 truth used to broadcast into mse_to_truth, a longer one to
    # raise numpy's broadcast error after the first iteration's work, and a
    # NaN to fill the column with NaN.
    inst = build_instance(8, 32, snr_db=10.0, channel_seed=0)
    real = realize(inst, 1)
    truth = {
        "one": np.array([0.5]),
        "long": np.zeros(9),
        "nan": np.where(np.arange(8) == 3, np.nan, real.symbols),
    }[bad]
    message = r"^truth must be finite, with no NaN or infinite entry, in shape \(8,\)$"
    with pytest.raises(ValueError, match=message):
        run_detector(name, inst, real.received, truth=truth)


def test_rerun_with_identical_config_is_byte_identical():
    cfg = _config(dims=SystemDims(8, 32), trials=3, detectors=("mmse", "gmpid"))
    runs = [run_experiment(cfg) for _ in range(2)]
    first, second = (render_csv(r, aggregate_records(r)) for r in runs)
    assert first == second


def test_wall_time_recorded_when_enabled():
    records = run_experiment(_config(record_wall_time=True))
    assert all(r.wall_time_ns > 0 for r in records)


def test_exact_detectors_agree_on_shared_realizations():
    cfg = _config(
        dims=SystemDims(20, 80),
        trials=3,
        detectors=("mmse", "if", "gmp", "mf"),
    )
    records = run_experiment(cfg)
    by = {(r.detector, r.trial): r.mse for r in records}
    for trial in range(3):
        assert by[("if", trial)] == pytest.approx(by[("mmse", trial)], rel=1e-9)
        assert by[("gmp", trial)] == pytest.approx(by[("mmse", trial)], rel=1e-9)
        assert by[("mf", trial)] > by[("mmse", trial)]
    # More users than antennas: MMSE solves the user-side normal equations
    # that gmp inverts, so each gmp MSE is its MMSE one within criterion 1's
    # 1e-10 relative.
    cfg = _config(dims=SystemDims(30, 20), trials=2, detectors=("mmse", "gmp"))
    by = {(r.detector, r.trial): r.mse for r in run_experiment(cfg)}
    for trial in range(2):
        assert by[("gmp", trial)] == pytest.approx(by[("mmse", trial)], rel=1e-10, abs=0)


def test_iterative_detector_tracks_exact_mmse_in_mean():
    cfg = ExperimentConfig(
        dims=SystemDims(100, 600),
        snr_grid_db=[-10.0, 0.0],
        trials=50,
        master_seed=7,
        detectors=("mmse", "mf", "gmpid"),
        max_iter=100,
        record_wall_time=False,
    )
    means = {
        (a.detector, a.snr_db): a.mean_mse
        for a in aggregate_records(run_experiment(cfg))
    }
    for snr in (-10.0, 0.0):
        assert abs(means[("gmpid", snr)] / means[("mmse", snr)] - 1.0) < 0.10
        assert means[("mf", snr)] > 2.0 * means[("mmse", snr)]


# ---------------------------------------------------------------------------
# Config validation and w-mode parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"trials": 0},
        {"snr_grid_db": []},
        {"detectors": ("zf",)},
        {"detectors": ()},
        {"max_iter": 0},
        {"eps": 0.0},
        {"prior_var": 0.0},
        {"w_mode": "bogus"},
        {"w_mode": "manual:abc"},
        {"w_mode": "manual:-1"},
        {"w_mode": "manual:inf"},
        {"w_mode": "manual:nan"},
        {"snr_grid_db": [10.0, float("nan")]},
        {"prior_var": float("nan")},
        {"prior_var": float("inf")},
        {"snr_grid_db": [float("-inf")]},
        {"snr_grid_db": [float("-inf")], "detectors": ("if",)},
        {"snr_grid_db": [float("inf")]},
        {"snr_grid_db": [10.0, float("inf")], "detectors": ("if", "mmse")},
        {"snr_grid_db": [-4000.0], "detectors": ("if",)},  # noise variance overflows
        {"snr_grid_db": [4000.0]},  # and underflows to 0
        {"master_seed": -1},
        {"detectors": ("mmse", "mmse")},
        {"detectors": ("mmse", "gmpid", "mmse")},
        # What argparse guarantees on the CLI, a library caller is held to.
        {"trials": 2.5},
        {"master_seed": 1.5},
        {"max_iter": 2.5},
        {"snr_grid_db": ["10"]},
        {"eps": "1e-8"},
        {"eps": float("inf")},
        {"prior_var": "1"},
    ],
)
def test_invalid_configurations_rejected(overrides):
    with pytest.raises(ConfigError):
        harness._points(_config(**overrides), "sweep")


def test_a_bare_detector_name_is_no_sequence_of_names():
    # The error names the string, not each of its letters as an unknown detector.
    with pytest.raises(ConfigError, match="^detectors must be a sequence of names, not 'mmse'$"):
        harness._points(_config(detectors="mmse"), "sweep")


def test_infinite_snr_point_runs_the_inverse_filter_only():
    cfg = _config(snr_grid_db=[10.0, float("inf")], detectors=("if",))
    records = run_experiment(cfg)
    assert [r.snr_db for r in records] == [10.0, float("inf")]
    assert all(np.isfinite(r.mse) for r in records)


def test_resolve_relaxation_modes():
    inst = build_instance(10, 40, snr_db=10.0, channel_seed=0)
    assert resolve_relaxation(inst, "auto") is None
    manual = resolve_relaxation(inst, "manual:0.5")
    assert manual.source == "manual" and manual.w == pytest.approx(0.5)
    beta_choice = resolve_relaxation(inst, "beta")
    assert beta_choice.source == "beta" and beta_choice.w == pytest.approx(1.0 / 1.25)
    for removed in ("eigen", "bound"):
        with pytest.raises(ConfigError, match="auto"):
            resolve_relaxation(inst, removed)


def test_every_iterative_detector_takes_one_eps_rule():
    # results._Run checks eps for every iterative detector: a negative,
    # NaN or infinite eps raises one ValueError, and eps = 0 never stops.
    # Beside it, a budget that is not a non-negative integer raises too;
    # a numpy integer is a budget.
    inst = build_instance(4, 40, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    for name in sorted(DETECTORS - ONE_SHOT_DETECTORS):
        for eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"^eps must be finite and non-negative$"):
                run_detector(name, inst, y, eps=eps)
        for max_iter in (-1, 2.5, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match=r"^max_iter must be a non-negative integer$"):
                run_detector(name, inst, y, max_iter=max_iter)
        out = run_detector(name, inst, y, eps=0.0, max_iter=25)
        assert (out.iterations, out.terminated) == (25, Termination.MAX_ITERATIONS), name
        assert run_detector(name, inst, y, eps=0.0, max_iter=np.int64(3)).iterations == 3


def test_run_detector_rejects_unknown_name():
    inst = build_instance(4, 8, snr_db=10.0, channel_seed=0)
    with pytest.raises(ConfigError):
        run_detector("zf", inst, np.zeros(8))


# ---------------------------------------------------------------------------
# Record emission
# ---------------------------------------------------------------------------


def test_empty_record_list_renders_header_only():
    assert render_csv([], []) == CSV_HEADER + "\n"


def test_csv_shape_with_three_records():
    cfg = _config(trials=3)
    records = run_experiment(cfg)
    lines = render_csv(records, aggregate_records(records)).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(records) == 3
    assert lines[4] == "# aggregate"
    assert lines[5] == "detector,snr_db,mean_mse,trials"
    assert len(lines) == 7  # header + 3 records + marker + agg header + 1 agg


def test_csv_emitted_to_file(tmp_path):
    records = run_experiment(_config())
    path = tmp_path / "out.csv"
    emit_csv(records, str(path), aggregate_records(records))
    text = path.read_text()
    assert text.startswith(CSV_HEADER)
    assert "# aggregate" in text


def test_json_round_trip_reproduces_records_exactly(tmp_path):
    cfg = _config(trials=2, detectors=("mmse", "gmpid"), record_wall_time=True)
    records = run_experiment(cfg)
    path = tmp_path / "records.json"
    path.write_text(render_rows(records, TrialRecord, "json"))
    with open(path, encoding="utf-8") as fh:
        parsed = [TrialRecord(**obj) for obj in json.load(fh)]
    assert parsed == records
    assert all(isinstance(r, TrialRecord) for r in parsed)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_rows_are_strict_with_non_finite_cells():
    # Strict JSON has no Infinity or NaN: such a cell is written as the text
    # of its CSV cell, and a row whose cells are all finite keeps its bytes.
    finite = TrialRecord("if", 10.0, 0, 1, 0.5, 0, 9, "Exact", 0)
    odd = [
        replace(finite, snr_db=float("inf")),
        replace(finite, snr_db=float("-inf")),
        replace(finite, mse=float("nan")),
    ]
    text = render_rows([finite, *odd], TrialRecord, "json")
    rows = json.loads(text, parse_constant=_reject_constant)
    assert [r["snr_db"] for r in rows] == [10.0, "inf", "-inf", 10.0]
    assert [r["mse"] for r in rows] == [0.5, 0.5, 0.5, "nan"]
    csv_cells = render_rows(odd, TrialRecord).splitlines()[1:]
    assert [c.split(",")[1] for c in csv_cells[:2]] == ["inf", "-inf"]
    assert csv_cells[2].split(",")[4] == "nan"
    assert render_rows([finite], TrialRecord, "json") == (
        json.dumps([asdict(finite)], indent=1) + "\n"
    )


# ---------------------------------------------------------------------------
# Variance trace
# ---------------------------------------------------------------------------


def test_mset_single_iteration_yields_single_row():
    cfg = _config(detectors=("gmpid",), max_iter=1)
    rows = run_mset_trace(cfg)
    assert len(rows) == 1
    assert rows[0].iteration == 1


def test_mset_variance_monotone_and_reaches_closed_form_limit():
    cfg = ExperimentConfig(
        dims=SystemDims(100, 600),
        snr_grid_db=[20.0],
        trials=3,
        master_seed=3,
        detectors=("gmpid",),
        max_iter=30,
    )
    rows = run_mset_trace(cfg)
    assert len(rows) == 30
    variances = [r.mean_variance for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))
    limit = variance_fixed_point(build_instance(100, 600, snr_db=20.0)).sigma_hat_sq
    assert abs(variances[-1] / limit - 1.0) < 0.05
    assert all(np.isfinite(r.mse) and r.mse > 0 for r in rows)


def test_mset_relaxed_variance_trace_equals_plain_trace():
    base = dict(
        dims=SystemDims(100, 600),
        snr_grid_db=[20.0],
        trials=3,
        master_seed=3,
        max_iter=30,
    )
    plain = run_mset_trace(ExperimentConfig(detectors=("gmpid",), **base))
    relaxed = run_mset_trace(ExperimentConfig(detectors=("sagmpid",), **base))
    dev = max(
        abs(a.mean_variance - b.mean_variance) for a, b in zip(plain, relaxed)
    )
    assert dev <= 1e-12


def test_mset_requires_one_iterative_message_passing_detector():
    with pytest.raises(ConfigError):
        run_mset_trace(_config(detectors=("gmpid", "sagmpid")))
    with pytest.raises(ConfigError):
        run_mset_trace(_config(detectors=("mmse",)))
    with pytest.raises(ConfigError):
        run_mset_trace(_config(detectors=("gmpid",), snr_grid_db=[0.0, 10.0]))


def test_every_runner_rule_is_checked_in_points():
    # The noise rule and the detector rules of mset and complexity live in
    # _points, which every runner calls before its first draw.
    inf = float("inf")
    cases = [
        ("mset trace", _config(detectors=("mmse",)), "exactly one of"),
        ("mset trace", _config(detectors=("gmpid", "sagmpid")), "exactly one of"),
        ("complexity", _config(detectors=("mf",)), "must be iterative"),
        ("table", _config(snr_grid_db=[inf], detectors=("if",)), "noise variance 0.0"),
        ("sweep", _config(snr_grid_db=[inf], detectors=("if", "mmse")), "noise variance 0.0"),
    ]
    for what, cfg, message in cases:
        with pytest.raises(ConfigError, match=message):
            harness._points(cfg, what, [0.5] if what == "table" else None)
    cfg = _config(snr_grid_db=[10.0, inf], detectors=("if",))
    assert harness._points(cfg, "sweep") == [(10.0, 40), (inf, 40)]


# ---------------------------------------------------------------------------
# Convergence verdict table
# ---------------------------------------------------------------------------


_TABLE_DETECTORS = ("jacobi", "gmpid", "richardson", "sagmpid")


def test_table_low_load_all_converge():
    cfg = _config(
        dims=SystemDims(20, 40),
        snr_grid_db=[40.0],
        trials=2,
        master_seed=5,
        detectors=_TABLE_DETECTORS,
        max_iter=2000,
    )
    rows = run_convergence_table(cfg, [0.05])
    assert len(rows) == 4  # one record per detector at the one load
    assert {(r.beta, r.n_users, r.n_antennas) for r in rows} == {(0.05, 20, 400)}
    assert [r.detector for r in rows] == list(_TABLE_DETECTORS)
    assert all(r.verdict == "C" for r in rows)
    assert all(r.fraction_converged == 1.0 for r in rows)


def test_table_rejects_invalid_loads_and_detectors():
    cfg = _config(
        dims=SystemDims(20, 40), snr_grid_db=[40.0], detectors=_TABLE_DETECTORS
    )
    with pytest.raises(ConfigError):
        run_convergence_table(cfg, [1.0])
    with pytest.raises(ConfigError):
        run_convergence_table(cfg, [0.0])
    with pytest.raises(ConfigError):
        run_convergence_table(cfg, [])  # as an empty SNR grid
    with pytest.raises(ConfigError):
        run_convergence_table(_config(snr_grid_db=[40.0], detectors=("zf",)), [0.5])


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


def test_complexity_records_reach_target_with_consistent_costs():
    cfg = _config(
        dims=SystemDims(50, 350),
        trials=2,
        detectors=("gmpid", "sagmpid", "jacobi", "richardson"),
        max_iter=500,
        w_mode="beta",
    )
    records = run_complexity(cfg)
    assert len(records) == 4 * 2
    for r in records:
        assert r.detector in {"gmpid", "sagmpid", "jacobi", "richardson"}
        assert r.mmse_flops > 0 and r.mmse_mse > 0
        assert r.reach_iteration is not None  # easy setting: everyone reaches
        assert r.reach_iteration >= 1
        assert 0 < r.flops_to_target <= r.total_flops
        assert np.isfinite(r.final_mse)
    # the reference cost is the same for every detector within a trial
    for trial in (0, 1):
        refs = {r.mmse_flops for r in records if r.trial == trial}
        assert len(refs) == 1


def test_complexity_rejects_non_iterative_detector():
    for name in ("mmse", "mf", "if", "gmp"):
        with pytest.raises(ConfigError):
            run_complexity(_config(detectors=(name,)))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(trials=0),
        dict(max_iter=0),
        dict(eps=-1.0),
        dict(snr_grid_db=[0.0, 10.0]),
    ],
)
def test_table_and_complexity_reject_what_the_cli_rejects(overrides):
    cfg = _config(detectors=("gmpid",), **overrides)
    with pytest.raises(ConfigError):
        run_convergence_table(cfg, [0.5])
    with pytest.raises(ConfigError):
        run_complexity(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(dims=SystemDims(20, 10), detectors=("if",)),
        dict(dims=SystemDims(20, 10), detectors=("sagmpid",), w_mode="beta"),
        dict(dims=SystemDims(10, 10), detectors=("sagmpid",), w_mode="beta"),
    ],
)
def test_runners_reject_detectors_that_cannot_run_at_the_load(overrides):
    # The runners that read dims.n_antennas reject these before any draw;
    # the table ignores dims.n_antennas and runs them at each row's load.
    cfg = _config(**overrides)
    for runner in (run_experiment, run_mset_trace, run_complexity):
        with pytest.raises(ConfigError, match="antennas|load"):
            runner(cfg)
    rows = run_convergence_table(replace(cfg, snr_grid_db=[40.0]), [0.5])
    assert rows[0].n_antennas == 2 * cfg.dims.n_users


_RUNNERS = {
    "sweep": lambda cfg, loads: run_experiment(cfg),
    "mset": lambda cfg, loads: run_mset_trace(cfg),
    "table": run_convergence_table,
    "complexity": lambda cfg, loads: run_complexity(cfg),
    "analyze": lambda cfg, loads: run_analysis(cfg),
}
_INF, _NAN = float("inf"), float("nan")
# Three finite-noise branches to one of points whose noise variance is 0,
# infinite or NaN, so that most grids get past the noise rule and draw.
_SNR_POINTS = st.one_of(
    *[st.sampled_from([0.0, 10.0, 40.0])] * 3,
    st.sampled_from([_INF, -_INF, 4000.0, -4000.0, _NAN]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    runner=st.sampled_from(sorted(_RUNNERS)),
    K=st.integers(1, 4),
    M=st.integers(1, 12),
    snr_grid_db=st.lists(_SNR_POINTS, min_size=1, max_size=2),
    # 0.9 rounds M = K / 0.9 to K for every K <= 4; 1e-320 overflows K / beta;
    # 1e-300 gives a finite M beyond any array numpy can index.
    loads=st.lists(st.sampled_from([0.25, 0.5, 0.9, 1.0, 1e-320, 1e-300, _NAN]),
                   min_size=1, max_size=2),
    detectors=st.one_of(  # any detectors, or iterative ones as mset and complexity take
        st.lists(st.sampled_from(sorted(DETECTORS)), min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from(["gmpid", "sagmpid", "jacobi", "richardson"]),
                 min_size=1, max_size=2, unique=True),
    ),
    w_mode=st.sampled_from(["auto", "beta", "manual:0.8", "manual:0"]),
    max_iter=st.integers(1, 20),
)
@example(runner="sweep", K=3, M=3, snr_grid_db=[10.0], loads=[], detectors=["mmse", "sagmpid"],
         w_mode="beta", max_iter=5)  # w-mode beta at K = M, behind a detector that runs
@example(runner="mset", K=3, M=3, snr_grid_db=[10.0], loads=[], detectors=["sagmpid"],
         w_mode="beta", max_iter=5)
@example(runner="table", K=3, M=3, snr_grid_db=[10.0], loads=[0.5, 1e-320], detectors=["if"],
         w_mode="auto", max_iter=5)  # the second row's K / beta overflows
@example(runner="table", K=3, M=3, snr_grid_db=[10.0], loads=[0.5, 1e-300], detectors=["if"],
         w_mode="auto", max_iter=5)  # the second row's M is beyond any array
def test_runners_raise_config_errors_before_the_first_draw(
    runner, K, M, snr_grid_db, loads, detectors, w_mode, max_iter
):
    # A runner raises ConfigError before it draws its first channel, or not at all.
    cfg = _config(dims=SystemDims(K, M), snr_grid_db=snr_grid_db, detectors=tuple(detectors),
                  w_mode=w_mode, max_iter=max_iter)
    draws = []

    def counting_build(*args, **kwargs):
        draws.append(args)
        return build_instance(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "build_instance", counting_build)
        try:
            _RUNNERS[runner](cfg, loads)
        except ConfigError:
            assert draws == []
