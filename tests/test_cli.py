"""Tests for the command-line interface: exit codes, config-file layering,
output formats, and reproducibility of emitted files."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gmpdetect import (
    auto_relaxation,
    build_instance,
    cli,
    sagmpid_convergence_report,
)
from gmpdetect.cli import main
from gmpdetect.harness import CSV_HEADER

_SMALL = ["--users", "8", "--antennas", "32", "--trials", "1", "--seed", "0"]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],  # missing subcommand
        ["bogus"],  # unknown subcommand
        ["sweep", "--users", "abc"],  # not an integer
        ["sweep", "--users", "0"],  # invalid dimension
        ["sweep", "--detectors", "zf"],  # unknown detector
        ["sweep", "--trials", "0"],
        ["sweep", "--config", "/nonexistent/config.json"],
        ["sweep", "--w-mode", "manual:nope"],
        ["mset", "--detectors", "mmse"],  # trace needs message passing
        ["mset", "--snr-db", "0,10"],  # trace needs a single SNR
        ["complexity", "--detectors", "mmse"],
        ["table", "--beta", "1.5"],
        ["analyze", "--snr-db", "0,10"],
        ["complexity", "--detectors", "mf"],  # one-shot detectors have no reach
        ["analyze", "--users", "50", "--antennas", "50"],  # beta = 1
        ["table", "--snr-db", "0,10"],  # the table needs a single SNR
        ["complexity", "--snr-db", "0,10"],
        ["sweep", "--snr-db", "nan"],  # not a number
        ["sweep", "--w-mode", "manual:inf"],  # w must be finite
        ["sweep", "--prior-var", "inf"],
        # Detectors that cannot run at the load M / K of sweep, mset and complexity.
        ["sweep", "--users", "20", "--antennas", "10", "--detectors", "if"],
        ["sweep", "--users", "20", "--antennas", "10", "--detectors", "sagmpid", "--w-mode", "beta"],
        ["mset", "--users", "20", "--antennas", "20", "--detectors", "sagmpid", "--w-mode", "beta"],
        ["complexity", "--users", "20", "--antennas", "10", "--detectors", "sagmpid"],  # w-mode beta by default
        # -inf dB is infinite noise; +inf dB is noise 0, where only if runs.
        ["sweep", "--snr-db=-inf"],
        ["sweep", "--snr-db=0,-inf", "--detectors", "if"],
        ["sweep", "--snr-db", "inf"],
        ["sweep", "--snr-db", "inf", "--detectors", "if,gmpid"],
        ["sweep", "--snr-db", "inf", "--detectors", "sagmpid"],
        ["mset", "--snr-db", "inf", "--detectors", "gmpid"],
        ["complexity", "--snr-db", "inf"],
        ["table", "--snr-db", "inf"],
        ["table", "--snr-db=-inf"],
        ["analyze", "--snr-db", "inf"],
        ["analyze", "--snr-db=-inf"],
        # The single-point commands need a finite point even for if alone.
        ["table", "--snr-db", "inf", "--detectors", "if"],
        ["complexity", "--snr-db", "inf", "--detectors", "if"],
        ["analyze", "--snr-db", "inf", "--config", {"detectors": "if"}],
        ["sweep", "--format", "xml"],
        ["sweep", "--seed", "-1"],  # seeds are non-negative
        ["analyze", "--seed", "-1"],
        ["sweep", "--detectors", "mmse,mmse"],  # each detector once
        ["table", "--users", "8", "--beta", "0.1", "--trials", "2", "--detectors", "jacobi,jacobi"],
        # An empty load list, as an empty SNR grid.
        ["table", "--beta", "", "--users", "10", "--snr-db", "80"],
        ["table", "--users", "10", "--snr-db", "80", "--config", {"beta": []}],
        # analyze offers only the flags it reads.
        ["analyze", "--format", "csv"],
        ["analyze", "--trials", "2"],
        ["analyze", "--max-iter", "5"],
        ["analyze", "--eps", "1e-3"],
        ["analyze", "--detectors", "gmpid"],
        ["analyze", "--no-wall-time"],
        ["analyze", "--beta", "0.1"],
        # So do the row commands: mset always runs with eps 0, and only
        # sweep has a wall-time column. A config file cannot set them either.
        ["mset", *_SMALL, "--eps", "0.5"],
        ["mset", *_SMALL, "--no-wall-time"],
        ["table", "--users", "8", "--trials", "1", "--beta", "0.1", "--no-wall-time"],
        ["complexity", *_SMALL, "--no-wall-time"],
        ["mset", *_SMALL, "--config", {"eps": 0.5}],
        ["mset", *_SMALL, "--config", {"no_wall_time": True}],
        ["table", "--users", "8", "--trials", "1", "--beta", "0.1", "--config", {"no_wall_time": True}],
        ["complexity", *_SMALL, "--config", {"no_wall_time": True}],
        ["analyze", "--config", {"trials": 2}],
        # table sets M = round(K / beta) for each load: it has no --antennas.
        ["table", "--users", "8", "--trials", "1", "--beta", "0.1", "--antennas", "50"],
        ["table", "--users", "8", "--trials", "1", "--beta", "0.1", "--config", {"antennas": 50}],
        # Relaxation modes that were removed: auto is the measured optimum.
        ["analyze", "--users", "8", "--antennas", "32", "--w-mode", "eigen"],
        ["analyze", "--users", "8", "--antennas", "32", "--w-mode", "bound"],
        # A false no_wall_time stands for no flag, and mset still has none.
        ["mset", *_SMALL, "--config", {"no_wall_time": False}],
    ],
)
def test_configuration_errors_exit_one(argv, tmp_path, capsys):
    # A dict in argv stands for the path of a config file holding it.
    cfg_path = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):
            cfg_path.write_text(json.dumps(arg))
    assert main([str(cfg_path) if isinstance(a, dict) else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    if "eigen" in argv or "bound" in argv:
        assert "auto" in err  # the message names the mode to use instead


def test_runtime_failure_exits_two(monkeypatch, capsys):
    # a numerical failure inside a runner is a runtime error
    def failing_runner(config):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setattr(cli, "run_experiment", failing_runner)
    assert main(["sweep", *_SMALL]) == 2
    assert "runtime error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sweep output
# ---------------------------------------------------------------------------


def test_sweep_csv_to_stdout(capsys):
    code = main(
        ["sweep", *_SMALL, "--snr-db", "10", "--detectors", "mmse", "--no-wall-time"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("mmse,10.0,0,")
    assert "# aggregate" in lines


def test_sweep_json_format(tmp_path):
    path = tmp_path / "records.json"
    code = main(
        [
            "sweep",
            *_SMALL,
            "--detectors",
            "mmse,gmpid",
            "--format",
            "json",
            "--out",
            str(path),
            "--no-wall-time",
        ]
    )
    assert code == 0
    records = json.loads(path.read_text())
    assert len(records) == 2
    assert {r["detector"] for r in records} == {"mmse", "gmpid"}
    assert set(records[0]) == set(CSV_HEADER.split(","))


def test_sweep_json_at_an_infinite_snr_point_is_strict(capsys):
    argv = "sweep --users 4 --antennas 8 --snr-db 10,inf --detectors if --trials 1"
    assert main([*argv.split(), "--format", "json"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    records = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [r["snr_db"] for r in records] == [10.0, "inf"]


def test_sweep_byte_reproducible_without_wall_time(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        argv = [
            "sweep",
            *_SMALL,
            "--trials",
            "2",
            "--detectors",
            "mmse,gmpid",
            "--out",
            str(path),
            "--no-wall-time",
        ]
        assert main(argv) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# Config file layering
# ---------------------------------------------------------------------------


def test_config_file_supplies_values_and_flags_override(tmp_path):
    cfg = {
        "users": 6,
        "antennas": 24,
        "trials": 3,
        "detectors": "mmse",
        "snr_db": "0",
        "no_wall_time": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.csv"
    code = main(
        ["sweep", "--config", str(cfg_path), "--trials", "1", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    # --trials 1 overrides the file's 3: header + 1 record + aggregate block
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("mmse,0.0,0,")
    assert lines[2] == "# aggregate"
    assert len(lines) == 5


def test_config_file_with_unknown_key_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus_key": 1}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_config_file_must_be_json_object(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2, 3]")
    assert main(["sweep", "--config", str(cfg_path)]) == 1


def test_config_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'\xff{"users": 8}')
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "config error" in capsys.readouterr().err


# The flags each command lists in its help, besides --help and --config.
_COMMAND_FLAGS = {
    "analyze": {"--users", "--antennas", "--snr-db", "--seed", "--w-mode", "--prior-var", "--out"},
}
_ROW_FLAGS = _COMMAND_FLAGS["analyze"] | {"--trials", "--detectors", "--max-iter", "--format"}
_COMMAND_FLAGS["sweep"] = _ROW_FLAGS | {"--eps", "--no-wall-time"}
_COMMAND_FLAGS["mset"] = _ROW_FLAGS
_COMMAND_FLAGS["table"] = _ROW_FLAGS - {"--antennas"} | {"--eps", "--beta"}
_COMMAND_FLAGS["complexity"] = _ROW_FLAGS | {"--eps"}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_command_help_lists_exactly_its_flags(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    named = {s.flag for s in cli._SETTINGS.values() if command in s.commands}
    assert listed == named | {"--help", "--config"}
    assert named == _COMMAND_FLAGS[command]


_PARITY_BASE = {"users": "8", "antennas": "32", "trials": "1", "detectors": "mmse,sagmpid"}
# beta has a flag on table alone, which sets M from each load and has no
# wall-time column.
_TABLE_BASE = {"users": "8", "trials": "1", "max_iter": "100"}
# A valid value for every setting, each on a command with its flag.
_VALID_VALUES = [
    ("users", 6, ["--users", "6"]),
    ("antennas", "40", ["--antennas", "40"]),
    ("snr_db", "-5", ["--snr-db=-5"]),
    ("trials", 2, ["--trials", "2"]),
    ("seed", 3, ["--seed", "3"]),
    ("detectors", ["mmse", "gmp"], ["--detectors", "mmse,gmp"]),
    ("max_iter", 7, ["--max-iter", "7"]),
    ("eps", 0.001, ["--eps", "0.001"]),
    ("w_mode", "manual:0.8", ["--w-mode", "manual:0.8"]),
    ("prior_var", 2, ["--prior-var", "2"]),
    ("out", "other.csv", ["--out", "other.csv"]),
    ("format", "json", ["--format", "json"]),
    ("beta", [0.1, "0.2"], ["--beta", "0.1,0.2"]),
]


@pytest.mark.parametrize(
    "key, value, flag",
    [
        ("trials", "ten", ["--trials", "ten"]),
        ("trials", None, ["--trials", "null"]),
        ("eps", "abc", ["--eps", "abc"]),
        ("detectors", 5, ["--detectors", "5"]),
        ("snr_db", [1, "a"], ["--snr-db", "1,a"]),
        ("snr_db", 10, ["--snr-db", "10"]),
        ("users", 4.7, ["--users", "4.7"]),
        ("max_iter", 2.5, ["--max-iter", "2.5"]),
        ("users", True, ["--users", "true"]),
        ("format", "xml", ["--format", "xml"]),
        ("no_wall_time", "false", ["--no-wall-time=false"]),
        ("snr_db", [0, 10], ["--snr-db", "0,10"]),
        ("no_wall_time", True, ["--no-wall-time"]),
        *_VALID_VALUES,
    ],
)
def test_config_file_value_runs_like_its_flag(tmp_path, monkeypatch, key, value, flag):
    # A file value exits 1 exactly when its flag does, else writes the same bytes.
    monkeypatch.chdir(tmp_path)  # relative output paths land in tmp_path
    command, base = ("table", _TABLE_BASE) if key == "beta" else ("sweep", _PARITY_BASE)
    argv = [command]
    for k, text in base.items():
        if k != key:
            argv += ["--" + k.replace("_", "-"), text]
    if command == "sweep" and key != "no_wall_time":
        argv.append("--no-wall-time")
    out = "other.csv" if key == "out" else "out.csv"
    if key != "out":
        argv += ["--out", out]
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    results = []
    for extra in (["--config", "cfg.json"], flag):
        code = main(argv + extra)
        path = tmp_path / out
        results.append((code, path.read_bytes() if path.exists() else None))
        path.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)
    if (key, value, flag) in _VALID_VALUES:
        assert results[0][0] == 0


# ---------------------------------------------------------------------------
# Other subcommands end-to-end
# ---------------------------------------------------------------------------


def test_mset_trace_rows(tmp_path):
    path = tmp_path / "trace.csv"
    code = main(
        [
            "mset",
            "--users",
            "10",
            "--antennas",
            "60",
            "--trials",
            "1",
            "--max-iter",
            "5",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,mean_variance,mse"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "1"


def test_table_verdicts(tmp_path):
    path = tmp_path / "table.csv"
    code = main(
        [
            "table",
            "--beta",
            "0.05",
            "--users",
            "10",
            "--snr-db",
            "40",
            "--trials",
            "1",
            "--max-iter",
            "2000",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    header = "beta,n_users,n_antennas,detector,fraction_converged,verdict"
    assert lines[0] == header
    assert len(lines) == 5  # four detectors at one load factor
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "0.05"
        assert fields[2] == "200"
        assert fields[5] == "C"


def test_complexity_rows(tmp_path):
    path = tmp_path / "cx.csv"
    code = main(
        [
            "complexity",
            "--users",
            "20",
            "--antennas",
            "140",
            "--snr-db",
            "10",
            "--trials",
            "1",
            "--detectors",
            "gmpid",
            "--max-iter",
            "300",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "detector,trial,reach_iteration,flops_to_target,total_flops,"
        "final_mse,mmse_mse,mmse_flops"
    )
    assert len(lines) == 2
    assert lines[1].startswith("gmpid,0,")


def test_analyze_report_keys(tmp_path):
    path = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--users",
            "100",
            "--antennas",
            "600",
            "--snr-db",
            "20",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["beta"] == pytest.approx(1.0 / 6.0)
    assert set(report) >= {
        "variance_fixed_point",
        "mmse_mse_prediction",
        "gmpid",
        "sagmpid",
    }
    assert report["gmpid"]["predicted_converges"] is True
    assert 0 < report["variance_fixed_point"]["sigma_hat_sq"] < 1
    assert report["mmse_mse_prediction"]["regime"] == "underloaded"
    # With the default w-mode (auto) the report describes the w that
    # sagmpid_detect runs.
    inst = build_instance(100, 600, snr_db=20.0, channel_seed=3)
    expected = sagmpid_convergence_report(inst, auto_relaxation(inst))
    assert report["sagmpid"]["spectral_radius"] == expected.spectral_radius
    assert report["sagmpid"]["w"] == auto_relaxation(inst).w
    # Both radii: the iterated matrix's and its closed-form approximation.
    for detector in ("gmpid", "sagmpid"):
        assert 0 < report[detector]["closed_form_radius"] < 1
    assert report["gmpid"]["w"] == 1.0


def _run_module_sweep(out, args, **env):
    """``python -m gmpdetect.cli sweep ARGS --out OUT --no-wall-time``."""
    # the child imports the package from wherever this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gmpdetect.cli", "sweep", *args]
        + ["--out", str(out), "--no-wall-time"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_module_invocation_smoke(tmp_path):
    out = tmp_path / "smoke.csv"
    proc = _run_module_sweep(out, [*_SMALL, "--detectors", "mmse"])
    assert proc.returncode == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_reruns_at_one_blas_thread_are_byte_identical(tmp_path):
    # The README's claim as stated: same build, same BLAS thread count.
    args = ["--users", "100", "--antennas", "600", "--snr-db", "0,10"]
    args += ["--trials", "2", "--seed", "0", "--detectors", "mmse,gmpid"]
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for out in outs:
        proc = _run_module_sweep(out, args, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
