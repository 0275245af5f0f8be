"""Command-line interface for the detection harness.

Subcommands:

- ``sweep``       MSE vs SNR for a set of detectors (CSV/JSON records)
- ``mset``        per-iteration variance/MSE trace of gmpid or sagmpid
- ``table``       Converged/Diverged verdict table across load factors
- ``complexity``  flops-to-MSE-target comparison against exact MMSE
- ``analyze``     convergence/MSE report for one instance

A JSON config file (flat key/value, keys matching the long flag names
with underscores) may supply any setting the command has a flag for;
explicit command-line flags override it. A file value is read as the flag
text it stands for: a string; a number for the numeric settings,
``snr_db`` and ``beta``; an array (read comma-joined) for ``snr_db``,
``beta`` and ``detectors``; a boolean for ``no_wall_time`` only. Any other
form is a configuration error. Exit codes: 0 success, 1 configuration
error, 2 runtime/numerical error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

from .analysis import (
    gmpid_mean_convergence_report,
    rmt_mmse_mse,
    sagmpid_convergence_report,
)
from .gmpid import variance_fixed_point
from .harness import (
    ComplexityRecord,
    ConfigError,
    ExperimentConfig,
    MsetRow,
    TableRecord,
    TrialRecord,
    aggregate_records,
    emit_csv,
    render_rows,
    resolve_relaxation,
    run_complexity,
    run_convergence_table,
    run_experiment,
    run_mset_trace,
    write_text,
)
from .model import SystemDims, build_instance


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _parse_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


@dataclass(frozen=True)
class _Setting:
    """One setting: flag ``--key`` (dashes for underscores), config key ``key``.

    ``parse`` turns flag text into the value, a ValueError meaning a config
    error; it is None for the presence flag ``no_wall_time``. ``default`` is
    the value when neither flag nor file gives one (None: the command
    decides).
    """

    key: str
    parse: Callable[[str], Any] | None
    default: Any
    help: str
    command: tuple[str, ...] | None = None  # the commands with this flag; None: all
    choices: tuple[str, ...] | None = None


_ROWS = ("sweep", "mset", "table", "complexity")  # the commands that write rows
_SETTINGS = {
    s.key: s
    for s in (
        _Setting("users", int, 100, "number of users K"),
        _Setting(
            "antennas", int, 600, "number of antennas M",
            ("sweep", "mset", "complexity", "analyze"),  # table sets M from each load
        ),
        _Setting("snr_db", _parse_list, [10.0], "comma-separated SNR grid in dB"),
        _Setting("trials", int, 10, "Monte-Carlo trials per point", _ROWS),
        _Setting("seed", int, 0, "master seed"),
        _Setting("detectors", _parse_names, None, "comma-separated detectors", _ROWS),
        _Setting("max_iter", int, 200, "iteration budget", _ROWS),
        _Setting(
            "eps", float, None, "step-change stop threshold", ("sweep", "table", "complexity")
        ),
        _Setting("w_mode", str, None, "relaxation: auto|beta|manual:<v>"),
        _Setting("prior_var", float, 1.0, "prior symbol variance"),
        _Setting("out", str, "-", "output path ('-' = stdout)"),
        _Setting("format", str, "csv", "output format", _ROWS, ("csv", "json")),
        _Setting("beta", _parse_list, [0.05, 0.2, 0.9], "load factors K/M", ("table",)),
        _Setting("no_wall_time", None, False, "zero the wall-time column", ("sweep",)),
    )
}
# Besides a string, a config file may give a JSON number for a setting parsed
# by one of _NUMERIC, and an array for one parsed by one of _LISTS; both are
# read as the flag text they print as.
_NUMERIC = (int, float, _parse_list)
_LISTS = (_parse_list, _parse_names)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmpdetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("sweep", "MSE vs SNR sweep"),
        ("mset", "per-iteration variance/MSE trace"),
        ("table", "convergence verdict table over load factors"),
        ("complexity", "flops to reach the MMSE-relative MSE target"),
        ("analyze", "convergence and MSE report"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file; flags override it")
        for s in _SETTINGS.values():
            if s.command is not None and name not in s.command:
                continue
            flag = "--" + s.key.replace("_", "-")
            if s.parse is None:
                p.add_argument(flag, action="store_true", default=None, help=s.help)
            else:
                p.add_argument(flag, choices=s.choices, help=s.help)
    return parser


def _value(s: _Setting, text: str) -> Any:
    """Setting ``s`` parsed from its flag text."""
    if s.choices is not None and text not in s.choices:
        raise ConfigError(f"{s.key} must be one of {list(s.choices)}, not {text!r}")
    try:
        return s.parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad {s.key} value {text!r}") from exc


def _file_value(s: _Setting, value: Any) -> Any:
    """Setting ``s`` from a config-file value, read as the flag text it stands for.

    A JSON boolean prints as ``True``/``False``, which no parser takes.
    """
    number_types = (int, float) if s.parse in _NUMERIC else ()
    if s.parse is None:
        if isinstance(value, bool):
            return value
    elif isinstance(value, str):
        return _value(s, value)
    elif isinstance(value, number_types):
        return _value(s, str(value))
    elif s.parse in _LISTS and isinstance(value, list):
        if all(isinstance(v, (str, *number_types)) for v in value):
            return _value(s, ",".join(str(v) for v in value))
    raise ConfigError(f"config key {s.key!r} cannot take {json.dumps(value)}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return data


def _settings(args: argparse.Namespace) -> dict:
    """Layer precedence: built-in defaults < config file < explicit flags."""
    settings = {key: s.default for key, s in _SETTINGS.items()}
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = [k for k in file_values if k not in _SETTINGS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        for key, value in file_values.items():
            s = _SETTINGS[key]
            if s.command is not None and args.command not in s.command:
                raise ConfigError(f"config key {key!r} does not apply to {args.command}")
            settings[key] = _file_value(s, value)
    for key, s in _SETTINGS.items():
        text = getattr(args, key, None)
        if text is not None:
            settings[key] = True if s.parse is None else _value(s, text)
    return settings


_COMMAND_DETECTORS = {
    "sweep": ("mmse", "gmpid"),
    "mset": ("gmpid",),
    "table": ("jacobi", "gmpid", "richardson", "sagmpid"),
    "complexity": ("gmpid", "sagmpid", "jacobi", "richardson"),
    "analyze": ("gmpid", "sagmpid"),
}


def _experiment_config(settings: dict, command: str) -> ExperimentConfig:
    detectors, w_mode = settings["detectors"], settings["w_mode"]
    if detectors is None:
        detectors = _COMMAND_DETECTORS[command]
    if w_mode is None:
        w_mode = "beta" if command == "complexity" else "auto"
    try:
        dims = SystemDims(settings["users"], settings["antennas"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = ExperimentConfig(
        dims=dims,
        snr_grid_db=settings["snr_db"],
        trials=settings["trials"],
        master_seed=settings["seed"],
        detectors=detectors,
        max_iter=settings["max_iter"],
        eps=settings["eps"],
        prior_var=settings["prior_var"],
        w_mode=w_mode,
        record_wall_time=not settings["no_wall_time"],
    )
    cfg.validate()
    return cfg


# Row command -> (runner of (config, settings), record type it returns).
_ROW_COMMANDS = {
    "sweep": (lambda cfg, settings: run_experiment(cfg), TrialRecord),
    "mset": (lambda cfg, settings: run_mset_trace(cfg), MsetRow),
    "table": (
        lambda cfg, settings: run_convergence_table(cfg, settings["beta"]),
        TableRecord,
    ),
    "complexity": (lambda cfg, settings: run_complexity(cfg), ComplexityRecord),
}


def _emit_records(command: str, settings: dict) -> None:
    run, kind = _ROW_COMMANDS[command]
    records = run(_experiment_config(settings, command), settings)
    out, fmt = settings["out"], settings["format"]
    if kind is TrialRecord and fmt == "csv":
        emit_csv(records, out, aggregate_records(records))  # ends in '# aggregate'
    else:
        write_text(out, render_rows(records, kind, fmt))


def _analyze(settings: dict) -> None:
    cfg = _experiment_config(settings, "analyze")
    snr_db = cfg.single_snr("analyze")
    if not cfg.dims.beta < 1:
        raise ConfigError("analyze requires load beta < 1")
    inst = build_instance(
        cfg.dims.n_users,
        cfg.dims.n_antennas,
        snr_db=snr_db,
        prior_var=cfg.prior_var,
        channel_seed=cfg.master_seed,
    )
    relax = resolve_relaxation(inst, cfg.w_mode)  # None means auto
    fp = variance_fixed_point(inst)
    pred = rmt_mmse_mse(
        cfg.dims.n_users, cfg.dims.n_antennas, cfg.prior_var, inst.noise_var
    )
    report = {
        "n_users": cfg.dims.n_users,
        "n_antennas": cfg.dims.n_antennas,
        "beta": cfg.dims.beta,
        "snr_db": snr_db,
        "seed": cfg.master_seed,
        "variance_fixed_point": asdict(fp),
        "mmse_mse_prediction": {
            "exact": pred.exact,
            "asymptote": pred.asymptote,
            "regime": pred.regime,
        },
        "gmpid": gmpid_mean_convergence_report(inst).to_dict(),
        "sagmpid": sagmpid_convergence_report(inst, relax).to_dict(),
    }
    write_text(settings["out"], json.dumps(report, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Entry point. Returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        settings = _settings(args)
        if args.command == "analyze":
            _analyze(settings)
        else:
            _emit_records(args.command, settings)
        return 0
    except ConfigError as exc:
        print(f"gmpdetect: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical/runtime failures
        print(f"gmpdetect: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
