"""Command-line interface for the detection harness.

Subcommands:

- ``sweep``       MSE vs SNR for a set of detectors (CSV/JSON records)
- ``mset``        per-iteration variance/MSE trace of gmpid or sagmpid
- ``table``       Converged/Diverged verdict table across load factors
- ``complexity``  flops-to-MSE-target comparison against exact MMSE
- ``analyze``     convergence/MSE report for one instance

A JSON config file (flat key/value, keys matching the long flag names
with underscores) may supply any setting the command has a flag for. Its
values become ``--flag=value`` tokens placed right after the subcommand,
before the command line's own flags, and one parser types and checks them
all; the last flag wins. A file value is the flag text it stands for: a
string; a number for the numeric settings, ``snr_db`` and ``beta``; an
array (read comma-joined) for ``snr_db``, ``beta`` and ``detectors``; a
boolean for ``no_wall_time`` only (true is the bare flag, false no flag).
Any other form is a configuration error. Exit codes: 0 success, 1
configuration error, 2 runtime/numerical error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

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
    run_analysis,
    run_complexity,
    run_convergence_table,
    run_experiment,
    run_mset_trace,
    write_text,
)
from .model import SystemDims


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _parse_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, its default detectors, its runner of
    (config, parsed args), the record type of the rows it returns (None for
    analyze's report) and its default w-mode. A runner looks its harness
    function up in this module when it runs, so a replaced module attribute
    is the one run."""

    help: str
    detectors: tuple[str, ...]
    run: Callable[[ExperimentConfig, argparse.Namespace], Any]
    kind: type | None = None
    w_mode: str = "auto"


_COMMANDS = {
    "sweep": _Command("MSE vs SNR sweep", ("mmse", "gmpid"),
                      lambda cfg, args: run_experiment(cfg), TrialRecord),
    "mset": _Command("per-iteration variance/MSE trace", ("gmpid",),
                     lambda cfg, args: run_mset_trace(cfg), MsetRow),
    "table": _Command("convergence verdict table over load factors",
                      ("jacobi", "gmpid", "richardson", "sagmpid"),
                      lambda cfg, args: run_convergence_table(cfg, args.beta),
                      TableRecord),
    "complexity": _Command("flops to reach the MMSE-relative MSE target",
                           ("gmpid", "sagmpid", "jacobi", "richardson"),
                           lambda cfg, args: run_complexity(cfg), ComplexityRecord,
                           w_mode="beta"),
    "analyze": _Command("convergence and MSE report", ("gmpid", "sagmpid"),
                        lambda cfg, args: run_analysis(cfg)),
}
_ROWS = tuple(name for name, c in _COMMANDS.items() if c.kind is not None)


@dataclass(frozen=True)
class _Setting:
    """One setting: flag ``--key`` (dashes for underscores), config key ``key``.

    ``type`` turns flag text into the value, a ValueError meaning a config
    error; it is None for the presence flag ``no_wall_time``. ``default`` is
    the value when neither flag nor file gives one, except for the detectors
    and the w-mode, whose defaults each :class:`_Command` sets.
    """

    key: str
    type: Callable[[str], Any] | None
    default: Any
    help: str
    commands: tuple[str, ...] = tuple(_COMMANDS)  # the commands with this flag
    choices: tuple[str, ...] | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


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
        _Setting("detectors", _parse_names, (), "comma-separated detectors", _ROWS),
        _Setting("max_iter", int, 200, "iteration budget", _ROWS),
        _Setting("eps", float, None, "step-change stop threshold",
                 ("sweep", "table", "complexity")),
        _Setting("w_mode", str, "auto", "relaxation: auto|beta|manual:<v>"),
        _Setting("prior_var", float, 1.0, "prior symbol variance"),
        _Setting("out", str, "-", "output path ('-' = stdout)"),
        _Setting("format", str, "csv", "output format", _ROWS, ("csv", "json")),
        _Setting("beta", _parse_list, [0.05, 0.2, 0.9], "load factors K/M", ("table",)),
        _Setting("no_wall_time", None, False, "zero the wall-time column", ("sweep",)),
    )
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmpdetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, c in _COMMANDS.items():
        p = sub.add_parser(name, help=c.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        for s in (s for s in _SETTINGS.values() if name in s.commands):
            if s.type is None:
                p.add_argument(s.flag, action="store_true", help=s.help)
            else:
                p.add_argument(s.flag, type=s.type, choices=s.choices, help=s.help)
        # Settings without a flag here keep their defaults: the config reads them.
        p.set_defaults(**{k: s.default for k, s in _SETTINGS.items()})
        p.set_defaults(detectors=c.detectors, w_mode=c.w_mode)
    return parser


def _file_flags(s: _Setting, value: Any) -> list[str]:
    """The flag tokens that config-file ``value`` of setting ``s`` stands for.

    Besides a string, a numeric setting takes a JSON number and a list
    setting an array, each as the text it prints as. A JSON boolean prints
    as ``True``/``False``, which no flag type takes.
    """
    number_types = (int, float) if s.type in (int, float, _parse_list) else ()
    if s.type is None:
        if isinstance(value, bool):
            return [s.flag] if value else []
    elif isinstance(value, (str, *number_types)):
        return [f"{s.flag}={value}"]
    elif s.type in (_parse_list, _parse_names) and isinstance(value, list):
        if all(isinstance(v, (str, *number_types)) for v in value):
            return [f"{s.flag}=" + ",".join(str(v) for v in value)]
    raise ConfigError(f"config key {s.key!r} cannot take {json.dumps(value)}")


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object")
    # Checked here, not left to the parser: a false no_wall_time is no flag.
    stray = [k for k in data if k not in _SETTINGS or command not in _SETTINGS[k].commands]
    if stray:
        raise ConfigError(f"config keys {stray} name no setting of {command}")
    return data


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Every setting, typed and checked by the parser: the defaults, then the
    config file's values as flags right after the subcommand, then the
    command line's own flags, the last flag winning."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    file_flags = [
        token
        for key, value in _load_config_file(args.config, args.command).items()
        for token in _file_flags(_SETTINGS[key], value)
    ]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + file_flags + argv[at:])


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    try:
        dims = SystemDims(args.users, args.antennas)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        dims=dims, snr_grid_db=args.snr_db, trials=args.trials, master_seed=args.seed,
        detectors=args.detectors, max_iter=args.max_iter, eps=args.eps,
        prior_var=args.prior_var, w_mode=args.w_mode,
        record_wall_time=not args.no_wall_time,
    )


def _run_and_write(args: argparse.Namespace) -> None:
    """Run the command and write what it returns: analyze's report as JSON,
    the sweep's CSV with its aggregate section, any other rows as rendered."""
    command = _COMMANDS[args.command]
    result = command.run(_experiment_config(args), args)
    if command.kind is None:
        write_text(args.out, json.dumps(result, indent=1) + "\n")
    elif command.kind is TrialRecord and args.format == "csv":
        emit_csv(result, args.out, aggregate_records(result))  # ends in '# aggregate'
    else:
        write_text(args.out, render_rows(result, command.kind, args.format))


def main(argv: list[str] | None = None) -> int:
    """Entry point. Returns the process exit code."""
    try:
        _run_and_write(_parse_args(argv))
        return 0
    except ConfigError as exc:
        print(f"gmpdetect: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical/runtime failures
        print(f"gmpdetect: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
