"""Command-line interface for the detection harness.

Subcommands:

- ``sweep``       MSE vs SNR for a set of detectors (CSV/JSON records)
- ``mset``        per-iteration variance/MSE trace of gmpid or sagmpid
- ``table``       Converged/Diverged verdict table across load factors
- ``complexity``  flops-to-MSE-target comparison against exact MMSE
- ``analyze``     closed-form convergence/MSE report for one instance

A JSON config file (flat key/value, keys matching the long flag names
with underscores) may supply any value; explicit command-line flags
override it. Exit codes: 0 success, 1 configuration error, 2
runtime/numerical error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

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
    aggregate_records,
    emit_csv,
    emit_json,
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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--users", type=int, help="number of users K")
    p.add_argument("--antennas", type=int, help="number of antennas M")
    p.add_argument("--snr-db", help="comma-separated SNR grid in dB")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--detectors", help="comma-separated detector names")
    p.add_argument("--max-iter", type=int, help="iteration budget")
    p.add_argument("--eps", type=float, help="step-change stop threshold")
    p.add_argument(
        "--w-mode",
        help="relaxation selection: auto|beta|eigen|bound|manual:<v>",
    )
    p.add_argument("--prior-var", type=float, help="prior symbol variance")
    p.add_argument("--out", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=["csv", "json"], help="output format")
    p.add_argument(
        "--no-wall-time",
        action="store_true",
        default=None,
        help="record 0 wall time for byte-reproducible output",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmpdetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("sweep", "MSE vs SNR sweep"),
        ("mset", "per-iteration variance/MSE trace"),
        ("table", "convergence verdict table over load factors"),
        ("complexity", "flops to reach the MMSE-relative MSE target"),
        ("analyze", "closed-form convergence and MSE report"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p)
        if name == "table":
            p.add_argument("--beta", help="comma-separated load factors")
    return parser


def _parse_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


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


_DEFAULTS = {
    "users": 100,
    "antennas": 600,
    "snr_db": "10",
    "trials": 10,
    "seed": 0,
    "detectors": None,  # per-command default, see _COMMAND_DETECTORS
    "max_iter": 200,
    "eps": None,
    "w_mode": None,  # per-command default: "beta" for complexity, else "auto"
    "prior_var": 1.0,
    "out": "-",
    "format": "csv",
    "beta": "0.05,0.2,0.9",
    "no_wall_time": False,
}

_COMMAND_DETECTORS = {
    "sweep": ("mmse", "gmpid"),
    "mset": ("gmpid",),
    "table": ("jacobi", "gmpid", "richardson", "sagmpid"),
    "complexity": ("gmpid", "sagmpid", "jacobi", "richardson"),
    "analyze": ("gmpid", "sagmpid"),
}


def _merged_settings(args: argparse.Namespace) -> dict:
    """Layer precedence: built-in defaults < config file < explicit flags."""
    settings = dict(_DEFAULTS)
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = [k for k in file_values if k not in _DEFAULTS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        settings.update(file_values)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _experiment_config(settings: dict, command: str) -> ExperimentConfig:
    snr = settings["snr_db"]
    snr_grid = _parse_list(snr) if isinstance(snr, str) else [float(v) for v in snr]
    detectors = settings["detectors"]
    if detectors is None:
        detectors = _COMMAND_DETECTORS[command]
    if isinstance(detectors, str):
        detectors = tuple(tok for tok in detectors.replace(",", " ").split())
    else:
        detectors = tuple(detectors)
    w_mode = settings["w_mode"]
    if w_mode is None:
        w_mode = "beta" if command == "complexity" else "auto"
    try:
        dims = SystemDims(int(settings["users"]), int(settings["antennas"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    eps = settings["eps"]
    cfg = ExperimentConfig(
        dims=dims,
        snr_grid_db=snr_grid,
        trials=int(settings["trials"]),
        master_seed=int(settings["seed"]),
        detectors=detectors,
        max_iter=int(settings["max_iter"]),
        eps=None if eps is None else float(eps),
        prior_var=float(settings["prior_var"]),
        w_mode=str(w_mode),
        output_path=str(settings["out"]),
        output_format=str(settings["format"]),
        record_wall_time=not bool(settings["no_wall_time"]),
    )
    cfg.validate()
    return cfg


def _emit_rows(rows: list[dict], header: list[str], cfg: ExperimentConfig) -> None:
    if cfg.output_format == "json":
        write_text(cfg.output_path, json.dumps(rows, indent=1) + "\n")
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[h] is None else str(row[h]) for h in header))
    write_text(cfg.output_path, "\n".join(lines) + "\n")


def _cmd_sweep(settings: dict) -> int:
    cfg = _experiment_config(settings, "sweep")
    records = run_experiment(cfg)
    if cfg.output_format == "json":
        emit_json(records, cfg.output_path)
    else:
        emit_csv(records, cfg.output_path, aggregate_records(records))
    return 0


def _cmd_mset(settings: dict) -> int:
    cfg = _experiment_config(settings, "mset")
    rows = run_mset_trace(cfg)
    _emit_rows([asdict(r) for r in rows], ["iteration", "mean_variance", "mse"], cfg)
    return 0


def _cmd_table(settings: dict) -> int:
    cfg = _experiment_config(settings, "table")
    beta = settings["beta"]
    beta_list = _parse_list(beta) if isinstance(beta, str) else [float(b) for b in beta]
    rows = run_convergence_table(cfg, beta_list)
    flat = []
    for row in rows:
        for det in row.fraction:
            flat.append(
                {
                    "beta": row.beta,
                    "n_users": row.n_users,
                    "n_antennas": row.n_antennas,
                    "detector": det,
                    "fraction_converged": row.fraction[det],
                    "verdict": row.verdict[det],
                }
            )
    _emit_rows(
        flat,
        ["beta", "n_users", "n_antennas", "detector", "fraction_converged", "verdict"],
        cfg,
    )
    return 0


def _cmd_complexity(settings: dict) -> int:
    cfg = _experiment_config(settings, "complexity")
    records = run_complexity(cfg)
    _emit_rows(
        [asdict(r) for r in records], [f.name for f in fields(ComplexityRecord)], cfg
    )
    return 0


def _cmd_analyze(settings: dict) -> int:
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
    write_text(cfg.output_path, json.dumps(report, indent=1) + "\n")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "mset": _cmd_mset,
    "table": _cmd_table,
    "complexity": _cmd_complexity,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point. Returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        settings = _merged_settings(args)
        return _COMMANDS[args.command](settings)
    except ConfigError as exc:
        print(f"gmpdetect: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical/runtime failures
        print(f"gmpdetect: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
