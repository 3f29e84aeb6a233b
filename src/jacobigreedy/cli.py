"""Command-line front end: experiment dispatch with reproducible file output.

Each command declares the config keys it reads, each with its default
(Command.keys). Those keys are its only flags, --<key> with "_" spelled "-",
besides --out and --config; a key's type is its default's. Every run writes
<out>/<command>.csv (data rows, floats at 17 significant digits),
<out>/<command>.json (summary: the config echo, which holds exactly the
command's keys, then its results), <out>/manifest.json (command, the same
config echo, tool version, timestamp) and, for slope-fit commands, a
<command>.dat / <command>.fit pair of plot files. Exit codes: 0 success,
2 configuration error, 3 numerical failure (non-convergence or overflow).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .jacobi import JacobiParams, NormalizationMode
from .quadrature import ConvergenceError, EvaluationError
from .experiments import (
    ExperimentConfig,
    SlopeFit,
    average_block_experiment,
    block_sum_experiment,
    darboux_envelope,
    geometric_grid,
    main_theorem_witness,
    near_one_experiment,
    norm_regimes_experiment,
    omega_exponent,
)

def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@functools.cache  # one parser per process: building the six subparsers costs 1-3 ms, and nothing mutates it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobigreedy",
        description="Greedy-algorithm asymptotics for Jacobi expansions in Lp(mu).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd, allow_abbrev=False)  # --sam is not --samples
        for key, default in _settable(cmd).items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))
        p.add_argument("--config", type=str)
    return parser


def _settable(command: str) -> dict:
    """The command's keys and out, the output directory, which the config echo leaves out."""
    return dict(COMMANDS[command].keys, out="runs")


def _merge_config(args: argparse.Namespace) -> dict:
    defaults = _settable(args.command)
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        if "config" in loaded and isinstance(loaded["config"], dict):
            loaded = loaded["config"]  # accept a manifest file directly
        cfg.update({k: v for k, v in loaded.items() if k in cfg})  # keys it does not read are ignored
    for key, default in defaults.items():
        flag, kind = getattr(args, key), type(default)
        v = cfg[key] if flag is None else flag
        try:  # a --config value may be null, [1], true, 3 for a str key or, for an int key, 8.7
            wrong = isinstance(v, bool) or (kind is str and not isinstance(v, str))
            if wrong or (kind is int and isinstance(v, float) and not v.is_integer()):
                raise TypeError
            cfg[key] = kind(v)
        except (TypeError, ValueError):
            raise ValueError(f"{key}={json.dumps(v)} is not a valid {kind.__name__}") from None
    if cfg.get("seed", 0) < 0:  # numpy's own message would not name the seed
        raise ValueError(f"seed={cfg['seed']} must be >= 0")
    return cfg


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_summary(fit: SlopeFit) -> dict:
    return {
        "label": fit.label,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_residual": fit.max_residual,
        "dropped_smallest": fit.dropped_smallest,
    }


def emit_plot_data(fit: SlopeFit, path: Path) -> None:
    """Two-column (log10 x, log10 y) data file plus a .fit sidecar."""
    if not fit.xs:
        raise ConvergenceError("empty fit, nothing to plot")
    path = Path(path)
    with open(path, "w") as fh:
        for x, y in zip(fit.xs, fit.ys):
            fh.write(f"{math.log10(x):.17g} {math.log10(y):.17g}\n")
    with open(path.with_suffix(".fit"), "w") as fh:
        fh.write(
            f"slope {fit.slope:.17g}\nintercept {fit.intercept:.17g}\n"
            f"max_residual {fit.max_residual:.17g}\n"
        )


def _grid(cfg: dict, key: str) -> tuple[int, ...]:
    return tuple(geometric_grid(cfg[f"{key}_min"], cfg[f"{key}_max"]))


def _params(cfg: dict) -> JacobiParams:
    return JacobiParams(cfg["alpha"], cfg["beta"])


def _norms(cfg: dict):
    ecfg = ExperimentConfig(_params(cfg), cfg["p"], n_grid=_grid(cfg, "n"))
    fit = norm_regimes_experiment(ecfg)
    line = f"regime={fit.label} slope={fit.slope:.4f} max_residual={fit.max_residual:.4f}"
    return zip(ecfg.n_grid, fit.ys), {"fit": _fit_summary(fit), "regime": fit.label}, fit, line


def _block_sum(cfg: dict):
    ecfg = ExperimentConfig(
        _params(cfg), cfg["p"], NormalizationMode.sqrt_scaled(), N_grid=_grid(cfg, "N"), tol=cfg["tol"]
    )
    fit = block_sum_experiment(ecfg)
    expected = omega_exponent(ecfg.params, ecfg.p)
    fields = {"fit": _fit_summary(fit), "expected_slope": expected}
    line = f"slope={fit.slope:.4f} expected={expected:.4f} max_residual={fit.max_residual:.4f}"
    return zip(ecfg.N_grid, fit.ys), fields, fit, line


def _average_block(cfg: dict):
    mode = NormalizationMode(cfg["mode"], cfg["p"] if cfg["mode"] == "lp" else None)
    ecfg = ExperimentConfig(
        _params(cfg), cfg["p"], mode, N_grid=_grid(cfg, "N"), seed=cfg["seed"], samples=cfg["samples"],
        tol=cfg["tol"],
    )
    res = average_block_experiment(ecfg)
    rows = zip(
        ecfg.N_grid, res.square_fit.ys, res.rademacher_fit.ys,
        res.rademacher_stderrs, res.ratios,
    )
    fields = {
        "square_fit": _fit_summary(res.square_fit),
        "rademacher_fit": _fit_summary(res.rademacher_fit),
        "ratio_min": min(res.ratios),
        "ratio_max": max(res.ratios),
        "samples_used": list(res.samples_used),
    }
    line = (
        f"square_slope={res.square_fit.slope:.4f} "
        f"rademacher_slope={res.rademacher_fit.slope:.4f}"
    )
    return rows, fields, res.square_fit, line


def _near_one(cfg: dict):
    d = cfg["d"]
    res = near_one_experiment(_params(cfg), _grid(cfg, "n"), d_sweep=(d, d / 2, d / 4))
    fields = {"chosen_d": res.chosen_d, "root_fit": _fit_summary(res.root_fit)}
    line = f"chosen_d={res.chosen_d} root_slope={res.root_fit.slope:.4f}"
    return res.rows, fields, res.root_fit, line


def _witness(cfg: dict):
    N_grid = _grid(cfg, "N")
    rep = main_theorem_witness(
        _params(cfg), cfg["p"], N_grid, seed=cfg["seed"], samples=cfg["samples"], tol=cfg["tol"]
    )
    rows = zip(N_grid, rep.block_fit.ys, rep.square_fit.ys, rep.rademacher_fit.ys, rep.sign_ratios)
    fields = {
        "block_fit": _fit_summary(rep.block_fit),
        "square_fit": _fit_summary(rep.square_fit),
        "rademacher_fit": _fit_summary(rep.rademacher_fit),
        "gap": rep.gap,
        "residual": rep.residual,
        "verdict": rep.verdict,
    }
    line = f"gap={rep.gap:.4f} residual={rep.residual:.4f} verdict={rep.verdict}"
    return rows, fields, rep.block_fit, line


def _darboux_check(cfg: dict):
    rows = darboux_envelope(_params(cfg), _grid(cfg, "n"))
    growth = rows[-1][1] / rows[0][1]
    fields = {"envelope_growth": growth, "max_scaled_error": max(r[1] for r in rows)}
    return rows, fields, None, f"envelope_growth={growth:.4f} (bounded if ~<= 2)"


class Command(NamedTuple):
    keys: dict  # the config keys the command reads, each with its default
    header: tuple[str, ...]
    # merged config -> (CSV rows, summary fields besides the config echo,
    # fit to plot or None, stdout line after "<command>: ")
    run: Callable[[dict], tuple]


COMMANDS: dict[str, Command] = {
    "norms": Command(dict(alpha=0.0, beta=0.0, seed=0, p=2.0, n_min=64, n_max=4096), ("n", "norm"), _norms),
    "block-sum": Command(
        dict(alpha=0.0, beta=0.0, p=2.0, tol=1e-6, N_min=8, N_max=512), ("N", "norm"), _block_sum
    ),
    "average-block": Command(
        dict(alpha=0.0, beta=0.0, seed=0, p=2.0, mode="orthonormal", samples=64, tol=1e-6,
             N_min=8, N_max=256),
        ("N", "square_norm", "rademacher_mean", "rademacher_stderr", "ratio"),
        _average_block,
    ),
    "near-one": Command(
        dict(alpha=0.0, beta=0.0, seed=0, n_min=10, n_max=1000, d=0.5), ("d", "min_ratio", "max_ratio"),
        _near_one,
    ),
    "witness": Command(
        dict(alpha=0.0, beta=0.0, seed=0, p=2.0, samples=64, tol=1e-6, N_min=8, N_max=256),
        ("N", "block_norm", "square_norm", "rademacher_mean", "sign_ratio"),
        _witness,
    ),
    "darboux-check": Command(
        dict(alpha=0.0, beta=0.0, seed=0, n_min=16, n_max=512), ("n", "max_scaled_error"), _darboux_check
    ),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    try:
        cfg = _merge_config(args)
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rows, fields, fit, line = COMMANDS[command].run(cfg)
        _write_csv(outdir / f"{command}.csv", COMMANDS[command].header, rows)
        # the config echo holds the command's keys and not out, so identical inputs give
        # byte-identical summaries and manifests regardless of output location
        echo = {k: cfg[k] for k in COMMANDS[command].keys}
        _write_json(outdir / f"{command}.json", {"config": echo, **fields})
        if fit is not None:
            emit_plot_data(fit, outdir / f"{command}.dat")
    except (OverflowError, EvaluationError, ConvergenceError) as exc:  # EvaluationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_json(
        outdir / "manifest.json",
        {
            "command": command,
            "config": echo,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    print(f"{command}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
