"""Command-line front end: experiment dispatch with reproducible file output.

Every run writes <out>/<command>.csv (data rows, floats at 17 significant
digits), <out>/<command>.json (summary), <out>/manifest.json (command,
config echo, tool version, timestamp) and, for slope-fit commands, a
<command>.dat / <command>.fit pair of plot files. Exit codes: 0 success,
2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .jacobi import DomainError, JacobiParams, NormalizationMode
from .quadrature import ConvergenceError, MeshConfig
from .experiments import (
    ExperimentConfig,
    SlopeFit,
    average_block_experiment,
    critical_exponents,
    darboux_envelope,
    fit_loglog,
    geometric_grid,
    geometric_sum_identity_check,
    main_theorem_witness,
    near_one_experiment,
    norm_regimes_experiment,
    staggered_block,
)

_FLOAT_KEYS = ("alpha", "beta", "p", "tol", "d")
_INT_KEYS = ("n_min", "n_max", "N_min", "N_max", "samples", "seed", "trials")

_DEFAULTS: dict[str, dict] = {
    "norms": dict(n_min=64, n_max=4096),
    "block-sum": dict(N_min=8, N_max=512),
    "average-block": dict(N_min=8, N_max=256),
    "near-one": dict(n_min=10, n_max=1000, d=0.5),
    "witness": dict(N_min=8, N_max=256),
    "darboux-check": dict(n_min=16, n_max=512),
    "identity-check": dict(trials=10000, N_max=64),
}
_COMMON_DEFAULTS = dict(
    alpha=0.0, beta=0.0, p=2.0, mode="orthonormal", samples=64, seed=0,
    tol=1e-6, out="runs",
)

_CSV_HEADERS = {
    "norms": ["n", "norm"],
    "block-sum": ["N", "norm"],
    "average-block": ["N", "square_norm", "rademacher_mean", "rademacher_stderr", "ratio"],
    "near-one": ["d", "min_ratio", "max_ratio"],
    "witness": ["N", "block_norm", "square_norm", "rademacher_mean", "sign_ratio"],
    "darboux-check": ["n", "max_scaled_error"],
    "identity-check": ["N", "max_deviation"],
}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobigreedy",
        description="Greedy-algorithm asymptotics for Jacobi expansions in Lp(mu).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _DEFAULTS:
        p = sub.add_parser(cmd)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--p", type=float)
        p.add_argument("--mode", choices=["orthonormal", "sqrt-scaled", "lp"])
        p.add_argument("--n-min", dest="n_min", type=int)
        p.add_argument("--n-max", dest="n_max", type=int)
        p.add_argument("--N-min", dest="N_min", type=int)
        p.add_argument("--N-max", dest="N_max", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--d", type=float)
        p.add_argument("--trials", type=int)
        p.add_argument("--out", type=str)
        p.add_argument("--config", type=str)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_DEFAULTS[args.command])
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if "config" in loaded and isinstance(loaded["config"], dict):
            loaded = loaded["config"]  # accept a manifest file directly
        cfg.update({k: v for k, v in loaded.items() if k in cfg or k in _DEFAULTS[args.command]})
    for key in list(cfg):
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for k in _FLOAT_KEYS:
        if k in cfg:
            cfg[k] = float(cfg[k])
    for k in _INT_KEYS:
        if k in cfg:
            cfg[k] = int(cfg[k])
    return cfg


def _mode(cfg: dict) -> NormalizationMode:
    if cfg["mode"] == "lp":
        return NormalizationMode.lp_normalized(cfg["p"])
    return NormalizationMode(cfg["mode"])


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _echo(cfg: dict) -> dict:
    # the summary config echo excludes run-local keys so identical inputs
    # give byte-identical summaries regardless of output location
    return {k: v for k, v in cfg.items() if k != "out"}


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


def _experiment_config(cfg: dict, n_key: str | None = None, N_key: bool = False) -> ExperimentConfig:
    params = JacobiParams(cfg["alpha"], cfg["beta"])
    kwargs: dict = {}
    if n_key:
        kwargs["n_grid"] = tuple(geometric_grid(cfg["n_min"], cfg["n_max"]))
    if N_key:
        kwargs["N_grid"] = tuple(geometric_grid(cfg["N_min"], cfg["N_max"]))
    return ExperimentConfig(
        params=params, p=cfg["p"], mode=_mode(cfg), mesh=MeshConfig(),
        seed=cfg["seed"], samples=cfg["samples"], tol=cfg["tol"], **kwargs,
    )


def _run_norms(cfg: dict, outdir: Path) -> str:
    ecfg = _experiment_config(cfg, n_key="n")
    fit = norm_regimes_experiment(ecfg)
    _write_csv(outdir / "norms.csv", _CSV_HEADERS["norms"], zip(ecfg.n_grid, fit.ys))
    _write_json(outdir / "norms.json", {"config": _echo(cfg), "fit": _fit_summary(fit), "regime": fit.label})
    emit_plot_data(fit, outdir / "norms.dat")
    return f"norms: regime={fit.label} slope={fit.slope:.4f} max_residual={fit.max_residual:.4f}"


def _run_block_sum(cfg: dict, outdir: Path) -> str:
    if cfg["mode"] == "orthonormal":
        cfg = dict(cfg, mode="sqrt-scaled")  # the block-sum statement lives in sqrt scaling
    from .experiments import block_sum_experiment, omega_exponent

    ecfg = _experiment_config(cfg, N_key=True)
    fit = block_sum_experiment(ecfg)
    expected = omega_exponent(ecfg.params, ecfg.p)
    _write_csv(outdir / "block-sum.csv", _CSV_HEADERS["block-sum"], zip(ecfg.N_grid, fit.ys))
    _write_json(
        outdir / "block-sum.json",
        {"config": _echo(cfg), "fit": _fit_summary(fit), "expected_slope": expected},
    )
    emit_plot_data(fit, outdir / "block-sum.dat")
    return f"block-sum: slope={fit.slope:.4f} expected={expected:.4f} max_residual={fit.max_residual:.4f}"


def _run_average_block(cfg: dict, outdir: Path) -> str:
    ecfg = _experiment_config(cfg, N_key=True)
    res = average_block_experiment(ecfg)
    rows = zip(
        ecfg.N_grid, res.square_fit.ys, res.rademacher_fit.ys,
        res.rademacher_stderrs, res.ratios,
    )
    _write_csv(outdir / "average-block.csv", _CSV_HEADERS["average-block"], rows)
    _write_json(
        outdir / "average-block.json",
        {
            "config": _echo(cfg),
            "square_fit": _fit_summary(res.square_fit),
            "rademacher_fit": _fit_summary(res.rademacher_fit),
            "ratio_min": min(res.ratios),
            "ratio_max": max(res.ratios),
            "samples_used": list(res.samples_used),
        },
    )
    emit_plot_data(res.square_fit, outdir / "average-block.dat")
    return (
        f"average-block: square_slope={res.square_fit.slope:.4f} "
        f"rademacher_slope={res.rademacher_fit.slope:.4f}"
    )


def _run_near_one(cfg: dict, outdir: Path) -> str:
    params = JacobiParams(cfg["alpha"], cfg["beta"])
    n_grid = geometric_grid(cfg["n_min"], cfg["n_max"])
    d = cfg["d"]
    res = near_one_experiment(params, n_grid, d_sweep=(d, d / 2, d / 4))
    _write_csv(outdir / "near-one.csv", _CSV_HEADERS["near-one"], res.rows)
    _write_json(
        outdir / "near-one.json",
        {
            "config": _echo(cfg),
            "chosen_d": res.chosen_d,
            "root_fit": _fit_summary(res.root_fit),
        },
    )
    emit_plot_data(res.root_fit, outdir / "near-one.dat")
    return f"near-one: chosen_d={res.chosen_d} root_slope={res.root_fit.slope:.4f}"


def _run_witness(cfg: dict, outdir: Path) -> str:
    params = JacobiParams(cfg["alpha"], cfg["beta"])
    N_grid = geometric_grid(cfg["N_min"], cfg["N_max"])
    rep = main_theorem_witness(
        params, cfg["p"], N_grid, mesh=MeshConfig(), seed=cfg["seed"],
        samples=cfg["samples"], tol=cfg["tol"],
    )
    rows = zip(N_grid, rep.block_fit.ys, rep.square_fit.ys, rep.rademacher_fit.ys, rep.sign_ratios)
    _write_csv(outdir / "witness.csv", _CSV_HEADERS["witness"], rows)
    _write_json(
        outdir / "witness.json",
        {
            "config": _echo(cfg),
            "block_fit": _fit_summary(rep.block_fit),
            "square_fit": _fit_summary(rep.square_fit),
            "rademacher_fit": _fit_summary(rep.rademacher_fit),
            "gap": rep.gap,
            "residual": rep.residual,
            "verdict": rep.verdict,
        },
    )
    emit_plot_data(rep.block_fit, outdir / "witness.dat")
    return f"witness: gap={rep.gap:.4f} residual={rep.residual:.4f} verdict={rep.verdict}"


def _run_darboux_check(cfg: dict, outdir: Path) -> str:
    params = JacobiParams(cfg["alpha"], cfg["beta"])
    n_grid = geometric_grid(cfg["n_min"], cfg["n_max"])
    rows = darboux_envelope(params, n_grid)
    _write_csv(outdir / "darboux-check.csv", _CSV_HEADERS["darboux-check"], rows)
    growth = rows[-1][1] / rows[0][1]
    _write_json(
        outdir / "darboux-check.json",
        {"config": _echo(cfg), "envelope_growth": growth, "max_scaled_error": max(r[1] for r in rows)},
    )
    return f"darboux-check: envelope_growth={growth:.4f} (bounded if ~<= 2)"


def _run_identity_check(cfg: dict, outdir: Path) -> str:
    params = JacobiParams(cfg["alpha"], cfg["beta"])
    rng = np.random.default_rng(cfg["seed"])
    trials, n_cap = cfg["trials"], cfg["N_max"]
    worst: dict[int, float] = {}
    per_call = max(1, trials // n_cap)
    for N in range(1, n_cap + 1):
        th = rng.uniform(0.01, math.pi - 0.01, size=per_call)
        worst[N] = geometric_sum_identity_check(N, th, params)
    _write_csv(outdir / "identity-check.csv", _CSV_HEADERS["identity-check"], sorted(worst.items()))
    overall = max(worst.values())
    _write_json(outdir / "identity-check.json", {"config": _echo(cfg), "max_deviation": overall})
    return f"identity-check: max_deviation={overall:.3e}"


_RUNNERS = {
    "norms": _run_norms,
    "block-sum": _run_block_sum,
    "average-block": _run_average_block,
    "near-one": _run_near_one,
    "witness": _run_witness,
    "darboux-check": _run_darboux_check,
    "identity-check": _run_identity_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        if args.command in ("block-sum", "witness"):
            params = JacobiParams(cfg["alpha"], cfg["beta"])
            p_crit, q_crit, _ = critical_exponents(params)
            if not (p_crit < cfg["p"] < q_crit):
                raise ValueError(
                    f"p={cfg['p']} outside the Schauder range ({p_crit:g}, {q_crit:g})"
                )
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = _RUNNERS[args.command](cfg, outdir)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_json(
        outdir / "manifest.json",
        {
            "command": args.command,
            "config": cfg,
            "output_dir": str(outdir),
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
