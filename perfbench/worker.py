"""One cold-process run of one workload; prints a JSON result as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

jacobigreedy is imported from the checkout's src/ (PYTHONPATH). The tasks
run as a closed loop with one client: each task starts when the
previous one returns. Correctness checks run after the timed region. CLI
output goes into a temporary directory under RUNS, removed at the end.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from jacobigreedy.quadrature import ConvergenceError, EvaluationError

import workloads
from tracer import Tracer

REFERENCES = Path(__file__).with_name("references.json")
RUNS = Path(__file__).resolve().with_name("runs")
TASK_ERRORS = (ConvergenceError, OverflowError, EvaluationError)


def run_tasks(tasks, outdir: Path, tracer: Tracer | None = None):
    """Run tasks back to back; returns (wall seconds, [(task, value, error)])."""
    outcomes = []
    t0 = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        taskdir = outdir / task.id
        value, error = None, None
        try:
            value = task.run(taskdir)
        except TASK_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception:  # a crashed task is a failed task; the loop goes on
            error = traceback.format_exc()
        outcomes.append((task, value, error))
    return time.perf_counter() - t0, outcomes


def check_outcomes(outcomes, outdir: Path, references: dict):
    """Per task: (seed-independent observations, failure messages)."""
    checked = {}
    for task, value, error in outcomes:
        if error is not None:
            checked[task.id] = ({}, [f"{task.id}: {error}"])
            continue
        try:
            observed, failures = task.check(outdir / task.id, value)
        except Exception:
            observed, failures = {}, [f"check raised {traceback.format_exc()}"]
        if observed:
            failures += workloads.compare(observed, references.get("tasks", {}).get(task.id))
        checked[task.id] = (observed, [f"{task.id}: {f}" for f in failures])
    return checked


def failed_tasks(checked: dict) -> int:
    return sum(1 for _, failures in checked.values() if failures)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(per-layer metrics, exact counters that must repeat for a given seed)."""
    from jacobigreedy.greedy import _orthonormal_lp_norm

    c, s = tracer.counts, tracer.seconds
    cache = _orthonormal_lp_norm.cache_info()
    lookups = cache.hits + cache.misses
    calls = c["jacobi.calls"]
    norm_calls = c["quadrature.norm_calls"]
    return {
        "jacobi.point_degrees": c["jacobi.point_degrees"],
        "jacobi.calls": calls,
        "jacobi.self_s": tracer.self_s["jacobi"],
        "jacobi.point_degrees_per_s": c["jacobi.point_degrees"] / s["jacobi.eval_s"] if s["jacobi.eval_s"] else 0.0,
        "jacobi.s_per_call": s["jacobi.eval_s"] / calls if calls else 0.0,
        "jacobi.largest_root.calls": c["calls.jacobi.largest_root"],
        "jacobi.largest_root.s": s["jacobi.largest_root.s"],
        "quadrature.norm_calls": norm_calls,
        "quadrature.mesh_levels": c["calls.quadrature.theta_mesh"],
        "quadrature.levels_per_norm": c["calls.quadrature.theta_mesh"] / norm_calls if norm_calls else 0.0,
        "quadrature.mesh_points": c["quadrature.mesh_points"],
        "quadrature.self_s": tracer.self_s["quadrature"],
        "quadrature.family_bytes_max": tracer.family_bytes_max,
        "quadrature.gauss_rule.calls": c["calls.quadrature.gauss_jacobi_rule"],
        "quadrature.gauss_rule.nodes": c["quadrature.gauss_rule.nodes"],
        "quadrature.gauss_rule.s": s["quadrature.gauss_rule.s"],
        "quadrature.convergence_errors": c["quadrature.convergence_errors"],
        "greedy.self_s": tracer.self_s["greedy"],
        "greedy.partial_sum_rows": c["greedy.partial_sum_rows"],
        "greedy.lp_scale_cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
        "experiments.self_s": tracer.self_s["experiments"],
        "experiments.rademacher.doublings": c["experiments.rademacher.doublings"],
        "cli.self_s": tracer.self_s["cli"],
    }, {**dict(sorted(c.items())), "greedy.lp_scale_cache.hits": cache.hits,
        "greedy.lp_scale_cache.misses": cache.misses}


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(REFERENCES) as fh:
        references = json.load(fh)
    tasks = workloads.build(args.workload, args.seed, references)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    RUNS.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        wall_s, outcomes = run_tasks(tasks, outdir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = check_outcomes(outcomes, outdir, references)
        bytes_written = _bytes_under(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failures = [f for _, fs in checked.values() for f in fs]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(tasks),
        "failed": failed_tasks(checked),
    }
    if tracer is not None:
        layers, counts = layer_metrics(tracer)
        layers["cli.bytes_written"] = bytes_written
        result.update(layers=layers, counts=counts)
        spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans, "w") as fh:
            json.dump(tracer.span_table(), fh)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
