"""jacobigreedy benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; jacobigreedy is imported from its src/.
Workloads (why each exists: BENCHMARK.json and workloads.WHY):

* witness     -- `jacobigreedy witness`, N = 8..512, (alpha, beta, p) =
                 (0,0,3), (0,0,2), (0.5,0,2.5)
* norms       -- `jacobigreedy norms`, n = 64..4096, (0,0,6), (0,0,3), (1,0.5,6)
* greedy-scan -- library API: quasi_greedy_ratio on seeded random expansions,
                 democracy_scan, lp-normalized norms with overlapping supports
* pointwise   -- `jacobigreedy near-one` (alpha 0 and 1.5), `darboux-check`

Each repetition runs one workload in a fresh single-threaded interpreter
(worker.py), as a closed loop with one client. Repetitions continue while
the next one is expected to finish within --seconds; at least one runs.

--trace 0 reports:
  wall_s       first task start to last task end, in the worker; median
               over repetitions
  peak_rss_mb  ru_maxrss of the worker process; median over repetitions
  setup_s      fresh interpreter until `import jacobigreedy` returns; median
               over cold starts. One is made before each repetition, so that
               they meet the same load phases, and more fill the time left
               after the last one
Other tenants of the machine slow identical work by up to 2x, in phases that
often outlast a run, and fast moments are rare in a slow phase. The fastest
repetition then varies more from run to run than the median does.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (tracer.py, worker.layer_metrics;
medians), plus trace.overhead_s = traced wall_s - untraced wall_s.

Correctness: every task's output is checked (workloads.py); a task that
fails a check, raises or exits non-zero counts in `failed`. In traced runs
the exact counters (point-degrees, mesh levels and points, every call
count) must be identical across repetitions and across runs of the same
code and seed; a difference is reported on stderr and makes `correct` false.
The result is the last line of stdout, one JSON object. A worker that crashes
or times out counts as one failed task and ends the run; if no repetition of
a kind completed, the metrics it would have given are left out and `correct`
is false.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
RUN_LIMIT_S = 170  # hard cap on one run, below the 180 s every run must meet

SETUP_PROBE = "import time, jacobigreedy; print(time.monotonic()); print(jacobigreedy.__file__)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_sample(env: dict) -> float:
    """Seconds from spawning an interpreter until its `import jacobigreedy` returns."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    imported_from = Path(out[1]).resolve()
    if not imported_from.is_relative_to(ROOT / "src"):
        raise SystemExit(f"jacobigreedy imported from {imported_from}, not from {ROOT / 'src'}")
    return float(out[0]) - t0


def worker_rep(workload: str, seed: int, trace: int, env: dict, timeout: float):
    """One fresh-process repetition; its JSON result, or None if it crashed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counts_stable(workload: str, seed: int, counts: list[dict], store: bool) -> bool:
    """Exact counters agree across repetitions and with earlier runs of this code and seed.

    With `store`, and if they agree, the counters become the baseline for
    later runs of this code and seed, unless one is already stored.
    """
    ok = all(c == counts[0] for c in counts)
    if not ok:
        print(f"FAIL exact counts differ between repetitions of {workload} seed {seed}", file=sys.stderr)
    stored = RUNS / f"counts-{workload}-seed{seed}-{code_digest()}.json"
    if stored.exists():
        earlier = json.loads(stored.read_text())
        if earlier != counts[0]:
            diff = sorted(k for k in set(earlier) | set(counts[0]) if earlier.get(k) != counts[0].get(k))
            print(f"FAIL exact counts differ from an earlier run of the same code and seed: {diff}",
                  file=sys.stderr)
            ok = False
    elif ok and store:
        stored.write_text(json.dumps(counts[0], sort_keys=True))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "jacobigreedy" / "__init__.py").is_file():
        print(f"error: no jacobigreedy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets subprocess.run reap its child
    RUNS.mkdir(exist_ok=True)
    env = child_env()
    budget = min(args.seconds, RUN_LIMIT_S)
    started = time.monotonic()
    setup = []

    reps = {0: [], 1: []}
    attempted = failed = 0
    longest = 0.0
    while True:
        kind = int(bool(args.trace) and len(reps[0]) > len(reps[1]))
        t0 = time.monotonic()
        if not args.trace:
            setup.append(setup_sample(env))
        res = worker_rep(args.workload, args.seed, kind, env, RUN_LIMIT_S - (t0 - started))
        longest = max(longest, time.monotonic() - t0)
        if res is None:
            attempted, failed = attempted + 1, failed + 1
            break
        print(f"repetition trace={kind} wall_s={res['wall_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.1f}",
              file=sys.stderr)
        attempted += res["attempted"]
        failed += res["failed"]
        reps[kind].append(res)
        enough = bool(reps[0]) and (bool(reps[1]) or not args.trace)
        if enough and time.monotonic() - started + longest > budget:
            break
    while setup and time.monotonic() - started + max(setup) < budget:
        setup.append(setup_sample(env))

    correct = failed == 0
    if args.trace:
        traced = reps[1]
        correct = correct and bool(traced) and counts_stable(
            args.workload, args.seed, [r["counts"] for r in traced], store=correct)
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]} if traced else {}
        if traced and reps[0]:
            values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                          - statistics.median(r["wall_s"] for r in reps[0]))
    else:
        plain = reps[0]
        values = {"setup_s": statistics.median(setup)}
        if plain:
            values["wall_s"] = statistics.median(r["wall_s"] for r in plain)
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for metrics {missing}", file=sys.stderr)
        correct = False
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
