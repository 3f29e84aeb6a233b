"""Regenerate perfbench/references.json from the current code.

    python3 perfbench/make_references.py

Runs every workload in-process at two seeds, keeps each task's
seed-independent outputs, and refuses to write if the two seeds disagree or
any oracle check fails. Regenerate only when a change is meant to alter the
numbers, and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import REFERENCES, RUNS, run_tasks  # noqa: E402

SEEDS = (0, 1)


def observe(workload: str, seed: int, references: dict) -> dict:
    tasks = workloads.build(workload, seed, references)
    RUNS.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="references-", dir=RUNS))
    try:
        _, outcomes = run_tasks(tasks, outdir)
        observed = {}
        for task, value, error in outcomes:
            if error is not None:
                raise SystemExit(f"{task.id}: {error}")
            obs, failures = task.check(outdir / task.id, value)
            if failures:
                raise SystemExit(f"{task.id}: {failures}")
            if obs:
                observed[task.id] = obs
        return observed
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main() -> int:
    references = {"tol": workloads.TOL, "lp_unit_norms": workloads.lp_unit_norms(), "tasks": {}}
    for workload in workloads.WORKLOADS:
        first, second = (observe(workload, seed, references) for seed in SEEDS)
        if first != second:
            raise SystemExit(f"{workload}: outputs stored as references depend on the seed")
        references["tasks"].update(first)
        print(f"{workload}: {sum(len(v) for v in first.values())} values from {len(first)} tasks")
    with open(REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
