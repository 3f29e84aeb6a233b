"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

* the gammaln-based d_n (to 1e-10) and the Parseval oracle (to 1e-12) agree
  with the library;
* a reference value moved by 1e-4 relative, or a changed verdict string,
  is reported as a mismatch, while the stored values pass;
* the pointwise workload's outputs, checked against a corrupted copy of the
  references, give a failed task (fail_frac > 0), and against the stored
  references none.

Exits non-zero if any of these does not hold.
"""

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402


def check_oracles(problems: list) -> None:
    from jacobigreedy import Expansion, JacobiParams, NormalizationMode, expansion_lp_norm, orthonormal_const

    for a, b in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.5), (-0.4, 2.0)):
        n = [0, 1, 7, 100, 3000]
        got = workloads.orthonormal_d2(a, b, n)
        want = [orthonormal_const(JacobiParams(a, b), k) ** 2 for k in n]
        if not all(math.isclose(g, w, rel_tol=1e-10) for g, w in zip(got, want)):
            problems.append(f"orthonormal_d2({a}, {b}) disagrees with orthonormal_const")
    coeffs = {0: 0.5, 3: -1.25, 10: 2.0, 41: 0.75}
    e = Expansion(JacobiParams(0.0, 0.0), NormalizationMode.sqrt_scaled(), coeffs)
    got, want = expansion_lp_norm(e, 2.0), workloads.parseval_sqrt_scaled(0.0, 0.0, coeffs)
    if not math.isclose(got, want, rel_tol=1e-12):
        problems.append(f"Parseval oracle {want!r} disagrees with expansion_lp_norm {got!r}")


def check_compare(problems: list, references: dict) -> None:
    task_id, stored = "witness-a0-b0-p3", references["tasks"]["witness-a0-b0-p3"]
    if workloads.compare(stored, stored):
        problems.append("stored references do not match themselves")
    moved = dict(stored, **{"block_norm@N=64": stored["block_norm@N=64"] * (1 + 1e-4)})
    if not workloads.compare(moved, stored):
        problems.append(f"{task_id}: a norm moved by 1e-4 relative was not reported")
    renamed = dict(stored, verdict="inconclusive")
    if not workloads.compare(renamed, stored):
        problems.append(f"{task_id}: a changed verdict was not reported")


def check_end_to_end(problems: list, references: dict) -> None:
    tasks = workloads.build("pointwise", 5, references)
    worker.RUNS.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.RUNS))
    try:
        _, outcomes = worker.run_tasks(tasks, outdir)
        corrupted = copy.deepcopy(references)
        corrupted["tasks"]["darboux-check"]["envelope@n=256"] *= 1 + 1e-4
        if worker.failed_tasks(worker.check_outcomes(outcomes, outdir, corrupted)) < 1:
            problems.append("a corrupted reference value left fail_frac at 0")
        if worker.failed_tasks(worker.check_outcomes(outcomes, outdir, references)) != 0:
            problems.append("the stored references fail on the pointwise workload")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main() -> int:
    references = json.loads(worker.REFERENCES.read_text())
    problems: list = []
    check_oracles(problems)
    check_compare(problems, references)
    check_end_to_end(problems, references)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
