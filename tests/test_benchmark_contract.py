"""The benchmark's hold on the package: perfbench/ binds names and arguments.

perfbench/tracer.py wraps the package's public functions and reads named
arguments of some of them (its hooks); perfbench/worker.py reads the cache of
greedy._orthonormal_lp_norm. A renamed function or argument leaves the
package's own tests green and breaks only the benchmark. These tests make
one toy call through every hooked function under an installed Tracer, in a
subprocess so that this process's modules stay unpatched, check that every
benchmark task's CLI argv parses, and run the benchmark's own self-test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from jacobigreedy.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

PROBE = """
import json
import numpy as np
import tracer as tracer_module
import worker

tracer = tracer_module.Tracer()
tracer.install()
import jacobigreedy as jg
from jacobigreedy import experiments, greedy, jacobi, quadrature
from jacobigreedy.greedy import _orthonormal_lp_norm

leg = jg.JacobiParams(0.0, 0.0)
sq = jg.NormalizationMode.sqrt_scaled()
x = np.linspace(-0.9, 0.9, 5)
jacobi.eval_P(leg, 3, x)
jacobi.eval_P_many(leg, [1, 4], x)
jacobi.jacobi_combination(leg, {0: 1.0, 3: 2.0}, x)
# quadrature's family pass imports jacobi_iter by name, and install wrapped that binding
assert quadrature.jacobi_iter.__wrapped__ is jacobi.jacobi_iter
for _ in quadrature.jacobi_iter(leg, x, 3):
    pass
jacobi.largest_root(leg, 5)
quadrature.gauss_jacobi_rule(leg, 4)
quadrature.lp_norm(lambda t: t, leg, 3.0, degree=1)
quadrature.lp_norms_of_rows(lambda t: np.stack([t, t * t]), leg, 3.0, degree=2)
fam = greedy.JacobiFamily(leg, sq, (2, 4))
quadrature.square_function_norm(fam, leg, 3.0)
quadrature.rademacher_average_norm(fam, leg, 3.0, samples=4)
jg.quasi_greedy_ratio(jg.Expansion(leg, sq, {1: 1.0, 4: -0.5}), 3.0, tol=1e-6)
jg.democracy_scan(leg, sq, 2, 3.0, tol=1e-6, seed=1)
experiments.average_block_experiment(
    jg.ExperimentConfig(leg, 3.0, mode=sq, N_grid=(2, 4), samples=2, tol=1e-6)
)
_orthonormal_lp_norm(0.0, 0.0, 3.0, 2)
layers, counts = worker.layer_metrics(tracer)
print(json.dumps({
    "hooks": sorted(tracer_module._HOOKS),
    "counts": counts,
    "seconds": dict(tracer.seconds),
    "family_bytes_max": tracer.family_bytes_max,
}))
"""


def _run(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_every_hook_sees_its_arguments():
    proc = _run(["-c", PROBE])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    counts, seconds = out["counts"], out["seconds"]
    unseen = [name for name in out["hooks"] if not counts.get(f"calls.{name}", 0) > 0]
    assert unseen == []
    for key in (
        "jacobi.calls",
        "jacobi.point_degrees",
        "quadrature.gauss_rule.nodes",
        "quadrature.mesh_points",
        "quadrature.norm_calls",
        "greedy.partial_sum_rows",
        "experiments.rademacher.doublings",
        "greedy.lp_scale_cache.misses",
    ):
        assert counts.get(key, 0) > 0, key
    for key in ("jacobi.eval_s", "jacobi.largest_root.s", "quadrature.gauss_rule.s"):
        assert seconds.get(key, 0.0) > 0.0, key
    assert out["family_bytes_max"] > 0


ARGV_PROBE = """
import json
from pathlib import Path
import jacobigreedy.cli as cli
import workloads

argvs = []
cli.main = argvs.append  # record each CLI task's argv instead of running it
for workload in workloads.WORKLOADS:
    for task in workloads.build(workload, 0, {}):
        if task.run.__qualname__.startswith("_cli_task."):  # the API tasks would compute
            task.run(Path("unused"))
print(json.dumps(argvs))
"""


def test_benchmark_cli_argv_parse():
    proc = _run(["-c", ARGV_PROBE])
    assert proc.returncode == 0, proc.stderr
    argvs = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {argv[0] for argv in argvs} == {"witness", "average-block", "norms", "near-one", "darboux-check"}
    parser, rejected = build_parser(), []
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(argv)
    assert rejected == []


def test_perfbench_selftest_passes():
    proc = _run([str(PERFBENCH / "selftest.py")])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
