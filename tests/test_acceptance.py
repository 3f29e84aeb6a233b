"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. The heavy slope experiments are computed once in session
fixtures and shared between criteria.
"""

import itertools
import math

import numpy as np
import pytest

from jacobigreedy.jacobi import (
    JacobiParams,
    NormalizationMode,
    darboux_amplitude,
    darboux_phase,
    eval_P,
)
from jacobigreedy.quadrature import gauss_jacobi_rule
from jacobigreedy.greedy import Expansion, JacobiFamily, greedy_approx, greedy_ordering, quasi_greedy_ratio
from jacobigreedy.experiments import (
    ExperimentConfig,
    average_block_experiment,
    block_sum_experiment,
    geometric_grid,
    geometric_sum_identity_check,
    near_one_experiment,
    norm_regimes_experiment,
)
from jacobigreedy.cli import main as cli_main
from test_jacobi import value_at_one

LEG = JacobiParams(0.0, 0.0)
PARAM_PAIRS = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.3), (-0.4, 1.5)]
N_GRID_LONG = tuple(geometric_grid(8, 512))
N_GRID_MED = tuple(geometric_grid(8, 256))
n_GRID = tuple(geometric_grid(64, 4096))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def block_fits():
    out = {}
    for p in (3.0, 2.0):
        cfg = ExperimentConfig(
            params=LEG, p=p, mode=NormalizationMode.sqrt_scaled(),
            N_grid=N_GRID_LONG, tol=1e-6,
        )
        out[p] = block_sum_experiment(cfg)
    return out


@pytest.fixture(scope="module")
def average_results():
    out = {}
    for p in (3.0, 2.0):
        cfg = ExperimentConfig(params=LEG, p=p, N_grid=N_GRID_MED, seed=20240901, samples=64, tol=1e-6)
        out[p] = average_block_experiment(cfg)
    return out


def test_criterion_1_normalization_pin():
    worst = 0.0
    for ab in PARAM_PAIRS:
        params = JacobiParams(*ab)
        for n in range(201):
            expect = value_at_one(params, n)
            worst = max(worst, abs(eval_P(params, n, 1.0) / expect - 1.0))
    report("1 normalization pin", worst < 1e-10, f"worst relative error {worst:.2e}")


def test_criterion_2_orthonormality():
    worst = 0.0
    for ab in PARAM_PAIRS:
        params = JacobiParams(*ab)
        rule = gauss_jacobi_rule(params, 64)
        rows = JacobiFamily(params, NormalizationMode.orthonormal(), range(31)).values(rule.nodes)
        gram = (rows * rule.weights) @ rows.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(31)))))
    report("2 orthonormality", worst < 1e-9, f"worst Gram deviation {worst:.2e}")


def test_criterion_3_norm_regimes():
    fits = {}
    for p in (3.0, 6.0, 4.0):
        cfg = ExperimentConfig(params=LEG, p=p, n_grid=n_GRID, tol=1e-6)
        fits[p] = norm_regimes_experiment(cfg)
    ok_a = abs(fits[3.0].slope) <= 0.03
    ok_b = abs(fits[6.0].slope - 1 / 6) <= 0.03
    ok_c = fits[4.0].label == "critical" and fits[4.0].slope > 0 and fits[4.0].max_residual < 0.10
    report(
        "3 norm regimes",
        ok_a and ok_b and ok_c,
        f"p=3 slope {fits[3.0].slope:+.4f}, p=6 slope {fits[6.0].slope:.4f}, "
        f"p=4 slope {fits[4.0].slope:.4f} rel-resid {fits[4.0].max_residual:.3f}",
    )


def test_criterion_4_block_sum_growth(block_fits):
    f3, f2 = block_fits[3.0], block_fits[2.0]
    ok = (
        abs(f3.slope - 5 / 6) <= 0.07
        and f3.max_residual < 0.1
        and abs(f2.slope - 0.5) <= 0.02
    )
    report(
        "4 block-sum growth",
        ok,
        f"p=3 slope {f3.slope:.4f} (resid {f3.max_residual:.3f}), p=2 slope {f2.slope:.4f}",
    )


def test_criterion_5_average_growth(average_results):
    res = average_results[3.0]
    sq, rad = res.square_fit, res.rademacher_fit
    width = max(res.ratios) / min(res.ratios)
    ok = abs(sq.slope - 0.5) <= 0.05 and abs(rad.slope - 0.5) <= 0.05 and width <= 3.0
    report(
        "5 average growth",
        ok,
        f"square slope {sq.slope:.4f}, rademacher slope {rad.slope:.4f}, "
        f"ratio interval width {width:.3f}",
    )


def test_criterion_6_main_theorem_gap(block_fits, average_results):
    gap3 = block_fits[3.0].slope - average_results[3.0].square_fit.slope
    gap2 = block_fits[2.0].slope - average_results[2.0].square_fit.slope
    ok = gap3 > 0.25 and abs(gap2) < 0.04
    report("6 main-theorem gap", ok, f"gap(p=3) {gap3:.4f}, gap(p=2) {gap2:+.4f}")


def test_criterion_7_near_one():
    ok = True
    details = []
    for ab in [(0.0, 0.0), (1.0, 0.0)]:
        params = JacobiParams(*ab)
        res = near_one_experiment(params, geometric_grid(10, 1000), d_sweep=(0.5,))
        _, lo, hi = res.rows[0]
        ok &= lo > 0 and hi / lo <= 5.0
        ok &= abs(res.root_fit.slope + 2.0) <= 0.05
        details.append(f"(a,b)={ab}: envelope [{lo:.3f},{hi:.3f}], root slope {res.root_fit.slope:.3f}")
    report("7 near-one lemma", ok, "; ".join(details))


def test_criterion_8_darboux_envelope():
    th = np.linspace(0.1, math.pi - 0.1, 200)
    k = darboux_amplitude(LEG, th)
    phi = darboux_phase(LEG, th)
    worst = {}
    for n in geometric_grid(16, 512):
        main = k * np.cos(n * th + phi)
        err = np.abs(math.sqrt(n) * eval_P(LEG, n, np.cos(th)) - main)
        worst[n] = float(np.max(err * n * np.sin(th) / k))
    ok = worst[512] <= 2.0 * worst[16]
    report("8 darboux envelope", ok, f"max(n=16) {worst[16]:.4f}, max(n=512) {worst[512]:.4f}")


def test_criterion_9_identity_fuzz():
    rng = np.random.default_rng(13)
    trials, per_call = 10_000, 20
    worst = 0.0
    for _ in range(trials // per_call):
        N = int(rng.integers(1, 65))
        th = rng.uniform(0.01, math.pi - 0.01, size=per_call)
        worst = max(worst, geometric_sum_identity_check(N, th))
    report("9 geometric-sum identity fuzz", worst < 1e-9, f"max deviation {worst:.2e}")


def _brute_force_order(coeffs):
    support = sorted(coeffs)
    valid = (
        perm
        for perm in itertools.permutations(support)
        if all(abs(coeffs[perm[i]]) >= abs(coeffs[perm[i + 1]]) for i in range(len(perm) - 1))
    )
    return min(valid)


def test_criterion_10_greedy_invariants():
    rng = np.random.default_rng(99)
    mode = NormalizationMode.orthonormal()
    choices = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    # ordering vs brute force on 10^3 random expansions with support <= 8
    # (sizes weighted toward <= 6 to keep the 8!-permutation oracle tractable)
    sizes = rng.choice([1, 2, 3, 4, 5, 6, 7, 8], size=1000,
                       p=[0.16, 0.16, 0.16, 0.16, 0.16, 0.16, 0.02, 0.02])
    ok = True
    for size in sizes:
        support = rng.choice(16, size=size, replace=False)
        coeffs = {int(j): float(rng.choice(choices)) for j in support}
        e = Expansion(LEG, mode, coeffs)
        ok &= greedy_ordering(e) == _brute_force_order(e.coeffs)
    # nesting, idempotence, p=2 contraction on 100 random expansions
    worst_ratio = 0.0
    for _ in range(100):
        support = rng.choice(40, size=rng.integers(1, 9), replace=False)
        e = Expansion(LEG, mode, {int(j): float(rng.normal()) for j in support})
        prev = set()
        for m in range(len(e.coeffs) + 1):
            g = greedy_approx(e, m)
            ok &= prev <= set(g.coeffs)
            ok &= greedy_approx(g, m).coeffs == g.coeffs
            prev = set(g.coeffs)
        worst_ratio = max(worst_ratio, quasi_greedy_ratio(e, 2.0))
    ok &= worst_ratio <= 1.0 + 1e-8
    report("10 greedy invariants", ok, f"worst p=2 ratio {worst_ratio:.12f}")


def test_criterion_11_reproducibility(tmp_path):
    args = ["witness", "--alpha", "0", "--beta", "0", "--p", "3", "--seed", "7",
            "--N-max", "128", "--tol", "1e-5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main([*args, "--out", str(a)]) == 0
    assert cli_main([*args, "--out", str(b)]) == 0
    same = (a / "witness.csv").read_bytes() == (b / "witness.csv").read_bytes()
    report("11 reproducibility", same, "two seeded witness runs produced identical CSV bytes")
