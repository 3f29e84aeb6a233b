"""The family pass against the allocating estimators it replaced, bit for bit.

quadrature.family_norms evaluates a whole family once per mesh level and
reduces it block by block. The oracle below keeps the estimators that came
before it: each quantity on its own mesh-doubling loop, the family held as
one (rows x mesh points) matrix (JacobiFamily.values), the block sums
through jacobi_combination. Both must give the same floats. Where the
integrands are even (alpha = beta, degrees of one parity), the oracle folds
its mesh at pi/2 exactly as _converge does; test_quadrature checks the fold
itself against the full mesh.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jacobigreedy import quadrature
from jacobigreedy.experiments import (
    ExperimentConfig,
    _child_seed,
    average_block_experiment,
    main_theorem_witness,
    staggered_block,
)
from jacobigreedy.greedy import Expansion, JacobiFamily, greedy_approx, greedy_ordering, quasi_greedy_ratio
from jacobigreedy.jacobi import JacobiParams, NormalizationMode, eval_P_many, jacobi_combination
from jacobigreedy.quadrature import (
    _MAX_REFINE,
    family_norms,
    lp_norms_of_rows,
    mu_theta_weight,
    theta_mesh,
)

SQRT = NormalizationMode.sqrt_scaled()


def oracle_converge(estimator, params, degree, tol, even=False):
    """One quantity (scalar or vector) on successively doubled meshes, until two levels agree to tol."""
    prev = None
    for level in range(_MAX_REFINE + 1):
        theta, w = theta_mesh(degree, level)
        w = w * mu_theta_weight(params, theta)
        if even:
            h = theta.size // 2
            theta, w = theta[:h], w[:h] + w[h:][::-1]
        est = estimator(theta, w)
        if prev is not None and np.max(np.abs(est - prev) / np.abs(est)) <= tol:
            return est
        prev = est
    raise AssertionError("oracle did not converge")


def is_even(fam):
    """Whether every integrand over fam is even in x: alpha = beta and degrees of one parity."""
    return fam.params.alpha == fam.params.beta and len({d % 2 for d in fam.degrees}) == 1


def oracle_combination_norm(fam, c, p, tol):
    coeffs = {d: ci * s for d, ci, s in zip(fam.degrees, c, fam.scales)}
    f = lambda x: jacobi_combination(fam.params, coeffs, x)
    return float(oracle_converge(
        lambda th, w: np.dot(w, np.abs(f(np.cos(th))) ** p) ** (1.0 / p), fam.params, max(fam.degrees), tol,
        is_even(fam),
    ))


def oracle_square_norm(fam, p, tol):
    def estimator(theta, w):
        rows = fam.values(np.cos(theta))
        return np.dot(w, np.sum(rows * rows, axis=0) ** (p / 2.0)) ** (1.0 / p)

    return float(oracle_converge(estimator, fam.params, max(fam.degrees), tol, is_even(fam)))


def oracle_rademacher(fam, p, samples, seed, tol):
    ss_signs, ss_boot = np.random.SeedSequence(seed).spawn(2)
    signs = np.random.default_rng(ss_signs).integers(0, 2, size=(samples, len(fam))) * 2.0 - 1.0
    pth = []

    def estimator(theta, w):
        pth[:] = [np.abs(signs @ fam.values(np.cos(theta))) ** p @ w]
        return float(np.mean(pth[0])) ** (1.0 / p)

    est = oracle_converge(estimator, fam.params, max(fam.degrees), tol, is_even(fam))
    idx = np.random.default_rng(ss_boot).integers(0, samples, size=(200, samples))
    return est, float(np.std(np.mean(pth[0][idx], axis=1) ** (1.0 / p), ddof=1))


def oracle_average(cfg):
    """(square norms, Rademacher means, standard errors, samples used) per N."""
    out = []
    for N in cfg.N_grid:
        fam = JacobiFamily(cfg.params, cfg.mode, staggered_block(N))
        seed, samples = _child_seed(cfg.seed, N), cfg.samples
        mean, err = oracle_rademacher(fam, cfg.p, samples, seed, cfg.tol)
        if err > 0.02 * mean:
            samples *= 2
            mean, err = oracle_rademacher(fam, cfg.p, samples, seed, cfg.tol)
        out.append((oracle_square_norm(fam, cfg.p, cfg.tol), mean, err, samples))
    return [tuple(col) for col in zip(*out)]


SETTINGS = [(0.0, 0.0, 3.0, 4, 1), (0.5, 0.0, 2.5, 4, 2)]  # alpha, beta, p, samples, seed
GRID = (8, 16, 32)


@pytest.mark.parametrize("a, b, p, samples, seed", SETTINGS)
def test_average_block_matches_oracle(a, b, p, samples, seed):
    cfg = ExperimentConfig(JacobiParams(a, b), p, mode=SQRT, N_grid=GRID, seed=seed,
                           samples=samples, tol=1e-6)
    got = average_block_experiment(cfg)
    square, means, errs, used = oracle_average(cfg)
    assert got.square_fit.ys == square
    assert got.rademacher_fit.ys == means
    assert got.rademacher_stderrs == errs
    assert got.samples_used == used
    assert max(used) == 2 * samples  # the doubled sample count is covered


@pytest.mark.parametrize("a, b, p, samples, seed", SETTINGS)
def test_witness_matches_oracle(a, b, p, samples, seed):
    params = JacobiParams(a, b)
    rep = main_theorem_witness(params, p, GRID, seed=seed, samples=samples, tol=1e-6)
    cfg = ExperimentConfig(params, p, mode=SQRT, N_grid=GRID, seed=seed, samples=samples, tol=1e-6)
    square, means, _, _ = oracle_average(cfg)
    blocks, ratios = [], []
    for N in GRID:
        fam = JacobiFamily(params, SQRT, staggered_block(N))
        eps = np.random.default_rng(np.random.SeedSequence((seed, 1, N))).integers(0, 2, size=N) * 2.0 - 1.0
        blocks.append(oracle_combination_norm(fam, np.ones(N), p, 1e-6))
        ratios.append(oracle_combination_norm(fam, eps, p, 1e-6) / blocks[-1])
    assert rep.block_fit.ys == tuple(blocks)
    assert rep.sign_ratios == tuple(ratios)
    assert rep.square_fit.ys == square
    assert rep.rademacher_fit.ys == means


def test_quantities_split_across_blocks(monkeypatch):
    # a 1000-point block cuts every mesh into several blocks, and the last one short
    monkeypatch.setattr(quadrature, "_BLOCK", 1000)
    params, p, tol = JacobiParams(0.5, 0.0), 3.0, 1e-6
    fam = JacobiFamily(params, SQRT, staggered_block(16))
    eps = np.where(np.arange(16) % 3, 1.0, -1.0)
    combos, square, rademacher, _ = family_norms(fam, p, tol, (np.ones(16), eps), square=True,
                                                 samples=8, seed=4)
    assert combos == (oracle_combination_norm(fam, np.ones(16), p, tol),
                      oracle_combination_norm(fam, eps, p, tol))
    assert square == oracle_square_norm(fam, p, tol)
    # the sign sums are one matrix product per block; a BLAS may round a short
    # block's edge columns through another kernel than the whole mesh's
    assert rademacher == pytest.approx(oracle_rademacher(fam, p, 8, 4, tol), rel=1e-14)


@pytest.mark.parametrize("ab, degrees", [
    ((0.5, 0.5), staggered_block(160)),  # one parity, folded
    ((0.0, 0.0), tuple(range(160, 320))),  # both parities, folded: |e + o|^p and |e - o|^p
    ((0.5, 0.0), staggered_block(160)),  # alpha != beta, the whole mesh
])
def test_sign_sums_reduced_across_blocks(monkeypatch, ab, degrees):
    # 160 rows in _BLOCK = 1024 make the sign sums take blocks of 128 * 1024 // 160 = 819 points,
    # less than half of every mesh; unpatched, every mesh is one block. The partial sums of the
    # p-th powers add in another order: equal to rounding, set at 1e-14
    params, p, tol = JacobiParams(*ab), 3.0, 1e-6
    fam = JacobiFamily(params, SQRT, degrees)
    run = lambda: family_norms(fam, p, tol, samples=16, seed=3)[2]
    whole_mean, whole_err = run()
    monkeypatch.setattr(quadrature, "_BLOCK", 1024)
    passes, family_pass, jacobi_iter = [], quadrature._family_pass, quadrature.jacobi_iter
    monkeypatch.setattr(quadrature, "_family_pass", lambda *a: passes.append([]) or family_pass(*a))
    monkeypatch.setattr(quadrature, "jacobi_iter",
                        lambda params, x, nmax: passes[-1].append(x.size) or jacobi_iter(params, x, nmax))
    mean, err = run()
    assert len(passes) >= 2 and all(len(blocks) >= 3 for blocks in passes)
    assert max(max(blocks) for blocks in passes) == 819
    assert mean == pytest.approx(whole_mean, rel=1e-14, abs=0.0)
    assert abs(err - whole_err) <= 1e-13 * whole_mean


@pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.0)])  # both parities folded; the whole mesh
def test_prefix_sums_take_row_bounded_blocks(monkeypatch, ab):
    # the prefix sums hold every row, as the sign sums do, so 160 rows in _BLOCK = 1024 take
    # blocks of 128 * 1024 // 160 = 819 points; unpatched, every mesh is one block. The
    # integrals of |.|^p add in another order: equal to rounding, set at 1e-14
    params, p, tol = JacobiParams(*ab), 3.0, 1e-6
    rng = np.random.default_rng(5)
    fam, c = JacobiFamily(params, SQRT, rng.permutation(np.arange(160, 320))), rng.standard_normal(160)
    whole = family_norms(fam, p, tol, prefix=c)[3]
    monkeypatch.setattr(quadrature, "_BLOCK", 1024)
    blocks, jacobi_iter = [], quadrature.jacobi_iter
    monkeypatch.setattr(quadrature, "jacobi_iter",
                        lambda params, x, nmax: blocks.append(x.size) or jacobi_iter(params, x, nmax))
    got = family_norms(fam, p, tol, prefix=c)[3]
    assert len(blocks) >= 6 and max(blocks) == 819
    np.testing.assert_allclose(got, whole, rtol=1e-14, atol=0.0)


def test_row_norms_summed_across_blocks(monkeypatch):
    # lp_norms_of_rows sums its integrals block by block, an order of addition
    # the whole-mesh matrix product did not have: equal to rounding, set at 1e-13
    params, p, tol = JacobiParams(0.0, 0.0), 1.5, 1e-6
    degrees, coeffs = (3, 40, 17, 90, 61), np.array([1.0, -0.7, 0.4, 0.9, -0.2])
    rows_fn = lambda x: np.cumsum(eval_P_many(params, degrees, x) * coeffs[:, None], axis=0)
    whole = oracle_converge(
        lambda th, w: (np.abs(rows_fn(np.cos(th))) ** p @ w) ** (1.0 / p), params, max(degrees), tol
    )
    monkeypatch.setattr(quadrature, "_BLOCK", 1000)
    split = lp_norms_of_rows(rows_fn, params, p, degree=max(degrees), tol=tol)
    np.testing.assert_allclose(split, whole, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.0)])
def test_greedy_prefix_norms_match_each_partial_sum(monkeypatch, ab, p):
    # every prefix norm against ||G_m(e)||_p, G_m(e) summed by jacobi_combination on the
    # whole mesh (no fold at alpha = beta) at the level where all of them have converged
    monkeypatch.setattr(quadrature, "_BLOCK", 1000)
    params, tol = JacobiParams(*ab), 1e-6
    rng = np.random.default_rng(3)
    e = Expansion(params, SQRT, {int(j): float(c) for j, c in zip(rng.choice(60, 14, replace=False),
                                                                  rng.standard_normal(14))})
    order = greedy_ordering(e)
    assert len({j % 2 for j in order}) == 2
    fam = JacobiFamily(params, SQRT, order)
    got = family_norms(fam, p, tol, prefix=[e.coeffs[j] for j in order])[3]
    partial = [greedy_approx(e, m) for m in range(1, len(order) + 1)]
    want = oracle_converge(
        lambda th, w: np.array([np.dot(w, np.abs(g.evaluate(np.cos(th))) ** p) for g in partial]) ** (1 / p),
        params, max(order), tol,
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert quasi_greedy_ratio(e, p, tol) == np.max(got) / got[-1]


ROOT = Path(__file__).resolve().parents[1]

MEMORY_PROBE = """
import resource
import numpy as np
import jacobigreedy as jg

rng = np.random.default_rng(7)
support = rng.choice(1000, size=50, replace=False)
e = jg.Expansion(jg.JacobiParams(0.0, 0.0), jg.NormalizationMode.sqrt_scaled(),
                 {int(j): float(c) for j, c in zip(support, rng.standard_normal(50))})
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ratio = jg.quasi_greedy_ratio(e, 1.5, tol=1e-6)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(ratio, (after - before) / 1024)  # ru_maxrss is in KiB
"""


def test_greedy_partial_sums_are_reduced_block_by_block():
    # The 50 partial sums, of degree up to 989, converge at level 4, a mesh of
    # 121,512 points, where one (partial sums x points) matrix takes 49 MB.
    # Holding the matrices whole grew the peak by 151 MB; by blocks it grows by
    # about 31 MB. Run in a fresh interpreter, so the peak is this call's own.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ratio, grown_mb = map(float, proc.stdout.split())
    assert ratio >= 1.0
    assert grown_mb < 80.0


SIGN_SUM_PROBE = """
import resource
import jacobigreedy as jg
from jacobigreedy.experiments import staggered_block
from jacobigreedy.quadrature import family_norms

params = jg.JacobiParams(0.5, 0.0)
fam = jg.JacobiFamily(params, jg.NormalizationMode.sqrt_scaled(), staggered_block(512))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
mean, err = family_norms(fam, 2.5, 1e-6, samples=256)[2]
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(mean, (after - before) / 1024)  # ru_maxrss is in KiB
"""


def test_sign_sums_are_reduced_block_by_block():
    # 512 rows converge at level 1, a mesh of 24,168 points, where the rows
    # of one whole-mesh block take 99 MB and the 256 sign sums over it 49.5 MB.
    # Those grew the peak by 147 MB; on blocks of 8,192 points (32 MiB of rows)
    # reduced in place it grows by about 53 MB. Run in a fresh interpreter, so
    # the peak is this call's own.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SIGN_SUM_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    mean, grown_mb = map(float, proc.stdout.split())
    assert mean > 0.0
    assert grown_mb < 80.0
