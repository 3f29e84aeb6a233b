"""Scripted reproductions of the quantitative asymptotics, as slope fits.

Each experiment reduces an "is comparable to N^w" claim to a least-squares
slope in log-log coordinates over a geometric grid, with the max residual
reported alongside the slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .jacobi import (
    JacobiParams,
    NormalizationMode,
    darboux_amplitude,
    darboux_phase,
    eval_P_many,
    jacobi_iter,
    largest_root,
    near_one_window,
)
from .quadrature import family_norms, rademacher_average_norm
from .greedy import Expansion, JacobiFamily, _orthonormal_lp_norm, expansion_lp_norm


def geometric_grid(lo: int, hi: int) -> list[int]:
    """lo, 2 lo, 4 lo, ... up to hi inclusive."""
    if lo < 1 or hi < lo:
        raise ValueError("bad grid bounds")
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v *= 2
    return out


def staggered_block(N: int) -> tuple[int, ...]:
    """The index set A_N = {N + 2n : 0 <= n <= N-1} driving the N^w growth."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return tuple(N + 2 * n for n in range(N))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log x, log y) with the worst log residual."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float
    dropped_smallest: bool = False
    label: str = ""


def fit_loglog(xs: Sequence[float], ys: Sequence[float], resid_tol: float | None = None,
               label: str = "") -> SlopeFit:
    """Fit log y = slope * log x + intercept.

    If resid_tol is given and the max residual exceeds 2 * resid_tol, the
    smallest-x point is discarded once (pre-asymptotic bias) and the fit
    redone; the omission is flagged on the result.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) samples")
    if min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log fit needs positive data")

    def _fit(lx, ly):
        slope, intercept = np.polyfit(lx, ly, 1)
        resid = np.max(np.abs(ly - (slope * lx + intercept)))
        return float(slope), float(intercept), float(resid)

    lx, ly = np.log(xs), np.log(ys)
    slope, intercept, resid = _fit(lx, ly)
    dropped = False
    if resid_tol is not None and resid > 2.0 * resid_tol and len(xs) >= 4:
        slope, intercept, resid = _fit(lx[1:], ly[1:])
        dropped = True
    return SlopeFit(
        xs=tuple(xs), ys=tuple(ys), slope=slope, intercept=intercept,
        max_residual=resid, dropped_smallest=dropped, label=label,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    params: JacobiParams
    p: float
    mode: NormalizationMode = field(default_factory=NormalizationMode.orthonormal)
    n_grid: tuple[int, ...] = ()
    N_grid: tuple[int, ...] = ()
    seed: int = 0
    samples: int = 64
    tol: float = 1e-6

    def __post_init__(self):
        if not math.isfinite(self.p):  # nan and inf would fail later, blaming other inputs
            raise ValueError(f"p={self.p} must be finite")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol={self.tol} must be > 0 and finite")
        for g in (self.n_grid, self.N_grid):
            if g and min(g) < 1:
                raise ValueError("grid sizes must be >= 1")


def critical_exponents(params: JacobiParams) -> tuple[float, float]:
    """(p_crit, q_crit), the ends of the Schauder range; conjugate: 1/p + 1/q = 1."""
    if not params.half_range_ok:
        raise ValueError("critical exponents require min(alpha, beta) > -1/2")
    g = params.gamma
    p_crit = 4.0 * (g + 1.0) / (2.0 * g + 3.0)
    q_crit = 4.0 * (g + 1.0) / (2.0 * g + 1.0)
    assert abs(1.0 / p_crit + 1.0 / q_crit - 1.0) < 1e-12
    return p_crit, q_crit


def omega_exponent(params: JacobiParams, p: float) -> float:
    """Growth exponent of the staggered constant-coefficient block norm.

    w = max over the two endpoint branches of (2c+3)/2 - 2(c+1)/p, c in
    {alpha, beta}; equals 1/2 exactly when p = 2.
    """
    p_crit, q_crit = critical_exponents(params)
    if not (p_crit < p < q_crit):
        raise ValueError(f"p={p} outside the Schauder range ({p_crit:g}, {q_crit:g})")
    branch = lambda c: (2.0 * c + 3.0) / 2.0 - 2.0 * (c + 1.0) / p
    return max(branch(params.alpha), branch(params.beta))


def norm_regimes_experiment(cfg: ExperimentConfig) -> SlopeFit:
    """||p_n||_{Lp(mu)} over n_grid, fitted in the regime dictated by p vs q_crit.

    Below q_crit the norms are bounded (slope ~ 0); above, they grow like
    n^{(2g+1)/2 - 2(g+1)/p}; at q_crit, ||p_n||^p is affine in log n and the
    fit is done in (log n, ||p_n||^p) coordinates with a relative residual.
    """
    if not cfg.n_grid:
        raise ValueError("n_grid must be set")
    _, q_crit = critical_exponents(cfg.params)
    a, b = cfg.params.alpha, cfg.params.beta
    values = [_orthonormal_lp_norm(a, b, cfg.p, n) for n in cfg.n_grid]
    if abs(cfg.p - q_crit) < 1e-9:
        ln = np.log(np.array(cfg.n_grid, dtype=float))
        yp = np.array(values) ** cfg.p
        slope, intercept = np.polyfit(ln, yp, 1)
        resid = float(np.max(np.abs(yp - (slope * ln + intercept)) / yp))
        return SlopeFit(
            xs=tuple(float(n) for n in cfg.n_grid), ys=tuple(values),
            slope=float(slope), intercept=float(intercept), max_residual=resid,
            label="critical",
        )
    label = "bounded" if cfg.p < q_crit else "growth"
    return fit_loglog(cfg.n_grid, values, resid_tol=0.05, label=label)


def block_sum_experiment(cfg: ExperimentConfig) -> SlopeFit:
    """L_p norm of the constant-coefficient sum over A_N, expected slope omega."""
    if not cfg.N_grid:
        raise ValueError("N_grid must be set")
    if cfg.mode.tag != "sqrt-scaled":
        raise ValueError("block-sum growth is stated for the sqrt-scaled family")
    omega_exponent(cfg.params, cfg.p)  # validates the Schauder range
    values = []
    for N in cfg.N_grid:
        e = Expansion(cfg.params, cfg.mode, {j: 1.0 for j in staggered_block(N)})
        values.append(expansion_lp_norm(e, cfg.p, tol=cfg.tol))
    return fit_loglog(cfg.N_grid, values, resid_tol=0.05, label="block-sum")


@dataclass(frozen=True)
class AverageBlockResult:
    square_fit: SlopeFit
    rademacher_fit: SlopeFit
    rademacher_stderrs: tuple[float, ...]
    ratios: tuple[float, ...]  # rademacher mean / square-function norm, per N
    samples_used: tuple[int, ...]


def average_block_experiment(cfg: ExperimentConfig) -> AverageBlockResult:
    """Square-function and random-sign average norms over A_N; both ~ N^{1/2}."""
    if not cfg.N_grid:
        raise ValueError("N_grid must be set")
    _, q_crit = critical_exponents(cfg.params)
    if not (1.0 <= cfg.p < q_crit):
        raise ValueError(f"p={cfg.p} outside [1, q_crit={q_crit:g})")
    return _average_block(cfg, lambda N: ())[0]


def _average_block(cfg: ExperimentConfig, combos_for) -> tuple[AverageBlockResult, tuple]:
    """average_block_experiment, plus the norms of the combinations combos_for(N) of
    the family over A_N, taken on the same family passes (quadrature.family_norms)."""
    rows = []
    for N in cfg.N_grid:
        fam = JacobiFamily(cfg.params, cfg.mode, staggered_block(N))
        samples, seed = cfg.samples, _child_seed(cfg.seed, N)
        norms, square, (mean, err), _ = family_norms(fam, cfg.p, cfg.tol, combos_for(N), square=True,
                                                     samples=samples, seed=seed)
        if err > 0.02 * mean:  # one automatic doubling of the sample count
            samples *= 2
            mean, err = rademacher_average_norm(fam, cfg.p, samples=samples, seed=seed, tol=cfg.tol)
        rows.append((square, mean, err, samples, norms))
    sq_vals, rad_means, rad_errs, used, combos = zip(*rows)
    result = AverageBlockResult(
        square_fit=fit_loglog(cfg.N_grid, sq_vals, resid_tol=0.05, label="square-function"),
        rademacher_fit=fit_loglog(cfg.N_grid, rad_means, resid_tol=0.05, label="rademacher"),
        rademacher_stderrs=tuple(rad_errs),
        ratios=tuple(r / s for r, s in zip(rad_means, sq_vals)),
        samples_used=tuple(used),
    )
    return result, combos


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, tag)).generate_state(1)[0])


def geometric_sum_identity_check(
    N: int,
    theta_grid: Sequence[float],
    params: JacobiParams | None = None,
) -> float:
    """Max deviation of |sum_{n in A_N} cos(n t + phi)| from the closed form.

    The sum over the staggered block is a geometric sum whose real part
    collapses to sin(N t) cos((2N-1) t + phi(t)) / sin(t).
    """
    params = params or JacobiParams(0.0, 0.0)
    th = np.asarray(theta_grid, dtype=float)
    if np.any(np.abs(np.sin(th)) < 1e-12):
        raise ValueError("theta grid must avoid sin(theta) = 0")
    phi = darboux_phase(params, th)
    ns = np.array(staggered_block(N), dtype=float)
    lhs = np.abs(np.sum(np.cos(np.outer(ns, th) + phi), axis=0))
    rhs = np.abs(np.sin(N * th) * np.cos((2.0 * N - 1.0) * th + phi)) / np.abs(np.sin(th))
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class NearOneResult:
    rows: tuple[tuple[float, float, float], ...]  # (d, min ratio, max ratio)
    chosen_d: float | None
    root_fit: SlopeFit


def near_one_experiment(
    params: JacobiParams,
    n_grid: Sequence[int],
    d_sweep: Sequence[float] = (0.5, 0.25, 0.125),
) -> NearOneResult:
    """Envelope of P_n(x)/n^alpha over near-one windows (33 evenly spaced x
    in each near_one_window(n, d), every window of every n in one pass up to
    max(n_grid), each n read at its own windows only), plus root scaling.

    Picks the largest d in the sweep whose envelope stays positive with
    max/min <= 10. The largest root z_n obeys 1 - z_n ~ n^{-2}.
    """
    ds = sorted(d_sweep, reverse=True)
    windows, scales, want = [], [], {}
    for i, n in enumerate(n_grid):  # every degree's checks, in grid order, before the pass
        windows.append([np.linspace(*near_one_window(n, d), 33) for d in ds])
        try:
            scales.append(float(n) ** params.alpha)
        except OverflowError:
            raise OverflowError(f"n^alpha overflows at n = {n}, alpha = {params.alpha:g}") from None
        want.setdefault(int(n), []).append(i)
    windows = np.reshape(windows, (len(scales), len(ds), 33))
    # every degree runs over every window, but is read at its own windows only: a high degree may
    # overflow at a low degree's wider windows, and that is no error
    values = np.empty(windows.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow that is read is reported below
        for n, rn, ln in jacobi_iter(params, windows, max(want, default=0)):
            for i in want.get(n, ()):
                np.multiply(rn[i], ln, out=values[i])
    if not np.isfinite(values).all():
        raise OverflowError("Jacobi recurrence overflowed")
    ratios = values / np.reshape(scales, (-1, 1, 1))
    lo, hi = ratios.min(axis=(0, 2), initial=math.inf), ratios.max(axis=(0, 2), initial=-math.inf)
    rows = tuple((float(d), float(a), float(b)) for d, a, b in zip(ds, lo, hi))
    chosen = next((d for d, a, b in rows if a > 0 and b / a <= 10.0), None)
    roots = [largest_root(params, n) for n in n_grid]
    root_fit = fit_loglog(n_grid, [1.0 - z for z in roots], label="largest-root")
    return NearOneResult(rows=rows, chosen_d=chosen, root_fit=root_fit)


def darboux_envelope(params: JacobiParams, n_grid: Sequence[int]) -> list[tuple[int, float]]:
    """Per n: max over theta of |n^{1/2} P_n(cos t) - main term| * n sin t / k(t),
    on 200 evenly spaced theta in [0.1, pi - 0.1], every n from one recurrence pass.
    OverflowError where the amplitude k(theta) does (alpha or beta in the hundreds)."""
    th = np.linspace(0.1, math.pi - 0.1, 200)
    rows = eval_P_many(params, n_grid, np.cos(th))  # an overflow of P_n is reported first
    k = darboux_amplitude(params, th)
    if not np.isfinite(k).all():
        raise OverflowError(f"Darboux amplitude k(theta) overflows at theta = {th[~np.isfinite(k)][0]:.6g}, "
                            f"alpha = {params.alpha:g}, beta = {params.beta:g}")
    phi = darboux_phase(params, th)
    out = []
    for n, pn in zip(n_grid, rows):
        exact = math.sqrt(n) * pn
        main = k * np.cos(n * th + phi)
        scaled = np.abs(exact - main) * n * np.sin(th) / k
        out.append((int(n), float(np.max(scaled))))
    return out


@dataclass(frozen=True)
class WitnessReport:
    params: JacobiParams
    p: float
    block_fit: SlopeFit
    square_fit: SlopeFit
    rademacher_fit: SlopeFit
    sign_ratios: tuple[float, ...]
    gap: float
    residual: float
    verdict: str


def main_theorem_witness(
    params: JacobiParams,
    p: float,
    N_grid: Sequence[int],
    seed: int = 0,
    samples: int = 64,
    tol: float = 1e-6,
) -> WitnessReport:
    """Exponent-gap witness: staggered block growth N^w against the N^{1/2}
    average baseline; a gap well above the fit residual contradicts uniform
    boundedness of the greedy operators (expected for every p != 2).
    """
    N_grid = tuple(int(N) for N in N_grid)
    cfg = ExperimentConfig(
        params=params, p=p, mode=NormalizationMode.sqrt_scaled(),
        N_grid=N_grid, seed=seed, samples=samples, tol=tol,
    )
    if not N_grid:
        raise ValueError("N_grid must be set")
    omega_exponent(params, p)  # validates the Schauder range, which lies in [1, q_crit)
    # coefficients of the block sum sum_j x_j and of one random-sign sum sum_j eps_j x_j
    # over A_N, whose quotient is the sign ratio
    coeffs = {N: (np.ones(N), np.random.default_rng(np.random.SeedSequence((seed, 1, N)))
                  .integers(0, 2, size=N) * 2.0 - 1.0) for N in N_grid}
    # the sums ride on the average baseline's passes over the same sqrt-scaled family,
    # so at p = 2 block and square norms are one Parseval sum and the gap is a clean zero
    avg, sums = _average_block(cfg, lambda N: coeffs[N])
    block = fit_loglog(N_grid, [s[0] for s in sums], resid_tol=0.05, label="block-sum")
    ratios = [signed / block_norm for block_norm, signed in sums]
    gap = block.slope - avg.square_fit.slope
    residual = max(block.max_residual, avg.square_fit.max_residual)
    if abs(gap) > 3.0 * residual:
        verdict = "consistent with non-quasi-greedy"
    elif abs(gap) < residual:
        verdict = "consistent with quasi-greedy"
    else:
        verdict = "inconclusive"
    return WitnessReport(
        params=params, p=p, block_fit=block, square_fit=avg.square_fit,
        rademacher_fit=avg.rademacher_fit, sign_ratios=tuple(ratios),
        gap=gap, residual=residual, verdict=verdict,
    )
