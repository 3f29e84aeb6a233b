"""Integration against the Jacobi weight and Lp norms of expansions.

Three integration paths:

* a Gauss rule for the weight (1-x)^alpha (1+x)^beta, on the zeros of
  jacobi.jacobi_zeros with Christoffel weights -- exact on polynomials, and
  so an oracle for the other two paths (p = 2 norms need none:
  family_norms uses Parseval, and builds no mesh);
* panels between the zeros of a function whose zeros are known, each
  integrated by a Gauss-Jacobi rule whose weight holds the zeros of |f|^p
  at the panel ends (and, on the two end panels, the endpoint powers of
  the measure): lp_norm_between_zeros, the path of ||p_n||_p. The rule
  between zeros is fixed; only the two end panels double theirs;
* a composite Gauss mesh in theta = arccos x with geometric grading toward
  both endpoints, refined by doubling until two successive estimates agree.
  This is the general path: |f|^p for non-even p is not a polynomial, and
  the transformed weight behaves like theta^{2 alpha + 1} near 0 and
  (pi - theta)^{2 beta + 1} near pi.

The mesh has no configuration: its panel count follows the highest
polynomial degree in the integrand (the `degree` of lp_norm and
lp_norms_of_rows, the largest degree of a family), which sets the
oscillation it must resolve. Quantities on one mesh share its levels, each
until it has converged (_converge). A family's quantities (family_norms:
combinations, so every Lp norm of an expansion, the square function, sign
sums, greedy partial sums) come from one jacobi_iter pass per level over
blocks of points, each reduced over the family. Combinations and the square
function stream into whole-mesh sums, on blocks of jacobi._BLOCK points; the
sign and partial sums, which need every row at once, read the rows the pass
holds, on blocks of at most 32 MiB of rows (up to 4096 rows). lp_norms_of_rows,
behind lp_norm only, takes rows of any function. At alpha = beta the mesh is
folded at theta = pi/2 and evaluated below it only, every family's even- and
odd-degree parts mirrored apart; so is the panel set of a single p_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .jacobi import _BLOCK, JacobiParams, jacobi_iter, jacobi_matrix, jacobi_zeros, orthonormal_const, total_mass


class ConvergenceError(RuntimeError):
    """Mesh doubling failed to reach the requested tolerance."""

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        super().__init__(message)
        self.estimates = estimates


class EvaluationError(ValueError):
    """The integrand returned NaN or inf."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-x)^alpha (1+x)^beta on (-1, 1)."""

    params: JacobiParams
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_jacobi_rule(params: JacobiParams, m: int) -> QuadratureRule:
    """m-point Gauss rule, exact for polynomials of degree <= 2m - 1.

    Nodes are the zeros of P_m from jacobi.jacobi_zeros (Newton's method on
    the pivot recurrence of the Jacobi matrix, each zero certified by a Sturm
    count), a cached read-only array; weights are the Christoffel numbers
    1 / sum_{k<m} p_k(x)^2 of its orthonormal recurrence. Unlike squared
    eigenvector components, they stay accurate relative to their own size
    when tiny, as at large exponents. A sum that overflows (to inf, or to
    nan once two p_k have) stands for a weight below the smallest double,
    which becomes 0.
    """
    diag, off = jacobi_matrix(params, m)
    nodes = jacobi_zeros(params, m)
    p_prev = np.zeros(m)
    p_cur = np.full(m, total_mass(params) ** -0.5)
    christoffel = p_cur * p_cur
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m - 1):
            p_next = ((nodes - diag[k]) * p_cur - (off[k - 1] * p_prev if k else 0.0)) / off[k]
            p_prev, p_cur = p_cur, p_next
            christoffel += p_cur * p_cur
    weights = np.where(np.isfinite(christoffel), 1.0 / christoffel, 0.0)
    return QuadratureRule(params=params, nodes=nodes, weights=weights)


_POINTS_PER_PANEL = 12
_GRADING = 2.0  # geometric ratio of the panels stacked toward theta = 0 and pi
_GRADING_LEVELS = 36  # smallest graded panel is ~g^-36 of the core panel
_MAX_REFINE = 7  # mesh doublings before _converge gives up


def theta_mesh(degree: int = 0, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and d-theta weights on (0, pi) at the given refinement level.

    The core panel count resolves the oscillation of degree-`degree` Jacobi
    polynomials and doubles with each level.
    """
    panels_per_unit = max(4, math.ceil((degree + 8) / 5.0))
    n_core = max(4, math.ceil(panels_per_unit * (2**level) * math.pi))
    bp = np.linspace(0.0, math.pi, n_core + 1)
    graded = bp[1] * _GRADING ** (-np.arange(_GRADING_LEVELS, 0, -1, dtype=float))
    bp = np.concatenate([[0.0], graded, bp[1:-1], math.pi - graded[::-1], [math.pi]])
    gx, gw = np.polynomial.legendre.leggauss(_POINTS_PER_PANEL)
    lo, hi = bp[:-1], bp[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    theta = (mid[:, None] + half[:, None] * gx).ravel()
    w = (half[:, None] * gw).ravel()
    return theta, w


def mu_theta_weight(params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """d mu / d theta after x = cos theta: 2^{a+b+1} sin(t/2)^{2a+1} cos(t/2)^{2b+1}."""
    a, b = params.alpha, params.beta
    return (
        2.0 ** (a + b + 1.0)
        * np.sin(theta / 2.0) ** (2.0 * a + 1.0)
        * np.cos(theta / 2.0) ** (2.0 * b + 1.0)
    )


_PANEL_POINTS = 12  # Gauss-Jacobi points on each panel between two zeros
# The end panels also hold the measure's endpoint powers. At large alpha (beta)
# and p their integrand is a narrow peak that a fixed rule can miss: 32 points
# were 21 % off at (alpha, p, n) = (150, 7.3, 400) and 64 points 23 % off at
# (beta, p, n) = (150, 20, 128). So their rule doubles from 32 points, up to
# 512, until the p-th power sum settles to its rounding floor (see below).
_END_PANEL_POINTS = 32
_END_PANEL_MAX = 512


@lru_cache(maxsize=64)
def _reference_rule(alpha: float, beta: float, m: int) -> QuadratureRule:
    """gauss_jacobi_rule for (1-s)^alpha (1+s)^beta, built once per weight."""
    return gauss_jacobi_rule(JacobiParams(alpha, beta), m)


def _end_panels(theta: np.ndarray, params: JacobiParams, p: float, m: int):
    """(nodes, root factors, weights) of the panels (0, theta[0]) and (theta[-1], pi), m points each.

    The root factor is the p-th root of d mu / d theta over the powers the
    rule holds, each end-panel power taken of one ratio so that nothing
    underflows into 0/0; |f| is divided by the power of s the rule holds
    at the zero.
    """
    a, b = params.alpha, params.beta
    ea, eb = (2.0 * a + 1.0) / p, (2.0 * b + 1.0) / p
    first = _reference_rule(p, 2.0 * a + 1.0, m)
    last = _reference_rule(2.0 * b + 1.0, p, m)
    s0, s1 = first.nodes, last.nodes
    h0, h1 = 0.5 * theta[0], 0.5 * (math.pi - theta[-1])
    t0 = h0 * (1.0 + s0)  # theta = 0 at s = -1
    t1 = math.pi - h1 * (1.0 - s1)  # theta = pi at s = 1
    root = np.concatenate([
        (np.sin(t0 / 2.0) / (1.0 + s0)) ** ea * np.cos(t0 / 2.0) ** eb / (1.0 - s0),
        np.sin(t1 / 2.0) ** ea * (np.sin(h1 * (1.0 - s1) / 2.0) / (1.0 - s1)) ** eb / (1.0 + s1),
    ])
    return np.concatenate([t0, t1]), root, np.concatenate([h0 * first.weights, h1 * last.weights])


def _abs_on(f, pieces, even: bool) -> list:
    """|f(cos t)| on each piece of t, by one call of f. If even, every piece is mirror-symmetric
    about pi/2, with no node on it, and f is evaluated below pi/2 only."""
    halves = [t[: t.size // 2] if even else t for t in pieces]
    values = np.split(np.abs(np.asarray(f(np.cos(np.concatenate(halves))), dtype=float)),
                      np.cumsum([h.size for h in halves])[:-1])
    return [np.concatenate([v, v[::-1]]) for v in values] if even else values


def lp_norm_between_zeros(
    f: Callable[[np.ndarray], np.ndarray],
    params: JacobiParams,
    p: float,
    zeros: np.ndarray,
    even: bool = False,
) -> float:
    """( integral |f|^p d mu )^{1/p}; `zeros` are all zeros of f in (-1, 1), simple.

    In theta = arccos x the zeros cut (0, pi) into panels, each mapped to
    s in (-1, 1) and integrated by a Gauss-Jacobi rule whose weight holds
    the zeros of |f|^p at its ends: (1-s)^p (1+s)^p between two zeros,
    (1-s)^p (1+s)^{2 alpha + 1} at theta = 0 and (1-s)^{2 beta + 1} (1+s)^p
    at pi, which hold the endpoint powers of d mu / d theta as well (Gauss
    rules for modified weights, Gautschi 2004). The factor left is smooth,
    so the 12-point rule between zeros needs no refinement for any p >= 1;
    only the two end panels double their rule until it settles, and f is
    evaluated once unless they must. The factor is |f| times the p-th root
    of d mu / d theta over the held powers, divided by its maximum before
    the power p, so nothing overflows. If even (|f| even in x, alpha = beta),
    f is evaluated only below theta = pi/2 (_abs_on).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    theta = np.sort(np.arccos(np.asarray(zeros, dtype=float)))
    if theta.size == 0:
        raise ValueError("f needs at least one zero")
    a, b = params.alpha, params.beta
    inner = _reference_rule(p, p, _PANEL_POINTS)
    s = inner.nodes
    half = 0.5 * np.diff(theta)[:, None]
    t_in = ((theta[:-1, None] + half) + half * s).ravel()
    root_in = (np.sin(t_in / 2.0) ** ((2.0 * a + 1.0) / p) * np.cos(t_in / 2.0) ** ((2.0 * b + 1.0) / p)
               / np.tile((1.0 - s) * (1.0 + s), len(half)))
    w_in = (half * inner.weights).ravel()

    # x = cos(theta) holds 1 - x only to eps, so near the ends f is known to
    # about n^2 eps relative (2.4e-10 at n = 4096); two end-panel rules can
    # agree no closer than p times that.
    settled = p * max(theta.size, 8) ** 2 * np.finfo(float).eps
    m = _END_PANEL_POINTS
    coarse, fine = _end_panels(theta, params, p, m), _end_panels(theta, params, p, 2 * m)
    g_in, g_coarse, g_fine = _abs_on(f, (t_in, coarse[0], fine[0]), even)
    g_in, g_coarse, g_fine = g_in * root_in, g_coarse * coarse[1], g_fine * fine[1]
    while True:
        top = np.max([np.max(g, initial=0.0) for g in (g_in, g_coarse, g_fine)])
        if not (math.isfinite(top) and top > 0.0):
            raise EvaluationError("integrand is non-finite, or zero at every node")
        inside = float(np.dot(w_in, (g_in / top) ** p))
        end_coarse = float(np.dot(coarse[2], (g_coarse / top) ** p))
        end_fine = float(np.dot(fine[2], (g_fine / top) ** p))
        scale = 2.0 ** ((a + b + 1.0) / p) * top
        estimates = tuple(scale * (inside + end) ** (1.0 / p) for end in (end_coarse, end_fine))
        if abs(end_fine - end_coarse) <= settled * (inside + end_fine):
            break
        if 2 * m >= _END_PANEL_MAX:
            raise ConvergenceError(f"end panels unsettled at {2 * m} points", estimates=estimates)
        m *= 2
        coarse, g_coarse = fine, g_fine
        fine = _end_panels(theta, params, p, 2 * m)
        g_fine = _abs_on(f, (fine[0],), even)[0] * fine[1]
    if not math.isfinite(estimates[1]):
        raise EvaluationError("norm overflowed")
    return estimates[1]


def _converge(estimator, params: JacobiParams, degree: int, tol: float, count: int = 1, fold=False) -> list:
    """Run estimator on successively doubled meshes until each of its `count` quantities converges.

    estimator gets (theta, quadrature-times-measure weights, ascending indices of the
    quantities still open) and returns a scalar or vector estimate for each; one converges,
    and drops out, once the max relative change of its estimate between two levels is <= tol.
    If fold (alpha = beta, an even measure), the mesh is folded at pi/2: the estimator sees
    its half below pi/2, with weights (each node's, its mirror node's). Returns the converged
    values; ConvergenceError carries the last two estimates of the first one open.
    """
    last, done, open_ = [(None, None)] * count, [None] * count, list(range(count))
    for level in range(_MAX_REFINE + 1):
        theta, w = theta_mesh(degree, level)
        w = w * mu_theta_weight(params, theta)
        if fold:  # at pi/2, where no node lies (12 points per panel)
            theta, w = theta[: theta.size // 2], np.stack([w, w[::-1]])[:, : theta.size // 2]
        for q, est in zip(tuple(open_), estimator(theta, w, tuple(open_))):
            est = np.asarray(est, dtype=float)
            if not np.all(np.isfinite(est)):
                raise EvaluationError("integrand produced non-finite values")
            prev = last[q][1]
            last[q] = (prev, est)
            if prev is not None and np.max(np.abs(est - prev) / np.maximum(np.abs(est), 1e-300)) <= tol:
                done[q] = est if est.ndim else float(est)
                open_.remove(q)
        if not open_:
            return done
    prev, est = last[open_[0]]
    i = np.argmax(np.abs(est - prev) / np.maximum(np.abs(est), 1e-300))  # the component that changed most
    raise ConvergenceError(
        f"no convergence to tol={tol:g} after {_MAX_REFINE} refinements",
        estimates=(float(prev.flat[i]), float(est.flat[i])),
    )


def lp_norm(
    f: Callable[[np.ndarray], np.ndarray],
    params: JacobiParams,
    p: float,
    degree: int = 0,
    tol: float = 1e-8,
) -> float:
    """( integral |f|^p d mu )^{1/p} on (-1, 1); f must accept numpy arrays of x.

    degree is the highest polynomial degree in f, which sets the mesh density.
    The one row of lp_norms_of_rows.
    """
    return float(lp_norms_of_rows(lambda x: np.atleast_2d(f(x)), params, p, degree, tol)[0])


def _family_pass(family, x: np.ndarray, coeffs: np.ndarray, comb: np.ndarray, sq, hold: bool):
    """Add sum_j coeffs[i, j] f_j at x to comb[i], and sum_j f_j^2 to sq unless it is None.

    A generator: one jacobi_iter run per block of points, the family reduced within the
    block, so comb and sq run over the points of x only. If hold, every row f_j of a block
    is held and (block, rows) is yielded after it; the caller may overwrite rows. Held blocks
    are W = min(_BLOCK, max(_BLOCK / 32, 128 _BLOCK / N)) points wide: 32 MiB of rows up to
    N = 4096; other blocks _BLOCK.
    """
    step = min(_BLOCK, max(_BLOCK // 32, 128 * _BLOCK // len(family))) if hold else _BLOCK
    at: dict[int, list[int]] = {}
    for j, d in enumerate(family.degrees):
        at.setdefault(d, []).append(j)
    width = min(x.size, step)
    rows = np.empty((len(family) if hold else 1, width))
    tmp = np.empty(width)
    for lo in range(0, x.size, step):
        block, m = slice(lo, lo + step), min(step, x.size - lo)
        parts, sq_part, t = comb[:, block], None if sq is None else sq[block], tmp[:m]
        for n, pn in jacobi_iter(family.params, x[block], max(family.degrees)):
            for j in at.get(n, ()):
                for part, c in zip(parts, coeffs[:, j]):  # ascending n, as in jacobi_combination
                    if c:
                        part += np.multiply(pn, c, out=t)
                if sq is not None or hold:
                    row = np.multiply(pn, family.scales[j], out=rows[j if hold else 0, :m])
                    if sq is not None:
                        sq_part += np.multiply(row, row, out=t)
        if hold:
            yield block, rows[:, :m]


_BOOTSTRAP = 200  # resamples behind the standard error of the Rademacher mean


def family_norms(family, p: float, tol: float = 1e-8, combos=(), square: bool = False,
                 samples: int | None = None, seed: int = 0, prefix=None) -> tuple:
    """Lp(mu) norms of quantities of one family f_j = s_j P_{d_j}, one recurrence pass per mesh level.

    family is a greedy.JacobiFamily (.params, .degrees, .scales s_j). Returns (norms of the combos,
    square, rademacher, prefix sums):
    * || sum_j c_j f_j ||_p for each coefficient vector c in combos, (c_j s_j) P_n
      added in ascending n as in jacobi.jacobi_combination;
    * if square, || (sum_j f_j^2)^{1/2} ||_p, else None;
    * if samples is given (>= 1), the Rademacher average ( E_eps || sum_j eps_j f_j ||_p^p )^{1/p}
      over `samples` sign vectors, iid uniform on {-1, +1} and fixed by seed,
      with the bootstrap standard error of the estimate (0.0 if all resamples agree); else None;
    * if prefix (coefficients c_j) is given, the array of || sum_{i<=m} c_i f_i ||_p, m = 1..len(family)
      (the greedy partial sums of an expansion whose support the family lists in greedy order).
    Each converges on its own (_converge), at alpha = beta on a mesh folded at pi/2: even integrands
    (sum_j f_j^2, sums over one parity) take each node's weight plus its mirror's, and a sum over both
    parities, as even- and odd-degree parts e and o, |e + o|^p at a node and |e - o|^p at its mirror.
    Combinations and the square function are summed over the whole mesh, then integrated; the sign
    sums and the prefix sums are integrated block by block from the rows _family_pass holds.
    At p = 2, Parseval sums and no mesh. Memory: O((rows + samples) x W) while the sign or prefix
    sums are open (32 MiB of rows up to 4096 rows; W: _family_pass), O(points) per other quantity.
    ValueError: p not finite and >= 1. EvaluationError: a coefficient not finite, or a recurrence
    overflow (values, or their p-th powers, past the doubles).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    params = family.params
    coeffs = np.asarray(combos, dtype=float).reshape(len(combos), len(family)) * family.scales
    k, signs, pth_powers = len(coeffs), None, None
    if samples is not None:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        sign_seed, boot_seed = np.random.SeedSequence(seed).spawn(2)
        signs = np.random.default_rng(sign_seed).integers(0, 2, size=(samples, len(family))) * 2.0 - 1.0
    prefix = None if prefix is None else np.asarray(prefix, dtype=float).reshape(len(family))
    if not all(np.isfinite(c).all() for c in (coeffs, prefix) if c is not None):
        raise EvaluationError("coefficients must be finite")  # so a non-finite estimate is an overflow
    pre_q = k + square  # then the prefix sums; the Rademacher quantity comes last
    rad_q = pre_q + (prefix is not None)
    odd = np.array(family.degrees) % 2

    def estimator(theta, w, open_):
        nonlocal pth_powers
        sym = w[0] + w[1] if w.ndim == 2 else w  # w = (each node's weight, its mirror's) if folded
        mixed = w.ndim == 2 and 0 < odd.sum() < len(odd)  # then each sum is stacked as (e; o)
        split = (lambda a: np.concatenate([a * (1 - odd), a * odd])) if mixed else (lambda a: a)

        def pth(v, block=slice(None)):  # integral of |.|^p over the block for each row of v
            if not mixed:
                return [np.dot(sym[block], np.abs(row) ** p) for row in v]
            e, o = np.split(v, 2)
            return np.abs(e + o) ** p @ w[0][block] + np.abs(e - o) ** p @ w[1][block]

        x, cs = np.cos(theta), split(coeffs[[q for q in open_ if q < k]])
        comb, sq = np.zeros((len(cs), x.size)), np.zeros(x.size) if square and k in open_ else None
        pre, rad = prefix is not None and pre_q in open_, rad_q in open_
        acc, sums = np.zeros(len(family)), None
        if rad:
            eps, pth_powers = split(signs), np.zeros(len(signs))  # the bootstrap reads the last level's
        for block, rows in _family_pass(family, x, cs, comb, sq, pre or rad):
            if rad:  # eps @ rows, summed over the block as |.|^p
                sums = np.empty((len(eps), rows.shape[1])) if sums is None else sums
                v = np.matmul(eps, rows, out=sums[:, : rows.shape[1]])
                pth_powers += pth(v, block) if mixed else np.power(np.abs(v, out=v), p, out=v) @ sym[block]
            if pre:  # rows[i] = c_i f_i, then the prefix sums (e + o) and |.|^p in place
                rows *= prefix[:, None]
                run, t = np.zeros((2, rows.shape[1])), np.empty(rows.shape[1])
                for i, row in enumerate(rows):
                    run[odd[i]] += row
                    np.add(*run, out=row)
                    if mixed:
                        acc[i] += np.power(np.abs(np.subtract(*run, out=t), out=t), p, out=t) @ w[1][block]
                acc += np.power(np.abs(rows, out=rows), p, out=rows) @ (w[0] if mixed else sym)[block]
        out = [v ** (1.0 / p) for v in pth(comb)]
        if sq is not None:
            out.append(np.dot(sym, sq ** (p / 2.0)) ** (1.0 / p))
        if pre:
            out.append(acc ** (1.0 / p))
        if rad:
            out.append(float(np.mean(pth_powers)) ** (1.0 / p))
        return out

    if p == 2.0:  # Parseval: || sum_j a_j P_{d_j} ||_2^2 = sum_n (sum_{d_j = n} a_j)^2 / d_n^2
        inv_d = 1.0 / np.array([orthonormal_const(params, n) for n in family.degrees])  # ||P_{d_j}||_2
        to_degree = np.equal.outer(family.degrees, np.unique(family.degrees)) * inv_d[:, None]
        parseval = lambda a: np.sum((a @ to_degree) ** 2, axis=-1)
        values = [math.sqrt(v) for v in parseval(coeffs)]
        if square:
            values.append(math.sqrt(np.sum((family.scales * inv_d) ** 2)))
        if prefix is not None:
            partial = np.cumsum((prefix * family.scales)[:, None] * to_degree, axis=0)
            values.append(np.sqrt(np.sum(partial ** 2, axis=1)))
        if signs is not None:
            pth_powers = parseval(signs * family.scales)
            values.append(float(np.mean(pth_powers)) ** 0.5)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, here
            try:
                values = _converge(estimator, params, max(family.degrees), tol, rad_q + (signs is not None),
                                   params.alpha == params.beta)
            except EvaluationError:  # the family's values, or their p-th powers, left the double range
                raise EvaluationError(
                    f"Jacobi recurrence overflowed on the mesh of degree {max(family.degrees)}"
                ) from None
    rademacher = None
    if signs is not None:
        idx = np.random.default_rng(boot_seed).integers(0, samples, size=(_BOOTSTRAP, samples))
        boots = np.mean(pth_powers[idx], axis=1) ** (1.0 / p)
        rademacher = (values[rad_q], float(np.std(boots, ddof=1)) if np.ptp(boots) else 0.0)
    return (tuple(values[:k]), values[k] if square else None, rademacher,
            None if prefix is None else values[pre_q])


def square_function_norm(
    family,
    p: float,
    tol: float = 1e-8,
) -> float:
    """|| (sum_j |f_j|^2)^{1/2} ||_{Lp(mu)} of a greedy.JacobiFamily, by family_norms."""
    return family_norms(family, p, tol, square=True)[1]


def rademacher_average_norm(
    family,
    p: float,
    samples: int = 64,
    seed: int = 0,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """(Monte-Carlo estimate of ( E_eps || sum_j eps_j f_j ||_p^p )^{1/p}, its bootstrap
    standard error), by family_norms; the signs are deterministic for a given seed."""
    return family_norms(family, p, tol, samples=samples, seed=seed)[2]


def lp_norms_of_rows(
    rows_fn: Callable[[np.ndarray], np.ndarray],
    params: JacobiParams,
    p: float,
    degree: int = 0,
    tol: float = 1e-8,
) -> np.ndarray:
    """Lp(mu) norms of several functions sharing one mesh; rows_fn(x) -> (k, len(x)).

    degree is the highest polynomial degree in the rows, as for lp_norm;
    rows_fn sees one block of _BLOCK mesh points at a time.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")

    def estimator(theta, w, open_):
        x, total = np.cos(theta), 0.0
        for lo in range(0, x.size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            total = total + np.abs(np.asarray(rows_fn(x[block]), dtype=float)) ** p @ w[block]
        return [total ** (1.0 / p)]

    return np.asarray(_converge(estimator, params, degree, tol)[0])
