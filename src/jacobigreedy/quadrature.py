"""Integration against the Jacobi weight and Lp norms of expansions.

Three integration paths, whose Gauss rules all come from gauss_jacobi_rule:

* a Gauss rule for the weight (1-x)^alpha (1+x)^beta, on the zeros of
  jacobi.jacobi_zeros with Christoffel weights -- exact on polynomials, and
  so an oracle for the other two paths (p = 2 norms need none:
  family_norms uses Parseval, and builds no mesh), and at alpha = beta = 0
  the Gauss-Legendre rule of every mesh panel;
* panels between the zeros of a function whose zeros are known, each
  integrated by a Gauss-Jacobi rule whose weight holds the zeros of |f|^p
  at the panel ends (and, on the two end panels, the endpoint powers of
  the measure): lp_norm_between_zeros, the path of ||p_n||_p. The rule
  between zeros is fixed; only the two end panels double theirs. Its f
  may be any function with those zeros; for p_n, greedy evaluates it from
  the zeros themselves (jacobi.eval_P_from_zeros);
* a composite Gauss mesh in theta = arccos x with geometric grading toward
  both endpoints, refined by doubling until two successive estimates agree.
  This is the general path: |f|^p for non-even p is not a polynomial, and
  the transformed weight behaves like theta^{2 alpha + 1} near 0 and
  (pi - theta)^{2 beta + 1} near pi.

The mesh has no configuration: its panel count follows the highest polynomial
degree in the integrand (the `degree` of lp_norm and lp_norms_of_rows, the
largest degree of a family), which sets the oscillation it must resolve.
Quantities on one mesh share its levels, each under its key until it has
converged (_converge). A family's quantities (family_norms: combination i under
key i, so every Lp norm of an expansion; "square", the square function;
"rademacher", the sign sums; "prefix", the greedy partial sums) come from one
jacobi_iter pass per level over blocks of points, each reduced over the family.
Combinations and the square function stream into whole-mesh sums, on blocks of
jacobi._BLOCK points; the sign and partial sums, which need every row at once,
read the rows the pass holds, on blocks of at most 32 MiB of rows (up to 4096
rows) written into one buffer for every level, the sign sums _BLOCK / 16 columns
at a time. Every integral of |.|^p in family_norms and lp_norm_between_zeros is
_pth_sum: abs, one sqrt and products when 2p is an integer up to 12, np.power
otherwise. lp_norms_of_rows, behind lp_norm only, takes rows of any function.
At alpha = beta the mesh is folded at theta = pi/2 and evaluated below it only,
every family's even- and odd-degree parts mirrored apart; so is the panel set
of a single p_n.
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
    m, nodes = diag.size, jacobi_zeros(params, m)
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


@lru_cache(maxsize=64)
def _reference_rule(alpha: float, beta: float, m: int) -> QuadratureRule:
    """gauss_jacobi_rule for (1-s)^alpha (1+s)^beta, built once per weight and shared, so read-only."""
    rule = gauss_jacobi_rule(JacobiParams(alpha, beta), m)
    rule.weights.flags.writeable = False
    return rule


_PANEL_POINTS = 12  # Gauss points on each panel, of the theta mesh and between two zeros
_GRADING = 2.0  # geometric ratio of the panels stacked toward theta = 0 and pi
_GRADING_LEVELS = 36  # smallest graded panel is ~g^-36 of the core panel
_MAX_REFINE = 7  # mesh doublings before _converge gives up


def theta_mesh(degree: int = 0, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and d-theta weights on (0, pi) at the given refinement level.

    The core panel count resolves the oscillation of degree-`degree` Jacobi polynomials and doubles
    with each level; every panel takes the 12-point Gauss-Legendre rule of gauss_jacobi_rule.
    """
    panels_per_unit = max(4, math.ceil((degree + 8) / 5.0))
    n_core = max(4, math.ceil(panels_per_unit * (2**level) * math.pi))
    bp = np.linspace(0.0, math.pi, n_core + 1)
    graded = bp[1] * _GRADING ** (-np.arange(_GRADING_LEVELS, 0, -1, dtype=float))
    bp = np.concatenate([[0.0], graded, bp[1:-1], math.pi - graded[::-1], [math.pi]])
    rule = _reference_rule(0.0, 0.0, _PANEL_POINTS)
    lo, hi = bp[:-1], bp[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    theta = (mid[:, None] + half[:, None] * rule.nodes).ravel()
    w = (half[:, None] * rule.weights).ravel()
    return theta, w


def mu_theta_weight(params: JacobiParams, theta: np.ndarray) -> np.ndarray:
    """d mu / d theta after x = cos theta: 2^{a+b+1} sin(t/2)^{2a+1} cos(t/2)^{2b+1}."""
    a, b = params.alpha, params.beta
    return (
        2.0 ** (a + b + 1.0)
        * np.sin(theta / 2.0) ** (2.0 * a + 1.0)
        * np.cos(theta / 2.0) ** (2.0 * b + 1.0)
    )


# The end panels also hold the measure's endpoint powers. At large alpha (beta)
# and p their integrand is a narrow peak that a fixed rule can miss: 32 points
# were 21 % off at (alpha, p, n) = (150, 7.3, 400) and 64 points 23 % off at
# (beta, p, n) = (150, 20, 128). So their rule doubles from 32 points, up to
# 512, until the p-th power sum settles to its rounding floor (see below).
_END_PANEL_POINTS = 32
_END_PANEL_MAX = 512


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
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 or 0^-e, reported below
        roots = ((np.sin(t0 / 2.0) / (1.0 + s0)) ** ea * np.cos(t0 / 2.0) ** eb / (1.0 - s0),
                 np.sin(t1 / 2.0) ** ea * (np.sin(h1 * (1.0 - s1) / 2.0) / (1.0 - s1)) ** eb / (1.0 + s1))
    # with alpha or beta within rounding of -1, a node rounds onto the panel's end (s = -+1), or the
    # zero nearest it onto x = +-1 (an empty panel)
    for root, name, e, end in zip(roots, ("alpha", "beta"), (a, b), (1, -1)):
        if not np.isfinite(root).all():
            raise EvaluationError(f"end panel at x = {end} is singular: {name} = {e!r} is too close to -1")
    weights = np.concatenate([h0 * first.weights, h1 * last.weights])
    return np.concatenate([t0, t1]), np.concatenate(roots), weights


def _abs_on(f, pieces, even: bool) -> list:
    """|f(cos t)| on each piece of t, by one call of f. If even, every piece is mirror-symmetric
    about pi/2, with no node on it, and f is evaluated below pi/2 only."""
    halves = [t[: t.size // 2] if even else t for t in pieces]
    values = np.split(np.abs(np.asarray(f(np.cos(np.concatenate(halves))), dtype=float)),
                      np.cumsum([h.size for h in halves])[:-1])
    return [np.concatenate([v, v[::-1]]) for v in values] if even else values


def _pth_sum(v: np.ndarray, w: np.ndarray, p: float, out: np.ndarray | None = None):
    """Sum_k w_k |v_k|^p along the last axis of v, one sum per row of a 2-D v; |v|^p goes to out
    (v itself by default), so pass out to keep v.

    When 2p is an integer and 1 <= p <= 6, |v|^p comes from abs, one sqrt (if p is a half-integer)
    and products (_abs_pow): 1 to 4 passes of about 1 ns a point, against about 5 ns for np.power,
    and within 4 ulp of it (2 ulp up to p = 4, measured on 10^7 values); an overflow is inf all the
    same. This runs in pieces of at most _BLOCK points, with one piece of scratch: rows longer than
    _BLOCK in pieces of one row, shorter rows in slabs of _BLOCK // width of them. Other p take
    np.power, bit for bit.
    """
    out = v if out is None else out
    if not ((2.0 * p).is_integer() and 1.0 <= p <= 6.0):
        return np.power(np.abs(v, out=out), p, out=out) @ w
    src, dst = np.atleast_2d(v), np.atleast_2d(out)
    width = min(src.shape[1], _BLOCK) or 1
    slab = _BLOCK // width
    tmp = np.empty((min(slab, len(src)), width))
    for top in range(0, len(src), slab):
        for lo in range(0, src.shape[1], width):
            piece = (slice(top, top + slab), slice(lo, lo + width))
            part = dst[piece]
            _abs_pow(src[piece], p, part, tmp[: part.shape[0], : part.shape[1]])
    return out @ w


def _abs_pow(v: np.ndarray, p: float, s: np.ndarray, u: np.ndarray) -> None:
    """|v|^p into s (which may be v), for 2p an integer, 1 <= p <= 6, by binary powering (p = 3:
    |v| |v|^2; p = 2.5: |v|^2 sqrt|v|); u is scratch of s's size.

    The base |v|^(2^i) is squared in s, or in u once s keeps the product of the set bits; with a
    half in p, sqrt|v| starts that product in u. Either way the last product lands in s.
    """
    m, acc = int(p), None
    if p > m:
        acc = np.sqrt(np.abs(v, out=s), out=u)
    elif m % 2:
        np.abs(v, out=s)
    else:  # an even power: the first square drops the sign, with no abs pass
        np.multiply(v, v, out=s)
        m //= 2
    base = s
    while True:
        if m % 2:
            if acc is None:
                acc = s
            elif m == 1:
                np.multiply(s, u, out=s)
            else:
                np.multiply(acc, base, out=acc)
        m //= 2
        if not m:
            return
        if base is acc:
            base = np.multiply(s, s, out=u)
        else:
            np.multiply(base, base, out=base)


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
        inside = float(_pth_sum(g_in / top, w_in, p))
        end_coarse = float(_pth_sum(g_coarse / top, coarse[2], p))
        end_fine = float(_pth_sum(g_fine / top, fine[2], p))
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


def _converge(estimator, params: JacobiParams, degree: int, tol: float, keys, fold=False) -> dict:
    """Run estimator on successively doubled meshes until each quantity, named by one of `keys`, converges.

    estimator gets (theta, quadrature-times-measure weights, the keys still open, in the order of
    keys) and returns {key: scalar or vector estimate} for them; a quantity converges, and drops out,
    once the max relative change of its estimate between two levels is <= tol.
    If fold (alpha = beta, an even measure), the mesh is folded at pi/2: the estimator sees
    its half below pi/2, with weights (each node's, its mirror node's). Returns {key: converged
    value}; ConvergenceError names the first key still open and carries its last two estimates.
    """
    last, done = dict.fromkeys(keys, (None, None)), {}
    for level in range(_MAX_REFINE + 1):
        theta, w = theta_mesh(degree, level)
        w = w * mu_theta_weight(params, theta)
        if fold:  # at pi/2, where no node lies (12 points per panel)
            theta, w = theta[: theta.size // 2], np.stack([w, w[::-1]])[:, : theta.size // 2]
        for key, est in estimator(theta, w, tuple(k for k in keys if k not in done)).items():
            est = np.asarray(est, dtype=float)
            if not np.all(np.isfinite(est)):
                raise EvaluationError("integrand produced non-finite values")
            prev = last[key][1]
            last[key] = (prev, est)
            if prev is not None and np.max(np.abs(est - prev) / np.maximum(np.abs(est), 1e-300)) <= tol:
                done[key] = est if est.ndim else float(est)
        if len(done) == len(last):
            return done
    key = next(k for k in keys if k not in done)
    prev, est = last[key]
    i = np.argmax(np.abs(est - prev) / np.maximum(np.abs(est), 1e-300))  # the component that changed most
    raise ConvergenceError(
        f"quantity {key!r} did not converge to tol={tol:g} after {_MAX_REFINE} refinements; converged: {list(done)}",
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


def _family_pass(family, x: np.ndarray, coeffs: np.ndarray, comb: np.ndarray, sq, held, scales):
    """Add sum_j coeffs[i, j] P_{d_j} at x to comb[i], and sum_j (scales[j] P_{d_j})^2 to sq unless it
    is None.

    A generator: one jacobi_iter run per block of points, the family reduced within the
    block, so comb and sq run over the points of x only. If held (a flat buffer of N x W
    entries, N = len(family)) is given, blocks are W points wide, every row scales[j] P_{d_j} of a
    block is held in the buffer's first N x width entries, width = min(W, x.size), and (block, rows)
    is yielded after it; the caller may overwrite rows. Other blocks are _BLOCK points wide.
    jacobi_iter's lambda_n goes into each scalar factor.
    """
    hold = held is not None
    step = held.size // len(family) if hold else _BLOCK
    at: dict[int, list[int]] = {}
    for j, d in enumerate(family.degrees):
        at.setdefault(d, []).append(j)
    width = min(x.size, step)
    rows = held[: len(family) * width].reshape(len(family), width) if hold else np.empty((1, width))
    tmp = np.empty(width)
    for lo in range(0, x.size, step):
        block, m = slice(lo, lo + step), min(step, x.size - lo)
        parts, sq_part, t = comb[:, block], None if sq is None else sq[block], tmp[:m]
        for n, rn, ln in jacobi_iter(family.params, x[block], max(family.degrees)):
            for j in at.get(n, ()):
                for part, c in zip(parts, coeffs[:, j]):  # ascending n, as in jacobi_combination
                    if c:
                        part += np.multiply(rn, c * ln, out=t)
                if sq is not None or hold:
                    row = np.multiply(rn, scales[j] * ln, out=rows[j if hold else 0, :m])
                    if sq is not None:
                        sq_part += np.multiply(row, row, out=t)
        if hold:
            yield block, rows[:, :m]


_BOOTSTRAP = 200  # resamples behind the standard error of the Rademacher mean


def family_norms(family, p: float, tol: float = 1e-8, combos=(), square: bool = False,
                 samples: int | None = None, seed: int = 0, prefix=None) -> tuple:
    """Lp(mu) norms of quantities of one family f_j = s_j P_{d_j}, one recurrence pass per mesh level.

    family is a greedy.JacobiFamily (.params, .degrees, .scales s_j). Returns (norms of the combos,
    square, rademacher, prefix sums), each quantity computed under its key below:
    * i: || sum_j c_j f_j ||_p for the i-th coefficient vector c in combos, (c_j s_j) P_n
      added in ascending n as in jacobi.jacobi_combination;
    * "square", if square: || (sum_j f_j^2)^{1/2} ||_p, else None;
    * "rademacher", if samples is given (>= 1): the Rademacher average ( E_eps || sum_j eps_j f_j ||_p^p )^{1/p}
      over `samples` sign vectors, iid uniform on {-1, +1} and fixed by seed,
      with the bootstrap standard error of the estimate (0.0 if all resamples agree); else None;
    * "prefix", if prefix (coefficients c_j) is given: || sum_{i<=m} c_i f_i ||_p, m = 1..len(family)
      (the greedy partial sums of an expansion whose support the family lists in greedy order).
    Each converges on its own (_converge), at alpha = beta on a mesh folded at pi/2: even integrands
    (sum_j f_j^2, sums over one parity) take each node's weight plus its mirror's, and a sum over both
    parities, as even- and odd-degree parts e and o, |e + o|^p at a node and |e - o|^p at its mirror.
    Combinations and the square function are summed over the whole mesh, then integrated; the sign
    sums and the prefix sums are integrated block by block from the rows _family_pass holds.
    At p = 2, Parseval sums and no mesh. Memory: O(points) per quantity, and for the sign or prefix
    sums one buffer of N x W held rows for every level, W = min(_BLOCK, max(_BLOCK / 32, 128 _BLOCK
    / N)) points (32 MiB up to N = 4096 rows), plus samples x _BLOCK / 16 sign sums (4 MiB at 256).
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
    odd = np.array(family.degrees) % 2
    named = {"square": square, "prefix": prefix is not None, "rademacher": signs is not None}
    keys = [*range(k), *(key for key, wanted in named.items() if wanted)]
    held = None  # the N x W held rows of every level

    def estimator(theta, w, open_):
        nonlocal pth_powers, held
        sym = w[0] + w[1] if w.ndim == 2 else w  # w = (each node's weight, its mirror's) if folded
        mixed = w.ndim == 2 and 0 < odd.sum() < len(odd)  # then each sum is stacked as (e; o)
        split = (lambda a: np.concatenate([a * (1 - odd), a * odd])) if mixed else (lambda a: a)

        def pth(e, o=None, block=slice(None)):
            """Integral over the block of |e|^p per row of e, or (mixed) of |e + o|^p at each node and
            |e - o|^p at its mirror; e is overwritten."""
            if o is None:
                return _pth_sum(e, sym[block], p)
            return _pth_sum(e + o, w[0][block], p) + _pth_sum(np.subtract(e, o, out=e), w[1][block], p)

        live = [q for q in open_ if isinstance(q, int)]  # the combinations still open
        x, cs = np.cos(theta), split(coeffs[live])
        comb, sq = np.zeros((len(cs), x.size)), np.zeros(x.size) if "square" in open_ else None
        pre, rad = "prefix" in open_, "rademacher" in open_
        in_scales = pre and not rad and sq is None  # only the prefix sums read the rows: c_j goes into s_j
        acc = np.zeros(len(family))
        if rad:
            eps, pth_powers = split(signs), np.zeros(len(signs))  # the bootstrap reads the last level's
            sums = np.empty((len(eps), min(_BLOCK // 16, x.size)))
        if (pre or rad) and held is None:
            held = np.empty(len(family) * min(_BLOCK, max(_BLOCK // 32, 128 * _BLOCK // len(family))))
        scales = family.scales * prefix if in_scales else family.scales
        for block, rows in _family_pass(family, x, cs, comb, sq, held if pre or rad else None, scales):
            if rad:  # eps @ rows, summed over the block as |.|^p, sums.shape[1] columns at a time
                for lo in range(0, rows.shape[1], sums.shape[1]):
                    v = np.matmul(eps, rows[:, lo : lo + sums.shape[1]], out=sums[:, : rows.shape[1] - lo])
                    cols = slice(block.start + lo, block.start + lo + v.shape[1])
                    pth_powers += pth(*(np.split(v, 2) if mixed else [v]), block=cols)
            if pre:  # rows[i] = c_i f_i, then in place the prefix sums e + o, and e - o in one running row
                if not in_scales:
                    rows *= prefix[:, None]
                if mixed:
                    diff, t = np.zeros(rows.shape[1]), np.empty(rows.shape[1])
                for i, row in enumerate(rows):
                    if mixed:
                        (np.subtract if odd[i] else np.add)(diff, row, out=diff)
                        acc[i] += _pth_sum(diff, w[1][block], p, out=t)
                    if i:
                        row += rows[i - 1]
                acc += _pth_sum(rows, (w[0] if mixed else sym)[block], p)
        out = {q: pth(*comb[i::len(live)]) ** (1.0 / p) for i, q in enumerate(live)}  # comb[i], or (e, o) if mixed
        if sq is not None:
            out["square"] = _pth_sum(sq, sym, p / 2.0) ** (1.0 / p)
        if pre:
            out["prefix"] = acc ** (1.0 / p)
        if rad:
            out["rademacher"] = float(np.mean(pth_powers)) ** (1.0 / p)
        return out

    if p == 2.0:  # Parseval: || sum_j a_j P_{d_j} ||_2^2 = sum_n (sum_{d_j = n} a_j)^2 / d_n^2
        inv_d = 1.0 / np.array([orthonormal_const(params, n) for n in family.degrees])  # ||P_{d_j}||_2
        to_degree = np.equal.outer(family.degrees, sorted(set(family.degrees))) * inv_d[:, None]
        parseval = lambda a: np.sum((a @ to_degree) ** 2, axis=-1)
        values = {i: math.sqrt(v) for i, v in enumerate(parseval(coeffs))}
        if square:
            values["square"] = math.sqrt(np.sum((family.scales * inv_d) ** 2))
        if prefix is not None:
            partial = np.cumsum((prefix * family.scales)[:, None] * to_degree, axis=0)
            values["prefix"] = np.sqrt(np.sum(partial ** 2, axis=1))
        if signs is not None:
            pth_powers = parseval(signs * family.scales)
            values["rademacher"] = float(np.mean(pth_powers)) ** 0.5
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, here
            try:
                values = _converge(estimator, params, max(family.degrees), tol, keys, params.alpha == params.beta)
            except EvaluationError:  # the family's values, or their p-th powers, left the double range
                raise EvaluationError(
                    f"Jacobi recurrence overflowed on the mesh of degree {max(family.degrees)}"
                ) from None
    rademacher = None
    if signs is not None:
        idx = np.random.default_rng(boot_seed).integers(0, samples, size=(_BOOTSTRAP, samples))
        boots = np.mean(pth_powers[idx], axis=1) ** (1.0 / p)
        rademacher = (values["rademacher"], float(np.std(boots, ddof=1)) if np.ptp(boots) else 0.0)
    return tuple(values[i] for i in range(k)), values.get("square"), rademacher, values.get("prefix")


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
        return {"rows": total ** (1.0 / p)}

    return np.asarray(_converge(estimator, params, degree, tol, ("rows",))["rows"])
