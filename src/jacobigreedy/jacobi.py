"""Jacobi polynomials P_n^{(alpha,beta)}: stable evaluation, rescalings, asymptotics.

Conventions: P_n(1) = binom(n+alpha, n); the orthonormal family is
p_n = d_n * P_n with ||p_n||_{L2(mu)} = 1 for the measure
d mu(x) = (1-x)^alpha (1+x)^beta dx on (-1, 1).

One kernel, jacobi_iter, runs the recurrence in three in-place buffers that
each step overwrites; every evaluator feeds it blocks of at most _BLOCK points.
Each step is P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2}, with the three
coefficient ratios taken once as scalars, so no step divides a vector.
The zeros of P_n, the eigenvalues of the Jacobi matrix, need no eigenvalue
solver: Newton's method from asymptotic guesses (Hale & Townsend, SIAM J.
Sci. Comput. 35, 2013) takes its steps from the pivots of J - xI, the ratio
recurrence of the orthonormal p_k, which cannot overflow, and the same
pivots give a Sturm count that certifies every zero. jacobi_zeros gives all
of them, cached per weight and degree (the positive half only at alpha =
beta); largest_root gives the top one by scalar Newton from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents (alpha, beta), both > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (a > -1.0 and b > -1.0):
            raise DomainError(f"need alpha > -1 and beta > -1, got ({a}, {b})")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def gamma(self) -> float:
        return max(self.alpha, self.beta)

    @property
    def half_range_ok(self) -> bool:
        """True when min(alpha, beta) > -1/2 (the range where the basis theory applies)."""
        return min(self.alpha, self.beta) > -0.5


@dataclass(frozen=True)
class NormalizationMode:
    """How basis elements are scaled: orthonormal p_n, sqrt(n)*P_n, or Lp-normalized.

    The sqrt-scaled family takes the constant function 1 as its 0-term.
    """

    tag: str  # "orthonormal" | "sqrt-scaled" | "lp"
    p: float | None = None

    _TAGS = ("orthonormal", "sqrt-scaled", "lp")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown normalization tag {self.tag!r}")
        if self.tag == "lp":
            if self.p is None or not (1.0 <= self.p < math.inf):
                raise ValueError("lp normalization needs 1 <= p < inf")
        elif self.p is not None:
            raise ValueError(f"{self.tag!r} mode takes no p")

    @classmethod
    def orthonormal(cls) -> "NormalizationMode":
        return cls("orthonormal")

    @classmethod
    def sqrt_scaled(cls) -> "NormalizationMode":
        return cls("sqrt-scaled")

    @classmethod
    def lp_normalized(cls, p: float) -> "NormalizationMode":
        return cls("lp", float(p))


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.abs(x).max(initial=0.0) > 1.0 + 1e-12:
        raise DomainError("x outside [-1, 1]")
    return x


# Points per evaluator block: the x block and three buffers (4 x 256 KiB) fit
# in L2 cache, and each ufunc call is long enough to hide Python overhead.
_BLOCK = 32768


def jacobi_iter(params: JacobiParams, x: np.ndarray, nmax: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, P_n(x)) for n = 0..nmax by the forward three-term recurrence.

    Three preallocated buffers of x's shape are updated in place: each
    yielded array is overwritten by the next step, so copy it to keep it.
    """
    a, b = params.alpha, params.beta
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    yield 0, p_prev
    if nmax == 0:
        return
    p_cur = np.multiply(x, 0.5 * (a + b + 2.0), out=np.empty_like(x))
    p_cur += 0.5 * (a - b)
    yield 1, p_cur
    p_next = np.empty_like(x)
    for n in range(2, nmax + 1):
        s = 2.0 * n + a + b
        c1 = 2.0 * n * (n + a + b) * (s - 2.0)
        c2 = (s - 1.0) * (a * a - b * b)
        c3 = (s - 1.0) * s * (s - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * s
        # (A x + B) p_cur - C p_prev with A, B, C = c3, c2, c4 over c1: scalar
        # divides only, one in-place pass per operation, and no B pass when
        # c2 = 0 (every alpha = beta)
        np.multiply(x, c3 / c1, out=p_next)
        if c2:
            p_next += c2 / c1
        p_next *= p_cur
        p_prev *= c4 / c1
        p_next -= p_prev
        p_prev, p_cur, p_next = p_cur, p_next, p_prev
        yield n, p_cur


def _blocks(params: JacobiParams, x: np.ndarray, nmax: int):
    """(slice, jacobi_iter over x[slice]) for consecutive blocks of a flat x."""
    for lo in range(0, x.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        yield block, jacobi_iter(params, x[block], nmax)


def eval_P(params: JacobiParams, n: int, x) -> float | np.ndarray:
    """P_n^{(alpha,beta)}(x), normalized so P_n(1) = binom(n+alpha, n)."""
    xv = _check_x(x)
    out = _rows(params, [n], xv.ravel())[0]
    return float(out[0]) if xv.ndim == 0 else out.reshape(xv.shape)


def eval_P_many(params: JacobiParams, degrees, x) -> np.ndarray:
    """Stack P_n(x) for the requested degrees: shape (len(degrees), len(x)).

    One pass of the recurrence up to max(degrees); degrees may repeat and
    need not be sorted.
    """
    return _rows(params, list(degrees), np.atleast_1d(_check_x(x)).ravel())


def _rows(params: JacobiParams, degrees: list, x: np.ndarray) -> np.ndarray:
    """eval_P_many on a checked, flat x."""
    want: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        if d < 0:
            raise DomainError("degrees must be >= 0")
        want.setdefault(int(d), []).append(i)
    out = np.empty((len(degrees), x.size))
    for block, steps in _blocks(params, x, max(want)):
        for n, pn in steps:
            for i in want.get(n, ()):
                out[i, block] = pn
    if not np.isfinite(out).all():
        raise OverflowError("Jacobi recurrence overflowed")
    return out


def jacobi_combination(params: JacobiParams, coeffs: Mapping[int, float], x) -> np.ndarray:
    """Sum_{n} coeffs[n] * P_n(x), accumulated in one recurrence pass."""
    xv = np.atleast_1d(_check_x(x))
    acc = np.zeros(xv.size)
    for block, steps in _blocks(params, xv.ravel(), max(coeffs, default=0)):
        part = acc[block]
        for n, pn in steps:
            c = coeffs.get(n)
            if c:
                part += c * pn
    if not np.isfinite(acc).all():
        raise OverflowError("Jacobi combination overflowed")
    return acc.reshape(xv.shape)


def total_mass(params: JacobiParams) -> float:
    """Integral of d mu = 2^{alpha+beta+1} B(alpha+1, beta+1)."""
    a, b = params.alpha, params.beta
    return math.exp((a + b + 1.0) * math.log(2.0) + _log_beta(a + 1.0, b + 1.0))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0. Above 10 the lgamma terms, each up to ~2300, would cancel to a
    far smaller sum, so there they are split (as in R's lbeta) into closed logarithms and the
    remainders of Stirling's series, which are small."""
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    corr = _stirling_rest(q) - _stirling_rest(p + q)
    if p < 10.0:
        return math.lgamma(p) + corr + p - p * math.log(p + q) + (q - 0.5) * math.log1p(-p / (p + q))
    return (0.5 * math.log(2.0 * math.pi / q) + _stirling_rest(p) + corr
            + (p - 0.5) * math.log(p / (p + q)) + q * math.log1p(-p / (p + q)))


def _stirling_rest(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi)/2) for x >= 10, by Stirling's series to below 1e-17."""
    t = 1.0 / (x * x)
    return (1.0 / 12 - t * (1.0 / 360 - t * (1.0 / 1260 - t * (1.0 / 1680 - t * (1.0 / 1188 - t * (
        691.0 / 360360 - t * (1.0 / 156 - t * 3617.0 / 122400))))))) / x


def orthonormal_const(params: JacobiParams, n: int) -> float:
    """d_n with p_n = d_n P_n orthonormal in L2(mu); d_n ~ sqrt(n) for large n.

    d_0 = total_mass^{-1/2}; the others are evaluated through log-gamma so
    large n does not overflow.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return total_mass(params) ** -0.5
    a, b = params.alpha, params.beta
    log_d2 = (
        math.log(2.0 * n + a + b + 1.0)
        + math.lgamma(n + 1.0)
        + math.lgamma(n + a + b + 1.0)
        - (a + b + 1.0) * math.log(2.0)
        - math.lgamma(n + a + 1.0)
        - math.lgamma(n + b + 1.0)
    )
    return math.exp(0.5 * log_d2)


def darboux_amplitude(params: JacobiParams, theta) -> np.ndarray | float:
    """k(theta) = pi^{-1/2} sin(theta/2)^{-alpha-1/2} cos(theta/2)^{-beta-1/2}."""
    th = np.asarray(theta, dtype=float)
    k = (
        math.pi ** -0.5
        * np.sin(th / 2.0) ** (-params.alpha - 0.5)
        * np.cos(th / 2.0) ** (-params.beta - 0.5)
    )
    return float(k) if k.ndim == 0 else k


def darboux_phase(params: JacobiParams, theta) -> np.ndarray | float:
    """phi(theta) = (alpha+beta+1) theta/2 - (2 alpha+1) pi/4."""
    th = np.asarray(theta, dtype=float)
    phi = (params.alpha + params.beta + 1.0) * th / 2.0 - (2.0 * params.alpha + 1.0) * math.pi / 4.0
    return float(phi) if phi.ndim == 0 else phi


def near_one_window(n: int, d: float = 0.5) -> tuple[float, float]:
    """The interval [1 - d/n^2, 1] where P_n(x) stays comparable to n^alpha."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (math.isfinite(d) and d > 0):  # nan and inf pass d <= 0
        raise DomainError(f"d={d} must be finite and > 0")
    return (1.0 - d / n**2, 1.0)


def jacobi_matrix(params: JacobiParams, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the m x m symmetric Jacobi matrix of the weight.

    It holds the recurrence of the orthonormal p_0..p_{m-1}; its eigenvalues
    are the zeros of P_m (Golub-Welsch).
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    a, b = params.alpha, params.beta
    k = np.arange(m, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off2 = np.empty(m - 1)
    off2[:1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    kk, sk = k[2:], s[2:]
    off2[1:] = 4.0 * kk * (kk + a) * (kk + b) * (kk + a + b) / (sk**2 * (sk + 1.0) * (sk - 1.0))
    return diag, np.sqrt(off2)


def _pivots(diag: list, off2: list, x: np.ndarray, count: bool = False):
    """Last pivot of the LDL^T factorisation of J - xI at every x, J the len(diag) Jacobi matrix.

    The pivots q_0 = diag[0] - x, q_k = diag[k] - x - off2[k-1] / q_{k-1} are the ratios
    -off[k] p_{k+1}(x) / p_k(x) of the orthonormal recurrence, so none overflows where P_n would
    (a zero pivot makes the next -inf and the one after finite again). With count, also the number
    of negative pivots: by Sylvester's law of inertia, the number of zeros of P_len(diag) below x.
    """
    y = -x
    q = y + diag[0]
    t = np.empty_like(q)
    neg = (q < 0).astype(np.intp) if count else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for d, o in zip(diag[1:], off2):
            np.divide(o, q, out=t)
            np.add(y, d, out=q)
            q -= t
            if count:
                neg += q < 0
    return q, neg


def _newton_step(params: JacobiParams, n: int, x, q):
    """P_n(x) / P_n'(x) from the last pivot q of J_n - xI, as P_n / P_{n-1} = -q k_n / k_{n-1}
    (k_n the leading coefficient of P_n), and (DLMF 18.9.16)
    s (1 - x^2) P_n' = n (alpha - beta - s x) P_n + 2 (n + alpha) (n + beta) P_{n-1}, s = 2n + alpha + beta."""
    a, b = params.alpha, params.beta
    s = 2.0 * n + a + b
    ratio = q * (-s * (s - 1.0) / (2.0 * n * (n + a + b)))
    with np.errstate(all="ignore"):
        return (1.0 - x) * (1.0 + x) * s * ratio / (n * (a - b - s * x) * ratio + 2.0 * (n + a) * (n + b))


def _done(params: JacobiParams, n: int, x, step):
    """True where a Newton step leaves an error far below rounding: step^2 <= 2^-60 g, g a lower
    estimate of the spacing of the zeros near x (about pi / rho apart in theta = arccos x)."""
    h = math.pi / (n + 0.5 * (params.alpha + params.beta + 1.0))
    gap = 0.5 * h * (np.sqrt(np.maximum((1.0 - x) * (1.0 + x), 0.0)) + h)
    return np.abs(step) <= 2.0**-30 * np.sqrt(gap)


def _zero_guesses(params: JacobiParams, n: int, m: int) -> np.ndarray:
    """The m largest zeros of P_n by the interior asymptotics (Gatteschi-Pittaluga; Szego 8.9),
    ascending: theta_k = phi_k + ((1/4 - alpha^2) cot(phi_k/2) - (1/4 - beta^2) tan(phi_k/2)) / (4 rho^2),
    phi_k = (k + alpha/2 - 1/4) pi / rho, rho = n + (alpha + beta + 1)/2."""
    a, b = params.alpha, params.beta
    rho = n + 0.5 * (a + b + 1.0)
    phi = (np.arange(m, 0, -1) + 0.5 * a - 0.25) * (math.pi / rho)
    theta = phi + ((0.25 - a * a) / np.tan(0.5 * phi) - (0.25 - b * b) * np.tan(0.5 * phi)) / (4.0 * rho * rho)
    return np.cos(np.clip(theta, 0.0, math.pi))


@lru_cache(maxsize=64)
def jacobi_zeros(params: JacobiParams, n: int) -> np.ndarray:
    """The n zeros of P_n in ascending order, cached per (params, n) and read-only, as callers share them.

    Newton's method from the interior asymptotic guesses (_zero_guesses), vectorised over the zeros,
    each step from the pivot recurrence of the Jacobi matrix (_pivots, _newton_step), O(n) per zero;
    a zero stops once its step is far below rounding (_done). At alpha = beta only the n // 2 positive
    zeros are solved and mirrored, with an exact 0 in the middle at odd n. One Sturm count at the
    midpoints between neighbouring zeros then certifies each: its interval holds exactly one zero of
    P_n, within (n + 1) |last step| of it (Laguerre: some zero z has |x - z| <= n |P_n / P_n'|). A zero
    that fails, or whose Newton steps left its range or stopped shrinking, is found again by bisection
    on the count and Newton (_repair); one that cannot be certified raises RuntimeError.
    """
    diag, off = jacobi_matrix(params, n)
    if n == 1:
        diag.flags.writeable = False
        return diag
    even = params.alpha == params.beta
    m = n // 2 if even else n
    dl, o2 = diag.tolist(), (off * off).tolist()
    fence, below = (0.0, n // 2) if even else (-1.0, 0)  # lower end of the solved zeros, zeros under it
    want = n - m + np.arange(m)  # index of each solved zero among all n
    x = _zero_guesses(params, n, m)
    step = np.full(m, np.inf)  # last Newton step of each zero; inf where Newton gave up
    todo = np.arange(m)
    while todo.size:
        xs = x[todo]
        s = _newton_step(params, n, xs, _pivots(dl, o2, xs)[0])
        new = xs - s
        # a step that leaves the range, or is not below half the one before, gives the zero up to _repair;
        # an end zero may round to -1 or 1 when alpha or beta is near -1
        ok = (new > fence if even else new >= -1.0) & (new <= 1.0) & ~(np.abs(s) > 0.5 * step[todo])
        x[todo[ok]] = new[ok]
        step[todo] = np.where(ok, np.abs(s), np.inf)
        todo = todo[ok & ~_done(params, n, new, s)]
    for _ in range(3):  # a repaired zero passes the second count
        order = np.argsort(x, kind="stable")
        x, step = x[order], step[order]
        probes = 0.5 * (np.concatenate([[fence], x[:-1]]) + x)
        counts = _pivots(dl, o2, probes, count=True)[1]
        edges = np.append(probes, np.inf)  # the interval of each zero; no zero lies at or above 1
        if not even:  # nor at or below -1, where a rounded J may count one when beta is near -1
            probes[0], counts[0], edges[0] = fence, below, -np.inf
        bad = (counts != want) | (np.append(counts[1:], n) != want + 1)
        bad |= ~((n + 1.0) * np.abs(step) < np.minimum(x - edges[:-1], edges[1:] - x))
        if not bad.any():
            break
        # a probe next to a failed zero may lie on a zero, which would hold Newton to bisection there
        clean = ~bad & np.append(True, ~bad[:-1])
        x[bad], step[bad] = _repair(params, n, dl, o2, want[bad], np.concatenate([[fence], probes[clean], [1.0]]),
                                    np.concatenate([[below], counts[clean], [n]]))
    else:
        raise RuntimeError(f"zeros of P_{n} at {params} could not be certified")
    zeros = np.concatenate([-x[::-1], np.zeros(n % 2), x]) if even else x
    zeros.flags.writeable = False
    return zeros


def _repair(params: JacobiParams, n: int, dl: list, o2: list, want, points, counts):
    """The zeros of index `want`, from the probes `points` (ascending, from the fence to 1) and their
    Sturm counts; returns them and their last steps. Each pass adds one probe per zero: the Newton
    step from its last probe if the zero is alone between the two probes around it and the step stays
    between them and is below half the one before, as in jacobi_zeros; else their midpoint, bisecting
    on the count. So a step that shrinks slowly, as from beyond an end zero, gives way to bisection."""
    out, step = np.empty(want.size), np.full(want.size, np.inf)
    todo, new, s, shrank = np.arange(want.size), np.full(want.size, np.nan), np.full(want.size, np.inf), True
    for _ in range(100):
        k = np.clip(np.searchsorted(counts, want, side="right"), 1, counts.size - 1)  # clipped against a broken count
        lo, hi, clo, chi = points[k - 1], points[k], counts[k - 1], counts[k]
        newton = (clo == want) & (chi == want + 1) & (lo <= new) & (new <= hi) & shrank
        done = newton & _done(params, n, new, s)
        out[todo[done]], step[todo[done]] = new[done], s[done]
        todo, want, new, newton, lo, hi, s = (v[~done] for v in (todo, want, new, newton, lo, hi, s))
        if not todo.size:
            return out, step
        x = np.where(newton, new, 0.5 * (lo + hi))
        q, c = _pivots(dl, o2, x, count=True)
        t = _newton_step(params, n, x, q)
        new, s, shrank = x - t, t, ~(np.abs(t) > 0.5 * np.abs(s))
        order = np.argsort(np.concatenate([points, x]), kind="stable")
        points, counts = np.concatenate([points, x])[order], np.concatenate([counts, c])[order]
    raise RuntimeError(f"zeros of P_{n} at {params} could not be isolated")


def largest_root(params: JacobiParams, n: int) -> float:
    """Largest root z_n of P_n (1 - z_n ~ n^{-2}): Newton's method from above, O(n) per step.

    It starts at theta = arccos x = j / rho, j a lower bound of the first zero of the Bessel function
    J_alpha (the larger of Ismail-Muldoon's sqrt((alpha + 1)(alpha + 5)) and Qu-Wong's
    alpha + 2.3381 (alpha / 2)^{1/3}), rho = n + (alpha + beta + 1)/2, halving theta until every pivot
    of J - xI is negative, i.e. x lies above every zero, or x is 1, to which the top zero then rounds.
    Every zero is real, so P_n is convex above them and the steps fall to the top zero monotonically;
    each comes from the scalar pivot recurrence.
    """
    diag, off = jacobi_matrix(params, n)
    if n == 1:
        return float(diag[0])
    a, b = params.alpha, params.beta
    j = max(math.sqrt((a + 1.0) * (a + 5.0)), a + 2.3381 * (max(a, 0.0) / 2.0) ** (1.0 / 3.0))
    theta = j / (n + 0.5 * (a + b + 1.0))
    dl, o2 = diag.tolist(), (off * off).tolist()
    while True:
        x = math.cos(min(theta, math.pi))
        q, neg = _pivot(dl, o2, x)
        if neg == n:
            break
        if x == 1.0:  # the top zero rounds to 1 (alpha near -1)
            return x
        theta *= 0.5
    for _ in range(100):
        s = float(_newton_step(params, n, np.float64(x), q))
        x -= s
        if not s > 0.0 or _done(params, n, x, s):
            return x
        q = _pivot(dl, o2, x)[0]
    raise RuntimeError(f"largest root of P_{n} at {params} did not converge")


def _pivot(dl: list, o2: list, x: float) -> tuple[float, int]:
    """_pivots at one x, with its count, in Python floats: the same operations, so the same pivots."""
    q = dl[0] - x
    neg = int(q < 0.0)
    for d, o in zip(dl[1:], o2):
        q = d - x - (o / q if q else math.inf)
        neg += q < 0.0
    return q, neg
