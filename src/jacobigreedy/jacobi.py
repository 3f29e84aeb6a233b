"""Jacobi polynomials P_n^{(alpha,beta)}: stable evaluation, rescalings, asymptotics.

Conventions: P_n(1) = binom(n+alpha, n); the orthonormal family is
p_n = d_n * P_n with ||p_n||_{L2(mu)} = 1 for the measure
d mu(x) = (1-x)^alpha (1+x)^beta dx on (-1, 1).

One kernel, jacobi_iter, runs the recurrence in three in-place buffers that
each step overwrites; every evaluator feeds it blocks of at most _BLOCK points.
It is the three-term recurrence P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2}
rescaled (Gautschi, Orthogonal Polynomials: Computation and Approximation,
2004) to R_n = P_n / lambda_n with R_n = (A'_n x + B'_n) R_{n-1} - R_{n-2}:
its coefficients and lambda_n come from one scalar sweep, so a step makes
three in-place passes over the block (four when alpha != beta) and divides no
vector, and each caller folds lambda_n into the scalar it already multiplies by.
The zeros of P_n, the eigenvalues of the Jacobi matrix, need no eigenvalue
solver: Newton's method from asymptotic guesses (Hale & Townsend, SIAM J.
Sci. Comput. 35, 2013) takes its steps from the pivots of J - xI, the ratio
recurrence of the orthonormal p_k, which cannot overflow. By Laguerre's
bound a zero of P_n lies within (n + 1) |last step| of each, so disjoint
intervals certify all; only where two overlap do the pivots give a Sturm count
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967). jacobi_zeros gives all of them,
cached per weight and degree (the positive half only at alpha = beta);
largest_root gives the top one by scalar Newton from above.
eval_P_from_zeros evaluates P_n between its zeros by the Taylor series of its
differential equation about the nearest zero, after one recurrence pass at
those zeros in place of one at every point.
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
    if not (top := np.abs(x).max(initial=0.0)) <= 1.0 + 1e-12:  # the max carries a nan through
        raise DomainError(f"x must lie in [-1, 1], got max |x| = {top}")
    return x


def _degree(j) -> int:
    """j as an int degree >= 0, the one rule of every evaluator and family: numpy integers and integral
    floats such as 2.0 pass; a negative j, or any other value (1.5, nan, inf), where int() would
    truncate it to another degree, raises DomainError naming it."""
    try:
        d = int(j)
    except (OverflowError, ValueError):
        d = None
    if d != j:
        raise DomainError(f"degree {j!r} is not an integer")
    if d < 0:
        raise DomainError(f"degrees must be >= 0, got {d}")
    return d


# Points per evaluator block: the x block and three buffers (4 x 256 KiB) fit
# in L2 cache, and each ufunc call is long enough to hide Python overhead.
_BLOCK = 32768


def _scaled_coefficients(params: JacobiParams, nmax: int):
    """(A'_n, B'_n, lambda_n) of jacobi_iter's recurrence: A' and B' for n = 2..nmax, lambda for
    n = 0..nmax.

    P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2} becomes R_n = (A'_n x + B'_n) R_{n-1} - R_{n-2} for
    R_n = P_n / lambda_n, lambda_n = C_n lambda_{n-2}, A'_n = A_n lambda_{n-1} / lambda_n and B'_n
    likewise. lambda_0 and lambda_1 are the least powers of two that keep every lambda_n >= 1, so
    |R_n| <= |P_n| and R overflows no earlier than P; being powers of two, they change no bit of
    lambda_n R_n.
    """
    a, b = params.alpha, params.beta
    ab, n = a + b, np.arange(2.0, nmax + 1.0)
    # s - 2 and n - 1 + alpha as 2 (n - 1) + (alpha + beta) and (n - 1) + alpha, which are exact
    # where they are small (alpha, beta near -1), not 2 n + alpha + beta - 2
    s, s1, s2 = 2.0 * n + ab, (2.0 * n - 1.0) + ab, (2.0 * n - 2.0) + ab
    c1 = 2.0 * n * (n + ab) * s2
    lam = np.ones(nmax + 1)
    for k in range(min(nmax + 1, 2)):  # the even and the odd chain
        chain = lam[k::2]
        np.cumprod(2.0 * ((n[k::2] - 1.0) + a) * ((n[k::2] - 1.0) + b) * s[k::2] / c1[k::2], out=chain[1:])
        chain *= 2.0 ** max(0, 1 - math.frexp(chain.min())[1])
    ratio = lam[1:-1] / lam[2:]
    A, B = s1 * s, s1 * (a - b)  # then in place, as s1 s s2 / c1 ratio and s1 (a - b) ab / c1 ratio
    A *= s2
    B *= ab
    for v in (A, B):
        v /= c1
        v *= ratio
    return A, B, lam


def jacobi_iter(params: JacobiParams, x: np.ndarray, nmax: int) -> Iterator[tuple[int, np.ndarray, float]]:
    """Yield (n, R_n(x), lambda_n) with P_n = lambda_n R_n, for n = 0..nmax, by the forward
    three-term recurrence rescaled so that R_n = (A'_n x + B'_n) R_{n-1} - R_{n-2}
    (_scaled_coefficients): three in-place passes a step, four when alpha != beta.

    Three preallocated buffers of x's shape are updated in place: each
    yielded array is overwritten by the next step, so copy it to keep it.
    Callers fold lambda_n into the scalar they multiply R_n by.
    """
    a, b = params.alpha, params.beta
    A, B, lam = _scaled_coefficients(params, nmax)
    x = np.asarray(x, dtype=float)
    r_prev = np.full_like(x, 1.0 / lam[0])
    yield 0, r_prev, float(lam[0])
    if nmax == 0:
        return
    r_cur = np.multiply(x, 0.5 * (a + b + 2.0) / lam[1], out=np.empty_like(x))
    r_cur += 0.5 * (a - b) / lam[1]
    yield 1, r_cur, float(lam[1])
    r_next = np.empty_like(x)
    for lo in range(2, nmax + 1, 1024):  # the coefficients as Python floats, 1024 steps at a time
        hi = min(lo + 1024, nmax + 1)
        for n, an, bn, ln in zip(range(lo, hi), A[lo - 2:hi - 2].tolist(), B[lo - 2:hi - 2].tolist(),
                                 lam[lo:hi].tolist()):
            # one in-place pass per operation, and no B' pass when it is 0 (every alpha = beta)
            np.multiply(x, an, out=r_next)
            if bn:
                r_next += bn
            r_next *= r_cur
            r_next -= r_prev
            r_prev, r_cur, r_next = r_cur, r_next, r_prev
            yield n, r_cur, ln


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
    need not be sorted. No degrees give no rows.
    """
    return _rows(params, list(degrees), np.atleast_1d(_check_x(x)).ravel())


def _rows(params: JacobiParams, degrees: list, x: np.ndarray) -> np.ndarray:
    """eval_P_many on a checked, flat x."""
    want: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        want.setdefault(_degree(d), []).append(i)
    out = np.empty((len(degrees), x.size))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, below
        for block, steps in _blocks(params, x, max(want, default=0)):
            for n, rn, ln in steps:
                for i in want.get(n, ()):
                    np.multiply(rn, ln, out=out[i, block])
    if not np.isfinite(out).all():
        raise OverflowError("Jacobi recurrence overflowed")
    return out


def jacobi_combination(params: JacobiParams, coeffs: Mapping[int, float], x) -> np.ndarray:
    """Sum_{n} coeffs[n] * P_n(x), accumulated in one recurrence pass."""
    coeffs = {_degree(n): c for n, c in coeffs.items()}
    xv = np.atleast_1d(_check_x(x))
    acc = np.zeros(xv.size)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, below
        for block, steps in _blocks(params, xv.ravel(), max(coeffs, default=0)):
            part = acc[block]
            for n, rn, ln in steps:
                c = coeffs.get(n)
                if c:
                    part += (c * ln) * rn
    if not np.isfinite(acc).all():
        raise OverflowError("Jacobi combination overflowed")
    return acc.reshape(xv.shape)


def total_mass(params: JacobiParams) -> float:
    """Integral of d mu = 2^{alpha+beta+1} B(alpha+1, beta+1)."""
    a, b = params.alpha, params.beta
    return math.exp((a + b + 1.0) * math.log(2.0) + _log_beta(a + 1.0, b + 1.0))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0. Above 10 the lgamma terms, which grow like x log x, would cancel to a
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

    d_0 = total_mass^{-1/2}; for n >= 1, d_n^2 = (2n+alpha+beta+1) 2^{-(alpha+beta+1)}
    B(n+1, n+alpha+beta+1) / B(n+alpha+1, n+beta+1), in logs so large n does not overflow.
    """
    n = _degree(n)
    if n == 0:
        return total_mass(params) ** -0.5
    a, b = params.alpha, params.beta
    log_d2 = (math.log(2.0 * n + a + b + 1.0) - (a + b + 1.0) * math.log(2.0)
              + _log_beta(n + 1.0, n + a + b + 1.0) - _log_beta(n + a + 1.0, n + b + 1.0))
    return math.exp(0.5 * log_d2)


def darboux_amplitude(params: JacobiParams, theta) -> np.ndarray | float:
    """k(theta) = pi^{-1/2} sin(theta/2)^{-alpha-1/2} cos(theta/2)^{-beta-1/2}."""
    th = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):  # inf past the doubles (alpha or beta in the hundreds)
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
    n = _degree(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (math.isfinite(d) and d > 0):  # nan and inf pass d <= 0
        raise DomainError(f"d={d} must be finite and > 0")
    if d > 2 * n**2:  # the window would reach below x = -1
        raise DomainError(f"d={d:g} is wider than 2 n^2 = {2 * n**2} at n = {n}")
    return (1.0 - d / n**2, 1.0)


def jacobi_matrix(params: JacobiParams, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the m x m symmetric Jacobi matrix of the weight.

    It holds the recurrence of the orthonormal p_0..p_{m-1}; its eigenvalues
    are the zeros of P_m (Golub-Welsch).
    """
    m = _degree(m)
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


# Steps whose pivot signs _pivots holds before summing them into the count: 64 bytes a counted point, and one
# uint8 sum per 64 steps in place of an integer add at every step, which costs about as much as the step
_RING = 64


def _pivots(diag: list, off2: list, x: np.ndarray, count: bool = False):
    """Last pivot of the LDL^T factorisation of J - xI at every x, J the len(diag) Jacobi matrix.

    The pivots q_0 = diag[0] - x, q_k = diag[k] - x - off2[k-1] / q_{k-1} are the ratios
    -off[k] p_{k+1}(x) / p_k(x) of the orthonormal recurrence, so none overflows where P_n would
    (a zero pivot makes the next -inf and the one after finite again). With count, also the number
    of negative pivots at every x: by Sylvester's law of inertia, the number of zeros of
    P_len(diag) below x. A step is two ufunc calls when the diagonal is 0 (alpha = beta:
    diag[k] - x is then q_0 at every k), else three; the signs of the counted pivots go into a ring
    of _RING rows, summed once it is full.
    """
    y = -x
    q = y + diag[0]
    t, y0 = np.empty_like(q), None if any(diag) else q.copy()  # y0 = diag[k] - x at every k
    neg = (q < 0).astype(np.intp) if count else None
    ring = np.empty((_RING, q.size if count else 0), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(1, len(diag), _RING):
            for d, o, bits in zip(diag[lo:lo + _RING], off2[lo - 1:lo - 1 + _RING], ring):
                np.divide(o, q, out=t)
                if y0 is None:
                    np.add(y, d, out=q)
                    q -= t
                else:
                    np.subtract(y0, t, out=q)
                if count:
                    np.less(q, 0.0, out=bits)
            if count:
                neg += np.add.reduce(ring[:len(diag) - lo].view(np.uint8), axis=0, dtype=np.uint8)
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


# Newton passes over at most this many zeros take the scalar _pivot: a vector pass costs as much as 12 scalar
# ones at alpha = beta (two ufunc calls a step) and 18 otherwise (three), at n from 128 to 4096 (numpy 2.4, one
# core of an Intel Xeon)
_SCALAR_NEWTON = 12

# Added to the Laguerre radius (n + 1) |s| of a zero x with last Newton step s: Laguerre puts a zero of the matrix whose
# pivots were computed within n |s| of x + s, but that is J + E, not J. A pivot step rounds at most three times
# (d - x, o / q, their difference); dividing each computed pivot by its own two rounding factors leaves the exact
# recurrence with off2[k - 1] times four of them (Barth, Martin & Wilkinson), so E is 0 on the diagonal and
# |E[k, k + 1]| <= 2u off[k] <= 2u ||J|| <= 2u, u = 2^-53, as the zeros lie in (-1, 1). By Weyl, ||E|| <= 4u moves
# no zero further; with u for rounding x = (x + s) - s, 2^-48 = 32u leaves 27u for n |s| times the relative error of
# s itself (its rounding, and DLMF 18.9.16 read at a pivot of J + E), where _done holds |s| below about 2^-30.
_LAGUERRE_FLOOR = 2.0**-48


@lru_cache(maxsize=64)
def jacobi_zeros(params: JacobiParams, n: int) -> np.ndarray:
    """The n zeros of P_n in ascending order, cached per (params, n) and read-only, as callers share them.

    Newton's method from the interior asymptotic guesses (_zero_guesses), vectorised over the zeros,
    each step from the pivot recurrence of the Jacobi matrix (_pivots, _newton_step), O(n) per zero;
    a zero stops once its step is far below rounding (_done), and a pass over at most _SCALAR_NEWTON
    zeros takes the scalar _pivot, which gives the same bits. At alpha = beta only the n // 2 positive
    zeros are solved and mirrored, with an exact 0 in the middle at odd n. Some zero of P_n lies within
    (n + 1) |last step| + _LAGUERRE_FLOOR of each (Laguerre: some zero z has |x - z| <= n |P_n / P_n'|),
    so if these intervals are pairwise disjoint (and above 0 at alpha = beta), each holds one of the n
    simple zeros (n // 2 above 0). Only if two overlap, or a zero's Newton steps left its range or
    stopped shrinking, is a Sturm count (Barth, Martin & Wilkinson, Numer. Math. 9, 1967) taken at the
    midpoints between the converged zeros; a zero not alone between its two, or whose Laguerre margin
    leaves them, is found again by bisection on the count and Newton (_repair); one that cannot be
    certified raises RuntimeError.
    """
    diag, off = jacobi_matrix(params, n)
    n = diag.size
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
        if todo.size <= _SCALAR_NEWTON:
            q = np.array([_pivot(dl, o2, v)[0] for v in xs.tolist()])
        else:
            q = _pivots(dl, o2, xs)[0]
        s = _newton_step(params, n, xs, q)
        new = xs - s
        # a step that leaves the range, or is not below half the one before, gives the zero up to _repair;
        # an end zero may round to -1 or 1 when alpha or beta is near -1
        ok = (new > fence if even else new >= -1.0) & (new <= 1.0) & ~(np.abs(s) > 0.5 * step[todo])
        x[todo[ok]] = new[ok]
        step[todo] = np.where(ok, np.abs(s), np.inf)
        todo = todo[ok & ~_done(params, n, new, s)]
    r = (n + 1.0) * step + _LAGUERRE_FLOOR  # each zero's radius; inf where Newton gave up, which fails both tests
    if not ((x[:-1] + r[:-1] < x[1:] - r[1:]).all() and (x[0] - r[0] > fence or not even)):  # else all certified
        for _ in range(3):  # a repaired zero passes the second count
            order = np.argsort(x, kind="stable")
            x, step = x[order], step[order]
            probes = 0.5 * (np.concatenate([[fence], x[:-1]]) + x)
            counts = _pivots(dl, o2, probes, count=True)[1]
            edges = np.append(probes, np.inf)  # the interval of each zero; no zero lies at or above 1
            if not even:  # nor at or below -1, where a rounded J may count one when beta is near -1
                probes[0], counts[0], edges[0] = fence, below, -np.inf
            bad = (counts != want) | (np.append(counts[1:], n) != want + 1)
            bad |= ~((n + 1.0) * step < np.minimum(x - edges[:-1], edges[1:] - x))
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


# Below this degree the series' fixed cost (about 25 terms, each a few passes over the zeros and the
# points) exceeds the recurrence work it saves; in lp_norm_between_zeros they break even near n = 190 to 300
_SERIES_MIN_DEGREE = 256


def eval_P_from_zeros(params: JacobiParams, n: int, x) -> np.ndarray:
    """P_n(x) at a flat x from the zeros z of P_n (jacobi_zeros), by the Taylor series in h = x - z of
    its differential equation (1 - x^2) y'' + v(x) y' + lam y = 0, v(x) = beta - alpha - (alpha + beta
    + 2) x, lam = n (n + alpha + beta + 1) (Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 2007):
    (1 - z^2)(k + 2)(k + 1) a_{k+2} = (2zk - v(z))(k + 1) a_{k+1} + (k(k - 1) + (alpha + beta + 2) k - lam) a_k,
    a_0 = P_n(z), the residual at the rounded zero, and a_1 = P_n'(z) by DLMF 18.9.16,
    s (1 - z^2) P_n' = n (alpha - beta - s z) P_n + 2 (n + alpha) (n + beta) P_{n-1}, s = 2n + alpha + beta.
    One search over x finds each nearest zero z; the series serves x if |h| (1 + max(alpha, beta, 0)) <
    (1 - |z|)/4, and one eval_P_many pass gives P_n and P_{n-1} at the zeros it serves and P_n at every
    other x. The terms are c_k = a_k H^k / (|a_1| H), H the farthest the series reaches from z, so none
    overflows where P_n is finite; they run until two fall below the rounding of c_1 = +-1 (none is left
    past k = n) and are summed by Horner in h / H; only these two steps run in blocks of _BLOCK / 8
    points of x, each block with the terms of the zeros it reaches. Below _SERIES_MIN_DEGREE, eval_P's.
    """
    x, n = np.atleast_1d(_check_x(x)).ravel(), _degree(n)
    if n < _SERIES_MIN_DEGREE:
        return eval_P_many(params, [n], x)[0]
    a, b = params.alpha, params.beta
    z = jacobi_zeros(params, n)
    mid, reach = 0.5 * (z[:-1] + z[1:]), (1.0 - np.abs(z)) / (4.0 * (1.0 + max(a, b, 0.0)))
    near = np.searchsorted(mid, x)
    safe = np.abs(x - z[near]) < reach[near]
    centers = np.flatnonzero(np.bincount(near[safe], minlength=n))
    pn, pn1 = eval_P_many(params, [n, n - 1], np.concatenate([z[centers], x[~safe]]))
    gap = np.concatenate([[np.inf], 0.5 * np.diff(z), [np.inf]])  # half the distance to each neighbour
    H = np.minimum(reach, np.maximum(gap[:-1], gap[1:]))
    s, a0, a1 = 2.0 * n + a + b, np.zeros(n), np.zeros(n)  # a_0 and a_1, at the centers only
    a0[centers], a1[centers] = pn[: centers.size], pn1[: centers.size]
    with np.errstate(divide="ignore", invalid="ignore"):  # at an end zero that rounds to +-1, which serves no x
        a1 = (n * (a - b - s * z) * a0 + 2.0 * (n + a) * (n + b) * a1) / (s * (1.0 - z) * (1.0 + z))
        hw = H / ((1.0 - z) * (1.0 + z))
    # c_{k+2} = ((k g - vh) c_{k+1} + (mu_k / (k + 1)) hh c_k) / (k + 2), mu_k = k (k - 1) + (a + b + 2) k - lam
    scale = np.abs(a1) * H
    g, vh, hh = 2.0 * z * hw, (b - a - (a + b + 2.0) * z) * hw, H * hw
    lam, tiny = n * (n + a + b + 1.0), np.finfo(float).eps / 4.0
    out = np.empty(x.size)
    out[~safe] = pn[centers.size:]
    for lo in range(0, x.size, _BLOCK // 8):
        block = slice(lo, lo + _BLOCK // 8)
        keep = safe[block]
        at = near[block][keep]
        zs, idx = np.unique(at, return_inverse=True)  # the zeros this block expands about
        c, top, gz, vz, hz = [a0[zs] / scale[zs], np.sign(a1[zs])], 1.0, g[zs], vh[zs], hh[zs]
        for k in range(n - 1):
            nxt = np.multiply(gz, k)
            nxt -= vz
            nxt *= c[k + 1]
            nxt += ((k * (k - 1.0) + (a + b + 2.0) * k - lam) / (k + 1.0)) * hz * c[k]
            nxt /= k + 2.0
            c.append(nxt)
            last, top = top, np.abs(nxt).max(initial=0.0)
            if max(last, top) <= tiny:
                break
        u = (x[block][keep] - z[at]) / H[at]
        y, tmp = np.take(c[-1], idx), np.empty(idx.size)
        for ck in reversed(c[:-1]):
            y *= u
            y += np.take(ck, idx, out=tmp)
        out[block][keep] = y * scale[at]
    return out


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
    n = diag.size
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
