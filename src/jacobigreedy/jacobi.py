"""Jacobi polynomials P_n^{(alpha,beta)}: stable evaluation, rescalings, asymptotics.

Conventions: P_n(1) = binom(n+alpha, n); the orthonormal family is
p_n = d_n * P_n with ||p_n||_{L2(mu)} = 1 for the measure
d mu(x) = (1-x)^alpha (1+x)^beta dx on (-1, 1).

One kernel, jacobi_iter, runs the recurrence in three in-place buffers that
each step overwrites; every evaluator feeds it blocks of at most _BLOCK points.
Each step is P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2}, with the three
coefficient ratios taken once as scalars, so no step divides a vector.
The zeros of P_n are the eigenvalues of the Jacobi matrix (Golub-Welsch):
jacobi_zeros gives all of them, cached per weight and degree, from a
half-size eigenproblem at alpha = beta; largest_root gives only the top one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np
from scipy.linalg import eigh_tridiagonal


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


def orthonormal_const(params: JacobiParams, n: int) -> float:
    """d_n with p_n = d_n P_n orthonormal in L2(mu); d_n ~ sqrt(n) for large n.

    Evaluated through log-gamma so large n does not overflow.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    a, b = params.alpha, params.beta
    if n == 0:
        # (a+b+1)*Gamma(a+b+1) collapses to Gamma(a+b+2), valid for all a+b > -2
        log_d2 = (
            math.lgamma(a + b + 2.0)
            - (a + b + 1.0) * math.log(2.0)
            - math.lgamma(a + 1.0)
            - math.lgamma(b + 1.0)
        )
    else:
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


def near_one_ratio_range(params: JacobiParams, n: int, d: float = 0.5) -> tuple[float, float]:
    """(min, max) of P_n(x)/n^alpha over 33 evenly spaced x in the near-one window."""
    lo, hi = near_one_window(n, d)
    xs = np.linspace(lo, hi, 33)
    vals = eval_P(params, n, xs) / float(n) ** params.alpha
    return float(vals.min()), float(vals.max())


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


@lru_cache(maxsize=64)
def jacobi_zeros(params: JacobiParams, n: int) -> np.ndarray:
    """The n zeros of P_n in ascending order, cached per (params, n) and read-only, as callers share them.

    At alpha != beta, the eigenvalues of the n x n Jacobi matrix J. At alpha = beta the diagonal of J
    is 0, so J^2 splits into a tridiagonal block on the even indices and one on the odd indices; the
    odd one, of size n // 2, holds each x_k^2 of a zero x_k > 0 once (the even one also holds 0 at odd
    n). So x_k = sqrt(lambda_k), mirrored, with an exact 0 in the middle at odd n. The root magnifies
    the rounding of lambda by 1/(2x), and near +-1 a zero one ulp off moves ||p_n||_p by 1e-12 (n = 1024),
    so one Newton step on P_n follows at every x_k, by (1 - x^2) P_n' = (n + alpha) P_{n-1} - n x P_n,
    kept wherever it is finite; it costs n steps of jacobi_iter on n // 2 points.
    """
    diag, off = jacobi_matrix(params, n)
    if params.alpha != params.beta or n == 1:
        zeros = eigh_tridiagonal(diag, off, eigvals_only=True)
    else:
        sq, m = off * off, n // 2
        block = sq[0 : 2 * m : 2]  # (J^2)_{ii} = off[i-1]^2 + off[i]^2 at odd i
        block[: (n - 1) // 2] += sq[1 : n - 1 : 2]
        x = np.sqrt(eigh_tridiagonal(block, off[1 : 2 * m - 1 : 2] * off[2 : 2 * m : 2], eigvals_only=True))
        with np.errstate(all="ignore"):
            for k, pk in jacobi_iter(params, x, n):
                if k == n - 1:
                    prev = pk.copy()
            newton = x - pk * (1.0 - x * x) / ((n + params.alpha) * prev - n * x * pk)
        x = np.where(np.isfinite(newton), newton, x)
        zeros = np.concatenate([-x[::-1], np.zeros(n % 2), x])
    zeros.flags.writeable = False
    return zeros


def largest_root(params: JacobiParams, n: int) -> float:
    """Largest root z_n of P_n (1 - z_n ~ n^{-2}): top eigenvalue of the Jacobi matrix, O(n)."""
    diag, off = jacobi_matrix(params, n)
    top = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(n - 1, n - 1))
    return float(top[0])
