"""Thresholding greedy machinery for finitely supported Jacobi expansions.

Greedy ordering (largest |coefficient| first, ties broken by the natural
degree order), the m-term greedy operator, quasi-greedy and constant-
coefficient sign ratios, and democracy-function estimates over witness
families of index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .jacobi import (
    JacobiParams,
    NormalizationMode,
    _degree,
    eval_P_from_zeros,
    eval_P_many,
    jacobi_combination,
    jacobi_zeros,
    orthonormal_const,
)
from .quadrature import family_norms, lp_norm_between_zeros, total_mass


@lru_cache(maxsize=4096)
def _orthonormal_lp_norm(alpha: float, beta: float, p: float, n: int) -> float:
    """||p_n||_{Lp(mu)}, cached; backend for the Lp-normalized mode. Exactly 1 at p = 2.

    p_0 = d_0 is constant, so ||p_0||_p = d_0 mass^{1/p}. For n >= 1 the panels
    between the zeros of P_n (jacobi.jacobi_zeros, solved once for every p;
    quadrature.lp_norm_between_zeros) give the norm to 1e-12 relative up to
    n = 256; at n = 2048, 1e-10 (3e-11 at alpha = beta), the rounding of
    x = cos(theta) near the ends. Measured at p = 4 and 6 against exact Gauss
    rules, for alpha and beta from -0.45 to 150. P_n on the panels comes from
    those zeros (jacobi.eval_P_from_zeros): a Taylor series about each zero,
    after one recurrence pass at the zeros and the points near +-1, not one at
    all 12 n points; its error is the recurrence's to one significant digit.
    """
    if p == 2.0:
        return 1.0
    params = JacobiParams(alpha, beta)
    dn = orthonormal_const(params, n)
    if n == 0:
        return dn * total_mass(params) ** (1.0 / p)
    return lp_norm_between_zeros(lambda x: dn * eval_P_from_zeros(params, n, x), params, p,
                                 jacobi_zeros(params, n), even=alpha == beta)


def basis_scales(params: JacobiParams, mode: NormalizationMode, degrees: Sequence[int]) -> np.ndarray:
    """Multipliers s_n (basis element = s_n * P_n) for each requested degree.

    orthonormal: d_n; sqrt-scaled: sqrt(n), and 1 at n = 0; lp: d_n / ||p_n||_p.
    """
    if mode.tag == "sqrt-scaled":
        return np.array([math.sqrt(n) if n >= 1 else 1.0 for n in degrees])
    scales = np.array([orthonormal_const(params, n) for n in degrees])
    if mode.tag == "lp":
        scales /= [_orthonormal_lp_norm(params.alpha, params.beta, mode.p, n) for n in degrees]
    return scales


class JacobiFamily:
    """A finite family of basis elements with one-pass batch evaluation.

    The quadrature module's family norms read .params, .degrees and .scales,
    also for every expansion norm (the family over the expansion's support);
    .values(x) returns the matrix of element values, rows in `degrees` order.
    """

    def __init__(self, params: JacobiParams, mode: NormalizationMode, degrees: Sequence[int]):
        self.params = params
        self.mode = mode
        self.degrees = tuple(_degree(d) for d in degrees)
        if not self.degrees:
            raise ValueError("degrees must be nonempty")
        self.scales = basis_scales(params, mode, self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def values(self, x) -> np.ndarray:
        rows = eval_P_many(self.params, self.degrees, x)
        return self.scales[:, None] * rows


@dataclass(frozen=True)
class Expansion:
    """Finitely supported coefficient family over basis indices."""

    params: JacobiParams
    mode: NormalizationMode
    coeffs: Mapping[int, float]

    def __post_init__(self):
        clean = {_degree(j): float(c) for j, c in self.coeffs.items() if c != 0.0}
        object.__setattr__(self, "coeffs", clean)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def evaluate(self, x) -> np.ndarray:
        scaled = zip(self.support, basis_scales(self.params, self.mode, self.support))
        return jacobi_combination(self.params, {j: self.coeffs[j] * s for j, s in scaled}, x)


@dataclass(frozen=True)
class DemocracyReport:
    N: int
    phi_u_estimate: float
    phi_l_estimate: float
    witness_sets: dict = field(default_factory=dict)


def greedy_ordering(e: Expansion) -> tuple[int, ...]:
    """The unique greedy ordering of the support: decreasing |coefficient|,
    ties by increasing degree (exact-equality tie break)."""
    return tuple(sorted(e.coeffs, key=lambda j: (-abs(e.coeffs[j]), j)))


def greedy_approx(e: Expansion, m: int) -> Expansion:
    """Keep the first min(m, |support|) coefficients in greedy order."""
    if m < 0:
        raise ValueError("m must be >= 0")
    keep = greedy_ordering(e)[:m]
    return Expansion(e.params, e.mode, {j: e.coeffs[j] for j in keep})


def expansion_lp_norm(e: Expansion, p: float, tol: float = 1e-8) -> float:
    """Lp(mu) norm of the expansion: the one combination of quadrature.family_norms
    over its support (a Parseval sum at p = 2)."""
    if not e.coeffs:
        return 0.0
    fam = JacobiFamily(e.params, e.mode, e.support)
    return family_norms(fam, p, tol, ([e.coeffs[j] for j in fam.degrees],))[0][0]


def quasi_greedy_ratio(e: Expansion, p: float, tol: float = 1e-8) -> float:
    """max_m ||G_m(e)||_p / ||e||_p over m = 1..|support|, from family_norms' greedy prefix sums.

    Exactly 1 at p = 2, where by Parseval ||G_m(e)||_2^2 is a running sum of squares.
    """
    if not e.coeffs:
        raise ValueError("expansion must be nonzero")
    order = greedy_ordering(e)
    fam = JacobiFamily(e.params, e.mode, order)
    norms = family_norms(fam, p, tol, prefix=[e.coeffs[j] for j in order])[3]
    return float(np.max(norms) / norms[-1])


def sign_ratio(
    params: JacobiParams,
    mode: NormalizationMode,
    A: Iterable[int],
    signs: Mapping[int, float] | Sequence[float],
    p: float,
    tol: float = 1e-8,
) -> float:
    """|| sum_{j in A} eps_j x_j ||_p / || sum_{j in A} x_j ||_p, both from one family_norms call;
    signs is a sequence paired with A in its given order, or a mapping read at each j in A."""
    A = [_degree(j) for j in A]
    if not A or len(set(A)) < len(A):
        raise ValueError("A must be nonempty, with no repeated index")
    if isinstance(signs, Mapping):
        if missing := [j for j in A if j not in signs]:
            raise ValueError(f"signs has no entry for {missing}")
        signs = [signs[j] for j in A]
    eps = [float(s) for s in signs]
    if len(eps) != len(A):
        raise ValueError(f"{len(eps)} signs for {len(A)} indices")
    if any(s not in (-1.0, 1.0) for s in eps):
        raise ValueError("signs must be +1 or -1")
    fam = JacobiFamily(params, mode, A)
    (signed, plain), *_ = family_norms(fam, p, tol, (eps, [1.0] * len(A)))
    return signed / plain


def default_search_family(N: int, seed: int = 0) -> dict[str, tuple[int, ...]]:
    """Candidate size-N index sets: contiguous block, staggered block {N+2n},
    a lacunary set when it fits in double range, and three seeded random sets."""
    fam: dict[str, tuple[int, ...]] = {
        "contiguous": tuple(range(N)),
        "staggered": tuple(N + 2 * n for n in range(N)),
    }
    if N <= 14:
        fam["lacunary"] = tuple(2**k for k in range(N))
    rng = np.random.default_rng(np.random.SeedSequence((seed, N)))
    for r in range(3):
        picked = rng.choice(8 * N, size=N, replace=False)
        fam[f"random{r}"] = tuple(sorted(int(j) for j in picked))
    return fam


def democracy_scan(
    params: JacobiParams,
    mode: NormalizationMode,
    N: int,
    p: float,
    tol: float = 1e-8,
    seed: int = 0,
) -> DemocracyReport:
    """Extrema of || sum_{j in A} x_j ||_p over a witness family of size-N sets.

    The max is a lower bound for the upper democracy function and the min an
    upper bound for the lower one; the true sup/inf over all sets is
    combinatorially out of reach.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    fam = default_search_family(N, seed)
    norms = {
        name: expansion_lp_norm(Expansion(params, mode, {j: 1.0 for j in A}), p, tol)
        for name, A in fam.items()
    }
    upper = max(norms, key=norms.get)
    lower = min(norms, key=norms.get)
    return DemocracyReport(
        N=N,
        phi_u_estimate=norms[upper],
        phi_l_estimate=norms[lower],
        witness_sets={"upper": fam[upper], "lower": fam[lower], "norms": norms},
    )
