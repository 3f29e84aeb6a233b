"""Integration against the Jacobi weight and Lp norms of expansions.

Two integration paths:

* a Gauss rule for the weight (1-x)^alpha (1+x)^beta, built by the
  symmetric-eigenvalue (Golub-Welsch) method -- exact on polynomials, and
  so an oracle for the mesh path (p = 2 norms need neither: greedy uses
  Parseval);
* a composite Gauss mesh in theta = arccos x with geometric grading toward
  both endpoints, refined by doubling until two successive estimates agree.
  This is the general path: |f|^p for non-even p is not a polynomial, and
  the transformed weight behaves like theta^{2 alpha + 1} near 0 and
  (pi - theta)^{2 beta + 1} near pi.

The mesh has no configuration: its panel count follows the highest
polynomial degree in the integrand (the `degree` of lp_norm and
lp_norms_of_rows, the largest degree of a family), which sets the
oscillation it must resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln

from .jacobi import JacobiParams, jacobi_matrix


class ConvergenceError(RuntimeError):
    """Mesh doubling failed to reach the requested tolerance."""

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        super().__init__(message)
        self.estimates = estimates


class EvaluationError(ValueError):
    """The integrand returned NaN or inf."""


def total_mass(params: JacobiParams) -> float:
    """Integral of d mu = 2^{alpha+beta+1} B(alpha+1, beta+1)."""
    a, b = params.alpha, params.beta
    return math.exp((a + b + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0))


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

    Nodes are eigenvalues of the Jacobi matrix (jacobi.jacobi_matrix);
    weights come from the first eigenvector components.
    """
    nodes, vecs = eigh_tridiagonal(*jacobi_matrix(params, m))
    weights = total_mass(params) * vecs[0, :] ** 2
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


def _converge(
    estimator: Callable[[np.ndarray, np.ndarray], float | np.ndarray],
    params: JacobiParams,
    degree: int,
    tol: float,
):
    """Run estimator on successively doubled meshes until two levels agree.

    estimator receives (theta, combined quadrature-times-measure weights) and
    may return a scalar or a vector; agreement is max relative change <= tol.
    Returns the converged value; ConvergenceError carries the estimates of
    the last two levels.
    """
    prev = est = None
    for level in range(_MAX_REFINE + 1):
        theta, w = theta_mesh(degree, level)
        prev, est = est, np.asarray(estimator(theta, w * mu_theta_weight(params, theta)), dtype=float)
        if not np.all(np.isfinite(est)):
            raise EvaluationError("integrand produced non-finite values")
        if prev is not None:
            change = np.abs(est - prev) / np.maximum(np.abs(est), 1e-300)
            if np.max(change) <= tol:
                return est if est.ndim else float(est)
    i = np.argmax(change)  # report the component that changed most
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
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")

    def estimator(theta, w):
        vals = np.abs(np.asarray(f(np.cos(theta)), dtype=float))
        return np.dot(w, vals**p) ** (1.0 / p)

    return float(_converge(estimator, params, degree, tol))


def square_function_norm(
    family,
    params: JacobiParams,
    p: float,
    tol: float = 1e-8,
) -> float:
    """|| (sum_j |f_j|^2)^{1/2} ||_{Lp(mu)}, one shared mesh pass over the family.

    family is a greedy.JacobiFamily: it has len(), .degrees and .values(x),
    the (len(family), len(x)) matrix of element values.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")

    def estimator(theta, w):
        rows = family.values(np.cos(theta))
        sq = np.sum(rows * rows, axis=0)
        return np.dot(w, sq ** (p / 2.0)) ** (1.0 / p)

    return float(_converge(estimator, params, max(family.degrees), tol))


_BOOTSTRAP = 200  # resamples behind the standard error of the Rademacher mean


def rademacher_average_norm(
    family,
    params: JacobiParams,
    p: float,
    samples: int = 64,
    seed: int = 0,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """Monte-Carlo estimate of ( E_eps || sum_j eps_j f_j ||_p^p )^{1/p}.

    family is as for square_function_norm. Signs are iid uniform on {-1, +1},
    deterministic for a given seed. Returns (estimate, bootstrap standard
    error of the estimate).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    ss_signs, ss_boot = np.random.SeedSequence(seed).spawn(2)
    nfun = len(family)
    signs = np.random.default_rng(ss_signs).integers(0, 2, size=(samples, nfun)) * 2.0 - 1.0
    pth_powers: np.ndarray | None = None

    def estimator(theta, w):
        nonlocal pth_powers
        rows = family.values(np.cos(theta))
        combos = signs @ rows
        pth_powers = np.abs(combos) ** p @ w
        return float(np.mean(pth_powers)) ** (1.0 / p)

    est = float(_converge(estimator, params, max(family.degrees), tol))
    rng = np.random.default_rng(ss_boot)
    idx = rng.integers(0, samples, size=(_BOOTSTRAP, samples))
    boots = np.mean(pth_powers[idx], axis=1) ** (1.0 / p)
    return est, float(np.std(boots, ddof=1))


def lp_norms_of_rows(
    rows_fn: Callable[[np.ndarray], np.ndarray],
    params: JacobiParams,
    p: float,
    degree: int = 0,
    tol: float = 1e-8,
) -> np.ndarray:
    """Lp(mu) norms of several functions sharing one mesh; rows_fn(x) -> (k, len(x)).

    degree is the highest polynomial degree in the rows, as for lp_norm.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")

    def estimator(theta, w):
        rows = np.asarray(rows_fn(np.cos(theta)), dtype=float)
        return (np.abs(rows) ** p @ w) ** (1.0 / p)

    return np.asarray(_converge(estimator, params, degree, tol))
