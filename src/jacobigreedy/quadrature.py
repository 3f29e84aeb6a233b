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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class MeshConfig:
    """Composite Gauss mesh in the theta variable.

    panels_per_unit counts panels per unit of theta before grading;
    endpoint_grading >= 1 is the geometric ratio of the graded panels
    stacked toward theta = 0 and theta = pi (1 disables grading).
    """

    panels_per_unit: int = 4
    points_per_panel: int = 12
    endpoint_grading: float = 2.0

    def __post_init__(self):
        if self.panels_per_unit < 1 or self.points_per_panel < 2:
            raise ValueError("mesh too coarse")
        if self.endpoint_grading < 1.0:
            raise ValueError("endpoint_grading must be >= 1")

    def scaled_for_degree(self, maxdeg: int) -> "MeshConfig":
        """Mesh resolving the oscillation of degree-maxdeg Jacobi polynomials."""
        need = max(self.panels_per_unit, int(math.ceil((maxdeg + 8) / 5.0)))
        return replace(self, panels_per_unit=need)


_GRADING_LEVELS = 36  # smallest graded panel is ~g^-36 of the core panel


def theta_mesh(mesh: MeshConfig, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and d-theta weights on (0, pi) at the given refinement level."""
    n_core = max(4, math.ceil(mesh.panels_per_unit * (2**level) * math.pi))
    bp = np.linspace(0.0, math.pi, n_core + 1)
    g = mesh.endpoint_grading
    if g > 1.0:
        h = bp[1]
        graded = h * g ** (-np.arange(_GRADING_LEVELS, 0, -1, dtype=float))
        bp = np.concatenate([[0.0], graded, bp[1:-1], math.pi - graded[::-1], [math.pi]])
    gx, gw = np.polynomial.legendre.leggauss(mesh.points_per_panel)
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
    mesh: MeshConfig,
    tol: float,
    max_refine: int = 7,
):
    """Run estimator on successively doubled meshes until two levels agree.

    estimator receives (theta, combined quadrature-times-measure weights) and
    may return a scalar or a vector; agreement is max relative change <= tol.
    Returns the converged value; ConvergenceError carries the estimates of
    the last two levels.
    """
    if max_refine < 1:
        raise ValueError("max_refine must be >= 1")
    prev = est = None
    for level in range(max_refine + 1):
        theta, w = theta_mesh(mesh, level)
        prev, est = est, np.asarray(estimator(theta, w * mu_theta_weight(params, theta)), dtype=float)
        if not np.all(np.isfinite(est)):
            raise EvaluationError("integrand produced non-finite values")
        if prev is not None:
            change = np.abs(est - prev) / np.maximum(np.abs(est), 1e-300)
            if np.max(change) <= tol:
                return est if est.ndim else float(est)
    i = np.argmax(change)  # report the component that changed most
    raise ConvergenceError(
        f"no convergence to tol={tol:g} after {max_refine} refinements",
        estimates=(float(prev.flat[i]), float(est.flat[i])),
    )


def lp_norm(
    f: Callable[[np.ndarray], np.ndarray],
    params: JacobiParams,
    p: float,
    mesh: MeshConfig | None = None,
    tol: float = 1e-8,
    max_refine: int = 7,
) -> float:
    """( integral |f|^p d mu )^{1/p} on (-1, 1); f must accept numpy arrays of x."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    mesh = mesh or MeshConfig()

    def estimator(theta, w):
        vals = np.abs(np.asarray(f(np.cos(theta)), dtype=float))
        return np.dot(w, vals**p) ** (1.0 / p)

    return float(_converge(estimator, params, mesh, tol, max_refine))


def _family_values(family, x: np.ndarray) -> np.ndarray:
    """Rows of function values; family is a .values(x) provider or a list of callables."""
    if hasattr(family, "values"):
        return np.asarray(family.values(x), dtype=float)
    return np.vstack([np.asarray(f(x), dtype=float) for f in family])


def square_function_norm(
    family,
    params: JacobiParams,
    p: float,
    mesh: MeshConfig | None = None,
    tol: float = 1e-8,
    max_refine: int = 7,
) -> float:
    """|| (sum_j |f_j|^2)^{1/2} ||_{Lp(mu)}, one shared mesh pass over the family."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    mesh = mesh or MeshConfig()

    def estimator(theta, w):
        rows = _family_values(family, np.cos(theta))
        sq = np.sum(rows * rows, axis=0)
        return np.dot(w, sq ** (p / 2.0)) ** (1.0 / p)

    return float(_converge(estimator, params, mesh, tol, max_refine))


def rademacher_average_norm(
    family,
    params: JacobiParams,
    p: float,
    samples: int = 64,
    seed: int = 0,
    mesh: MeshConfig | None = None,
    tol: float = 1e-8,
    max_refine: int = 7,
    bootstrap: int = 200,
) -> tuple[float, float]:
    """Monte-Carlo estimate of ( E_eps || sum_j eps_j f_j ||_p^p )^{1/p}.

    Signs are iid uniform on {-1, +1}, deterministic for a given seed.
    Returns (estimate, bootstrap standard error of the estimate).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    mesh = mesh or MeshConfig()
    ss_signs, ss_boot = np.random.SeedSequence(seed).spawn(2)
    probe = _family_values(family, np.zeros(1))
    nfun = probe.shape[0]
    signs = np.random.default_rng(ss_signs).integers(0, 2, size=(samples, nfun)) * 2.0 - 1.0
    pth_powers: np.ndarray | None = None

    def estimator(theta, w):
        nonlocal pth_powers
        rows = _family_values(family, np.cos(theta))
        combos = signs @ rows
        pth_powers = np.abs(combos) ** p @ w
        return float(np.mean(pth_powers)) ** (1.0 / p)

    est = float(_converge(estimator, params, mesh, tol, max_refine))
    rng = np.random.default_rng(ss_boot)
    idx = rng.integers(0, samples, size=(bootstrap, samples))
    boots = np.mean(pth_powers[idx], axis=1) ** (1.0 / p)
    return est, float(np.std(boots, ddof=1))


def lp_norms_of_rows(
    rows_fn: Callable[[np.ndarray], np.ndarray],
    params: JacobiParams,
    p: float,
    mesh: MeshConfig | None = None,
    tol: float = 1e-8,
    max_refine: int = 7,
) -> np.ndarray:
    """Lp(mu) norms of several functions sharing one mesh; rows_fn(x) -> (k, len(x))."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    mesh = mesh or MeshConfig()

    def estimator(theta, w):
        rows = np.asarray(rows_fn(np.cos(theta)), dtype=float)
        return (np.abs(rows) ** p @ w) ** (1.0 / p)

    return np.asarray(_converge(estimator, params, mesh, tol, max_refine))
