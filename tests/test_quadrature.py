import math

import numpy as np
import pytest
import mpmath

from jacobigreedy.jacobi import JacobiParams, NormalizationMode
from jacobigreedy.greedy import JacobiFamily
from jacobigreedy.quadrature import (
    ConvergenceError,
    EvaluationError,
    gauss_jacobi_rule,
    lp_norm,
    lp_norms_of_rows,
    rademacher_average_norm,
    square_function_norm,
    theta_mesh,
    total_mass,
)

LEG = JacobiParams(0.0, 0.0)
PARAM_GRID = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.3), (-0.4, 1.5)]


def moment_exact(params: JacobiParams, k: int) -> float:
    """Integral of x^k d mu, computed in high precision as the oracle.

    Tanh-sinh quadrature in 40-digit arithmetic absorbs the endpoint
    singularities of the weight and stays accurate for large k, where a
    binomial-expansion formula would cancel catastrophically.
    """
    a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
    with mpmath.workdps(40):
        val = mpmath.quad(
            lambda x: (1 - x) ** a * (1 + x) ** b * x**k, [-1, 0, 1]
        )
        return float(val)


class TestGaussJacobiRule:
    def test_two_point_legendre(self):
        rule = gauss_jacobi_rule(LEG, 2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-14)

    def test_x8_moment(self):
        rule = gauss_jacobi_rule(LEG, 5)
        assert rule.integrate(lambda x: x**8) == pytest.approx(2 / 9, abs=1e-12)

    @pytest.mark.parametrize("ab", PARAM_GRID)
    def test_weight_sum_is_total_mass(self, ab):
        params = JacobiParams(*ab)
        for m in (1, 3, 16):
            rule = gauss_jacobi_rule(params, m)
            assert np.sum(rule.weights) == pytest.approx(total_mass(params), rel=1e-10)
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.abs(rule.nodes) < 1)

    @pytest.mark.parametrize("ab", PARAM_GRID)
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_moment_exactness(self, ab, m):
        params = JacobiParams(*ab)
        rule = gauss_jacobi_rule(params, m)
        for k in range(0, 2 * m, max(1, (2 * m) // 12)):
            exact = moment_exact(params, k)
            got = rule.integrate(lambda x: x**k)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("ab", PARAM_GRID)
    def test_orthonormal_gram_is_identity(self, ab):
        params = JacobiParams(*ab)
        rule = gauss_jacobi_rule(params, 64)
        fam = JacobiFamily(params, NormalizationMode.orthonormal(), range(31))
        rows = fam.values(rule.nodes)
        gram = (rows * rule.weights) @ rows.T
        np.testing.assert_allclose(gram, np.eye(31), atol=1e-9)


class TestThetaMesh:
    def test_weights_integrate_dtheta(self):
        theta, w = theta_mesh()
        assert np.sum(w) == pytest.approx(math.pi, rel=1e-13)
        assert np.all(np.diff(theta) > 0)
        assert theta[0] > 0 and theta[-1] < math.pi

    def test_refinement_doubles_interior_panels(self):
        # the graded endpoint panels stay fixed across levels; only the
        # interior panel count doubles, so the point count grows by exactly
        # 12 points per panel times the previous interior panel count
        sizes = [theta_mesh(level=lev)[0].size for lev in range(4)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        interior0 = max(4, math.ceil(4 * math.pi))
        assert sizes[1] - sizes[0] == 12 * interior0

    @pytest.mark.parametrize(
        "degree,sizes",
        [
            (0, [1020, 1176, 1476]),
            (12, [1020, 1176, 1476]),
            (13, [1056, 1248, 1620]),
            (64, [1440, 2004, 3132]),
            (512, [4788, 8712, 16548]),
            (4096, [31824, 62772, 124668]),
        ],
    )
    def test_density_follows_degree(self, degree, sizes):
        # max(4, ceil((degree + 8) / 5)) panels per unit of theta at level 0
        assert [theta_mesh(degree, level)[0].size for level in range(3)] == sizes


class TestLpNorm:
    def test_constant_function_p1(self):
        assert lp_norm(lambda x: np.ones_like(x), LEG, 1.0) == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("ab", PARAM_GRID)
    def test_orthonormal_l2_norm_is_one(self, ab):
        params = JacobiParams(*ab)
        for n in (0, 5, 40, 100):
            fam = JacobiFamily(params, NormalizationMode.orthonormal(), (n,))
            v = lp_norm(lambda x: fam.values(x)[0], params, 2.0, degree=n)
            assert v == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_p_for_probability_measure(self):
        mass = total_mass(LEG)
        f = lambda x: 1.0 + x + 0.5 * np.sin(3 * x)
        norms = [lp_norm(f, LEG, p, tol=1e-9) / mass ** (1 / p) for p in (1.0, 2.0, 3.0, 6.0)]
        assert all(a <= b + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_agrees_with_gauss_rule_for_even_power(self):
        # |f|^4 polynomial: the graded mesh must match exact Gauss integration
        params = JacobiParams(0.5, 0.0)
        f = lambda x: x**2 - 0.3
        rule = gauss_jacobi_rule(params, 10)
        exact = rule.integrate(lambda x: f(x) ** 4) ** 0.25
        assert lp_norm(f, params, 4.0, tol=1e-10) == pytest.approx(exact, rel=1e-9)

    def test_nan_propagates(self):
        with pytest.raises(EvaluationError):
            lp_norm(lambda x: np.full_like(x, np.nan), LEG, 2.0)

    def test_nonconvergence_reports_estimates(self):
        # |x|^{-1/2} is not in L_3: the integral of |x|^{-3/2} diverges, so no
        # number of mesh doublings makes two levels agree
        f = lambda x: np.abs(x) ** -0.5
        with pytest.raises(ConvergenceError) as exc:
            lp_norm(f, LEG, 3.0, tol=1e-14)
        prev, last = exc.value.estimates
        # the estimates of the last two levels, which disagree beyond tol
        assert abs(last - prev) > 1e-14 * abs(last)

    def test_nonconvergence_reports_row_that_changed_most(self):
        singular = lambda x: np.abs(x) ** -0.5
        with pytest.raises(ConvergenceError) as alone:
            lp_norms_of_rows(lambda x: singular(x)[None, :], LEG, 3.0, tol=1e-14)
        # the constant rows settle at level 0; only the singular row misses tol
        rows = lambda x: np.stack([np.ones_like(x), singular(x), 2.0 * np.ones_like(x)])
        with pytest.raises(ConvergenceError) as exc:
            lp_norms_of_rows(rows, LEG, 3.0, tol=1e-14)
        assert exc.value.estimates == pytest.approx(alone.value.estimates, rel=1e-13)
        prev, last = exc.value.estimates
        assert abs(last - prev) > 1e-14 * abs(last)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(lambda x: x, LEG, 0.5)


class TestSquareFunctionNorm:
    def test_single_orthonormal_element(self):
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), (0,))
        assert square_function_norm(fam, LEG, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_constant_family(self):
        # the sqrt-scaled element of degree 0 is the constant 1
        fam = JacobiFamily(LEG, NormalizationMode.sqrt_scaled(), (0,))
        v = square_function_norm(fam, LEG, 3.0)
        assert v == pytest.approx(total_mass(LEG) ** (1 / 3), rel=1e-9)

    def test_orthonormal_block_scales_like_sqrt_N(self):
        ratios = []
        for N in (4, 16, 64):
            fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), range(N, 3 * N, 2))
            ratios.append(square_function_norm(fam, LEG, 3.0) / math.sqrt(N))
        assert max(ratios) / min(ratios) < 1.5


class TestRademacherAverage:
    def test_singleton_sign_irrelevant(self):
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), (7,))
        m1, _ = rademacher_average_norm(fam, LEG, 3.0, samples=4, seed=1)
        direct = lp_norm(lambda x: fam.values(x)[0], LEG, 3.0, degree=7)
        assert m1 == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 123])
    def test_p2_orthonormal_is_sqrt_N(self, seed):
        N = 12
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), range(N))
        mean, _ = rademacher_average_norm(fam, LEG, 2.0, samples=8, seed=seed)
        assert mean == pytest.approx(math.sqrt(N), abs=1e-6)

    def test_deterministic_given_seed(self):
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), (1, 4, 9))
        a = rademacher_average_norm(fam, LEG, 3.0, samples=16, seed=42)
        b = rademacher_average_norm(fam, LEG, 3.0, samples=16, seed=42)
        assert a == b

    def test_comparable_to_square_function(self):
        N = 16
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), range(N, 3 * N, 2))
        mean, _ = rademacher_average_norm(fam, LEG, 3.0, samples=32, seed=3)
        sq = square_function_norm(fam, LEG, 3.0)
        assert 0.5 < mean / sq < 2.0
