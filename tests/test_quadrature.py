import math
import warnings

import numpy as np
import pytest
import mpmath
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, eval_jacobi, gammaln, logsumexp, roots_jacobi

from jacobigreedy.jacobi import (
    JacobiParams,
    NormalizationMode,
    eval_P,
    eval_P_from_zeros,
    eval_P_many,
    jacobi_matrix,
    jacobi_zeros,
    orthonormal_const,
)
from jacobigreedy.greedy import JacobiFamily, _orthonormal_lp_norm
from jacobigreedy import quadrature
from jacobigreedy.quadrature import (
    ConvergenceError,
    EvaluationError,
    _pth_sum,
    family_norms,
    gauss_jacobi_rule,
    lp_norm,
    lp_norm_between_zeros,
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


class TestTotalMass:
    def test_matches_mpmath_on_grid(self):
        # scipy's betaln is 2.9e-13 off at (301, 150), and a bare lgamma sum 5.2e-13 at (301, -0.9)
        grid = [-0.99, -0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0, 6.0, 13.0, 40.0, 150.0, 301.0]
        worst = 0.0
        with mpmath.workdps(40):
            for a in grid:
                for b in grid:
                    exact = mpmath.power(2, a + b + 1) * mpmath.beta(a + 1, b + 1)
                    worst = max(worst, abs(float(total_mass(JacobiParams(a, b)) / exact - 1)))
        assert worst <= 3e-13


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

    def test_small_weights_keep_relative_accuracy(self):
        # the weight (1-x)^3 (1+x)^301 peaks near x = 0.98, while (1-x)^95 times it
        # peaks near 0.5, where the Gauss weights are ~1e-60 of the largest
        params, m = JacobiParams(3.0, 301.0), 48
        k = 2 * m - 1
        exact = math.exp((3.0 + 301.0 + k + 1) * math.log(2.0) + betaln(3.0 + k + 1, 302.0))
        got = gauss_jacobi_rule(params, m).integrate(lambda x: (1 - x) ** k)
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("ab", PARAM_GRID)
    def test_orthonormal_gram_is_identity(self, ab):
        params = JacobiParams(*ab)
        rule = gauss_jacobi_rule(params, 64)
        fam = JacobiFamily(params, NormalizationMode.orthonormal(), range(31))
        rows = fam.values(rule.nodes)
        gram = (rows * rule.weights) @ rows.T
        np.testing.assert_allclose(gram, np.eye(31), atol=1e-9)


def mpmath_gauss_legendre(m: int) -> tuple[list, list]:
    """40-digit m-point Gauss-Legendre rule: Newton on P_m from cos(pi (k + 3/4) / (m + 1/2)), and
    weights 2 (1 - x^2) / (m P_{m-1}(x))^2."""
    with mpmath.workdps(40):
        guesses = [mpmath.cos(mpmath.pi * (k + 0.75) / (m + 0.5)) for k in range(m)]
        nodes = sorted(mpmath.findroot(lambda t: mpmath.legendre(m, t), g, solver="newton") for g in guesses)
        weights = [2 * (1 - x * x) / (m * mpmath.legendre(m - 1, x)) ** 2 for x in nodes]
    return nodes, weights


class TestThetaMesh:
    def test_panel_rule_is_gauss_legendre_to_rounding(self):
        # every panel's rule, read back from the mesh weights of one core panel, against 40 digits
        m = quadrature._PANEL_POINTS
        want_x, want_w = mpmath_gauss_legendre(m)
        assert all(float(b - a) > 0.05 for a, b in zip(want_x, want_x[1:]))  # m distinct zeros
        rule = quadrature._reference_rule(0.0, 0.0, m)
        with mpmath.workdps(40):  # errors of the doubles themselves, not of the 40 digits rounded
            assert max(abs(float(x - w)) for x, w in zip(rule.nodes, want_x)) <= 1e-16
            rel = lambda got: max(abs(float(g / w - 1)) for g, w in zip(got, want_w))
            assert rel(rule.weights) <= 2e-15
        theta, w = theta_mesh()
        panel = w[m * 40: m * 41]  # past the 36 graded panels at theta = 0
        with mpmath.workdps(40):
            assert rel(2.0 * panel / panel.sum()) <= 2e-15

    def test_cached_rules_are_read_only(self):
        rule = quadrature._reference_rule(0.0, 0.0, 12)
        for values in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                values[0] = 1.0

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
        assert str(exc.value).startswith("quantity 'rows' did not converge")
        # a family: at p = 1 |f| has kinks at the zeros of f, so the block sum reaches no closer
        # than ~6e-7; the square function, whose integrand has none, converges on the same levels
        fam = JacobiFamily(LEG, NormalizationMode.sqrt_scaled(), tuple(range(8, 24, 2)))
        block = (np.ones(8),)
        assert math.isfinite(family_norms(fam, 1.0, 1e-8, square=True)[1])
        with pytest.raises(ConvergenceError) as alone:
            family_norms(fam, 1.0, 1e-8, block)
        with pytest.raises(ConvergenceError) as exc:
            family_norms(fam, 1.0, 1e-8, block, square=True)
        assert str(exc.value) == (
            "quantity 0 did not converge to tol=1e-08 after 7 refinements; converged: ['square']"
        )
        assert exc.value.estimates == alone.value.estimates

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(lambda x: x, LEG, 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [
        lambda p: family_norms(JacobiFamily(LEG, NormalizationMode.sqrt_scaled(), (2,)), p, combos=([1.0],)),
        lambda p: lp_norms_of_rows(lambda x: x[None], LEG, p, degree=1),
        lambda p: lp_norm_between_zeros(lambda x: x, LEG, p, np.array([0.0])),
    ], ids=["family_norms", "lp_norms_of_rows", "lp_norm_between_zeros"])
    def test_rejects_non_finite_p(self, entry, p):
        # not a number, nor a false overflow: at p = inf the family norm was 1.0, at nan an EvaluationError
        with pytest.raises(ValueError, match="p must be finite"):
            entry(p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_is_one_row_of_lp_norms_of_rows(self, p):
        params = JacobiParams(0.5, 0.0)
        f = lambda x: 1.0 + x + 0.5 * np.sin(3 * x)
        got = lp_norm(f, params, p, degree=12, tol=1e-9)
        assert type(got) is float
        assert got == lp_norms_of_rows(lambda x: f(x)[None], params, p, degree=12, tol=1e-9)[0]


class TestPthSum:
    """quadrature._pth_sum, sum_k w_k |v_k|^p, against np.power."""

    @staticmethod
    def values(p):
        # signed values from the subnormals to where |v|^p nears the largest double, with zeros
        rng = np.random.default_rng(11)
        v = np.sign(rng.standard_normal(4000)) * 10.0 ** rng.uniform(-323.0, 300.0 / p, 4000)
        return np.concatenate([v, [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -1.0]])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
    def test_within_4_ulp_of_power(self, p):
        v = self.values(p)
        want = np.abs(v) ** p
        got = np.empty_like(v)
        w = np.random.default_rng(2).random(v.size)
        total = _pth_sum(v, w, p, out=got)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))
        assert total == got @ w
        assert np.array_equal(v, self.values(p))  # out= keeps v

    @pytest.mark.parametrize("p", [2.01, 7.3])
    def test_other_p_is_np_power_bit_for_bit(self, p):
        v = self.values(p)
        w = np.random.default_rng(2).random(v.size)
        assert _pth_sum(v.copy(), w, p) == (np.abs(v) ** p) @ w
        got = np.empty_like(v)
        _pth_sum(v, w, p, out=got)
        assert np.array_equal(got, np.abs(v) ** p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 6.0, 2.01])
    def test_overflow_is_inf(self, p):
        big = 2.0 * 1e308 ** (1.0 / p)  # finite, and |big|^p > 2e308
        v, got = np.array([big, -big, 3.0]), np.empty(3)
        with np.errstate(over="ignore"):
            assert _pth_sum(v, np.ones(3), p, out=got) == math.inf
        assert np.isinf(got[:2]).all() and got[2] == pytest.approx(3.0 ** p, rel=1e-15)

    def test_rows_in_pieces(self, monkeypatch):
        # each row of a 2-D v is one sum; rows longer than _BLOCK go in pieces, elementwise the same
        v = np.random.default_rng(4).standard_normal((3, 50))
        w = np.random.default_rng(5).random(50)
        whole = _pth_sum(v.copy(), w, 2.5)
        monkeypatch.setattr(quadrature, "_BLOCK", 7)
        assert np.array_equal(_pth_sum(v.copy(), w, 2.5), whole)
        assert whole.shape == (3,) and whole == pytest.approx([np.abs(r) ** 2.5 @ w for r in v], rel=1e-14)
        # rows shorter than _BLOCK go in slabs of _BLOCK // 50 = 3 rows, the last one short: every
        # bit of |v|^p is that of its row raised alone
        monkeypatch.setattr(quadrature, "_BLOCK", 150)
        v = np.random.default_rng(6).standard_normal((11, 50))
        for p in (1.0, 2.0, 2.5, 3.0, 4.5):
            got, rows = np.empty_like(v), np.empty_like(v)
            total = _pth_sum(v, w, p, out=got)
            for r, o in zip(v, rows):
                _pth_sum(r, w, p, out=o)
            assert np.array_equal(got, rows)
            assert np.array_equal(total, got @ w)

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 6.0, 2.01])
    def test_powers_past_the_doubles_raise_evaluation_error(self, p):
        # P_600^(300,300) is finite on the mesh (up to binom(900, 600) ~ 1e249 at x = 1), its p-th power is not
        fam = JacobiFamily(JacobiParams(300.0, 300.0), NormalizationMode.sqrt_scaled(), (600,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                family_norms(fam, p, combos=([1.0],))


class TestSquareFunctionNorm:
    def test_single_orthonormal_element(self):
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), (0,))
        assert square_function_norm(fam, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_constant_family(self):
        # the sqrt-scaled element of degree 0 is the constant 1
        fam = JacobiFamily(LEG, NormalizationMode.sqrt_scaled(), (0,))
        v = square_function_norm(fam, 3.0)
        assert v == pytest.approx(total_mass(LEG) ** (1 / 3), rel=1e-9)

    def test_orthonormal_block_scales_like_sqrt_N(self):
        ratios = []
        for N in (4, 16, 64):
            fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), range(N, 3 * N, 2))
            ratios.append(square_function_norm(fam, 3.0) / math.sqrt(N))
        assert max(ratios) / min(ratios) < 1.5


class TestRademacherAverage:
    def test_singleton_sign_irrelevant(self):
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), (7,))
        m1, _ = rademacher_average_norm(fam, 3.0, samples=4, seed=1)
        direct = lp_norm(lambda x: fam.values(x)[0], LEG, 3.0, degree=7)
        assert m1 == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 123])
    def test_p2_orthonormal_is_sqrt_N(self, seed):
        N = 12
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), range(N))
        mean, _ = rademacher_average_norm(fam, 2.0, samples=8, seed=seed)
        assert mean == pytest.approx(math.sqrt(N), abs=1e-6)

    def test_deterministic_given_seed(self):
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), (1, 4, 9))
        a = rademacher_average_norm(fam, 3.0, samples=16, seed=42)
        b = rademacher_average_norm(fam, 3.0, samples=16, seed=42)
        assert a == b

    def test_comparable_to_square_function(self):
        N = 16
        fam = JacobiFamily(LEG, NormalizationMode.orthonormal(), range(N, 3 * N, 2))
        mean, _ = rademacher_average_norm(fam, 3.0, samples=32, seed=3)
        sq = square_function_norm(fam, 3.0)
        assert 0.5 < mean / sq < 2.0


# (alpha, beta) from Legendre through alpha near -1/2 to large alpha
ZERO_PANEL_GRID = [(0.0, 0.0), (1.0, 0.5), (-0.45, 0.0), (10.0, 0.0), (25.0, 3.0)]


def oracle_orthonormal_norms(a: float, b: float, n: int, ps) -> list[float]:
    """||p_n||_p for each p by mpmath's adaptive tanh-sinh on the theta-panels.

    The panels end at the zeros of P_n from scipy's roots_jacobi, and the
    integrand uses scipy's eval_jacobi with d_n from log-gamma: nothing is
    shared with the package's recurrence, Jacobi matrix or panel rules. The
    integrand is evaluated in double precision, which bounds the oracle at
    about 1e-15 relative; mpmath sums and refines at 15 digits. Values are
    memoized across p, since tanh-sinh visits the same nodes for each.
    """
    log_d2 = (
        math.log(2 * n + a + b + 1) + gammaln(n + a + b + 1) + gammaln(n + 1)
        - (a + b + 1) * math.log(2) - gammaln(n + a + 1) - gammaln(n + b + 1)
    )
    dn = math.exp(0.5 * log_d2)
    memo = {}

    def parts(t):
        if t not in memo:
            tf = float(t)
            weight = 2.0 ** (a + b + 1) * math.sin(tf / 2) ** (2 * a + 1) * math.cos(tf / 2) ** (2 * b + 1)
            memo[t] = (abs(dn * eval_jacobi(n, a, b, math.cos(tf))), weight)
        return memo[t]

    panels = [0.0, *sorted(np.arccos(roots_jacobi(n, a, b)[0]).tolist()), mpmath.pi]
    out = []
    with mpmath.workdps(15):
        for p in ps:
            integral = mpmath.quad(lambda t: parts(t)[0] ** p * parts(t)[1], panels)
            out.append(float(integral ** (1 / mpmath.mpf(p))))
    return out


class TestNormBetweenZeros:
    @pytest.mark.parametrize("n", [1, 8, 40])
    @pytest.mark.parametrize("ab", ZERO_PANEL_GRID)
    def test_matches_mpmath(self, ab, n):
        ps = (1.5, 2.5, 3.0, 7.3)
        want = oracle_orthonormal_norms(*ab, n, ps)
        got = [_orthonormal_lp_norm(*ab, p, n) for p in ps]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("ab", ZERO_PANEL_GRID)
    def test_even_p_matches_exact_gauss_rule(self, ab, p):
        # |p_n|^p is a polynomial of degree p n <= 6 n, so 3n + 1 Gauss nodes are exact
        params = JacobiParams(*ab)
        for n in (1, 8, 40, 256):
            rule = gauss_jacobi_rule(params, 3 * n + 1)
            dn = orthonormal_const(params, n)
            exact = rule.integrate(lambda x: np.abs(dn * eval_P(params, n, x)) ** p) ** (1 / p)
            assert _orthonormal_lp_norm(*ab, float(p), n) == pytest.approx(exact, rel=5e-12)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, 0.5), (-0.45, 0.2), (3.0, 3.0), (0.0, 20.0), (-0.9, 0.5)])
    def test_no_less_accurate_than_the_recurrence(self, ab):
        # against the exact (p n / 2 + 1)-node rule, _orthonormal_lp_norm (P_n from its zeros) is within
        # one significant digit of the error of the same panels with the recurrence at every node
        params = JacobiParams(*ab)
        for n in (8, 64, 256, 1024):
            dn, zeros = orthonormal_const(params, n), jacobi_zeros(params, n)
            for p in (4, 6):
                rule = gauss_jacobi_rule(params, p * n // 2 + 1)
                vals = np.abs(dn * eval_P(params, n, rule.nodes))
                exact = vals.max() * float(np.dot(rule.weights, (vals / vals.max()) ** p)) ** (1 / p)
                recurrence = lp_norm_between_zeros(lambda x: dn * eval_P(params, n, x), params, p, zeros,
                                                   even=ab[0] == ab[1])
                got = _orthonormal_lp_norm(*ab, float(p), n)
                assert abs(got / exact - 1) <= 1.1 * abs(recurrence / exact - 1) + 1e-15

    @pytest.mark.parametrize("n", [1, 8, 64, 1024])
    @pytest.mark.parametrize("ab, shown", [((-1 + 1e-15, 0.0), "x = 1 is singular: alpha = "),
                                           ((0.0, -1 + 1e-15), "x = -1 is singular: beta = ")],
                             ids=["alpha", "beta"])
    def test_weight_within_rounding_of_minus_one(self, ab, shown, n):
        # at n = 1 an end-panel node rounds onto s = -+1; from n = 8 on, the end zero rounds onto x = +-1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=f"^end panel at {shown}-0.999999999999999 is too close"):
                _orthonormal_lp_norm(*ab, 3.0, n)

    def test_peaked_end_panel_refines(self):
        # at beta = 150, p = 20 the end panel at pi holds a narrow peak: a fixed
        # 32-point rule is 98 % off and 64 points 23 %; the exact rule needs p n / 2 + 1 nodes
        params, p, n = JacobiParams(0.0, 150.0), 20, 128
        rule = gauss_jacobi_rule(params, p * n // 2 + 1)
        dn = orthonormal_const(params, n)
        vals = np.abs(dn * eval_P(params, n, rule.nodes))
        top = vals.max()  # |p_n|^20 overflows unscaled
        exact = top * float(np.dot(rule.weights, (vals / top) ** p)) ** (1 / p)
        assert _orthonormal_lp_norm(0.0, 150.0, float(p), n) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("p", [4, 6])
    def test_large_even_weight_matches_exact_rule_in_logs(self, p):
        # at alpha = beta = 150 the Gauss weights near +-1 underflow, so the exact rule for |p_n|^p
        # (p n / 2 + 1 nodes) is summed in logs: nodes from the full Jacobi-matrix solve with two
        # Newton steps, weights 1 / sum_k p_k(x)^2 with the sum rescaled as it grows. With the
        # unpolished full-solve zeros (up to 5.7e-15 off near +-1) the norm was 2.7e-11 off.
        a, n = 150.0, 1024
        params, m = JacobiParams(a, a), p * n // 2 + 1
        diag, off = jacobi_matrix(params, m)
        x = eigh_tridiagonal(diag, off, eigvals_only=True)
        for _ in range(2):  # (1 - x^2) P_m' = (m + a) P_{m-1} - m x P_m at alpha = beta
            prev, cur = eval_P_many(params, [m - 1, m], x)
            x = x - cur * (1 - x * x) / ((m + a) * prev - m * x * cur)
        p_prev, p_cur = np.zeros(m), np.full(m, total_mass(params) ** -0.5)
        christoffel, log_scale = p_cur**2, np.zeros(m)
        for k in range(m - 1):
            p_prev, p_cur = p_cur, ((x - diag[k]) * p_cur - (off[k - 1] * p_prev if k else 0.0)) / off[k]
            christoffel += p_cur**2
            big = np.abs(p_cur) > 1e100
            scale = np.abs(p_cur[big])
            p_cur[big] /= scale
            p_prev[big] /= scale
            christoffel[big] /= scale**2
            log_scale[big] += 2.0 * np.log(scale)
        log_f = math.log(orthonormal_const(params, n)) + np.log(np.abs(eval_P(params, n, x)))
        exact = math.exp(logsumexp(p * log_f - np.log(christoffel) - log_scale) / p)
        assert _orthonormal_lp_norm(a, a, float(p), n) == pytest.approx(exact, rel=1e-12)

    def test_unsettled_end_panels_raise(self, monkeypatch):
        import jacobigreedy.quadrature as quadrature

        monkeypatch.setattr(quadrature, "_END_PANEL_MAX", 64)
        params, n = JacobiParams(0.0, 150.0), 128
        dn = orthonormal_const(params, n)
        zeros = roots_jacobi(n, 0.0, 150.0)[0]
        with pytest.raises(ConvergenceError) as info:
            lp_norm_between_zeros(lambda x: dn * eval_P(params, n, x), params, 20.0, zeros)
        coarse, fine = info.value.estimates
        assert math.isfinite(coarse) and math.isfinite(fine) and coarse != fine

    @pytest.mark.parametrize("p", [1.0, 3.0, 7.3])
    @pytest.mark.parametrize("ab", ZERO_PANEL_GRID)
    def test_degree_zero_closed_form(self, ab, p):
        # p_0 = mass^{-1/2}, so ||p_0||_p = mass^{1/p - 1/2}
        mass = total_mass(JacobiParams(*ab))
        assert _orthonormal_lp_norm(*ab, p, 0) == pytest.approx(mass ** (1 / p - 0.5), rel=1e-14)

    def test_large_alpha_within_hoelder_bounds(self):
        # P_2000^{(150, 0)} reaches ~1e228 near x = 1, and d mu / d theta underflows there
        params = JacobiParams(150.0, 0.0)
        n, p = 2000, 3.0
        mass = total_mass(params)
        sup = orthonormal_const(params, n) * eval_P(params, n, 1.0)  # |p_n| peaks at x = 1
        got = _orthonormal_lp_norm(150.0, 0.0, p, n)
        assert math.isfinite(got)
        assert mass ** (1 / p - 0.5) <= got <= sup * mass ** (1 / p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(EvaluationError):
            lp_norm_between_zeros(lambda x: np.where(x > 0, bad, x), LEG, 3.0, np.array([0.0]))


# alpha = beta: the weight is even and P_n(-x) = (-1)^n P_n(x)
EVEN_WEIGHTS = [(0.0, 0.0), (0.5, 0.5), (-0.45, -0.45), (3.0, 3.0)]


def full_mesh(monkeypatch):
    """Make _converge ignore the fold, so family_norms integrates on the whole mesh."""
    import inspect

    import jacobigreedy.quadrature as quadrature

    converge = quadrature._converge

    def unfolded(*args, **kwargs):
        bound = inspect.signature(converge).bind(*args, **kwargs)
        bound.arguments["fold"] = False
        return converge(*bound.args, **bound.kwargs)

    monkeypatch.setattr(quadrature, "_converge", unfolded)


def mesh_passes(monkeypatch):
    """Record (mesh size, points the family pass saw) for each level family_norms runs."""
    import jacobigreedy.quadrature as quadrature

    sizes, mesh, family_pass = [], quadrature.theta_mesh, quadrature._family_pass

    def recording_mesh(*args):
        theta, w = mesh(*args)
        sizes.append([theta.size])
        return theta, w

    def recording_pass(family, x, *rest):
        sizes[-1].append(x.size)
        return family_pass(family, x, *rest)

    monkeypatch.setattr(quadrature, "theta_mesh", recording_mesh)
    monkeypatch.setattr(quadrature, "_family_pass", recording_pass)
    return sizes


class TestEvenFold:
    @pytest.mark.parametrize("degree, level", [(0, 0), (13, 2), (64, 1), (512, 3), (4096, 0)])
    def test_mesh_is_mirror_symmetric(self, degree, level):
        # to 4 ulp of pi in theta and in the d-theta weights, with pi/2 between the halves
        theta, w = theta_mesh(degree, level)
        h, ulp = theta.size // 2, np.spacing(np.pi)
        assert theta.size % 2 == 0 and theta[h - 1] < math.pi / 2 < theta[h]
        assert np.max(np.abs(theta[::-1][:h] - (math.pi - theta[:h]))) <= 4 * ulp
        assert np.max(np.abs(w[::-1][:h] - w[:h])) <= 4 * ulp

    @pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 7.3])
    @pytest.mark.parametrize("ab", EVEN_WEIGHTS)
    @pytest.mark.parametrize("degrees", [tuple(range(8, 24, 2)), (3, 7, 9, 15), (3, 8, 9, 14, 21)])
    def test_folded_family_norms_match_full_mesh(self, monkeypatch, ab, p, degrees):
        # one parity: even integrands on summed weights; both parities: |e + o|^p and |e - o|^p
        params = JacobiParams(*ab)
        fam = JacobiFamily(params, NormalizationMode.sqrt_scaled(), degrees)
        combos = (np.ones(len(degrees)), np.where(np.arange(len(degrees)) % 3, 1.0, -1.0))
        # tol is the CLI's default: at p = 1 the mesh reaches no closer than ~4e-7 (|f| has kinks)
        prefix = np.linspace(2.0, -1.0, len(degrees))
        run = lambda: family_norms(fam, p, 1e-6, combos, square=True, samples=4, seed=5, prefix=prefix)
        (c1, c2), square, (mean, err), partial = run()
        full_mesh(monkeypatch)
        sizes = mesh_passes(monkeypatch)
        (f1, f2), f_square, (f_mean, f_err), f_partial = run()
        assert all(seen == [size] for size, *seen in sizes)  # the reference saw every node
        np.testing.assert_allclose([c1, c2, square, mean, *partial], [f1, f2, f_square, f_mean, *f_partial],
                                   rtol=1e-13, atol=0.0)
        assert abs(err - f_err) <= 1e-13 * f_mean  # the standard error is a spread: relative to the mean

    @pytest.mark.parametrize(
        "ab, degrees, folded",
        [((0.0, 0.0), (4, 8, 10), True), ((0.5, 0.5), (3, 5, 11), True),
         ((0.5, 0.0), (4, 8, 10), False), ((0.0, 0.5), (3, 5, 11), False),
         ((0.0, 0.0), (4, 7, 10), True), ((3.0, 3.0), (2, 3), True)],
    )
    def test_fold_only_for_even_integrands(self, monkeypatch, ab, degrees, folded):
        # the weight is even at alpha = beta; a family of both parities folds as well
        params = JacobiParams(*ab)
        fam = JacobiFamily(params, NormalizationMode.sqrt_scaled(), degrees)
        sizes = mesh_passes(monkeypatch)
        family_norms(fam, 3.0, 1e-6, (np.ones(len(degrees)),), square=True, samples=4)
        assert len(sizes) >= 2
        assert all(seen == [size // 2 if folded else size] for size, *seen in sizes)

    def test_p2_is_closed_form_without_a_mesh(self, monkeypatch):
        import jacobigreedy.quadrature as quadrature

        def no_mesh(*args):
            raise AssertionError("theta_mesh called at p = 2")

        monkeypatch.setattr(quadrature, "theta_mesh", no_mesh)
        params = JacobiParams(0.5, 0.0)
        for degrees in ((2, 3, 5, 8), (3, 5, 5, 8, 3)):  # the second repeats degrees 3 and 5
            fam = JacobiFamily(params, NormalizationMode.sqrt_scaled(), degrees)
            c = np.array([1.0, -2.0, 0.5, 3.0, -1.0][: len(degrees)])
            samples, seed = 6, 9
            (combo,), square, (mean, err), partial = family_norms(fam, 2.0, combos=(c,), square=True,
                                                                  samples=samples, seed=seed, prefix=c)
            # || sum_j a_j P_{d_j} ||_2^2 = sum_n (sum_{d_j = n} a_j)^2 / d_n^2
            def parseval(a):
                by_degree = {}
                for d, aj in zip(degrees, a):
                    by_degree[d] = by_degree.get(d, 0.0) + aj
                return sum((v / orthonormal_const(params, d)) ** 2 for d, v in by_degree.items())

            s = fam.scales
            assert combo == pytest.approx(math.sqrt(parseval(c * s)), rel=1e-14)
            # parseval zips the first m degrees with the first m terms: the prefix sums
            np.testing.assert_allclose(partial, [math.sqrt(parseval(c[:m] * s[:m])) for m in range(1, len(c) + 1)],
                                       rtol=1e-14, atol=0.0)
            assert square == pytest.approx(
                math.sqrt(sum((sj / orthonormal_const(params, d)) ** 2 for d, sj in zip(degrees, s))), rel=1e-14
            )
            # the Gauss rule with max degree + 1 nodes is exact on the squares
            rule = gauss_jacobi_rule(params, max(degrees) + 1)
            rows = fam.values(rule.nodes)
            assert combo == pytest.approx(math.sqrt(rule.integrate(lambda x: (c @ rows) ** 2)), rel=1e-12)
            assert square == pytest.approx(math.sqrt(rule.integrate(lambda x: np.sum(rows**2, axis=0))), rel=1e-12)
            sign_seed, _ = np.random.SeedSequence(seed).spawn(2)
            eps = np.random.default_rng(sign_seed).integers(0, 2, size=(samples, len(degrees))) * 2.0 - 1.0
            assert mean == pytest.approx(math.sqrt(np.mean([parseval(e * s) for e in eps])), rel=1e-14)
            if len(set(degrees)) == len(degrees):
                assert mean == pytest.approx(square, rel=1e-14)
                assert err == 0.0  # every sign vector has the same norm
            else:
                assert err > 0.0

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 256, 1024])
    @pytest.mark.parametrize("ab", EVEN_WEIGHTS)
    def test_folded_norm_between_zeros_matches_unfolded(self, ab, n):
        params = JacobiParams(*ab)
        dn = orthonormal_const(params, n)
        zeros = jacobi_zeros(params, n)
        points = []

        def f(x):  # the evaluator _orthonormal_lp_norm integrates
            points.append(x.size)
            return dn * eval_P_from_zeros(params, n, x)

        for p in (1.5, 3.0, 4.0, 7.3):
            points.clear()
            unfolded = lp_norm_between_zeros(f, params, p, zeros)
            full = sum(points)
            points.clear()
            folded = lp_norm_between_zeros(f, params, p, zeros, even=True)
            assert sum(points) == full // 2
            assert _orthonormal_lp_norm(*ab, p, n) == folded
            if n <= 256:
                assert folded == pytest.approx(unfolded, rel=2e-12)
            elif p == 4.0:
                # at n = 1024 either side carries the rounding of its extreme zeros and of
                # x = cos(theta) near +-1 (up to 4e-11 against the exact rule at alpha = beta =
                # 0.5); the fold doubles one end's rounding where the full rule has two. Both
                # must stay within the 1e-10 that _orthonormal_lp_norm documents at this size.
                rule = gauss_jacobi_rule(params, 2 * n + 1)  # |p_n|^4 has degree 4n
                exact = rule.integrate(lambda x: np.abs(dn * eval_P(params, n, x)) ** 4) ** 0.25
                assert folded == pytest.approx(exact, rel=1e-10)
                assert unfolded == pytest.approx(exact, rel=1e-10)
