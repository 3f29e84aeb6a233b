import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import eigh_tridiagonal
from hypothesis import strategies as st

from jacobigreedy import jacobi
from jacobigreedy.jacobi import (
    DomainError,
    JacobiParams,
    NormalizationMode,
    darboux_amplitude,
    darboux_phase,
    eval_P,
    eval_P_from_zeros,
    eval_P_many,
    eval_P_near_one,
    jacobi_combination,
    jacobi_matrix,
    jacobi_zeros,
    largest_root,
    near_one_window,
    orthonormal_const,
)
from jacobigreedy.experiments import near_one_experiment
from jacobigreedy.greedy import basis_scales

LEG = JacobiParams(0.0, 0.0)
B = jacobi._BLOCK


def value_at_one(params, n):
    """binom(n+alpha, n) through log-gamma: the pinned value P_n(1)."""
    a = params.alpha
    return math.exp(math.lgamma(n + a + 1.0) - math.lgamma(a + 1.0) - math.lgamma(n + 1.0))


def reference_R(params, n, x):
    """(R_n(x), lambda_n) with P_n = lambda_n R_n, by the allocating rescaled recurrence
    R_k = (A'_k x + B'_k) R_{k-1} - R_{k-2}, lambda_k = C_k lambda_{k-2}, in the kernel's operation
    order but from lambda_0 = lambda_1 = 1: the kernel's powers of two change no bit of lambda_n R_n."""
    a, b = params.alpha, params.beta
    ab, x = a + b, np.asarray(x, dtype=float)
    lam = [1.0, 1.0]
    r_prev, r_cur = np.ones_like(x), 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    if n == 0:
        return r_prev, 1.0
    for k in range(2, n + 1):
        s, s1, s2 = 2.0 * k + ab, (2.0 * k - 1.0) + ab, (2.0 * k - 2.0) + ab
        c1 = 2.0 * k * (k + ab) * s2
        lam.append(lam[-2] * (2.0 * ((k - 1.0) + a) * ((k - 1.0) + b) * s / c1))
        ratio = lam[-2] / lam[-1]
        r_prev, r_cur = r_cur, (x * (s1 * s * s2 / c1 * ratio) + s1 * (a - b) * ab / c1 * ratio) * r_cur - r_prev
    return r_cur, lam[-1]


def reference_P(params, n, x):
    """P_n(x) = lambda_n R_n(x) from reference_R, rounded as the kernel's evaluators round it."""
    r, lam = reference_R(params, n, x)
    return r * lam


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(DomainError):
            JacobiParams(0.0, -1.5)

    def test_derived_fields(self):
        p = JacobiParams(0.3, 1.2)
        assert p.gamma == 1.2
        assert p.half_range_ok
        assert not JacobiParams(-0.6, 1.0).half_range_ok


class TestNormalizationMode:
    def test_lp_requires_valid_p(self):
        with pytest.raises(ValueError):
            NormalizationMode.lp_normalized(0.5)
        NormalizationMode.lp_normalized(1.0)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            NormalizationMode("fourier")


class TestEvalP:
    def test_p0_is_one(self):
        assert eval_P(LEG, 0, 0.7) == 1.0

    def test_legendre_p2_closed_form(self):
        # hand oracle: P_2(x) = (3x^2 - 1)/2
        for x in [-1.0, -0.3, 0.0, 0.5, 1.0]:
            assert eval_P(LEG, 2, x) == pytest.approx((3 * x**2 - 1) / 2, abs=1e-14)

    def test_value_at_one_binomial(self):
        # binom(4.5, 3) = 4.5 * 3.5 * 2.5 / 6
        assert eval_P(JacobiParams(1.5, 0.5), 3, 1.0) == pytest.approx(6.5625, rel=1e-12)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.0), (1.0, 0.3), (-0.4, 1.5)])
    def test_normalization_pin(self, ab):
        params = JacobiParams(*ab)
        for n in range(0, 201, 7):
            assert eval_P(params, n, 1.0) == pytest.approx(value_at_one(params, n), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_P(LEG, 3, 1.5)
        with pytest.raises(DomainError):
            eval_P(LEG, -1, 0.0)

    @pytest.mark.parametrize("x", [math.nan, [0.2, math.nan], [math.nan, 1.5]])
    def test_nan_x_is_a_domain_error_in_every_evaluator(self, x):
        # a nan passed the range check and reached the recurrence as an OverflowError
        for evaluate in (
            lambda: eval_P(LEG, 3, x),
            lambda: eval_P_many(LEG, [1, 3], x),
            lambda: jacobi_combination(LEG, {3: 1.0}, x),
            lambda: eval_P_from_zeros(LEG, 300, x),
            lambda: eval_P_near_one(LEG, 3, x),
        ):
            with pytest.raises(DomainError, match=r"x must lie in \[-1, 1\], got max \|x\| = nan"):
                evaluate()

    @pytest.mark.parametrize(
        "evaluate, message",
        [(lambda: eval_P(LEG, 2.5, 0.3), "degree 2.5 is not an integer"),
         (lambda: eval_P_many(LEG, [1, 2.5], 0.3), "degree 2.5 is not an integer"),
         (lambda: eval_P_many(LEG, [1, math.nan], 0.3), "degree nan is not an integer"),
         (lambda: jacobi_combination(LEG, {2.5: 1.0, 1: 1.0}, 0.3), "degree 2.5 is not an integer"),
         (lambda: jacobi_combination(LEG, {-1: 1.0, 2: 1.0}, 0.3), "degrees must be >= 0, got -1"),
         (lambda: jacobi_combination(LEG, {-1: 1.0}, 0.3), "degrees must be >= 0, got -1"),
         (lambda: eval_P_many(LEG, [3, -2], 0.3), "degrees must be >= 0, got -2"),
         (lambda: orthonormal_const(LEG, 2.5), "degree 2.5 is not an integer"),
         (lambda: orthonormal_const(LEG, -1), "degrees must be >= 0, got -1"),
         (lambda: near_one_window(2.5), "degree 2.5 is not an integer"),
         (lambda: jacobi_matrix(LEG, 2.5), "degree 2.5 is not an integer"),
         (lambda: jacobi_zeros(LEG, 2.5), "degree 2.5 is not an integer"),
         (lambda: largest_root(LEG, 2.5), "degree 2.5 is not an integer"),
         (lambda: eval_P_from_zeros(LEG, 300.5, 0.3), "degree 300.5 is not an integer"),
         (lambda: eval_P_near_one(LEG, 2.5, 0.3), "degree 2.5 is not an integer")],
        ids=["eval_P", "eval_P_many", "eval_P_many-nan", "combination", "combination-negative",
             "combination-negative-only", "eval_P_many-negative", "orthonormal_const",
             "orthonormal_const-negative", "near_one_window", "jacobi_matrix", "jacobi_zeros",
             "largest_root", "eval_P_from_zeros", "eval_P_near_one"],
    )
    def test_one_degree_rule_in_every_evaluator(self, evaluate, message):
        # eval_P(LEG, 2.5, .) returned P_2 and {-1: 1.0, 2: 1.0} P_2 alone; {-1: 1.0} raised an
        # IndexError and {2.5: 1.0, 1: 1.0} a TypeError; orthonormal_const(LEG, 2.5) returned
        # d_3 and near_one_window(2.5) a window
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate()

    def test_integral_degrees_of_any_type_pass(self):
        x = np.array([0.3, -0.7])
        assert np.array_equal(eval_P_many(LEG, [np.int64(3), 2.0], x), eval_P_many(LEG, [3, 2], x))
        assert eval_P(LEG, np.float64(4.0), 0.3) == eval_P(LEG, 4, 0.3)
        assert np.array_equal(jacobi_combination(LEG, {np.int64(3): 1.0, 2.0: -0.5}, x),
                              jacobi_combination(LEG, {3: 1.0, 2: -0.5}, x))
        # these raised numpy's TypeError for an integral float; jacobi_zeros unwrapped, past its cache
        params = JacobiParams(1.0, 0.5)
        assert orthonormal_const(params, 3.0) == orthonormal_const(params, 3)
        assert near_one_window(np.float64(3.0)) == near_one_window(3)
        assert all(np.array_equal(a, b) for a, b in zip(jacobi_matrix(params, 3.0), jacobi_matrix(params, 3)))
        assert np.array_equal(jacobi.jacobi_zeros.__wrapped__(params, 301.0), jacobi_zeros(params, 301))
        assert largest_root(params, 3.0) == largest_root(params, 3)
        assert np.array_equal(eval_P_from_zeros(params, 300.0, x), eval_P_from_zeros(params, 300, x))
        assert np.array_equal(eval_P_near_one(params, 300.0, x), eval_P_near_one(params, 300, x))

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-0.9, 3.0),
        b=st.floats(-0.9, 3.0),
        n=st.integers(0, 100),
    )
    def test_symmetry(self, a, b, n):
        # P_n^{(a,b)}(-x) = (-1)^n P_n^{(b,a)}(x)
        xs = np.linspace(-1.0, 1.0, 101)
        left = eval_P(JacobiParams(a, b), n, -xs)
        right = (-1.0) ** n * eval_P(JacobiParams(b, a), n, xs)
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_eval_many_matches_single(self):
        xs = np.linspace(-1, 1, 17)
        rows = eval_P_many(LEG, [5, 0, 5, 3], xs)
        np.testing.assert_allclose(rows[0], eval_P(LEG, 5, xs))
        np.testing.assert_allclose(rows[1], 1.0)
        np.testing.assert_allclose(rows[2], rows[0])
        np.testing.assert_allclose(rows[3], eval_P(LEG, 3, xs))


class TestBlockedKernel:
    PARAMS = JacobiParams(0.7, -0.3)

    @pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 25])
    def test_eval_P_bit_identical_to_reference(self, size, n):
        x = np.cos(np.linspace(0.0, math.pi, size))
        assert np.array_equal(eval_P(self.PARAMS, n, x), reference_P(self.PARAMS, n, x))

    @pytest.mark.parametrize("n", [0, 1, 2, 25])
    def test_scalar_bit_identical_to_reference(self, n):
        got = eval_P(self.PARAMS, n, 0.37)
        assert isinstance(got, float)
        assert got == float(reference_P(self.PARAMS, n, 0.37))

    @pytest.mark.parametrize("x", [0.37, [0.37], [0.37, -0.2]])
    def test_iter_yields_reused_buffers_of_x_shape(self, x):
        shape = np.shape(x)
        seen = []
        for n, rn, ln in jacobi.jacobi_iter(self.PARAMS, x, 4):
            assert isinstance(rn, np.ndarray) and rn.shape == shape
            assert np.array_equal(rn * ln, reference_P(self.PARAMS, n, x))
            seen.append(rn)
        # three buffers rotate: step n overwrites the array yielded at step n - 3
        assert seen[4] is seen[1] and seen[3] is seen[0]

    def test_eval_many_repeated_unsorted_degrees_across_blocks(self):
        x = np.cos(np.linspace(0.0, math.pi, B + 5))
        degrees = [7, 0, 7, 3, 12, 1]
        rows = eval_P_many(self.PARAMS, degrees, x)
        assert rows.shape == (len(degrees), x.size)
        for row, d in zip(rows, degrees):
            assert np.array_equal(row, reference_P(self.PARAMS, d, x))

    @pytest.mark.parametrize("x", [0.37, [0.37, -0.2, 1.0]])
    def test_eval_many_no_degrees_no_rows(self, x):
        rows = eval_P_many(self.PARAMS, [], x)
        assert rows.shape == (0, np.size(x))

    def test_combination_across_blocks(self):
        x = np.cos(np.linspace(0.0, math.pi, B + 5))
        coeffs = {0: 0.5, 4: -1.25, 9: 2.0}
        want = np.zeros_like(x)
        for n in range(max(coeffs) + 1):
            if n in coeffs:
                r, lam = reference_R(self.PARAMS, n, x)
                want += (coeffs[n] * lam) * r
        assert np.array_equal(jacobi_combination(self.PARAMS, coeffs, x), want)

    @pytest.mark.parametrize(
        "a, b, n, x",
        [(0.0, 0.0, 7, 0.3), (-0.49, 0.2, 40, 0.91), (-0.45, -0.45, 13, -0.62),
         (2.5, 1.0, 60, 0.05), (0.5, -0.3, 101, 0.999), (-1 + 1e-15, -1 + 1e-15, 4000, 0.3)],
    )
    def test_matches_mpmath(self, a, b, n, x):
        with mpmath.workdps(30):
            want = float(mpmath.jacobi(n, a, b, x))
        assert eval_P(JacobiParams(a, b), n, x) == pytest.approx(want, rel=1e-11, abs=1e-13)
        assert eval_P(JacobiParams(a, b), n, np.array([x, x]))[1] == pytest.approx(want, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("x", [[0.999], [0.999, 0.998], [1.0]])
    def test_overflow_raises_in_every_evaluator(self, x):
        params = JacobiParams(400.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                jacobi_combination(params, {3000: 1.0}, x)
            with pytest.raises(OverflowError):
                eval_P_many(params, [3000], x)
            with pytest.raises(OverflowError):
                eval_P(params, 3000, x)
            with pytest.raises(OverflowError):
                eval_P_near_one(params, 3000, x)

    @pytest.mark.parametrize(
        "a, b, x, parent_n",
        [(400.0, 0.0, 0.999, 685), (0.0, 400.0, -0.999, 685), (300.0, 0.0, 0.999, 1051),
         (300.0, 300.0, 0.999, 1053)],
    )
    def test_rescaled_recurrence_overflows_no_earlier(self, a, b, x, parent_n):
        # lambda_n >= 1 keeps |R_n| <= |P_n|; parent_n is the first degree whose P_n was not finite
        # in the unscaled recurrence P_n = (A_n x + B_n) P_{n-1} - C_n P_{n-2} it replaced
        with np.errstate(over="ignore", invalid="ignore"):
            first = next(n for n, rn, ln in jacobi.jacobi_iter(JacobiParams(a, b), np.array([x]), 4000)
                         if not np.isfinite(rn * ln).all())
        assert first >= parent_n

    @pytest.mark.parametrize("size", [1, B + 1])
    def test_equal_exponents_bit_identical_to_reference(self, size):
        # alpha = beta makes c2 = 0, and the kernel then skips the + B_n pass
        params = JacobiParams(0.4, 0.4)
        x = np.cos(np.linspace(0.1, math.pi, size))
        assert np.array_equal(eval_P(params, 25, x), reference_P(params, 25, x))

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (1.0, 0.5), (0.5, 0.0), (-0.45, -0.45), (25.0, 3.0)])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_error_within_darboux_amplitude(self, a, b, n):
        # 30-digit mpmath at the same rounded x, so only the recurrence's rounding
        # counts; the error is scaled by the Darboux amplitude n^{-1/2} k(theta)
        params = JacobiParams(a, b)
        theta = np.linspace(0.1, math.pi - 0.1, 12)
        x = np.cos(theta)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.jacobi(n, a, b, xi)) for xi in x])
        scaled = np.abs(eval_P(params, n, x) - want) / (n**-0.5 * darboux_amplitude(params, theta))
        assert scaled.max() <= 2e-12


class TestOrthonormalConst:
    def test_legendre_values(self):
        # by direct substitution: d_0 = 1/sqrt(2), d_1 = sqrt(3/2)
        assert orthonormal_const(LEG, 0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert orthonormal_const(LEG, 1) == pytest.approx(math.sqrt(1.5), rel=1e-14)

    def test_d0_matches_mpmath_on_grid(self):
        # d_0 = total_mass^{-1/2}; a separate lgamma sum was 2.0e-13 off at (1.5, 301)
        grid = [-0.99, -0.5, 0.0, 0.5, 1.5, 3.0, 9.5, 10.0, 40.0, 150.0, 301.0]
        worst = 0.0
        with mpmath.workdps(40):
            for a in grid:
                for b in grid:
                    exact = (mpmath.power(2, a + b + 1) * mpmath.beta(a + 1, b + 1)) ** mpmath.mpf(-0.5)
                    worst = max(worst, abs(float(orthonormal_const(JacobiParams(a, b), 0) / exact - 1)))
        assert worst <= 5e-14

    @pytest.mark.parametrize("ab", [(0, 0), (1, 0.5), (0.5, 0.5), (3, 301), (150, 0), (-0.9, 0.5), (40, 3)])
    def test_matches_mpmath_for_n_at_least_one(self, ab):
        # a sum of six lgamma terms, each up to ~3e4, was 3.4e-12 to 1.1e-11 off here
        a, b = ab
        ns = [*np.random.default_rng(3).integers(1, 4097, size=60), 1, 2, 4096]
        worst = 0.0
        with mpmath.workdps(40):
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            for n in ns:
                log_d2 = (mpmath.log((2 * n + A + B + 1) / mpmath.power(2, A + B + 1))
                          + mpmath.loggamma(n + 1) + mpmath.loggamma(n + A + B + 1)
                          - mpmath.loggamma(n + A + 1) - mpmath.loggamma(n + B + 1))
                exact = mpmath.exp(log_d2 / 2)
                worst = max(worst, abs(float(orthonormal_const(JacobiParams(a, b), int(n)) / exact - 1)))
        assert worst <= 2e-12

    def test_large_n_sqrt_asymptotics(self):
        v = orthonormal_const(LEG, 10_000)
        assert abs(v / math.sqrt(10_000) - 1) < 0.01

    def test_ratio_stabilizes(self):
        r1 = orthonormal_const(JacobiParams(0.5, 0.2), 1_000) / math.sqrt(1_000)
        r2 = orthonormal_const(JacobiParams(0.5, 0.2), 10_000) / math.sqrt(10_000)
        assert abs(r1 / r2 - 1) < 0.01


class TestEvalBasis:
    def test_orthonormal_n0(self):
        v = basis_scales(LEG, NormalizationMode.orthonormal(), [0])[0] * eval_P(LEG, 0, 0.3)
        assert v == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_sqrt_scaled_zero_term_is_one(self):
        assert basis_scales(LEG, NormalizationMode.sqrt_scaled(), [0])[0] * eval_P(LEG, 0, 0.3) == 1.0
        v = basis_scales(LEG, NormalizationMode.sqrt_scaled(), [4])[0] * eval_P(LEG, 4, 0.3)
        assert v == pytest.approx(2.0 * eval_P(LEG, 4, 0.3), rel=1e-14)

    def test_l2_normalization_is_orthonormal(self):
        mode = NormalizationMode.lp_normalized(2.0)
        s = basis_scales(LEG, mode, [3])[0]
        assert s == pytest.approx(orthonormal_const(LEG, 3), rel=1e-8)

    def test_lp_mode_is_unit_lp_norm(self):
        # d_2 P_2 / ||p_2||_3, with ||p_2||_3 by mpmath between the roots +-3^{-1/2}
        d2 = orthonormal_const(LEG, 2)
        p2 = lambda x: d2 * (3 * x**2 - 1) / 2
        r = 1 / mpmath.sqrt(3)
        norm3 = float(mpmath.quad(lambda x: abs(p2(x)) ** 3, [-1, -r, r, 1]) ** (mpmath.mpf(1) / 3))
        xs = np.array([-0.9, 0.1, 0.5])
        got = basis_scales(LEG, NormalizationMode.lp_normalized(3.0), [2])[0] * eval_P(LEG, 2, xs)
        assert got == pytest.approx(d2 * eval_P(LEG, 2, xs) / norm3, rel=1e-9)


class TestDarboux:
    def test_amplitude_at_half_pi(self):
        # sin(pi/4) = cos(pi/4) = 2^{-1/2}
        for ab in [(0.0, 0.0), (0.5, 0.25)]:
            params = JacobiParams(*ab)
            expect = math.pi**-0.5 * 2 ** ((sum(ab) + 1) / 2)
            assert darboux_amplitude(params, math.pi / 2) == pytest.approx(expect, rel=1e-13)

    def test_error_scale_matches_actual_error(self):
        # |n^{1/2} P_n(cos t) - k(t) cos(n t + phi(t))| = O(k(t) / (n sin t))
        theta, n = math.pi / 2, 50
        k = darboux_amplitude(LEG, theta)
        main = k * math.cos(n * theta + darboux_phase(LEG, theta))
        actual = abs(math.sqrt(n) * eval_P(LEG, n, math.cos(theta)) - main)
        assert actual <= 10 * k / (n * math.sin(theta))

    def test_error_decay_uniform_in_n(self):
        thetas = np.linspace(0.3, math.pi - 0.3, 50)
        worst = []
        for n in (16, 32, 64, 128, 256, 512):
            k = darboux_amplitude(LEG, thetas)
            main = k * np.cos(n * thetas + darboux_phase(LEG, thetas))
            err = np.abs(math.sqrt(n) * eval_P(LEG, n, np.cos(thetas)) - main)
            worst.append(np.max(err * n * np.sin(thetas) / k))
        assert max(worst) <= 2 * worst[0] + 0.1


class TestNearOne:
    def test_window_arithmetic(self):
        assert near_one_window(10, 1.0) == (0.99, 1.0)

    def test_window_reaches_minus_one_and_no_further(self):
        assert near_one_window(10, 200.0) == (-1.0, 1.0)
        with pytest.raises(DomainError, match=r"d=200\.5 is wider than 2 n\^2 = 200 at n = 10"):
            near_one_window(10, 200.5)

    def test_legendre_ratio_envelope(self):
        (_, lo, hi), = near_one_experiment(LEG, (10, 40, 160, 640), d_sweep=(0.5,)).rows
        assert lo > 0.7  # limit value is J_0(1) ~ 0.765
        assert hi <= 1.0 + 1e-12

    def test_alpha_one_bounded(self):
        params = JacobiParams(1.0, 0.0)
        for n in (10, 100, 1000):
            ratio = eval_P(params, n, 1.0) / n  # (n+1)/n
            assert 1.0 <= ratio <= 1.2


class TestEvalPNearOne:
    @pytest.mark.parametrize("n", [1, 2, 10, 160, 2560])
    @pytest.mark.parametrize("ab", [(-0.9, 0.0), (0.0, 0.0), (1.5, 0.5), (10.0, 0.0), (0.0, 300.0)])
    def test_series_at_the_edge_of_its_range_matches_mpmath(self, monkeypatch, ab, n):
        # the series serves n (n + alpha + beta + 1) t <= (alpha + 1)/2, t = (1 - x)/2: its edge, moved inside by
        # an ulp where it rounds out, and a point just inside it; no recurrence runs
        params = JacobiParams(*ab)
        lam, half = n * (n + sum(ab) + 1.0), 0.5 * (ab[0] + 1.0)
        x = 1.0 - np.array([2.0, 1.98]) * half / lam
        out = lam * 0.5 * (1.0 - x) > half
        x[out] = np.nextafter(x[out], 2.0)
        monkeypatch.setattr(jacobi, "eval_P_many", None)
        got = eval_P_near_one(params, n, x)
        with mpmath.workdps(50):
            want = np.array([float(mpmath.jacobi(n, *ab, xi)) for xi in x])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).min()

    def test_a_point_outside_the_range_sends_every_x_to_the_recurrence(self, monkeypatch):
        params, x = JacobiParams(1.5, 0.5), np.array([0.999999, 1.0, 0.5])
        assert np.array_equal(eval_P_near_one(params, 40, x), eval_P(params, 40, x))
        monkeypatch.setattr(jacobi, "eval_P_many", None)
        assert eval_P_near_one(params, 40, x[:2]) == pytest.approx(eval_P(params, 40, x[:2]), rel=1e-13)


class TestLargestRoot:
    def test_legendre_small_n(self):
        # largest roots of Legendre P_2 and P_3: 1/sqrt(3) and sqrt(3/5)
        assert largest_root(LEG, 2) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert largest_root(LEG, 3) == pytest.approx(math.sqrt(0.6), abs=1e-12)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.0), (10.0, 0.0), (-0.4, 1.5), (3.0, 7.0)])
    def test_degree_one_root_closed_form(self, ab):
        # P_1 = ((a + b + 2) x + (a - b)) / 2 vanishes at (b - a)/(a + b + 2)
        a, b = ab
        assert largest_root(JacobiParams(a, b), 1) == pytest.approx((b - a) / (a + b + 2), abs=1e-15)

    @pytest.mark.parametrize("n", [160, 4000])
    def test_large_alpha_sign_change(self, n):
        # the first zero lies far from 1 at alpha = 10 (1 - z ~ j_{10,1}^2 / (2 n^2))
        params = JacobiParams(10.0, 0.0)
        z = largest_root(params, n)
        h = 1e-6 / n**2
        assert eval_P(params, n, z - h) < 0 < eval_P(params, n, min(z + h, 1.0))

    @pytest.mark.parametrize("n", [10, 640, 2560])
    @pytest.mark.parametrize("ab", [(150.0, 0.0), (0.0, 150.0), (3.0, 301.0)])
    def test_extreme_weight_matches_zeros_and_mpmath(self, ab, n):
        params = JacobiParams(*ab)
        z = largest_root(params, n)
        want = mp_zero_ab(params, n, z)
        assert abs(z - want) <= 2 * math.ulp(want)
        assert abs(z - jacobi_zeros(params, n)[-1]) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("ab, n, series", [
        ((0.0, 0.0), 10, False), ((0.0, 0.0), 160, True), ((0.0, 0.0), 4000, True),
        ((1.5, 0.0), 40, False), ((1.5, 0.0), 2560, True), ((-0.4, 0.0), 10, True), ((-0.4, 0.0), 2560, True),
        ((10.0, 0.0), 160, False), ((10.0, 0.0), 4000, True), ((50.0, 0.0), 4000, False),
        ((-1 + 1e-15, 0.0), 3, True), ((-1 + 1e-15, 0.0), 5, True),
    ])
    def test_sign_change_within_an_ulp(self, monkeypatch, ab, n, series):
        # P_n changes sign between z -+ 1 ulp, in 50-digit mpmath at those doubles; the series' Newton steps
        # serve a top zero near 1 at moderate alpha, the pivots the rest
        taken, solve = [], jacobi._series_root
        monkeypatch.setattr(jacobi, "_series_root", lambda *args: taken.append(solve(*args)) or taken[-1])
        z = largest_root(JacobiParams(*ab), n)
        assert (taken[0] is not None) == series
        with mpmath.workdps(50):
            below, above = (mpmath.jacobi(n, *ab, v) for v in (z - math.ulp(z), z + math.ulp(z)))
        assert below < 0 < above

    @pytest.mark.parametrize("a", [-1 + 1e-15, -1 + 1e-12])
    def test_top_zero_rounding_to_one(self, a):
        # at alpha near -1 the top zero is within 1e-17 of 1, so the tangent start 1 - 2 t_1 above it rounds to 1 too
        params = JacobiParams(a, 0.0)
        assert mp_top_zero_rounds_to_one(params, 1000)
        assert largest_root(params, 1000) == 1.0

    @pytest.mark.parametrize("n", [2, 10, 40, 160, 640, 2560, 4000])
    def test_pivot_passes_are_bounded(self, monkeypatch, n):
        # the tangent at x = 1 starts above the top zero with no counted pass; Laguerre's steps from there
        # take at most 10 pivot passes, and the series' Newton steps none
        passes, pivot, pivots = [], jacobi._pivot, jacobi._pivots

        def uncounted(*args, count=False):
            assert not count
            return pivots(*args)

        monkeypatch.setattr(jacobi, "_pivot", lambda *args: passes.append(args[2]) or pivot(*args))
        monkeypatch.setattr(jacobi, "_pivots", uncounted)
        for ab in [(150.0, 0.0), (0.0, 150.0), (50.0, 0.0), (3.0, 301.0), (10.0, 0.0), (20.0, 0.0)]:
            passes.clear()
            largest_root(JacobiParams(*ab), n)
            assert len(passes) <= 10, ab
        for ab, n_min in [((0.0, 0.0), 40), ((1.5, 0.0), 160)]:
            passes.clear()
            largest_root(JacobiParams(*ab), n)
            assert n < n_min or not passes, ab

    def test_one_minus_root_scales_like_inverse_square(self):
        z1 = largest_root(LEG, 100)
        z2 = largest_root(LEG, 200)
        assert (1 - z2) / (1 - z1) == pytest.approx(0.25, rel=0.05)


def mp_zero(params, n, x, steps=3):
    """A zero of P_n near x, by Newton steps on mpmath's recurrence at 50 digits (alpha = beta)."""
    a = mpmath.mpf(params.alpha)
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        for _ in range(steps):
            prev, cur = mpmath.mpf(1), (a + 1) * x
            for k in range(2, n + 1):
                s = 2 * k + 2 * a
                prev, cur = cur, ((s - 1) * s * (s - 2) * x * cur - 2 * (k + a - 1) ** 2 * s * prev) / (
                    2 * k * (k + 2 * a) * (s - 2)
                )
            x -= cur * (1 - x * x) / ((n + a) * prev - n * x * cur)
        return float(x)


def mp_P_ab(params, n, x):
    """P_n(x) and P_{n-1}(x) by mpmath's recurrence at the working precision, any (alpha, beta)."""
    a, b, x = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(x)
    prev, cur = mpmath.mpf(1), ((a + b + 2) * x + (a - b)) / 2
    for k in range(2, n + 1):
        s = 2 * k + a + b
        prev, cur = cur, (((s - 1) * s * (s - 2) * x + (s - 1) * (a * a - b * b)) * cur
                          - 2 * (k + a - 1) * (k + b - 1) * s * prev) / (2 * k * (k + a + b) * (s - 2))
    return cur, prev


def mp_zero_ab(params, n, x, steps=3):
    """A zero of P_n near x, by Newton steps on mpmath's recurrence at 50 digits, any (alpha, beta)."""
    with mpmath.workdps(50):
        a, b, x = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(x)
        for _ in range(steps):
            cur, prev = mp_P_ab(params, n, x)
            s = 2 * n + a + b
            x -= cur * s * (1 - x * x) / (n * (a - b - s * x) * cur + 2 * (n + a) * (n + b) * prev)
        return float(x)


def mp_top_zero_rounds_to_one(params, n):
    """True when P_n changes sign in (1 - 1e-17, 1): its top zero is then nearer 1 than any double below 1."""
    with mpmath.workdps(50):
        return mp_P_ab(params, n, 1 - mpmath.mpf("1e-17"))[0] * mp_P_ab(params, n, 1)[0] < 0


def two_sweep_zeros(params, n):
    """jacobi_zeros as solved before the first sweep counted: Newton until _done, one count at the
    midpoints of the converged zeros, then _repair; jacobi_zeros must give the same bits."""
    diag, off = jacobi_matrix(params, n)
    if n == 1:
        return diag
    even = params.alpha == params.beta
    m = n // 2 if even else n
    dl, o2 = diag.tolist(), (off * off).tolist()
    fence, below = (0.0, n // 2) if even else (-1.0, 0)
    want = n - m + np.arange(m)
    x = jacobi._zero_guesses(params, n, m)
    step, todo = np.full(m, np.inf), np.arange(m)
    while todo.size:
        xs = x[todo]
        s = jacobi._newton_step(params, n, xs, jacobi._pivots(dl, o2, xs)[0])
        new = xs - s
        ok = (new > fence if even else new >= -1.0) & (new <= 1.0) & ~(np.abs(s) > 0.5 * step[todo])
        x[todo[ok]] = new[ok]
        step[todo] = np.where(ok, np.abs(s), np.inf)
        todo = todo[ok & ~jacobi._done(params, n, new, s)]
    for _ in range(3):
        order = np.argsort(x, kind="stable")
        x, step = x[order], step[order]
        probes = 0.5 * (np.concatenate([[fence], x[:-1]]) + x)
        counts = jacobi._pivots(dl, o2, probes, count=True)[1]
        edges = np.append(probes, np.inf)
        if not even:
            probes[0], counts[0], edges[0] = fence, below, -np.inf
        bad = (counts != want) | (np.append(counts[1:], n) != want + 1)
        bad |= ~((n + 1.0) * np.abs(step) < np.minimum(x - edges[:-1], edges[1:] - x))
        if not bad.any():
            break
        clean = ~bad & np.append(True, ~bad[:-1])
        x[bad], step[bad] = jacobi._repair(params, n, dl, o2, want[bad],
                                           np.concatenate([[fence], probes[clean], [1.0]]),
                                           np.concatenate([[below], counts[clean], [n]]))
    else:
        raise RuntimeError("not certified")
    return np.concatenate([-x[::-1], np.zeros(n % 2), x]) if even else x


ORACLE_WEIGHTS = [(0.0, 0.0), (1.0, 0.5), (0.5, 0.0), (-0.45, 3.0), (3.0, 3.0), (-0.9, 0.5), (-0.9, -0.9)]


class TestJacobiZeros:
    @pytest.mark.parametrize("n", [2, 7, 64, 255, 1024, 1025, 4096])
    @pytest.mark.parametrize("ab", ORACLE_WEIGHTS)
    def test_same_bits_as_two_sweep_solve(self, ab, n, monkeypatch):
        # and at (0, 0) and (1, 0.5), Newton's own steps certify every zero: no counted pass at all
        pivots, counted = jacobi._pivots, []

        def recorded(diag, off2, x, count=False):
            if count:
                counted.append(x.size)
            return pivots(diag, off2, x, count)

        params = JacobiParams(*ab)
        monkeypatch.setattr(jacobi, "_pivots", recorded)
        jacobi_zeros.cache_clear()
        try:
            zeros = jacobi_zeros(params, n)
        finally:
            jacobi_zeros.cache_clear()
        if ab in [(0.0, 0.0), (1.0, 0.5)] and n in (64, 1024, 4096):
            assert counted == []
        monkeypatch.undo()
        assert np.array_equal(zeros, two_sweep_zeros(params, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 1024, 1025, 4096])
    @pytest.mark.parametrize("a", [-0.9, -0.45, 0.0, 0.5, 3.0, 150.0])
    def test_even_weight_matches_full_solve(self, a, n):
        params = JacobiParams(a, a)
        zeros = jacobi_zeros(params, n)
        full = eigh_tridiagonal(*jacobi_matrix(params, n), eigvals_only=True)
        np.testing.assert_allclose(zeros, full, rtol=0.0, atol=1e-14)
        assert np.all(np.diff(zeros) > 0)
        assert np.array_equal(zeros, -zeros[::-1])  # exact mirror symmetry
        if n % 2:
            assert zeros[n // 2] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 1024, 1025, 4096])
    @pytest.mark.parametrize("ab", [(0.5, 0.0), (-0.45, 3.0), (150.0, 0.0), (0.0, 150.0), (-0.9, 0.5), (3.0, 301.0),
                                    (1.0, 0.5)])
    def test_uneven_weight_is_the_full_solve(self, ab, n):
        # scipy's eigenvalue solve is an oracle here, to 1e-14: the package shares no code with it
        params = JacobiParams(*ab)
        zeros = jacobi_zeros(params, n)
        full = eigh_tridiagonal(*jacobi_matrix(params, n), eigvals_only=True)
        np.testing.assert_allclose(zeros, full, rtol=0.0, atol=1e-14)
        assert np.all(np.diff(zeros) > 0)

    @pytest.mark.parametrize("ab", [(1.0, 0.5), (150.0, 0.0)])
    def test_extreme_zeros_match_mpmath(self, ab):
        params, n = JacobiParams(*ab), 1024
        zeros = jacobi_zeros(params, n)
        ends = np.concatenate([zeros[:3], zeros[-3:]])
        want = [mp_zero_ab(params, n, z) for z in ends]
        np.testing.assert_allclose(ends, want, rtol=0.0, atol=2.3e-16)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, 0.5), (150.0, 0.0), (3.0, 301.0), (150.0, 150.0)])
    @pytest.mark.parametrize("n", [2, 9, 64, 255])
    def test_sturm_count_is_the_number_of_eigenvalues_below(self, ab, n):
        params = JacobiParams(*ab)
        diag, off = jacobi_matrix(params, n)
        dl, o2 = diag.tolist(), (off * off).tolist()
        full = eigh_tridiagonal(diag, off, eigvals_only=True)
        x = np.concatenate([np.linspace(-1.0, 1.0, 100), 0.5 * (full[1:] + full[:-1])])
        q, counts = jacobi._pivots(dl, o2, x, count=True)
        np.testing.assert_array_equal(counts, np.searchsorted(full, x))
        # the scalar pivots are the vector ones bit for bit (Newton takes either), also at alpha = beta,
        # where the vector step skips the zero diagonal; here and at the Newton guesses
        x = np.concatenate([x, jacobi._zero_guesses(params, n, n)])
        q = jacobi._pivots(dl, o2, x, count=True)[0]
        assert np.array_equal(q, [jacobi._pivot(dl, o2, v) for v in x.tolist()])

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, 0.5), (0.0, 150.0)])
    def test_bad_guesses_are_repaired_by_count(self, ab, monkeypatch):
        # every guess at one point: Newton sends them all to one or two zeros, and the Sturm
        # count must find every other zero by bisection and Newton
        params, n = JacobiParams(*ab), 200
        monkeypatch.setattr(jacobi, "_zero_guesses", lambda params, n, m: np.full(m, 0.3))
        jacobi_zeros.cache_clear()
        try:
            zeros = jacobi_zeros(params, n)
        finally:
            jacobi_zeros.cache_clear()
        full = eigh_tridiagonal(*jacobi_matrix(params, n), eigvals_only=True)
        np.testing.assert_allclose(zeros, full, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, 0.5)])
    def test_overlapping_intervals_fall_back_to_the_count(self, ab, monkeypatch):
        # one guess duplicated, the rest exact: both copies converge to one zero, so their Laguerre intervals
        # overlap, and the solve recounts at the converged midpoints; _repair finds the zero no copy reached,
        # and one more count confirms it
        params, n = JacobiParams(*ab), 200
        full = eigh_tridiagonal(*jacobi_matrix(params, n), eigvals_only=True)

        def duplicated(params, n, m):
            guesses = full[n - m:].copy()
            guesses[m // 2] = guesses[m // 2 + 1]
            return guesses

        pivots, repair, calls = jacobi._pivots, jacobi._repair, []

        def recorded(diag, off2, x, count=False):
            calls.append((x.size, bool(count)))
            return pivots(diag, off2, x, count)

        def repaired(*args):
            calls.append("repair")
            return repair(*args)

        monkeypatch.setattr(jacobi, "_zero_guesses", duplicated)
        monkeypatch.setattr(jacobi, "_pivots", recorded)
        monkeypatch.setattr(jacobi, "_repair", repaired)
        jacobi_zeros.cache_clear()
        try:
            zeros = jacobi_zeros(params, n)
        finally:
            jacobi_zeros.cache_clear()
        m = n // 2 if ab[0] == ab[1] else n
        # one uncounted Newton pass over the exact guesses, one recount, the repair, and its confirmation
        assert [c for c in calls if c == "repair" or c[0] == m] == [(m, False), (m, True), "repair", (m, True)]
        np.testing.assert_allclose(zeros, full, rtol=0.0, atol=1e-14)

    def test_non_finite_steps_are_repaired(self, monkeypatch):
        # an overflowing first Newton pass leaves no zero unrefined: each goes to the counted repair
        params, n = JacobiParams(1.0, 0.5), 300
        step = jacobi._newton_step
        calls = []

        def overflowing(*args):
            calls.append(1)
            s = step(*args)
            return np.full_like(s, np.inf) if len(calls) == 1 else s

        monkeypatch.setattr(jacobi, "_newton_step", overflowing)
        jacobi_zeros.cache_clear()
        try:
            zeros = jacobi_zeros(params, n)
        finally:
            jacobi_zeros.cache_clear()
        full = eigh_tridiagonal(*jacobi_matrix(params, n), eigvals_only=True)
        np.testing.assert_allclose(zeros, full, rtol=0.0, atol=1e-14)

    def test_uncertifiable_zeros_raise(self, monkeypatch):
        # guesses that collapse onto one zero leave Newton's intervals overlapping, and a count that never
        # matches must then raise, not return uncertified zeros
        pivots = jacobi._pivots

        def miscounted(diag, off2, x, count=False):
            q, neg = pivots(diag, off2, x, count)
            return q, (neg * 0 if count else neg)

        monkeypatch.setattr(jacobi, "_zero_guesses", lambda params, n, m: np.full(m, 0.3))
        monkeypatch.setattr(jacobi, "_pivots", miscounted)
        jacobi_zeros.cache_clear()
        try:
            with pytest.raises(RuntimeError):
                jacobi_zeros(JacobiParams(1.0, 0.5), 20)
        finally:
            jacobi_zeros.cache_clear()

    @pytest.mark.parametrize("ab", [(-1 + 1e-15, 0.0), (0.0, -1 + 1e-15)])
    def test_end_zero_rounding_to_one(self, ab):
        # the end zero at the weight near -1 rounds to -1 or 1, and is still certified
        params, n = JacobiParams(*ab), 1000
        assert mp_top_zero_rounds_to_one(JacobiParams(min(ab), max(ab)), n)
        zeros = jacobi_zeros(params, n)
        assert (zeros[-1] if ab[0] < 0 else -zeros[0]) == 1.0
        full = eigh_tridiagonal(*jacobi_matrix(params, n), eigvals_only=True)
        np.testing.assert_allclose(zeros, full, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("a", [0.0, 3.0, 150.0])
    def test_largest_zeros_match_mpmath(self, a):
        # the full solve is up to 5.7e-15 off here at alpha = 150; each Newton-stepped zero is within 2 ulp
        params, n = JacobiParams(a, a), 1024
        top = jacobi_zeros(params, n)[-3:]
        want = [mp_zero(params, n, z) for z in top]
        np.testing.assert_allclose(top, want, rtol=0.0, atol=2.3e-16)

    def test_cached_and_read_only(self):
        params = JacobiParams(0.25, 0.25)
        zeros = jacobi_zeros(params, 9)
        assert jacobi_zeros(params, 9) is zeros
        assert not zeros.flags.writeable
        with pytest.raises(ValueError):
            zeros[0] = 0.0
        assert not jacobi_zeros(JacobiParams(0.25, 0.0), 9).flags.writeable

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_below_one_raises(self, n):
        with pytest.raises(DomainError):
            jacobi_zeros(LEG, n)


def recurrence_finite(params, n, x):
    """Where the recurrence's P_n(x) is finite: eval_P raises if it is not at some x."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _, rn, ln in jacobi.jacobi_iter(params, x, n):
            pass
        return np.isfinite(rn * ln)


class TestEvalPFromZeros:
    @pytest.mark.parametrize(
        "ab, n",
        [(ab, n) for ab in [(0.0, 0.0), (1.0, 0.5), (-0.9, 0.5), (3.0, 301.0)] for n in (64, 1024, 4096)]
        + [((150.0, 0.0), n) for n in (64, 1024, 2000)],
    )
    def test_matches_mpmath_at_panel_midpoints(self, ab, n):
        # the theta-midpoints of the panels between zeros, where the series reaches farthest from its
        # zero: those after the 5th, 12th and 20th zero from each end, and six spread between. 30-digit
        # mpmath at the same rounded x; the error may be twice the recurrence's at the same points, or 1e-13
        params = JacobiParams(*ab)
        theta = np.arccos(jacobi_zeros(params, n))[::-1]
        k = np.unique(np.r_[[4, 11, 19], n - 2 - np.array([4, 11, 19]), np.linspace(25, n - 27, 6).astype(int)])
        x = np.cos(0.5 * (theta[k] + theta[k + 1]))
        x = x[recurrence_finite(params, n, x)]  # P_4096^(3, 301) overflows near x = -1
        with mpmath.workdps(30):
            want = np.array([float(mpmath.jacobi(n, *ab, xi)) for xi in x])

        def err(v):
            return np.max(np.abs(v - want) / np.abs(want))

        assert err(eval_P_from_zeros(params, n, x)) <= max(2.0 * err(eval_P(params, n, x)), 1e-13)

    @pytest.mark.parametrize("ab, n", [((150.0, 0.0), 2000), ((3.0, 301.0), 4096)])
    def test_finite_wherever_the_recurrence_is(self, ab, n):
        # P_2000^(150, 0) reaches ~1e228 near x = 1; unscaled, its series coefficients a_k would overflow
        params = JacobiParams(*ab)
        x = np.cos(np.linspace(0.0, math.pi, 4001))
        x = x[recurrence_finite(params, n, x)]
        assert np.isfinite(eval_P_from_zeros(params, n, x)).all()

    def test_points_in_any_order_across_blocks(self):
        # more points than a block of the series, in random order, near the ends too: each x is expanded
        # about its own nearest zero, or takes the recurrence
        params, n = JacobiParams(1.0, 0.5), 1024
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 3 * (B // 8) + 5)
        np.testing.assert_allclose(eval_P_from_zeros(params, n, x), eval_P(params, n, x), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, 0.5)])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_blocks_of_x_change_nothing_but_rounding(self, monkeypatch, ab, n):
        # the nearest-zero search and the eval_P_many pass run once over all of x; only the terms and
        # their Horner sum go by blocks of _BLOCK // 8 points, and a block of 8 points expands about
        # fewer zeros, which may end the terms a step sooner: values move by rounding at most
        params = JacobiParams(*ab)
        x = np.concatenate([np.random.default_rng(1).uniform(-1.0, 1.0, 3000),
                            np.cos(np.linspace(0.0, math.pi, 1001))])
        passes = []
        many = jacobi.eval_P_many
        monkeypatch.setattr(jacobi, "eval_P_many", lambda *args: passes.append(args[1]) or many(*args))
        whole = eval_P_from_zeros(params, n, x)
        monkeypatch.setattr(jacobi, "_BLOCK", 64)
        blocked = eval_P_from_zeros(params, n, x)
        assert passes == [[n, n - 1]] * 2
        np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0.0)
