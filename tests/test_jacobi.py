import math

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
    eval_P_many,
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


def reference_P(params, n, x):
    """P_n(x) by the allocating forward recurrence, in the kernel's operation order."""
    a, b = params.alpha, params.beta
    x = np.asarray(x, dtype=float)
    p_prev, p_cur = np.ones_like(x), 0.5 * (a + b + 2.0) * x + 0.5 * (a - b)
    if n == 0:
        return p_prev
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        c1 = 2.0 * k * (k + a + b) * (s - 2.0)
        c2 = (s - 1.0) * (a * a - b * b)
        c3 = (s - 1.0) * s * (s - 2.0)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p_prev, p_cur = p_cur, (x * (c3 / c1) + c2 / c1) * p_cur - p_prev * (c4 / c1)
    return p_cur


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
        for n, pn in jacobi.jacobi_iter(self.PARAMS, x, 4):
            assert isinstance(pn, np.ndarray) and pn.shape == shape
            assert np.array_equal(pn, reference_P(self.PARAMS, n, x))
            seen.append(pn)
        # three buffers rotate: step n overwrites the array yielded at step n - 3
        assert seen[4] is seen[1] and seen[3] is seen[0]

    def test_eval_many_repeated_unsorted_degrees_across_blocks(self):
        x = np.cos(np.linspace(0.0, math.pi, B + 5))
        degrees = [7, 0, 7, 3, 12, 1]
        rows = eval_P_many(self.PARAMS, degrees, x)
        assert rows.shape == (len(degrees), x.size)
        for row, d in zip(rows, degrees):
            assert np.array_equal(row, reference_P(self.PARAMS, d, x))

    def test_combination_across_blocks(self):
        x = np.cos(np.linspace(0.0, math.pi, B + 5))
        coeffs = {0: 0.5, 4: -1.25, 9: 2.0}
        want = np.zeros_like(x)
        for n in range(max(coeffs) + 1):
            if n in coeffs:
                want += coeffs[n] * reference_P(self.PARAMS, n, x)
        assert np.array_equal(jacobi_combination(self.PARAMS, coeffs, x), want)

    @pytest.mark.parametrize(
        "a, b, n, x",
        [(0.0, 0.0, 7, 0.3), (-0.49, 0.2, 40, 0.91), (-0.45, -0.45, 13, -0.62),
         (2.5, 1.0, 60, 0.05), (0.5, -0.3, 101, 0.999)],
    )
    def test_matches_mpmath(self, a, b, n, x):
        with mpmath.workdps(30):
            want = float(mpmath.jacobi(n, a, b, x))
        assert eval_P(JacobiParams(a, b), n, x) == pytest.approx(want, rel=1e-11, abs=1e-13)
        assert eval_P(JacobiParams(a, b), n, np.array([x, x]))[1] == pytest.approx(want, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("x", [[0.999], [0.999, 0.998]])
    def test_overflow_raises_in_every_evaluator(self, x):
        params = JacobiParams(400.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                jacobi_combination(params, {3000: 1.0}, x)
            with pytest.raises(OverflowError):
                eval_P_many(params, [3000], x)
            with pytest.raises(OverflowError):
                eval_P(params, 3000, x)

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

    def test_legendre_ratio_envelope(self):
        (_, lo, hi), = near_one_experiment(LEG, (10, 40, 160, 640), d_sweep=(0.5,)).rows
        assert lo > 0.7  # limit value is J_0(1) ~ 0.765
        assert hi <= 1.0 + 1e-12

    def test_alpha_one_bounded(self):
        params = JacobiParams(1.0, 0.0)
        for n in (10, 100, 1000):
            ratio = eval_P(params, n, 1.0) / n  # (n+1)/n
            assert 1.0 <= ratio <= 1.2


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
    @pytest.mark.parametrize("ab", [(150.0, 0.0), (0.0, 150.0)])
    def test_extreme_weight_matches_zeros_and_mpmath(self, ab, n):
        params = JacobiParams(*ab)
        z = largest_root(params, n)
        want = mp_zero_ab(params, n, z)
        assert abs(z - want) <= 2 * math.ulp(want)
        assert abs(z - jacobi_zeros(params, n)[-1]) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("a", [-1 + 1e-15, -1 + 1e-12])
    def test_top_zero_rounding_to_one(self, a):
        # at alpha near -1 the top zero is within 1e-17 of 1, and the count stays below n up to 1 itself
        params = JacobiParams(a, 0.0)
        assert mp_top_zero_rounds_to_one(params, 1000)
        assert largest_root(params, 1000) == 1.0

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


class TestJacobiZeros:
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
        full = eigh_tridiagonal(diag, off, eigvals_only=True)
        x = np.concatenate([np.linspace(-1.0, 1.0, 100), 0.5 * (full[1:] + full[:-1])])
        counts = jacobi._pivots(diag.tolist(), (off * off).tolist(), x, count=True)[1]
        np.testing.assert_array_equal(counts, np.searchsorted(full, x))
        assert [jacobi._pivot(diag.tolist(), (off * off).tolist(), v)[1] for v in x[:20]] == list(counts[:20])

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
        # a count that never matches must raise, not return uncertified zeros
        pivots = jacobi._pivots

        def miscounted(diag, off2, x, count=False):
            q, neg = pivots(diag, off2, x, count)
            return q, (neg * 0 if count else neg)

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
