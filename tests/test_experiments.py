import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobigreedy import jacobi
from jacobigreedy.jacobi import JacobiParams, NormalizationMode
from jacobigreedy.experiments import (
    ExperimentConfig,
    average_block_experiment,
    block_sum_experiment,
    critical_exponents,
    darboux_envelope,
    fit_loglog,
    geometric_grid,
    geometric_sum_identity_check,
    main_theorem_witness,
    near_one_experiment,
    norm_regimes_experiment,
    omega_exponent,
    staggered_block,
)

LEG = JacobiParams(0.0, 0.0)


class TestCriticalExponents:
    def test_legendre(self):
        p, q = critical_exponents(LEG)
        assert p == pytest.approx(4 / 3, rel=1e-14)
        assert q == pytest.approx(4.0, rel=1e-14)

    def test_half_zero(self):
        p, q = critical_exponents(JacobiParams(0.5, 0.0))
        assert p == pytest.approx(1.5, rel=1e-14)
        assert q == pytest.approx(3.0, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(-0.45, 4.0), b=st.floats(-0.45, 4.0))
    def test_conjugacy(self, a, b):
        p, q = critical_exponents(JacobiParams(a, b))
        assert p * q == pytest.approx(p + q, rel=1e-12)

    def test_rejects_below_half(self):
        with pytest.raises(ValueError):
            critical_exponents(JacobiParams(-0.6, 0.0))


class TestOmegaExponent:
    def test_half_at_p2_for_all_params(self):
        for ab in [(0.0, 0.0), (1.0, 0.0), (0.3, 1.7)]:
            assert omega_exponent(JacobiParams(*ab), 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_legendre_p3(self):
        assert omega_exponent(LEG, 3.0) == pytest.approx(5 / 6, rel=1e-14)

    def test_half_only_at_p2(self):
        for p in (1.5, 1.9, 2.1, 3.0, 3.9):
            assert abs(omega_exponent(LEG, p) - 0.5) > 1e-3

    def test_outside_schauder_range(self):
        with pytest.raises(ValueError):
            omega_exponent(LEG, 5.0)


class TestFitLoglog:
    def test_exact_power_law(self):
        xs = [8, 16, 32, 64]
        ys = [3.0 * x**1.7 for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_drop_smallest_when_biased(self):
        xs = [8, 16, 32, 64, 128]
        ys = [x**0.5 for x in xs]
        ys[0] *= 3.0  # pre-asymptotic outlier
        fit = fit_loglog(xs, ys, resid_tol=0.05)
        assert fit.dropped_smallest
        assert fit.slope == pytest.approx(0.5, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([1, 2], [1.0, -1.0])


class TestGrids:
    def test_geometric_grid(self):
        assert geometric_grid(8, 64) == [8, 16, 32, 64]
        assert geometric_grid(10, 1000) == [10, 20, 40, 80, 160, 320, 640]

    def test_staggered_block(self):
        assert staggered_block(1) == (1,)
        assert staggered_block(4) == (4, 6, 8, 10)


class TestGeometricSumIdentity:
    def test_single_term(self):
        from jacobigreedy.jacobi import darboux_phase

        th = np.array([0.3, 1.1, 2.5])
        dev = geometric_sum_identity_check(1, th, LEG)
        # N = 1: both sides reduce to |cos(theta + phi)|
        assert dev < 1e-14
        phi = darboux_phase(LEG, th)
        assert np.allclose(np.abs(np.cos(th + phi)), np.abs(np.cos(th + phi)))

    def test_n3_at_half_pi(self):
        assert geometric_sum_identity_check(3, [math.pi / 2], LEG) < 1e-12

    def test_fuzz(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            N = int(rng.integers(1, 65))
            th = rng.uniform(0.01, math.pi - 0.01, size=8)
            worst = max(worst, geometric_sum_identity_check(N, th))
        assert worst < 1e-9

    def test_rejects_sin_zero(self):
        with pytest.raises(ValueError):
            geometric_sum_identity_check(2, [0.0])


class TestNormRegimes:
    def test_p2_orthonormal_flat(self):
        cfg = ExperimentConfig(params=LEG, p=2.0, n_grid=(16, 32, 64, 128))
        fit = norm_regimes_experiment(cfg)
        assert fit.label == "bounded"
        assert abs(fit.slope) < 0.01
        assert all(abs(y - 1) < 1e-6 for y in fit.ys)

    def test_critical_regime_label(self):
        cfg = ExperimentConfig(params=LEG, p=4.0, n_grid=(16, 32, 64, 128))
        fit = norm_regimes_experiment(cfg)
        assert fit.label == "critical"
        assert fit.slope > 0


class TestBlockSum:
    def test_requires_sqrt_mode(self):
        cfg = ExperimentConfig(params=LEG, p=3.0, N_grid=(4, 8))
        with pytest.raises(ValueError):
            block_sum_experiment(cfg)

    def test_p2_slope_half(self):
        cfg = ExperimentConfig(
            params=LEG, p=2.0, mode=NormalizationMode.sqrt_scaled(), N_grid=(8, 16, 32, 64)
        )
        fit = block_sum_experiment(cfg)
        assert fit.slope == pytest.approx(0.5, abs=0.03)

    def test_block_norm_matches_dense_trapezoid(self):
        # independent oracle: brute-force trapezoid in theta with 10^6 points
        from jacobigreedy.greedy import Expansion, expansion_lp_norm
        from jacobigreedy.quadrature import mu_theta_weight

        N, p = 8, 3.0
        mode = NormalizationMode.sqrt_scaled()
        e = Expansion(LEG, mode, {j: 1.0 for j in staggered_block(N)})
        fast = expansion_lp_norm(e, p, tol=1e-8)
        th = np.linspace(1e-9, math.pi - 1e-9, 1_000_001)
        integrand = np.abs(e.evaluate(np.cos(th))) ** p * mu_theta_weight(LEG, th)
        brute = np.trapezoid(integrand, th) ** (1 / p)
        assert fast == pytest.approx(brute, rel=1e-3)


class TestAverageBlock:
    def test_p2_exact_sqrt(self):
        cfg = ExperimentConfig(params=LEG, p=2.0, N_grid=(4, 8, 16), samples=8, seed=1)
        res = average_block_experiment(cfg)
        for N, v in zip(cfg.N_grid, res.square_fit.ys):
            assert v == pytest.approx(math.sqrt(N), abs=1e-6)
        assert res.square_fit.slope == pytest.approx(0.5, abs=1e-6)

    def test_rejects_p_at_or_above_q_crit(self):
        cfg = ExperimentConfig(params=LEG, p=4.0, N_grid=(4, 8))
        with pytest.raises(ValueError):
            average_block_experiment(cfg)


class TestNearOne:
    def test_legendre_upper_envelope_is_one(self):
        res = near_one_experiment(LEG, (10, 20, 40), d_sweep=(0.5,))
        d, lo, hi = res.rows[0]
        assert hi == pytest.approx(1.0, abs=1e-12)  # P_n(1) = 1 for alpha = 0
        assert lo > 0.7
        assert res.chosen_d == 0.5

    def test_root_scaling(self):
        res = near_one_experiment(LEG, (10, 20, 40, 80, 160), d_sweep=(0.5,))
        assert res.root_fit.slope == pytest.approx(-2.0, abs=0.06)


class TestDarbouxEnvelope:
    def test_envelope_flat_for_legendre(self):
        rows = darboux_envelope(LEG, (16, 64, 256))
        vals = [v for _, v in rows]
        assert max(vals) <= 2 * vals[0]


class TestRecurrencePasses:
    """Each pointwise experiment starts one recurrence per degree at most: near-one one pass per n
    for all its windows, darboux-check one pass for its whole grid."""

    @pytest.fixture
    def passes(self, monkeypatch):
        started = []
        kernel = jacobi.jacobi_iter

        def counted(params, x, nmax):
            started.append(nmax)
            return kernel(params, x, nmax)

        monkeypatch.setattr(jacobi, "jacobi_iter", counted)
        return started

    def test_near_one_one_pass_per_degree(self, passes):
        n_grid = (10, 20, 40, 80)
        near_one_experiment(JacobiParams(1.5, 0.5), n_grid, d_sweep=(0.5, 0.25, 0.125))
        assert passes == list(n_grid)

    def test_darboux_one_pass(self, passes):
        darboux_envelope(JacobiParams(1.0, 0.5), (16, 32, 64, 128))
        assert passes == [128]


class TestWitness:
    def test_p2_verdict_quasi_greedy(self):
        rep = main_theorem_witness(LEG, 2.0, (8, 16, 32, 64), seed=3, samples=8, tol=1e-6)
        assert abs(rep.gap) < 0.04
        assert rep.verdict == "consistent with quasi-greedy"

    def test_p3_verdict_non_quasi_greedy(self):
        rep = main_theorem_witness(LEG, 3.0, (8, 16, 32, 64), seed=3, samples=8, tol=1e-6)
        assert rep.gap > 0.2
        assert rep.verdict == "consistent with non-quasi-greedy"
        assert len(rep.sign_ratios) == 4
