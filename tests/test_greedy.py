import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobigreedy import greedy
from jacobigreedy.jacobi import JacobiParams, NormalizationMode
from jacobigreedy.greedy import (
    Expansion,
    JacobiFamily,
    basis_scales,
    default_search_family,
    democracy_scan,
    expansion_lp_norm,
    greedy_approx,
    greedy_ordering,
    quasi_greedy_ratio,
    sign_ratio,
)
from jacobigreedy.quadrature import EvaluationError, gauss_jacobi_rule

LEG = JacobiParams(0.0, 0.0)
ON = NormalizationMode.orthonormal()
SQ = NormalizationMode.sqrt_scaled()


def brute_force_order(coeffs: dict) -> tuple:
    """Oracle: lexicographically minimal among all magnitude-sorted permutations."""
    support = sorted(coeffs)
    valid = [
        perm
        for perm in itertools.permutations(support)
        if all(abs(coeffs[perm[i]]) >= abs(coeffs[perm[i + 1]]) for i in range(len(perm) - 1))
    ]
    return min(valid)


coeff_values = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
coeff_maps = st.dictionaries(st.integers(0, 15), coeff_values, min_size=1, max_size=6)


class TestGreedyOrdering:
    def test_magnitude_sort_with_tie(self):
        e = Expansion(LEG, ON, {0: 0.5, 1: -2.0, 2: 0.5})
        assert greedy_ordering(e) == (1, 0, 2)

    def test_singleton(self):
        e = Expansion(LEG, ON, {7: 3.0})
        assert greedy_ordering(e) == (7,)

    def test_all_equal_uses_natural_order(self):
        e = Expansion(LEG, ON, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        assert greedy_ordering(e) == (0, 1, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(coeffs=coeff_maps)
    def test_matches_brute_force(self, coeffs):
        e = Expansion(LEG, ON, coeffs)
        assert greedy_ordering(e) == brute_force_order(e.coeffs)

    @settings(max_examples=50, deadline=None)
    @given(coeffs=coeff_maps, scale=st.sampled_from([-3.0, -0.25, 0.5, 7.0]))
    def test_scale_equivariance(self, coeffs, scale):
        e = Expansion(LEG, ON, coeffs)
        scaled = Expansion(LEG, ON, {j: scale * c for j, c in coeffs.items()})
        assert greedy_ordering(e) == greedy_ordering(scaled)


class TestGreedyApprox:
    def test_m_zero_empty(self):
        e = Expansion(LEG, ON, {0: 1.0, 3: 2.0})
        assert greedy_approx(e, 0).coeffs == {}

    def test_full_retention(self):
        e = Expansion(LEG, ON, {0: 1.0, 3: 2.0})
        assert greedy_approx(e, 10).coeffs == e.coeffs

    def test_keeps_largest(self):
        e = Expansion(LEG, ON, {0: 0.5, 1: -2.0, 2: 0.5})
        assert greedy_approx(e, 1).coeffs == {1: -2.0}

    def test_nesting_and_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            support = rng.choice(30, size=rng.integers(1, 9), replace=False)
            e = Expansion(LEG, ON, {int(j): float(rng.normal()) for j in support})
            prev = set()
            for m in range(len(e.coeffs) + 1):
                g = greedy_approx(e, m)
                cur = set(g.coeffs)
                assert prev <= cur
                assert greedy_approx(g, m).coeffs == g.coeffs
                prev = cur
            assert greedy_approx(e, len(e.coeffs)).coeffs == e.coeffs

    def test_zero_coefficients_are_canonically_absent(self):
        e = Expansion(LEG, ON, {0: 0.0, 2: 1.0})
        assert e.support == (2,)


class TestQuasiGreedyRatio:
    def test_p2_orthonormal_contraction(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            support = rng.choice(40, size=rng.integers(1, 9), replace=False)
            e = Expansion(LEG, ON, {int(j): float(rng.normal()) for j in support})
            assert quasi_greedy_ratio(e, 2.0) == 1.0  # Parseval: sums of squares only grow

    def test_singleton_is_one(self):
        e = Expansion(LEG, ON, {4: -1.3})
        assert quasi_greedy_ratio(e, 3.0) == pytest.approx(1.0, rel=1e-9)

    def test_global_scaling_invariant(self):
        e = Expansion(LEG, ON, {1: 1.0, 5: -0.5, 8: 0.25})
        a = quasi_greedy_ratio(e, 3.0)
        b = quasi_greedy_ratio(Expansion(LEG, ON, {1: 42.0, 5: -21.0, 8: 10.5}), 3.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_block_plus_tail_ratio_grows_for_p_not_2(self):
        # random signs on the block keep the full sum near N^{1/2}, while a tiny
        # bump on the positive terms makes G_m isolate a constant-sign subset
        # whose coherent endpoint peak grows like N^{5/6} at p=3
        rng = np.random.default_rng(0)

        def crafted(N):
            signs = rng.integers(0, 2, size=N) * 2 - 1
            block = range(N, 3 * N, 2)
            coeffs = {j: (1.0 + 1e-6 if s > 0 else -1.0) for j, s in zip(block, signs)}
            return Expansion(LEG, SQ, coeffs)

        r16 = quasi_greedy_ratio(crafted(16), 3.0, tol=1e-7)
        r64 = quasi_greedy_ratio(crafted(64), 3.0, tol=1e-7)
        assert r64 > r16 > 1.0
        assert r64 > 1.5

    def test_perturbation_stability(self):
        # rescaling coefficients by lambda in [1/2, 2] changes the ratio boundedly
        rng = np.random.default_rng(11)
        for _ in range(10):
            support = rng.choice(20, size=6, replace=False)
            coeffs = {int(j): float(rng.normal()) for j in support}
            lam = {j: float(rng.uniform(0.5, 2.0)) for j in coeffs}
            base = quasi_greedy_ratio(Expansion(LEG, ON, coeffs), 3.0, tol=1e-7)
            pert = quasi_greedy_ratio(
                Expansion(LEG, ON, {j: lam[j] * c for j, c in coeffs.items()}), 3.0, tol=1e-7
            )
            assert pert <= 4.0 * base


class TestSignRatio:
    def test_all_plus_is_exactly_one(self):
        assert sign_ratio(LEG, ON, [0, 2, 5], [1, 1, 1], 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_singleton_either_sign(self):
        for s in (1.0, -1.0):
            assert sign_ratio(LEG, ON, [3], [s], 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            sign_ratio(LEG, ON, [0, 1], [1.0, 0.5], 2.0)

    def test_p2_orthonormal_sign_invariant(self):
        assert sign_ratio(LEG, ON, [0, 1, 4, 9], [1, -1, -1, 1], 2.0) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_signs_pair_with_A_in_given_order(self):
        got = sign_ratio(LEG, ON, [4, 0, 2], [1, -1, 1], 3.0, tol=1e-6)
        assert got == sign_ratio(LEG, ON, [0, 2, 4], [-1, 1, 1], 3.0, tol=1e-6)
        assert got == sign_ratio(LEG, ON, [4, 0, 2], {0: -1, 2: 1, 4: 1, 7: -1}, 3.0, tol=1e-6)
        assert got == pytest.approx(0.8027, abs=1e-4)  # 0.8576 if the signs pair with sorted A

    @pytest.mark.parametrize(
        "A,signs,message",
        [
            ([0, 2, 4], [1, -1], "2 signs for 3 indices"),
            ([0, 2, 4], [1, -1, 1, 1], "4 signs for 3 indices"),
            ([0, 2, 2], [1, -1, 1], "repeated index"),
            ([0, 2, 4], {0: 1.0, 2: -1.0}, r"no entry for \[4\]"),
        ],
    )
    def test_rejects_signs_that_do_not_match_A(self, A, signs, message):
        with pytest.raises(ValueError, match=message):
            sign_ratio(LEG, ON, A, signs, 3.0, tol=1e-6)

    def test_one_family_norms_call(self, monkeypatch):
        calls, real = [], greedy.family_norms
        monkeypatch.setattr(greedy, "family_norms", lambda *a, **k: calls.append(a) or real(*a, **k))
        sign_ratio(LEG, SQ, [9, 2, 5], [1, -1, -1], 3.0, tol=1e-6)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize(
        "ab,A",
        [((0.0, 0.0), [9, 3, 5, 7]), ((0.0, 0.0), [8, 3, 6, 1]), ((0.5, -0.2), [6, 1, 4, 2])],
    )
    def test_equals_quotient_of_expansion_norms(self, ab, A, p):
        # one parity at alpha = beta (folded mesh), mixed parity, alpha != beta
        params, signs = JacobiParams(*ab), [1.0, -1.0, -1.0, 1.0]
        num = Expansion(params, SQ, dict(zip(A, signs)))
        den = Expansion(params, SQ, {j: 1.0 for j in A})
        quotient = expansion_lp_norm(num, p, 1e-6) / expansion_lp_norm(den, p, 1e-6)
        assert sign_ratio(params, SQ, A, signs, p, tol=1e-6) == quotient


class TestBasisScales:
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (1.5, -0.3)])
    def test_p2_lp_normalized_is_orthonormal(self, ab):
        # ||p_n||_2 = 1 by definition, so the L2-normalized basis is the orthonormal one
        params = JacobiParams(*ab)
        degrees = (0, 5, 40, 100)
        got = basis_scales(params, NormalizationMode.lp_normalized(2.0), degrees)
        assert np.array_equal(got, basis_scales(params, ON, degrees))

    @pytest.mark.parametrize("degrees", [(-1, 2), (3, -2), ()])
    def test_family_rejects_negative_or_empty_degrees(self, degrees):
        # as Expansion does: a negative degree was dropped from some norms and read as an
        # unwritten row by others, and an empty family failed only off p = 2
        with pytest.raises(ValueError, match="degrees"):
            JacobiFamily(LEG, SQ, degrees)


class TestExpansionNorm:
    def test_p2_parseval(self):
        e = Expansion(LEG, ON, {0: 3.0, 2: -4.0})
        assert expansion_lp_norm(e, 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_p2_matches_mesh_path(self):
        e = Expansion(LEG, SQ, {j: 1.0 for j in (4, 6, 8)})
        exact = expansion_lp_norm(e, 2.0)
        # bypass the fast path by integrating |f|^2 on the graded mesh
        from jacobigreedy.quadrature import lp_norm

        general = lp_norm(e.evaluate, LEG, 2.0, degree=8, tol=1e-10)
        assert general == pytest.approx(exact, rel=1e-9)

    def test_p2_large_alpha_high_degree(self):
        # P_2000^(150,0) reaches ~1e228 near x = 1, so p_2000^2 on quadrature nodes overflows
        e = Expansion(JacobiParams(150.0, 0.0), ON, {2000: 1.0, 5: 2.0})
        assert expansion_lp_norm(e, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    @pytest.mark.parametrize("mode", [ON, SQ])
    def test_p2_no_overflow_at_alpha_300(self, mode):
        e = Expansion(JacobiParams(300.0, 0.0), mode, {3000: 1.0, 7: -0.5})
        assert math.isfinite(expansion_lp_norm(e, 2.0))
        assert quasi_greedy_ratio(e, 2.0) == 1.0

    @pytest.mark.parametrize("call", [expansion_lp_norm, quasi_greedy_ratio])
    def test_mesh_overflow_names_the_recurrence_and_degree(self, call):
        # P_3001^(300,300) passes the largest double near x = +-1 on the p = 3 mesh
        e = Expansion(JacobiParams(300.0, 300.0), SQ, {3000: 1.0, 3001: -0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one error, no cascade of numpy RuntimeWarnings
            with pytest.raises(EvaluationError, match="recurrence overflowed on the mesh of degree 3001$"):
                call(e, 3.0)

    @pytest.mark.parametrize("call", [expansion_lp_norm, quasi_greedy_ratio])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_is_not_an_overflow(self, call, bad):
        e = Expansion(LEG, SQ, {2: 1.0, 5: bad})
        for p in (2.0, 3.0):
            with pytest.raises(EvaluationError, match="coefficients must be finite"):
                call(e, p)

    @pytest.mark.parametrize("alpha,beta", [(1.5, -0.3), (-0.45, 2.0)])
    def test_p2_parseval_matches_gauss_rule(self, alpha, beta):
        params = JacobiParams(alpha, beta)
        for mode in (ON, SQ):
            e = Expansion(params, mode, {0: 0.7, 3: -1.2, 8: 2.5, 13: 0.4, 21: -0.9})
            rule = gauss_jacobi_rule(params, 30)  # exact for e^2, degree 42
            oracle = math.sqrt(rule.integrate(lambda x: e.evaluate(x) ** 2))
            assert expansion_lp_norm(e, 2.0) == pytest.approx(oracle, rel=1e-12)

    def test_empty_expansion_norm_zero(self):
        assert expansion_lp_norm(Expansion(LEG, ON, {}), 3.0) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_family_norms_call(self, monkeypatch, p):
        calls, real = [], greedy.family_norms
        monkeypatch.setattr(greedy, "family_norms", lambda *a, **k: calls.append(a) or real(*a, **k))
        expansion_lp_norm(Expansion(LEG, SQ, {3: 1.0, 8: -0.5, 5: 2.0}), p, tol=1e-6)
        assert len(calls) == 1


class TestDemocracyScan:
    def test_p2_orthonormal_all_sets_sqrt_N(self):
        rep = democracy_scan(LEG, ON, 9, 2.0)
        assert rep.phi_u_estimate == pytest.approx(3.0, abs=1e-6)
        assert rep.phi_l_estimate == pytest.approx(3.0, abs=1e-6)

    def test_size_one(self):
        rep = democracy_scan(LEG, ON, 1, 3.0)
        assert rep.phi_l_estimate <= rep.phi_u_estimate
        assert rep.phi_u_estimate == pytest.approx(1.0, rel=0.5)

    def test_default_family_contents(self):
        fam = default_search_family(6, seed=0)
        assert fam["contiguous"] == (0, 1, 2, 3, 4, 5)
        assert fam["staggered"] == (6, 8, 10, 12, 14, 16)
        assert fam["lacunary"] == (1, 2, 4, 8, 16, 32)
        assert all(len(v) == 6 for v in fam.values())

    def test_ordering_of_estimates(self):
        rep = democracy_scan(LEG, SQ, 8, 3.0, tol=1e-6)
        assert rep.phi_l_estimate <= rep.phi_u_estimate
        assert "upper" in rep.witness_sets and "lower" in rep.witness_sets
