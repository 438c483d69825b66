import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist.distances import (
    DEFAULT_KL_FLOOR,
    cross_correlation,
    fit_affine,
    fit_proportionality,
    floored,
    js_divergences,
    kl_matrices,
    mean_kls,
)
from specdist.errors import (
    AnalysisError,
    ConfigurationError,
    DegenerateFitError,
    DimensionError,
    UndefinedCorrelationError,
)
from specdist.pipeline import AnalysisConfig, analyze
from specdist.spectra import SignalPanel, entropies

from oracles import (
    double_loop_mean,
    random_spectrum,
    scalar_entropy,
    scalar_kl,
    two_pass_correlation,
)


def stack(*members):
    """Member distributions as an (M, B) array, one row each."""
    return np.array(members, dtype=float)


def uniform(m):
    return np.full(m, 1.0 / m)


def kl_pair(p, q, floor=DEFAULT_KL_FLOOR):
    """KL(p, q): entry (0, 1) of the KL matrix of the stack of p and q."""
    return kl_matrices(floored(stack(p, q), floor))[0, 1]


def kl_matrix(probs, floor=DEFAULT_KL_FLOOR):
    return kl_matrices(floored(probs, floor))


def random_ensemble(rng, m, bins, sharpness=1.0):
    return stack(*(random_spectrum(rng, bins, sharpness) for _ in range(m)))


def noise_panel(m, length=128, seed=0):
    rng = np.random.default_rng(seed)
    return SignalPanel(rng.normal(size=(m, length)), tuple(f"ch{i}" for i in range(m)), 1.0)


class TestKlDistance:
    def test_identical_spectra_vanish(self):
        p = [0.2, 0.3, 0.5]
        assert kl_pair(p, p, floor=1e-12) <= 1e-12

    def test_disjoint_support_literal_is_infinite(self):
        assert kl_pair([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], floor=0.0) == math.inf

    def test_two_bin_analytic_value(self):
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_pair([0.75, 0.25], [0.5, 0.5], floor=0.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_scalar_oracle_with_floor(self):
        rng = np.random.default_rng(5)
        for sharpness in (1.0, 4.0):
            p = random_spectrum(rng, 16, sharpness)
            q = random_spectrum(rng, 16, sharpness)
            got = kl_pair(p, q, floor=1e-12)
            assert got == pytest.approx(scalar_kl(p, q, 1e-12), rel=1e-10)

    @pytest.mark.parametrize("floor", [-1e-12, math.nan, math.inf])
    def test_floor_must_be_finite_and_nonnegative(self, floor):
        with pytest.raises(ValueError, match="floor must be finite and nonnegative"):
            floored(np.array([[0.5, 0.5]]), floor)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_gibbs_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        p = random_spectrum(rng, 12)
        q = random_spectrum(rng, 12)
        assert kl_pair(p, q) >= 0.0
        assert kl_pair(p, p) <= 1e-12


class TestJsDivergence:
    def test_identical_members_vanish(self):
        p = [0.1, 0.2, 0.7]
        assert js_divergences(stack(p, p, p), uniform(3)) <= 1e-12

    def test_disjoint_deltas_reach_log_two(self):
        js = js_divergences(stack([1.0, 0.0], [0.0, 1.0]), uniform(2))
        assert js == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed_two_member_value(self):
        mixture = [0.75, 0.25]
        expected = scalar_entropy(mixture) - 0.5 * scalar_entropy([1.0, 0.0]) - 0.5 * scalar_entropy([0.5, 0.5])
        got = js_divergences(stack([1.0, 0.0], [0.5, 0.5]), uniform(2))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.21576, abs=5e-6)

    def test_close_members_keep_their_digits(self):
        """JS and KL of members 6e-6 apart, against 50-digit references.

        Taken as differences of entropies near 0.48, these values would keep
        only about four digits.  The JS reference uses the weights scaled to
        sum exactly to one; as floats they sum to 1 - 1.1e-16.
        """
        probs = stack([0.18501585134402115, 0.8149841486559789], [0.1850170005976704, 0.8149829994023295])
        weights = np.array([0.47859044117810257, 0.5214095588218973])
        assert js_divergences(probs, weights) == pytest.approx(1.0929131171280618e-12, rel=1e-9, abs=0.0)
        kl = kl_matrices(probs)
        assert kl[0, 1] == pytest.approx(4.3797901825105766e-12, rel=1e-9, abs=0.0)
        assert kl[1, 0] == pytest.approx(4.3795751475509163e-12, rel=1e-9, abs=0.0)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="3 weights for 2 channels"):
            analyze(noise_panel(2), AnalysisConfig(width=64, weights=(0.5, 0.25, 0.25)))

    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 6),
        bins=st.integers(2, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_weight_entropy(self, seed, m, bins):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, m, bins, sharpness=rng.uniform(0.5, 5.0))
        raw = rng.random(m) + 0.05
        weights = raw / raw.sum()
        js = js_divergences(ens, weights)
        assert 0.0 <= js <= entropies(weights) + 1e-9

    @given(seed=st.integers(0, 2**16), m=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_mean_kl_dominates_js(self, seed, m):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, m, 24, sharpness=rng.uniform(0.5, 6.0))
        js = js_divergences(ens, uniform(m))
        mk = mean_kls(kl_matrix(ens, floor=1e-12))
        assert mk >= js - 1e-9


    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(2, 12),
        bins=st.integers(2, 256),
        eps=st.floats(1e-3, 0.02),
        uniform_weights=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_half_the_weighted_mean_kl_for_close_members(self, seed, m, bins, eps, uniform_weights):
        """JS / sum_ij pi_i pi_j KL_ij -> 1/2 as the members close in on their mixture.

        With x_i = p_i / mbar - 1 and eta = max |x_i| < 1, S = sum_i pi_i sum_b
        mbar x_i^2, and a = eta / (3 (1 - eta)^2):
        - JS = sum_i pi_i KL(p_i, mbar) = sum_i pi_i sum_b mbar f(x_i) with
          f(x) = (1+x) log(1+x) - x = x^2/2 + R, |R| <= |x|^3 / (6 (1-eta)^2),
          so JS = S/2 (1 + t) with |t| <= a;
        - KL_ij + KL_ji = sum_b mbar (x_i - x_j)(log(1+x_i) - log(1+x_j)), and
          by the mean value theorem each bin's term is (x_i - x_j)^2 / (1 + xi),
          |xi| <= eta; since sum_i pi_i x_i = 0, 1/2 sum_ij pi_i pi_j sum_b
          mbar (x_i - x_j)^2 = S, so the weighted mean KL lies in
          [S / (1 + eta), S / (1 - eta)].
        Hence |ratio - 1/2| <= (eta + a (1 + eta)) / 2, which is at most
        eta for eta <= 0.1: the law holds to O(eta), whatever M, the bins and
        the weights.  Members q (1 + eps u_i), u_i uniform on [-1, 1], keep
        eta <= ((1 + eps) / (1 - eps))^2 - 1 < 0.1 for eps <= 0.02.
        """
        rng = np.random.default_rng(seed)
        base = rng.dirichlet(np.ones(bins)) + 1e-3
        members = base * (1.0 + eps * rng.uniform(-1.0, 1.0, size=(m, bins)))
        probs = members / members.sum(axis=1, keepdims=True)
        weights = uniform(m) if uniform_weights else rng.dirichlet(np.ones(m))
        eta = float(np.abs(probs / (weights @ probs) - 1.0).max())
        assert eta <= 0.1
        js = float(js_divergences(probs, weights))
        weighted_kl = float(weights @ kl_matrices(probs) @ weights)
        if uniform_weights:
            assert weighted_kl == pytest.approx(float(mean_kls(kl_matrices(probs))), rel=1e-12)
        assert abs(js / weighted_kl - 0.5) <= eta


class TestKlMatrix:
    def test_identical_members_give_zero_matrix(self):
        p = [0.25, 0.25, 0.5]
        matrix = kl_matrix(stack(p, p, p))
        assert np.all(matrix == 0.0)

    def test_diagonal_zero_entries_nonnegative(self):
        rng = np.random.default_rng(9)
        matrix = kl_matrix(random_ensemble(rng, 5, 16, sharpness=3.0))
        assert np.all(np.diag(matrix) == 0.0)
        assert np.all(matrix >= 0.0)

    def test_matches_per_entry_recomputation(self):
        rng = np.random.default_rng(17)
        members = [random_spectrum(rng, 15) for _ in range(3)]
        matrix = kl_matrix(stack(*members), floor=1e-12)
        for l in range(3):
            for m in range(3):
                expected = 0.0 if l == m else scalar_kl(members[l], members[m], 1e-12)
                assert matrix[l, m] == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_asymmetry_is_real(self):
        matrix = kl_matrix(stack([0.9, 0.05, 0.05], [1 / 3, 1 / 3, 1 / 3]))
        assert matrix[0, 1] != matrix[1, 0]


class TestMeanKl:
    def test_zero_matrix(self):
        assert mean_kls(np.zeros((3, 3))) == 0.0

    def test_two_by_two(self):
        assert mean_kls(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.5

    def test_random_matrix_matches_double_loop(self):
        rng = np.random.default_rng(31)
        matrix = rng.random((20, 20))
        assert mean_kls(matrix) == pytest.approx(double_loop_mean(matrix.tolist()), rel=1e-12)


class TestCrossCorrelation:
    def test_self_correlation_is_one(self):
        a = np.array([0.3, 1.2, -0.4, 2.0])
        assert cross_correlation(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_negated_series(self):
        a = np.array([1.0, 2.0, 5.0])
        assert cross_correlation(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        assert cross_correlation([1.0, 2.0, 3.0], [2.0, 4.0, 7.0]) == pytest.approx(
            two_pass_correlation([1, 2, 3], [2, 4, 7]), rel=1e-12
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            cross_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("mean, sd", [(1.0, 1e-6), (1e4, 1e-3), (1.0, 1e-8), (100.0, 1e-6)])
    def test_small_spread_about_a_large_mean_matches_two_pass_oracle(self, mean, sd):
        """124 pairs with a coefficient near 0.8, offset by `mean` and scaled by `sd`:
        the coefficient is within 1e-9 of the centred two-pass oracle."""
        z = np.random.default_rng(17).normal(size=(2, 124))
        x, y = mean + sd * z[0], mean + sd * (0.8 * z[0] + 0.6 * z[1])
        assert abs(cross_correlation(x, y) - two_pass_correlation(x.tolist(), y.tolist())) <= 1e-9

    def test_tiny_series_correlate(self):
        """Sums of squares near 1e-200 multiply below the smallest float, yet
        the coefficient is that of the series scaled up, within 1e-12."""
        x, y = np.array([0.0, 1.0, 3.0, 2.0]), np.array([1.0, 2.0, 4.0, 4.5])
        want = two_pass_correlation(x.tolist(), y.tolist())
        assert abs(cross_correlation(1e-100 * x, 1e-100 * y) - want) <= 1e-12

    def test_underflowing_spread_is_undefined_not_a_division_by_zero(self):
        with pytest.raises(UndefinedCorrelationError, match="underflows"):
            cross_correlation([0.0, 1e-170, 3e-170], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cross_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "x, y",
        [([1.0], [2.0]), ([[1.0, 2.0]], [[1.0, 2.0]])],
        ids=["one_sample", "two_dimensional"],
    )
    def test_shape_rejected_by_every_fit(self, x, y):
        for fn in (cross_correlation, fit_proportionality, fit_affine):
            with pytest.raises(DimensionError):
                fn(x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_by_every_fit(self, bad):
        for fn in (cross_correlation, fit_proportionality, fit_affine):
            with pytest.raises(ValueError, match="must be finite"):
                fn([1.0, 2.0, bad], [1.0, 2.0, 3.0])


class TestProportionalityFit:
    def test_exact_proportionality_recovers_coefficient(self):
        x = np.array([0.5, 1.0, 2.0, 4.0])
        assert fit_proportionality(x, 0.42 * x) == pytest.approx(0.42, abs=1e-12)

    def test_direct_formula(self):
        assert fit_proportionality([1.0, 2.0], [1.0, 1.0]) == pytest.approx(0.6)

    def test_all_zero_regressor_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_proportionality([0.0, 0.0], [1.0, 2.0])

    @given(scale=st.floats(min_value=0.001, max_value=1000.0), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_scale_consistency(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(8) + 0.1
        y = rng.random(8)
        base = fit_proportionality(x, y)
        scaled = fit_proportionality(scale * x, scale * y)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_affine_fit_recovers_line(self):
        slope, intercept = fit_affine([0.0, 1.0, 2.0, 3.0], [1.0, 1.5, 2.0, 2.5])
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_affine_fit_against_a_constant_series_rejected(self):
        with pytest.raises(DegenerateFitError, match="constant series"):
            fit_affine([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_series_is_one_whose_values_are_all_equal(self):
        """Whether a constant series is refused does not depend on how its mean
        rounds: 0.1 three times rounds to a mean 1 ulp above 0.1."""
        with pytest.raises(DegenerateFitError, match="constant series"):
            fit_affine([0.1] * 3, [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError, match="constant series"):
            cross_correlation([0.1] * 3, [1.0, 2.0, 3.0])

    def test_affine_fit_against_an_underflowing_spread_rejected(self):
        with pytest.raises(DegenerateFitError, match="underflows"):
            fit_affine([0.0, 1e-170, 3e-170], [1.0, 2.0, 3.0])


class TestContainers:
    def test_weight_vector_validation(self):
        for weights in ((0.5, 0.6), (1.0, 0.0), (1.5, -0.5), (0.5, math.nan), (math.inf, 1.0)):
            with pytest.raises(ConfigurationError, match="weights must"):
                AnalysisConfig(weights=weights)
        assert AnalysisConfig(weights=[0.25] * 4).weights == (0.25,) * 4

    def test_ensemble_needs_two_members(self):
        with pytest.raises(AnalysisError, match="need at least 2 channels"):
            analyze(noise_panel(1), AnalysisConfig(width=64))
        with pytest.raises(AnalysisError, match="need at least 2 channels"):
            analyze(noise_panel(3), AnalysisConfig(width=64, channels=("ch1",)))
