import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist.distances import (
    WeightVector,
    cross_correlation,
    fit_affine,
    fit_proportionality,
    js_spectral_divergence,
    kl_matrix,
    kl_spectral_distance,
    mean_kl,
)
from specdist.errors import (
    DegenerateFitError,
    DimensionError,
    UndefinedCorrelationError,
)
from specdist.spectra import NormalizedSpectrum

from oracles import (
    double_loop_mean,
    random_spectrum,
    scalar_entropy,
    scalar_kl,
    two_pass_correlation,
)


def spectrum(probs, dt=1.0):
    return NormalizedSpectrum(np.asarray(probs, dtype=float), dt)


def random_ensemble(rng, m, bins, sharpness=1.0):
    return tuple(spectrum(random_spectrum(rng, bins, sharpness)) for _ in range(m))


class TestKlDistance:
    def test_identical_spectra_vanish(self):
        p = spectrum([0.2, 0.3, 0.5])
        assert kl_spectral_distance(p, p, floor=1e-12) <= 1e-12

    def test_disjoint_support_literal_is_infinite(self):
        p = spectrum([1.0, 0.0, 0.0])
        q = spectrum([0.0, 1.0, 0.0])
        assert kl_spectral_distance(p, q, floor=0.0) == math.inf

    def test_two_bin_analytic_value(self):
        p = spectrum([0.75, 0.25])
        q = spectrum([0.5, 0.5])
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_spectral_distance(p, q, floor=0.0) == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            kl_spectral_distance(spectrum([0.5, 0.5]), spectrum([0.3, 0.3, 0.4]))
        with pytest.raises(DimensionError):
            kl_spectral_distance(spectrum([0.5, 0.5], dt=1.0), spectrum([0.5, 0.5], dt=2.0))

    def test_matches_scalar_oracle_with_floor(self):
        rng = np.random.default_rng(5)
        for sharpness in (1.0, 4.0):
            p = random_spectrum(rng, 16, sharpness)
            q = random_spectrum(rng, 16, sharpness)
            got = kl_spectral_distance(spectrum(p), spectrum(q), floor=1e-12)
            assert got == pytest.approx(scalar_kl(p, q, 1e-12), rel=1e-10)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_gibbs_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        p = spectrum(random_spectrum(rng, 12))
        q = spectrum(random_spectrum(rng, 12))
        assert kl_spectral_distance(p, q) >= 0.0
        assert kl_spectral_distance(p, p) <= 1e-12


class TestJsDivergence:
    def test_identical_members_vanish(self):
        p = spectrum([0.1, 0.2, 0.7])
        ens = (p, p, p)
        assert js_spectral_divergence(ens) <= 1e-12

    def test_disjoint_deltas_reach_log_two(self):
        ens = (spectrum([1.0, 0.0]), spectrum([0.0, 1.0]))
        assert js_spectral_divergence(ens) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_computed_two_member_value(self):
        ens = (spectrum([1.0, 0.0]), spectrum([0.5, 0.5]))
        mixture = [0.75, 0.25]
        expected = scalar_entropy(mixture) - 0.5 * scalar_entropy([1.0, 0.0]) - 0.5 * scalar_entropy([0.5, 0.5])
        got = js_spectral_divergence(ens)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.21576, abs=5e-6)

    def test_weight_mismatch_rejected(self):
        ens = (spectrum([0.5, 0.5]), spectrum([0.4, 0.6]))
        with pytest.raises(DimensionError):
            js_spectral_divergence(ens, WeightVector.uniform(3))

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
        weights = WeightVector(raw / raw.sum())
        js = js_spectral_divergence(ens, weights)
        assert 0.0 <= js <= weights.entropy() + 1e-9

    @given(seed=st.integers(0, 2**16), m=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_mean_kl_dominates_js(self, seed, m):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, m, 24, sharpness=rng.uniform(0.5, 6.0))
        js = js_spectral_divergence(ens)
        mk = mean_kl(kl_matrix(ens, floor=1e-12))
        assert mk >= js - 1e-9


class TestKlMatrix:
    def test_identical_members_give_zero_matrix(self):
        p = spectrum([0.25, 0.25, 0.5])
        matrix = kl_matrix((p, p, p))
        assert np.all(matrix == 0.0)

    def test_diagonal_zero_entries_nonnegative(self):
        rng = np.random.default_rng(9)
        matrix = kl_matrix(random_ensemble(rng, 5, 16, sharpness=3.0))
        assert np.all(np.diag(matrix) == 0.0)
        assert np.all(matrix >= 0.0)

    def test_matches_per_entry_recomputation(self):
        rng = np.random.default_rng(17)
        members = [random_spectrum(rng, 15) for _ in range(3)]
        ens = tuple(spectrum(p) for p in members)
        matrix = kl_matrix(ens, floor=1e-12)
        for l in range(3):
            for m in range(3):
                expected = 0.0 if l == m else scalar_kl(members[l], members[m], 1e-12)
                assert matrix[l, m] == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_asymmetry_is_real(self):
        p = spectrum([0.9, 0.05, 0.05])
        q = spectrum([1 / 3, 1 / 3, 1 / 3])
        matrix = kl_matrix((p, q))
        assert matrix[0, 1] != matrix[1, 0]


class TestMeanKl:
    def test_zero_matrix(self):
        assert mean_kl(np.zeros((3, 3))) == 0.0

    def test_two_by_two(self):
        assert mean_kl(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.5

    def test_random_matrix_matches_double_loop(self):
        rng = np.random.default_rng(31)
        matrix = rng.random((20, 20))
        assert mean_kl(matrix) == pytest.approx(double_loop_mean(matrix.tolist()), rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            mean_kl(np.zeros((2, 3)))


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


class TestContainers:
    def test_weight_vector_validation(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 0.0]))
        assert WeightVector.uniform(4).entropy() == pytest.approx(math.log(4))

    def test_ensemble_needs_two_members(self):
        with pytest.raises(DimensionError):
            kl_matrix((spectrum([1.0]),))
        with pytest.raises(DimensionError):
            js_spectral_divergence((spectrum([1.0]),))
