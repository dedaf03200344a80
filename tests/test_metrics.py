import numpy as np
import pytest

from mixprofile import (
    InvalidParameterError,
    ProfileEstimate,
    UserPopulation,
    aggregate_repetitions,
    mse_transition,
    profile_mse_vector,
)


def population(profiles):
    profiles = np.asarray(profiles, dtype=float)
    n_s, n_r = profiles.shape
    return UserPopulation(n_s, n_r, profiles, np.full(n_s, 1 / n_s))


def estimate(p_hat):
    return ProfileEstimate(P_hat=np.asarray(p_hat, dtype=float), method="lsda")


class TestProfileMseVector:
    def test_perfect_estimate_is_zero(self):
        pop = population([[1, 0], [0, 1]])
        np.testing.assert_array_equal(profile_mse_vector(pop, estimate(pop.profiles)), [0.0, 0.0])

    def test_symmetric_errors(self):
        pop = population([[1, 0], [0, 1]])
        assert profile_mse_vector(pop, estimate([[0.8, 0.2], [0, 1]]))[0] == pytest.approx(0.08)
        # overshoot with a negative entry scores the same
        assert profile_mse_vector(pop, estimate([[1.2, -0.2], [0, 1]]))[0] == pytest.approx(0.08)

    def test_sums_squared_errors_per_sender(self):
        pop = population([[1, 0], [0, 1]])
        vec = profile_mse_vector(pop, estimate([[0.8, 0.2], [0.4, 0.6]]))
        np.testing.assert_allclose(vec, [0.08, 0.32], rtol=1e-14)

    def test_dimension_mismatch(self):
        pop = population([[1, 0], [0, 1]])
        with pytest.raises(InvalidParameterError):
            profile_mse_vector(pop, estimate(np.zeros((3, 2))))


class TestMseTransition:
    def test_identical_matrices(self):
        pop = population([[0.5, 0.5], [0.5, 0.5]])
        assert mse_transition(pop, estimate(pop.profiles)) == 0.0

    def test_single_entry_off(self):
        pop = population([[1, 0], [0, 1]])
        p_hat = np.array([[0.9, 0.0], [0.0, 1.0]])
        assert mse_transition(pop, estimate(p_hat)) == pytest.approx(0.01 / 4)

    def test_equals_mean_profile_mse_over_n(self):
        rng = np.random.default_rng(4)
        profiles = rng.dirichlet(np.ones(6), size=6)
        pop = population(profiles)
        est = estimate(rng.normal(size=(6, 6)))
        per_profile = profile_mse_vector(pop, est)
        assert mse_transition(pop, est) == pytest.approx(np.mean(per_profile) / 6, rel=1e-12)

    def test_dimension_mismatch(self):
        pop = population([[1, 0], [0, 1]])
        with pytest.raises(InvalidParameterError):
            mse_transition(pop, estimate(np.zeros((3, 2))))


class TestAggregation:
    def test_mean_is_order_independent(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(size=(8, 5))
        a = aggregate_repetitions(rows, n_receivers=5)
        b = aggregate_repetitions(rows[::-1], n_receivers=5)
        np.testing.assert_allclose(a.mse_profile, b.mse_profile, rtol=1e-15)
        assert a.mse_transition == pytest.approx(b.mse_transition, rel=1e-15)

    def test_transition_identity(self):
        rows = np.array([[0.1, 0.2], [0.3, 0.4]])
        report = aggregate_repetitions(rows, n_receivers=3)
        assert len(report.per_repetition) == 2
        np.testing.assert_allclose(report.per_repetition, [0.3 / 6, 0.7 / 6], rtol=1e-14)
        assert report.mse_transition == pytest.approx(report.mse_profile.sum() / 6, rel=1e-14)
