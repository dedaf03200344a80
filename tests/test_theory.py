from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixprofile import (
    InvalidParameterError,
    SingularFrequencyError,
    input_autocorr_inverse,
    pool_constants,
    predict_mse_pool,
    predict_mse_threshold,
)

# uniformity of a Zipf profile over 25 contacts, by exact rational arithmetic
_H25 = sum(Fraction(1, k) for k in range(1, 26))
U_ZIPF_25 = float(1 - sum(Fraction(1, k * k) for k in range(1, 26)) / (_H25 * _H25))


def baseline_args(n=100, t=10, rho=10_000, u=U_ZIPF_25):
    f = np.full(n, 1.0 / n)
    return f, np.full(n, u), t, rho


class TestThresholdPredictor:
    def test_two_user_hand_case(self):
        # t=1 kills the cross term; 2 * 0.5 / 1 / 1000 remains
        f = np.array([0.5, 0.5])
        u = np.array([0.5, 0.5])
        pred = predict_mse_threshold(f, u, t=1, rho=1000)
        np.testing.assert_allclose(pred.mse_profile, 0.001, rtol=1e-14)

    def test_u_bar_is_the_frequency_weighted_uniformity(self):
        # u_bar = 0.25 * 0.4 + 0.75 * 0.8 = 0.7 enters the cross term of every sender
        pred = predict_mse_threshold(np.array([0.25, 0.75]), np.array([0.4, 0.8]), t=2, rho=1)
        np.testing.assert_allclose(pred.mse_profile, [3 * 0.5 * 0.7 + 4 * 0.4 / 2,
                                                      0.5 * 0.7 / 3 + 0.8 / 1.5], rtol=1e-14)

    def test_baseline_value(self):
        pred = predict_mse_threshold(*baseline_args())
        np.testing.assert_allclose(pred.mse_profile, 8.817208824696984e-3, rtol=1e-12)
        assert pred.mse_transition == pytest.approx(8.817208824696984e-5, rel=1e-12)
        assert round(float(pred.mse_profile[0]), 5) == round(8.82e-3, 5)

    def test_deterministic_profiles_are_free(self):
        f = np.full(4, 0.25)
        pred = predict_mse_threshold(f, np.zeros(4), t=10, rho=100)
        assert np.all(pred.mse_profile == 0.0)

    def test_rough_regime(self):
        f, u, t, rho = baseline_args()
        pred = predict_mse_threshold(f, u, t, rho, regime="rough_approx")
        np.testing.assert_allclose(pred.mse_profile, 100 / 10_000, rtol=1e-14)

    def test_scales_as_one_over_rho(self):
        f, u, t, rho = baseline_args()
        a = predict_mse_threshold(f, u, t, rho)
        b = predict_mse_threshold(f, u, t, 2 * rho)
        np.testing.assert_allclose(b.mse_profile, a.mse_profile / 2, rtol=1e-14)
        assert b.mse_transition == pytest.approx(a.mse_transition / 2, rel=1e-14)

    def test_zero_frequency_marked_unidentifiable(self):
        f = np.array([0.0, 1.0])
        u = np.array([0.5, 0.5])
        pred = predict_mse_threshold(f, u, t=5, rho=100)
        assert np.isinf(pred.mse_profile[0])
        assert pred.unidentifiable.tolist() == [True, False]
        assert np.isinf(pred.mse_transition)


class TestPoolPredictor:
    def test_constants(self):
        aq, ar = pool_constants(0.5)
        assert aq == pytest.approx(1 / 3, rel=1e-15)
        assert ar == pytest.approx(0.6, rel=1e-15)

    def test_constants_ordered(self):
        for alpha in np.linspace(0.05, 1.0, 20):
            aq, ar = pool_constants(alpha)
            assert 0 < aq <= ar <= 1

    def test_alpha_one_recovers_threshold(self):
        f, u, t, rho = baseline_args()
        pool = predict_mse_pool(f, u, t, rho, alpha=1.0)
        thr = predict_mse_threshold(f, u, t, rho)
        np.testing.assert_array_equal(pool.mse_profile, thr.mse_profile)
        assert pool.alpha_q == 1.0 and pool.alpha_r == 1.0
        assert pool.mix_kind == "binomial_pool"

    def test_threshold_carries_the_alpha_one_figures(self):
        for regime in ("exact", "rough_approx"):
            pred = predict_mse_threshold(*baseline_args(n=5), regime=regime)
            assert pred.mix_kind == "threshold" and pred.regime == regime
            figures = (pred.alpha_q, pred.alpha_r, pred.round_penalty, pred.mean_delay)
            assert figures == (1.0, 1.0, 1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=hnp.arrays(float, st.integers(1, 40), elements=st.sampled_from([0.0, 0.5, 1.0])
                           | st.floats(1e-6, 1.0)),
        data=st.data(),
        t=st.integers(1, 200),
        rho=st.integers(1, 10**7),
        regime=st.sampled_from(["exact", "rough_approx"]),
    )
    def test_threshold_is_pool_at_alpha_one_bit_for_bit(self, weights, data, t, rho, regime):
        weights[0] = max(weights[0], 0.25)  # at least one sender sends
        f = weights / weights.sum()
        u = data.draw(hnp.arrays(float, f.size, elements=st.floats(0.0, 0.999)))
        thr = predict_mse_threshold(f, u, t, rho, regime)
        pool = predict_mse_pool(f, u, t, rho, 1.0, regime)
        assert thr.mse_profile.tobytes() == pool.mse_profile.tobytes()
        assert np.float64(thr.mse_transition).tobytes() == np.float64(pool.mse_transition).tobytes()

    def test_baseline_pool_value(self):
        pred = predict_mse_pool(*baseline_args(), alpha=0.5)
        np.testing.assert_allclose(pred.mse_profile, 2.7889416518238872e-2, rtol=1e-12)

    def test_rough_regime_and_delay_figures(self):
        f, u, t, rho = baseline_args()
        pred = predict_mse_pool(f, u, t, rho, alpha=0.5, regime="rough_approx")
        np.testing.assert_allclose(pred.mse_profile, 0.03, rtol=1e-14)
        assert pred.round_penalty == pytest.approx(3.0, rel=1e-15)
        assert pred.mean_delay == pytest.approx(1.0, rel=1e-15)

    def test_pool_never_easier_than_threshold(self):
        f, u, t, rho = baseline_args(n=30)
        thr = predict_mse_threshold(f, u, t, rho)
        for alpha in np.linspace(0.05, 1.0, 25):
            pool = predict_mse_pool(f, u, t, rho, alpha=alpha)
            assert np.all(pool.mse_profile >= thr.mse_profile - 1e-15)

    def test_scales_as_one_over_rho(self):
        f, u, t, rho = baseline_args()
        a = predict_mse_pool(f, u, t, rho, alpha=0.3)
        b = predict_mse_pool(f, u, t, 2 * rho, alpha=0.3)
        np.testing.assert_allclose(b.mse_profile, a.mse_profile / 2, rtol=1e-14)

    def test_bad_alpha(self):
        f, u, t, rho = baseline_args(n=4)
        with pytest.raises(InvalidParameterError):
            predict_mse_pool(f, u, t, rho, alpha=0.0)


class TestInputAutocorrelation:
    def test_two_user_hand_case(self):
        r_x, r_x_inv = input_autocorr_inverse(np.array([0.5, 0.5]), t=2)
        np.testing.assert_allclose(r_x, [[1.5, 0.5], [0.5, 1.5]], rtol=1e-15)
        np.testing.assert_allclose(r_x_inv, [[0.75, -0.25], [-0.25, 0.75]], rtol=1e-15)

    def test_t_one_is_diagonal(self):
        f = np.array([0.2, 0.3, 0.5])
        r_x, r_x_inv = input_autocorr_inverse(f, t=1)
        np.testing.assert_allclose(r_x, np.diag(f), atol=1e-15)
        np.testing.assert_allclose(r_x_inv, np.diag(1 / f), rtol=1e-15)

    def test_product_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 120))
            f = rng.uniform(0.5, 1.5, size=n)
            f /= f.sum()
            r_x, r_x_inv = input_autocorr_inverse(f, t=7)
            err = np.max(np.abs(r_x @ r_x_inv - np.eye(n)))
            assert err <= 1e-10

    def test_zero_frequency_is_singular(self):
        with pytest.raises(SingularFrequencyError):
            input_autocorr_inverse(np.array([0.0, 1.0]), t=3)
