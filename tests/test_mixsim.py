import numpy as np
import pytest
from scipy import stats as sps

from mixprofile import (
    InvalidParameterError,
    MixConfig,
    ParseError,
    Trace,
    UnsupportedQueryError,
    UserPopulation,
    delay_stats,
    gen_population,
    load_trace,
    save_trace,
    simulate_trace,
)

from conftest import make_trace


def two_user_population(f0=1.0):
    profiles = np.array([[0.0, 1.0], [1.0, 0.0]])
    return UserPopulation(2, 2, profiles, np.array([f0, 1 - f0]))


class TestConfig:
    def test_threshold_forces_alpha_and_pool(self):
        cfg = MixConfig(kind="threshold", t=3, alpha=0.4, m=7)
        assert cfg.alpha == 1.0 and cfg.m == 0 and cfg.pool_prior is None

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(InvalidParameterError):
            MixConfig(kind="binomial_pool", t=3, alpha=alpha)

    def test_bad_prior(self):
        with pytest.raises(InvalidParameterError):
            MixConfig(kind="binomial_pool", t=3, alpha=0.5, m=2, pool_prior=[0.4, 0.4])


class TestThresholdSimulation:
    def test_degenerate_frequency_fills_one_column(self):
        pop = two_user_population(f0=1.0)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=3), rho=50, seed=0)
        assert np.all(trace.U[:, 0] == 3)
        assert np.all(trace.U[:, 1] == 0)

    def test_output_rows_sum_to_threshold(self):
        pop = gen_population(10, 3, "zipf", "uniform", seed=2)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=3), rho=100, seed=1)
        assert np.all(trace.Y.sum(axis=1) == 3)

    def test_reproducible_bit_for_bit(self):
        pop = gen_population(15, 5, "zipf", "zipf", seed=4)
        cfg = MixConfig(kind="binomial_pool", t=4, alpha=0.6, m=5, pool_prior=pop.frequencies)
        a = simulate_trace(pop, cfg, rho=80, seed=9)
        b = simulate_trace(pop, cfg, rho=80, seed=9)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.ground_truth.exit_rounds, b.ground_truth.exit_rounds)

    def test_extending_rho_keeps_earlier_rounds(self):
        pop = gen_population(15, 5, "zipf", "uniform", seed=4)
        cfg = MixConfig(kind="binomial_pool", t=4, alpha=0.5)
        short = simulate_trace(pop, cfg, rho=40, seed=9)
        long = simulate_trace(pop, cfg, rho=120, seed=9)
        np.testing.assert_array_equal(long.U[:40], short.U)
        # messages arriving in the first 40 rounds depart identically; later Y
        # rows of the short run only miss what arrives after its horizon
        np.testing.assert_array_equal(long.Y[:40], short.Y)

    def test_ground_truth_matches_counts(self):
        pop = gen_population(12, 4, "zipf", "uniform", seed=6)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=5), rho=60, seed=3)
        gt = trace.ground_truth
        for r in range(trace.rho):
            sent = np.bincount(gt.senders[gt.entry_rounds == r], minlength=12)
            np.testing.assert_array_equal(sent, trace.U[r])
            got = np.bincount(gt.receivers[gt.exit_rounds == r], minlength=12)
            np.testing.assert_array_equal(got, trace.Y[r])

    def test_recipient_frequencies_converge_to_profiles(self):
        pop = gen_population(8, 3, "zipf", "uniform", seed=1)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=20), rho=20_000, seed=5)
        gt = trace.ground_truth
        for i in range(8):
            mask = gt.senders == i
            n = int(mask.sum())
            freq = np.bincount(gt.receivers[mask], minlength=8) / n
            bound = 4 * np.sqrt(pop.profiles[i] * (1 - pop.profiles[i]) / n)
            assert np.all(np.abs(freq - pop.profiles[i]) <= bound + 1e-12)


class TestPoolSimulation:
    def test_alpha_one_matches_threshold_exactly(self):
        pop = gen_population(10, 4, "zipf", "uniform", seed=8)
        thr = simulate_trace(pop, MixConfig(kind="threshold", t=6), rho=100, seed=21)
        pool = simulate_trace(
            pop, MixConfig(kind="binomial_pool", t=6, alpha=1.0, m=0), rho=100, seed=21
        )
        np.testing.assert_array_equal(thr.U, pool.U)
        np.testing.assert_array_equal(thr.Y, pool.Y)

    def test_message_conservation(self):
        pop = gen_population(10, 4, "zipf", "uniform", seed=8)
        cfg = MixConfig(kind="binomial_pool", t=6, alpha=0.3, m=9, pool_prior=pop.frequencies)
        trace = simulate_trace(pop, cfg, rho=200, seed=2)
        pending = int(np.sum(trace.ground_truth.exit_rounds < 0))
        assert int(trace.Y.sum()) + pending == 200 * 6 + 9
        assert trace.final_pool_size == pending

    def test_pool_occupancy_recursion(self):
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        cfg = MixConfig(kind="binomial_pool", t=4, alpha=0.5, m=3, pool_prior=pop.frequencies)
        trace = simulate_trace(pop, cfg, rho=50, seed=13)
        exited = trace.Y.sum(axis=1)
        occupancy = 3
        for r in range(trace.rho):
            occupancy = occupancy + 4 - int(exited[r])
            assert occupancy >= 0
        assert occupancy == trace.final_pool_size

    def test_delay_is_geometric(self):
        # chi-square goodness of fit at significance 0.01, >= 1e5 samples
        alpha = 0.4
        pop = gen_population(10, 4, "zipf", "uniform", seed=3)
        cfg = MixConfig(kind="binomial_pool", t=10, alpha=alpha)
        trace = simulate_trace(pop, cfg, rho=11_000, seed=17)
        stats = delay_stats(trace)
        n = sum(stats["delay_histogram"].values())
        assert n >= 100_000
        max_d = max(stats["delay_histogram"])
        observed = np.zeros(max_d + 1)
        for d, c in stats["delay_histogram"].items():
            observed[d] = c
        probs = alpha * (1 - alpha) ** np.arange(max_d + 1)
        # pool the tail so every expected bin count stays reasonable
        cut = int(np.searchsorted(np.cumsum(probs), 1 - 50 / n))
        cut = min(max(cut, 1), max_d)
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(probs[:cut], 1 - probs[:cut].sum()) * n
        _, p_value = sps.chisquare(obs, exp)
        assert p_value >= 0.01

    def test_requires_prior_when_pool_nonempty(self):
        pop = gen_population(5, 2, "zipf", "uniform", seed=0)
        cfg = MixConfig(kind="binomial_pool", t=3, alpha=0.5, m=4)
        with pytest.raises(InvalidParameterError):
            simulate_trace(pop, cfg, rho=10, seed=0)


class TestDelayStats:
    def test_alpha_one_means_no_delay(self):
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        trace = simulate_trace(
            pop, MixConfig(kind="binomial_pool", t=5, alpha=1.0), rho=100, seed=1
        )
        assert delay_stats(trace)["mean_delay_rounds"] == 0.0

    def test_alpha_half_mean_delay_near_one(self):
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        trace = simulate_trace(
            pop, MixConfig(kind="binomial_pool", t=10, alpha=0.5), rho=10_000, seed=1
        )
        assert delay_stats(trace)["mean_delay_rounds"] == pytest.approx(1.0, rel=0.05)

    def test_missing_ground_truth_is_rejected(self):
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        cfg = MixConfig(kind="binomial_pool", t=5, alpha=0.5)
        trace = simulate_trace(pop, cfg, rho=20, seed=1, record_ground_truth=False)
        with pytest.raises(UnsupportedQueryError):
            delay_stats(trace)

    def test_threshold_trace_is_rejected(self):
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=5), rho=20, seed=1)
        with pytest.raises(UnsupportedQueryError):
            delay_stats(trace)


class TestTraceValidation:
    def test_u_row_sum_enforced(self):
        with pytest.raises(InvalidParameterError):
            make_trace(U=[[2, 0], [1, 0]], Y=[[2, 0], [2, 0]])

    def test_threshold_y_row_sum_enforced(self):
        with pytest.raises(InvalidParameterError):
            make_trace(U=[[1, 1], [1, 1]], Y=[[2, 1], [1, 0]])


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        pop = gen_population(9, 3, "zipf", "zipf", seed=12)
        cfg = MixConfig(kind="binomial_pool", t=4, alpha=0.7, m=6, pool_prior=pop.frequencies)
        trace = simulate_trace(pop, cfg, rho=40, seed=30)
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.U, trace.U)
        np.testing.assert_array_equal(loaded.Y, trace.Y)
        assert loaded.config.kind == "binomial_pool"
        assert loaded.config.alpha == 0.7
        assert loaded.config.m == 6
        np.testing.assert_array_equal(loaded.config.pool_prior, pop.frequencies)
        assert loaded.seed == 30
        assert loaded.rho == 40

    @pytest.mark.parametrize("record", ["0 in -1:1 out 1:1", "-1 in 0:1 out 1:1",
                                        "0 in 0:1 out -1:1", "2 in 0:1 out 1:1"])
    def test_out_of_range_index_rejected(self, tmp_path, record):
        # a negative index would silently wrap around to the last row or column
        path = tmp_path / "trace.txt"
        save_trace(make_trace(U=[[1, 0], [0, 1]], Y=[[0, 1], [1, 0]]), path)
        lines = path.read_text().splitlines()
        lines[1] = record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2:"):
            load_trace(path)
