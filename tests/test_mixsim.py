import numpy as np
import pytest
from scipy import stats as sps

from mixprofile import (
    ExperimentSpec,
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

from mixprofile.mixsim import _SS_RECIPIENTS, _SS_SENDERS, _inverse_cdf, _substream

from conftest import make_trace


def round_by_round_threshold(pop, t, rho, seed):
    """Reference threshold simulator: per round, a categorical draw of ``t`` senders
    and then of each message's recipient, on the simulator's substreams.

    A message of row ``i`` with key ``k`` takes the first column whose cumulative
    probability, normalised and shifted by ``i`` as in the simulator's flat table,
    exceeds ``k``; the key is ``i + u`` held below ``i + 1``.
    """
    gen_send = _substream(seed, _SS_SENDERS)
    gen_recv = _substream(seed, _SS_RECIPIENTS)

    def categorical(probs, rows, u):
        cdf = np.cumsum(probs, axis=1)
        shifted = cdf / cdf[:, -1:] + np.arange(len(probs))[:, None]
        keys = np.minimum(rows + u, np.nextafter(rows + 1.0, 0))
        return np.sum(shifted[rows] <= keys[:, None], axis=1)

    U = np.zeros((rho, pop.n_senders), dtype=np.int64)
    Y = np.zeros((rho, pop.n_receivers), dtype=np.int64)
    for r in range(rho):
        src = categorical(pop.frequencies[None, :], np.zeros(t, dtype=np.int64), gen_send.random(t))
        dst = categorical(pop.profiles, src, gen_recv.random(t))
        U[r] = np.bincount(src, minlength=pop.n_senders)
        Y[r] = np.bincount(dst, minlength=pop.n_receivers)
    return U, Y


def two_user_population(f0=1.0):
    profiles = np.array([[0.0, 1.0], [1.0, 0.0]])
    return UserPopulation(profiles, np.array([f0, 1 - f0]))


class TestConfig:
    def test_threshold_refuses_pool_settings(self):
        for settings in (dict(alpha=0.4), dict(m=7), dict(pool_prior=np.array([1.0]))):
            with pytest.raises(InvalidParameterError,
                               match="mix_kind threshold reads neither alpha nor m; got "):
                MixConfig(kind="threshold", t=3, **settings)
        cfg = MixConfig(kind="threshold", t=3, alpha=1.0, m=0)
        assert cfg.alpha == 1.0 and cfg.m == 0 and cfg.pool_prior is None

    @pytest.mark.parametrize("setting", [dict(alpha=0.5), dict(m=4)])
    def test_config_and_spec_refuse_a_threshold_setting_alike(self, setting):
        with pytest.raises(InvalidParameterError) as config:
            MixConfig(kind="threshold", **setting)
        with pytest.raises(InvalidParameterError) as spec:
            ExperimentSpec(mix_kind="threshold", **setting)
        (key, value), = setting.items()
        assert str(config.value) == str(spec.value) == (
            f"mix_kind threshold reads neither alpha nor m; got {key}={value}")

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(InvalidParameterError):
            MixConfig(kind="binomial_pool", t=3, alpha=alpha)

    def test_bad_prior(self):
        with pytest.raises(InvalidParameterError):
            MixConfig(kind="binomial_pool", t=3, alpha=0.5, m=2, pool_prior=[0.4, 0.4])

    @pytest.mark.parametrize("prior", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_prior(self, prior):
        with pytest.raises(InvalidParameterError, match="pool_prior"):
            MixConfig(kind="binomial_pool", t=3, alpha=0.5, m=10, pool_prior=prior)


class TestThresholdSimulation:
    def test_degenerate_frequency_fills_one_column(self):
        pop = two_user_population(f0=1.0)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=3), rho=50, seed=0)
        assert np.all(trace.U[:, 0] == 3)
        assert np.all(trace.U[:, 1] == 0)

    def test_negative_seed(self):
        pop = two_user_population(f0=0.5)
        with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0, got -2"):
            simulate_trace(pop, MixConfig(kind="threshold", t=3), rho=5, seed=-2)

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

    @pytest.mark.parametrize("n_users, profile_dist, t", [(7, "uniform", 1), (40, "zipf", 10)])
    def test_matches_round_by_round_reference(self, n_users, profile_dist, t):
        pop = gen_population(n_users, n_users // 3, profile_dist, "uniform", seed=n_users)
        trace = simulate_trace(pop, MixConfig(kind="threshold", t=t), rho=300, seed=11)
        U, Y = round_by_round_threshold(pop, t, rho=300, seed=11)
        np.testing.assert_array_equal(trace.U, U)
        np.testing.assert_array_equal(trace.Y, Y)

    def test_extending_rho_keeps_earlier_rounds(self):
        pop = gen_population(15, 5, "zipf", "uniform", seed=4)
        cfg = MixConfig(kind="binomial_pool", t=4, alpha=0.5)
        short = simulate_trace(pop, cfg, rho=40, seed=9)
        long = simulate_trace(pop, cfg, rho=120, seed=9)
        np.testing.assert_array_equal(long.U[:40], short.U)
        # messages arriving in the first 40 rounds depart identically; later Y
        # rows of the short run only miss what arrives after its horizon
        np.testing.assert_array_equal(long.Y[:40], short.Y)

    @pytest.mark.parametrize("kind, alpha, m", [("threshold", 1.0, 0), ("binomial_pool", 0.4, 7)],
                             ids=["threshold", "pool"])
    def test_ground_truth_matches_counts(self, kind, alpha, m):
        pop = gen_population(12, 4, "zipf", "uniform", seed=6)
        prior = pop.frequencies if m else None
        cfg = MixConfig(kind=kind, t=5, alpha=alpha, m=m, pool_prior=prior)
        trace = simulate_trace(pop, cfg, rho=60, seed=3)
        gt = trace.ground_truth
        assert int(np.sum(gt.entry_rounds == -1)) == m
        left = gt.exit_rounds != -1
        assert np.all(gt.exit_rounds[left] >= np.maximum(gt.entry_rounds[left], 0))
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
        f, n = pop.frequencies, gt.senders.size
        shares = np.bincount(gt.senders, minlength=8) / n
        assert np.all(np.abs(shares - f) <= 4 * np.sqrt(f * (1 - f) / n) + 1e-12)


class TestInverseCdf:
    @pytest.mark.parametrize("row", [0, 4], ids=["first-row", "last-row"])
    @pytest.mark.parametrize("zero", [0, 1, 2], ids=["first-column", "middle-column",
                                                     "last-column"])
    def test_extreme_keys_skip_probability_zero_columns(self, row, zero):
        # u = 0 keys sit on the row's first table entry, and row + nextafter(1, 0)
        # can round up to row + 1, the row's last entry, unless held below it
        probs = np.full((5, 3), 1 / 3)
        probs[row] = 0.5
        probs[row, zero] = 0.0
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        cols = _inverse_cdf(probs, np.array([row, row]), u)
        positive = np.flatnonzero(probs[row])
        assert cols.tolist() == [positive[0], positive[-1]]


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
        assert trace.rho * cfg.t + cfg.m - int(trace.Y.sum()) == pending

    def test_pool_occupancy_recursion(self):
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        cfg = MixConfig(kind="binomial_pool", t=4, alpha=0.5, m=3, pool_prior=pop.frequencies)
        trace = simulate_trace(pop, cfg, rho=50, seed=13)
        exited = trace.Y.sum(axis=1)
        occupancy = 3
        for r in range(trace.rho):
            occupancy = occupancy + 4 - int(exited[r])
            assert occupancy >= 0
        assert occupancy == trace.rho * cfg.t + cfg.m - int(trace.Y.sum())

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

    def test_initial_pool_leaves_from_round_zero(self):
        # each initial pool message already faces the round-0 departure draw
        pop = gen_population(6, 2, "zipf", "uniform", seed=0)
        cfg = MixConfig(kind="binomial_pool", t=1, alpha=0.3, m=20_000, pool_prior=pop.frequencies)
        gt = simulate_trace(pop, cfg, rho=2, seed=5).ground_truth
        first = gt.exit_rounds[gt.entry_rounds == -1] == 0
        assert first.mean() == pytest.approx(0.3, abs=4 * np.sqrt(0.3 * 0.7 / 20_000))

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

    def test_pool_cannot_deliver_before_arrival(self):
        # 3 deliveries in round 0 exceed the 1 message entered so far, although
        # the final pool size (4 entered, 3 delivered) is non-negative
        with pytest.raises(InvalidParameterError, match="entered"):
            make_trace(U=[[1, 0]] * 4, Y=[[2, 1], [0, 0], [0, 0], [0, 0]],
                       kind="binomial_pool", alpha=0.5)

    @pytest.mark.parametrize("bad", [0.7, 1.5, np.nan, np.inf])
    def test_fractional_or_non_finite_counts_refused(self, bad):
        cfg = MixConfig(kind="binomial_pool", t=2)
        with pytest.raises(InvalidParameterError, match="Y counts must be whole numbers"):
            Trace(U=[[1.0, 1.0]], Y=[[bad, 1.0]], config=cfg)
        with pytest.raises(InvalidParameterError, match="U counts must be whole numbers"):
            Trace(U=[[bad, 1.0]], Y=[[1.0, 1.0]], config=cfg)

    def test_whole_float_counts_kept_and_integer_counts_not_copied(self):
        cfg = MixConfig(kind="binomial_pool", t=2)
        trace = Trace(U=[[1.0, 1.0]], Y=[[0.0, 1.0]], config=cfg)
        assert trace.Y.dtype == np.int8 and trace.Y.tolist() == [[0, 1]]
        narrow = np.array([[1, 1]], dtype=np.int8)
        assert Trace(U=narrow, Y=narrow, config=cfg).U is narrow
        wide = np.array([[1, 1]], dtype=np.int64)
        stored = Trace(U=wide, Y=wide, config=cfg).U
        assert stored is not wide and stored.dtype == np.int8 and wide.flags.writeable

    def test_negative_counts_refused(self):
        with pytest.raises(InvalidParameterError, match="non-negative"):
            make_trace(U=[[3, -1]], Y=[[1, 1]])
        with pytest.raises(InvalidParameterError, match="non-negative"):
            make_trace(U=[[1, 1]], Y=[[3, -1]])

    @pytest.mark.parametrize("kind", ["threshold", "binomial_pool"])
    def test_zero_column_counts_refused_by_the_row_sums(self, kind):
        cfg = MixConfig(kind=kind, t=2)
        empty = np.zeros((3, 0), dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="every U row must sum to t=2"):
            Trace(U=empty, Y=np.ones((3, 2), dtype=np.int64), config=cfg)
        if kind == "threshold":
            with pytest.raises(InvalidParameterError, match="every threshold Y row must sum"):
                Trace(U=np.ones((3, 2), dtype=np.int64), Y=empty, config=cfg)

    def test_counts_are_read_only(self):
        U = np.array([[1, 1], [2, 0]], dtype=np.int8)
        trace = make_trace(U=U, Y=[[0, 2], [1, 1]])
        for counts in (trace.U, trace.Y, U):
            with pytest.raises(ValueError, match="read-only"):
                counts[0, 0] = 0
        assert trace.U.tolist() == [[1, 1], [2, 0]]

    def test_traces_hash_and_compare_by_identity(self):
        trace = make_trace(U=[[1, 1]], Y=[[0, 2]])
        twin = Trace(U=trace.U.copy(), Y=trace.Y.copy(), config=trace.config)
        assert {trace: 1, twin: 2}[trace] == 1 and hash(trace) != hash(twin)
        assert trace == trace and trace != twin


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
    def _pool_file(self, tmp_path):
        """A saved 3-round pool trace file (header, prior, rounds 0-2) and its lines."""
        pop = gen_population(4, 2, "zipf", "uniform", seed=1)
        cfg = MixConfig(kind="binomial_pool", t=2, alpha=0.5, m=2, pool_prior=pop.frequencies)
        path = tmp_path / "trace.txt"
        save_trace(simulate_trace(pop, cfg, rho=3, seed=4), path)
        return path, path.read_text().splitlines()

    def test_non_numeric_pool_prior_rejected(self, tmp_path):
        path, lines = self._pool_file(tmp_path)
        lines[1] = "# pool_prior 0.5 x 0.25 0.25"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2:"):
            load_trace(path)

    def test_duplicate_round_line_rejected(self, tmp_path):
        path, lines = self._pool_file(tmp_path)
        lines.insert(4, lines[3])  # a second line for round 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5:.*round 1"):
            load_trace(path)

    def test_missing_round_line_rejected(self, tmp_path):
        path, lines = self._pool_file(tmp_path)
        del lines[3]  # the line for round 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="round 1"):
            load_trace(path)

    @staticmethod
    def _write(tmp_path, body, kind="threshold", m=0, rho=2):
        """A 2-sender, 2-receiver, t=2 trace file with the given round lines."""
        path = tmp_path / "trace.txt"
        alpha = 1.0 if kind == "threshold" else 0.5
        header = (f"# mixtrace n_senders=2 n_receivers=2 t=2 kind={kind} alpha={alpha} m={m} "
                  f"rho={rho} seed=0\n")
        prior = "# pool_prior 0.5 0.5\n" if m else ""
        path.write_text(header + prior + "".join(line + "\n" for line in body))
        return path

    @pytest.mark.parametrize("record", ["0 in 0:5 0:2 out 1:2", "0 in 0:1 1:1 out 1:1 1:1"])
    def test_repeated_user_in_a_line_rejected(self, tmp_path, record):
        # the last pair used to win: 0:5 0:2 loaded as U=[[2, 0]]; rho=4 lets a
        # count of 5 through the cap, and rounds 1-3 fill the file to its rho
        body = [record] + [f"{r} in 0:2 out 1:2" for r in (1, 2, 3)]
        path = self._write(tmp_path, body, rho=4)
        with pytest.raises(ParseError, match="line 2:.*twice") as info:
            load_trace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("body, kind, m, line", [
        (["0 in 0:2 out 1:2", "1 in 0:1 out 1:2"], "threshold", 0, 3),  # U row sums to 1
        (["0 in 0:2 out 1:2", "1 in 0:-1 1:3 out 1:2"], "threshold", 0, 3),  # negative count
        (["0 in 0:2 out 1:2", "1 in 0:2 out 0:1 1:2"], "threshold", 0, 3),  # Y row sums to 3
        (["0 in 0:2 out 1:1", "1 in 0:2 out 0:4"], "binomial_pool", 0, 3),  # 5 out of 4 entered
        (["0 in 0:2 out 1:4", "1 in 0:2 out 1:2"], "binomial_pool", 1, 3),  # 4 out of 3 entered
        (["0 in 0:2 out 1:1", "1 in 0:1 out 0:1 1:1"], "threshold", 0, 2),  # Y row 0 and U row 1
    ])
    def test_count_errors_name_the_line(self, tmp_path, body, kind, m, line):
        path = self._write(tmp_path, body, kind=kind, m=m)
        with pytest.raises(ParseError) as info:
            load_trace(path)
        assert info.value.line_no == line

    def test_line_without_out_rejected(self, tmp_path):
        # a pool round may deliver nothing: without its " out " the line would read as such a round
        path = self._write(tmp_path, ["0 in 0:2 out ", "1 in 0:2"], kind="binomial_pool")
        with pytest.raises(ParseError, match="line 3:"):
            load_trace(path)

    def test_rho_beyond_the_file_rejected_before_allocating(self, tmp_path):
        # 10**12 rounds would take 32 TB of counts; 17 bytes of rounds hold at most one
        path = self._write(tmp_path, ["0 in 0:2 out 1:2"], rho=10**12)
        with pytest.raises(ParseError, match="line 1: rho=1000000000000 rounds cannot fit in "
                                             "the 17 bytes") as info:
            load_trace(path)
        assert info.value.line_no == 1

    def test_sizes_too_large_to_allocate_rejected(self, tmp_path, monkeypatch):
        # one round of 10**12 senders would take 8 TB of counts, and no file size bounds n_senders
        path = tmp_path / "trace.txt"
        path.write_text("# mixtrace n_senders=1000000000000 n_receivers=2 t=2 kind=threshold "
                        "alpha=1.0 m=0 rho=1 seed=0\n0 in 0:2 out 1:2\n")

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        # stands in for the allocator, so that the test itself allocates nothing
        monkeypatch.setattr(np, "zeros", no_memory)
        with pytest.raises(ParseError, match="line 1: header sizes too large: cannot allocate"):
            load_trace(path)

    def test_line_beyond_rho_rejected(self, tmp_path):
        path = self._write(tmp_path, ["0 in 0:2 out 1:2", "1 in 0:2 out 1:2", "2 in 0:2 out 1:2"])
        with pytest.raises(ParseError, match="line 4:.*rho=2"):
            load_trace(path)

    def test_text_between_round_and_in_rejected(self, tmp_path):
        path = self._write(tmp_path, ["0 in 0:2 out 1:2", "1 x in 0:2 out 1:2"])
        with pytest.raises(ParseError, match="line 3:"):
            load_trace(path)

    def test_padded_lines_rejected(self, tmp_path):
        # no writer pads a line, so the reader accepts only the layout save_trace writes
        for padded, line in ((0, 2), (1, 3)):
            body = ["0 in 0:2 out 1:2", "1 in 0:1 1:1 out 0:2"]
            body[padded] = "  " + body[padded].replace(" out", "\tout") + " "
            with pytest.raises(ParseError) as info:
                load_trace(self._write(tmp_path, body))
            assert info.value.line_no == line

    @pytest.mark.parametrize("header, line", [
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=pool alpha=0.5 m=0 rho=1 seed=0", 1),
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=binomial_pool alpha=2 m=0 rho=1 seed=0", 1),
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=threshold alpha=1 m=0 rho=0 seed=0", 1),
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=binomial_pool alpha=0.5 m=1 rho=1 seed=0\n"
         "# pool_prior 0.25 0.25 0.5", 2),
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=binomial_pool alpha=0.5 m=1 rho=1 seed=0\n"
         "# pool_prior 0.6 0.6", 2),
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=threshold alpha=0.5 m=0 rho=1 seed=0", 1),
        ("# mixtrace n_senders=2 n_receivers=2 t=2 kind=threshold alpha=1.0 m=3 rho=1 seed=0", 1),
    ])
    def test_bad_mix_parameters_name_the_header_line(self, tmp_path, header, line):
        path = tmp_path / "trace.txt"
        path.write_text(header + "\n0 in 0:2 out 1:1\n")
        with pytest.raises(ParseError) as info:
            load_trace(path)
        assert info.value.line_no == line

