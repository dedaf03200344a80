import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprofile import (
    InvalidParameterError,
    ParseError,
    UserPopulation,
    gen_population,
    load_population,
    save_population,
    uniformity_stats,
)


def harmonic(n):
    return sum(Fraction(1, k) for k in range(1, n + 1))


class TestGenPopulation:
    def test_deterministic_profile_has_single_one(self):
        pop = gen_population(10, 1, "deterministic", "uniform", seed=3)
        for row in pop.profiles:
            assert sorted(row)[-1] == 1.0
            assert np.count_nonzero(row) == 1

    def test_zipf_top_contact_probability_is_inverse_harmonic(self):
        # independent oracle: exact harmonic sum H_25
        expected = float(1 / harmonic(25))
        pop = gen_population(100, 25, "zipf", "uniform", seed=0)
        assert pop.profiles.max() == pytest.approx(expected, abs=1e-15)
        assert round(expected, 5) == 0.26206

    def test_uniform_frequencies(self):
        pop = gen_population(100, 25, "zipf", "uniform", seed=0)
        assert np.all(pop.frequencies == 0.01)

    def test_zipf_frequencies(self):
        pop = gen_population(50, 10, "zipf", "zipf", seed=0)
        h = float(harmonic(50))
        expected = (1.0 / np.arange(1, 51)) / h
        np.testing.assert_allclose(pop.frequencies, expected, rtol=1e-14)

    def test_invariants_hold_exactly(self):
        for seed in range(5):
            pop = gen_population(37, 9, "zipf", "zipf", seed=seed)
            assert np.all(np.abs(pop.profiles.sum(axis=1) - 1) <= 1e-12)
            assert np.all((pop.profiles >= 0) & (pop.profiles <= 1))
            assert abs(pop.frequencies.sum() - 1) <= 1e-12

    def test_deterministic_given_seed(self):
        a = gen_population(30, 7, "zipf", "uniform", seed=11)
        b = gen_population(30, 7, "zipf", "uniform", seed=11)
        np.testing.assert_array_equal(a.profiles, b.profiles)

    def test_different_seeds_permute_contacts(self):
        a = gen_population(30, 7, "zipf", "uniform", seed=1)
        b = gen_population(30, 7, "zipf", "uniform", seed=2)
        assert not np.array_equal(a.profiles, b.profiles)

    @pytest.mark.parametrize("n_friends", [0, 31])
    def test_bad_n_friends(self, n_friends):
        with pytest.raises(InvalidParameterError):
            gen_population(30, n_friends, "zipf", "uniform", seed=0)

    def test_unknown_dist(self):
        with pytest.raises(InvalidParameterError):
            gen_population(10, 3, "powerlaw", "uniform", seed=0)

    def test_negative_seed(self):
        with pytest.raises(InvalidParameterError, match="seed must be an integer >= 0, got -1"):
            gen_population(10, 3, "zipf", "uniform", seed=-1)


class TestUniformity:
    def test_deterministic_user_has_zero_uniformity(self):
        pop = gen_population(8, 1, "deterministic", "uniform", seed=0)
        stats = uniformity_stats(pop)
        assert np.all(stats.u == 0.0)
        assert stats.u_bar == 0.0

    def test_uniform_over_all_receivers(self):
        n = 16
        pop = gen_population(n, n, "uniform", "uniform", seed=0)
        stats = uniformity_stats(pop)
        np.testing.assert_allclose(stats.u, (n - 1) / n, rtol=1e-14)

    def test_zipf_25_uniformity(self):
        # oracle: u = 1 - (sum k^-2) / H_25^2 over the 25 contact weights
        h = harmonic(25)
        oracle = float(1 - sum(Fraction(1, k * k) for k in range(1, 26)) / (h * h))
        pop = gen_population(60, 25, "zipf", "uniform", seed=5)
        stats = uniformity_stats(pop)
        np.testing.assert_allclose(stats.u, oracle, rtol=1e-13)
        assert round(oracle, 5) == 0.88973

    def test_invariant_under_row_permutation(self):
        pop = gen_population(10, 4, "zipf", "uniform", seed=9)
        u_before = uniformity_stats(pop).u
        rng = np.random.default_rng(0)
        shuffled = np.array([row[rng.permutation(10)] for row in pop.profiles])
        permuted = UserPopulation(10, 10, shuffled, pop.frequencies)
        np.testing.assert_allclose(uniformity_stats(permuted).u, u_before, rtol=1e-14)


class TestValidation:
    def test_rejects_bad_row_sum(self):
        profiles = np.full((3, 3), 0.4)
        with pytest.raises(InvalidParameterError):
            UserPopulation(3, 3, profiles, np.full(3, 1 / 3))

    def test_refusal_names_the_first_bad_row_and_its_sum(self):
        profiles = np.eye(300)
        profiles[17, 17] = profiles[40, 40] = 0.9
        with pytest.raises(InvalidParameterError,
                           match=r"^profile entries of row 17, summing to 0\.9, must be "
                                 r"probabilities summing to 1 within 1e-12, got array\("):
            UserPopulation(300, 300, profiles, np.full(300, 1 / 300))

    def test_rejects_negative_entry(self):
        profiles = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(InvalidParameterError):
            UserPopulation(2, 2, profiles, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_profile_entries(self, bad):
        # a NaN row used to pass: every comparison with NaN is false
        with pytest.raises(InvalidParameterError, match="profile entries"):
            UserPopulation(1, 2, [[bad, bad]], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_frequencies(self, bad):
        with pytest.raises(InvalidParameterError, match="frequencies"):
            UserPopulation(2, 1, [[1.0], [1.0]], [bad, 0.0])

    def test_rectangular_population_allowed(self):
        profiles = np.array([[0.25, 0.25, 0.25, 0.25]])
        pop = UserPopulation(1, 4, profiles, np.array([1.0]))
        assert pop.n_receivers == 4


class TestFileRoundTrip:
    def test_round_trip_is_exact(self, tmp_path, small_population):
        path = tmp_path / "pop.json"
        save_population(small_population, path)
        loaded = load_population(path)
        np.testing.assert_array_equal(loaded.profiles, small_population.profiles)
        np.testing.assert_array_equal(loaded.frequencies, small_population.frequencies)
        assert loaded.n_senders == small_population.n_senders

    @pytest.mark.parametrize("field", ["user", "receiver"])
    def test_negative_index_rejected(self, tmp_path, field):
        # a negative index would silently wrap around to the last row or column
        doc = {"n_senders": 2, "n_receivers": 2, "frequencies": [0.5, 0.5],
               "profiles": [{"user": 0, "contacts": [{"receiver": 0, "prob": 1.0}]},
                            {"user": 1, "contacts": [{"receiver": 1, "prob": 1.0}]}]}
        if field == "user":
            doc["profiles"][1]["user"] = -1
        else:
            doc["profiles"][1]["contacts"][0]["receiver"] = -1
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="negative index"):
            load_population(path)

    @pytest.mark.parametrize("profiles, match", [
        # 0:0.5, 0:0.5, 1:0.5 used to load as the valid row [0.5, 0.5]
        ([{"user": 0, "contacts": [{"receiver": 0, "prob": 0.5}, {"receiver": 0, "prob": 0.5},
                                   {"receiver": 1, "prob": 0.5}]},
          {"user": 1, "contacts": [{"receiver": 1, "prob": 1.0}]}], "user 0 lists receiver 0 twice"),
        ([{"user": 0, "contacts": [{"receiver": 0, "prob": 1.0}]},
          {"user": 0, "contacts": [{"receiver": 1, "prob": 1.0}]}], "user 0 appears twice"),
    ])
    def test_duplicates_rejected(self, tmp_path, profiles, match):
        doc = {"n_senders": 2, "n_receivers": 2, "frequencies": [0.5, 0.5], "profiles": profiles}
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=match):
            load_population(path)

    def test_n_senders_beyond_the_frequencies_rejected(self, tmp_path):
        # 10**9 x 2 profiles would take 16 GB; the two frequencies refute the header first
        doc = {"n_senders": 10**9, "n_receivers": 2, "frequencies": [0.5, 0.5], "profiles": []}
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="2 frequencies for n_senders=1000000000"):
            load_population(path)

    def test_profiles_too_large_to_allocate_rejected(self, tmp_path, monkeypatch):
        doc = {"n_senders": 2, "n_receivers": 10**12, "frequencies": [0.5, 0.5], "profiles": []}
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(doc))

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        # stands in for the allocator, so that the test itself allocates nothing
        monkeypatch.setattr(np, "zeros", no_memory)
        with pytest.raises(ParseError, match="malformed population document: cannot allocate"):
            load_population(path)

    def test_nan_in_a_file_rejected(self, tmp_path):
        # json reads the token NaN as a float
        path = tmp_path / "pop.json"
        path.write_text('{"n_senders": 1, "n_receivers": 2, "frequencies": [1.0], "profiles": '
                        '[{"user": 0, "contacts": [{"receiver": 0, "prob": NaN}, '
                        '{"receiver": 1, "prob": NaN}]}]}')
        with pytest.raises(InvalidParameterError, match="profile entries"):
            load_population(path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "pop.json"
        path.write_text('{\n "n_senders": 2,\n "n_receivers": 2 oops\n}\n')
        with pytest.raises(ParseError, match="line 3:") as info:
            load_population(path)
        assert info.value.line_no == 3



#: probabilities whose reprs stress the writer: the smallest and largest subnormals,
#: the smallest normal, 17 significant digits, 1.0 and an exact binary fraction
SPECIAL_PROBS = st.sampled_from([5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                                 0.10000000000000002, 1 / 3, 1.0, 0.5])


def normalised(values):
    """``values`` scaled to sum to 1, or a single 1.0 where they are all 0."""
    v = np.asarray(values, dtype=float)
    total = v.sum()
    return v / total if total > 0 else np.eye(v.size)[0]


@st.composite
def populations(draw):
    """A population whose rows mix normalised draws with tiny and special entries."""
    n_s, n_r = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    probs = st.floats(0.0, 1.0) | SPECIAL_PROBS

    def vector(n):
        v = normalised(draw(st.lists(probs, min_size=n, max_size=n)))
        # a subnormal on top of a probability vector leaves its sum alone
        v[v == 0.0] = draw(st.sampled_from([0.0, 5e-324, 1e-310]))
        return v

    profiles = np.array([vector(n_r) for _ in range(n_s)])
    return UserPopulation(n_s, n_r, profiles, vector(n_s))


def json_document(pop):
    """The population file's document, for the json module to write."""
    rows = [{"user": i, "contacts": [{"receiver": j, "prob": row[j]}
                                     for j in np.nonzero(row)[0].tolist()]}
            for i, row in enumerate(pop.profiles.tolist())]
    return {"n_senders": pop.n_senders, "n_receivers": pop.n_receivers,
            "frequencies": pop.frequencies.tolist(), "profiles": rows}


class TestWriter:
    @settings(max_examples=100, deadline=None)
    @given(pop=populations())
    def test_writes_what_json_writes(self, pop, tmp_path_factory):
        path = tmp_path_factory.mktemp("pop") / "pop.json"
        save_population(pop, path)
        assert path.read_bytes() == (json.dumps(json_document(pop), indent=1) + "\n").encode()
        loaded = load_population(path)
        np.testing.assert_array_equal(loaded.profiles, pop.profiles)
        np.testing.assert_array_equal(loaded.frequencies, pop.frequencies)

    def test_generated_population(self, tmp_path):
        pop = gen_population(40, 7, "zipf", "zipf", seed=2)
        path = tmp_path / "pop.json"
        save_population(pop, path)
        assert path.read_text() == json.dumps(json_document(pop), indent=1) + "\n"
