import numpy as np
import pytest

from mixprofile import (
    EmptyLogError,
    EmptyTraceError,
    ParseError,
    build_rounds,
    load_events,
)
from mixprofile import mixsim


def write(tmp_path, text, name="events.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEvents:
    def test_basic_parse(self, tmp_path):
        log = load_events(write(tmp_path, "0,a,x\n5,b,y\n"))
        assert len(log) == 2
        assert log.sender_names == ("a", "b")
        assert log.receiver_names == ("x", "y")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        log = load_events(write(tmp_path, "# header\n\n0,a,x\n"))
        assert len(log) == 1

    def test_out_of_order_timestamps_sorted_stably(self, tmp_path):
        log = load_events(write(tmp_path, "9,a,x\n1,b,y\n9,c,z\n"))
        assert log.timestamps.tolist() == [1, 9, 9]
        # both t=9 events keep their file order
        assert log.sender_names[log.senders[1]] == "a"
        assert log.sender_names[log.senders[2]] == "c"

    def test_missing_field_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_events(write(tmp_path, "0,a\n"))

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_events(write(tmp_path, "0,a,x\nlater,b,y\n"))

    def test_padded_fields_are_stripped(self, tmp_path):
        log = load_events(write(tmp_path, " 3 ,\ta , x\n1,b,y\n"))
        assert log.timestamps.tolist() == [1, 3]
        assert log.sender_names == ("a", "b")
        assert log.receiver_names == ("x", "y")

    def test_bad_line_in_a_later_block_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mixsim, "TEXT_BLOCK", 2)
        text = "0,a,x\n# note\n1,b,y\n2,c,z\n3,d\n4,e,w\n"
        with pytest.raises(ParseError, match="line 5:"):
            load_events(write(tmp_path, text))

    def test_timestamp_beyond_64_bits(self, tmp_path):
        with pytest.raises(ParseError, match="line 2:.*64 bits"):
            load_events(write(tmp_path, "0,a,x\n99999999999999999999,b,y\n"))

    def test_ids_keep_first_appearance_order_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mixsim, "TEXT_BLOCK", 2)
        log = load_events(write(tmp_path, "5,b,y\n4,a,x\n3,b,z\n2,c,x\n1,a,y\n"))
        assert log.sender_names == ("b", "a", "c")
        assert log.receiver_names == ("y", "x", "z")
        assert log.timestamps.tolist() == [1, 2, 3, 4, 5]
        assert [log.sender_names[i] for i in log.senders] == ["a", "c", "b", "a", "b"]

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyLogError):
            load_events(write(tmp_path, "# nothing here\n"))

    def test_zero_byte_file(self, tmp_path):
        with pytest.raises(EmptyLogError):
            load_events(write(tmp_path, ""))


class TestBuildRounds:
    def test_batching_drops_trailing_partial_round(self, tmp_path):
        log = load_events(write(tmp_path, "0,a,x\n1,b,y\n2,a,z\n"))
        trace, pop = build_rounds(log, t=2, min_sender_messages=0)
        assert trace.rho == 1
        assert trace.U.sum() == 2
        # one message each from a and b; receivers x and y
        assert trace.U[0].tolist() == [1, 1]
        assert trace.Y[0].tolist() == [1, 1]
        assert pop.n_receivers == 2  # z fell out with the partial batch

    def test_min_sender_filter(self, tmp_path):
        text = "0,a,x\n1,b,y\n2,a,z\n3,a,x\n"
        log = load_events(write(tmp_path, text))
        trace, pop = build_rounds(log, t=3, min_sender_messages=2)
        # b's single message is dropped before batching
        assert pop.n_senders == 1
        assert trace.U.sum() == 3

    def test_empirical_proportions(self, tmp_path):
        text = "0,a,x\n1,a,x\n2,a,x\n3,a,y\n"
        log = load_events(write(tmp_path, text))
        trace, pop = build_rounds(log, t=2, min_sender_messages=0)
        x_col = pop.profiles[0, 0]
        assert x_col == pytest.approx(0.75)
        assert pop.frequencies[0] == 1.0

    def test_row_sums_and_frequencies(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = [
            f"{ts},{rng.choice(list('abcdef'))},{rng.choice(list('uvwxyz'))}"
            for ts in range(157)
        ]
        log = load_events(write(tmp_path, "\n".join(lines) + "\n"))
        trace, pop = build_rounds(log, t=10, min_sender_messages=0)
        assert trace.rho == 15
        assert np.all(trace.U.sum(axis=1) == 10)
        assert np.all(trace.Y.sum(axis=1) == 10)
        assert pop.frequencies.sum() == pytest.approx(1.0, abs=1e-12)
        # frequencies are shares of batched messages
        np.testing.assert_allclose(pop.frequencies * 150, trace.U.sum(axis=0), atol=1e-9)

    def test_deterministic_reingest(self, tmp_path):
        text = "\n".join(f"{i},s{i % 5},r{i % 7}" for i in range(60)) + "\n"
        log1 = load_events(write(tmp_path, text, "a.csv"))
        log2 = load_events(write(tmp_path, text, "b.csv"))
        t1, p1 = build_rounds(log1, t=4, min_sender_messages=0)
        t2, p2 = build_rounds(log2, t=4, min_sender_messages=0)
        np.testing.assert_array_equal(t1.U, t2.U)
        np.testing.assert_array_equal(t1.Y, t2.Y)
        np.testing.assert_array_equal(p1.profiles, p2.profiles)

    def test_too_few_events(self, tmp_path):
        log = load_events(write(tmp_path, "0,a,x\n"))
        with pytest.raises(EmptyTraceError):
            build_rounds(log, t=5, min_sender_messages=0)

    def test_no_ground_truth_attached(self, tmp_path):
        # the empirical population is the ground truth; nothing reads per-message records
        log = load_events(write(tmp_path, "0,a,x\n1,b,y\n2,a,z\n3,b,y\n"))
        trace, _ = build_rounds(log, t=2, min_sender_messages=0)
        assert trace.ground_truth is None
