"""Properties of the trace, event-log and estimate file formats.

The loaders parse a file a column at a time and fall back to a line-by-line
scan for anything else; these properties check that both paths give the same
verdict, and that the writers still produce the bytes of the plain
one-token-at-a-time writers kept here as references.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixprofile import (
    ParseError,
    ProfileEstimate,
    load_estimate,
    load_events,
    load_trace,
    save_estimate,
    save_trace,
)
from mixprofile import ingest
from mixprofile.mixsim import _parse_rounds, _read_trace_file, _scan_rounds

from conftest import random_trace

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def reference_trace_text(trace) -> str:
    """The trace file as written one ``i:c`` token at a time."""

    def pairs(row):
        return " ".join(f"{int(i)}:{int(row[i])}" for i in np.nonzero(row)[0])

    cfg = trace.config
    text = (
        f"# mixtrace n_senders={trace.n_senders} n_receivers={trace.n_receivers} "
        f"t={cfg.t} kind={cfg.kind} alpha={cfg.alpha!r} m={cfg.m} "
        f"rho={trace.rho} seed={trace.seed}\n"
    )
    if cfg.m > 0 and cfg.pool_prior is not None:
        text += "# pool_prior " + " ".join(repr(float(p)) for p in cfg.pool_prior) + "\n"
    return text + "".join(
        f"{r} in {pairs(trace.U[r])} out {pairs(trace.Y[r])}\n" for r in range(trace.rho)
    )


@st.composite
def traces(draw):
    """A small threshold trace, or a pool trace with or without an initial pool."""
    kind = draw(st.sampled_from(("threshold", "pool", "pool with prior")))
    _, trace = random_trace(
        n_users=draw(st.integers(2, 6)),
        t=draw(st.integers(1, 4)),
        rho=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 10_000)),
        kind="threshold" if kind == "threshold" else "binomial_pool",
        alpha=draw(st.sampled_from((0.3, 0.7))) if kind != "threshold" else 1.0,
        m=draw(st.integers(1, 5)) if kind == "pool with prior" else 0,
    )
    return trace


def trace_verdict(read, path):
    """The arrays a reader returns, or the line its ParseError names."""
    try:
        trace = read(path)
    except ParseError as exc:
        return ("ParseError", exc.line_no)
    return (trace.U.tolist(), trace.Y.tolist())


def scan_trace(path):
    return _scan_rounds(_read_trace_file(path))


class TestTraceFile:
    @PROPERTY
    @given(trace=traces())
    def test_round_trip_and_bytes(self, tmp_path, trace):
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        assert path.read_text() == reference_trace_text(trace)
        assert _parse_rounds(_read_trace_file(path)) is not None  # the column path reads it
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.U, trace.U)
        np.testing.assert_array_equal(loaded.Y, trace.Y)
        for field in ("kind", "t", "alpha", "m"):
            assert getattr(loaded.config, field) == getattr(trace.config, field)
        if trace.config.pool_prior is None:
            assert loaded.config.pool_prior is None
        else:
            np.testing.assert_array_equal(loaded.config.pool_prior, trace.config.pool_prior)
        assert loaded.seed == trace.seed

    @PROPERTY
    @given(trace=traces(), data=st.data())
    def test_column_parse_agrees_with_line_scan(self, tmp_path, trace, data):
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        lines = path.read_text().split("\n")[:-1]
        start = 2 if trace.config.m > 0 else 1
        for _ in range(data.draw(st.integers(1, 2))):
            body = len(lines) - start
            k = start + data.draw(st.integers(0, max(body - 1, 0)))
            edit = data.draw(st.sampled_from(
                ("drop", "duplicate", "swap", "corrupt", "negate", "repeat", "bump", "space")))
            if body < 1:
                break
            tokens = lines[k].split(" ")
            at = data.draw(st.integers(0, len(tokens) - 1))
            if edit == "drop":
                del lines[k]
            elif edit == "duplicate":
                lines.insert(k, lines[k])
            elif edit == "swap":
                j = start + data.draw(st.integers(0, body - 1))
                lines[k], lines[j] = lines[j], lines[k]
            elif edit == "corrupt":
                tokens[at] = data.draw(st.sampled_from(
                    ("", "x", "1.5", "0:", ":1", "1:1:1", "+1:1", "0:99", "9:1", "in", "out", "٣:1")))
            elif edit == "negate" and ":" in tokens[at]:
                i, c = tokens[at].split(":")
                tokens[at] = f"{i}:-{c}"
            elif edit == "repeat":
                tokens.insert(at, tokens[at])
            elif edit == "bump" and ":" in tokens[at]:
                i, c = tokens[at].split(":")
                tokens[at] = f"{i}:{int(c) + 1}"
            elif edit == "space":
                tokens[at] = data.draw(st.sampled_from((" ", "\t", "  "))) + tokens[at]
            if edit not in ("drop", "duplicate", "swap"):
                lines[k] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        assert trace_verdict(load_trace, path) == trace_verdict(scan_trace, path)


# rounds 0 and 1 of a threshold trace with t=2, 3 senders and 2 receivers
CANONICAL = ("0 in 0:2 out 1:2", "1 in 0:1 1:1 out 0:1 1:1")
NON_CANONICAL = {
    "three fields in a token": "1 in 0:1:1 1:1 out 0:1 1:1",
    "empty count": "1 in 0: 1:1 out 0:1 1:1",
    "empty column": "1 in :1 1:1 out 0:1 1:1",
    "letter": "1 in 0:1 1:x out 0:1 1:1",
    "sign": "1 in +0:1 1:1 out 0:1 1:1",
    "column out of range": "1 in 0:1 1:1 out 0:1 9:1",
    # two counts that wrap around int64 to a sum of t
    "counts beyond 64 bits": "1 in 0:99999999999999999999 1:99999999999999999999 2:4 out 0:1 1:1",
    "columns descending": "1 in 1:1 0:1 out 0:1 1:1",
    "repeated column": "1 in 0:1 0:1 out 0:1 1:1",
    "round with a leading zero": "01 in 0:1 1:1 out 0:1 1:1",
    "double space": "1 in 0:1  1:1 out 0:1 1:1",
    "trailing space": "1 in 0:1 1:1 out 0:1 1:1 ",
    "missing out": "1 in 0:1 1:1 0:1 1:1",
}


@pytest.mark.parametrize("line", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
def test_column_parse_leaves_other_lines_to_the_scan(tmp_path, line):
    path = tmp_path / "trace.txt"
    path.write_text("# mixtrace n_senders=3 n_receivers=2 t=2 kind=threshold alpha=1.0 m=0 "
                    f"rho=2 seed=0\n{CANONICAL[0]}\n{line}\n")
    assert _parse_rounds(_read_trace_file(path)) is None
    assert trace_verdict(load_trace, path) == trace_verdict(scan_trace, path)


def test_column_parse_reads_canonical_lines(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# mixtrace n_senders=3 n_receivers=2 t=2 kind=threshold alpha=1.0 m=0 "
                    "rho=2 seed=0\n" + "\n".join(CANONICAL) + "\n")
    trace = _parse_rounds(_read_trace_file(path))
    assert trace.U.tolist() == [[2, 0, 0], [1, 1, 0]]
    assert trace.Y.tolist() == [[0, 2], [1, 1]]


def reference_estimate_text(est) -> str:
    """The estimate file as written one entry at a time."""
    text = (
        f"# estimate method={est.method} iterations={est.iterations} "
        f"residual={est.residual:.17g} converged={est.converged} "
        f"n_senders={est.P_hat.shape[0]} n_receivers={est.P_hat.shape[1]}\n"
    )
    return text + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in est.P_hat)


class TestEstimateFile:
    @PROPERTY
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data())
    def test_bytes_match_the_reference_writer(self, tmp_path, rows, cols, data):
        entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((0.0, -0.0, 5e-324))
        p_hat = np.array(data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))
        est = ProfileEstimate(p_hat.reshape(rows, cols), "lsda", 3, float("nan"), False)
        path = tmp_path / "estimate.txt"
        save_estimate(est, path)
        assert path.read_text() == reference_estimate_text(est)
        np.testing.assert_array_equal(load_estimate(path).P_hat, est.P_hat)


ids = st.text(alphabet="abcxyz", min_size=1, max_size=2)
padding = st.sampled_from(("", " ", "\t", "  "))
BAD_LINES = ("1,a", "1,a,b,c", "1,2", "1,2,3,4", "x,a,b", "1,,b", "1, ,b", ",a,b", "1.5,a,b",
             "99999999999999999999,a,b", "1 2,a,b")


@st.composite
def event_logs(draw):
    """Event-log text with comments, blank lines, padded fields, ties and up to two bad lines."""
    lines = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(("event", "event", "event", "comment", "blank")))
        if kind == "comment":
            lines.append(draw(padding) + "# " + draw(ids))
        elif kind == "blank":
            lines.append(draw(padding))
        else:
            fields = [str(draw(st.integers(-3, 3))), draw(ids), draw(ids)]
            lines.append(",".join(draw(padding) + f + draw(padding) for f in fields))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, line_no", [
    ("0,a,x\n1,2,3,4\n5,6\n", 2),  # a four-field and a two-field line balance
    ("0,a,x\n1,,y\n", 2),
    ("0,a,x\n1,b, \n", 2),
    ("0,a,x\n99999999999999999999,b,y\n", 2),
    ("0,a,x\n1.5,b,y\n", 2),
])
def test_block_parse_leaves_bad_lines_to_the_scan(tmp_path, text, line_no):
    path = tmp_path / "events.csv"
    path.write_text(text)
    senders, receivers = {}, {}
    assert ingest._parse_block(text.splitlines(True), senders, receivers) is None
    assert senders == receivers == {}  # the scan starts from the same codes
    with pytest.raises(ParseError) as info:
        load_events(path)
    assert info.value.line_no == line_no


def events_verdict(read, path):
    try:
        log = read(path)
    except ParseError as exc:
        return ("ParseError", exc.line_no)
    names = (log.sender_names, log.receiver_names)
    return (log.timestamps.tolist(), log.senders.tolist(), log.receivers.tolist(), names)


def scan_events(path):
    """The whole file read by the line scan, sorted as load_events sorts."""
    senders, receivers = {}, {}
    with open(path) as fh:
        ts, sent, received = ingest._scan_block(fh.readlines(), 1, senders, receivers)
    order = np.argsort(ts, kind="stable")
    return ingest.EventLog(ts[order], np.asarray(sent, dtype=np.int64)[order],
                           np.asarray(received, dtype=np.int64)[order],
                           tuple(senders), tuple(receivers))


class TestEventLog:
    @PROPERTY
    @given(text=event_logs(), block=st.integers(1, 9))
    def test_block_parse_agrees_with_line_scan(self, tmp_path, text, block):
        path = tmp_path / "events.csv"
        path.write_text(text)
        scanned = events_verdict(scan_events, path)
        if scanned[0] == []:
            return  # no events: load_events raises EmptyLogError instead
        with mock.patch.object(ingest, "EVENT_BLOCK", block):
            assert events_verdict(load_events, path) == scanned
