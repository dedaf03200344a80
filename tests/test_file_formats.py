"""Properties of the trace, event-log and estimate file formats.

The loaders parse a block of lines at a time, and parse a block that fails
again one line at a time to name the bad line.  These properties check them
against plain line-by-line reference readers kept here, and check that the
writers still produce the bytes of the one-token-at-a-time reference writers
kept next to them.
"""

import os
import re
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
from mixprofile import ingest, mixsim

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


PAIRS = r"(?:(?:0|[1-9][0-9]*):[1-9][0-9]*(?: (?:0|[1-9][0-9]*):[1-9][0-9]*)*)?"
ROUND_LINE = re.compile(rf"(0|[1-9][0-9]*) in ({PAIRS}) out ({PAIRS})")


def reference_load_trace(path):
    """The trace file read one line at a time against the canonical grammar.

    Returns the trace.  A header that claims more rounds than the rest of
    the file holds at 10 bytes a round raises :class:`ParseError` at line 1.
    Then the first line that breaks the grammar, names a round out of order,
    a user out of range or out of order, or a count outside ``1 .. m + t·rho``
    raises :class:`ParseError` naming it; then a missing round; then the first
    line of a round whose counts break a row sum rule.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    rho, n_senders, n_receivers, config, _, body_start = mixsim._read_header(lines[:2])
    if rho * 10 > os.path.getsize(path) - sum(len(line) + 1 for line in lines[:body_start]):
        raise ParseError("rho rounds cannot fit", line_no=1)
    U = np.zeros((rho, n_senders), dtype=np.int64)
    Y = np.zeros((rho, n_receivers), dtype=np.int64)
    cap = config.m + config.t * rho
    body = lines[body_start:]
    for r, line in enumerate(body):
        line_no = body_start + r + 1
        match = ROUND_LINE.fullmatch(line)
        if r >= rho or not match or int(match[1]) != r:
            raise ParseError("bad round line", line_no=line_no)
        for mat, pairs in ((U, match[2]), (Y, match[3])):
            last = -1
            for pair in pairs.split():
                i, c = map(int, pair.split(":"))
                if not last < i < mat.shape[1] or c > cap:
                    raise ParseError("bad pair", line_no=line_no)
                mat[r, i], last = c, i
    if len(body) < rho:
        raise ParseError("missing round")
    t = config.t
    bad = U.sum(axis=1) != t
    if config.kind == "threshold":
        bad |= Y.sum(axis=1) != t
    else:
        bad |= np.cumsum(Y.sum(axis=1)) > config.m + t * np.arange(1, rho + 1)
    if bad.any():
        raise ParseError("row sums", line_no=body_start + int(np.argmax(bad)) + 1)
    return mixsim.Trace(U, Y, config)


class TestTraceFile:
    @PROPERTY
    @given(trace=traces())
    def test_round_trip_and_bytes(self, tmp_path, trace):
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        assert path.read_text() == reference_trace_text(trace)
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
    @given(trace=traces(), block=st.integers(1, 9), data=st.data())
    def test_column_parse_agrees_with_line_scan(self, tmp_path, trace, block, data):
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        lines = path.read_text().split("\n")[:-1]
        start = 2 if trace.config.m > 0 else 1
        for _ in range(data.draw(st.integers(1, 2))):
            body = len(lines) - start
            k = start + data.draw(st.integers(0, max(body - 1, 0)))
            edit = data.draw(st.sampled_from(("drop", "duplicate", "swap", "extend", "corrupt",
                                              "negate", "repeat", "bump", "space")))
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
            elif edit == "extend":  # a well-formed line for the round after the last
                lines.append(f"{trace.rho} " + lines[k].partition(" ")[2])
            elif edit == "corrupt":
                tokens[at] = data.draw(st.sampled_from(
                    ("", "x", "1.5", "0:", ":1", "1:1:1", "+1:1", "0:99", "9:1", "in", "out", "٣:1",
                     "0_1:1", "01:1", "0:01", "0:0")))
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
            if edit not in ("drop", "duplicate", "swap", "extend"):
                lines[k] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(mixsim, "_SAVE_BLOCK", block):
            assert trace_verdict(load_trace, path) == trace_verdict(reference_load_trace, path)


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
    "non-ASCII digit": "1 in ٣:1 1:1 out 0:1 1:1",
    "underscore": "1 in 0_1:1 1:1 out 0:1 1:1",
    "column with a leading zero": "1 in 00:1 1:1 out 0:1 1:1",
    "count with a leading zero": "1 in 0:01 1:1 out 0:1 1:1",
    "zero count": "1 in 0:1 1:1 2:0 out 0:1 1:1",
    "skipped round": "2 in 0:1 1:1 out 0:1 1:1",
}
HEADER = "# mixtrace n_senders=3 n_receivers=2 t=2 kind=threshold alpha=1.0 m=0 rho=2 seed=0\n"


@pytest.mark.parametrize("line", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
def test_column_parse_leaves_other_lines_to_the_scan(tmp_path, line):
    # the block is rejected, and the line-at-a-time parse names the line
    path = tmp_path / "trace.txt"
    path.write_text(f"{HEADER}{CANONICAL[0]}\n{line}\n")
    with pytest.raises(ParseError) as info:
        load_trace(path)
    assert info.value.line_no == 3
    assert trace_verdict(reference_load_trace, path) == ("ParseError", 3)


def test_reordered_rounds_are_rejected(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(f"{HEADER}{CANONICAL[1]}\n{CANONICAL[0]}\n")
    with pytest.raises(ParseError, match="line 2: .*expected round 0, got round 1"):
        load_trace(path)


def test_column_parse_reads_canonical_lines(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(HEADER + "\n".join(CANONICAL) + "\n")
    for block in (1, 2):
        with mock.patch.object(mixsim, "_SAVE_BLOCK", block):
            trace = load_trace(path)
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
    # the block is rejected with the id codes untouched, and the
    # line-at-a-time parse names the line
    path = tmp_path / "events.csv"
    path.write_text(text)
    senders, receivers = {}, {}
    with pytest.raises(ValueError):
        ingest._parse_block(text.splitlines(True), senders, receivers)
    assert senders == receivers == {}
    with pytest.raises(ParseError) as info:
        load_events(path)
    assert info.value.line_no == line_no


def test_block_of_comments_parses_to_empty_columns():
    ts, sent, received = ingest._parse_block(["# note\n", "\n", "  \n"], {}, {})
    assert ts.dtype == np.int64 and ts.size == 0
    assert sent == received == []


def events_verdict(read, path):
    try:
        log = read(path)
    except ParseError as exc:
        return ("ParseError", exc.line_no)
    names = (log.sender_names, log.receiver_names)
    return (log.timestamps.tolist(), log.senders.tolist(), log.receivers.tolist(), names)


def reference_load_events(path):
    """The event log read one line at a time, sorted as load_events sorts."""
    senders, receivers = {}, {}  # id -> code, in order of first appearance
    ts, sent, received = [], [], []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 3 or "" in fields[1:]:
                raise ParseError("bad fields", line_no=line_no)
            try:
                stamp = int(fields[0])
            except ValueError:
                raise ParseError("bad timestamp", line_no=line_no) from None
            if not -2**63 <= stamp < 2**63:
                raise ParseError("timestamp beyond 64 bits", line_no=line_no)
            ts.append(stamp)
            sent.append(senders.setdefault(fields[1], len(senders)))
            received.append(receivers.setdefault(fields[2], len(receivers)))
    order = np.argsort(np.array(ts, dtype=np.int64), kind="stable")
    return ingest.EventLog(np.array(ts, dtype=np.int64)[order],
                           np.array(sent, dtype=np.int64)[order],
                           np.array(received, dtype=np.int64)[order],
                           tuple(senders), tuple(receivers))


class TestEventLog:
    @PROPERTY
    @given(text=event_logs(), block=st.integers(1, 9))
    def test_block_parse_agrees_with_line_scan(self, tmp_path, text, block):
        path = tmp_path / "events.csv"
        path.write_text(text)
        expected = events_verdict(reference_load_events, path)
        if expected[0] == []:
            return  # no events: load_events raises EmptyLogError instead
        with mock.patch.object(ingest, "EVENT_BLOCK", block):
            assert events_verdict(load_events, path) == expected
