"""Turn real communication logs into mix traces.

Event logs are CSV lines ``timestamp,sender,receiver`` (one message each).
Messages are batched in timestamp order into threshold-mix rounds of exactly
``t``, after dropping low-volume senders; the empirical profiles and
frequencies computed over the batched messages serve as ground truth for the
attacks.  Sender and receiver spaces are rectangular in general.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLogError, EmptyTraceError, InvalidParameterError, ParseError
from .mixsim import GroundTruth, MixConfig, Trace, _count_pairs
from .population import UserPopulation


@dataclass(frozen=True)
class EventLog:
    """Parsed events, sorted by timestamp (stably), with id dictionaries."""

    timestamps: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    sender_names: tuple
    receiver_names: tuple

    def __len__(self):
        return self.timestamps.size


#: lines parsed at a time, so no whole-file string column is ever held
EVENT_BLOCK = 4096
_INT64 = np.iinfo(np.int64)


def _parse_block(lines: list, senders: dict, receivers: dict) -> tuple | None:
    """Columns of a block of event lines, parsed a column at a time.

    None when any line is malformed, with the id codes left untouched; the
    line scan then names the line.
    """
    events = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    # a line break opens each line's first field, so a line with more or
    # fewer than three fields moves a line break off the timestamp column
    fields = ",\n".join(events).split(",")
    stamps = fields[0::3]
    if len(fields) != 3 * len(events) or "".join(stamps).count("\n") != len(events) - 1:
        return None
    sent, received = list(map(str.strip, fields[1::3])), list(map(str.strip, fields[2::3]))
    if "" in sent or "" in received:
        return None
    try:
        ts = np.array(stamps, dtype=np.int64)  # parses each field as int() does
    except (ValueError, OverflowError):
        return None
    return (ts, [senders.setdefault(i, len(senders)) for i in sent],
            [receivers.setdefault(i, len(receivers)) for i in received])


def _scan_block(lines: list, first_line_no: int, senders: dict, receivers: dict):
    """Columns of a block of event lines read one by one; a bad line raises :class:`ParseError`."""
    ts_col, s_col, r_col = [], [], []
    for line_no, raw in enumerate(lines, start=first_line_no):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"expected 'timestamp,sender,receiver', got {line!r}", line_no=line_no)
        ts_text, sender, receiver = (f.strip() for f in fields)
        try:
            ts = int(ts_text)
        except ValueError:
            raise ParseError(f"bad timestamp {ts_text!r}", line_no=line_no) from None
        if not _INT64.min <= ts <= _INT64.max:
            raise ParseError(f"timestamp {ts} does not fit 64 bits", line_no=line_no)
        if not sender or not receiver:
            raise ParseError("empty sender or receiver id", line_no=line_no)
        ts_col.append(ts)
        s_col.append(senders.setdefault(sender, len(senders)))
        r_col.append(receivers.setdefault(receiver, len(receivers)))
    return np.array(ts_col, dtype=np.int64), s_col, r_col


def load_events(path) -> EventLog:
    """Parse an event log file.

    Lines starting with ``#`` are ignored; every other line must be
    ``timestamp,sender,receiver`` with an integer timestamp that fits 64 bits
    and non-empty ids; whitespace around a field is dropped.  Events are
    stably sorted by timestamp.  The file is parsed a block of
    :data:`EVENT_BLOCK` lines at a time; a block with a bad line is read
    again line by line, so the :class:`ParseError` names the line.
    """
    senders: dict[str, int] = {}  # id -> code, in order of first appearance
    receivers: dict[str, int] = {}
    columns = []
    with open(path) as fh:
        first_line_no = 1
        while lines := list(itertools.islice(fh, EVENT_BLOCK)):
            columns.append(_parse_block(lines, senders, receivers)
                           or _scan_block(lines, first_line_no, senders, receivers))
            first_line_no += len(lines)
    if not any(len(c[0]) for c in columns):
        raise EmptyLogError(f"no events in {path}")
    ts, sent, received = (np.concatenate([np.asarray(c[k], dtype=np.int64) for c in columns])
                          for k in range(3))
    order = np.argsort(ts, kind="stable")
    return EventLog(
        timestamps=ts[order],
        senders=sent[order],
        receivers=received[order],
        sender_names=tuple(senders),
        receiver_names=tuple(receivers),
    )


def build_rounds(
    events: EventLog,
    t: int = 10,
    min_sender_messages: int = 20,
) -> tuple[Trace, UserPopulation]:
    """Batch events into threshold rounds and extract empirical ground truth.

    Senders with fewer than ``min_sender_messages`` messages in the whole log
    are dropped first.  The remaining events are grouped, in timestamp order,
    into rounds of exactly ``t``; a trailing incomplete batch is discarded.
    Profiles are the per-sender proportions of batched messages to each
    receiver and ``f_i`` is each sender's share of all batched messages, so
    the returned population describes exactly the traffic inside the trace.
    """
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    if min_sender_messages < 0:
        raise InvalidParameterError("min_sender_messages must be >= 0")

    counts = np.bincount(events.senders, minlength=len(events.sender_names))
    keep = counts[events.senders] >= min_sender_messages
    senders = events.senders[keep]
    receivers = events.receivers[keep]

    n_batched = (senders.size // t) * t
    if n_batched == 0:
        raise EmptyTraceError(
            f"{senders.size} retained events cannot fill a round of t={t}"
        )
    senders = senders[:n_batched]
    receivers = receivers[:n_batched]
    rho = n_batched // t

    # reindex to the senders/receivers actually present in complete rounds
    sender_ids = np.unique(senders)
    receiver_ids = np.unique(receivers)
    s_code = np.full(len(events.sender_names), -1, dtype=np.int64)
    s_code[sender_ids] = np.arange(sender_ids.size)
    r_code = np.full(len(events.receiver_names), -1, dtype=np.int64)
    r_code[receiver_ids] = np.arange(receiver_ids.size)
    senders = s_code[senders]
    receivers = r_code[receivers]
    n_s, n_r = sender_ids.size, receiver_ids.size

    rounds = np.repeat(np.arange(rho), t)
    U = _count_pairs(rounds, senders, (rho, n_s))
    Y = _count_pairs(rounds, receivers, (rho, n_r))

    pair_counts = _count_pairs(senders, receivers, (n_s, n_r)).astype(float)
    sent_total = pair_counts.sum(axis=1)
    profiles = pair_counts / sent_total[:, None]
    frequencies = sent_total / n_batched

    pop = UserPopulation(n_s, n_r, profiles, frequencies)
    trace = Trace(
        U=U,
        Y=Y,
        config=MixConfig(kind="threshold", t=t),
        seed=0,
        ground_truth=GroundTruth(
            senders=senders, receivers=receivers, entry_rounds=rounds, exit_rounds=rounds
        ),
    )
    return trace, pop
