"""Turn real communication logs into mix traces.

Event logs are CSV lines ``timestamp,sender,receiver`` (one message each).
Messages are batched in timestamp order into threshold-mix rounds of exactly
``t``, after dropping low-volume senders; the empirical profiles and
frequencies computed over the batched messages serve as ground truth for the
attacks.  Sender and receiver spaces are rectangular in general.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLogError, EmptyTraceError, _open_utf8, check, integer
from .mixsim import GroundTruth, MixConfig, Trace, _count_pairs, _read_blocks
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


def _parse_block(lines: list, senders: dict, receivers: dict) -> tuple:
    """Columns ``(timestamps, sender codes, receiver codes)`` of a block of event lines.

    The block is parsed a column at a time.  A bad line raises ValueError with
    the id codes left untouched; its message describes the line when the
    block holds just one.
    """
    events = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    if not events:
        return np.empty(0, dtype=np.int64), [], []
    # a line break opens each line's first field, so a line with more or
    # fewer than three fields moves a line break off the timestamp column
    fields = ",\n".join(events).split(",")
    stamps = fields[0::3]
    if len(fields) != 3 * len(events) or "".join(stamps).count("\n") != len(events) - 1:
        raise ValueError("expected 'timestamp,sender,receiver'")
    try:
        ts = np.array(stamps, dtype=np.int64)  # parses each field as int() does
    except OverflowError:
        raise ValueError("timestamp does not fit 64 bits") from None
    except ValueError as exc:
        raise ValueError(f"bad timestamp: {exc}") from None
    sent, received = list(map(str.strip, fields[1::3])), list(map(str.strip, fields[2::3]))
    if "" in sent or "" in received:
        raise ValueError("empty sender or receiver id")
    return (ts, [senders.setdefault(i, len(senders)) for i in sent],
            [receivers.setdefault(i, len(receivers)) for i in received])


def load_events(path) -> EventLog:
    """Parse an event log file.

    Lines starting with ``#`` are ignored; every other line must be
    ``timestamp,sender,receiver`` with an integer timestamp that fits 64 bits
    and non-empty ids; whitespace around a field is dropped.  Events are
    stably sorted by timestamp.  The lines go through
    :func:`~mixprofile.mixsim._read_blocks`, so a bad line raises
    :class:`ParseError` naming it.
    """
    senders: dict[str, int] = {}  # id -> code, in order of first appearance
    receivers: dict[str, int] = {}
    with _open_utf8(path) as fh:
        columns = _read_blocks(fh, lambda lines, _: _parse_block(lines, senders, receivers), 1)
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
    check("t", t, integer(1))
    check("min_sender_messages", min_sender_messages, integer(0))

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
    sender_ids, senders = np.unique(senders, return_inverse=True)
    receiver_ids, receivers = np.unique(receivers, return_inverse=True)
    n_s, n_r = sender_ids.size, receiver_ids.size

    rounds = np.repeat(np.arange(rho), t)
    U = _count_pairs(rounds, senders, (rho, n_s))
    Y = _count_pairs(rounds, receivers, (rho, n_r))

    pair_counts = _count_pairs(senders, receivers, (n_s, n_r)).astype(float)
    sent_total = pair_counts.sum(axis=1)
    profiles = pair_counts / sent_total[:, None]
    frequencies = sent_total / n_batched

    pop = UserPopulation(profiles, frequencies)
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
