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


def load_events(path) -> EventLog:
    """Parse an event log file.

    Lines starting with ``#`` are ignored; every other line must be
    ``timestamp,sender,receiver`` with an integer timestamp and non-empty
    ids.  Events are stably sorted by timestamp.
    """
    timestamps = []
    senders = []
    receivers = []
    sender_codes: dict[str, int] = {}
    receiver_codes: dict[str, int] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(
                    f"expected 'timestamp,sender,receiver', got {line!r}", line_no=line_no
                )
            ts_text, sender, receiver = (f.strip() for f in fields)
            try:
                ts = int(ts_text)
            except ValueError:
                raise ParseError(f"bad timestamp {ts_text!r}", line_no=line_no) from None
            if not sender or not receiver:
                raise ParseError("empty sender or receiver id", line_no=line_no)
            timestamps.append(ts)
            senders.append(sender_codes.setdefault(sender, len(sender_codes)))
            receivers.append(receiver_codes.setdefault(receiver, len(receiver_codes)))
    if not timestamps:
        raise EmptyLogError(f"no events in {path}")

    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    return EventLog(
        timestamps=ts[order],
        senders=np.asarray(senders, dtype=np.int64)[order],
        receivers=np.asarray(receivers, dtype=np.int64)[order],
        sender_names=tuple(sender_codes),
        receiver_names=tuple(receiver_codes),
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
