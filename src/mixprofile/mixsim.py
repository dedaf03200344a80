"""Simulation of threshold and binomial pool mixes.

Each round the mix collects exactly ``t`` messages.  A threshold mix fires
all of them immediately; a binomial pool mix holds every collected message
in a pool and, once the ``t`` arrivals of the round are in, lets each pooled
message leave independently with probability ``alpha``.  A pooled message's
delay is therefore geometric, so the simulator draws the whole trace at once:
senders, recipients and one delay per message.  It produces the observable
input/output count matrices together with optional hidden per-message
routing for validation.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InvalidParameterError, ParseError, UnsupportedQueryError, _decode_utf8,
                     _open_utf8, check, choice, integer, probabilities, real)
from .population import SUM_TOL, UserPopulation

THRESHOLD = "threshold"
BINOMIAL_POOL = "binomial_pool"
MIX_KINDS = (THRESHOLD, BINOMIAL_POOL)
#: the refusal of a setting that a threshold mix does not read, by :class:`MixConfig` and the spec
THRESHOLD_UNREAD = "mix_kind threshold reads neither alpha nor m; got {}={!r}"

# Named random substreams, one per concern, so that extending the number of
# simulated rounds never perturbs the rounds already drawn.
_SS_SENDERS = 0
_SS_RECIPIENTS = 1
_SS_DEPARTURES = 2
_SS_INITIAL_POOL = 3


def _substream(seed: int, concern: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(concern,))))


@dataclass(frozen=True)
class MixConfig:
    """Mix parameters.

    ``kind`` selects the mixing discipline.  For a threshold mix ``alpha``
    and ``m`` must be 1 and 0 and ``pool_prior`` must be None.  ``pool_prior``
    gives the probability that each of the ``m`` initial pool messages
    belongs to a given sender.  A value outside its rule in the README's
    table raises :class:`InvalidParameterError`.
    """

    kind: str = THRESHOLD
    t: int = 10
    alpha: float = 1.0
    m: int = 0
    pool_prior: np.ndarray | None = None

    def __post_init__(self):
        check("kind", self.kind, choice(MIX_KINDS))
        check("t", self.t, integer(1))
        check("alpha", self.alpha, real(0, 1, "(]"))
        check("m", self.m, integer(0))
        if self.kind == THRESHOLD:
            for key, unread in (("alpha", self.alpha != 1), ("m", self.m != 0),
                                ("pool_prior", self.pool_prior is not None)):
                if unread:
                    raise InvalidParameterError(THRESHOLD_UNREAD.format(key, getattr(self, key)))
        elif self.pool_prior is not None:
            object.__setattr__(self, "pool_prior", np.asarray(self.pool_prior, dtype=float))
            check("pool_prior", self.pool_prior, probabilities(SUM_TOL))

    def check_prior(self, n_senders: int) -> None:
        """Raise unless an initial pool (``m > 0``) has a ``pool_prior`` over ``n_senders``."""
        if self.m > 0 and (self.pool_prior is None or self.pool_prior.shape != (n_senders,)):
            raise InvalidParameterError(f"m={self.m} needs a pool_prior of length {n_senders}")


@dataclass(frozen=True)
class GroundTruth:
    """Hidden per-message routing.

    ``entry_rounds`` is -1 for messages seeded into the initial pool (they
    entered before the observation window); ``exit_rounds`` is -1 for
    messages still pooled when the observation ends.
    """

    senders: np.ndarray
    receivers: np.ndarray
    entry_rounds: np.ndarray
    exit_rounds: np.ndarray


@dataclass(frozen=True, eq=False)
class Trace:
    """Observable record of a simulated (or ingested) mix run.

    ``U[r, i]`` counts messages sent by user ``i`` in round ``r`` and
    ``Y[r, j]`` counts messages delivered to user ``j`` in round ``r``.
    Counts are integer or float arrays of non-negative whole numbers below
    ``2**63``; other dtypes (bool, string, object) and other counts raise
    :class:`InvalidParameterError`.  Each of ``U`` and ``Y`` is stored in
    :func:`count_dtype` of its largest count, the narrowest of int8, int16,
    int32 and int64 that holds it: an array already in that dtype is stored
    without a copy, a wider one is copied narrow.  So arithmetic on them can
    overflow: convert with ``.astype(np.int64)`` (or to float) first; numpy's
    sums and means already accumulate in int64 or float64.  The stored arrays
    are read-only, so writing into ``U`` or ``Y`` (or into an array stored
    without a copy) raises ``ValueError``.  A trace compares and hashes by
    identity: the least-squares attacks build its normal equations once, on
    first use, and share them while the trace lives.
    """

    U: np.ndarray
    Y: np.ndarray
    config: MixConfig
    seed: int = 0
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        for name in ("U", "Y"):
            counts = np.asarray(getattr(self, name))
            if counts.dtype.kind not in "iuf":
                raise InvalidParameterError(f"{name} counts must be integers or floats, "
                                            f"not dtype {counts.dtype}")
            # a NaN fails both tests, an infinity the second
            if counts.dtype.kind != "i" and not np.all((counts == np.trunc(counts))
                                                       & (abs(counts) < 2**63)):
                raise InvalidParameterError(f"{name} counts must be whole numbers below 2**63")
            if counts.min(initial=0) < 0:
                raise InvalidParameterError("counts must be non-negative")
            counts = counts.astype(count_dtype(counts.max(initial=0)), copy=False)
            counts.flags.writeable = False
            object.__setattr__(self, name, counts)
        self.validate()

    rho = property(lambda self: self.U.shape[0])
    n_senders = property(lambda self: self.U.shape[1])
    n_receivers = property(lambda self: self.Y.shape[1])

    def validate(self):
        if self.U.ndim != 2 or self.Y.ndim != 2 or self.U.shape[0] != self.Y.shape[0]:
            raise InvalidParameterError("U and Y must be matrices with one row per round")
        check("rho", self.rho, integer(1))
        for bad, message in _count_rules(self.U, self.Y, self.config):
            if bad.any():
                raise InvalidParameterError(message)


def _count_rules(U: np.ndarray, Y: np.ndarray, config: MixConfig) -> list:
    """``(rounds that break it, message)`` for each rule a trace's row sums obey."""
    t = config.t
    rules = [(U.sum(axis=1) != t, f"every U row must sum to t={t}")]
    if config.kind == THRESHOLD:
        rules.append((Y.sum(axis=1) != t, f"every threshold Y row must sum to t={t}"))
    else:
        entered = config.m + t * np.arange(1, U.shape[0] + 1)
        rules.append((np.cumsum(Y.sum(axis=1)) > entered,
                      "pool trace delivers more messages than have entered"))
    return rules


#: the dtypes a :class:`Trace` stores its counts in, narrowest first
COUNT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def count_dtype(largest: int) -> np.dtype:
    """The narrowest of :data:`COUNT_DTYPES` that holds the counts ``0 .. largest``."""
    return next(np.dtype(d) for d in COUNT_DTYPES if largest <= np.iinfo(d).max)


def _count_pairs(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Count matrix ``C[r, c]`` of how often each (row, column) index pair occurs, in
    :func:`count_dtype` of its largest count; a pair whose row is negative is not counted.

    The flat pair indices are sorted and each run of equal ones counted, so no count
    matrix is held wider than it is returned.
    """
    n_rows, n_cols = shape
    keys = (rows * n_cols + cols)[rows >= 0]
    keys.sort()
    first = np.ones(keys.size + 1, dtype=bool)  # the first of each run of equal keys, and the end
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    counts = np.diff(np.flatnonzero(first))
    keys = keys[first[:-1]]
    out = np.zeros(n_rows * n_cols, count_dtype(counts.max(initial=0)))
    out[keys] = counts
    return out.reshape(shape)


def _inverse_cdf(probs: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Column drawn by ``u[k]`` from the probability row ``probs[rows[k]]``, by one search.

    The rows' cumulative sums, normalised by their last entry and shifted by the
    row index, form one flat table, searched with ``side="right"`` for the keys
    ``row + u`` held below ``row + 1`` (which ``row + u`` can round up to).  A
    probability-0 column repeats the entry before it, so no key draws it.  The
    keys are searched in sorted order, which walks the table once instead of
    jumping about it, and each result is put back in its key's place.
    """
    cdf = np.cumsum(np.atleast_2d(probs), axis=1)
    cdf /= cdf[:, -1:]
    n_rows, n_cols = cdf.shape
    table = (cdf + np.arange(n_rows)[:, None]).ravel()
    keys = np.minimum(rows + u, np.nextafter(rows + 1.0, 0))
    order = np.argsort(keys)
    keys = keys[order]
    found = np.empty(keys.size, dtype=np.intp)
    found[order] = np.searchsorted(table, keys, side="right")
    found -= rows * n_cols
    return found


def simulate_trace(
    pop: UserPopulation,
    config: MixConfig,
    rho: int,
    seed: int = 0,
    record_ground_truth: bool = True,
) -> Trace:
    """Simulate ``rho`` rounds of mixing over ``pop``.

    The whole trace is drawn at once by :func:`_inverse_cdf`, one uniform per
    message: each round's ``t`` senders i.i.d. from the sending frequencies, a
    pool mix's ``m`` initial pool messages from ``pool_prior``, and each
    recipient from its sender's profile row.  For a pool mix every message also
    gets a geometric delay: it leaves in each round from its entry on (round 0
    for the initial pool) with probability ``alpha``.

    Identical arguments yield bit-identical traces, extending ``rho`` keeps
    the earlier rounds (each concern draws a prefix of its own substream), and
    a pool mix with ``alpha=1, m=0`` reproduces the threshold mix output
    exactly (the delays live on their own substream).
    """
    check("rho", rho, integer(1))
    check("seed", seed, integer(0))
    config.check_prior(pop.n_senders)
    m, t = config.m, config.t
    # message order: the initial pool, then round by round in draw order
    src = np.empty(m + rho * t, dtype=np.intp)
    if m:
        src[:m] = _inverse_cdf(config.pool_prior, 0, _substream(seed, _SS_INITIAL_POOL).random(m))
    src[m:] = _inverse_cdf(pop.frequencies, 0, _substream(seed, _SS_SENDERS).random(rho * t))
    entry = np.full(src.size, -1)
    entry[m:] = np.arange(rho * t) // t
    U = _count_pairs(entry[m:], src[m:], (rho, pop.n_senders))
    dst = _inverse_cdf(pop.profiles, src, _substream(seed, _SS_RECIPIENTS).random(src.size))

    if config.kind == BINOMIAL_POOL:
        exit_ = _substream(seed, _SS_DEPARTURES).geometric(config.alpha, size=src.size)
        exit_ += entry
        exit_[m:] -= 1  # exit = entry + draw - 1, the initial pool's entry of -1 read as 0
        exit_[exit_ >= rho] = -1
    else:
        exit_ = entry
    Y = _count_pairs(exit_, dst, (rho, pop.n_receivers))  # exit -1: still pooled

    gt = GroundTruth(src, dst, entry, exit_) if record_ground_truth else None
    return Trace(U=U, Y=Y, config=config, seed=seed, ground_truth=gt)


def delay_stats(trace: Trace) -> dict:
    """Mean delay (in rounds) and delay histogram of delivered pool messages.

    Only messages that both entered and left the mix inside the observation
    window are counted; messages seeded into the initial pool are excluded
    because their true entry time is unknown.
    """
    if trace.config.kind != BINOMIAL_POOL:
        raise UnsupportedQueryError("delay statistics are defined for pool traces only")
    if trace.ground_truth is None:
        raise UnsupportedQueryError("trace carries no ground truth")
    gt = trace.ground_truth
    mask = (gt.entry_rounds >= 0) & (gt.exit_rounds >= 0)
    delays = gt.exit_rounds[mask] - gt.entry_rounds[mask]
    values, counts = np.unique(delays, return_counts=True)
    histogram = {int(d): int(c) for d, c in zip(values, counts)}
    mean = float(delays.mean()) if delays.size else float("nan")
    return {"mean_delay_rounds": mean, "delay_histogram": histogram}


#: lines of a text file written or read at a time, so its text is held O(block) at once
TEXT_BLOCK = 4096


def _read_blocks(lines, parse, first_line_no: int) -> list:
    """``parse(block, offset)`` of each block of up to :data:`TEXT_BLOCK` of ``lines``.

    ``lines`` are bytes, and ``parse`` gets them decoded as UTF-8.  A block
    that does not decode, or that ``parse`` rejects with ValueError, is
    decoded and parsed again one line at a time, and the first line that
    fails raises :class:`ParseError` naming it.
    """
    results, offset = [], 0
    while block := list(itertools.islice(lines, TEXT_BLOCK)):
        try:
            results.append(parse([line.decode() for line in block], offset))
        except ValueError:  # UnicodeDecodeError included
            for k, line in enumerate(block):
                try:
                    parse([line.decode()], offset + k)
                except ValueError as exc:
                    raise ParseError(str(exc), line_no=first_line_no + offset + k) from None
            raise
        offset += len(block)
    return results


def _pair_lines(mat: np.ndarray) -> list[str]:
    """The ``"i:c i:c ..."`` text of each row's non-zero counts, in column order."""
    n_cols = mat.shape[1]
    flat = np.flatnonzero(mat)
    counts = mat.ravel()[flat]
    base = int(counts.max()) + 1 if flat.size else 1
    # each "column:count" string is formatted once and looked up per token
    keys, inverse = np.unique(flat % n_cols * base + counts, return_inverse=True)
    table = np.array([f"{k // base}:{k % base}" for k in keys.tolist()], dtype=object)
    tokens = table[inverse].tolist()
    ends = np.searchsorted(flat, np.arange(1, mat.shape[0] + 1) * n_cols).tolist()
    return [" ".join(tokens[a:b]) for a, b in zip([0, *ends[:-1]], ends)]


def save_trace(trace: Trace, path) -> None:
    """Write a trace file: one header line plus one line per round.

    Each round line is ``<round> in <user>:<count> ... out <user>:<count> ...``
    with only non-zero counts listed, users ascending.  Ground truth is not
    serialized.  When the mix has a non-empty initial pool the prior follows
    on a second header line so the file stays self-contained for the pool
    estimators.
    """
    cfg = trace.config
    with open(path, "w") as fh:
        fh.write(
            f"# mixtrace n_senders={trace.n_senders} n_receivers={trace.n_receivers} "
            f"t={cfg.t} kind={cfg.kind} alpha={cfg.alpha!r} m={cfg.m} "
            f"rho={trace.rho} seed={trace.seed}\n"
        )
        if cfg.m > 0 and cfg.pool_prior is not None:
            fh.write("# pool_prior " + " ".join(repr(float(p)) for p in cfg.pool_prior) + "\n")
        for start in range(0, trace.rho, TEXT_BLOCK):
            block = slice(start, start + TEXT_BLOCK)
            pairs = zip(_pair_lines(trace.U[block]), _pair_lines(trace.Y[block]))
            fh.writelines(f"{r} in {u} out {y}\n" for r, (u, y) in enumerate(pairs, start))


def _header_fields(line: str, tag: str) -> dict:
    """The fields of a file's first line, ``# <tag> key=value ...``; a line without the tag,
    a token with no ``=`` and a repeated key raise :class:`ParseError` at line 1."""
    if not line.startswith(f"# {tag} "):
        raise ParseError(f"missing {tag} header", line_no=1)
    fields = {}
    for token in line[len(tag) + 3 :].split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(f"bad header: {token!r} is not key=value", line_no=1)
        if key in fields:
            raise ParseError(f"bad header: {key} is given twice", line_no=1)
        fields[key] = value
    return fields


def _read_header(head: list) -> tuple:
    """``(rho, n_senders, n_receivers, config, seed, header line count)`` of a trace file."""
    header = _header_fields(head[0] if head else "", "mixtrace")
    try:
        sizes = {key: int(header[key]) for key in ("rho", "n_senders", "n_receivers")}
        for key, size in sizes.items():
            check(key, size, integer(1))
        config = MixConfig(
            kind=header["kind"], t=int(header["t"]), alpha=float(header["alpha"]), m=int(header["m"])
        )
        seed = int(header["seed"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header: {exc}", line_no=1) from exc
    if len(head) < 2 or not head[1].startswith("# pool_prior "):
        return (*sizes.values(), config, seed, 1)
    try:
        prior = np.array([float(v) for v in head[1][len("# pool_prior ") :].split()])
        if prior.size != sizes["n_senders"]:
            raise ValueError(f"{prior.size} entries for {sizes['n_senders']} senders")
        return (*sizes.values(), replace(config, pool_prior=prior), seed, 2)
    except ValueError as exc:
        raise ParseError(f"bad pool_prior: {exc}", line_no=2) from exc


_DIGITS = b"0123456789"
#: ``:`` to a space and each non-zero digit to 1, so that after a leading
#: space a number with a leading zero reads `` 00`` or `` 01``
_NUMBER_STARTS = bytes.maketrans(b":123456789", b" 111111111")


def _parse_rounds(lines: list, r0: int, counts: list, cap: int) -> None:
    """Fill rows ``r0, r0+1, ...`` of the matrices ``counts = [U, Y]`` from their round lines.

    Each line must be the next round's, laid out as :func:`save_trace` writes
    it, with counts in ``1 .. cap``.  Anything else raises ValueError, whose
    message describes the line when ``lines`` holds just one.  A matrix whose
    dtype cannot hold a count of the lines is replaced in ``counts`` by a copy
    in :func:`count_dtype` of their largest count, so no count wraps.
    """
    if r0 + len(lines) > len(counts[0]):
        raise ValueError(f"more round lines than rho={len(counts[0])}")
    sides = ([], [])
    for r, line in enumerate(lines, r0):
        head, _, rest = line.rstrip("\n").partition(" in ")
        u, sep, y = rest.partition(" out ")
        if not sep:
            raise ValueError("expected '<round> in <user>:<count> ... out <user>:<count> ...'")
        if head != str(r):
            raise ValueError(f"expected round {r}, got round {head}")
        sides[0].append(u)
        sides[1].append(y)
    for side, parts in enumerate(sides):
        mat = counts[side]
        n_cols = mat.shape[1]
        text = " ".join(p for p in parts if p).encode()
        n_pairs = text.count(b":")
        bare = text.translate(None, _DIGITS)
        if bare != (b": " * n_pairs)[:-1]:
            raise ValueError("expected single-spaced <user>:<count> tokens of ASCII digits")
        starts = (b" " + text).translate(_NUMBER_STARTS)
        if b" 00" in starts or b" 01" in starts:
            raise ValueError("a number has a leading zero")
        # a number beyond 64 bits reads as the int64 maximum, which the range checks refuse
        values = np.fromstring(text.replace(b":", b" "), dtype=np.int64, sep=" ")
        if values.size != 2 * n_pairs:
            raise ValueError("a user or a count is empty")
        cols, found = values[0::2], values[1::2]
        if cols.max(initial=0) >= n_cols:
            raise ValueError(f"user {cols.max()} outside 0..{n_cols - 1}")
        largest = found.max(initial=0)
        if found.min(initial=1) < 1 or largest > cap:
            raise ValueError(f"count outside 1..{cap}")
        keys = np.repeat(np.arange(len(parts)), [p.count(":") for p in parts]) * n_cols + cols
        if np.any(np.diff(keys) <= 0):
            raise ValueError("user listed twice or out of order")
        if largest > np.iinfo(mat.dtype).max:
            counts[side] = mat = mat.astype(count_dtype(largest))
        mat[r0 : r0 + len(lines)].ravel()[keys] = found


def load_trace(path) -> Trace:
    """Read a trace file written by :func:`save_trace`.

    Only the writer's layout is read: rounds ``0 .. rho-1`` in order, one
    line each, with single-spaced ``user:count`` tokens of ASCII digits, no
    leading zeros, non-zero counts and users ascending.  The round lines go
    through :func:`_read_blocks`, so a bad line and counts that break
    :meth:`Trace.validate` raise :class:`ParseError` with the line, and a
    missing round without one.  A header whose ``rho`` the rest of the file
    cannot hold, or whose sizes cannot be allocated, raises at line 1.
    ``U`` and ``Y`` are read into int8 matrices, each widened only when a
    count needs it, so a trace is never held in a wider dtype than it is stored.
    """
    with _open_utf8(path) as fh:
        head = list(itertools.islice(fh, 2))
        text = [_decode_utf8(line, line_no) for line_no, line in enumerate(head, 1)]
        rho, n_senders, n_receivers, config, seed, body_start = _read_header(text)
        rest = os.fstat(fh.fileno()).st_size - len(b"".join(head[:body_start]))
        if rho * 10 > rest:  # the shortest round line, "0 in 0:1 out \n", takes 14 bytes
            raise ParseError(f"rho={rho} rounds cannot fit in the {rest} bytes", line_no=1)
        try:
            counts = [np.zeros((rho, n), dtype=COUNT_DTYPES[0]) for n in (n_senders, n_receivers)]
        except MemoryError as exc:
            raise ParseError(f"header sizes too large: {exc}", line_no=1) from exc
        # no count in a valid trace exceeds the messages that can have entered the mix
        cap = config.m + config.t * rho

        def parse(lines, r0):  # fills U and Y in place; a block's result is its line count
            _parse_rounds(lines, r0, counts, cap)
            return len(lines)
        n_lines = sum(_read_blocks(itertools.chain(head[body_start:], fh), parse, body_start + 1))
    U, Y = counts
    if n_lines < rho:
        raise ParseError(f"no line for round {n_lines}")
    try:
        return Trace(U=U, Y=Y, config=config, seed=seed)
    except InvalidParameterError as exc:
        line_no, message = min((body_start + int(np.argmax(bad)) + 1, message)
                               for bad, message in _count_rules(U, Y, config) if bad.any())
        raise ParseError(message, line_no=line_no) from exc
