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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ParseError, UnsupportedQueryError
from .population import SUM_TOL, UserPopulation

THRESHOLD = "threshold"
BINOMIAL_POOL = "binomial_pool"
MIX_KINDS = (THRESHOLD, BINOMIAL_POOL)

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
    and ``m`` are forced to 1 and 0.  ``pool_prior`` gives the probability
    that each of the ``m`` initial pool messages belongs to a given sender;
    it must sum to 1 whenever ``m > 0``.
    """

    kind: str = THRESHOLD
    t: int = 10
    alpha: float = 1.0
    m: int = 0
    pool_prior: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MIX_KINDS:
            raise InvalidParameterError(f"unknown mix kind {self.kind!r}")
        if self.t < 1:
            raise InvalidParameterError("threshold t must be >= 1")
        if self.kind == THRESHOLD:
            object.__setattr__(self, "alpha", 1.0)
            object.__setattr__(self, "m", 0)
            object.__setattr__(self, "pool_prior", None)
            return
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameterError("firing probability alpha must lie in (0, 1]")
        if self.m < 0:
            raise InvalidParameterError("initial pool size m must be >= 0")
        if self.pool_prior is not None:
            prior = np.asarray(self.pool_prior, dtype=float)
            if np.any(prior < 0) or abs(float(prior.sum()) - 1.0) > SUM_TOL:
                raise InvalidParameterError("pool_prior must be a probability vector")
            object.__setattr__(self, "pool_prior", prior)


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

    def __len__(self):
        return self.senders.size


@dataclass(frozen=True)
class Trace:
    """Observable record of a simulated (or ingested) mix run.

    ``U[r, i]`` counts messages sent by user ``i`` in round ``r`` and
    ``Y[r, j]`` counts messages delivered to user ``j`` in round ``r``.
    """

    U: np.ndarray
    Y: np.ndarray
    config: MixConfig
    seed: int = 0
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        object.__setattr__(self, "U", np.asarray(self.U, dtype=np.int64))
        object.__setattr__(self, "Y", np.asarray(self.Y, dtype=np.int64))
        self.validate()

    @property
    def rho(self) -> int:
        return self.U.shape[0]

    @property
    def n_senders(self) -> int:
        return self.U.shape[1]

    @property
    def n_receivers(self) -> int:
        return self.Y.shape[1]

    @property
    def final_pool_size(self) -> int:
        """Messages still inside the mix after the last observed round."""
        return self.rho * self.config.t + self.config.m - int(self.Y.sum())

    def validate(self):
        if self.U.ndim != 2 or self.Y.ndim != 2 or self.U.shape[0] != self.Y.shape[0]:
            raise InvalidParameterError("U and Y must be matrices with one row per round")
        if self.U.shape[0] < 1:
            raise InvalidParameterError("a trace needs at least one round")
        if np.any(self.U < 0) or np.any(self.Y < 0):
            raise InvalidParameterError("counts must be non-negative")
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


def _count_pairs(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Count matrix ``C[r, c]`` of how often each (row, column) index pair occurs."""
    n_rows, n_cols = shape
    return np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols).reshape(shape)


def simulate_trace(
    pop: UserPopulation,
    config: MixConfig,
    rho: int,
    seed: int = 0,
    record_ground_truth: bool = True,
) -> Trace:
    """Simulate ``rho`` rounds of mixing over ``pop``.

    The whole trace is drawn at once.  Each round's senders are one
    multinomial draw of ``t`` trials from the sending frequencies, and each
    message's recipient is drawn independently from its sender's profile row.
    For a pool mix the ``m`` initial pool messages get senders from a single
    multinomial draw over ``pool_prior``, and every message gets a geometric
    delay: it leaves in each round from its entry on (round 0 for the initial
    pool) with probability ``alpha``.

    Identical arguments yield bit-identical traces, extending ``rho`` keeps
    the earlier rounds, and a pool mix with ``alpha=1, m=0`` reproduces the
    threshold mix output exactly (the delays live on their own substream).
    """
    if rho < 1:
        raise InvalidParameterError("rho must be >= 1")
    pool = config.kind == BINOMIAL_POOL
    m = config.m
    if pool and m > 0:
        if config.pool_prior is None:
            raise InvalidParameterError("pool_prior is required when m > 0")
        if config.pool_prior.shape != (pop.n_senders,):
            raise InvalidParameterError("pool_prior length must equal n_senders")

    n_s, n_r, t = pop.n_senders, pop.n_receivers, config.t
    cdf = np.cumsum(pop.profiles, axis=1)
    cdf[:, -1] = 1.0

    # message order: the initial pool, then round by round with senders ascending
    U = _substream(seed, _SS_SENDERS).multinomial(t, pop.frequencies, size=rho)
    counts0 = _substream(seed, _SS_INITIAL_POOL).multinomial(m, config.pool_prior) if m else 0
    nz = np.flatnonzero(U)
    src = np.concatenate([np.repeat(np.arange(n_s), counts0), np.repeat(nz % n_s, U.ravel()[nz])])
    entry = np.concatenate([np.full(m, -1), np.repeat(np.arange(rho), t)])

    # inverse-CDF recipient draw, one searchsorted per sender's profile row
    u = _substream(seed, _SS_RECIPIENTS).random(src.size)
    dst = np.empty(src.size, dtype=np.int64)
    starts = np.cumsum(np.bincount(src, minlength=n_s))[:-1]
    for i, idx in enumerate(np.split(np.argsort(src), starts)):
        dst[idx] = np.searchsorted(cdf[i], u[idx], side="left")

    if pool:
        delay = _substream(seed, _SS_DEPARTURES).geometric(config.alpha, size=src.size) - 1
        exit_ = np.maximum(entry, 0) + delay
        exit_[exit_ >= rho] = -1
    else:
        exit_ = entry
    delivered = exit_ >= 0
    Y = _count_pairs(exit_[delivered], dst[delivered], (rho, n_r))

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
    histogram = {}
    if delays.size:
        values, counts = np.unique(delays, return_counts=True)
        histogram = {int(d): int(c) for d, c in zip(values, counts)}
    mean = float(delays.mean()) if delays.size else float("nan")
    return {"mean_delay_rounds": mean, "delay_histogram": histogram}


#: round lines written or read at a time, so a trace file's text is held
#: O(block) at once whatever rho is
_SAVE_BLOCK = 4096


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
        for start in range(0, trace.rho, _SAVE_BLOCK):
            block = slice(start, start + _SAVE_BLOCK)
            pairs = zip(_pair_lines(trace.U[block]), _pair_lines(trace.Y[block]))
            fh.writelines(f"{r} in {u} out {y}\n" for r, (u, y) in enumerate(pairs, start))


def _read_header(head: list) -> tuple:
    """``(rho, n_senders, n_receivers, config, seed, header line count)`` of a trace file."""
    if not head or not head[0].startswith("# mixtrace "):
        raise ParseError("missing mixtrace header", line_no=1)
    header = {}
    for token in head[0][len("# mixtrace ") :].split():
        key, _, value = token.partition("=")
        header[key] = value
    try:
        sizes = [int(header[key]) for key in ("rho", "n_senders", "n_receivers")]
        config = MixConfig(
            kind=header["kind"], t=int(header["t"]), alpha=float(header["alpha"]), m=int(header["m"])
        )
        seed = int(header["seed"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header: {exc}", line_no=1) from exc
    if min(sizes) < 1:
        raise ParseError("rho, n_senders and n_receivers must be >= 1", line_no=1)
    if len(head) < 2 or not head[1].startswith("# pool_prior "):
        return (*sizes, config, seed, 1)
    try:
        prior = np.array([float(v) for v in head[1][len("# pool_prior ") :].split()])
        if prior.size != sizes[1]:
            raise ValueError(f"{prior.size} entries for {sizes[1]} senders")
        return (*sizes, MixConfig(config.kind, config.t, config.alpha, config.m, prior), seed, 2)
    except ValueError as exc:
        raise ParseError(f"bad pool_prior: {exc}", line_no=2) from exc


_DIGITS = b"0123456789"
#: ``:`` to a space and each non-zero digit to 1, so that after a leading
#: space a number with a leading zero reads `` 00`` or `` 01``
_NUMBER_STARTS = bytes.maketrans(b":123456789", b" 111111111")


def _parse_rounds(lines: list, r0: int, U: np.ndarray, Y: np.ndarray, cap: int) -> None:
    """Fill rows ``r0, r0+1, ...`` of ``U`` and ``Y`` from their round lines.

    Each line must be the next round's, laid out as :func:`save_trace` writes
    it, with counts in ``1 .. cap``.  Anything else raises ValueError, whose
    message describes the line when ``lines`` holds just one.
    """
    if r0 + len(lines) > len(U):
        raise ValueError(f"more round lines than rho={len(U)}")
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
    for mat, parts in zip((U, Y), sides):
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
        cols, counts = values[0::2], values[1::2]
        if cols.max(initial=0) >= n_cols:
            raise ValueError(f"user {cols.max()} outside 0..{n_cols - 1}")
        if counts.min(initial=1) < 1 or counts.max(initial=0) > cap:
            raise ValueError(f"count outside 1..{cap}")
        keys = np.repeat(np.arange(len(parts)), [p.count(":") for p in parts]) * n_cols + cols
        if np.any(np.diff(keys) <= 0):
            raise ValueError("user listed twice or out of order")
        mat[r0 : r0 + len(lines)].ravel()[keys] = counts


def load_trace(path) -> Trace:
    """Read a trace file written by :func:`save_trace`.

    Only the writer's layout is read: rounds ``0 .. rho-1`` in order, one
    line each, with single-spaced ``user:count`` tokens of ASCII digits, no
    leading zeros, non-zero counts and users ascending.  The round lines are
    parsed a block of :data:`_SAVE_BLOCK` at a time, and a block that fails
    is parsed again line by line, so a padded, reordered or otherwise bad
    line, a missing round and counts that break :meth:`Trace.validate` raise
    :class:`ParseError` with the line.  A header whose ``rho`` the rest of
    the file cannot hold raises at line 1, before anything is allocated.
    """
    with open(path) as fh:
        head = list(itertools.islice(fh, 2))
        rho, n_senders, n_receivers, config, seed, body_start = _read_header(head)
        rest = os.fstat(fh.fileno()).st_size - len("".join(head[:body_start]).encode())
        if rho * 10 > rest:  # the shortest round line, "0 in 0:1 out \n", takes 14 bytes
            raise ParseError(f"rho={rho} rounds cannot fit in the {rest} bytes", line_no=1)
        U = np.zeros((rho, n_senders), dtype=np.int64)
        Y = np.zeros((rho, n_receivers), dtype=np.int64)
        # no count in a valid trace exceeds the messages that can have entered the mix
        cap = config.m + config.t * rho
        body = itertools.chain(head[body_start:], fh)
        r0 = 0
        while lines := list(itertools.islice(body, _SAVE_BLOCK)):
            try:
                _parse_rounds(lines, r0, U, Y, cap)
            except ValueError:
                for r, line in enumerate(lines, r0):
                    try:
                        _parse_rounds([line], r, U, Y, cap)
                    except ValueError as exc:
                        line_no = body_start + r + 1
                        raise ParseError(f"bad round record: {exc}", line_no=line_no) from None
                raise
            r0 += len(lines)
    if r0 < rho:
        raise ParseError(f"no line for round {r0}")
    try:
        return Trace(U=U, Y=Y, config=config, seed=seed)
    except InvalidParameterError as exc:
        line_no, message = min((body_start + int(np.argmax(bad)) + 1, message)
                               for bad, message in _count_rules(U, Y, config) if bad.any())
        raise ParseError(message, line_no=line_no) from exc
