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
        t = self.config.t
        if np.any(self.U.sum(axis=1) != t):
            raise InvalidParameterError(f"every U row must sum to t={t}")
        if self.config.kind == THRESHOLD:
            if np.any(self.Y.sum(axis=1) != t):
                raise InvalidParameterError(f"every threshold Y row must sum to t={t}")
        elif np.any(np.cumsum(self.Y.sum(axis=1)) > self.config.m + t * np.arange(1, self.rho + 1)):
            raise InvalidParameterError("pool trace delivers more messages than have entered")


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


def _sparse_pairs(row: np.ndarray) -> str:
    (nz,) = np.nonzero(row)
    return " ".join(f"{int(i)}:{int(row[i])}" for i in nz)


def save_trace(trace: Trace, path) -> None:
    """Write a trace file: one header line plus one line per round.

    Each round line is ``<round> in <user>:<count> ... out <user>:<count> ...``
    with only non-zero counts listed.  Ground truth is not serialized.  When
    the mix has a non-empty initial pool the prior follows on a second header
    line so the file stays self-contained for the pool estimators.
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
        for r in range(trace.rho):
            fh.write(f"{r} in {_sparse_pairs(trace.U[r])} out {_sparse_pairs(trace.Y[r])}\n")


def _index(text: str, size: int) -> int:
    """A round, sender or receiver index; a negative one would wrap around."""
    if not 0 <= (value := int(text)) < size:
        raise IndexError(f"index {value} outside 0..{size - 1}")
    return value


def load_trace(path) -> Trace:
    """Read a trace file written by :func:`save_trace`.

    Every round ``0 .. rho-1`` needs exactly one line; a malformed, repeated
    or missing round line raises :class:`ParseError`.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# mixtrace "):
        raise ParseError("missing mixtrace header", line_no=1)
    header = {}
    for token in lines[0][len("# mixtrace ") :].split():
        key, _, value = token.partition("=")
        header[key] = value
    try:
        n_s = int(header["n_senders"])
        n_r = int(header["n_receivers"])
        rho = int(header["rho"])
        cfg_kwargs = {
            "kind": header["kind"],
            "t": int(header["t"]),
            "alpha": float(header["alpha"]),
            "m": int(header["m"]),
        }
        seed = int(header["seed"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header: {exc}", line_no=1) from exc

    body_start = 1
    if len(lines) > 1 and lines[1].startswith("# pool_prior "):
        try:
            prior = [float(v) for v in lines[1][len("# pool_prior ") :].split()]
        except ValueError as exc:
            raise ParseError(f"bad pool_prior: {exc}", line_no=2) from exc
        cfg_kwargs["pool_prior"] = np.array(prior)
        body_start = 2

    U = np.zeros((rho, n_s), dtype=np.int64)
    Y = np.zeros((rho, n_r), dtype=np.int64)
    seen = np.zeros(rho, dtype=bool)
    for offset, line in enumerate(lines[body_start:]):
        line_no = body_start + offset + 1
        parts = line.split()
        try:
            r = _index(parts[0], rho)
            if seen[r]:
                raise ValueError(f"round {r} already listed")
            seen[r] = True
            in_at = parts.index("in")
            out_at = parts.index("out")
            for pair in parts[in_at + 1 : out_at]:
                i, c = pair.split(":")
                U[r, _index(i, n_s)] = int(c)
            for pair in parts[out_at + 1 :]:
                j, c = pair.split(":")
                Y[r, _index(j, n_r)] = int(c)
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad round record: {exc}", line_no=line_no) from exc
    if not seen.all():
        raise ParseError(f"no line for round {int(np.argmin(seen))}")
    return Trace(U=U, Y=Y, config=MixConfig(**cfg_kwargs), seed=seed)
