"""Round-by-round simulation of threshold and binomial pool mixes.

Each round the mix collects exactly ``t`` messages.  A threshold mix fires
all of them immediately; a binomial pool mix holds every collected message
in a pool and, once the ``t`` arrivals of the round are in, lets each pooled
message leave independently with probability ``alpha``.  The simulator
produces the observable input/output count matrices together with optional
hidden per-message routing for validation.
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
        elif self.final_pool_size < 0:
            raise InvalidParameterError("pool trace delivers more messages than entered")


def _draw_recipients(profile_cdf: np.ndarray, senders: np.ndarray, u: np.ndarray) -> np.ndarray:
    # inverse-CDF draw per message; cdf rows end exactly at 1.0
    return np.sum(profile_cdf[senders] < u[:, None], axis=1)


def simulate_trace(
    pop: UserPopulation,
    config: MixConfig,
    rho: int,
    seed: int = 0,
    record_ground_truth: bool = True,
) -> Trace:
    """Simulate ``rho`` rounds of mixing over ``pop``.

    Per round the senders are one multinomial draw of ``t`` trials from the
    sending frequencies and each message's recipient is drawn independently
    from its sender's profile row.  For a pool mix the ``m`` initial pool
    messages get senders from a single multinomial draw over ``pool_prior``
    and pool departures are evaluated message by message in insertion order.

    Identical arguments yield bit-identical traces, and a pool mix with
    ``alpha=1, m=0`` reproduces the threshold mix output exactly (the
    departure draws live on their own substream).
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

    gen_send = _substream(seed, _SS_SENDERS)
    gen_recv = _substream(seed, _SS_RECIPIENTS)
    gen_dep = _substream(seed, _SS_DEPARTURES) if pool else None

    total = m + rho * t
    src = np.empty(total, dtype=np.int64)
    dst = np.empty(total, dtype=np.int64)
    entry = np.empty(total, dtype=np.int64)
    exit_ = np.full(total, -1, dtype=np.int64)

    if pool and m > 0:
        counts0 = _substream(seed, _SS_INITIAL_POOL).multinomial(m, config.pool_prior)
        src[:m] = np.repeat(np.arange(n_s), counts0)
        dst[:m] = _draw_recipients(cdf, src[:m], gen_recv.random(m))
        entry[:m] = -1

    U = np.zeros((rho, n_s), dtype=np.int64)
    Y = np.zeros((rho, n_r), dtype=np.int64)
    pending = np.arange(m)  # message ids waiting in the pool, insertion order
    cursor = m
    senders_idx = np.arange(n_s)
    for r in range(rho):
        x = gen_send.multinomial(t, pop.frequencies)
        U[r] = x
        sl = slice(cursor, cursor + t)
        src[sl] = np.repeat(senders_idx, x)
        dst[sl] = _draw_recipients(cdf, src[sl], gen_recv.random(t))
        entry[sl] = r
        if pool:
            pending = np.concatenate([pending, np.arange(cursor, cursor + t)])
            stays = gen_dep.random(pending.size) >= config.alpha
            fired = pending[~stays]
            exit_[fired] = r
            Y[r] = np.bincount(dst[fired], minlength=n_r)
            pending = pending[stays]
        else:
            exit_[sl] = r
            Y[r] = np.bincount(dst[sl], minlength=n_r)
        cursor += t

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
    """Read a trace file written by :func:`save_trace`."""
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
        cfg_kwargs["pool_prior"] = np.array(
            [float(v) for v in lines[1][len("# pool_prior ") :].split()]
        )
        body_start = 2

    U = np.zeros((rho, n_s), dtype=np.int64)
    Y = np.zeros((rho, n_r), dtype=np.int64)
    for offset, line in enumerate(lines[body_start:]):
        line_no = body_start + offset + 1
        parts = line.split()
        try:
            r = _index(parts[0], rho)
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
    return Trace(U=U, Y=Y, config=MixConfig(**cfg_kwargs), seed=seed)
