"""Synthetic user populations: sender profiles and sending frequencies.

A population is the ground truth that a profiling attack tries to recover:
for every sender a probability distribution over receivers (the profile)
and, for the population as a whole, the probability that a message entering
the mix was sent by each user (the frequencies).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ParseError

PROFILE_DISTS = ("zipf", "uniform", "deterministic")
FREQ_DISTS = ("uniform", "zipf")

#: absolute tolerance on probability-vector sums
SUM_TOL = 1e-12


@dataclass(frozen=True)
class UserPopulation:
    """Sending behaviour of a population of users.

    ``profiles[i, j]`` is the probability that a message from sender ``i``
    is addressed to receiver ``j``; ``frequencies[i]`` is the probability
    that a message arriving at the mix comes from sender ``i``.  Instances
    are treated as immutable; rectangular populations (more receivers than
    senders or vice versa) are allowed.
    """

    n_senders: int
    n_receivers: int
    profiles: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "profiles", np.asarray(self.profiles, dtype=float))
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))
        self.validate()

    def validate(self):
        if self.n_senders < 1 or self.n_receivers < 1:
            raise InvalidParameterError("population needs at least one sender and one receiver")
        if self.profiles.shape != (self.n_senders, self.n_receivers):
            raise InvalidParameterError(
                f"profiles shape {self.profiles.shape} does not match "
                f"({self.n_senders}, {self.n_receivers})"
            )
        if self.frequencies.shape != (self.n_senders,):
            raise InvalidParameterError("frequencies length does not match n_senders")
        if np.any(self.profiles < 0) or np.any(self.profiles > 1):
            raise InvalidParameterError("profile entries must lie in [0, 1]")
        row_sums = self.profiles.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise InvalidParameterError(
                f"profile row {worst} sums to {row_sums[worst]!r}, expected 1"
            )
        if np.any(self.frequencies < 0) or np.any(self.frequencies > 1):
            raise InvalidParameterError("frequencies must lie in [0, 1]")
        if abs(float(self.frequencies.sum()) - 1.0) > SUM_TOL:
            raise InvalidParameterError("frequencies must sum to 1")


@dataclass(frozen=True)
class UniformityStats:
    """Per-user uniformity and its frequency-weighted mean.

    ``u[i] = 1 - sum_j profiles[i, j]**2`` is 0 for a user who always writes
    to the same receiver and approaches 1 as the profile flattens;
    ``u_bar = sum_i frequencies[i] * u[i]``.
    """

    u: np.ndarray
    u_bar: float


def gen_population(
    n_users: int,
    n_friends: int,
    profile_dist: str = "zipf",
    freq_dist: str = "uniform",
    seed: int = 0,
) -> UserPopulation:
    """Generate a square synthetic population of ``n_users`` senders/receivers.

    Every user gets ``n_friends`` distinct contacts drawn uniformly at random
    (a user may be her own contact).  ``zipf`` profiles give the k-th chosen
    contact probability ``(1/k) / H_{n_friends}``; ``uniform`` splits mass
    evenly over the contacts; ``deterministic`` sends everything to the first
    contact.  ``uniform`` frequencies are ``1/n_users``; ``zipf`` frequencies
    are ``(1/i) / H_{n_users}`` for user ``i`` (1-based).

    The same arguments always produce the same population.
    """
    if n_users < 1:
        raise InvalidParameterError("n_users must be >= 1")
    if n_friends < 1 or n_friends > n_users:
        raise InvalidParameterError(
            f"n_friends must lie in [1, n_users]; got {n_friends} for {n_users} users"
        )
    if profile_dist not in PROFILE_DISTS:
        raise InvalidParameterError(f"unknown profile_dist {profile_dist!r}")
    if freq_dist not in FREQ_DISTS:
        raise InvalidParameterError(f"unknown freq_dist {freq_dist!r}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    profiles = np.zeros((n_users, n_users))
    if profile_dist == "zipf":
        weights = 1.0 / np.arange(1, n_friends + 1)
        weights /= weights.sum()
    elif profile_dist == "uniform":
        weights = np.full(n_friends, 1.0 / n_friends)
    else:
        weights = None
    for i in range(n_users):
        contacts = rng.choice(n_users, size=n_friends, replace=False)
        if weights is None:
            profiles[i, contacts[0]] = 1.0
        else:
            profiles[i, contacts] = weights

    if freq_dist == "uniform":
        frequencies = np.full(n_users, 1.0 / n_users)
    else:
        frequencies = 1.0 / np.arange(1, n_users + 1)
        frequencies /= frequencies.sum()

    return UserPopulation(n_users, n_users, profiles, frequencies)


def uniformity_stats(pop: UserPopulation) -> UniformityStats:
    """Compute per-user uniformity ``u_i`` and the weighted mean ``u_bar``."""
    u = 1.0 - np.sum(pop.profiles**2, axis=1)
    u_bar = float(np.dot(pop.frequencies, u))
    return UniformityStats(u=u, u_bar=u_bar)


def save_population(pop: UserPopulation, path) -> None:
    """Write a population file (JSON, sparse per-row profile encoding)."""
    rows = []
    for i in range(pop.n_senders):
        (nz,) = np.nonzero(pop.profiles[i])
        rows.append(
            {
                "user": i,
                "contacts": [
                    {"receiver": int(j), "prob": float(pop.profiles[i, j])} for j in nz
                ],
            }
        )
    doc = {
        "n_senders": pop.n_senders,
        "n_receivers": pop.n_receivers,
        "frequencies": [float(f) for f in pop.frequencies],
        "profiles": rows,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_population(path) -> UserPopulation:
    """Read a population file written by :func:`save_population`, checking sizes first."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not a valid population file: {exc.msg}", line_no=exc.lineno) from exc
    try:
        n_s = int(doc["n_senders"])
        n_r = int(doc["n_receivers"])
        frequencies = np.asarray(doc["frequencies"], dtype=float)
        if frequencies.shape != (n_s,):
            raise ValueError(f"{frequencies.size} frequencies for n_senders={n_s}")
        profiles = np.zeros((n_s, n_r))
        users = set()
        for row in doc["profiles"]:
            i = int(row["user"])
            if i in users:
                raise ValueError(f"user {i} appears twice")
            users.add(i)
            receivers = set()
            for entry in row["contacts"]:
                j = int(entry["receiver"])
                if min(i, j) < 0:  # would wrap around to the last row or column
                    raise IndexError(f"negative index in user {i}, receiver {j}")
                if j in receivers:
                    raise ValueError(f"user {i} lists receiver {j} twice")
                receivers.add(j)
                profiles[i, j] = float(entry["prob"])
    except (KeyError, TypeError, IndexError, ValueError, MemoryError) as exc:
        raise ParseError(f"malformed population document: {exc}") from exc
    return UserPopulation(n_s, n_r, profiles, frequencies)
