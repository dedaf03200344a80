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

from .errors import (InvalidParameterError, ParseError, _decode_utf8, _open_utf8, _unique_keys,
                     check, choice, integer, probabilities, real)

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
    senders or vice versa) are allowed, and ``n_senders`` and ``n_receivers``
    are the shape of the profile matrix.  Each profile row and the frequencies
    must sum to 1 within :data:`SUM_TOL`.
    """

    profiles: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        # checked before the conversions, which refuse ragged rows and strings with a bare ValueError
        check("profiles", self.profiles, (lambda v: np.asarray(v, dtype=float).ndim == 2
                                          and np.size(v) > 0,
                                          "a matrix with at least one row and one column, "
                                          "every entry a number"))
        check("frequencies", self.frequencies, (lambda v: np.asarray(v, dtype=float).ndim == 1,
                                                "a vector of numbers"))
        object.__setattr__(self, "profiles", np.asarray(self.profiles, dtype=float))
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))
        if self.frequencies.shape != (self.n_senders,):
            raise InvalidParameterError(f"{self.frequencies.size} frequencies for "
                                        f"{self.n_senders} profile rows")
        rule = probabilities(SUM_TOL)
        if not rule[0](self.profiles):  # the whole matrix at once; a refusal names its first bad row
            for i, row in enumerate(self.profiles):
                check(f"profile entries of row {i}, summing to {float(row.sum())!r},", row, rule)
        check("frequencies", self.frequencies, probabilities(SUM_TOL))

    n_senders = property(lambda self: self.profiles.shape[0])
    n_receivers = property(lambda self: self.profiles.shape[1])


def gen_population(
    n_users: int,
    n_friends: int,
    profile_dist: str = "zipf",
    freq_dist: str = "uniform",
    seed: int = 0,
) -> UserPopulation:
    """Generate a square synthetic population of ``n_users`` senders/receivers.

    Every user gets ``n_friends`` distinct contacts drawn uniformly at random
    (a user may be among its own contacts).  ``zipf`` profiles give the k-th chosen
    contact probability ``(1/k) / H_{n_friends}``; ``uniform`` splits mass
    evenly over the contacts; ``deterministic`` sends everything to the first
    contact.  ``uniform`` frequencies are ``1/n_users``; ``zipf`` frequencies
    are ``(1/i) / H_{n_users}`` for user ``i`` (1-based).

    The same arguments always produce the same population.
    """
    check("n_users", n_users, integer(1))
    check("n_friends", n_friends, integer(1))
    if n_friends > n_users:
        raise InvalidParameterError(
            f"n_friends must lie in [1, n_users]; got {n_friends} for {n_users} users"
        )
    check("profile_dist", profile_dist, choice(PROFILE_DISTS))
    check("freq_dist", freq_dist, choice(FREQ_DISTS))
    check("seed", seed, integer(0))

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

    return UserPopulation(profiles, frequencies)


def uniformity_stats(pop: UserPopulation) -> np.ndarray:
    """Per-user uniformity ``u[i] = 1 - sum_j profiles[i, j]**2``.

    It is 0 for a user who always writes to the same receiver and approaches
    1 as the profile flattens.
    """
    return 1.0 - np.sum(pop.profiles**2, axis=1)


def save_population(pop: UserPopulation, path) -> None:
    """Write a population file (JSON, sparse per-row profile encoding).

    The text is what ``json.dump(doc, fh, indent=1)`` writes, plus a newline,
    but formatted here: json's indenting encoder is pure Python.  Numbers take
    the forms json gives them, ``int`` and ``float`` reprs; a validated
    population holds only finite floats.
    """
    users = []
    for i, row in enumerate(pop.profiles):
        (nz,) = np.nonzero(row)
        contacts = ",\n".join(
            f'    {{\n     "receiver": {j},\n     "prob": {prob!r}\n    }}'
            for j, prob in zip(nz.tolist(), row[nz].tolist())
        )
        users.append(f'  {{\n   "user": {i},\n   "contacts": [\n{contacts}\n   ]\n  }}')
    frequencies = ",\n  ".join(map(repr, pop.frequencies.tolist()))
    with open(path, "w") as fh:
        fh.write(
            f'{{\n "n_senders": {pop.n_senders},\n "n_receivers": {pop.n_receivers},\n'
            f' "frequencies": [\n  {frequencies}\n ],\n "profiles": [\n'
        )
        fh.write(",\n".join(users))
        fh.write("\n ]\n}\n")


def load_population(path) -> UserPopulation:
    """Read a population file written by :func:`save_population`, checking sizes first.

    Sizes and indices must be JSON integers, probabilities JSON numbers, and no
    object may give a key twice.  A file that breaks these rules, and one whose
    population :class:`UserPopulation` refuses, raises :class:`ParseError`.
    """
    with _open_utf8(path) as fh:
        text = _decode_utf8(fh.read())
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        n_s, n_r, frequencies = doc["n_senders"], doc["n_receivers"], doc["frequencies"]
        check("n_senders", n_s, integer(1))
        check("n_receivers", n_r, integer(1))
        for value in frequencies:
            check("frequency", value, real(0, 1))
        if len(frequencies) != n_s:
            raise ValueError(f"{len(frequencies)} frequencies for n_senders={n_s}")
        profiles = np.zeros((n_s, n_r))
        users = set()
        for row in doc["profiles"]:
            i = row["user"]
            check("user", i, integer(0))
            if i in users:
                raise ValueError(f"user {i} appears twice")
            users.add(i)
            receivers = set()
            for entry in row["contacts"]:
                j, prob = entry["receiver"], entry["prob"]
                check("receiver", j, integer(0))
                check("prob", prob, real(0, 1))
                if j in receivers:
                    raise ValueError(f"user {i} lists receiver {j} twice")
                receivers.add(j)
                profiles[i, j] = prob
        return UserPopulation(profiles, frequencies)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a valid population file: {exc.msg}", line_no=exc.lineno) from exc
    except (KeyError, TypeError, IndexError, ValueError, MemoryError) as exc:
        raise ParseError(f"malformed population document: {exc}") from exc
