"""Shared helpers for the test suite."""

import numpy as np
import pytest

from mixprofile import MixConfig, Trace, gen_population, simulate_trace


def make_trace(U, Y, kind="threshold", alpha=1.0, m=0, pool_prior=None, seed=0):
    """Wrap raw count matrices in a Trace with a matching config."""
    U = np.asarray(U)
    t = int(U.sum(axis=1)[0])
    cfg = MixConfig(kind=kind, t=t, alpha=alpha, m=m, pool_prior=pool_prior)
    return Trace(U=U, Y=np.asarray(Y), config=cfg, seed=seed)


def random_trace(n_users, t, rho, seed, kind="threshold", alpha=1.0, m=0,
                 n_friends=None, profile_dist="zipf"):
    """Simulate a small trace over a fresh Zipf population."""
    n_friends = n_friends or max(2, n_users // 3)
    pop = gen_population(n_users, n_friends, profile_dist, "uniform", seed=seed)
    prior = pop.frequencies if m > 0 else None
    cfg = MixConfig(kind=kind, t=t, alpha=alpha, m=m, pool_prior=prior)
    return pop, simulate_trace(pop, cfg, rho, seed=seed + 1)


def sda_scenario_trace(n_users, n_contacts, t, rho, seed):
    """Build the classic single-target scenario.

    User 0 sends exactly one message per round to a contact chosen uniformly
    from a fixed set; the other t-1 messages come from users 1..N-1 and go to
    receivers chosen uniformly over everyone.  Returns (trace, true profile
    of user 0).
    """
    rng = np.random.default_rng(seed)
    contacts = rng.choice(n_users, size=n_contacts, replace=False)
    profile0 = np.zeros(n_users)
    profile0[contacts] = 1.0 / n_contacts

    others = rng.integers(1, n_users, size=(rho, t - 1))
    alice_to = rng.choice(contacts, size=rho)
    background = rng.integers(0, n_users, size=(rho, t - 1))

    def counts(columns):
        # (rho, k) indices -> (rho, n_users) per-round counts
        flat = np.arange(rho)[:, None] * n_users + columns
        return np.bincount(flat.ravel(), minlength=rho * n_users).reshape(rho, n_users)

    U = counts(np.column_stack([np.zeros(rho, dtype=np.int64), others]))
    Y = counts(np.column_stack([alice_to, background]))
    trace = Trace(U=U, Y=Y, config=MixConfig(kind="threshold", t=t), seed=seed)
    return trace, profile0


@pytest.fixture
def small_population():
    return gen_population(12, 4, "zipf", "uniform", seed=42)
