"""Adversary-side observation model for pool mixes.

A pool mix hides how many of each sender's messages actually left in a given
round, but the expected number is a simple geometric convolution of the
observed inputs: a message that entered in round ``k`` leaves in round
``r >= k`` with probability ``alpha * (1 - alpha)**(r - k)``.  The pool
estimators replace the input matrix ``U`` with this expectation ``U_hat``,
computed :data:`BLOCK` rounds at a time: one small matrix product per block,
plus the previous block's last row carried in with its decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixsim import BINOMIAL_POOL, Trace

#: rounds per block of the recursion: the fastest block, or within 5% of it, from 100 to
#: 1,000 senders at rho=10^4
BLOCK = 32


@dataclass(frozen=True)
class ExpectedDepartures:
    """Expected per-round departure counts ``U_hat[r, i]`` for each sender."""

    U_hat: np.ndarray


def expected_departures(trace: Trace) -> ExpectedDepartures:
    """Expected departures ``U_hat`` for a trace.

    Threshold traces pass through unchanged (every arrival leaves the same
    round).  For pool traces ``U_hat`` is the recursion

        ``u_hat[0] = alpha * (U[0] + m * f)``
        ``u_hat[r] = (1 - alpha) * u_hat[r-1] + alpha * U[r]``

    where ``f`` is the trace configuration's ``pool_prior``, the adversary's
    estimate of the initial pool composition.  It equals ``B @ (U + N0)``
    with the lower-triangular ``B[r, k] = alpha * (1 - alpha)**(r - k)`` and
    ``N0`` carrying ``m * f`` in its first row.  Each block of :data:`BLOCK`
    rounds is computed in place as ``T @ rows``, ``T`` the top-left corner of
    ``B``, plus ``(1 - alpha)**(i+1)`` times the previous block's last row in
    its row ``i``: O(rho * BLOCK * n_senders) work in one float copy of
    ``U``.  At ``alpha = 1``, ``T`` is the identity and ``U_hat`` equals
    ``U`` exactly.
    """
    cfg = trace.config
    u_hat = trace.U.astype(float)
    if cfg.kind != BINOMIAL_POOL:
        return ExpectedDepartures(u_hat)
    cfg.check_prior(trace.n_senders)
    if cfg.m > 0:
        u_hat[0] += cfg.m * cfg.pool_prior
    alpha, beta = cfg.alpha, 1.0 - cfg.alpha
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    toeplitz = np.where(lag >= 0, alpha * beta ** np.maximum(lag, 0), 0.0)
    decay = beta ** np.arange(1.0, BLOCK + 1)[:, None]
    for start in range(0, trace.rho, BLOCK):
        rows = u_hat[start : start + BLOCK]
        k = len(rows)
        np.matmul(toeplitz[:k, :k], rows, out=rows)  # numpy buffers the overlapping operand
        if start:
            rows += decay[:k] * u_hat[start - 1]
    return ExpectedDepartures(u_hat)
