"""Adversary-side observation model for pool mixes.

A pool mix hides how many of each sender's messages actually left in a given
round, but the expected number is a simple geometric convolution of the
observed inputs: a message that entered in round ``k`` leaves in round
``r >= k`` with probability ``alpha * (1 - alpha)**(r - k)``.  The pool
estimators replace the input matrix ``U`` with this expectation ``U_hat``.
:func:`departure_blocks` yields it a block of rounds at a time, so that a
consumer of sums over rounds never holds all of it; :func:`expected_departures`
is its one whole-trace block.  Inside a block the recursion runs :data:`BLOCK`
rounds at a time: one small matrix product per sub-block, plus the previous
round's row carried in with its decay.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def departure_blocks(trace: Trace, rows: int) -> Iterator[np.ndarray]:
    """``U_hat`` as float blocks of ``rows`` rounds in round order (the last may be shorter).

    Threshold traces pass through unchanged (every arrival leaves the same
    round).  For pool traces ``U_hat`` is the recursion

        ``u_hat[0] = alpha * (U[0] + m * f)``
        ``u_hat[r] = (1 - alpha) * u_hat[r-1] + alpha * U[r]``

    where ``f`` is the trace configuration's ``pool_prior``, the adversary's
    estimate of the initial pool composition.  It equals ``B @ (U + N0)``
    with the lower-triangular ``B[r, k] = alpha * (1 - alpha)**(r - k)`` and
    ``N0`` carrying ``m * f`` in its first row.  Each sub-block of :data:`BLOCK`
    rounds is computed in place as ``T @ rows``, ``T`` the top-left corner of
    ``B``, plus ``(1 - alpha)**(i+1)`` times the row before it in its row
    ``i``; the last row of a block is carried into the next.  This is
    O(rho * BLOCK * n_senders) work in one float copy of a block of ``U``.
    Blocks whose size is a multiple of :data:`BLOCK` give bit for bit the rows
    of a single whole-trace block; other sizes move rows in their last bits.
    At ``alpha = 1``, ``T`` is the identity and ``U_hat`` equals ``U`` exactly.
    A pool trace with ``m > 0`` and no ``pool_prior`` over its senders raises
    :class:`InvalidParameterError` before the first block.
    """
    cfg = trace.config
    pool = cfg.kind == BINOMIAL_POOL
    if pool:
        cfg.check_prior(trace.n_senders)
        alpha, beta = cfg.alpha, 1.0 - cfg.alpha
        lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
        toeplitz = np.where(lag >= 0, alpha * beta ** np.maximum(lag, 0), 0.0)
        decay = beta ** np.arange(1.0, BLOCK + 1)[:, None]
    last = None  # the previous block's last row
    for start in range(0, trace.rho, rows):
        u_hat = trace.U[start : start + rows].astype(float)
        if pool:
            if not start and cfg.m > 0:
                u_hat[0] += cfg.m * cfg.pool_prior
            for lo in range(0, len(u_hat), BLOCK):
                sub = u_hat[lo : lo + BLOCK]
                k = len(sub)
                np.matmul(toeplitz[:k, :k], sub, out=sub)  # numpy buffers the overlapping operand
                prev = u_hat[lo - 1] if lo else last
                if prev is not None:
                    sub += decay[:k] * prev
            last = u_hat[-1].copy()
        yield u_hat


def expected_departures(trace: Trace) -> ExpectedDepartures:
    """Expected departures ``U_hat`` for a whole trace: :func:`departure_blocks` in one block.

    The least-squares attacks never call this; they stream the blocks.
    """
    return ExpectedDepartures(next(departure_blocks(trace, trace.rho)))
