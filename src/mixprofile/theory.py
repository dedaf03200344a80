"""Closed-form predictors for the profiling error of the unconstrained attack.

The per-sender mean squared error of the batch least-squares estimate admits
closed-form approximations in terms of the sending frequencies, the profile
uniformities, the threshold, the firing probability and the number of
observed rounds.  The predictions scale as ``1/rho`` and become tight as the
number of rounds grows.  One formula serves both mixes: the threshold
prediction is the pool prediction at ``alpha = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (InvalidParameterError, SingularFrequencyError, check, choice, integer,
                     probabilities, real, reals)
from .mixsim import BINOMIAL_POOL, THRESHOLD

EXACT = "exact"
ROUGH = "rough_approx"
REGIMES = (EXACT, ROUGH)

#: absolute tolerance accepted on the sum of a frequency vector
_FREQ_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MsePrediction:
    """Predicted estimation error for each sender and per transition.

    ``mse_profile[i]`` predicts the squared error of sender ``i``'s profile
    estimate; users with zero sending frequency are unidentifiable and carry
    an infinite prediction.  ``mse_transition`` is the per-transition average
    ``sum_i mse_profile[i] / n**2``.  ``alpha_q``/``alpha_r``, the round
    penalty and the mean delay are the pool figures at the prediction's
    ``alpha`` (1, 1, 1 and 0 for a threshold mix).
    """

    mse_profile: np.ndarray
    mse_transition: float
    regime: str
    mix_kind: str
    alpha_q: float
    alpha_r: float
    round_penalty: float
    mean_delay: float

    @property
    def unidentifiable(self) -> np.ndarray:
        """Mask of senders whose profile cannot be estimated (zero frequency)."""
        return ~np.isfinite(self.mse_profile)


def predict_mse_threshold(
    f: np.ndarray,
    u: np.ndarray,
    t: int,
    rho: int,
    regime: str = EXACT,
) -> MsePrediction:
    """Predicted profiling error under a threshold mix.

    Exact regime, per sender ``i``:

        ``(1/rho) * ((1/f_i - 1) * (1 - 1/t) * u_bar + (1/f_i) * u_i / t)``

    with ``u_bar = sum_i f_i * u_i``.  The rough regime keeps only the
    dominant term ``(1/f_i) / rho`` (valid for rare senders with flat
    profiles).  This is :func:`predict_mse_pool` at ``alpha = 1``.
    """
    return replace(predict_mse_pool(f, u, t, rho, 1.0, regime), mix_kind=THRESHOLD)


def pool_constants(alpha: float) -> tuple[float, float]:
    """The constants ``alpha_q = a/(2-a)`` and ``alpha_r = a(2-a)/(2-a(2-a))``."""
    check("alpha", alpha, real(0, 1, "(]"))
    alpha_q = alpha / (2.0 - alpha)
    alpha_r = alpha * (2.0 - alpha) / (2.0 - alpha * (2.0 - alpha))
    return alpha_q, alpha_r


def predict_mse_pool(
    f: np.ndarray,
    u: np.ndarray,
    t: int,
    rho: int,
    alpha: float,
    regime: str = EXACT,
) -> MsePrediction:
    """Predicted profiling error under a binomial pool mix.

    Exact regime, per sender ``i``:

        ``(1/rho) * ((1/f_i - 1) * (u_bar * (1/a_r - 1/t) + 1/a_q - 1/a_r)
          + (1/f_i) * u_i / t)``

    with ``u_bar = sum_i f_i * u_i``, ``a_q = alpha/(2-alpha)`` and ``a_r`` as in
    :func:`pool_constants`.
    Rough regime: ``(1/f_i)/rho * (2-alpha)/alpha``.  At ``alpha = 1`` both
    regimes reduce to the threshold prediction.  The prediction also
    carries the round penalty ``(2-alpha)/alpha`` (how many times more rounds
    the pool needs for the same error) and the mean message delay
    ``(1-alpha)/alpha``.
    """
    f, u = np.asarray(f, dtype=float), np.asarray(u, dtype=float)
    if f.ndim != 1 or u.shape != f.shape:
        raise InvalidParameterError("f and u must be vectors of equal length")
    check("f", f, probabilities(_FREQ_SUM_TOL))
    check("u", u, reals(0, 1, "[)"))
    check("t", t, integer(1))
    check("rho", rho, integer(1))
    check("regime", regime, choice(REGIMES))
    alpha_q, alpha_r = pool_constants(alpha)
    penalty = (2.0 - alpha) / alpha
    mse = np.full(f.shape, np.inf)  # zero-frequency senders stay infinite
    ok = f > 0
    finv = 1.0 / f[ok]
    if regime == EXACT:
        u_bar = float(np.dot(f, u))
        bracket = u_bar * (1.0 / alpha_r - 1.0 / t) + (1.0 / alpha_q - 1.0 / alpha_r)
        mse[ok] = ((finv - 1.0) * bracket + finv / t * u[ok]) / rho
    else:
        mse[ok] = finv / rho * penalty
    return MsePrediction(
        mse_profile=mse,
        mse_transition=float(mse.sum()) / f.size**2,
        regime=regime,
        mix_kind=BINOMIAL_POOL,
        alpha_q=alpha_q,
        alpha_r=alpha_r,
        round_penalty=penalty,
        mean_delay=(1.0 - alpha) / alpha,
    )


def input_autocorr_inverse(f: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation matrix of the multinomial input process and its inverse.

    ``R_x = t * (diag(f) + (t-1) * f f^T)`` and, by the Sherman-Morrison
    formula, ``R_x^{-1} = (1/t) * (diag(f)^{-1} - (1 - 1/t) * ones)``.
    Requires every frequency to be strictly positive; the product
    ``R_x @ R_x^{-1}`` is verified against the identity before returning.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise InvalidParameterError("f must be a vector")
    if np.any(f <= 0):
        raise SingularFrequencyError("all frequencies must be strictly positive")
    check("f", f, probabilities(_FREQ_SUM_TOL))
    check("t", t, integer(1))
    n = f.size
    r_x = t * (np.diag(f) + (t - 1) * np.outer(f, f))
    r_x_inv = (np.diag(1.0 / f) - (1.0 - 1.0 / t) * np.ones((n, n))) / t
    err = float(np.max(np.abs(r_x @ r_x_inv - np.eye(n))))
    if err > 1e-10:
        raise ArithmeticError(f"autocorrelation inverse check failed: max error {err:g}")
    return r_x, r_x_inv
