"""Empirical error metrics: estimate vs. ground-truth population."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .estimators import ProfileEstimate
from .population import UserPopulation


@dataclass(frozen=True)
class MseReport:
    """Aggregated squared-error metrics across repetitions.

    ``mse_profile[i]`` is the mean (over repetitions) squared error of
    sender ``i``'s estimated profile; ``mse_transition`` averages over all
    ``n_senders * n_receivers`` transition entries, and ``per_repetition``
    holds each repetition's per-transition MSE.
    """

    mse_profile: np.ndarray
    mse_transition: float
    per_repetition: np.ndarray


def _check_dims(truth: UserPopulation, est: ProfileEstimate):
    if est.P_hat.shape != truth.profiles.shape:
        raise InvalidParameterError(
            f"estimate shape {est.P_hat.shape} does not match "
            f"population shape {truth.profiles.shape}"
        )


def mse_transition(truth: UserPopulation, est: ProfileEstimate) -> float:
    """Mean squared error over all transition entries."""
    _check_dims(truth, est)
    return float(np.mean((truth.profiles - est.P_hat) ** 2))


def profile_mse_vector(truth: UserPopulation, est: ProfileEstimate) -> np.ndarray:
    """Per-sender squared profile errors in one pass."""
    _check_dims(truth, est)
    return np.sum((truth.profiles - est.P_hat) ** 2, axis=1)


def aggregate_repetitions(per_rep_profile_mse, n_receivers: int) -> MseReport:
    """Average per-sender MSE vectors across repetitions.

    The aggregation is an arithmetic mean, hence independent of repetition
    order.
    """
    rows = np.asarray(list(per_rep_profile_mse), dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise InvalidParameterError("need at least one repetition")
    denom = rows.shape[1] * n_receivers
    per_rep = rows.sum(axis=1) / denom
    return MseReport(
        mse_profile=rows.mean(axis=0),
        mse_transition=float(per_rep.mean()),
        per_repetition=per_rep,
    )
