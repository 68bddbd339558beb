"""Log-domain accumulation helpers.

Convention used throughout the package: a log value of ``-inf`` encodes
an exact zero, and no helper here ever produces NaN from valid inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "exp_or_inf",
    "log_mean_exp",
    "masked_log_sum_exp",
    "RunningLogSum",
]


def exp_or_inf(log_value: float) -> float:
    """Linear-scale value of a log value: underflows to 0.0, overflows to inf."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_mean_exp(log_values, axis=None) -> float | np.ndarray:
    """log of the arithmetic mean of exp(log_values), max-shifted."""
    log_values = np.asarray(log_values, dtype=float)
    if log_values.size == 0:
        raise ValueError("log_mean_exp of an empty array")
    count = log_values.size if axis is None else log_values.shape[axis]
    out = logsumexp(log_values, axis=axis) - np.log(count)
    return float(out) if np.ndim(out) == 0 else out


def masked_log_sum_exp(log_values: np.ndarray, mask: np.ndarray) -> float:
    """log-sum-exp over the entries of a 1-d array selected by ``mask``.

    Returns ``-inf`` when every selected entry is ``-inf``.  Raises if the
    mask selects nothing, since an empty sum has no log representation
    distinct from an all-zero one here.
    """
    selected = np.asarray(log_values, dtype=float)[mask]
    if selected.size == 0:
        raise ValueError("mask selects no entries")
    shift = selected.max()
    if shift == -np.inf:
        return -np.inf
    return float(shift + np.log(np.exp(selected - shift).sum()))


class RunningLogSum:
    """Streaming log-sum-exp accumulator.

    Absorbs scalar or array log terms chunk by chunk without storing
    them, so exact enumerations can stream millions of terms through a
    constant-memory max-shifted sum.  Starts at log(0) = -inf.
    """

    def __init__(self) -> None:
        self._log_total = -np.inf

    def add(self, log_terms) -> None:
        log_terms = np.asarray(log_terms, dtype=float)
        if log_terms.size == 0:
            return
        chunk = logsumexp(log_terms) if log_terms.size > 1 else float(log_terms.reshape(-1)[0])
        self._log_total = float(np.logaddexp(self._log_total, chunk))

    @property
    def log_total(self) -> float:
        return self._log_total
