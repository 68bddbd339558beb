"""Log-domain accumulation helpers.

Convention used throughout the package: a log value of ``-inf`` encodes
an exact zero, and no helper here ever produces NaN from valid inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "exp_or_inf",
    "log_mean_exp",
]


def exp_or_inf(log_value: float) -> float:
    """Linear-scale value of a log value: underflows to 0.0, overflows to inf."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) over a 1-d float array.

    Follows the formula of ``scipy.special.logsumexp`` (scipy 1.17) and
    matches it bit for bit: the m entries equal to the maximum ``a_max``
    are kept out of the sum, and with s the sum of exp(a - a_max) over the
    others the result is log1p(s / m) + log(m) + a_max.  A maximum of
    -inf (every term zero), +inf or NaN is the result itself.
    """
    a_max = values.max()
    if not np.isfinite(a_max):
        return float(a_max)
    ties = values == a_max
    count = np.float64(np.count_nonzero(ties))
    shifted = values - a_max
    shifted[ties] = -np.inf
    rest = np.exp(shifted).sum()
    return float(np.log1p(rest / count) + np.log(count) + a_max)


def log_mean_exp(log_values) -> float:
    """log of the arithmetic mean of exp(log_values), max-shifted."""
    log_values = np.asarray(log_values, dtype=float).reshape(-1)
    if log_values.size == 0:
        raise ValueError("log_mean_exp of an empty array")
    return float(_logsumexp(log_values) - np.log(log_values.size))

