"""Exact second-moment routines that only the tests use.

The paper's closed forms for independent and for identical factors, the
moment product of one assignment, and the recycled estimator's moments
given one fixed matrix.  They are checks on the package, so they live
with the tests; ``prodest.oracle`` keeps what the command line and the
benchmark run, and the private helpers these build on.
"""

from typing import Sequence

import numpy as np

from prodest.estimators import DimensionError, check_particle_count
from prodest.oracle import (
    DiscreteMeasure,
    DiscretePotentialSet,
    _moment_product_fast,
    _normalized,
    _power_or_inf,
    _recycle_moments_given_values,
)


def moment_product(
    measure: DiscreteMeasure,
    potentials: DiscretePotentialSet,
    assignment: Sequence[int],
    n_particles: int,
) -> float:
    """Product of mixed moments of normalized potentials for one assignment.

    ``assignment[j] = t`` points factor j at target index t in
    [0, n_particles).  Targets below n_factors are factor slots: slot p
    collects Gbar_p times every Gbar_j assigned to it.  Targets at or
    above n_factors are plain particle slots collecting only the assigned
    factors.  Each slot contributes the mean of its product (an empty
    slot contributes 1), and the result is the product over slots.

    Averaging this quantity over an assignment law gives the relative
    second moment of the matching estimator.
    """
    normalized = _normalized(measure, potentials)
    n_factors = potentials.n_factors
    n_particles = int(n_particles)
    check_particle_count(n_particles, n_factors)
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != (n_factors,):
        raise DimensionError(
            f"assignment must have one target per factor, got shape {assignment.shape}"
        )
    if ((assignment < 0) | (assignment >= n_particles)).any():
        raise DimensionError(f"assignment targets must lie in [0, {n_particles})")
    return _moment_product_fast(measure.probs, normalized, assignment, n_particles)


def independent_second_moment(factor_relvars: Sequence[float], n_particles: int) -> float:
    """Closed-form recycled second moment when the factors are independent.

    When factor p depends only on a coordinate of the latent value that no
    other factor touches, the relative second moment of the recycled
    estimator collapses to ``prod_p (1 + c_p / (n_particles - p))`` with
    factors indexed from zero.
    """
    relvars = np.asarray(factor_relvars, dtype=float)
    n_particles = int(n_particles)
    if relvars.ndim != 1 or relvars.size < 1:
        raise DimensionError("factor_relvars must be a non-empty vector")
    check_particle_count(n_particles, relvars.size)
    denominators = n_particles - np.arange(relvars.size)
    return float(np.prod(1.0 + relvars / denominators))


def identical_potential_bound(
    single_relvar: float, n_factors: int, n_particles: int
) -> float:
    """Lower bound on the ordered-selection second moment for identical factors.

    With all factors equal and single-draw relative variance c, the
    relative second moment is at least ``(1 + c) ** (n_factors**2 / n_particles)``,
    or inf when that passes the largest double.
    """
    if single_relvar < 0:
        raise ValueError(f"relative variance cannot be negative, got {single_relvar}")
    n_factors, n_particles = int(n_factors), int(n_particles)
    if not 1 <= n_factors <= n_particles:
        raise DimensionError(
            f"need 1 <= n_factors <= n_particles, got {n_factors}, {n_particles}"
        )
    return _power_or_inf(1.0 + single_relvar, n_factors**2 / n_particles)


def recycle_conditional_moments(values: np.ndarray) -> tuple[float, float]:
    """Exact mean and second moment of the recycled estimator for one fixed matrix.

    ``values`` is an (n_factors, n_particles) matrix of linear-scale
    potentials; the expectation runs only over the estimator's internal
    column selections.  The conditional mean always equals the
    ordered-selection average for the same matrix.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {values.shape}")
    if (values < 0).any() or np.isnan(values).any() or np.isinf(values).any():
        raise ValueError("potential values must be finite and non-negative")
    n_factors, n_particles = values.shape
    check_particle_count(n_particles, n_factors)
    mean, second = _recycle_moments_given_values(values[:, None, :])
    return float(mean[0]), float(second[0])
