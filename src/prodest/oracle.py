"""Exact moment computations for finite-support problems.

Everything here works on a finitely supported latent law and a matrix of
non-negative potential values, in plain linear-scale arithmetic, by
exhaustive enumeration.  These routines are deliberately independent of
the log-space Monte Carlo estimators so the two can be checked against
each other.

Second moments are reported on the relative scale, i.e.
``E[(estimate / target)**2]``, so a perfect estimator scores 1 and the
relative variance is the reported value minus 1.

The moment identities used:

* simple (block) estimator: ``prod_p (1 + c_p / block_size)`` where
  ``c_p`` is the relative variance of factor p under a single draw;
* ordered-selection (permanent) estimator: the average of the moment
  product over all injective factor-to-column assignments;
* recycled estimator: the average of the same moment product over
  independent assignments where factor p points uniformly at a column
  index in [p, n_particles).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import (
    DimensionError,
    check_enumeration,
    check_particle_count,
    simple_block_size,
)

__all__ = [
    "DiscreteMeasure",
    "DiscretePotentialSet",
    "DiscreteLVM",
    "MomentReport",
    "ZeroMeanPotentialError",
    "mean_product",
    "factor_relative_variances",
    "second_moment_simple_exact",
    "second_moment_perm_exact",
    "second_moment_recycle_exact",
    "estimator_distribution_exact",
    "moment_report",
    "observation_marginal",
    "induced_potentials",
    "expected_factor_relvar",
    "latent_expected_second_moment",
    "latent_expected_second_moment_simple",
]

_PROB_TOL = 1e-12


class ZeroMeanPotentialError(ValueError):
    """A potential has zero mean, so it cannot be normalized."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure.

    ``support`` holds opaque labels (used only for display and for
    mapping sampled indices back to values); all arithmetic is indexed.
    """

    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        support = tuple(self.support)
        if probs.ndim != 1 or probs.size != len(support):
            raise DimensionError(
                f"support of size {len(support)} with probs shape {probs.shape}"
            )
        if probs.size == 0:
            raise DimensionError("measure needs at least one support point")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError("probs must be non-negative and sum to 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def n_points(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class DiscretePotentialSet:
    """Non-negative potential values tabulated on a common support.

    ``values[p, x]`` is factor p evaluated at support point x.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1:
            raise DimensionError(f"values must be (n_factors, n_points), got {values.shape}")
        if np.isnan(values).any() or np.isinf(values).any():
            raise ValueError("potential values must be finite")
        if (values < 0).any():
            raise ValueError("potential values must be non-negative")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_factors(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DiscreteLVM:
    """Finite latent-variable model: latent law plus an emission kernel.

    ``kernel[x, y]`` is the probability of observing y from latent state
    x; rows are distributions.  The observation marginal must be strictly
    positive so per-observation potentials can always be normalized.
    """

    latent_probs: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        latent_probs = np.asarray(self.latent_probs, dtype=float)
        kernel = np.asarray(self.kernel, dtype=float)
        if latent_probs.ndim != 1 or kernel.ndim != 2 or kernel.shape[0] != latent_probs.size:
            raise DimensionError(
                f"latent_probs {latent_probs.shape} and kernel {kernel.shape} do not align"
            )
        if (latent_probs < 0).any() or abs(latent_probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError("latent_probs must be non-negative and sum to 1")
        if (kernel < 0).any() or np.abs(kernel.sum(axis=1) - 1.0).max() > _PROB_TOL:
            raise ValueError("kernel rows must be distributions")
        if (latent_probs @ kernel <= 0).any():
            raise ValueError("observation marginal must be strictly positive")
        latent_probs = latent_probs.copy()
        kernel = kernel.copy()
        latent_probs.flags.writeable = False
        kernel.flags.writeable = False
        object.__setattr__(self, "latent_probs", latent_probs)
        object.__setattr__(self, "kernel", kernel)

    @property
    def n_latent(self) -> int:
        return self.latent_probs.size

    @property
    def n_observations(self) -> int:
        return self.kernel.shape[1]

    @property
    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure(tuple(range(self.n_latent)), self.latent_probs)


@dataclass(frozen=True)
class MomentReport:
    """Exact target and relative second moments for one problem size."""

    n_factors: int
    n_particles: int
    block_size: int | None
    mean_product: float
    second_moment_simple: float | None
    second_moment_perm: float
    second_moment_recycle: float
    factor_relvars: tuple[float, ...]

    def __post_init__(self):
        seconds = [self.second_moment_perm, self.second_moment_recycle]
        if self.second_moment_simple is not None:
            seconds.append(self.second_moment_simple)
        if min(seconds) < 1.0 - 1e-9:
            raise ValueError(f"relative second moments must be >= 1, got {seconds}")
        if self.second_moment_perm > self.second_moment_recycle * (1 + 1e-9):
            raise ValueError("ordered-selection moment cannot exceed the recycled one")


def check_pair(measure: DiscreteMeasure, potentials: DiscretePotentialSet):
    """The pair's (probs, values); raises unless both share the support points."""
    if potentials.values.shape[1] != measure.n_points:
        raise DimensionError(
            f"potentials tabulated on {potentials.values.shape[1]} points, "
            f"measure has {measure.n_points}"
        )
    return measure.probs, potentials.values


def _normalized(measure: DiscreteMeasure, potentials: DiscretePotentialSet) -> np.ndarray:
    probs, values = check_pair(measure, potentials)
    means = values @ probs
    zero = np.flatnonzero(means <= 0)
    if zero.size:
        raise ZeroMeanPotentialError(
            f"factor {int(zero[0])} has zero mean under the measure"
        )
    return values / means[:, None]


def mean_product(measure: DiscreteMeasure, potentials: DiscretePotentialSet) -> float:
    """The target: the product over factors of the potential means."""
    probs, values = check_pair(measure, potentials)
    return float(np.prod(values @ probs))


def factor_relative_variances(
    measure: DiscreteMeasure, potentials: DiscretePotentialSet
) -> np.ndarray:
    """Relative variance of each factor under a single particle.

    Entry p is ``E[Gbar_p**2] - 1`` for the mean-normalized potential
    Gbar_p, i.e. the relative variance of a one-particle estimate of that
    factor alone.
    """
    normalized = _normalized(measure, potentials)
    return (normalized**2) @ measure.probs - 1.0


def _moment_product_fast(
    probs: np.ndarray, normalized: np.ndarray, assignment: np.ndarray, n_particles: int
) -> float:
    n_factors = normalized.shape[0]
    total = 1.0
    for p in range(n_factors):
        slot = normalized[p]
        for j in np.flatnonzero(assignment == p):
            slot = slot * normalized[j]
        total *= float(slot @ probs)
    for t in range(n_factors, n_particles):
        hits = np.flatnonzero(assignment == t)
        if hits.size:
            slot = normalized[hits[0]]
            for j in hits[1:]:
                slot = slot * normalized[j]
            total *= float(slot @ probs)
    return total


def second_moment_simple_exact(
    measure: DiscreteMeasure, potentials: DiscretePotentialSet, block_size: int
) -> float:
    """Relative second moment of the block estimator: prod_p (1 + c_p / block_size)."""
    block_size = int(block_size)
    if block_size < 1:
        raise DimensionError(f"block_size must be >= 1, got {block_size}")
    relvars = factor_relative_variances(measure, potentials)
    return float(np.prod(1.0 + relvars / block_size))


def second_moment_perm_exact(
    measure: DiscreteMeasure, potentials: DiscretePotentialSet, n_particles: int
) -> float:
    """Relative second moment of the ordered-selection estimator.

    Averages the moment product over all injective assignments of the
    n_factors factors to n_particles column indices.
    """
    normalized = _normalized(measure, potentials)
    n_factors = potentials.n_factors
    n_particles = int(n_particles)
    check_particle_count(n_particles, n_factors)
    n_terms = math.perm(n_particles, n_factors)
    check_enumeration(n_terms, "injective assignments")
    total = 0.0
    for assignment in itertools.permutations(range(n_particles), n_factors):
        total += _moment_product_fast(
            measure.probs, normalized, np.asarray(assignment), n_particles
        )
    return total / n_terms


def second_moment_recycle_exact(
    measure: DiscreteMeasure, potentials: DiscretePotentialSet, n_particles: int
) -> float:
    """Relative second moment of the recycled estimator.

    Averages the moment product over independent assignments in which
    factor p points uniformly at a target index in [p, n_particles).
    """
    normalized = _normalized(measure, potentials)
    n_factors = potentials.n_factors
    n_particles = int(n_particles)
    check_particle_count(n_particles, n_factors)
    ranges = [range(p, n_particles) for p in range(n_factors)]
    n_terms = math.prod(len(r) for r in ranges)
    check_enumeration(n_terms, "recycled assignments")
    total = 0.0
    for assignment in itertools.product(*ranges):
        total += _moment_product_fast(
            measure.probs, normalized, np.asarray(assignment), n_particles
        )
    return total / n_terms


def _recycle_moments_given_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and second moment of the recycled estimator.

    ``values`` is (n_factors, n_batch, n_particles) of linear-scale
    potentials; the return is a pair of (n_batch,) arrays giving, for
    each batch member, the exact expectation and second moment of the
    recycled estimate over its internal selection randomness.  Walks the
    selection tree depth first, sharing prefix sums across children, with
    the uniform fallback branch applied whenever the remaining potentials
    of the current factor all vanish.
    """
    n_factors, n_batch, n_particles = values.shape
    mean = np.zeros(n_batch)
    second = np.zeros(n_batch)

    def descend(depth: int, avail: list[int], prob: np.ndarray, estimate: np.ndarray):
        if depth == n_factors:
            contrib = prob * estimate
            mean[:] += contrib
            second[:] += contrib * estimate
            return
        row = values[depth]
        remaining = row[:, avail]
        mass = remaining.sum(axis=1)
        positive = mass > 0
        next_estimate = estimate * mass / (n_particles - depth)
        if not next_estimate.any():
            # Every descendant's estimate is zero, so nothing accrues below.
            return
        uniform = 1.0 / (n_particles - depth)
        for slot in range(len(avail)):
            weight = np.where(positive, remaining[:, slot] / np.where(positive, mass, 1.0), uniform)
            next_prob = prob * weight
            if not next_prob.any():
                continue
            descend(depth + 1, avail[:slot] + avail[slot + 1 :], next_prob, next_estimate)

    descend(0, list(range(n_particles)), np.ones(n_batch), np.ones(n_batch))
    return mean, second


def _perm_average_given_values(values: np.ndarray) -> np.ndarray:
    """Ordered-selection average per batch member; values is (n_factors, n_batch, n_particles)."""
    n_factors, n_batch, n_particles = values.shape
    total = np.zeros(n_batch)

    def descend(depth: int, avail: list[int], product: np.ndarray):
        if depth == n_factors:
            total[:] += product
            return
        row = values[depth]
        for slot, column in enumerate(avail):
            next_product = product * row[:, column]
            if not next_product.any():
                continue
            descend(depth + 1, avail[:slot] + avail[slot + 1 :], next_product)

    descend(0, list(range(n_particles)), np.ones(n_batch))
    return total / math.perm(n_particles, n_factors)


def estimator_distribution_exact(
    measure: DiscreteMeasure,
    potentials: DiscretePotentialSet,
    n_particles: int,
    kind: str,
) -> tuple[float, float]:
    """Exact raw mean and second moment of an estimator on a finite problem.

    Enumerates every assignment of support points to the n_particles
    slots, weights each by its probability, and evaluates the requested
    estimator's conditional law in closed form.  ``kind`` is one of
    ``simple``, ``biased``, ``perm`` or ``recycle``; ``simple`` requires
    n_particles to be a multiple of n_factors.  This brute-force route
    shares nothing with the moment-product identities, so agreement
    between the two is a real cross-check.
    """
    probs, values = check_pair(measure, potentials)
    n_factors = potentials.n_factors
    n_particles = int(n_particles)
    check_particle_count(n_particles, n_factors)
    if kind == "simple":
        block_size = simple_block_size(n_particles, n_factors)
    n_points = measure.n_points
    n_assignments = n_points**n_particles
    if kind in ("perm", "recycle"):
        n_terms = n_assignments * math.perm(n_particles, n_factors)
    else:
        n_terms = n_assignments
    check_enumeration(n_terms, "terms of the estimator's law")
    assignments = np.array(
        list(itertools.product(range(n_points), repeat=n_particles)), dtype=np.intp
    )
    weights = probs[assignments].prod(axis=1)
    tabulated = values[:, assignments]  # (n_factors, n_assignments, n_particles)

    if kind == "simple":
        blocks = [
            tabulated[p, :, p * block_size : (p + 1) * block_size].mean(axis=1)
            for p in range(n_factors)
        ]
        conditional = np.prod(blocks, axis=0)
        return float(weights @ conditional), float(weights @ conditional**2)
    if kind == "biased":
        conditional = np.prod(tabulated.mean(axis=2), axis=0)
        return float(weights @ conditional), float(weights @ conditional**2)
    if kind == "perm":
        conditional = _perm_average_given_values(tabulated)
        return float(weights @ conditional), float(weights @ conditional**2)
    if kind == "recycle":
        cond_mean, cond_second = _recycle_moments_given_values(tabulated)
        return float(weights @ cond_mean), float(weights @ cond_second)
    raise ValueError(f"unknown estimator kind {kind!r}")


def moment_report(
    measure: DiscreteMeasure, potentials: DiscretePotentialSet, n_particles: int
) -> MomentReport:
    """Bundle the exact target and relative second moments for one problem size.

    The simple estimator's moment is reported when its block rule admits
    ``n_particles`` (see ``simple_block_size``), and is ``None`` otherwise.
    """
    try:
        block_size = simple_block_size(n_particles, potentials.n_factors)
    except DimensionError:
        block_size, simple = None, None
    else:
        simple = second_moment_simple_exact(measure, potentials, block_size)
    return MomentReport(
        n_factors=potentials.n_factors,
        n_particles=int(n_particles),
        block_size=block_size,
        mean_product=mean_product(measure, potentials),
        second_moment_simple=simple,
        second_moment_perm=second_moment_perm_exact(measure, potentials, n_particles),
        second_moment_recycle=second_moment_recycle_exact(measure, potentials, n_particles),
        factor_relvars=tuple(
            float(c) for c in factor_relative_variances(measure, potentials)
        ),
    )


def observation_marginal(lvm: DiscreteLVM) -> np.ndarray:
    """Marginal law of a single observation under the model."""
    return lvm.latent_probs @ lvm.kernel


def induced_potentials(lvm: DiscreteLVM, observations: Sequence[int]) -> DiscretePotentialSet:
    """Potentials induced by conditioning on a vector of observations.

    Factor p is the emission likelihood ``kernel[., observations[p]]`` as
    a function of the latent state; its mean under the latent law is the
    observation marginal at that point.
    """
    obs = np.asarray(observations, dtype=int)
    if obs.ndim != 1 or obs.size < 1:
        raise DimensionError("observations must be a non-empty index vector")
    if ((obs < 0) | (obs >= lvm.n_observations)).any():
        raise DimensionError(
            f"observation indices must lie in [0, {lvm.n_observations})"
        )
    return DiscretePotentialSet(lvm.kernel[:, obs].T)


def expected_factor_relvar(lvm: DiscreteLVM) -> float:
    """Average over observations of the induced factor's relative variance.

    This is the constant governing the observation-averaged second-moment
    identity: with observations drawn from the marginal, the expected
    relative second moment of the recycled estimator equals
    ``prod_p (1 + C / (n_particles - p))`` for this C.
    """
    marginal = observation_marginal(lvm)
    second = (lvm.latent_probs[:, None] * lvm.kernel**2 / marginal[None, :]).sum()
    return float(second - 1.0)


def latent_expected_second_moment(
    lvm: DiscreteLVM, n_obs: int, n_particles: int
) -> tuple[float, float, float]:
    """Observation-averaged recycled second moment, both routes.

    Returns ``(enumerated, closed_form, expected_relvar)``: the exhaustive
    average over observation vectors of the exact recycled second moment,
    the closed form ``prod_p (1 + C / (n_particles - p))``, and C itself.
    The first two agree exactly; computing both keeps the identity an
    actual check rather than a definition.
    """
    n_obs, n_particles = int(n_obs), int(n_particles)
    if n_obs < 1:
        raise DimensionError("need at least one observation")
    check_particle_count(n_particles, n_obs, "n_obs")
    n_vectors = lvm.n_observations**n_obs
    lattice = math.prod(range(n_particles - n_obs + 1, n_particles + 1))
    check_enumeration(
        n_vectors * lattice,
        f"terms ({n_vectors} observation vectors times {lattice} assignments)",
    )
    marginal = observation_marginal(lvm)
    measure = lvm.measure
    enumerated = 0.0
    for obs in itertools.product(range(lvm.n_observations), repeat=n_obs):
        weight = float(np.prod(marginal[list(obs)]))
        potentials = induced_potentials(lvm, obs)
        enumerated += weight * second_moment_recycle_exact(measure, potentials, n_particles)
    constant = expected_factor_relvar(lvm)
    denominators = n_particles - np.arange(n_obs)
    closed_form = float(np.prod(1.0 + constant / denominators))
    return enumerated, closed_form, constant


def latent_expected_second_moment_simple(
    lvm: DiscreteLVM, n_obs: int, block_size: int
) -> float:
    """Observation-averaged second moment of the block estimator, closed form.

    Equals ``(1 + C / block_size) ** n_obs`` because the induced factors
    are exchangeable across observations and the block estimator's second
    moment is a product of per-factor terms; inf when that passes the
    largest double.
    """
    n_obs, block_size = int(n_obs), int(block_size)
    if n_obs < 1 or block_size < 1:
        raise DimensionError("n_obs and block_size must be >= 1")
    return _power_or_inf(1.0 + expected_factor_relvar(lvm) / block_size, n_obs)


def _power_or_inf(base: float, exponent: float) -> float:
    """``base ** exponent`` for base >= 1, or inf where a float power overflows."""
    try:
        return float(base**exponent)
    except OverflowError:
        return math.inf
