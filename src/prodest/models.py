"""Latent-variable models whose likelihood is a product of expectations.

Each model couples a parametric latent law with per-observation
potentials: conditioning on observation ``y_p`` induces the potential
``G_p(x) = g(x, y_p)`` and the likelihood is ``prod_p E[G_p(X)]``.  The
models expose a common informal interface used by the estimator bridge
and the MCMC driver:

* ``theta_dim``, ``param_names``
* ``sample_latent(theta, rng, size)``, one latent draw per particle
* ``log_potentials(data)``, which checks and binds the observations once
  (they must be finite, and integer symbols for the two-state model) and
  returns a function mapping n_particles latents to the
  (n_obs, n_particles) log potential matrix in one broadcast, one row per
  observation; entry (p, j) may depend only on observation p and latent j
* ``simulate(theta, n_obs, rng)``, synthetic observations
* ``default_prior()``

``log_likelihood_estimator`` relies on that entry rule: for integer
latents (Poisson-Beta counts, two-state states, fixture support points)
it evaluates the potentials once per distinct value, found by a table
over the latents' range or by a sort when that range is much wider than
the particle count.  It hands the estimators a compressed
``PotentialMatrix`` whose ``columns`` map each particle to its value's
column; float latents (g-and-k) get the full matrix.  The compressed
matrix gives the same estimates, bit for bit, for ``simple``, ``biased``
and ``perm``.  ``recycle`` draws a distinct value first and then one of
its particles, so its estimates have the same law but its fixed-seed
streams differ from the full matrix's.

Included models: the g-and-k quantile distribution observed through a
uniform perturbation (indicator potentials), the Poisson-Beta count
model observed through Gaussian noise, and a two-state discrete model
with tractable likelihood used for exactness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import (
    DimensionError,
    PotentialMatrix,
    check_particle_count,
    estimate_biased,
    estimate_perm_exact,
    estimate_recycle,
    estimate_simple,
)

__all__ = [
    "SKEWNESS_SCALE",
    "GandKParams",
    "PoissonBetaParams",
    "UniformPrior",
    "ExponentialPrior",
    "PriorSpec",
    "gandk_quantile_transform",
    "gandk_simulate_data",
    "interval_log_potential",
    "sample_poisson_beta",
    "normal_log_potential",
    "GandKModel",
    "PoissonBetaModel",
    "TwoStateLatentModel",
    "log_likelihood_estimator",
    "ESTIMATOR_KINDS",
]

# Fixed scaling of the skewness term in the quantile transform.
SKEWNESS_SCALE = 0.8

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Widest latent range, in multiples of the particle count, that
# ``_distinct_values`` tabulates instead of sorting.
_DENSE_SPAN = 4


@dataclass(frozen=True)
class GandKParams:
    """Location a, scale b, skewness g and kurtosis k of the quantile transform."""

    a: float
    b: float
    g: float
    k: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"scale b must be positive, got {self.b}")


@dataclass(frozen=True)
class PoissonBetaParams:
    """Rate and the two Beta shape parameters; all strictly positive."""

    rate: float
    k_on: float
    k_off: float

    def __post_init__(self):
        for name in ("rate", "k_on", "k_off"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def gandk_quantile_transform(z, params: GandKParams):
    """Map standard normal draws through the g-and-k quantile function.

    Uses the tanh form of the skewness factor, which equals
    (1 - exp(-g z)) / (1 + exp(-g z)) but stays finite for any g*z.
    """
    z = np.asarray(z, dtype=float)
    skew = 1.0 + SKEWNESS_SCALE * np.tanh(params.g * z / 2.0)
    out = params.a + params.b * skew * (1.0 + z**2) ** params.k * z
    return out if out.ndim else float(out)


def gandk_simulate_data(
    params: GandKParams,
    n_obs: int,
    half_width: float,
    rng: np.random.Generator,
    unit_noise: bool = False,
) -> np.ndarray:
    """Simulate perturbed g-and-k observations Y = X + half_width * U.

    By default U is itself Uniform(-half_width, half_width), so the
    perturbation has half-width ``half_width**2``.  With
    ``unit_noise=True`` U is Uniform(-1, 1) and the perturbation
    half-width is ``half_width``.
    """
    n_obs = int(n_obs)
    if n_obs < 1:
        raise DimensionError(f"need at least one observation, got {n_obs}")
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    x = gandk_quantile_transform(rng.standard_normal(n_obs), params)
    bound = 1.0 if unit_noise else half_width
    u = rng.uniform(-bound, bound, size=n_obs)
    return x + half_width * u


def interval_log_potential(x, center: float, half_width: float):
    """Unnormalized indicator of the open interval (center - h, center + h), in logs."""
    x = np.asarray(x, dtype=float)
    inside = (x > center - half_width) & (x < center + half_width)
    return np.where(inside, 0.0, -np.inf)


def sample_poisson_beta(params: PoissonBetaParams, rng: np.random.Generator, size=None):
    """Draw from the Poisson-Beta count law.

    The Beta variable is formed from two gamma draws so the consumption
    pattern of the generator is fixed; the Poisson draw then uses the
    generator's standard routine.
    """
    on = rng.standard_gamma(params.k_on, size=size)
    off = rng.standard_gamma(params.k_off, size=size)
    return rng.poisson(params.rate * on / (on + off))


def normal_log_potential(x, center: float, sigma: float):
    """Gaussian observation density around a latent count, in logs."""
    x = np.asarray(x, dtype=float)
    return -((center - x) ** 2) / (2.0 * sigma**2) - math.log(sigma) - _HALF_LOG_TWO_PI


@dataclass(frozen=True)
class UniformPrior:
    """Uniform density on the open interval (low, high)."""

    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError(f"need low < high, got ({self.low}, {self.high})")

    def log_density(self, x: float) -> float:
        if self.low < x < self.high:
            return -math.log(self.high - self.low)
        return -math.inf

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class ExponentialPrior:
    """Exponential density with the given mean, supported on x > 0."""

    mean: float

    def __post_init__(self):
        if not self.mean > 0:
            raise ValueError(f"mean must be positive, got {self.mean}")

    def log_density(self, x: float) -> float:
        if x <= 0:
            return -math.inf
        return -x / self.mean - math.log(self.mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean))


@dataclass(frozen=True)
class PriorSpec:
    """Independent one-dimensional marginals, one per parameter."""

    marginals: tuple

    def __post_init__(self):
        marginals = tuple(self.marginals)
        if not marginals:
            raise DimensionError("prior needs at least one marginal")
        object.__setattr__(self, "marginals", marginals)

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def log_density(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise DimensionError(
                f"theta has shape {theta.shape}, prior has dimension {self.dim}"
            )
        total = 0.0
        for marginal, x in zip(self.marginals, theta):
            part = marginal.log_density(float(x))
            if part == -math.inf:
                return -math.inf
            total += part
        return total

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([marginal.sample(rng) for marginal in self.marginals])


class GandKModel:
    """g-and-k latent values observed within a +-half_width window.

    The potential for observation y is the unnormalized indicator of
    (y - half_width, y + half_width); the resulting product of
    expectations is the likelihood of the uniformly perturbed
    observations up to a constant factor per observation.
    """

    param_names = ("a", "b", "g", "k")
    theta_dim = 4

    def __init__(self, half_width: float = 0.2, unit_noise: bool = False):
        if not half_width > 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        self.half_width = float(half_width)
        self.unit_noise = bool(unit_noise)

    def params(self, theta) -> GandKParams:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (4,):
            raise DimensionError(f"theta must have shape (4,), got {theta.shape}")
        return GandKParams(*map(float, theta))

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        return gandk_quantile_transform(rng.standard_normal(size), self.params(theta))

    def log_potentials(self, data) -> Callable:
        centers = _observation_column(data)
        half_width = self.half_width
        return lambda x: interval_log_potential(np.asarray(x)[None, :], centers, half_width)

    def simulate(self, theta, n_obs: int, rng: np.random.Generator) -> np.ndarray:
        return gandk_simulate_data(
            self.params(theta), n_obs, self.half_width, rng, unit_noise=self.unit_noise
        )

    def default_prior(self) -> PriorSpec:
        return PriorSpec(tuple(UniformPrior(0.0, 10.0) for _ in range(4)))


class PoissonBetaModel:
    """Poisson-Beta counts observed through additive Gaussian noise."""

    param_names = ("rate", "k_on", "k_off")
    theta_dim = 3

    def __init__(self, sigma: float = 5.0):
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)

    def params(self, theta) -> PoissonBetaParams:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (3,):
            raise DimensionError(f"theta must have shape (3,), got {theta.shape}")
        return PoissonBetaParams(*map(float, theta))

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        return sample_poisson_beta(self.params(theta), rng, size=size)

    def log_potentials(self, data) -> Callable:
        centers = _observation_column(data)
        sigma = self.sigma
        return lambda x: normal_log_potential(np.asarray(x)[None, :], centers, sigma)

    def simulate(self, theta, n_obs: int, rng: np.random.Generator) -> np.ndarray:
        counts = self.sample_latent(theta, rng, size=int(n_obs))
        return counts + self.sigma * rng.standard_normal(int(n_obs))

    def default_prior(self) -> PriorSpec:
        return PriorSpec(
            (ExponentialPrior(1000.0), ExponentialPrior(10.0), ExponentialPrior(10.0))
        )


class TwoStateLatentModel:
    """Two latent states with a fixed emission kernel; theta is P(state 1).

    Small enough that the likelihood is available in closed form, which
    makes it the reference model for MCMC exactness checks.
    """

    param_names = ("weight",)
    theta_dim = 1

    def __init__(self, kernel=None):
        if kernel is None:
            kernel = np.array([[0.75, 0.25], [0.25, 0.75]])
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 2 or kernel.shape[0] != 2:
            raise DimensionError(f"kernel must be (2, n_symbols), got {kernel.shape}")
        if (kernel < 0).any() or np.abs(kernel.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("kernel rows must be distributions")
        self.kernel = kernel

    def _weight(self, theta) -> float:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape != (1,):
            raise DimensionError(f"theta must have one entry, got shape {theta.shape}")
        weight = float(theta[0])
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"state weight must lie in [0, 1], got {weight}")
        return weight

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        weight = self._weight(theta)
        return (rng.random(size) < weight).astype(np.intp)

    def _symbol_column(self, data) -> np.ndarray:
        """Observations as an (n_obs, 1) column of symbol indices into the kernel."""
        column = _observation_column(data)
        n_symbols = self.kernel.shape[1]
        if not ((column >= 0) & (column < n_symbols) & (column == np.floor(column))).all():
            raise ValueError(
                f"two-state observations must be integer symbols in [0, {n_symbols})"
            )
        return column.astype(np.intp)

    def log_potentials(self, data) -> Callable:
        symbols = self._symbol_column(data)
        with np.errstate(divide="ignore"):
            log_kernel = np.log(self.kernel)
        return lambda x: log_kernel[np.asarray(x, dtype=np.intp)[None, :], symbols]

    def simulate(self, theta, n_obs: int, rng: np.random.Generator) -> np.ndarray:
        states = self.sample_latent(theta, rng, size=int(n_obs))
        cumulative = self.kernel.cumsum(axis=1)
        u = rng.random(int(n_obs))
        return (u[:, None] > cumulative[states]).sum(axis=1)

    def exact_log_likelihood(self, theta, data) -> float:
        weight = self._weight(theta)
        mix = (1.0 - weight) * self.kernel[0] + weight * self.kernel[1]
        obs = self._symbol_column(data)[:, 0]
        with np.errstate(divide="ignore"):
            return float(np.log(mix[obs]).sum())

    def default_prior(self) -> PriorSpec:
        return PriorSpec((UniformPrior(0.0, 1.0),))


def _observation_column(data) -> np.ndarray:
    """Finite observations as an (n_obs, 1) column, ready to broadcast against particles."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise DimensionError(f"observations must be a 1-d vector, got shape {data.shape}")
    if not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise ValueError(f"observations must be finite, got {data[bad]} at index {bad}")
    return data[:, None]


def _distinct_values(latents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(latents, return_inverse=True)`` for 1-d integer latents.

    When the latents span at most ``_DENSE_SPAN`` times their count, a
    presence table over [min, max] replaces the sort: the values are its
    set entries and the inverse is its running count, both equal to
    ``np.unique``'s.
    """
    if np.can_cast(latents.dtype, np.intp):
        low, high = int(latents.min()), int(latents.max())
        if high - low < _DENSE_SPAN * latents.size:
            offsets = latents.astype(np.intp, copy=False) - low
            present = np.zeros(high - low + 1, dtype=bool)
            present[offsets] = True
            values = (np.flatnonzero(present) + low).astype(latents.dtype, copy=False)
            return values, (present.cumsum() - 1)[offsets]
    return np.unique(latents, return_inverse=True)


ESTIMATOR_KINDS = ("simple", "recycle", "perm", "biased")


def log_likelihood_estimator(model, data, kind: str, n_particles: int) -> Callable:
    """Build the unbiased log-likelihood estimator used by pseudo-marginal MCMC.

    Returns ``estimate(theta, rng) -> float`` drawing ``n_particles``
    fresh latents and applying the requested estimator; ``-inf`` encodes
    an estimate of exactly zero.  The simple kind requires n_particles to
    be a multiple of the number of observations.  With no observations the
    estimate is always 0.0: an empty product of expectations is 1.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {ESTIMATOR_KINDS}")
    data = np.asarray(data)
    n_obs = int(data.size)
    n_particles = int(n_particles)
    if n_obs == 0:
        return lambda theta, rng: 0.0
    check_particle_count(n_particles, n_obs, "n_obs")
    if kind == "simple" and n_particles % n_obs:
        raise DimensionError(
            f"simple estimator needs n_particles divisible by n_obs, "
            f"got {n_particles} and {n_obs}"
        )
    block_size = n_particles // n_obs
    log_potential_matrix = model.log_potentials(data)

    def estimate(theta, rng: np.random.Generator) -> float:
        latents = np.asarray(model.sample_latent(theta, rng, size=n_particles))
        # The matrix is made here and never leaves this call, so it is
        # checked without the constructor's defensive copy.
        if latents.dtype.kind in "iu":
            # Integer latents repeat: evaluate each distinct value once.
            values, columns = _distinct_values(latents)
            matrix = PotentialMatrix.adopt(log_potential_matrix(values), columns)
        else:
            matrix = PotentialMatrix.adopt(log_potential_matrix(latents))
        if kind == "recycle":
            return estimate_recycle(matrix, rng)[0].log_value
        if kind == "simple":
            return estimate_simple(matrix, block_size).log_value
        if kind == "perm":
            return estimate_perm_exact(matrix).log_value
        return estimate_biased(matrix).log_value

    return estimate
