"""Latent-variable models whose likelihood is a product of expectations.

Each model couples a parametric latent law with per-observation
potentials: conditioning on observation ``y_p`` induces the potential
``G_p(x) = g(x, y_p)`` and the likelihood is ``prod_p E[G_p(X)]``.  The
models expose a common informal interface used by the estimator bridge
and the MCMC driver:

* ``theta_dim``, ``param_names``
* ``sample_latent(theta, rng, size)``, one latent draw per particle; a
  ``size`` of (R, N) draws R replicates of N particles, and (1, N) the
  same numbers as N
* ``bind(data)``, which checks the observations once (they must be
  finite, and integers in range for the two-state model and the fixture
  model, through ``symbol_column``) and returns two functions, ``(keys,
  log_potentials)``.  ``keys`` maps latents, elementwise, to integer
  keys such that latents with equal keys have equal potential columns.
  ``log_potentials`` maps K keys to the (n_obs, K) log potential matrix
  in one broadcast, one row per observation and one column per key;
  entry (p, j) may depend only on observation p and key j
* ``simulate(theta, n_obs, rng)``, synthetic observations
* ``default_prior()``

``log_likelihood_estimator`` relies on the entry rule and the key rule.
It evaluates the potentials once per distinct key and hands the
estimators a compressed ``PotentialMatrix`` whose ``columns`` map each
particle to its key's column.  The distinct keys are found by a table
over their range or by a sort when that range is much wider than the
particle count.  Integer latents (Poisson-Beta counts, two-state
states, fixture support points) are their own keys: their ``keys`` is
``np.asarray``, which returns them as they are.  A g-and-k latent
is keyed by its cell among the 2n interval ends: how many lower ends lie
below it and upper ends at or below it, so a g-and-k matrix has at most
2n + 1 columns.  The compressed matrix gives the same estimates, bit for
bit, for ``simple`` and ``perm``, up to rounding for ``biased``, which
weighs each column by its particle count, and the same law, but not the
same fixed-seed stream, for ``recycle``, which retires columns rather
than particles (see "Recycle kernel" in ``estimators``).

The closure also has a replicate axis: ``estimate(theta, rng, size=R)``
returns R log estimates.  It works in passes of at most 2**16 particles
(``_PASS_PARTICLES``), so its memory is one pass's whatever R is.  Each
pass draws, keys and tabulates the latents of all its replicates at once
and evaluates their potentials in one call; only the kernel runs once per
replicate, on that replicate's own matrix.  A pass of one replicate
consumes the generator as the scalar call does, so ``size=None`` and
``size=1`` give the same values and generator position.  With several
replicates per pass the ``recycle`` uniforms come after the pass's
latents, and each of Poisson-Beta's three draws covers the whole pass:
those streams move, the law does not.

Included models: the g-and-k quantile distribution observed through a
uniform perturbation (indicator potentials), the Poisson-Beta count
model observed through Gaussian noise, and a two-state discrete model
with tractable likelihood used for exactness checks.
"""

from __future__ import annotations

import math
import sys
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
    simple_block_size,
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

# Emission law of ``TwoStateLatentModel``: kernel[state, symbol].
_TWO_STATE_KERNEL = np.array([[0.75, 0.25], [0.25, 0.75]])
_TWO_STATE_KERNEL.flags.writeable = False

# Largest observation magnitude ``PoissonBetaModel`` accepts.
_MAX_COUNT_OBSERVATION = 1e154

# Largest Poisson-Beta rate: half of numpy's Poisson mean ceiling (about
# 2**63), so that rounding in rate * on / (on + off) cannot pass it.
_MAX_POISSON_RATE = 2.0**62

# Widest key range, in multiples of the particle count, that
# ``_distinct_values`` tabulates instead of sorting.
_DENSE_SPAN = 4

# Most particles one pass of a ``log_likelihood_estimator`` closure draws
# at once: 102 replicates at 640 particles, 10 at 6,400, and one replicate
# from 2**16 particles up.
_PASS_PARTICLES = 2**16

# Latents that the keys of ``GandKModel.bind`` search at once: a block's
# arrays, 128 KiB each, stay in a core's cache.
_KEY_BLOCK = 2**14

# The g-and-k parameters are checked against standard normal draws up to
# this size.  numpy's generator stays below about 13.7, and no method
# that maps a uniform double to a normal one passes about 38.5.
_NORMAL_REACH = 40.0
_HALF_MAX = sys.float_info.max / 2.0
_LOG_HALF_MAX = math.log(_HALF_MAX)


@dataclass(frozen=True)
class GandKParams:
    """Location a, scale b, skewness g and kurtosis k of the quantile transform.

    All four must be finite, with b > 0, and such that every step of
    ``gandk_quantile_transform`` stays finite for |z| <= 40: |g z|,
    (1 + z**2)**k and |b * skew * (1 + z**2)**k * z| stay below half the
    largest double, and so does |a|.
    """

    a: float
    b: float
    g: float
    k: float

    def __post_init__(self):
        if not all(math.isfinite(value) for value in (self.a, self.b, self.g, self.k)):
            raise ValueError(f"g-and-k parameters must be finite, got {self}")
        if not self.b > 0:
            raise ValueError(f"scale b must be positive, got {self.b}")
        # (1 + z**2)**k at |z| = 40, in logs; for k <= 0 it is at most 1.
        log_power = max(self.k, 0.0) * math.log1p(_NORMAL_REACH**2)
        log_spread = math.log(self.b * (1.0 + SKEWNESS_SCALE) * _NORMAL_REACH)
        if not (
            abs(self.a) < _HALF_MAX
            and abs(self.g) * _NORMAL_REACH < _HALF_MAX
            and max(log_power, log_power + log_spread) < _LOG_HALF_MAX
        ):
            raise ValueError(
                f"g-and-k parameters would take the quantile transform past the "
                f"double range for standard normal draws up to {_NORMAL_REACH:g}, "
                f"got {self}"
            )


@dataclass(frozen=True)
class PoissonBetaParams:
    """Rate and the two Beta shape parameters; all strictly positive.

    The rate is at most ``_MAX_POISSON_RATE``, so the Poisson draw stays
    within numpy's range.  numpy's gamma draws of shape k stay below
    8 k + 2**52 for standard normal draws up to 40, so ``rate * on`` and
    ``on + off`` in ``sample_poisson_beta`` stay below half the largest
    double when max(rate, 1) * (8 (k_on + k_off) + 2**53) does.
    """

    rate: float
    k_on: float
    k_off: float

    def __post_init__(self):
        for name in ("rate", "k_on", "k_off"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.rate <= _MAX_POISSON_RATE:
            raise ValueError(f"rate must be at most {_MAX_POISSON_RATE:g}, got {self.rate}")
        if not max(self.rate, 1.0) * (8.0 * (self.k_on + self.k_off) + 2.0**53) < _HALF_MAX:
            raise ValueError(
                f"Poisson-Beta parameters would take the Beta draw past the double "
                f"range, got {self}"
            )


def gandk_quantile_transform(z, params: GandKParams):
    """Map standard normal draws through the g-and-k quantile function.

    Uses the tanh form of the skewness factor, which equals
    (1 - exp(-g z)) / (1 + exp(-g z)) but stays finite for any g*z.
    """
    z = np.asarray(z, dtype=float)
    skew = 1.0 + SKEWNESS_SCALE * np.tanh(params.g * z / 2.0)
    out = params.a + params.b * skew * (1.0 + z**2) ** params.k * z
    return out if out.ndim else float(out)


def _check_scale(name: str, value: float) -> None:
    # The models square their scale parameters, so the square must be a
    # finite, normal double: about 1.5e-154 < value < 1.3e154.
    value = float(value)
    if not (value > 0.0 and sys.float_info.min <= value * value < math.inf):
        raise ValueError(
            f"{name} must be finite and positive with a finite, normal square "
            f"(about 1.5e-154 to 1.3e154), got {value}"
        )


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
    half-width is ``half_width``; only then is ``GandKModel``'s target,
    the window-h ABC likelihood prod_p P(|X - y_p| < h), the likelihood
    of these observations up to the factor (2h)**n.  ``GandKParams``
    keeps X finite and ``_check_scale`` keeps the perturbation finite,
    but their sum may pass the double range; such observations are
    rejected.
    """
    n_obs = int(n_obs)
    if n_obs < 1:
        raise DimensionError(f"need at least one observation, got {n_obs}")
    _check_scale("half_width", half_width)
    x = gandk_quantile_transform(rng.standard_normal(n_obs), params)
    bound = 1.0 if unit_noise else half_width
    u = rng.uniform(-bound, bound, size=n_obs)
    with np.errstate(over="ignore"):
        y = x + half_width * u
    if not np.isfinite(y).all():
        raise ValueError(
            f"simulated g-and-k observations pass the double range: got {params} "
            f"with half_width {half_width}"
        )
    return y


def interval_log_potential(x, center: float, half_width: float):
    """Unnormalized indicator of the open interval (center - h, center + h), in logs."""
    x = np.asarray(x, dtype=float)
    inside = (x > center - half_width) & (x < center + half_width)
    return np.where(inside, 0.0, -np.inf)


def sample_poisson_beta(params: PoissonBetaParams, rng: np.random.Generator, size=None):
    """Draw from the Poisson-Beta count law.

    The Beta variable is formed from two gamma draws so the consumption
    pattern of the generator is fixed; the Poisson draw then uses the
    generator's standard routine.  The Poisson mean ``rate * on / (on +
    off)`` is formed in place, so a draw holds two float arrays besides
    its output.  Where both gamma draws underflow to zero, which takes
    shapes of at most 1 and is the rule below about 0.05, the Beta
    variable is 0 / 0; those particles take numpy's Beta draw instead,
    which works in logs there.
    """
    on = rng.standard_gamma(params.k_on, size=size)
    off = rng.standard_gamma(params.k_off, size=size)
    off += on
    on *= params.rate
    if not np.all(off):
        lost = off == 0.0
        on = np.where(lost, params.rate * rng.beta(params.k_on, params.k_off, size), on)
        off = np.where(lost, 1.0, off)
    on /= off
    return rng.poisson(on)


def normal_log_potential(x, center: float, sigma: float):
    """Gaussian observation density around a latent count, in logs.

    The squared distance must be finite.  Where its quotient by 2 sigma**2
    passes the largest double, the log density lies below the most
    negative double, and the entry is -inf, as for a vanishing potential.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
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
        total = 0.0
        for marginal, x in zip(self.marginals, _theta_vector(theta, self.dim)):
            part = marginal.log_density(float(x))
            if part == -math.inf:
                return -math.inf
            total += part
        return total


class GandKModel:
    """g-and-k latent values observed within a +-half_width window.

    The potential for observation y is the unnormalized indicator of
    (y - h, y + h), h = half_width, so the product of expectations is the
    window-h ABC likelihood prod_p P(|X - y_p| < h).  Divided by (2h)**n
    it is the likelihood of Y = X + U(-h, h), the law ``simulate`` draws
    from only when ``unit_noise`` is set; by default its noise has
    half-width h**2.
    """

    param_names = ("a", "b", "g", "k")
    theta_dim = 4

    def __init__(self, half_width: float = 0.2, unit_noise: bool = False):
        _check_scale("half_width", half_width)
        self.half_width = float(half_width)
        self.unit_noise = bool(unit_noise)

    def params(self, theta) -> GandKParams:
        return GandKParams(*map(float, _theta_vector(theta, self.theta_dim)))

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        return gandk_quantile_transform(rng.standard_normal(size), self.params(theta))

    def bind(self, data) -> tuple:
        """Check the observations once; return ``(keys, log_potentials)``.

        ``keys`` maps a latent x to its cell: #{p: lo_p < x} + #{p: hi_p <= x}.
        x lies in the open interval (lo_p, hi_p) when it is above lo_p and
        below hi_p.  Above lo_p means at or above the next double up, so the
        key counts the interval ends at or below x, with each lower end
        moved up one double.  Those ends are a prefix of the sorted ends, so
        the key fixes which intervals hold x, and with them x's potential
        column.  There are at most 2n + 1 keys, in the order of the latents.
        ``log_potentials`` evaluates the intervals at a point of each key's
        cell: the end it starts at, or -inf for key 0.

        The key is ``ends.searchsorted(x, "right")``, found by a branchless
        binary search: on fresh latents the branches of ``searchsorted``
        mispredict, and the search costs about half as much without them.
        The ends are padded with ``+inf`` to the next power of two above
        2n, so that every halving step compares each latent with one end
        and adds the step where that end is at or below it.  Only ``+inf``
        counts a padding end, and its key is clamped to 2n.  The latents
        are searched in blocks of ``_KEY_BLOCK``, so that the steps'
        temporaries stay in cache: on 327,680 latents at n = 80, one
        block would take longer than ``searchsorted``.
        """
        centers = _observation_column(data)
        half_width = self.half_width
        # The same doubles that ``interval_log_potential`` compares against.
        lower = np.nextafter(centers[:, 0] - half_width, np.inf)
        ends = np.sort(np.concatenate([lower, centers[:, 0] + half_width]))
        n_ends = ends.size
        padded = np.full(1 << n_ends.bit_length(), np.inf)
        padded[:n_ends] = ends
        steps = [padded.size >> k for k in range(1, padded.size.bit_length())]
        # A latent with key k lies at or above the k-th end and below the next.
        cells = np.concatenate(([-np.inf], ends))

        def keys(x):
            x = np.asarray(x)
            latents = x.reshape(-1)
            found = np.zeros(latents.size, dtype=np.intp)
            for start in range(0, latents.size, _KEY_BLOCK):
                block = found[start : start + _KEY_BLOCK]
                part = latents[start : start + _KEY_BLOCK]
                for step in steps:
                    block += (padded[block + (step - 1)] <= part) * step
            np.minimum(found, n_ends, out=found)
            return found.reshape(x.shape)

        def log_potentials(cell_keys):
            return interval_log_potential(cells[cell_keys][None, :], centers, half_width)

        return keys, log_potentials

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
        _check_scale("sigma", sigma)
        self.sigma = float(sigma)

    def params(self, theta) -> PoissonBetaParams:
        return PoissonBetaParams(*map(float, _theta_vector(theta, self.theta_dim)))

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        return sample_poisson_beta(self.params(theta), rng, size=size)

    def bind(self, data) -> tuple:
        """Check the observations once; counts are their own keys."""
        centers = _observation_column(data)
        # Latent counts stay below 2**63, so the squared distance from any
        # of them to such an observation is below the largest double.
        outside = np.flatnonzero(np.abs(centers[:, 0]) > _MAX_COUNT_OBSERVATION)
        if outside.size:
            bad = int(outside[0])
            raise ValueError(
                f"observations must lie within +-{_MAX_COUNT_OBSERVATION:g}, "
                f"got {centers[bad, 0]} at index {bad}"
            )
        sigma = self.sigma
        return np.asarray, lambda x: normal_log_potential(np.asarray(x)[None, :], centers, sigma)

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
    kernel = _TWO_STATE_KERNEL

    def _weight(self, theta) -> float:
        weight = float(_theta_vector(theta, self.theta_dim)[0])
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"state weight must lie in [0, 1], got {weight}")
        return weight

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        weight = self._weight(theta)
        return (rng.random(size) < weight).astype(np.intp)

    def _symbol_column(self, data) -> np.ndarray:
        """Observations as an (n_obs, 1) column of symbol indices into the kernel."""
        return symbol_column(
            data, self.kernel.shape[1], "two-state observations must be integer symbols"
        )

    def bind(self, data) -> tuple:
        """Check the observations once; states are their own keys."""
        symbols = self._symbol_column(data)
        log_kernel = np.log(self.kernel)
        return np.asarray, lambda x: log_kernel[np.asarray(x, dtype=np.intp)[None, :], symbols]

    def simulate(self, theta, n_obs: int, rng: np.random.Generator) -> np.ndarray:
        states = self.sample_latent(theta, rng, size=int(n_obs))
        cumulative = self.kernel.cumsum(axis=1)
        u = rng.random(int(n_obs))
        return (u[:, None] > cumulative[states]).sum(axis=1)

    def exact_log_likelihood(self, theta, data) -> float:
        weight = self._weight(theta)
        mix = (1.0 - weight) * self.kernel[0] + weight * self.kernel[1]
        obs = self._symbol_column(data)[:, 0]
        return float(np.log(mix[obs]).sum())

    def default_prior(self) -> PriorSpec:
        return PriorSpec((UniformPrior(0.0, 1.0),))


def _theta_vector(theta, dim: int) -> np.ndarray:
    """``theta`` as a float vector of shape ``(dim,)``; a scalar is a one-entry vector."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (dim,):
        raise DimensionError(f"theta must have shape ({dim},), got {theta.shape}")
    return theta


def _observation_column(data) -> np.ndarray:
    """Finite observations as an (n_obs, 1) column, ready to broadcast against particles."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise DimensionError(f"observations must be a 1-d vector, got shape {data.shape}")
    if not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise ValueError(f"observations must be finite, got {data[bad]} at index {bad}")
    return data[:, None]


def symbol_column(data, n_symbols: int, rule: str) -> np.ndarray:
    """Observations as an (n_obs, 1) ``np.intp`` column of integers in [0, n_symbols).

    A non-finite observation fails as in ``_observation_column``; any other
    that is not such an integer raises ``ValueError`` with ``rule``, which
    says what the observations must be.
    """
    column = _observation_column(data)
    if not ((column >= 0) & (column < n_symbols) & (column == np.floor(column))).all():
        raise ValueError(f"{rule} in [0, {n_symbols})")
    return column.astype(np.intp)


def _distinct_values(keys: np.ndarray, n_rows: int) -> tuple:
    """Each row's ``np.unique(row, return_inverse=True)`` for rows laid end to end.

    ``keys`` holds ``n_rows`` rows of keys one after another.  Returns the
    rows' distinct values one row after another, the inverse in the layout
    of ``keys``, each entry an index into its own row's values, and the
    n_rows + 1 offsets ``starts`` at which each row's values begin.

    When the keys span at most ``_DENSE_SPAN`` times the row length, a
    presence table of n_rows rows over [min, max] replaces the sort: the
    values are its set entries and the inverse is its running count, less
    the count of the rows before.  Row r's particles land in the table at r
    times its width, an offset below 4 n_rows N.  Wider keys, which may
    reach 2**62, are sorted one row at a time, with no offset.  A single
    row takes neither the offset nor the per-row counts, so it costs what
    one ``np.unique``-equal tabulation costs.
    """
    n_keys = keys.size // n_rows
    if np.can_cast(keys.dtype, np.intp):
        low, high = int(keys.min()), int(keys.max())
        span = high - low + 1
        if span <= _DENSE_SPAN * n_keys:
            offsets = keys.astype(np.intp, copy=False) - low
            if n_rows > 1:
                offsets.reshape(n_rows, n_keys)[...] += np.arange(0, n_rows * span, span)[:, None]
            present = np.zeros(n_rows * span, dtype=bool)
            present[offsets] = True
            ranks = present.cumsum()
            positions = np.flatnonzero(present)
            if n_rows == 1:
                starts = (0, positions.size)
                ranks -= 1
            else:
                starts = np.concatenate(([0], ranks[span - 1 :: span]))
                ranks.reshape(n_rows, span)[...] -= (starts[:-1] + 1)[:, None]
                positions %= span
            values = (positions + low).astype(keys.dtype, copy=False)
            return values, ranks[offsets], starts
    rows = [np.unique(row, return_inverse=True) for row in keys.reshape(n_rows, n_keys)]
    starts = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum([values.size for values, _ in rows], out=starts[1:])
    values = np.concatenate([values for values, _ in rows])
    return values, np.concatenate([inverse for _, inverse in rows]), starts


ESTIMATOR_KINDS = ("simple", "recycle", "perm", "biased")


def log_likelihood_estimator(model, data, kind: str, n_particles: int) -> Callable:
    """Build the unbiased log-likelihood estimator used by pseudo-marginal MCMC.

    Returns ``estimate(theta, rng, size=None)``.  As in numpy, ``size=None``
    gives one log estimate as a float, ``size=R`` an array of R
    independent ones, and a negative size is an error; ``-inf`` encodes an
    estimate of exactly zero.  Each
    replicate draws ``n_particles`` fresh latents and applies the requested
    estimator.  The simple kind requires n_particles to be a multiple of
    the number of observations.  With no observations the estimate is
    always 0.0: an empty product of expectations is 1.  A kernel result of
    NaN or +inf raises ``ValueError``.

    Replicates run in passes of at most ``_PASS_PARTICLES`` (2**16)
    particles, one replicate per pass when n_particles is at least that,
    so a pass holds one block of latents however many replicates are
    asked for.  A pass of R replicates draws its latents in one
    ``sample_latent(theta, rng, size=(R, n_particles))`` call, keys them
    and finds each replicate's distinct keys in one pass, and evaluates
    the potentials of all replicates' keys in one call.  Each replicate
    then gets its own ``PotentialMatrix`` and the one kernel of its kind.

    Stream rule: a pass of one replicate consumes the generator exactly as
    a call with ``size=None`` does, since every model here draws the same
    numbers for shape (1, N) as for shape N.  So ``size=None``, ``size=1``
    and every ``size`` at n_particles >= 2**16 give the values of that
    many calls in a row.  With more than one replicate per pass the
    ``recycle`` kernels draw their uniforms after the whole pass's
    latents, and Poisson-Beta latents come from three draws that each
    cover the whole pass.  Those fixed-seed streams differ from that many
    calls in a row, but not the law: the replicates stay independent and
    identically distributed.  The ``simple``, ``biased`` and ``perm``
    streams of the other models draw their latents in one sequence either
    way, so they are the same.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {ESTIMATOR_KINDS}")
    data = np.asarray(data)
    n_obs = int(data.size)
    n_particles = int(n_particles)
    if n_obs == 0:
        return lambda theta, rng, size=None: 0.0 if size is None else np.zeros(int(size))
    check_particle_count(n_particles, n_obs, "n_obs")
    if kind == "simple":
        simple_block_size(n_particles, n_obs, "n_obs")
    latent_keys, log_potential_matrix = model.bind(data)
    per_pass = max(1, _PASS_PARTICLES // n_particles)

    def pass_matrices(theta, rng: np.random.Generator, block: int) -> list:
        """One pass: the potential matrices of ``block`` fresh replicates.

        The pass's latents and potentials are freed on return, before any
        kernel runs, so that the kernel's buffers can take their place.
        Held through the kernel, they cost about 30 minor page faults per
        Poisson-Beta estimate at 6,400 particles, against 0.1.
        """
        size = (block, n_particles)
        # The replicates' latents one after another.
        latents = np.asarray(model.sample_latent(theta, rng, size=size)).reshape(-1)
        # Evaluate the potentials once per distinct key of each replicate.
        values, columns, starts = _distinct_values(latent_keys(latents), block)
        log_values = log_potential_matrix(values)
        return [
            PotentialMatrix(
                log_values[:, starts[r] : starts[r + 1]],
                columns[r * n_particles : (r + 1) * n_particles],
            )
            for r in range(block)
        ]

    def estimate(theta, rng: np.random.Generator, size: int | None = None):
        n_replicates = 1 if size is None else int(size)
        if n_replicates < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        logs = []
        for start in range(0, n_replicates, per_pass):
            for matrix in pass_matrices(theta, rng, min(per_pass, n_replicates - start)):
                if kind == "recycle":
                    log_value = estimate_recycle(matrix, rng)[0]
                elif kind == "simple":
                    log_value = estimate_simple(matrix)
                elif kind == "perm":
                    log_value = estimate_perm_exact(matrix)
                else:
                    log_value = estimate_biased(matrix)
                # NaN fails this comparison too.
                if not log_value < math.inf:
                    raise ValueError(f"log estimate must be in [-inf, inf), got {log_value!r}")
                logs.append(log_value)
        return logs[0] if size is None else np.array(logs)

    return estimate
