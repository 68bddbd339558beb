"""Pseudo-marginal random-walk Metropolis and its tuning helpers.

The chain targets a posterior while only ever touching an unbiased,
non-negative likelihood estimate: the estimate made at the accepted
parameter value is stored on the chain state and never recomputed, which
is what keeps the invariant law exactly the posterior.  Estimators plug
in as ``log_like_fn(theta, rng) -> float`` with ``-inf`` encoding an
estimate of exactly zero; a deterministic function recovers ordinary
random-walk Metropolis.

Tuning follows standard practice: a pilot chain feeds an empirical
covariance scaled by 2.38 / sqrt(dim), and the particle count is doubled
from one particle per observation until the estimator's relative
variance at a reference parameter drops to a target of about 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import DimensionError
from .models import PriorSpec, log_likelihood_estimator
from .rng import make_stream

__all__ = [
    "BURN_IN",
    "ChainState",
    "ProposalSpec",
    "ChainConfig",
    "ChainOutput",
    "EstimatorFailure",
    "InitializationError",
    "ParticleCountError",
    "acceptance_probability",
    "pseudo_marginal_step",
    "run_chain",
    "initial_proposal",
    "check_pilot_length",
    "tune_proposal",
    "relative_variance_of_logs",
    "tune_particle_count",
    "ess_batch_means",
]

# Diagonal jitter, relative to the mean variance, that ``from_covariance``
# adds when a covariance is not positive definite.
_JITTER_SCALE = 1e-8

# Likelihood estimates tried before ``run_chain`` gives up on a zero start.
_MAX_INIT_TRIES = 100

# Pilot proposal standard deviation per unit of (1 + |theta_i|).
_PILOT_STEP = 0.05

# Leading fraction of a chain's samples dropped before they are used: a
# pilot's before its covariance is taken, the main chain's before it is
# summarized.
BURN_IN = 0.5


class EstimatorFailure(RuntimeError):
    """A likelihood estimate came back NaN or +inf; the chain cannot continue."""


class InitializationError(RuntimeError):
    """No usable starting state was found within the retry budget."""


class ParticleCountError(RuntimeError):
    """Doubling the particle count hit the ceiling before reaching the target."""


@dataclass(frozen=True)
class ChainState:
    """Current parameter with its stored log prior and log likelihood estimate."""

    theta: np.ndarray
    log_like: float
    log_prior: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise DimensionError(f"theta must be a vector, got shape {theta.shape}")
        theta = theta.copy()
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        for name in ("log_like", "log_prior"):
            value = float(getattr(self, name))
            if math.isnan(value) or value == math.inf:
                raise ValueError(f"{name} must be in [-inf, inf), got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ProposalSpec:
    """Gaussian random-walk increment law, stored with its Cholesky factor.

    ``jitter`` records the diagonal inflation applied when the requested
    covariance was not positive definite; it is 0.0 when no fallback was
    needed.
    """

    covariance: np.ndarray
    chol: np.ndarray
    jitter: float

    def __post_init__(self):
        covariance = np.asarray(self.covariance, dtype=float)
        chol = np.asarray(self.chol, dtype=float)
        if covariance.shape != chol.shape or covariance.ndim != 2:
            raise DimensionError("covariance and chol must be matching square matrices")
        covariance = covariance.copy()
        chol = chol.copy()
        covariance.flags.writeable = False
        chol.flags.writeable = False
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "chol", chol)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @classmethod
    def from_covariance(cls, covariance) -> "ProposalSpec":
        """Factor a covariance, adding recorded diagonal jitter if needed.

        The matrix must be finite and symmetric to 1e-12; it is
        symmetrized before factoring.  When the Cholesky factorization
        fails, a jitter of 1e-8 times trace / dim (or 1e-8 itself for a
        zero matrix) is added to the diagonal and recorded.
        """
        covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
        if covariance.shape[0] != covariance.shape[1]:
            raise DimensionError(f"covariance must be square, got {covariance.shape}")
        if not np.isfinite(covariance).all():
            raise ValueError("covariance must be finite")
        if np.abs(covariance - covariance.T).max() > 1e-12:
            raise ValueError("covariance is not symmetric within 1e-12")
        covariance = (covariance + covariance.T) / 2.0
        dim = covariance.shape[0]
        try:
            return cls(covariance, np.linalg.cholesky(covariance), 0.0)
        except np.linalg.LinAlgError:
            trace = float(np.trace(covariance))
            jitter = _JITTER_SCALE * (trace / dim if trace > 0 else 1.0)
            inflated = covariance + jitter * np.eye(dim)
            return cls(inflated, np.linalg.cholesky(inflated), jitter)


@dataclass
class ChainConfig:
    """Everything needed to run one pseudo-marginal chain.

    ``estimator`` is an estimator kind name (resolved through the model
    bridge with ``n_particles`` fresh latents per evaluation) or a
    callable ``(theta, rng) -> float`` returning a log likelihood
    estimate directly.  The chain starts at ``theta_init``, which must
    have positive prior density.
    """

    model: object
    data: np.ndarray
    prior: PriorSpec
    proposal: ProposalSpec
    length: int
    seed: int
    theta_init: np.ndarray
    estimator: str | Callable = "recycle"
    n_particles: int | None = None
    stream_id: int = 0

    def __post_init__(self):
        self.length = int(self.length)
        if self.length < 1:
            raise ValueError(f"chain length must be >= 1, got {self.length}")
        if self.proposal.dim != self.prior.dim:
            raise DimensionError(
                f"proposal dimension {self.proposal.dim} != prior dimension {self.prior.dim}"
            )
        if isinstance(self.estimator, str) and self.n_particles is None:
            raise ValueError("an estimator kind needs n_particles")


@dataclass(frozen=True)
class ChainOutput:
    """Recorded trajectory of one chain.

    ``samples`` holds the state after each step (the initial state is not
    recorded), ``ess`` is the per-coordinate batch-means effective sample
    size over the full recorded trace, and ``final_state`` allows a
    follow-up chain to continue where this one stopped.
    """

    samples: np.ndarray
    log_like_trace: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    ess: np.ndarray
    final_state: ChainState


def acceptance_probability(log_ratio: float) -> float:
    """min(1, exp(log_ratio)), safe against overflow."""
    if math.isnan(log_ratio):
        raise ValueError("acceptance ratio is NaN")
    return 1.0 if log_ratio >= 0 else math.exp(log_ratio)


def pseudo_marginal_step(
    state: ChainState,
    proposal: ProposalSpec,
    log_prior_fn: Callable,
    log_like_fn: Callable,
    rng: np.random.Generator,
) -> tuple[ChainState, bool]:
    """One random-walk step against the estimated posterior.

    A candidate outside the prior support is rejected before any
    likelihood estimate is spent.  On rejection the stored estimate of
    the current state is kept as is.
    """
    increment = proposal.chol @ rng.standard_normal(proposal.dim)
    candidate = state.theta + increment
    candidate_log_prior = log_prior_fn(candidate)
    if candidate_log_prior == -math.inf:
        return state, False
    candidate_log_like = _estimate_at(log_like_fn, candidate, rng)
    log_ratio = (candidate_log_like + candidate_log_prior) - (
        state.log_like + state.log_prior
    )
    if rng.random() < acceptance_probability(log_ratio):
        return ChainState(candidate, candidate_log_like, candidate_log_prior), True
    return state, False


def _estimate_at(
    log_like_fn: Callable, theta: np.ndarray, rng: np.random.Generator
) -> float:
    """One log likelihood estimate at ``theta``; NaN or +inf raises ``EstimatorFailure``."""
    value = float(log_like_fn(theta, rng))
    if not value < math.inf:
        raise EstimatorFailure(f"likelihood estimate is {value} at theta={theta!r}")
    return value


def _resolve_estimator(config: ChainConfig) -> Callable:
    if callable(config.estimator):
        return config.estimator
    return log_likelihood_estimator(
        config.model, config.data, config.estimator, config.n_particles
    )


def _initial_state(
    config: ChainConfig, log_like_fn: Callable, rng: np.random.Generator
) -> ChainState:
    theta = np.asarray(config.theta_init, dtype=float)
    log_prior_value = config.prior.log_density(theta)
    if log_prior_value == -math.inf:
        raise InitializationError(f"the initial theta {theta!r} has zero prior density")
    for _ in range(_MAX_INIT_TRIES):
        log_like_value = _estimate_at(log_like_fn, theta, rng)
        if log_like_value > -math.inf:
            return ChainState(theta, log_like_value, log_prior_value)
    raise InitializationError(
        f"likelihood estimate was zero for {_MAX_INIT_TRIES} initialization attempts"
    )


def run_chain(config: ChainConfig) -> ChainOutput:
    """Run one pseudo-marginal chain as configured.

    The generator is derived from (seed, stream_id), so a config reruns
    to an identical trajectory.  States are recorded after every step;
    burn-in is left to downstream consumers.
    """
    rng = make_stream(config.seed, config.stream_id)
    log_like_fn = _resolve_estimator(config)
    log_prior_fn = config.prior.log_density
    state = _initial_state(config, log_like_fn, rng)
    length, dim = config.length, config.prior.dim
    samples = np.empty((length, dim))
    log_like_trace = np.empty(length)
    accepted = np.zeros(length, dtype=bool)
    for t in range(length):
        state, was_accepted = pseudo_marginal_step(
            state, config.proposal, log_prior_fn, log_like_fn, rng
        )
        samples[t] = state.theta
        log_like_trace[t] = state.log_like
        accepted[t] = was_accepted
    return ChainOutput(
        samples=samples,
        log_like_trace=log_like_trace,
        accepted=accepted,
        acceptance_rate=float(accepted.mean()),
        ess=_ess_by_coordinate(samples),
        final_state=state,
    )


def initial_proposal(theta) -> ProposalSpec:
    """Diagonal pilot proposal with standard deviations 0.05 * (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    scales = _PILOT_STEP * (1.0 + np.abs(theta))
    # A variance that overflows to inf is rejected by from_covariance.
    with np.errstate(over="ignore"):
        variances = scales**2
    return ProposalSpec.from_covariance(np.diag(variances))


def check_pilot_length(length: int, dim: int) -> None:
    """Raise ``ValueError`` unless a pilot of ``length`` steps keeps dim + 1 after burn-in."""
    kept = length - int(length * BURN_IN)
    if kept < dim + 1:
        raise ValueError(
            f"a pilot of {length} steps keeps {kept} after the burn-in of {BURN_IN}; "
            f"tuning a {dim}-dimensional proposal needs at least {dim + 1}"
        )


def tune_proposal(samples) -> ProposalSpec:
    """Empirical-covariance proposal from a (length, dim) pilot sample array.

    The first ``BURN_IN`` fraction is dropped and the covariance of the
    rest is scaled by 2.38 / sqrt(dim).  Degenerate pilots fall through
    to the recorded jitter path rather than failing.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    length, dim = samples.shape
    check_pilot_length(length, dim)
    kept = samples[int(length * BURN_IN):]
    sample_cov = np.atleast_2d(np.cov(kept, rowvar=False))
    return ProposalSpec.from_covariance(2.38 / math.sqrt(dim) * sample_cov)


def relative_variance_of_logs(log_estimates) -> float:
    """Empirical relative variance from log-scale replicates.

    Max-shifts before exponentiating, so only ratios of the replicates
    matter.  All-zero replicates give +inf.
    """
    log_estimates = np.asarray(log_estimates, dtype=float)
    if log_estimates.size < 2:
        raise ValueError("need at least two replicates")
    if np.isnan(log_estimates).any():
        raise ValueError("log estimates contain NaN")
    shift = log_estimates.max()
    if shift == -math.inf:
        return math.inf
    scaled = np.exp(log_estimates - shift)
    first = scaled.mean()
    second = (scaled**2).mean()
    return float(second / first**2 - 1.0)


def tune_particle_count(
    model,
    data,
    theta,
    kind: str,
    target: float,
    n_replicates: int,
    rng: np.random.Generator,
    max_particles: int,
) -> tuple[int, list]:
    """Double the particle count until the relative variance reaches the target.

    Starts at one particle per observation and doubles, so the simple
    estimator always sees a multiple of the observation count.  Each
    probe measures the relative variance at the reference ``theta`` from
    ``n_replicates`` fresh replicates.  Returns the tuned count and the
    list of (count, measurement) pairs of every probe, in order.  Raises
    ``ParticleCountError`` when the next doubling would pass
    ``max_particles``, and ``ValueError`` when the starting count already
    does.
    """
    if not target > 0:
        raise ValueError(f"target relative variance must be positive, got {target}")
    n_particles = max(int(np.asarray(data).size), 1)
    if max_particles < n_particles:
        raise ValueError(
            f"max_particles {max_particles} is below the starting count of "
            f"{n_particles} particles, one per observation"
        )
    probes = []
    while True:
        estimate_fn = log_likelihood_estimator(model, data, kind, n_particles)
        measured = relative_variance_of_logs(estimate_fn(theta, rng, n_replicates))
        probes.append((n_particles, measured))
        if measured <= target:
            return n_particles, probes
        if 2 * n_particles > max_particles:
            raise ParticleCountError(
                f"relative variance {measured:.3g} at {n_particles} particles still "
                f"exceeds {target} and doubling would pass the ceiling {max_particles}"
            )
        n_particles *= 2


def _ess_by_coordinate(samples: np.ndarray) -> np.ndarray:
    """``ess_batch_means`` of each column; fewer than 4 rows give their count."""
    length, dim = samples.shape
    if length < 4:
        return np.full(dim, float(length))
    return np.array([ess_batch_means(samples[:, j]) for j in range(dim)])


def ess_batch_means(series) -> float:
    """Effective sample size by non-overlapping batch means.

    Uses batch length floor(sqrt(T)) over the trailing whole batches.
    The estimate is clamped to (0, T]; a constant series returns T by
    convention.  Needs at least 4 points.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < 4:
        raise DimensionError("need a 1-d series with at least 4 points")
    length = series.size
    overall_var = series.var(ddof=1)
    if overall_var == 0.0:
        return float(length)
    batch_len = int(math.sqrt(length))
    n_batches = length // batch_len
    trailing = series[length - n_batches * batch_len:]
    batch_means = trailing.reshape(n_batches, batch_len).mean(axis=1)
    long_run_var = batch_len * batch_means.var(ddof=1)
    if long_run_var <= 0.0:
        return float(length)
    return float(min(length, length * overall_var / long_run_var))
