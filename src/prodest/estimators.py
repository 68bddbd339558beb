"""Monte Carlo estimators for a product of expectations sharing one particle set.

The target is ``prod_p E[G_p(Z)]`` for potentials ``G_1..G_n`` and a single
latent law.  Every estimator here consumes an (n_factors, n_particles)
matrix of log potential values, one row per factor and one column per
particle, and returns a log estimate.  Matrix entries may be ``-inf``
(a potential vanishing at a particle) but never NaN, and all accumulation
stays in log space so products of many factors neither underflow nor
overflow.

Estimators
----------
``estimate_simple``
    Splits the columns into n_factors consecutive blocks of ``block_size``
    and averages each factor over its own block.  Unbiased.
``estimate_biased``
    Averages every factor over all columns.  Biased for n_factors > 1, but
    each factor sees every particle.
``estimate_perm_exact``
    Averages the product over every ordered selection of distinct columns,
    one per factor (a rescaled matrix permanent).  Unbiased; exact
    enumeration, so only feasible for small problems.
``estimate_recycle``
    Sequential selection scheme that matches ``estimate_perm_exact`` in
    conditional expectation at the cost of n_factors passes: factor p is
    averaged over the columns not yet selected, then one column is drawn
    with probability proportional to that factor's potential and retired.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .logspace import RunningLogSum, masked_log_sum_exp

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DimensionError",
    "EnumerationLimitError",
    "PotentialValueError",
    "PotentialMatrix",
    "LogEstimate",
    "SelectionTrace",
    "estimate_simple",
    "estimate_biased",
    "estimate_recycle",
    "estimate_perm_exact",
    "recycle_log_estimates_batch",
]

# Ceiling on exactly enumerated terms; callers may raise it explicitly.
DEFAULT_ENUMERATION_CAP = 10_000_000


class DimensionError(ValueError):
    """Input shapes are incompatible with the requested estimator."""


class EnumerationLimitError(RuntimeError):
    """An exact enumeration would exceed the configured term budget."""


class PotentialValueError(ValueError):
    """Log potential values contain NaN or +inf."""


def check_particle_count(
    n_particles: int, n_factors: int, count_name: str = "n_factors"
) -> None:
    """Raise unless there are enough particles to give every factor its own."""
    if n_particles < n_factors:
        raise DimensionError(
            f"need n_particles >= {count_name}, got {n_particles} < {n_factors}"
        )


@dataclass(frozen=True)
class PotentialMatrix:
    """(n_factors, n_particles) matrix of log potential values.

    Entries live in [-inf, inf): ``-inf`` encodes a vanishing potential,
    NaN and +inf are rejected with the (factor, particle) position of the
    first offending entry.  Requires n_particles >= n_factors so that
    selection without replacement is possible.  Holds a read-only copy.
    """

    log_values: np.ndarray

    def __post_init__(self):
        lv = np.array(self.log_values, dtype=float)
        if lv.ndim != 2:
            raise DimensionError(f"log_values must be 2-d, got shape {lv.shape}")
        n_factors, n_particles = lv.shape
        if n_factors < 1:
            raise DimensionError("need at least one factor")
        check_particle_count(n_particles, n_factors)
        if not (lv < np.inf).all():
            # NaN compares false too, so one pass rejects NaN and +inf.
            factor, particle = np.argwhere(~(lv < np.inf))[0]
            raise PotentialValueError(
                f"log potential {lv[factor, particle]} at factor {factor}, particle {particle}"
            )
        lv.flags.writeable = False
        object.__setattr__(self, "log_values", lv)

    @property
    def n_factors(self) -> int:
        return self.log_values.shape[0]

    @property
    def n_particles(self) -> int:
        return self.log_values.shape[1]


@dataclass(frozen=True)
class LogEstimate:
    """A non-negative estimate stored as its logarithm (-inf means zero)."""

    log_value: float

    def __post_init__(self):
        lv = float(self.log_value)
        if math.isnan(lv) or lv == math.inf:
            raise ValueError(f"log estimate must be in [-inf, inf), got {lv!r}")
        object.__setattr__(self, "log_value", lv)

    @property
    def value(self) -> float:
        """Linear-scale value; may underflow to 0.0 or overflow to inf."""
        return math.exp(self.log_value)


@dataclass(frozen=True)
class SelectionTrace:
    """Columns retired by the recycled estimator, in selection order."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"selection indices must be distinct, got {idx}")
        if any(i < 0 for i in idx):
            raise ValueError(f"selection indices must be non-negative, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def estimate_simple(matrix: PotentialMatrix, block_size: int) -> LogEstimate:
    """Block estimator: factor p averaged over its own ``block_size`` columns.

    Requires n_particles == n_factors * block_size; factor p owns columns
    [p * block_size, (p + 1) * block_size).
    """
    block_size = int(block_size)
    if block_size < 1:
        raise DimensionError(f"block_size must be >= 1, got {block_size}")
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    if n_particles != n_factors * block_size:
        raise DimensionError(
            f"simple estimator needs n_particles == n_factors * block_size, "
            f"got {n_particles} != {n_factors} * {block_size}"
        )
    lv = matrix.log_values
    total = 0.0
    log_block = math.log(block_size)
    for p in range(n_factors):
        block = lv[p, p * block_size : (p + 1) * block_size]
        shift = block.max()
        if shift == -np.inf:
            return LogEstimate(-np.inf)
        total += shift + math.log(np.exp(block - shift).sum()) - log_block
    return LogEstimate(total)


def estimate_biased(matrix: PotentialMatrix) -> LogEstimate:
    """Full-average estimator: every factor averaged over every column.

    Its expectation is a product over expected row averages, which differs
    from the target product whenever the same particle enters several
    factors, so this is the (generally biased) reference point.
    """
    lv = matrix.log_values
    log_n = math.log(matrix.n_particles)
    total = 0.0
    for p in range(matrix.n_factors):
        row_sum = masked_log_sum_exp(lv[p], np.ones(matrix.n_particles, dtype=bool))
        if row_sum == -np.inf:
            return LogEstimate(-np.inf)
        total += row_sum - log_n
    return LogEstimate(total)


def estimate_recycle(
    matrix: PotentialMatrix, rng: np.random.Generator
) -> tuple[LogEstimate, SelectionTrace]:
    """Recycled estimator: sequential averages over not-yet-selected columns.

    Starting from the full column set, factor p is averaged over the
    n_particles - p columns still available, the running product is
    updated, and one column is drawn with probability proportional to
    factor p's potential among those available, then retired.  When all
    available potentials for a factor vanish the factor average is zero,
    the estimate is zero from that point on, and the selection falls back
    to a uniform draw so the trace is always complete.

    Returns the log estimate together with the n_factors selected column
    indices in order.  The estimator is unbiased for the target product
    and reproducible given (matrix, generator state).
    """
    lv = matrix.log_values
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    available = np.ones(n_particles, dtype=bool)
    log_total = 0.0
    picks: list[int] = []
    for p in range(n_factors):
        candidates = np.flatnonzero(available)
        vals = lv[p, candidates]
        shift = vals.max()
        u = rng.random()
        if shift == -np.inf:
            log_total = -np.inf
            j = int(u * candidates.size)
        else:
            weights = np.exp(vals - shift)
            # The pairwise weights.sum() can differ from the sequential
            # cumulative[-1] in the last bits; the log estimate uses the former.
            log_total += shift + np.log(weights.sum()) - math.log(n_particles - p)
            cumulative = np.cumsum(weights)
            j = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
        k = int(candidates[min(j, candidates.size - 1)])
        picks.append(k)
        available[k] = False
    return LogEstimate(log_total), SelectionTrace(tuple(picks))


def recycle_log_estimates_batch(
    log_tensor: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Recycled estimator over a batch: log_tensor is (n_replicates, n_factors, n_particles).

    Returns the (n_replicates,) log estimates.  Distributionally identical
    to calling ``estimate_recycle`` per replicate (one uniform variate per
    selection step), but the variates are interleaved across the batch, so
    the two paths do not reproduce each other draw for draw.
    """
    lt = np.asarray(log_tensor, dtype=float)
    if lt.ndim != 3:
        raise DimensionError(f"expected a 3-d tensor, got shape {lt.shape}")
    if np.isnan(lt).any():
        raise PotentialValueError("log potential tensor contains NaN")
    n_replicates, n_factors, n_particles = lt.shape
    check_particle_count(n_particles, n_factors)
    available = np.ones((n_replicates, n_particles), dtype=bool)
    log_total = np.zeros(n_replicates)
    row_ids = np.arange(n_replicates)
    for p in range(n_factors):
        row = lt[:, p, :]
        masked = np.where(available, row, -np.inf)
        shift = masked.max(axis=1)
        finite = shift > -np.inf
        weights = np.zeros_like(masked)
        with np.errstate(invalid="ignore"):
            # Rows whose available potentials all vanish would shift by -inf;
            # they are masked out of the exp and handled by the uniform branch.
            np.exp(masked - shift[:, None], out=weights, where=finite[:, None])
        mass = weights.sum(axis=1)
        log_avg = np.where(
            finite, shift + np.log(np.where(finite, mass, 1.0)), -np.inf
        ) - math.log(n_particles - p)
        log_total = log_total + log_avg

        u = rng.random(n_replicates)
        cumulative = np.cumsum(weights, axis=1)
        # Scale by the sequential total, not the pairwise ``mass``: the two
        # can differ in the last bits, and a target above cumulative[:, -1]
        # would pick column n_particles or a retired column.
        picked = (cumulative <= (u * cumulative[:, -1])[:, None]).sum(axis=1)
        # Zero-mass rows: uniform over the n_particles - p available columns.
        rank = np.cumsum(available, axis=1)
        uniform_pick = (rank <= (u * (n_particles - p)).astype(np.int64)[:, None]).sum(axis=1)
        picked = np.where(finite, picked, uniform_pick)
        available[row_ids, picked] = False
    return log_total


def estimate_perm_exact(
    matrix: PotentialMatrix, max_terms: int = DEFAULT_ENUMERATION_CAP
) -> LogEstimate:
    """Average the factor product over all ordered selections of distinct columns.

    Enumerates every injective assignment of factors to columns, i.e.
    n_particles! / (n_particles - n_factors)! terms, which is a rescaled
    permanent of the potential matrix.  Raises ``EnumerationLimitError``
    when that count exceeds ``max_terms``.
    """
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    n_terms = math.perm(n_particles, n_factors)
    if n_terms > max_terms:
        raise EnumerationLimitError(
            f"enumeration infeasible: {n_terms} ordered selections exceed "
            f"the cap of {max_terms}"
        )
    lv = matrix.log_values
    rows = np.arange(n_factors)
    accumulator = RunningLogSum()
    selections = itertools.permutations(range(n_particles), n_factors)
    while True:
        chunk = list(itertools.islice(selections, 65536))
        if not chunk:
            break
        idx = np.asarray(chunk, dtype=np.intp)
        accumulator.add(lv[rows, idx].sum(axis=1))
    return LogEstimate(accumulator.log_total - math.log(n_terms))
