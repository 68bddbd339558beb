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
    one per factor (a rescaled matrix permanent).  Unbiased; computed
    exactly by a dynamic program over factor subsets at cost
    O(n_particles * 2**n_factors * n_factors), so feasible up to about
    n_factors = 14.
``estimate_recycle``
    Sequential selection scheme that matches ``estimate_perm_exact`` in
    conditional expectation at the cost of n_factors passes: factor p is
    averaged over the columns not yet selected, then one column is drawn
    with probability proportional to that factor's potential and retired.

Recycle kernel
--------------
Each step makes one pass over a full row, shifted by the row maximum
(computed once for the whole matrix): the shifted row is written into a
reused buffer, retired columns are set to ``-inf`` and the buffer is
exponentiated in place.  The buffer is zero-padded to whole blocks of
``_SEARCH_BLOCK`` columns, so the draw is a two-level search: a running
sum over the block totals finds the block, and a running sum inside that
one block finds the column.  When the row maximum is already retired and
the available columns sit hundreds of nats below it, their shifted
weights would underflow; below ``_MIN_WEIGHT_TOTAL`` the step re-shifts by
the maximum over the available columns instead.

A matrix with ``columns`` (tied particles, see ``PotentialMatrix``) stores
one column per distinct latent value.  Each step then shifts and
exponentiates that K-long row, gathers it into the same particle-ordered
buffer and zeroes the retired particles; the re-shift takes the maximum
over the columns that still have an available particle.  ``exp`` is
elementwise, so the buffer holds the same numbers as for the expanded
matrix and the selections, uniforms and log value are bit-identical.

Permanent dynamic program
-------------------------
``estimate_perm_exact`` walks the particles (columns of the expanded
matrix) in order and keeps, for every subset S of factors, the log of the
sum over injective assignments of S to the columns seen so far.  Column j
either stays unassigned or takes one factor p of S::

    f[S] <- logsumexp(f[S], f[S - {p}] + log_values[p, j] for p in S)

starting from f[{}] = 0 and f[S] = -inf otherwise.  The estimate is
f[all factors] - log(n_particles! / (n_particles - n_factors)!).  The
``max_terms`` cap counts the n_particles * 2**n_factors * n_factors
updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logspace import exp_or_inf, masked_log_sum_exp

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

# Ceiling on the work of an exact computation (terms enumerated, or
# updates of the permanent dynamic program); callers may raise it explicitly.
DEFAULT_ENUMERATION_CAP = 10_000_000

# Columns per block of the recycle kernel's two-level search.
_SEARCH_BLOCK = 64

# Below this total the available weights of a full-row shift have lost
# precision to underflow (about exp(-745) is the smallest subnormal), so
# the recycle kernel re-shifts over the available columns.
_MIN_WEIGHT_TOTAL = math.exp(-600.0)

# Most negative finite double: the permanent DP shifts by it where every
# term is -inf, since shifting by -inf would give NaN.
_LOWEST = np.finfo(float).min


class DimensionError(ValueError):
    """Input shapes are incompatible with the requested estimator."""


class EnumerationLimitError(RuntimeError):
    """An exact computation would exceed the configured work budget."""


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


def _check_log_values(values: np.ndarray, columns: np.ndarray | None = None) -> None:
    """Raise ``PotentialValueError`` at the first NaN or +inf entry.

    The last axis of ``values`` indexes particles, or, with ``columns``,
    the columns that ``columns`` maps the particles to; the error names the
    position in the expanded array either way.
    """
    # NaN compares false too, so one pass rejects NaN and +inf.
    if (values < np.inf).all():
        return
    if columns is not None:
        values = values[:, columns]
    position = tuple(np.argwhere(~(values < np.inf))[0])
    names = ("replicate", "factor", "particle")[-values.ndim :]
    where = ", ".join(f"{name} {index}" for name, index in zip(names, position))
    raise PotentialValueError(f"log potential {values[position]} at {where}")


def _checked_read_only(
    lv: np.ndarray, columns: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``lv`` and ``columns`` marked read-only; raises unless they form a valid matrix."""
    if lv.ndim != 2:
        raise DimensionError(f"log_values must be 2-d, got shape {lv.shape}")
    n_factors, n_particles = lv.shape
    if n_factors < 1:
        raise DimensionError("need at least one factor")
    if columns is not None:
        if columns.ndim != 1 or columns.dtype.kind not in "iu":
            raise DimensionError(
                f"columns must be a 1-d integer array, got {columns.dtype} {columns.shape}"
            )
        columns = columns.astype(np.intp, copy=False)
        n_columns, n_particles = n_particles, columns.size
        # Every column is some particle's, so a row maximum is a maximum
        # over particles and every bad entry has a particle position.
        if (
            columns.min(initial=0) < 0
            or columns.max(initial=-1) != n_columns - 1
            or not np.bincount(columns).all()
        ):
            raise DimensionError(f"columns must map the particles onto all {n_columns} columns")
        columns.flags.writeable = False
    check_particle_count(n_particles, n_factors)
    _check_log_values(lv, columns)
    lv.flags.writeable = False
    return lv, columns


@dataclass(frozen=True)
class PotentialMatrix:
    """(n_factors, n_particles) matrix of log potential values.

    Entries live in [-inf, inf): ``-inf`` encodes a vanishing potential,
    NaN and +inf are rejected with the (factor, particle) position of the
    first offending entry.  Requires n_particles >= n_factors so that
    selection without replacement is possible.

    Particles that share a latent value share a column of potentials.
    Given ``columns``, the matrix is stored in that compressed form:
    ``log_values`` is (n_factors, n_columns), one column per distinct
    value, ``columns[j]`` is particle j's column and must reach every
    column, and n_particles is ``len(columns)``.  The matrix it stands for
    is ``log_values[:, columns]``, which ``expanded`` returns; the NaN/+inf
    check runs on the compressed values and names a bad entry at its first
    particle.  ``estimate_recycle`` works on the compressed form directly.

    The constructor holds read-only copies, so the caller's arrays may
    change afterwards.  ``PotentialMatrix.adopt`` runs the same checks but
    skips the copies; the per-estimate closure of
    ``models.log_likelihood_estimator`` uses it for the matrix it has just
    evaluated and never exposes.
    """

    log_values: np.ndarray
    columns: np.ndarray | None = None

    def __post_init__(self):
        columns = None if self.columns is None else np.array(self.columns)
        self._set(_checked_read_only(np.array(self.log_values, dtype=float), columns))

    @classmethod
    def adopt(
        cls, log_values: np.ndarray, columns: np.ndarray | None = None
    ) -> PotentialMatrix:
        """Check and wrap arrays without copying them.

        The caller hands the arrays over: they are marked read-only, and
        nothing else may write to them or to the memory they view.
        """
        matrix = object.__new__(cls)
        columns = None if columns is None else np.asarray(columns)
        matrix._set(_checked_read_only(np.asarray(log_values, dtype=float), columns))
        return matrix

    def _set(self, checked: tuple[np.ndarray, np.ndarray | None]) -> None:
        object.__setattr__(self, "log_values", checked[0])
        object.__setattr__(self, "columns", checked[1])

    @property
    def n_factors(self) -> int:
        return self.log_values.shape[0]

    @property
    def n_particles(self) -> int:
        if self.columns is None:
            return self.log_values.shape[1]
        return self.columns.size

    def expanded(self) -> np.ndarray:
        """The (n_factors, n_particles) log potential values, one column per particle."""
        if self.columns is None:
            return self.log_values
        return self.log_values[:, self.columns]


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
        return exp_or_inf(self.log_value)


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
    lv = matrix.expanded()
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
    lv = matrix.expanded()
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
    to a uniform draw over the available columns so the trace is always
    complete.

    Each step costs one pass over the row (see "Recycle kernel" in the
    module docstring): weights are shifted by the full-row maximum, and
    by the maximum over the available columns only when the former would
    leave their total below ``_MIN_WEIGHT_TOTAL``.  The factor average is
    ``shift + log(total) - log(n_particles - p)``.  A compressed matrix
    (``columns``) is exponentiated one distinct value at a time and gives
    the same result, draw for draw, as its expanded form.

    Returns the log estimate together with the n_factors selected particle
    indices (columns of the expanded matrix) in order.  The estimator is
    unbiased for the target product and reproducible given (matrix,
    generator state); it draws exactly one uniform variate per factor.
    """
    lv, columns = matrix.log_values, matrix.columns
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    n_blocks = -(-n_particles // _SEARCH_BLOCK)
    padded = np.zeros(n_blocks * _SEARCH_BLOCK)
    weights = padded[:n_particles]
    blocks = padded.reshape(n_blocks, _SEARCH_BLOCK)
    # Exponentiated compressed row; only the tied form uses it.
    distinct = None if columns is None else np.empty(lv.shape[1])
    row_max = lv.max(axis=1)
    available = np.ones(n_particles, dtype=bool)
    log_total = 0.0
    picks: list[int] = []
    for p in range(n_factors):
        u = rng.random()
        row = lv[p]
        shift = row_max[p]
        total = 0.0
        if shift > -np.inf:
            block_totals = _exp_weights(row, shift, picks, weights, blocks, columns, distinct)
            total = block_totals[-1]
            if total < _MIN_WEIGHT_TOTAL:
                # The row maximum is retired and the available weights have
                # underflowed: shift by the maximum over the available columns.
                live = available
                if columns is not None:
                    live = np.bincount(columns[available], minlength=lv.shape[1]) > 0
                    # Fully retired columns may sit far above the new shift;
                    # keep them out of the exp so it cannot overflow.
                    row = np.where(live, row, -np.inf)
                shift = np.max(row, where=live, initial=-np.inf)
                if shift > -np.inf:
                    block_totals = _exp_weights(
                        row, shift, picks, weights, blocks, columns, distinct
                    )
                    total = block_totals[-1]
        if total > 0.0:
            log_total += shift + math.log(total) - math.log(n_particles - p)
            k = _search_blocks(blocks, block_totals, u * total)
        else:
            log_total = -np.inf
            k = int(np.flatnonzero(available)[int(u * (n_particles - p))])
        picks.append(k)
        available[k] = False
    return LogEstimate(log_total), SelectionTrace(tuple(picks))


def _exp_weights(
    row: np.ndarray,
    shift: float,
    picks: list[int],
    weights: np.ndarray,
    blocks: np.ndarray,
    columns: np.ndarray | None,
    distinct: np.ndarray | None,
) -> np.ndarray:
    """Fill ``weights`` with exp(row - shift), zero at the retired ``picks``.

    ``weights`` is the leading part of the zero-padded buffer that
    ``blocks`` views; returns the running sum over the block totals.  With
    ``columns``, ``row`` is a compressed row: it is exponentiated into
    ``distinct`` and gathered into ``weights`` particle by particle.
    """
    if columns is None:
        np.subtract(row, shift, out=weights)
        weights[picks] = -np.inf
        np.exp(weights, out=weights)
    else:
        np.subtract(row, shift, out=distinct)
        np.exp(distinct, out=distinct)
        # ``columns`` is checked to lie in range; "clip" skips the
        # buffered bounds check of the default mode.
        np.take(distinct, columns, out=weights, mode="clip")
        weights[picks] = 0.0
    return np.cumsum(blocks.sum(axis=1))


def _search_blocks(blocks: np.ndarray, block_totals: np.ndarray, target: float) -> int:
    """First column whose running weight sum exceeds ``target``.

    ``block_totals`` is the running sum over the rows of ``blocks``, and
    ``target`` lies in [0, block_totals[-1]), so the block found has a
    positive total.  The column found inside it has a positive weight,
    hence is neither retired nor padding.
    """
    b = int(np.searchsorted(block_totals, target, side="right"))
    if b:
        target -= block_totals[b - 1]
    block = blocks[b]
    j = int(np.searchsorted(np.cumsum(block), target, side="right"))
    if j == block.size:
        # The block total and the running sum inside the block round
        # differently; a target between them falls to the last positive weight.
        j = int(np.flatnonzero(block)[-1])
    return b * block.size + j


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
    _check_log_values(lt)
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

    The average runs over every injective assignment of factors to
    columns, n_particles! / (n_particles - n_factors)! terms: a rescaled
    permanent of the potential matrix.  It is computed exactly in log
    space by the dynamic program over factor subsets described under
    "Permanent dynamic program" in the module docstring, in
    n_particles * 2**n_factors * n_factors updates.  Raises
    ``EnumerationLimitError`` when that count exceeds ``max_terms``.
    """
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    n_sets = 1 << n_factors
    n_updates = n_particles * n_sets * n_factors
    if n_updates > max_terms:
        raise EnumerationLimitError(
            f"permanent infeasible: {n_updates} subset updates "
            f"(n_particles * 2**n_factors * n_factors) exceed the cap of {max_terms}"
        )
    # Every (factor p, subset S containing p) pair, and S without p.
    factor, subset = np.nonzero((np.arange(n_sets) >> np.arange(n_factors)[:, None]) & 1)
    smaller = subset ^ (1 << factor)
    # terms[0] holds f; terms[p + 1, S] the candidate f[S - {p}] + log_values[p, j],
    # and stays -inf where p is not in S.
    terms = np.full((n_factors + 1, n_sets), -np.inf)
    landing = n_sets * (factor + 1) + subset
    flat_terms = terms.reshape(-1)
    weights = np.empty_like(terms)
    log_sums = terms[0]
    log_sums[0] = 0.0
    for column in matrix.expanded().T:
        flat_terms[landing] = log_sums[smaller] + column[factor]
        top = terms.max(axis=0)
        np.subtract(terms, np.maximum(top, _LOWEST), out=weights)
        np.exp(weights, out=weights)
        total = weights.sum(axis=0)
        # A finite ``top`` contributes exp(0) = 1, so this only turns the
        # zero total of an all -inf subset into log(1) = 0 and keeps it -inf.
        np.maximum(total, 1.0, out=total)
        np.log(total, out=total)
        np.add(top, total, out=log_sums)
    return LogEstimate(log_sums[-1] - math.log(math.perm(n_particles, n_factors)))
