"""Monte Carlo estimators for a product of expectations sharing one particle set.

The target is ``prod_p E[G_p(Z)]`` for potentials ``G_1..G_n`` and a single
latent law.  Every estimator here consumes an (n_factors, n_particles)
matrix of log potential values, one row per factor and one column per
particle, and returns a log estimate as a float, ``-inf`` for an estimate
of exactly zero.  Matrix entries may be ``-inf`` (a potential vanishing at
a particle) but never NaN, and all accumulation stays in log space so
products of many factors neither underflow nor overflow.

Estimators
----------
``estimate_simple``
    Splits the columns into n_factors consecutive blocks of n_particles /
    n_factors and averages each factor over its own block.  Unbiased.
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
``estimate_recycle`` works on the columns of ``PotentialMatrix.log_values``,
each shared by the ``column_counts`` particles whose latents give it (see
``PotentialMatrix``).  A particle of column c weighs
``exp(log_values[p, c] - shift_p)`` for factor p, with the row shifted by
its maximum.  The numpy work is done once per estimate, over the whole
matrix: one exp, one multiplication by the counts and one row-wise
running sum give ``run[p, c]``, factor p's mass over the particles of the
columns before c, and the gross mass W_p over all particles.  The
n_factors uniforms are drawn in one call.

Each factor then gets a *first try*, found for all factors in one
vectorised pass: the column where ``u_p * W_p`` falls in ``run[p]``, and
in it the particle whose rank among all the column's particles is what
the target leaves past the column's start divided by one particle's
weight.  That is a draw from factor p's weights over all n_particles,
taken particles included.  The estimate depends on the retired particles
only through their potentials, so the particles of a column are
interchangeable: the kernel ranks a column's available particles first
and its taken ones after them, and keeps only ``live[c]``, the count of
the available ones.  Walking the factors in order, the first try stands
when the particles earlier factors took hold at most half of the
factor's mass (R_p <= W_p / 2) and its rank is below ``live[c]``; the
factor average is then ``shift_p + log(W_p - R_p) - log(n_particles -
p)`` at O(1) cost.  Otherwise the exact step runs: a running sum over the
row's weights times ``live``, and a search for the column, O(n_columns).
A first try that lands on a taken particle is rejected and the exact step
draws a fresh uniform; a row that fails the half-mass guard, which
depends on the earlier picks only, gives the exact step its own ``u_p``.
So each factor draws at most one extra uniform, and the law is
recycle's, column by column::

    P(pick c) = live_c w_c / W + (R / W) * live_c w_c / (W - R)
              = live_c w_c / (W - R).

The half-mass guard keeps the cancellation in W - R to one bit.  It also
sends a row whose available particles sit hundreds of nats below a taken
maximum to the exact step, since the taken particles then hold nearly all
of W.  When the available particles' shifted mass falls below
``_MIN_WEIGHT_TOTAL``, that step re-shifts by the maximum over the
available columns, with the taken ones masked to ``-inf`` so that their
exp cannot overflow.  R_p is a lower-triangular sum over the weights of
the first tries' columns, corrected whenever an exact step picks another
column.  The picks are columns of ``log_values``.  The estimate and the
retired columns have the law of the expanded matrix, one column per
particle, but not in general its fixed-seed stream.

The walk over the factors runs on Python lists, converted once with
``tolist``: the ``live`` counts, the R_p and the first tries' fields.
Reading and updating numpy scalars one at a time costs more per factor
than a list does, and at small n_factors the walk is a large share of
the kernel.  Only the exact step sees ``live`` as an array, built when
it runs (about every other g-and-k estimate at n = 20, N = 640).  A
correction to R_p is one numpy difference over the later factors, added
entry by entry: the same double additions that an in-place numpy update
makes, so the list walk gives the array walk's values bit for bit.

Permanent dynamic program
-------------------------
``estimate_perm_exact`` walks the particles (columns of the expanded
matrix) in order and keeps, for every subset S of factors, the log of the
sum over injective assignments of S to the columns seen so far.  Column j
either stays unassigned or takes one factor p of S::

    f[S] <- logsumexp(f[S], f[S - {p}] + log_values[p, j] for p in S)

starting from f[{}] = 0 and f[S] = -inf otherwise.  The estimate is
f[all factors] - log(n_particles! / (n_particles - n_factors)!).  The
n_particles * 2**n_factors * n_factors updates count against
``ENUMERATION_CAP``.

The index arrays of those updates (the factor p, the subset S - {p} and
the position of each candidate) depend on n_factors alone.  A private
memo builds them once, read-only, and keeps those of the last factor
count: three int64 arrays of n_factors * 2**(n_factors - 1) entries,
about 6 MB at n_factors = 15, the largest count the cap admits.
Each column's log-sum-exp shifts by the subset's maximum, clamped in the
same call to at least the lowest finite double, so an all -inf subset
shifts by a finite value and its weights are exact zeros.  Its total is
then 0, whose log is -inf, and f[S] stays -inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "DimensionError",
    "EnumerationLimitError",
    "PotentialValueError",
    "PotentialMatrix",
    "estimate_simple",
    "estimate_biased",
    "estimate_recycle",
    "estimate_perm_exact",
]

# Ceiling on the work of an exact computation: terms enumerated, or
# updates of the permanent dynamic program.
ENUMERATION_CAP = 10_000_000

# Below this total the available weights of a full-row shift have lost
# precision to underflow (about exp(-745) is the smallest subnormal), so
# the recycle kernel re-shifts over the available columns.
_MIN_WEIGHT_TOTAL = math.exp(-600.0)

# Most negative finite double: the permanent DP and the recycle kernel
# shift by it where every term is -inf, since shifting by -inf would give NaN.
_LOWEST = np.finfo(float).min


class DimensionError(ValueError):
    """Input shapes are incompatible with the requested estimator."""


class EnumerationLimitError(RuntimeError):
    """An exact computation would exceed ``ENUMERATION_CAP``."""


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


def check_enumeration(count: int, counted: str) -> None:
    """Raise ``EnumerationLimitError`` if ``count``, of what ``counted`` names, passes the cap."""
    if count > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"exact computation infeasible: {count} {counted} exceed the cap of "
            f"{ENUMERATION_CAP}"
        )


def simple_block_size(
    n_particles: int, n_factors: int, count_name: str = "n_factors"
) -> int:
    """The simple estimator's block size M >= 1, where n_particles = n_factors * M."""
    check_particle_count(n_particles, n_factors, count_name)
    block_size, remainder = divmod(n_particles, n_factors)
    if remainder:
        raise DimensionError(
            f"simple estimator needs n_particles divisible by {count_name}, "
            f"got {n_particles} and {n_factors}"
        )
    return block_size


@dataclass(frozen=True)
class PotentialMatrix:
    """(n_factors, n_particles) matrix of log potential values.

    Entries live in [-inf, inf): ``-inf`` encodes a vanishing potential,
    NaN and +inf are rejected with the (factor, particle) position of the
    first offending entry.  Requires n_particles >= n_factors so that
    selection without replacement is possible.

    Particles that share a latent value share a column of potentials, so
    ``log_values`` is (n_factors, n_columns) and ``columns[j]``, which must
    reach every column, is particle j's column; n_particles is
    ``len(columns)``.  The matrix stands for ``log_values[:, columns]``,
    which ``expanded`` returns.  Without ``columns`` every particle has a
    column of its own: ``columns`` is ``arange(n_columns)``.
    ``column_counts`` holds each column's particles, counted by the check
    that every column has one.  The NaN/+inf check runs on ``log_values``
    and names a bad entry at its column's first particle.

    ``estimate_recycle`` weighs a column by potential times available
    particle count and retires columns, so it has the expanded matrix's
    law but not, in general, its fixed-seed stream.
    ``estimate_simple`` reads its blocks of particles in one gather and
    gives the expanded matrix's value bit for bit.  ``estimate_biased``
    weighs a column by its count, at O(n_factors * n_columns) cost, and
    gives the expanded matrix's value up to rounding.
    ``estimate_perm_exact`` reads ``expanded()``.

    The matrix holds a read-only copy of ``log_values``, so the caller's
    array may change afterwards.  ``columns``, one entry per particle, is
    not copied, so a matrix adds no particle-sized array to what its
    caller holds: an ``np.intp`` array is held as given and marked
    read-only, and nothing may write to it, or to memory it views,
    afterwards.  Other integer arrays are converted.
    """

    log_values: np.ndarray
    # None gives every particle its own column.
    columns: np.ndarray | None = None
    column_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lv = np.array(self.log_values, dtype=float)
        if lv.ndim != 2:
            raise DimensionError(f"log_values must be 2-d, got shape {lv.shape}")
        n_factors, n_columns = lv.shape
        if n_factors < 1:
            raise DimensionError("need at least one factor")
        columns = np.arange(n_columns) if self.columns is None else np.asarray(self.columns)
        if columns.ndim != 1 or columns.dtype.kind not in "iu":
            raise DimensionError(
                f"columns must be a 1-d integer array, got {columns.dtype} {columns.shape}"
            )
        columns = columns.astype(np.intp, copy=False)
        # Every column is some particle's, so a row maximum is a maximum
        # over particles and every bad entry has a particle position.
        # ``bincount`` allocates up to the largest column, so a column past
        # the last is rejected before it.  It raises ValueError on a
        # negative column, and an uncovered column leaves a zero count.
        counts = None
        if columns.max(initial=-1) < n_columns:
            try:
                counts = np.bincount(columns, minlength=n_columns)
            except ValueError:
                pass
        if counts is None or np.count_nonzero(counts) != n_columns:
            raise DimensionError(f"columns must map the particles onto all {n_columns} columns")
        check_particle_count(columns.size, n_factors)
        # The maximum is NaN if any entry is, so one pass rejects NaN and
        # +inf; ``lv`` is not empty, since every column has a particle.
        if not lv.max() < np.inf:
            expanded = lv[:, columns]
            factor, particle = np.argwhere(~(expanded < np.inf))[0]
            raise PotentialValueError(
                f"log potential {expanded[factor, particle]} at factor {factor}, "
                f"particle {particle}"
            )
        for name, value in (("log_values", lv), ("columns", columns), ("column_counts", counts)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_factors(self) -> int:
        return self.log_values.shape[0]

    @property
    def n_particles(self) -> int:
        return self.columns.size

    def expanded(self) -> np.ndarray:
        """The (n_factors, n_particles) log potential values, one column per particle."""
        return self.log_values[:, self.columns]


def estimate_simple(matrix: PotentialMatrix) -> float:
    """Block estimator: factor p averaged over its own block of columns.

    Requires n_particles to be a multiple of n_factors; with block_size =
    n_particles / n_factors, factor p owns columns [p * block_size,
    (p + 1) * block_size).  Returns the log estimate as a float.
    """
    n_factors = matrix.n_factors
    block_size = simple_block_size(matrix.n_particles, n_factors)
    # Row p of ``blocks`` is factor p's block, read in one gather.
    blocks = matrix.log_values[
        np.arange(n_factors)[:, None], matrix.columns.reshape(n_factors, block_size)
    ]
    shifts = blocks.max(axis=1)
    if shifts.min() == -np.inf:
        return -math.inf
    blocks -= shifts[:, None]
    np.exp(blocks, out=blocks)
    total = 0.0
    log_block = math.log(block_size)
    for shift, mass in zip(shifts.tolist(), blocks.sum(axis=1).tolist()):
        total += shift + math.log(mass) - log_block
    return total


def estimate_biased(matrix: PotentialMatrix) -> float:
    """Full-average estimator: every factor averaged over every column.

    Its expectation is a product over expected row averages, which differs
    from the target product whenever the same particle enters several
    factors, so this is the (generally biased) reference point.  Each
    column counts once per particle, at O(n_factors * n_columns) cost.
    Returns the log estimate as a float.
    """
    lv = matrix.log_values
    shifts = lv.max(axis=1)
    if shifts.min() == -np.inf:
        return -math.inf
    # Rows in C order, so that each row is summed pairwise as a 1-d array.
    weights = np.subtract(lv, shifts[:, None], order="C")
    np.exp(weights, out=weights)
    # Every particle of a column carries its weight.
    weights *= matrix.column_counts
    log_masses = shifts + np.log(weights.sum(axis=1))
    log_n = math.log(matrix.n_particles)
    total = 0.0
    for log_mass in log_masses.tolist():
        total += log_mass - log_n
    return total


def estimate_recycle(
    matrix: PotentialMatrix, rng: np.random.Generator
) -> tuple[float, tuple[int, ...]]:
    """Recycled estimator: sequential averages over not-yet-selected particles.

    Starting from the full particle set, factor p is averaged over the
    n_particles - p particles still available, the running product is
    updated, and one particle is drawn with probability proportional to
    factor p's potential among those available, then retired.  When all
    available potentials for a factor vanish the factor average is zero,
    the estimate is zero from that point on, and the selection falls back
    to a uniform draw over the available particles, so every factor still
    retires one.

    The numpy work runs once per estimate, over the whole of
    ``matrix.log_values`` (see "Recycle kernel" in the module docstring).
    It gives every factor a first try: a particle drawn by the factor's
    potential from all n_particles, which the factor keeps at O(1) cost
    unless it is already taken.  Only then, or when the taken particles
    hold more than half of the factor's mass, does the step pass over the
    row: O(n_columns), the width of ``matrix.log_values``.  The factor
    average is ``shift + log(available mass) - log(n_particles -
    p)``, with the row shifted by its maximum, or by the maximum over the
    available particles when the former would leave their mass below
    ``_MIN_WEIGHT_TOTAL``.

    Returns the log estimate, a float, together with the n_factors columns of
    ``matrix.log_values`` retired, in order, each at most its particle
    count times.  The estimator is unbiased for the target product
    and reproducible given (matrix, generator state).  It draws n_factors
    uniform variates in one call, then one more for each first try that
    lands on a taken particle.
    """
    lv, counts = matrix.log_values, matrix.column_counts
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    n_columns = lv.shape[1]
    row_max = lv.max(axis=1)
    # A row that vanishes everywhere is shifted by the lowest finite double,
    # which exponentiates it to zeros where -inf - -inf would give NaN.
    shift = np.maximum(row_max, _LOWEST)
    # run[p, c]: factor p's mass, exp(log_values - shift) per particle,
    # over all particles of the columns before c.
    run = np.empty((n_factors, n_columns + 1))
    run[:, 0] = 0.0
    mass = run[:, 1:]
    np.subtract(lv, shift[:, None], out=mass)
    np.exp(mass, out=mass)
    mass *= counts
    mass.cumsum(axis=1, out=mass)
    gross = run[:, -1]
    uniforms = rng.random(n_factors)
    targets = uniforms * gross
    # The first column whose running mass exceeds the target.  For a row
    # with positive mass the target lies below its total, so the column is
    # in range and has a positive weight; a vanishing row gets column 0 and
    # never uses it.
    first = (mass > targets[:, None]).argmax(axis=1)
    rows = np.arange(n_factors)
    residuals = targets - run[rows, first]
    # unit[p, q]: factor p's weight of one particle of factor q's first column.
    unit = np.exp(lv[:, first] - shift[:, None])
    # retired[p]: factor p's mass over the particles that earlier factors
    # took, if each took its first column; corrected below whenever one
    # takes another column.
    retired = unit.sum(axis=1, where=rows[:, None] > rows).tolist()
    first_units = unit.diagonal().tolist()
    first_counts = counts[first].tolist()
    shifts, gross = row_max.tolist(), gross.tolist()
    first_columns, uniforms, residuals = first.tolist(), uniforms.tolist(), residuals.tolist()
    # Available particles per column; they rank first among its particles.
    live = counts.tolist()
    picks: list[int] = []
    log_total = 0.0
    for p in range(n_factors):
        total, lost = gross[p], retired[p]
        c, u = first_columns[p], uniforms[p]
        # This guard depends on earlier picks only, not on u.  It keeps the
        # cancellation in total - lost to one bit, and sends a row whose
        # available mass underflows beside a taken maximum to the exact
        # step, which re-shifts it.
        if total > 0.0 and lost + lost <= total:
            if min(int(residuals[p] / first_units[p]), first_counts[p] - 1) < live[c]:
                log_total += shifts[p] + math.log((total - lost) / (n_particles - p))
                live[c] -= 1
                picks.append(c)
                continue
            # The first try fell in the taken share of the mass, so the pick
            # is drawn afresh over the available share.
            u = rng.random()
        log_average, picked = _exact_step(lv[p], shifts[p], np.array(live), u, n_particles - p)
        log_total += log_average
        live[picked] -= 1
        picks.append(picked)
        if picked != c and p + 1 < n_factors:
            later = slice(p + 1, n_factors)
            delta = np.exp(lv[later, picked] - shift[later]) - unit[later, p]
            for q, change in enumerate(delta.tolist(), p + 1):
                retired[q] += change
    return log_total, tuple(picks)


def _exact_step(
    row: np.ndarray, shift: float, live: np.ndarray, u: float, n_available: int
) -> tuple[float, int]:
    """One recycle step over the available particles, from the uniform ``u``.

    ``row`` holds one factor's log potentials and ``shift`` its maximum;
    ``live[c]`` counts column c's available particles, so column c weighs
    ``exp(row[c] - shift) * live[c]``.  Returns the log factor average and
    the column drawn.
    """
    total = 0.0
    if shift > -np.inf:
        running = (np.exp(row - shift) * live).cumsum()
        total = running[-1]
        if total < _MIN_WEIGHT_TOTAL:
            # The row maximum is taken and the available weights have
            # underflowed: shift by the maximum over the available columns.
            # Taken columns may sit far above it; keep them out of the exp so
            # it cannot overflow.
            row = np.where(live > 0, row, -np.inf)
            shift = float(row.max())
            if shift > -np.inf:
                running = (np.exp(row - shift) * live).cumsum()
                total = running[-1]
    if total > 0.0:
        # u * total lies below the total, so the column found has a positive
        # weight.
        c = int(running.searchsorted(u * total, "right"))
        return shift + math.log(total) - math.log(n_available), c
    # Every available particle vanishes: the column of a uniform one.
    return -np.inf, int(live.cumsum().searchsorted(u * n_available, "right"))


@functools.lru_cache(maxsize=1)
def _subset_indices(n_factors: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of the permanent dynamic program for n_factors.

    One entry per (factor p, subset S containing p) pair: ``factor`` is p,
    ``smaller`` is S without p, and ``landing`` is the flat position of
    terms[p + 1, S].
    """
    n_sets = 1 << n_factors
    factor, subset = np.nonzero((np.arange(n_sets) >> np.arange(n_factors)[:, None]) & 1)
    smaller = subset ^ (1 << factor)
    landing = n_sets * (factor + 1) + subset
    for index in (factor, smaller, landing):
        index.flags.writeable = False
    return factor, smaller, landing


def estimate_perm_exact(matrix: PotentialMatrix) -> float:
    """Average the factor product over all ordered selections of distinct columns.

    The average runs over every injective assignment of factors to
    columns, n_particles! / (n_particles - n_factors)! terms: a rescaled
    permanent of the potential matrix.  It is computed exactly in log
    space by the dynamic program over factor subsets described under
    "Permanent dynamic program" in the module docstring, in
    n_particles * 2**n_factors * n_factors updates.  Raises
    ``EnumerationLimitError`` when that count exceeds ``ENUMERATION_CAP``.
    Returns the log estimate as a float.
    """
    n_factors, n_particles = matrix.n_factors, matrix.n_particles
    n_sets = 1 << n_factors
    check_enumeration(
        n_particles * n_sets * n_factors,
        "subset updates of the permanent (n_particles * 2**n_factors * n_factors)",
    )
    factor, smaller, landing = _subset_indices(n_factors)
    # terms[0] holds f; terms[p + 1, S] the candidate f[S - {p}] + log_values[p, j],
    # and stays -inf where p is not in S.
    terms = np.full((n_factors + 1, n_sets), -np.inf)
    flat_terms = terms.reshape(-1)
    weights = np.empty_like(terms)
    log_sums = terms[0]
    log_sums[0] = 0.0
    # An all -inf subset has a zero total, whose log is -inf.
    with np.errstate(divide="ignore"):
        for column in matrix.expanded().T:
            flat_terms[landing] = log_sums[smaller] + column[factor]
            top = terms.max(axis=0, initial=_LOWEST)
            np.subtract(terms, top, out=weights)
            np.exp(weights, out=weights)
            total = weights.sum(axis=0)
            np.log(total, out=total)
            np.add(top, total, out=log_sums)
    return float(log_sums[-1]) - math.log(math.perm(n_particles, n_factors))
