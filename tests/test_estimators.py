import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from prodest import estimators
from prodest.estimators import (
    DimensionError,
    EnumerationLimitError,
    PotentialMatrix,
    PotentialValueError,
    estimate_biased,
    estimate_perm_exact,
    estimate_recycle,
    estimate_simple,
)
from prodest.fixtures import DiscreteFixtureModel, get_fixture
from prodest.models import log_likelihood_estimator
from prodest.oracle import estimator_distribution_exact
from prodest.rng import make_stream

from conftest import random_moment_fixture
from oracle_support import recycle_conditional_moments

NEG_INF = -math.inf


def _log(values):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(values, dtype=float))


# Indicators of two disjoint singletons over two particles; every
# estimator's value is computable by hand.
CROSS = PotentialMatrix(np.array([[0.0, NEG_INF], [NEG_INF, 0.0]]))


# ---------------------------------------------------------------- containers


def test_potential_matrix_validation():
    with pytest.raises(DimensionError):
        PotentialMatrix(np.zeros(3))
    with pytest.raises(DimensionError):
        PotentialMatrix(np.zeros((3, 2)))  # more factors than particles
    matrix = PotentialMatrix(np.array([[0.0, NEG_INF]]))
    assert (matrix.n_factors, matrix.n_particles) == (1, 2)


_ONTO_ALL = "columns must map the particles onto all 3 columns"


@pytest.mark.parametrize(
    "log_values, columns, error, message",
    [
        (np.zeros((2, 3)), [0, -1, 1, 2], DimensionError, _ONTO_ALL),
        (np.zeros((2, 3)), [0, 1, 2, 3], DimensionError, _ONTO_ALL),
        (np.zeros((2, 3)), [0, 2, 2, 0], DimensionError, _ONTO_ALL),
        (
            np.array([[0.0, 0.0, 0.0], [0.0, 0.0, math.nan]]), [0, 2, 1, 2],
            PotentialValueError, "log potential nan at factor 1, particle 1",
        ),
        (
            np.array([[0.0, NEG_INF, 0.0], [math.inf, 0.0, 0.0]]), [1, 2, 0, 0],
            PotentialValueError, "log potential inf at factor 1, particle 2",
        ),
    ],
    ids=["negative-column", "column-past-the-last", "uncovered-column", "nan", "plus-inf"],
)
def test_potential_matrix_rejects(log_values, columns, error, message):
    with pytest.raises(error) as raised:
        PotentialMatrix(log_values, np.array(columns))
    assert type(raised.value) is error and str(raised.value) == message


def test_potential_matrix_read_only_copy():
    source = np.zeros((1, 3))
    matrix = PotentialMatrix(source)
    source[0, 0] = 9.0
    assert matrix.log_values[0, 0] == 0.0
    with pytest.raises(ValueError):
        matrix.log_values[0, 0] = 9.0


def test_potential_matrix_reports_bad_entry_location():
    values = np.zeros((3, 4))
    values[1, 2] = math.nan
    values[2, 0] = math.inf
    with pytest.raises(PotentialValueError, match="nan at factor 1, particle 2"):
        PotentialMatrix(values)
    values[1, 2] = NEG_INF
    with pytest.raises(PotentialValueError, match="inf at factor 2, particle 0"):
        PotentialMatrix(values)


@pytest.mark.parametrize(
    "values",
    [
        [[0.0, NEG_INF], [NEG_INF, 0.0]],
        [[NEG_INF, NEG_INF], [0.0, 0.0]],
        [[0.0, -800.0], [0.0, -800.0]],
    ],
    ids=["cross", "vanishing", "recycle-re-shift"],
)
def test_kernels_return_python_floats(values):
    # A numpy scalar would print as np.float64(...).  The last matrix
    # sends recycle's second factor to the exact step's re-shift.
    matrix = PotentialMatrix(np.array(values))
    estimates = [
        estimate_simple(matrix),
        estimate_biased(matrix),
        estimate_perm_exact(matrix),
        estimate_recycle(matrix, make_stream(3))[0],
    ]
    assert [type(estimate) for estimate in estimates] == [float] * 4


# ---------------------------------------------------------- block and biased


def test_simple_hand_value():
    assert estimate_simple(CROSS) == pytest.approx(0.0)


def test_simple_blocks_are_disjoint():
    matrix = PotentialMatrix(
        np.log(np.array([[3.0, 1.0, 9.0, 9.0], [9.0, 9.0, 2.0, 4.0]]))
    )
    estimate = estimate_simple(matrix)
    assert estimate == pytest.approx(math.log(2.0 * 3.0), rel=1e-14)


def test_simple_requires_matching_block():
    matrix = PotentialMatrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match="divisible"):
        estimate_simple(matrix)


# The block rule n_particles = n_factors * block_size has one source; each
# caller names its factor count.
_D1 = get_fixture("d1").build()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: estimate_simple(PotentialMatrix(np.zeros((2, 3)))),
            "simple estimator needs n_particles divisible by n_factors, got 3 and 2",
        ),
        (
            lambda: log_likelihood_estimator(DiscreteFixtureModel(*_D1), [0, 1], "simple", 3),
            "simple estimator needs n_particles divisible by n_obs, got 3 and 2",
        ),
        (
            lambda: log_likelihood_estimator(DiscreteFixtureModel(*_D1), [0, 1], "simple", 1),
            "need n_particles >= n_obs, got 1 < 2",
        ),
        (
            lambda: estimator_distribution_exact(*_D1, 3, kind="simple"),
            "simple estimator needs n_particles divisible by n_factors, got 3 and 2",
        ),
    ],
    ids=["estimate_simple", "closure", "closure-too-few", "oracle"],
)
def test_block_rule_messages(call, message):
    with pytest.raises(DimensionError) as raised:
        call()
    assert str(raised.value) == message


def test_simple_zero_block_gives_zero():
    matrix = PotentialMatrix(np.array([[NEG_INF, NEG_INF], [0.0, 0.0]]))
    assert estimate_simple(matrix) == NEG_INF


def test_biased_hand_value():
    assert estimate_biased(CROSS) == pytest.approx(math.log(0.25))
    vanishing = PotentialMatrix(np.array([[0.0, 0.0], [NEG_INF, NEG_INF]]))
    assert estimate_biased(vanishing) == NEG_INF


# ----------------------------------------------------------------- recycled


def test_recycle_hand_value_and_trace():
    estimate, picks = estimate_recycle(CROSS, make_stream(0))
    assert estimate == pytest.approx(math.log(0.5))
    assert picks == (0, 1)


def test_recycle_disjoint_columns_match_perm():
    # One positive particle per factor: every selection path gives the
    # same value, so the recycled estimate is deterministic.
    matrix = PotentialMatrix(
        np.array([[math.log(3.0), NEG_INF], [NEG_INF, math.log(5.0)]])
    )
    perm = estimate_perm_exact(matrix)
    for seed in range(5):
        estimate, _ = estimate_recycle(matrix, make_stream(seed))
        assert estimate == pytest.approx(perm, rel=1e-14)
        assert estimate == pytest.approx(math.log(7.5), rel=1e-14)


def test_recycle_constant_rows_exact():
    matrix = PotentialMatrix(np.full((3, 5), math.log(2.0)))
    estimate, picks = estimate_recycle(matrix, make_stream(11))
    assert estimate == pytest.approx(3.0 * math.log(2.0), rel=1e-14)
    assert len(set(picks)) == 3


def test_recycle_zero_row_returns_zero_with_full_trace():
    matrix = PotentialMatrix(
        np.array([[NEG_INF] * 3, [0.0, 0.0, 0.0]])
    )
    estimate, picks = estimate_recycle(matrix, make_stream(4))
    assert estimate == NEG_INF
    assert len(picks) == 2
    assert len(set(picks)) == 2


def test_recycle_deterministic_given_stream():
    rng = np.random.default_rng(8)
    matrix = PotentialMatrix(np.log(rng.random((3, 6))))
    first = estimate_recycle(matrix, make_stream(21, 5))
    second = estimate_recycle(matrix, make_stream(21, 5))
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_recycle_golden_pin():
    # Values of the original three-function selection step.  A kernel that
    # keeps the same arithmetic reproduces them; one that does not must say
    # which fixed-seed streams it moves.  The first-try kernel takes the
    # same particles here, and its log value agrees to the last bits.
    rng = np.random.default_rng(2024)
    values = rng.normal(scale=2.0, size=(5, 40))
    values[rng.random((5, 40)) < 0.4] = NEG_INF
    estimate, picks = estimate_recycle(PotentialMatrix(values), make_stream(7, 1))
    assert estimate == pytest.approx(6.214616789614282, rel=1e-14)
    assert picks == (31, 27, 26, 21, 4)


def test_recycle_multi_block_golden_pin():
    # Column 5 is the maximum of every row but one, so later steps run with
    # it retired: first tries that land on it draw again, and rows where it
    # holds more than half the mass take the exact step.  Values recorded
    # with the kernel that searched a compacted row.
    rng = np.random.default_rng(2025)
    values = rng.normal(scale=3.0, size=(12, 333))
    values[rng.random((12, 333)) < 0.3] = NEG_INF
    values[:, 5] = 12.0
    estimate, picks = estimate_recycle(PotentialMatrix(values), make_stream(9, 2))
    assert estimate == pytest.approx(51.60297854390586, rel=1e-14)
    assert picks == (
        5, 48, 199, 65, 265, 43, 308, 170, 141, 266, 207, 78
    )


def test_recycle_underflow_after_retired_maximum():
    # Factor 0 can only retire column 0, the maximum of row 1.  Row 1's
    # available entries sit 800+ nats below it: shifted by the full-row
    # maximum their weights underflow to zero, which must not zero the
    # estimate.
    n_particles = 100
    first = np.full(n_particles, NEG_INF)
    first[0] = 0.0
    second = np.array([0.0] + [-800.0] * 49 + [-801.0] * 50)
    matrix = PotentialMatrix(np.array([first, second]))
    expected = (
        -math.log(n_particles)
        - 800.0
        + math.log((49.0 + 50.0 * math.exp(-1.0)) / (n_particles - 1))
    )
    rng = make_stream(19)
    for _ in range(20):
        estimate, picks = estimate_recycle(matrix, rng)
        assert estimate == pytest.approx(expected, rel=1e-14)
        assert picks[0] == 0
        assert 1 <= picks[1] < n_particles


def test_single_factor_estimators_agree():
    matrix = PotentialMatrix(_log([[0.5, 2.0, 0.0, 1.5]]))
    expected = math.log(np.mean([0.5, 2.0, 0.0, 1.5]))
    assert estimate_simple(matrix) == pytest.approx(expected)
    assert estimate_biased(matrix) == pytest.approx(expected)
    assert estimate_perm_exact(matrix) == pytest.approx(expected)
    estimate, _ = estimate_recycle(matrix, make_stream(2))
    assert estimate == pytest.approx(expected)


# ------------------------------------------------------------ selection step


def _picks(matrix, stream_seed, n_draws, factor):
    """The column factor ``factor`` retires, over repeated recycled estimates."""
    rng = make_stream(stream_seed)
    return np.array(
        [estimate_recycle(matrix, rng)[1][factor] for _ in range(n_draws)]
    )


def test_recycle_selection_weights():
    draws = _picks(PotentialMatrix(_log([[0.0, 0.0, 3.0, 1.0]])), 13, 4000, 0)
    assert set(draws) == {2, 3}
    counts = [(draws == 2).sum(), (draws == 3).sum()]
    result = stats.chisquare(counts, f_exp=[3000.0, 1000.0])
    assert result.pvalue > 1e-4


def test_recycle_uniform_fallback():
    # Factor 0 can only retire column 1; factor 1 vanishes everywhere, so
    # its pick is uniform over the three columns left.
    matrix = PotentialMatrix(np.array([[NEG_INF, 0.0, NEG_INF, NEG_INF], [NEG_INF] * 4]))
    draws = _picks(matrix, 14, 3000, 1)
    assert set(draws) == {0, 2, 3}
    counts = [(draws == i).sum() for i in (0, 2, 3)]
    assert stats.chisquare(counts).pvalue > 1e-4


def test_recycle_single_remaining_candidate():
    # The last factor puts its mass on retired columns 0 and 2 and vanishes
    # on column 1, the only candidate left, which it must take.
    matrix = PotentialMatrix(
        np.array([[0.0, NEG_INF, NEG_INF], [NEG_INF, NEG_INF, 0.0], [5.0, NEG_INF, 5.0]])
    )
    rng = make_stream(15)
    for _ in range(10):
        estimate, picks = estimate_recycle(matrix, rng)
        assert picks == (0, 2, 1)
        assert estimate == NEG_INF


def test_recycle_never_redraws_retired_column():
    # Column 0 carries almost all the mass of every row; once factor 0
    # retires it, the later factors must pick among the other columns.
    matrix = PotentialMatrix(np.tile(np.log([5e6, 1.0, 1.0, 1.0]), (3, 1)))
    rng = make_stream(17)
    for _ in range(20):
        _, picks = estimate_recycle(matrix, rng)
        assert picks[0] == 0
        assert len(set(picks)) == 3


# ------------------------------------------------------------ tied particles


def _tied(seed, n_factors, n_particles, n_values, neg_inf_share=0.0):
    """Seeded integer latents with repeats, as the compressed (values, columns) pair."""
    rng = np.random.default_rng(seed)
    latents = rng.integers(0, n_values, size=n_particles)
    distinct, columns = np.unique(latents, return_inverse=True)
    table = rng.normal(scale=3.0, size=(n_factors, n_values))
    table[rng.random(table.shape) < neg_inf_share] = NEG_INF
    return table[:, distinct], columns


class _Uniforms:
    """Stands in for a generator that returns the given uniforms in turn and counts them."""

    def __init__(self, values):
        self._values = iter(values)
        self.drawn = 0

    def random(self, size=None):
        if size is None:
            self.drawn += 1
            return next(self._values)
        self.drawn += size
        return np.array([next(self._values) for _ in range(size)])


def _log_sum(log_values):
    return np.logaddexp.reduce(log_values) if log_values.size else NEG_INF


def _assert_pick_law(matrix, step, n_cells=10_000):
    """Step ``step`` retires column c with probability live_c w_c / (W - R).

    w_c is the step's potential at column c, live_c the number of the
    column's particles that the earlier steps left available, W the step's
    total over all particles and R its total over those the earlier steps
    took; earlier steps get the uniform 0.5 and must be deterministic.  The
    matrix is cut after the step, so its draws are the last ones.  Over a
    grid of first uniforms, each column takes live_c w_c / W of the cells
    and the share R / W that lands on taken particles draws a fresh
    uniform; a second grid over that uniform gives live_c w_c / (W - R).
    When R exceeds W / 2, or the step vanishes on every particle, nothing
    is drawn afresh and the first grid gives live_c w_c / (W - R), or
    live_c / (n_particles - step), directly.  A column's available
    particles rank before its taken ones, so each column's share covers one
    range of a uniform and is exact up to a cell at either end; the taken
    particles may cover one range per column.

    Returns R / W.
    """
    before = ()
    n_fresh = 0  # fresh uniforms the earlier steps draw
    if step:
        earlier = PotentialMatrix(matrix.log_values[:step], matrix.columns)
        probe = _Uniforms([0.5] * (2 * step))
        before = estimate_recycle(earlier, probe)[1]
        n_fresh = probe.drawn - step
    log_weights = matrix.log_values[step]
    counts = matrix.column_counts
    taken = np.bincount(np.array(before, dtype=np.intp), minlength=counts.size)
    live = counts - taken
    available = log_weights + _log(live)
    if _log_sum(available) == NEG_INF:
        law = live / live.sum()
    else:
        law = np.exp(available - _log_sum(available))
    total = _log_sum(log_weights + _log(counts))
    share = 0.0 if total == NEG_INF else math.exp(_log_sum(log_weights + _log(taken)) - total)
    redrawn = share if share <= 0.5 else 0.0

    cut = PotentialMatrix(matrix.log_values[: step + 1], matrix.columns)
    n_drawn = step + 1 + n_fresh

    def pick(first, fresh):
        uniforms = _Uniforms([0.5] * step + [first] + [0.5] * n_fresh + [fresh])
        picks = estimate_recycle(cut, uniforms)[1]
        assert picks[:step] == before
        return picks[step], uniforms.drawn > n_drawn

    grid = (np.arange(n_cells) + 0.5) / n_cells
    picked = np.zeros(counts.size)
    fresh_cells = []
    for u in grid:
        column, fresh = pick(u, 0.5)
        if fresh:
            fresh_cells.append(u)
        else:
            picked[column] += 1
    assert np.abs(picked / n_cells - law * (1.0 - redrawn)).max() <= 2.0 / n_cells
    assert abs(len(fresh_cells) / n_cells - redrawn) <= 2.0 * max(step, 1) / n_cells
    if fresh_cells:
        picked = np.zeros(counts.size)
        for v in grid:
            picked[pick(fresh_cells[len(fresh_cells) // 2], v)[0]] += 1
        assert np.abs(picked / n_cells - law).max() <= 2.0 / n_cells
    return share


def _assert_recycle_law(log_values, columns, seed, n_estimates=10_000):
    """Seeded estimates of the compressed matrix have the exact oracle's mean and second moment.

    Returns the (log value, picks) pairs; each estimate must retire
    n_factors columns in range, each at most its particle count times.
    """
    matrix = PotentialMatrix(log_values, columns)
    counts = matrix.column_counts
    mean, second = recycle_conditional_moments(np.exp(log_values[:, columns]))
    rng = make_stream(seed, 1)
    results = []
    for _ in range(n_estimates):
        estimate, picks = estimate_recycle(matrix, rng)
        assert len(picks) == matrix.n_factors
        assert all(0 <= c < counts.size for c in picks)
        assert (np.bincount(picks, minlength=counts.size) <= counts).all()
        results.append((estimate, picks))
    _assert_moments(np.exp([log_value for log_value, _ in results]), mean, second)
    return results


def _assert_moments(draws, mean, second):
    """The draws' mean and second moment lie within 4 SE of the exact ones."""
    for power, exact in ((1, mean), (2, second)):
        moment = draws**power
        se = moment.std(ddof=1) / math.sqrt(draws.size)
        assert abs(moment.mean() - exact) <= 4 * se


def test_tied_recycle_law_with_zero_potentials():
    # Three columns over five particles, with vanishing potentials in
    # every row.  Step 0 has nothing taken, so its first try always stands.
    columns = np.array([1, 0, 2, 1, 0])
    log_values = np.array(
        [[0.3, NEG_INF, -1.2], [NEG_INF, 0.9, 0.1], [-0.4, 0.2, NEG_INF]]
    )
    _assert_recycle_law(log_values, columns, 31)
    matrix = PotentialMatrix(log_values, columns)
    assert _assert_pick_law(matrix, 0) == 0.0
    for step in (1, 2):
        _assert_pick_law(matrix, step)


# Particle 0 is column 0's only particle and factor 0's only support, so
# step 0 always takes it.  Rows 1 give it 40% and 75% of their mass.
_DOMINANT_COLUMNS = np.array([0, 1, 1, 2, 2])
_SHARED_MAXIMUM = _log([[1.0, 0.0, 0.0], [4.0, 1.0, 2.0], [0.2, 1.0, 0.7]])
_DOMINANT_MAXIMUM = _log([[1.0, 0.0, 0.0], [9.0, 0.5, 1.0], [0.2, 1.0, 0.7]])


def test_tied_recycle_law_redraws_after_taken_first_try():
    # Step 1's first try lands on the taken particle 0 in 40% of cases and
    # then draws a fresh uniform over the other 60% of the mass.
    _assert_recycle_law(_SHARED_MAXIMUM, _DOMINANT_COLUMNS, 36)
    matrix = PotentialMatrix(_SHARED_MAXIMUM, _DOMINANT_COLUMNS)
    assert _assert_pick_law(matrix, 1) == pytest.approx(0.4)
    _assert_pick_law(matrix, 2)


def test_tied_recycle_law_half_mass_guard():
    # Particle 0 holds 75% of step 1's mass, more than half: the step skips
    # the first try and draws over the available particles from its own
    # uniform, drawing nothing afresh.
    _assert_recycle_law(_DOMINANT_MAXIMUM, _DOMINANT_COLUMNS, 37)
    matrix = PotentialMatrix(_DOMINANT_MAXIMUM, _DOMINANT_COLUMNS)
    assert _assert_pick_law(matrix, 1) == pytest.approx(0.75)


def _position(rng):
    """The Philox counter and buffer state of a generator."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


class _CountingStream:
    """Passes draws through to a generator and records how they were asked for."""

    def __init__(self, rng):
        self.rng = rng
        self.blocks = []
        self.singles = 0

    def random(self, size=None):
        if size is None:
            self.singles += 1
        else:
            self.blocks.append(size)
        return self.rng.random(size)


def test_recycle_draws_a_block_then_one_uniform_per_redraw():
    # One call for the n_factors first uniforms, then one uniform for each
    # first try that lands on a taken particle.  On the Philox streams a
    # block of n draws equals n single draws, generator position included.
    block, singles = make_stream(38), make_stream(38)
    assert block.random(5).tolist() == [singles.random() for _ in range(5)]
    assert _position(block) == _position(singles)
    matrix = PotentialMatrix(_SHARED_MAXIMUM, _DOMINANT_COLUMNS)
    stream = _CountingStream(make_stream(39))
    for _ in range(200):
        estimate_recycle(matrix, stream)
    assert stream.blocks == [3] * 200
    # Step 1 redraws in 40% of estimates, step 2 in about 25%.
    assert 100 < stream.singles < 160
    replay = make_stream(39)
    for _ in range(3 * 200 + stream.singles):
        replay.random()
    assert _position(replay) == _position(stream.rng)


def test_tied_recycle_law_after_underflow():
    # Value 0 is particle 1's alone and the only support of factor 0, so
    # step 0 retires its whole column, column 0.  It is factor 1's maximum by 800+
    # nats, so step 1 takes the exact step, which re-shifts over the
    # columns still available.
    columns = np.array([1, 0, 2, 1, 2])
    log_values = np.array(
        [[0.0, NEG_INF, NEG_INF], [0.0, -800.3, -800.9], [0.5, -0.7, 0.2]]
    )
    # The estimate scales with each row; shifting row 1 by 800 nats
    # brings the oracle's linear values into range.  Its entry at the
    # retired column never enters, so any value stands in for it.
    shifted = log_values.copy()
    shifted[1] += 800.0
    shifted[1, 0] = 0.0
    mean, second = recycle_conditional_moments(np.exp(shifted[:, columns]))
    matrix = PotentialMatrix(log_values, columns)
    rng = make_stream(32, 1)
    with np.errstate(over="raise"):
        draws = []
        for _ in range(10_000):
            estimate, picks = estimate_recycle(matrix, rng)
            assert picks[0] == 0
            draws.append(estimate + 800.0)
        _assert_moments(np.exp(draws), mean, second)
        assert _assert_pick_law(matrix, 1) == 1.0


def test_tied_recycle_law_on_vanishing_factor():
    # Factor 0 vanishes on every particle: the estimate is zero and the
    # step falls back to a uniform pick over all five particles, so it
    # retires each column in proportion to its particle count.
    columns = np.array([0, 1, 1, 0, 2])
    log_values = np.array([[NEG_INF] * 3, [0.4, -0.3, 0.0], [0.1, NEG_INF, -2.0]])
    results = _assert_recycle_law(log_values, columns, 33, n_estimates=2_000)
    assert all(log_value == NEG_INF for log_value, _ in results)
    matrix = PotentialMatrix(log_values, columns)
    assert _assert_pick_law(matrix, 0) == 0.0


@pytest.mark.parametrize("n_columns", [65, 129])
def test_tied_recycle_law_across_padding(n_columns):
    # With every uniform just below 1, each first try takes the last rank
    # of the last column, which ranks a taken particle from step 1 on, and
    # each exact step then takes the last column with a particle available:
    # never a column past the end or one already used up.  Particle j
    # belongs to column j // 2, so the picks run down the particles' columns.
    n_particles = 2 * n_columns
    columns = np.arange(n_particles) // 2
    rng = np.random.default_rng(n_columns)
    log_values = rng.normal(size=(n_columns, n_columns))
    matrix = PotentialMatrix(log_values, columns)
    estimate, picks = estimate_recycle(matrix, _TopUniform())
    assert picks == tuple(j // 2 for j in range(n_particles - 1, n_particles - n_columns - 1, -1))
    expanded = log_values[:, columns]
    expected = sum(
        np.logaddexp.reduce(expanded[p, : n_particles - p]) - math.log(n_particles - p)
        for p in range(n_columns)
    )
    assert estimate == pytest.approx(expected, rel=1e-12)
    # Seeded streams retire each column in range at most twice.
    stream = make_stream(34, n_columns)
    for _ in range(20):
        _, picks = estimate_recycle(matrix, stream)
        assert len(picks) == n_columns
        assert all(0 <= c < n_columns for c in picks)
        assert np.bincount(picks).max() <= 2


def test_tied_matrix_feeds_every_estimator_its_expanded_values():
    log_values, columns = _tied(35, 3, 12, 5, neg_inf_share=0.2)
    tied = PotentialMatrix(log_values, columns)
    expanded = PotentialMatrix(log_values[:, columns])
    assert np.array_equal(tied.expanded(), expanded.log_values)
    assert estimate_simple(tied) == estimate_simple(expanded)
    assert estimate_biased(tied) == estimate_biased(expanded)
    assert estimate_perm_exact(tied) == estimate_perm_exact(expanded)
    # Default columns are arange(n_particles), so a full matrix, with or
    # without a vanishing row, gives the same values and recycle stream.
    vanishing = expanded.log_values.copy()
    vanishing[1] = NEG_INF
    for values in (expanded.log_values, vanishing):
        default = PotentialMatrix(values)
        explicit = PotentialMatrix(values, np.arange(values.shape[1]))
        for seed in range(5):
            assert estimate_recycle(default, make_stream(seed)) == estimate_recycle(
                explicit, make_stream(seed)
            )
        for estimate in (estimate_simple, estimate_biased, estimate_perm_exact):
            assert estimate(default) == estimate(explicit)


@pytest.mark.parametrize("seed", range(6))
def test_biased_counts_each_column_once_per_particle(seed):
    # On a compressed matrix the biased estimator weighs each column by its
    # particle count, so it agrees with the expanded matrix up to rounding.
    log_values, columns = _tied(
        seed, 1 + seed, 40 * (seed + 1), 7, neg_inf_share=0.3 * (seed % 2)
    )
    tied = estimate_biased(PotentialMatrix(log_values, columns))
    expanded = estimate_biased(PotentialMatrix(log_values[:, columns]))
    assert tied == pytest.approx(expanded, rel=1e-13, abs=1e-13)


def test_tied_matrix_reports_bad_entry_at_first_particle():
    columns = np.array([2, 0, 1, 2, 1, 0])
    values = np.zeros((3, 3))
    values[1, 1] = math.nan
    with pytest.raises(PotentialValueError, match="nan at factor 1, particle 2"):
        PotentialMatrix(values, columns)
    values[1, 1] = 0.0
    values[2, 0] = math.inf
    with pytest.raises(PotentialValueError, match="inf at factor 2, particle 1"):
        PotentialMatrix(values, columns)


def test_tied_matrix_validation():
    values = np.zeros((3, 2))
    matrix = PotentialMatrix(values, [1, 0, 0, 1])  # fewer columns than factors is fine
    assert (matrix.n_factors, matrix.n_particles) == (3, 4)
    unsigned = PotentialMatrix(values, np.array([1, 0, 0, 1], dtype=np.uint64))
    assert np.array_equal(unsigned.expanded(), matrix.expanded())
    with pytest.raises(ValueError):
        matrix.columns[0] = 0
    # The particles per column, counted once by the check, are kept read-only.
    assert matrix.column_counts.tolist() == [2, 2]
    with pytest.raises(ValueError):
        matrix.column_counts[0] = 0
    # Without columns every particle has a column of its own.
    full = PotentialMatrix(np.zeros((3, 4)))
    assert full.columns.tolist() == [0, 1, 2, 3]
    assert full.column_counts.tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        full.columns[0] = 1
    with pytest.raises(ValueError):
        full.column_counts[0] = 0
    with pytest.raises(DimensionError):
        PotentialMatrix(values, [1, 0])  # fewer particles than factors
    for columns in ([0, 0, 0, 0], [0, 1, 2, 1], [-1, 0, 1, 1], [[0, 1, 0]], [0.0, 1.0, 0.0]):
        with pytest.raises(DimensionError):
            PotentialMatrix(values, columns)
    with pytest.raises(DimensionError, match="onto all 3 columns"):
        PotentialMatrix(np.zeros((3, 3)), [0, 2, 2, 0])  # column 1 has no particle


# ---------------------------------------------------------------- averaging


def test_perm_hand_value():
    matrix = PotentialMatrix(np.log(np.array([[1.0, 2.0], [3.0, 4.0]])))
    # Injections: (0,1) -> 4, (1,0) -> 6; mean 5.
    assert estimate_perm_exact(matrix) == pytest.approx(math.log(5.0))


def test_perm_matches_manual_enumeration():
    rng = np.random.default_rng(5)
    values = rng.random((3, 5))
    values[rng.random((3, 5)) < 0.3] = 0.0
    matrix = PotentialMatrix(_log(values))
    terms = [
        np.prod([values[p, idx[p]] for p in range(3)])
        for idx in itertools.permutations(range(5), 3)
    ]
    assert estimate_perm_exact(matrix) == pytest.approx(
        math.log(np.mean(terms)), rel=1e-12
    )


def test_perm_term_cap(monkeypatch):
    # The cap counts subset updates, n_particles * 2**n_factors * n_factors.
    matrix = PotentialMatrix(np.zeros((3, 6)))
    updates = 6 * 2**3 * 3
    monkeypatch.setattr(estimators, "ENUMERATION_CAP", updates)
    assert estimate_perm_exact(matrix) == 0.0
    monkeypatch.setattr(estimators, "ENUMERATION_CAP", updates - 1)
    with pytest.raises(EnumerationLimitError, match=f"{updates} subset updates"):
        estimate_perm_exact(matrix)


def test_perm_equals_average_of_permuted_simple():
    # With unit blocks, averaging the ordered estimator over all column
    # permutations reproduces the exhaustive injection average.
    rng = np.random.default_rng(6)
    values = np.log(rng.random((3, 3)) + 0.01)
    matrix = PotentialMatrix(values)
    logs = [
        estimate_simple(PotentialMatrix(values[:, perm]))
        for perm in itertools.permutations(range(3))
    ]
    direct = math.log(np.mean(np.exp(logs)))
    assert estimate_perm_exact(matrix) == pytest.approx(direct, rel=1e-12)


def _perm_by_enumeration(log_values):
    """log of the mean factor product over all injective assignments, term by term."""
    n_factors, n_particles = log_values.shape
    terms = np.array([
        sum(log_values[p, column] for p, column in enumerate(selection))
        for selection in itertools.permutations(range(n_particles), n_factors)
    ])
    top = terms.max()
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(np.exp(terms - top).sum()) - math.log(terms.size)


@st.composite
def offset_log_matrices(draw):
    """Small log matrices with -inf entries and rows and columns shifted by ±800 nats."""
    n_factors = draw(st.integers(1, 4))
    n_particles = draw(st.integers(n_factors, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_factors, n_particles))
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = NEG_INF
    values += rng.choice([-800.0, 0.0, 800.0], size=(n_factors, 1))
    values += rng.choice([0.0, 800.0], size=(1, n_particles))
    return values


@given(offset_log_matrices())
@settings(max_examples=200, deadline=None)
def test_perm_dynamic_program_matches_enumeration(values):
    expected = _perm_by_enumeration(values)
    got = estimate_perm_exact(PotentialMatrix(values))
    if expected == NEG_INF:
        assert got == NEG_INF
    else:
        # Log-space rounding scales with the size of the entries (up to 1,600
        # nats here), not with a result that may cancel to near zero.
        scale = np.abs(values[np.isfinite(values)]).max()
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * scale)


def test_perm_all_zero_row_is_zero_without_warnings():
    values = np.zeros((3, 5))
    values[1] = NEG_INF
    with np.errstate(all="raise"):
        estimate = estimate_perm_exact(PotentialMatrix(values))
    assert estimate == NEG_INF


def test_perm_ten_factors_forty_particles():
    # 40! / 30! = 3.1e15 ordered selections; 409,600 subset updates.
    values = np.log(np.random.default_rng(12).random((10, 40)))
    started = time.perf_counter()
    estimate = estimate_perm_exact(PotentialMatrix(values))
    assert time.perf_counter() - started < 1.0
    assert math.isfinite(estimate)
    # Every entry lies in (0, 1), so the average does too.
    assert estimate < 0.0


def _perm_pin_matrices():
    """Seeded log matrices with -inf entries, an all -inf row, and a late factor."""
    cases = {}
    for n_factors in range(1, 8):
        rng = np.random.default_rng(2000 + n_factors)
        values = rng.normal(size=(n_factors, n_factors + 3))
        values[rng.random(values.shape) < 0.3] = NEG_INF
        cases[f"seeded_{n_factors}"] = values
    row = np.random.default_rng(2010).normal(size=(3, 5))
    row[1] = NEG_INF
    cases["all_inf_row"] = row
    # Factor 2 vanishes on the first five particles, so every subset that
    # holds it keeps a zero total for five columns.
    late = np.random.default_rng(2011).normal(size=(4, 8))
    late[2, :5] = NEG_INF
    cases["late_factor"] = late
    return cases


# The permanent's log values, bit for bit, as `repr`.
PERM_PINS = {
    "seeded_1": "0.6417492823547606",
    "seeded_2": "-0.23019675202295709",
    "seeded_3": "-0.37665074831463574",
    "seeded_4": "2.174644680637816",
    "seeded_5": "0.44494485168429065",
    "seeded_6": "2.803976872130871",
    "seeded_7": "-1.0826060661221124",
    "all_inf_row": "-inf",
    "late_factor": "1.6229997793042061",
}


def test_perm_pinned_bit_for_bit():
    got = {
        name: repr(estimate_perm_exact(PotentialMatrix(values)))
        for name, values in _perm_pin_matrices().items()
    }
    assert got == PERM_PINS


# -------------------------------------------------------------------- draws


class _TopUniform:
    """Stands in for a generator whose every uniform is the largest below 1."""

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)


def test_recycle_top_uniform_stays_in_range():
    # The pairwise row total exceeds the running cumsum's last entry here;
    # scaling the uniform by the former would pick a column past the end.
    row = np.array([0.0] + [-37.0] * 63)
    estimate, picks = estimate_recycle(PotentialMatrix(row[None, :]), _TopUniform())
    assert estimate == pytest.approx(math.log((1.0 + 63 * math.exp(-37.0)) / 64))
    assert 0 <= picks[0] < 64
    # With a second factor the pick must also land on an available column.
    estimate, picks = estimate_recycle(PotentialMatrix(np.array([row, row])), _TopUniform())
    assert math.isfinite(estimate)
    assert len(set(picks)) == 2 and all(0 <= k < 64 for k in picks)


@pytest.mark.parametrize("n_particles", [65, 129])
def test_recycle_top_uniform_picks_stay_out_of_padding(n_particles):
    # With every uniform just below 1, each step must take the last
    # available column, never one past the end or one already taken.
    rng = np.random.default_rng(n_particles)
    values = rng.normal(size=(n_particles, n_particles))
    estimate, picks = estimate_recycle(PotentialMatrix(values), _TopUniform())
    assert picks == tuple(range(n_particles - 1, -1, -1))
    expected = sum(
        np.logaddexp.reduce(values[p, : n_particles - p]) - math.log(n_particles - p)
        for p in range(n_particles)
    )
    assert estimate == pytest.approx(expected, rel=1e-12)


def test_recycle_mean_matches_exact_on_random_fixture():
    rng = np.random.default_rng(9)
    measure, potentials, n_particles = random_moment_fixture(rng)
    mean, _ = estimator_distribution_exact(
        measure, potentials, n_particles, kind="recycle"
    )
    model = DiscreteFixtureModel(measure, potentials)
    stream = make_stream(505)
    latents = model.sample_latent((), stream, size=(20000, n_particles))
    _, log_potentials = model.bind(model.factor_indices)
    draws = np.exp([
        estimate_recycle(PotentialMatrix(log_potentials(x)), stream)[0]
        for x in latents
    ])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean) < 4 * max(se, 1e-12)


# ----------------------------------------------------------------- property


@st.composite
def small_log_matrices(draw):
    n_factors = draw(st.integers(1, 3))
    n_particles = draw(st.integers(n_factors, 5))
    cell = st.one_of(st.floats(-4.0, 4.0), st.just(NEG_INF))
    rows = draw(
        st.lists(
            st.lists(cell, min_size=n_particles, max_size=n_particles),
            min_size=n_factors,
            max_size=n_factors,
        )
    )
    return PotentialMatrix(np.array(rows))


@given(small_log_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_recycle_bounded_by_row_maxima(matrix, seed):
    estimate, picks = estimate_recycle(matrix, make_stream(seed))
    bound = matrix.log_values.max(axis=1).sum()
    assert estimate <= bound + 1e-9
    assert len(picks) == matrix.n_factors
    assert len(set(picks)) == matrix.n_factors
    assert all(0 <= k < matrix.n_particles for k in picks)


@given(small_log_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_perm_invariant_under_column_shuffle(matrix, seed):
    shuffled = np.random.default_rng(seed).permutation(matrix.n_particles)
    reordered = PotentialMatrix(matrix.log_values[:, shuffled])
    original = estimate_perm_exact(matrix)
    permuted = estimate_perm_exact(reordered)
    if original == NEG_INF:
        assert permuted == NEG_INF
    else:
        assert permuted == pytest.approx(original, rel=1e-10, abs=1e-10)
