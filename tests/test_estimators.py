import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from prodest.estimators import (
    DimensionError,
    EnumerationLimitError,
    LogEstimate,
    PotentialMatrix,
    PotentialValueError,
    SelectionTrace,
    estimate_biased,
    estimate_perm_exact,
    estimate_recycle,
    estimate_simple,
    recycle_log_estimates_batch,
)
from prodest.fixtures import (
    get_fixture,
    log_potential_values,
    sample_support_indices,
)
from prodest.oracle import estimator_distribution_exact, recycle_conditional_moments
from prodest.rng import make_stream

from conftest import random_moment_fixture

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
    with pytest.raises(PotentialValueError):
        PotentialMatrix(np.array([[0.0, math.nan]]))
    with pytest.raises(PotentialValueError):
        PotentialMatrix(np.array([[0.0, math.inf]]))
    matrix = PotentialMatrix(np.array([[0.0, NEG_INF]]))
    assert (matrix.n_factors, matrix.n_particles) == (1, 2)


def test_potential_matrix_read_only_copy():
    source = np.zeros((1, 3))
    matrix = PotentialMatrix(source)
    source[0, 0] = 9.0
    assert matrix.log_values[0, 0] == 0.0
    with pytest.raises(ValueError):
        matrix.log_values[0, 0] = 9.0


def test_potential_matrix_adopt_checks_without_copy():
    source = np.zeros((2, 3))
    matrix = PotentialMatrix.adopt(source)
    assert np.shares_memory(matrix.log_values, source)
    with pytest.raises(ValueError):
        matrix.log_values[0, 0] = 9.0
    with pytest.raises(DimensionError):
        PotentialMatrix.adopt(np.zeros((3, 2)))
    bad = np.zeros((2, 3))
    bad[1, 2] = math.nan
    with pytest.raises(PotentialValueError, match="nan at factor 1, particle 2"):
        PotentialMatrix.adopt(bad)


def test_potential_matrix_reports_bad_entry_location():
    values = np.zeros((3, 4))
    values[1, 2] = math.nan
    values[2, 0] = math.inf
    with pytest.raises(PotentialValueError, match="nan at factor 1, particle 2"):
        PotentialMatrix(values)
    values[1, 2] = NEG_INF
    with pytest.raises(PotentialValueError, match="inf at factor 2, particle 0"):
        PotentialMatrix(values)


def test_log_estimate_values():
    assert LogEstimate(0.0).value == 1.0
    assert LogEstimate(NEG_INF).value == 0.0
    assert LogEstimate(710.0).value == math.inf
    with pytest.raises(ValueError):
        LogEstimate(math.nan)
    with pytest.raises(ValueError):
        LogEstimate(math.inf)


def test_selection_trace_validation():
    assert len(SelectionTrace((2, 0, 1))) == 3
    with pytest.raises(ValueError):
        SelectionTrace((1, 1))
    with pytest.raises(ValueError):
        SelectionTrace((-1,))


# ---------------------------------------------------------- block and biased


def test_simple_hand_value():
    assert estimate_simple(CROSS, block_size=1).log_value == pytest.approx(0.0)


def test_simple_blocks_are_disjoint():
    matrix = PotentialMatrix(
        np.log(np.array([[3.0, 1.0, 9.0, 9.0], [9.0, 9.0, 2.0, 4.0]]))
    )
    estimate = estimate_simple(matrix, block_size=2)
    assert estimate.log_value == pytest.approx(math.log(2.0 * 3.0), rel=1e-14)


def test_simple_requires_matching_block():
    with pytest.raises(DimensionError):
        estimate_simple(CROSS, block_size=2)


def test_simple_zero_block_gives_zero():
    matrix = PotentialMatrix(np.array([[NEG_INF, NEG_INF], [0.0, 0.0]]))
    assert estimate_simple(matrix, block_size=1).log_value == NEG_INF


def test_biased_hand_value():
    assert estimate_biased(CROSS).log_value == pytest.approx(math.log(0.25))
    vanishing = PotentialMatrix(np.array([[0.0, 0.0], [NEG_INF, NEG_INF]]))
    assert estimate_biased(vanishing).log_value == NEG_INF


# ----------------------------------------------------------------- recycled


def test_recycle_hand_value_and_trace():
    estimate, trace = estimate_recycle(CROSS, make_stream(0))
    assert estimate.log_value == pytest.approx(math.log(0.5))
    assert tuple(trace.indices) == (0, 1)


def test_recycle_disjoint_columns_match_perm():
    # One positive particle per factor: every selection path gives the
    # same value, so the recycled estimate is deterministic.
    matrix = PotentialMatrix(
        np.array([[math.log(3.0), NEG_INF], [NEG_INF, math.log(5.0)]])
    )
    perm = estimate_perm_exact(matrix)
    for seed in range(5):
        estimate, _ = estimate_recycle(matrix, make_stream(seed))
        assert estimate.log_value == pytest.approx(perm.log_value, rel=1e-14)
        assert estimate.log_value == pytest.approx(math.log(7.5), rel=1e-14)


def test_recycle_constant_rows_exact():
    matrix = PotentialMatrix(np.full((3, 5), math.log(2.0)))
    estimate, trace = estimate_recycle(matrix, make_stream(11))
    assert estimate.log_value == pytest.approx(3.0 * math.log(2.0), rel=1e-14)
    assert len(set(trace.indices)) == 3


def test_recycle_zero_row_returns_zero_with_full_trace():
    matrix = PotentialMatrix(
        np.array([[NEG_INF] * 3, [0.0, 0.0, 0.0]])
    )
    estimate, trace = estimate_recycle(matrix, make_stream(4))
    assert estimate.log_value == NEG_INF
    assert len(trace.indices) == 2
    assert len(set(trace.indices)) == 2


def test_recycle_deterministic_given_stream():
    rng = np.random.default_rng(8)
    matrix = PotentialMatrix(np.log(rng.random((3, 6))))
    first = estimate_recycle(matrix, make_stream(21, 5))
    second = estimate_recycle(matrix, make_stream(21, 5))
    assert first[0].log_value == second[0].log_value
    assert tuple(first[1].indices) == tuple(second[1].indices)


def test_recycle_golden_pin():
    # Values of the original three-function selection step.  A kernel that
    # keeps the same arithmetic reproduces them; one that does not must say
    # which fixed-seed streams it moves.
    rng = np.random.default_rng(2024)
    values = rng.normal(scale=2.0, size=(5, 40))
    values[rng.random((5, 40)) < 0.4] = NEG_INF
    estimate, trace = estimate_recycle(PotentialMatrix(values), make_stream(7, 1))
    assert estimate.log_value == pytest.approx(6.214616789614282, rel=1e-14)
    assert tuple(trace.indices) == (31, 27, 26, 21, 4)


def test_recycle_multi_block_golden_pin():
    # Spans six search blocks, the last one partly padding; column 5 is the
    # maximum of every row but one, so later steps run with it retired.
    # Values recorded with the kernel that searched a compacted row.
    rng = np.random.default_rng(2025)
    values = rng.normal(scale=3.0, size=(12, 333))
    values[rng.random((12, 333)) < 0.3] = NEG_INF
    values[:, 5] = 12.0
    estimate, trace = estimate_recycle(PotentialMatrix(values), make_stream(9, 2))
    assert estimate.log_value == pytest.approx(51.60297854390586, rel=1e-14)
    assert tuple(trace.indices) == (
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
        estimate, trace = estimate_recycle(matrix, rng)
        assert estimate.log_value == pytest.approx(expected, rel=1e-14)
        assert trace.indices[0] == 0
        assert 1 <= trace.indices[1] < n_particles


def test_single_factor_estimators_agree():
    matrix = PotentialMatrix(_log([[0.5, 2.0, 0.0, 1.5]]))
    expected = math.log(np.mean([0.5, 2.0, 0.0, 1.5]))
    assert estimate_simple(matrix, block_size=4).log_value == pytest.approx(expected)
    assert estimate_biased(matrix).log_value == pytest.approx(expected)
    assert estimate_perm_exact(matrix).log_value == pytest.approx(expected)
    estimate, _ = estimate_recycle(matrix, make_stream(2))
    assert estimate.log_value == pytest.approx(expected)


# ------------------------------------------------------------ selection step


def _picks(matrix, stream_seed, n_draws, factor):
    """The column factor ``factor`` retires, over repeated recycled estimates."""
    rng = make_stream(stream_seed)
    return np.array(
        [estimate_recycle(matrix, rng)[1].indices[factor] for _ in range(n_draws)]
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
        estimate, trace = estimate_recycle(matrix, rng)
        assert tuple(trace.indices) == (0, 2, 1)
        assert estimate.log_value == NEG_INF


def test_recycle_never_redraws_retired_column():
    # Column 0 carries almost all the mass of every row; once factor 0
    # retires it, the later factors must pick among the other columns.
    matrix = PotentialMatrix(np.tile(np.log([5e6, 1.0, 1.0, 1.0]), (3, 1)))
    rng = make_stream(17)
    for _ in range(20):
        _, trace = estimate_recycle(matrix, rng)
        assert trace.indices[0] == 0
        assert len(set(trace.indices)) == 3


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
    """Stands in for a generator that returns the given uniforms in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _assert_pick_law(matrix, step, expected, n_cells=10_000):
    """Over a grid of uniforms for step ``step``, each particle's share is its probability.

    Earlier steps get the uniform 0.5 and must be deterministic.  The
    particles a step can pick cover contiguous ranges of its uniform, so
    each share is exact up to one grid cell at either end.
    """
    counts = np.zeros(matrix.n_particles)
    for u in (np.arange(n_cells) + 0.5) / n_cells:
        _, trace = estimate_recycle(matrix, _Uniforms([0.5] * step + [u] + [0.5] * 10))
        counts[trace.indices[step]] += 1
    assert np.abs(counts / n_cells - expected).max() <= 2.0 / n_cells


def _assert_recycle_law(log_values, columns, seed, n_estimates=10_000):
    """Seeded estimates of the compressed matrix have the exact oracle's mean and second moment.

    Returns the log values and traces; each trace must hold distinct
    particle indices in range.
    """
    matrix = PotentialMatrix(log_values, columns)
    mean, second = recycle_conditional_moments(np.exp(log_values[:, columns]))
    rng = make_stream(seed, 1)
    results = []
    for _ in range(n_estimates):
        estimate, trace = estimate_recycle(matrix, rng)
        assert len(set(trace.indices)) == matrix.n_factors
        assert all(0 <= i < matrix.n_particles for i in trace.indices)
        results.append((estimate.log_value, trace.indices))
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
    # every row.  A particle's first-pick probability is its column's
    # normalised count-weighted potential divided by the count.
    columns = np.array([1, 0, 2, 1, 0])
    log_values = np.array(
        [[0.3, NEG_INF, -1.2], [NEG_INF, 0.9, 0.1], [-0.4, 0.2, NEG_INF]]
    )
    _assert_recycle_law(log_values, columns, 31)
    weights = np.exp(log_values[0]) * np.bincount(columns)
    expected = (weights / weights.sum() / np.bincount(columns))[columns]
    _assert_pick_law(PotentialMatrix(log_values, columns), 0, expected)


def test_tied_recycle_law_after_underflow():
    # Value 0 is particle 1's alone and the only support of factor 0, so
    # step 0 retires its whole column.  It is factor 1's maximum by 800+
    # nats, so step 1 takes the re-shift over the columns still available.
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
            estimate, trace = estimate_recycle(matrix, rng)
            assert trace.indices[0] == 1
            draws.append(estimate.log_value + 800.0)
        _assert_moments(np.exp(draws), mean, second)
        # Step 1 weighs each column by its two live particles; column 0 has none.
        weights = np.exp(shifted[1]) * [0, 2, 2]
        expected = (weights / weights.sum() / np.bincount(columns))[columns]
        _assert_pick_law(matrix, 1, expected)


def test_tied_recycle_law_on_vanishing_factor():
    # Factor 0 vanishes on every particle: the estimate is zero and the
    # step falls back to a uniform pick over all five particles.
    columns = np.array([0, 1, 1, 0, 2])
    log_values = np.array([[NEG_INF] * 3, [0.4, -0.3, 0.0], [0.1, NEG_INF, -2.0]])
    results = _assert_recycle_law(log_values, columns, 33, n_estimates=2_000)
    assert all(log_value == NEG_INF for log_value, _ in results)
    matrix = PotentialMatrix(log_values, columns)
    _assert_pick_law(matrix, 0, np.full(5, 0.2))


@pytest.mark.parametrize("n_columns", [65, 129])
def test_tied_recycle_law_across_padding(n_columns):
    # The search buffer is padded with zero weights to a multiple of 64
    # columns.  With every uniform just below 1, each step takes the last
    # live column and its last particle, never a padding slot.  Particle
    # j belongs to column j // 2, so the picks run down the particles.
    n_particles = 2 * n_columns
    columns = np.arange(n_particles) // 2
    rng = np.random.default_rng(n_columns)
    log_values = rng.normal(size=(n_columns, n_columns))
    matrix = PotentialMatrix(log_values, columns)
    estimate, trace = estimate_recycle(matrix, _TopUniform())
    assert tuple(trace.indices) == tuple(range(n_particles - 1, n_particles - n_columns - 1, -1))
    expanded = log_values[:, columns]
    expected = sum(
        np.logaddexp.reduce(expanded[p, : n_particles - p]) - math.log(n_particles - p)
        for p in range(n_columns)
    )
    assert estimate.log_value == pytest.approx(expected, rel=1e-12)
    # Seeded streams pick distinct particles in range.
    stream = make_stream(34, n_columns)
    for _ in range(20):
        _, trace = estimate_recycle(matrix, stream)
        assert len(set(trace.indices)) == n_columns
        assert all(0 <= i < n_particles for i in trace.indices)


def test_tied_matrix_feeds_every_estimator_its_expanded_values():
    log_values, columns = _tied(35, 3, 12, 5, neg_inf_share=0.2)
    tied = PotentialMatrix(log_values, columns)
    expanded = PotentialMatrix(log_values[:, columns])
    assert np.array_equal(tied.expanded(), expanded.log_values)
    assert estimate_simple(tied, 4).log_value == estimate_simple(expanded, 4).log_value
    assert estimate_biased(tied).log_value == estimate_biased(expanded).log_value
    assert estimate_perm_exact(tied).log_value == estimate_perm_exact(expanded).log_value


def test_tied_matrix_reports_bad_entry_at_first_particle():
    columns = np.array([2, 0, 1, 2, 1, 0])
    values = np.zeros((3, 3))
    values[1, 1] = math.nan
    with pytest.raises(PotentialValueError, match="nan at factor 1, particle 2"):
        PotentialMatrix(values, columns)
    values[1, 1] = 0.0
    values[2, 0] = math.inf
    with pytest.raises(PotentialValueError, match="inf at factor 2, particle 1"):
        PotentialMatrix.adopt(values, columns)


def test_tied_matrix_validation():
    values = np.zeros((3, 2))
    matrix = PotentialMatrix(values, [1, 0, 0, 1])  # fewer columns than factors is fine
    assert (matrix.n_factors, matrix.n_particles) == (3, 4)
    unsigned = PotentialMatrix(values, np.array([1, 0, 0, 1], dtype=np.uint64))
    assert np.array_equal(unsigned.expanded(), matrix.expanded())
    with pytest.raises(ValueError):
        matrix.columns[0] = 0
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
    assert estimate_perm_exact(matrix).log_value == pytest.approx(math.log(5.0))


def test_perm_matches_manual_enumeration():
    rng = np.random.default_rng(5)
    values = rng.random((3, 5))
    values[rng.random((3, 5)) < 0.3] = 0.0
    matrix = PotentialMatrix(_log(values))
    terms = [
        np.prod([values[p, idx[p]] for p in range(3)])
        for idx in itertools.permutations(range(5), 3)
    ]
    assert estimate_perm_exact(matrix).log_value == pytest.approx(
        math.log(np.mean(terms)), rel=1e-12
    )


def test_perm_term_cap():
    # The cap counts subset updates, n_particles * 2**n_factors * n_factors.
    matrix = PotentialMatrix(np.zeros((3, 6)))
    updates = 6 * 2**3 * 3
    assert estimate_perm_exact(matrix, max_terms=updates).log_value == 0.0
    with pytest.raises(EnumerationLimitError, match=f"{updates} subset updates"):
        estimate_perm_exact(matrix, max_terms=updates - 1)


def test_perm_equals_average_of_permuted_simple():
    # With unit blocks, averaging the ordered estimator over all column
    # permutations reproduces the exhaustive injection average.
    rng = np.random.default_rng(6)
    values = np.log(rng.random((3, 3)) + 0.01)
    matrix = PotentialMatrix(values)
    logs = [
        estimate_simple(PotentialMatrix(values[:, perm]), 1).log_value
        for perm in itertools.permutations(range(3))
    ]
    direct = math.log(np.mean(np.exp(logs)))
    assert estimate_perm_exact(matrix).log_value == pytest.approx(direct, rel=1e-12)


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
    got = estimate_perm_exact(PotentialMatrix(values)).log_value
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
    assert estimate.log_value == NEG_INF


def test_perm_ten_factors_forty_particles():
    # 40! / 30! = 3.1e15 ordered selections; 409,600 subset updates.
    values = np.log(np.random.default_rng(12).random((10, 40)))
    started = time.perf_counter()
    estimate = estimate_perm_exact(PotentialMatrix(values))
    assert time.perf_counter() - started < 1.0
    assert math.isfinite(estimate.log_value)
    # Every entry lies in (0, 1), so the average does too.
    assert estimate.log_value < 0.0


# -------------------------------------------------------------- batch draws


def test_batch_recycle_deterministic():
    measure, potentials = get_fixture("d1").build()
    rng = make_stream(77)
    indices = sample_support_indices(measure, 2, rng, n_replicates=64)
    tensor = log_potential_values(potentials, indices)
    first = recycle_log_estimates_batch(tensor, make_stream(5))
    second = recycle_log_estimates_batch(tensor, make_stream(5))
    assert (first == second).all()


class _TopUniform:
    """Stands in for a generator whose every uniform is the largest below 1."""

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)


def test_batch_recycle_top_uniform_stays_in_range():
    # The pairwise row total exceeds the running cumsum's last entry here;
    # scaling the uniform by the former picked column 64, out of range.
    row = np.array([0.0] + [-37.0] * 63)
    logs = recycle_log_estimates_batch(row[None, None, :], _TopUniform())
    assert logs[0] == pytest.approx(math.log((1.0 + 63 * math.exp(-37.0)) / 64))
    # With a second factor the pick must also land on an available column.
    tensor = np.array([[row, row]])
    logs = recycle_log_estimates_batch(tensor, _TopUniform())
    assert np.isfinite(logs).all()


@pytest.mark.parametrize("n_particles", [65, 129])
def test_recycle_top_uniform_picks_stay_out_of_padding(n_particles):
    # The search buffer is padded with zero weights to a multiple of 64
    # columns.  With every uniform just below 1, each step must take the
    # last available column, never a padding slot past it.
    rng = np.random.default_rng(n_particles)
    values = rng.normal(size=(n_particles, n_particles))
    estimate, trace = estimate_recycle(PotentialMatrix(values), _TopUniform())
    assert tuple(trace.indices) == tuple(range(n_particles - 1, -1, -1))
    expected = sum(
        np.logaddexp.reduce(values[p, : n_particles - p]) - math.log(n_particles - p)
        for p in range(n_particles)
    )
    assert estimate.log_value == pytest.approx(expected, rel=1e-12)


def test_batch_recycle_rejects_nan_and_inf():
    tensor = np.zeros((2, 2, 3))
    tensor[1, 0, 2] = math.inf
    with pytest.raises(PotentialValueError, match="inf at replicate 1, factor 0, particle 2"):
        recycle_log_estimates_batch(tensor, make_stream(6))
    tensor[0, 1, 1] = math.nan
    with pytest.raises(PotentialValueError, match="nan at replicate 0, factor 1, particle 1"):
        recycle_log_estimates_batch(tensor, make_stream(6))


def test_batch_recycle_matches_exact_moments():
    measure, potentials = get_fixture("d1").build()
    mean, second = estimator_distribution_exact(measure, potentials, 2, kind="recycle")
    rng = make_stream(404)
    indices = sample_support_indices(measure, 2, rng, n_replicates=40000)
    tensor = log_potential_values(potentials, indices)
    logs = recycle_log_estimates_batch(tensor, rng)
    draws = np.exp(logs)
    mean_se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean) < 3 * mean_se
    second_draws = draws**2
    second_se = second_draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(second_draws.mean() - second) < 3 * second_se


def test_batch_recycle_agrees_with_sequential_distribution():
    rng = np.random.default_rng(9)
    measure, potentials, n_particles = random_moment_fixture(rng)
    mean, second = estimator_distribution_exact(
        measure, potentials, n_particles, kind="recycle"
    )
    stream = make_stream(505)
    indices = sample_support_indices(measure, n_particles, stream, n_replicates=20000)
    tensor = log_potential_values(potentials, indices)
    draws = np.exp(recycle_log_estimates_batch(tensor, stream))
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
    estimate, trace = estimate_recycle(matrix, make_stream(seed))
    bound = matrix.log_values.max(axis=1).sum()
    assert estimate.log_value <= bound + 1e-9
    assert len(trace.indices) == matrix.n_factors
    assert len(set(trace.indices)) == matrix.n_factors
    assert all(0 <= k < matrix.n_particles for k in trace.indices)


@given(small_log_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_perm_invariant_under_column_shuffle(matrix, seed):
    shuffled = np.random.default_rng(seed).permutation(matrix.n_particles)
    reordered = PotentialMatrix(matrix.log_values[:, shuffled])
    original = estimate_perm_exact(matrix).log_value
    permuted = estimate_perm_exact(reordered).log_value
    if original == NEG_INF:
        assert permuted == NEG_INF
    else:
        assert permuted == pytest.approx(original, rel=1e-10, abs=1e-10)
