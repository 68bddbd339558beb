import itertools
import math

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
from prodest.oracle import estimator_distribution_exact
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
    matrix = PotentialMatrix(np.zeros((3, 6)))
    with pytest.raises(EnumerationLimitError):
        estimate_perm_exact(matrix, max_terms=10)


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
