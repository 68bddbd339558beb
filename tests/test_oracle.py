"""Exact finite-state checks for the estimator moment identities.

Everything here is computable in closed form or by exhaustive
enumeration, so tolerances are near machine precision and the expected
numbers are frozen literals.
"""

import math

import numpy as np
import pytest

from prodest.estimators import (
    DimensionError,
    EnumerationLimitError,
    PotentialMatrix,
    estimate_perm_exact,
)
from prodest.fixtures import get_fixture
from prodest.oracle import (
    DiscreteLVM,
    DiscreteMeasure,
    DiscretePotentialSet,
    MomentReport,
    ZeroMeanPotentialError,
    estimator_distribution_exact,
    expected_factor_relvar,
    factor_relative_variances,
    induced_potentials,
    latent_expected_second_moment,
    latent_expected_second_moment_simple,
    mean_product,
    moment_report,
    observation_marginal,
    second_moment_perm_exact,
    second_moment_recycle_exact,
    second_moment_simple_exact,
)

from conftest import (
    random_disjoint_fixture,
    random_identical_fixture,
    random_indicator_fixture,
    random_lvm,
    random_moment_fixture,
    random_product_fixture,
)
from oracle_support import (
    identical_potential_bound,
    independent_second_moment,
    moment_product,
    recycle_conditional_moments,
)

D1 = get_fixture("d1").build()  # fair coin, disjoint singleton indicators
D3 = get_fixture("d3").build()  # uniform bit pairs, coordinate indicators
D4 = get_fixture("d4").build()  # two hidden states, 3/4-1/4 emission kernel


# ------------------------------------------------------------------- inputs


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure((0, 1), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        DiscreteMeasure((0, 1), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure((0,), np.array([0.5, 0.5]))
    measure = DiscreteMeasure((0, 1, 2), np.array([0.2, 0.0, 0.8]))
    assert measure.n_points == 3
    with pytest.raises(ValueError):
        measure.probs[0] = 1.0


def test_potential_set_validation():
    with pytest.raises(ValueError):
        DiscretePotentialSet(np.array([[1.0, -0.1]]))
    with pytest.raises(ValueError):
        DiscretePotentialSet(np.array([[1.0, math.inf]]))
    with pytest.raises(ValueError):
        DiscretePotentialSet(np.array([1.0, 2.0]))
    assert DiscretePotentialSet(np.ones((2, 3))).n_factors == 2


# ----------------------------------------------------------- first moments


def test_mean_product_pinned():
    assert mean_product(*D1) == pytest.approx(0.25, abs=1e-15)
    assert mean_product(*D3) == pytest.approx(0.25, abs=1e-15)


def test_mean_product_random_vs_manual():
    rng = np.random.default_rng(1)
    for _ in range(20):
        measure, potentials, _ = random_moment_fixture(rng)
        manual = np.prod(potentials.values @ measure.probs)
        assert mean_product(measure, potentials) == pytest.approx(manual, rel=1e-13)


def test_factor_relative_variances_pinned():
    assert factor_relative_variances(*D1) == pytest.approx([1.0, 1.0], abs=1e-15)
    constant = DiscretePotentialSet(np.full((2, 3), 0.7))
    measure = DiscreteMeasure((0, 1, 2), np.array([0.2, 0.3, 0.5]))
    assert factor_relative_variances(measure, constant) == pytest.approx(
        [0.0, 0.0], abs=1e-15
    )


def test_zero_mean_factor_rejected():
    measure = DiscreteMeasure((0, 1), np.array([1.0, 0.0]))
    potentials = DiscretePotentialSet(np.array([[0.0, 5.0]]))
    with pytest.raises(ZeroMeanPotentialError):
        factor_relative_variances(measure, potentials)
    with pytest.raises(ZeroMeanPotentialError):
        second_moment_recycle_exact(measure, potentials, 2)


# ------------------------------------------------------------ mixed moments


def test_moment_product_hand_values():
    measure, potentials = D1
    # Diagonal assignment reproduces the unit-block second moment.
    assert moment_product(measure, potentials, (0, 1), 2) == pytest.approx(4.0)
    # Crossing or colliding assignments hit disjoint supports and vanish.
    assert moment_product(measure, potentials, (1, 0), 2) == 0.0
    assert moment_product(measure, potentials, (1, 1), 2) == 0.0
    # Extra slots beyond the factor count carry only assigned potentials.
    assert moment_product(measure, potentials, (0, 2), 3) == pytest.approx(2.0)
    assert moment_product(measure, potentials, (2, 2), 3) == 0.0


def test_moment_product_constant_potentials():
    measure = DiscreteMeasure((0, 1), np.array([0.3, 0.7]))
    potentials = DiscretePotentialSet(np.full((2, 2), 3.0))
    for assignment in [(0, 1), (1, 0), (1, 1), (2, 3)]:
        n_particles = max(assignment) + 1
        assert moment_product(measure, potentials, assignment, n_particles) == (
            pytest.approx(1.0, abs=1e-15)
        )


def test_moment_product_validates_assignment():
    measure, potentials = D1
    with pytest.raises(ValueError):
        moment_product(measure, potentials, (0, 2), 2)
    with pytest.raises(ValueError):
        moment_product(measure, potentials, (0,), 2)


# ----------------------------------------------------- second moment pins


def test_second_moments_pinned_disjoint_pair():
    measure, potentials = D1
    assert second_moment_simple_exact(measure, potentials, 1) == pytest.approx(4.0)
    assert second_moment_perm_exact(measure, potentials, 2) == pytest.approx(2.0)
    assert second_moment_recycle_exact(measure, potentials, 2) == pytest.approx(2.0)


def test_second_moment_pinned_product_pair():
    measure, potentials = D3
    got = second_moment_recycle_exact(measure, potentials, 2)
    assert got == pytest.approx(3.0, abs=1e-12)
    closed = independent_second_moment(
        factor_relative_variances(measure, potentials), 2
    )
    assert closed == pytest.approx(3.0, abs=1e-12)


def test_independent_closed_form_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(15):
        measure, potentials, n_particles = random_product_fixture(rng)
        enumerated = second_moment_recycle_exact(measure, potentials, n_particles)
        closed = independent_second_moment(
            factor_relative_variances(measure, potentials), n_particles
        )
        assert enumerated == pytest.approx(closed, rel=1e-10)


def test_identical_bound_pinned_equality():
    # Indicator shared by both factors with N = n: the bound is attained.
    measure = DiscreteMeasure((0, 1), np.array([0.5, 0.5]))
    potentials = DiscretePotentialSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert identical_potential_bound(1.0, 2, 2) == pytest.approx(4.0)
    assert second_moment_recycle_exact(measure, potentials, 2) == pytest.approx(4.0)


def test_identical_bound_is_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        measure, potentials, n_particles = random_identical_fixture(rng)
        relvar = factor_relative_variances(measure, potentials)[0]
        bound = identical_potential_bound(
            relvar, potentials.n_factors, n_particles
        )
        exact = second_moment_recycle_exact(measure, potentials, n_particles)
        assert exact >= bound - 1e-9


def test_identical_bound_past_largest_double_is_inf():
    assert identical_potential_bound(1.0, 1000, 1000) == 2.0**1000
    assert identical_potential_bound(1.0, 2000, 2000) == math.inf


# ------------------------------------------------------------ dual routes


@pytest.mark.parametrize("kind", ["perm", "recycle"])
def test_enumeration_route_matches_lattice_route(kind):
    rng = np.random.default_rng(4)
    closed = {
        "perm": second_moment_perm_exact,
        "recycle": second_moment_recycle_exact,
    }[kind]
    for _ in range(15):
        measure, potentials, n_particles = random_moment_fixture(
            rng, max_points=3, max_particles=5
        )
        target = mean_product(measure, potentials)
        raw_mean, raw_second = estimator_distribution_exact(
            measure, potentials, n_particles, kind=kind
        )
        assert raw_mean == pytest.approx(target, rel=1e-11)
        relative = raw_second / target**2
        assert relative == pytest.approx(
            closed(measure, potentials, n_particles), rel=1e-10
        )


def test_enumeration_simple_route():
    rng = np.random.default_rng(5)
    for _ in range(10):
        measure, potentials, n_particles = random_moment_fixture(
            rng, max_points=3, max_particles=6, require_block=True
        )
        block = n_particles // potentials.n_factors
        target = mean_product(measure, potentials)
        raw_mean, raw_second = estimator_distribution_exact(
            measure, potentials, n_particles, kind="simple"
        )
        assert raw_mean == pytest.approx(target, rel=1e-11)
        assert raw_second / target**2 == pytest.approx(
            second_moment_simple_exact(measure, potentials, block), rel=1e-10
        )
    with pytest.raises(DimensionError, match="divisible"):
        estimator_distribution_exact(*D1, 3, kind="simple")


def test_enumeration_biased_pinned():
    measure, potentials = D1
    raw_mean, raw_second = estimator_distribution_exact(
        measure, potentials, 2, kind="biased"
    )
    assert raw_mean == pytest.approx(0.125, abs=1e-15)
    assert raw_second == pytest.approx(0.03125, abs=1e-15)


def test_enumeration_term_caps():
    # Each enumeration past the fixed cap of 10,000,000 terms raises before
    # it starts, and names what it counts.
    measure = DiscreteMeasure(tuple(range(4)), np.full(4, 0.25))
    three = DiscretePotentialSet(np.ones((3, 4)))
    eight = DiscretePotentialSet(np.ones((8, 4)))
    # 4**12 particle values, about 1.7e7, before any selection.
    with pytest.raises(EnumerationLimitError, match="terms of the estimator's law"):
        estimator_distribution_exact(measure, three, 12, kind="biased")
    # Both counts are 12! / 4! = 19,958,400, about 2.0e7.
    with pytest.raises(EnumerationLimitError, match="19958400 injective assignments"):
        second_moment_perm_exact(measure, eight, 12)
    with pytest.raises(EnumerationLimitError, match="19958400 injective assignments"):
        moment_report(measure, eight, 12)
    with pytest.raises(EnumerationLimitError, match="19958400 recycled assignments"):
        second_moment_recycle_exact(measure, eight, 12)
    with pytest.raises(EnumerationLimitError, match="256 observation vectors times 19958400"):
        latent_expected_second_moment(D4, 8, 12)


# -------------------------------------------------------------- orderings


def test_perm_never_above_recycle_or_simple():
    rng = np.random.default_rng(6)
    for _ in range(40):
        measure, potentials, n_particles = random_moment_fixture(
            rng, require_block=True
        )
        block = n_particles // potentials.n_factors
        perm = second_moment_perm_exact(measure, potentials, n_particles)
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        simple = second_moment_simple_exact(measure, potentials, block)
        assert perm <= recycle * (1 + 1e-10) + 1e-12
        assert perm <= simple * (1 + 1e-10) + 1e-12


def test_recycle_never_above_simple_for_indicators():
    rng = np.random.default_rng(7)
    for _ in range(30):
        measure, potentials, n_particles = random_indicator_fixture(rng)
        block = n_particles // potentials.n_factors
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        simple = second_moment_simple_exact(measure, potentials, block)
        assert recycle <= simple * (1 + 1e-10) + 1e-12


def test_recycle_never_above_simple_for_tame_identical_rows():
    rng = np.random.default_rng(8)
    for _ in range(30):
        measure, potentials, n_particles = random_identical_fixture(
            rng, require_block=True, bounded_third_moment=True
        )
        block = n_particles // potentials.n_factors
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        simple = second_moment_simple_exact(measure, potentials, block)
        assert recycle <= simple * (1 + 1e-10) + 1e-12


def test_recycle_can_beat_simple_and_vice_versa():
    # Heavy-tailed shared potential: recycling a lucky particle into every
    # factor multiplies its weight, so reuse loses badly here.
    measure = DiscreteMeasure((0, 1, 2), np.array([0.6995, 0.3, 0.0005]))
    potentials = DiscretePotentialSet(np.tile([1.0, 1.0, 200.0], (3, 1)))
    recycle = second_moment_recycle_exact(measure, potentials, 3)
    simple = second_moment_simple_exact(measure, potentials, 1)
    assert recycle == pytest.approx(126966.53178084281, rel=1e-9)
    assert simple == pytest.approx(5241.498436878983, rel=1e-9)
    assert recycle > simple
    # The moment condition that would guarantee the opposite ordering fails.
    normalized = potentials.values[0] / (potentials.values[0] @ measure.probs)
    third = (normalized**3) @ measure.probs
    second = (normalized**2) @ measure.probs
    assert third == pytest.approx(3010.1129767737807, rel=1e-9)
    assert third > second**2


def test_disjoint_supports_keep_recycle_at_perm():
    rng = np.random.default_rng(9)
    for _ in range(20):
        measure, potentials, n_particles = random_disjoint_fixture(rng)
        perm = second_moment_perm_exact(measure, potentials, n_particles)
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        assert recycle == pytest.approx(perm, rel=1e-10)


# ----------------------------------------------- conditional moment identity


def test_recycle_conditional_mean_is_perm():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n_factors = int(rng.integers(1, 4))
        n_particles = int(rng.integers(n_factors, 6))
        values = rng.random((n_factors, n_particles)) * 2.0
        values[rng.random((n_factors, n_particles)) < 0.3] = 0.0
        cond_mean, cond_second = recycle_conditional_moments(values)
        with np.errstate(divide="ignore"):
            matrix = PotentialMatrix(np.log(values))
        perm = math.exp(estimate_perm_exact(matrix))
        assert cond_mean == pytest.approx(perm, rel=1e-12, abs=1e-12)
        assert cond_second >= cond_mean**2 - 1e-12


# ------------------------------------------------------------------ reports


def test_moment_report_pinned():
    measure, potentials = D1
    report = moment_report(measure, potentials, n_particles=2)
    assert report.block_size == 1
    assert report.mean_product == pytest.approx(0.25)
    assert report.second_moment_simple == pytest.approx(4.0)
    assert report.second_moment_perm == pytest.approx(2.0)
    assert report.second_moment_recycle == pytest.approx(2.0)
    assert report.factor_relvars == pytest.approx([1.0, 1.0])


def test_moment_report_derives_the_block_size():
    measure, potentials = D1
    # Two factors over three particles: the block rule does not divide.
    report = moment_report(measure, potentials, n_particles=3)
    assert report.block_size is None
    assert report.second_moment_simple is None
    # Over four, blocks of two: prod_p (1 + c_p / 2) with c_p = 1.
    report = moment_report(measure, potentials, n_particles=4)
    assert report.block_size == 2
    assert report.second_moment_simple == pytest.approx(1.5**2)


def test_moment_report_validation():
    with pytest.raises(ValueError):
        MomentReport(
            n_factors=1, n_particles=2, block_size=None, mean_product=1.0,
            second_moment_simple=None, second_moment_perm=0.5,
            second_moment_recycle=0.6, factor_relvars=(0.0,),
        )
    with pytest.raises(ValueError):
        MomentReport(
            n_factors=1, n_particles=2, block_size=None, mean_product=1.0,
            second_moment_simple=None, second_moment_perm=3.0,
            second_moment_recycle=2.0, factor_relvars=(1.0,),
        )


# ------------------------------------------------------------- latent side


def test_observation_marginal_pinned():
    lvm = D4
    assert observation_marginal(lvm) == pytest.approx([0.5, 0.5], abs=1e-15)


def test_induced_potentials_are_kernel_columns():
    lvm = D4
    potentials = induced_potentials(lvm, (0, 1, 0))
    assert potentials.values == pytest.approx(
        np.array([[0.75, 0.25], [0.25, 0.75], [0.75, 0.25]])
    )


def test_expected_factor_relvar_pinned():
    assert expected_factor_relvar(D4) == pytest.approx(0.25, abs=1e-15)


def test_latent_second_moment_pinned():
    enumerated, closed, constant = latent_expected_second_moment(D4, 1, 2)
    assert constant == pytest.approx(0.25, abs=1e-14)
    assert closed == pytest.approx(1.125, abs=1e-14)
    assert enumerated == pytest.approx(1.125, rel=1e-12)


def test_latent_second_moment_two_observations():
    enumerated, closed, _ = latent_expected_second_moment(D4, 2, 4)
    assert closed == pytest.approx((1 + 0.25 / 4) * (1 + 0.25 / 3), rel=1e-14)
    assert enumerated == pytest.approx(closed, rel=1e-12)


def test_latent_second_moment_random_models():
    rng = np.random.default_rng(11)
    for _ in range(10):
        lvm = random_lvm(rng)
        n_obs = int(rng.integers(1, 3))
        n_particles = int(rng.integers(n_obs, 5))
        enumerated, closed, _ = latent_expected_second_moment(lvm, n_obs, n_particles)
        assert enumerated == pytest.approx(closed, rel=1e-11)


def test_latent_simple_second_moment_matches_enumeration():
    lvm = D4
    closed = latent_expected_second_moment_simple(lvm, 2, 2)
    assert closed == pytest.approx(1.265625, abs=1e-14)
    # Independent observations let the average factorize; enumerate to check.
    marginal = observation_marginal(lvm)
    total = 0.0
    for y0 in range(2):
        for y1 in range(2):
            potentials = induced_potentials(lvm, (y0, y1))
            weight = marginal[y0] * marginal[y1]
            total += weight * second_moment_simple_exact(
                lvm.measure, potentials, 2
            )
    assert total == pytest.approx(closed, rel=1e-12)


def test_latent_simple_second_moment_past_largest_double_is_inf():
    assert latent_expected_second_moment_simple(D4, 3000, 1) == 1.25**3000
    assert latent_expected_second_moment_simple(D4, 10_000, 1) == math.inf


def test_lvm_validation():
    with pytest.raises(ValueError):
        DiscreteLVM(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DiscreteLVM(np.array([0.7, 0.7]), np.array([[0.5, 0.5], [0.5, 0.5]]))
