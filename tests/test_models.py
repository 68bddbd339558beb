import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from prodest import models
from prodest.estimators import (
    DimensionError,
    PotentialMatrix,
    estimate_biased,
    estimate_perm_exact,
    estimate_recycle,
    estimate_simple,
)
from prodest.models import (
    ExponentialPrior,
    GandKModel,
    GandKParams,
    PoissonBetaModel,
    PoissonBetaParams,
    PriorSpec,
    TwoStateLatentModel,
    UniformPrior,
    gandk_quantile_transform,
    gandk_simulate_data,
    interval_log_potential,
    log_likelihood_estimator,
    normal_log_potential,
    sample_poisson_beta,
)
from prodest.fixtures import DiscreteFixtureModel, get_fixture
from prodest.oracle import (
    DiscreteLVM,
    estimator_distribution_exact,
    induced_potentials,
    mean_product,
)
from prodest.rng import make_stream

from oracle_support import recycle_conditional_moments

THETA_GK = GandKParams(3.0, 1.0, 2.0, 0.5)


# ------------------------------------------------------------------- g-and-k


def test_gandk_transform_pinned():
    assert gandk_quantile_transform(1.0, THETA_GK) == pytest.approx(
        5.275858989874481, abs=1e-14
    )
    assert gandk_quantile_transform(-0.7, THETA_GK) == pytest.approx(
        2.558667044387969, abs=1e-14
    )
    # g = 0 kills the skew term: a + b * (1 + z^2)^k * z has a closed value.
    symmetric = GandKParams(3.0, 1.0, 0.0, 0.5)
    assert gandk_quantile_transform(2.0, symmetric) == pytest.approx(
        3.0 + 2.0 * math.sqrt(5.0), abs=1e-13
    )


def test_gandk_transform_center_and_types():
    assert gandk_quantile_transform(0.0, THETA_GK) == 3.0
    out = gandk_quantile_transform(np.array([0.0, 1.0]), THETA_GK)
    assert out.shape == (2,)
    assert isinstance(gandk_quantile_transform(1.0, THETA_GK), float)


def test_gandk_transform_monotone():
    grid = np.linspace(-6.0, 6.0, 400)
    values = gandk_quantile_transform(grid, THETA_GK)
    assert (np.diff(values) > 0).all()


def test_gandk_transform_extreme_skew_stays_finite():
    params = GandKParams(0.0, 1.0, 50.0, 0.2)
    values = gandk_quantile_transform(np.array([-40.0, 40.0]), params)
    assert np.isfinite(values).all()


def test_gandk_params_validation():
    with pytest.raises(ValueError):
        GandKParams(0.0, 0.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "theta",
    [
        (3.0, 1.0, 2.0, math.nan),
        (math.inf, 1.0, 2.0, 0.5),
        (3.0, 1.0, -math.inf, 0.5),
        (3.0, 1.0, 2.0, 1e300),  # (1 + z**2)**k overflows
        (3.0, 1e-300, 2.0, 200.0),  # (1 + z**2)**k overflows before the product is small
        (3.0, 1e306, 2.0, 0.5),  # b * skew * (1 + z**2)**k * z overflows
        (3.0, 1.0, 1e308, 0.5),  # g * z overflows
        (1.7e308, 1.0, 2.0, 0.5),
    ],
)
def test_gandk_params_reject_a_transform_past_the_double_range(theta):
    with pytest.raises(ValueError, match="finite|double range"):
        GandKParams(*theta)


@pytest.mark.parametrize(
    "theta",
    [(3.0, 1.0, 2.0, 0.5), (1e300, 1.0, 1e300, -1e300), (3.0, 1e-300, 2.0, 95.0), (-3.0, 1e200, -2.0, 10.0)],
)
def test_gandk_params_accepted_stay_finite_without_warnings(theta):
    z = np.array([-40.0, -13.7, -1.0, 0.0, 1e-300, 1.0, 13.7, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = gandk_quantile_transform(z, GandKParams(*theta))
    assert np.isfinite(values).all()


def test_gandk_simulate_matches_recipe():
    stream = make_stream(31, 2)
    data = gandk_simulate_data(THETA_GK, 50, 0.2, stream)
    replay = make_stream(31, 2)
    x = gandk_quantile_transform(replay.standard_normal(50), THETA_GK)
    u = replay.uniform(-0.2, 0.2, size=50)
    assert data == pytest.approx(x + 0.2 * u, abs=0.0)


def test_gandk_simulate_unit_noise_half_width():
    stream = make_stream(31, 2)
    data = gandk_simulate_data(THETA_GK, 2000, 0.2, stream, unit_noise=True)
    replay = make_stream(31, 2)
    x = gandk_quantile_transform(replay.standard_normal(2000), THETA_GK)
    gaps = np.abs(data - x)
    assert gaps.max() < 0.2
    assert gaps.max() > 0.04  # default convention would cap at 0.2**2


def test_interval_potential_open_boundaries():
    assert interval_log_potential(1.0, 1.0, 0.5) == 0.0
    assert interval_log_potential(1.49, 1.0, 0.5) == 0.0
    assert interval_log_potential(1.5, 1.0, 0.5) == -math.inf
    assert interval_log_potential(0.5, 1.0, 0.5) == -math.inf
    vec = interval_log_potential(np.array([0.9, 2.0]), 1.0, 0.5)
    assert vec[0] == 0.0 and vec[1] == -math.inf


def test_gandk_model_pieces():
    model = GandKModel()
    assert model.param_names == ("a", "b", "g", "k")
    assert model.theta_dim == 4
    prior = model.default_prior()
    assert prior.dim == 4
    assert prior.log_density(np.array([3.0, 1.0, 2.0, 0.5])) == pytest.approx(
        4 * math.log(0.1)
    )
    assert prior.log_density(np.array([3.0, -1.0, 2.0, 0.5])) == -math.inf
    data = model.simulate(np.array([3.0, 1.0, 2.0, 0.5]), 5, make_stream(0))
    keys, potentials = model.bind(data)
    assert potentials(keys(np.zeros(7))).shape == (5, 7)
    # A latent draw equal to the observation sits inside its own interval.
    assert potentials(keys(np.array([data[2]])))[2, 0] == 0.0


# -------------------------------------------------------------- Poisson-Beta


def test_poisson_beta_mean():
    params = PoissonBetaParams(50.0, 2.0, 8.0)
    draws = sample_poisson_beta(params, make_stream(12), size=20000)
    expected = 50.0 * 2.0 / 10.0
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - expected) < 3 * se


@pytest.mark.parametrize(
    "theta, message",
    [
        ((1e300, 2.0, 8.0), "rate must be at most"),
        ((2.0**62 * 1.01, 2.0, 8.0), "rate must be at most"),
        ((math.inf, 2.0, 8.0), "rate must be at most"),
        ((math.nan, 2.0, 8.0), "rate must be positive"),
        ((1e10, 1e300, 2.0), "double range"),  # rate * on overflows
        ((1.0, 1.7e308, 1e308), "double range"),  # on + off overflows
    ],
)
def test_poisson_beta_params_reject_draws_past_numpy_range(theta, message):
    with pytest.raises(ValueError, match=message):
        PoissonBetaParams(*theta)


@pytest.mark.parametrize(
    "theta", [(2.0**62, 2.0, 8.0), (1000.0, 1e300, 1e300), (1e-300, 8.0, 2.0), (50.0, 1e-300, 3.0)]
)
def test_poisson_beta_accepted_params_draw_without_warnings(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_poisson_beta(PoissonBetaParams(*theta), make_stream(14), size=2000)
    assert draws.min() >= 0


def test_poisson_beta_with_vanishing_gamma_draws_is_near_bernoulli():
    # With both shapes 1e-300 both gamma draws underflow to zero, and the
    # Beta variable is near 0 or 1 with probability 1/2 each.
    params = PoissonBetaParams(1000.0, 1e-300, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_poisson_beta(params, make_stream(15), size=4000)
    high = np.mean(draws > 500)
    assert np.mean((draws == 0) | (draws > 500)) == 1.0
    assert abs(high - 0.5) < 4 * math.sqrt(0.25 / draws.size)


def test_poisson_beta_draw_holds_two_float_arrays():
    # The Poisson mean is formed in place in the two gamma arrays, so the
    # draw holds two N-float arrays besides its output, not four.
    params = PoissonBetaParams(500.0, 2.0, 8.0)
    n_particles = 204_800
    tracemalloc.start()
    try:
        draws = sample_poisson_beta(params, make_stream(13), size=n_particles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_particles * 8 + draws.nbytes


def test_poisson_beta_pmf_goodness_of_fit():
    params = PoissonBetaParams(5.0, 2.0, 8.0)
    draws = sample_poisson_beta(params, make_stream(13), size=20000)

    def pmf(count):
        def integrand(s):
            return stats.poisson.pmf(count, 5.0 * s) * stats.beta.pdf(s, 2.0, 8.0)

        value, _ = integrate.quad(integrand, 0.0, 1.0)
        return value

    cut = 6
    probs = np.array([pmf(k) for k in range(cut)])
    observed = np.array([(draws == k).sum() for k in range(cut)])
    observed = np.append(observed, (draws >= cut).sum())
    expected = np.append(probs, 1.0 - probs.sum()) * draws.size
    result = stats.chisquare(observed, f_exp=expected)
    assert result.pvalue > 1e-3


def test_poisson_beta_model_noise_and_potentials():
    model = PoissonBetaModel(sigma=5.0)
    theta = np.array([500.0, 2.0, 8.0])
    data = model.simulate(theta, 2000, make_stream(14))
    assert not np.allclose(data, np.round(data))  # additive noise is real-valued
    _, potentials = model.bind(data)
    # Gaussian form: exact at the center, quadratic decay in units of sigma.
    center = data[0]
    at_center, off = potentials(np.array([center, center + 5.0]))[0]
    assert at_center == pytest.approx(normal_log_potential(center, center, 5.0))
    assert off - at_center == pytest.approx(-0.5)


def test_normal_potential_values():
    assert normal_log_potential(2.0, 2.0, 3.0) == pytest.approx(
        -math.log(3.0 * math.sqrt(2.0 * math.pi))
    )
    grid = np.linspace(-40.0, 44.0, 20001)
    density = np.exp(normal_log_potential(grid, 2.0, 3.0))
    assert np.trapezoid(density, grid) == pytest.approx(1.0, rel=1e-10)


def test_normal_potential_below_the_double_range_is_minus_inf():
    # The squared distance is finite, its quotient by 2 sigma**2 is not: the
    # log density lies below the most negative double.  No warning is raised.
    assert normal_log_potential(1e10, 0.0, 1e-150) == -math.inf
    # A Poisson-Beta observation may lie 1e154 from zero, where the squared
    # distance to any count stays finite, and no further.
    _, potentials = PoissonBetaModel().bind([-1e154, 3.0])
    far = potentials(np.array([0, 2**62]))
    assert np.isfinite(far).all()
    with pytest.raises(ValueError, match="within"):
        PoissonBetaModel().bind([1.0, 1e300])


# -------------------------------------------------------------------- priors


def test_uniform_prior():
    prior = UniformPrior(0.0, 10.0)
    assert prior.log_density(5.0) == pytest.approx(math.log(0.1))
    assert prior.log_density(0.0) == -math.inf
    assert prior.log_density(10.0) == -math.inf


def test_exponential_prior():
    prior = ExponentialPrior(10.0)
    assert prior.log_density(3.0) == pytest.approx(-0.3 - math.log(10.0))
    assert prior.log_density(0.0) == -math.inf
    assert prior.log_density(-1.0) == -math.inf


def test_prior_spec_composition():
    prior = PriorSpec((UniformPrior(0.0, 1.0), ExponentialPrior(2.0)))
    assert prior.dim == 2
    theta = np.array([0.5, 2.0])
    assert prior.log_density(theta) == pytest.approx(
        math.log(1.0) + (-1.0 - math.log(2.0))
    )
    assert prior.log_density(np.array([2.0, 1.0])) == -math.inf


# Each takes a theta of shape (dim,); a two-state theta may also be a scalar.
_THETA_TAKERS = {
    "gandk-params": lambda theta: GandKModel().params(theta),
    "poisson-beta-params": lambda theta: PoissonBetaModel().params(theta),
    "two-state-weight": lambda theta: TwoStateLatentModel().sample_latent(
        theta, make_stream(0), 3
    ),
    "prior-log-density": lambda theta: GandKModel().default_prior().log_density(theta),
}


@pytest.mark.parametrize("shape", [(0,), (5,), (1, 1), (2, 2)], ids=str)
@pytest.mark.parametrize("taker", sorted(_THETA_TAKERS))
def test_theta_of_the_wrong_shape_is_rejected(taker, shape):
    with pytest.raises(DimensionError, match=r"theta must have shape \(\d,\), got "):
        _THETA_TAKERS[taker](np.full(shape, 0.5))


def test_two_state_takes_a_scalar_theta():
    draws = TwoStateLatentModel().sample_latent(0.5, make_stream(0), 8)
    assert np.array_equal(
        draws, TwoStateLatentModel().sample_latent(np.array([0.5]), make_stream(0), 8)
    )


# ----------------------------------------------------------------- two-state


def test_two_state_exact_likelihood_manual():
    model = TwoStateLatentModel()
    theta = np.array([0.3])
    data = np.array([0, 1, 0])
    mix0 = 0.7 * 0.75 + 0.3 * 0.25
    mix1 = 0.7 * 0.25 + 0.3 * 0.75
    manual = math.log(mix0) * 2 + math.log(mix1)
    assert model.exact_log_likelihood(theta, data) == pytest.approx(manual)


def test_two_state_matches_oracle_target():
    model = TwoStateLatentModel()
    theta = np.array([0.3])
    data = (0, 1, 0)
    lvm = DiscreteLVM(np.array([0.7, 0.3]), model.kernel)
    potentials = induced_potentials(lvm, data)
    assert model.exact_log_likelihood(theta, np.array(data)) == pytest.approx(
        math.log(mean_product(lvm.measure, potentials))
    )


def test_two_state_potentials_follow_kernel_columns():
    model = TwoStateLatentModel()
    keys, potentials = model.bind(np.array([1, 0]))
    matrix = potentials(keys(np.array([0, 1])))
    assert matrix[0] == pytest.approx(np.log([0.25, 0.75]))
    assert matrix[1] == pytest.approx(np.log([0.75, 0.25]))


def test_two_state_simulate_distribution():
    model = TwoStateLatentModel()
    data = model.simulate(np.array([0.0]), 5000, make_stream(18))
    # weight 0 pins the latent state, so symbol 1 appears with rate 0.25.
    rate = data.mean()
    assert abs(rate - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 5000)


def test_two_state_weight_validation():
    model = TwoStateLatentModel()
    with pytest.raises(ValueError):
        model.exact_log_likelihood(np.array([1.5]), np.array([0]))


@pytest.mark.parametrize("symbols", [[0.7, -1, 1.9], [0, 1, 2], [1, -1], [0.5]])
def test_two_state_rejects_non_symbol_observations(symbols):
    model = TwoStateLatentModel()
    with pytest.raises(ValueError, match="integer symbols in \\[0, 2\\)"):
        model.bind(symbols)
    with pytest.raises(ValueError, match="integer symbols in \\[0, 2\\)"):
        model.exact_log_likelihood(np.array([0.5]), symbols)


def test_two_state_accepts_integral_float_symbols():
    model = TwoStateLatentModel()
    theta = np.array([0.3])
    assert model.exact_log_likelihood(theta, [1.0, 0.0]) == model.exact_log_likelihood(
        theta, np.array([1, 0])
    )
    latents = np.array([0, 1, 1])
    assert np.array_equal(
        model.bind([1.0, 0.0])[1](latents), model.bind(np.array([1, 0]))[1](latents)
    )


# -------------------------------------------------------- estimator plumbing


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "model",
    [GandKModel(), PoissonBetaModel(), TwoStateLatentModel()],
    ids=["gandk", "poisson-beta", "two-state"],
)
def test_log_potentials_reject_non_finite_observations(model, bad):
    data = np.array([1.0, bad, 0.0])
    with pytest.raises(ValueError, match="observations must be finite"):
        log_likelihood_estimator(model, data, "recycle", 30)


def test_log_potentials_broadcast_matches_scalar_potentials():
    # Each model evaluates all observations in one broadcast; row p must
    # equal, bit for bit, its potential evaluated on observation p alone.
    rng = make_stream(21)
    gandk = GandKModel(half_width=0.3)
    gandk_theta = np.array([3.0, 1.0, 2.0, 0.5])
    gandk_data = gandk.simulate(gandk_theta, 6, rng)
    poisson = PoissonBetaModel(sigma=5.0)
    poisson_theta = np.array([50.0, 2.0, 8.0])
    two_state = TwoStateLatentModel()
    fixture = DiscreteFixtureModel(*get_fixture("d3").build())
    with np.errstate(divide="ignore"):
        two_state_logs = np.log(two_state.kernel)
        fixture_logs = np.log(fixture.potentials.values)
    cases = [
        (gandk, gandk_theta, gandk_data,
         lambda x, y: interval_log_potential(x, y, 0.3)),
        (poisson, poisson_theta, poisson.simulate(poisson_theta, 6, rng),
         lambda x, y: normal_log_potential(x, y, 5.0)),
        (two_state, np.array([0.3]), np.array([1, 0, 0, 1]),
         lambda x, y: two_state_logs[x, y]),
        (fixture, np.zeros(0), fixture.factor_indices,
         lambda x, y: fixture_logs[y, x]),
    ]
    for model, theta, data, scalar in cases:
        latents = model.sample_latent(theta, rng, size=25)
        keys, log_potentials = model.bind(data)
        matrix = log_potentials(keys(latents))
        assert matrix.shape == (len(data), 25)
        for p, y in enumerate(data):
            row = np.array([scalar(x, y) for x in latents], dtype=float)
            assert np.array_equal(matrix[p], row)


def test_log_likelihood_estimator_validation():
    model = TwoStateLatentModel()
    data = np.array([0, 1])
    with pytest.raises(ValueError):
        log_likelihood_estimator(model, data, "magic", 4)
    with pytest.raises(DimensionError):
        log_likelihood_estimator(model, data, "simple", 3)(
            np.array([0.5]), make_stream(0)
        )


def test_log_likelihood_estimator_empty_data_is_unit():
    model = TwoStateLatentModel()
    estimate = log_likelihood_estimator(model, np.array([]), "recycle", 4)
    assert estimate(np.array([0.5]), make_stream(0)) == 0.0


def test_recycle_estimate_peak_memory_is_one_matrix():
    # A steady-state estimate holds no (n_obs, n_particles) array: the
    # matrix, its copy and the kernel's arrays are (n_obs, n_columns).
    model = PoissonBetaModel(sigma=5.0)
    theta = np.array([500.0, 2.0, 8.0])
    data = model.simulate(theta, 50, make_stream(31))
    estimate = log_likelihood_estimator(model, data, "recycle", 6400)
    rng = make_stream(32)
    estimate(theta, rng)
    tracemalloc.start()
    try:
        estimate(theta, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 50 * 6400 * 8



def test_simple_estimate_reads_the_compressed_matrix():
    # Poisson-Beta latents at n = 50, N = 204,800 take about 400 distinct
    # values.  Building the potential matrix from them and running the
    # simple estimator must not expand it to (n_obs, n_particles), which
    # would take 82 MB.
    model = PoissonBetaModel(sigma=5.0)
    theta = np.array([500.0, 2.0, 8.0])
    data = model.simulate(theta, 50, make_stream(33))
    n_particles = 204_800
    latents = model.sample_latent(theta, make_stream(34), size=n_particles)
    values, columns = np.unique(latents, return_inverse=True)
    _, log_potential_matrix = model.bind(data)
    tracemalloc.start()
    try:
        matrix = PotentialMatrix(log_potential_matrix(values), columns)
        estimate_simple(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_particles * 8 + 50 * values.size * 8


def _interval_ends():
    """Observation centres with repeats and their ends, and latents on and off the ends."""
    centers = st.lists(
        st.sampled_from([-1.0, -0.3, 0.0, 0.1, 0.25, 0.5, 2.0]), min_size=1, max_size=6
    )
    half_widths = st.sampled_from([0.05, 0.1, 0.25, 0.3, 1.0])
    return st.tuples(centers, half_widths, st.data())


@given(_interval_ends())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gandk_equal_keys_give_equal_potential_columns(case):
    centers, half_width, data = case
    model = GandKModel(half_width)
    ends = np.concatenate(
        [np.asarray(centers) - half_width, np.asarray(centers) + half_width]
    )
    # Latents on every end, one double to either side of it, and in between.
    near = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    between = data.draw(st.lists(st.floats(-2.0, 3.0), max_size=20))
    latents = np.concatenate([near, between, near, [-np.inf, np.inf]])
    latent_keys, log_potentials = model.bind(centers)
    keys = latent_keys(latents)
    columns = interval_log_potential(latents[None, :], np.asarray(centers)[:, None], half_width)
    assert np.array_equal(log_potentials(keys), columns)
    distinct, first = np.unique(keys, return_index=True)
    assert distinct.size <= 2 * len(centers) + 1
    for key, j in zip(distinct, first):
        assert (columns[:, keys == key] == columns[:, [j]]).all()


@pytest.mark.parametrize("half_width", [0.25, 0.1, 0.3, 1e-3])
def test_gandk_potentials_of_keys_are_the_interval_potentials(half_width):
    # Centres on a grid of h tie ends: 0 + h is 2h - h, and so on; the
    # repeated centres tie both of their ends.
    centers = half_width * np.array([0.0, 2.0, 2.0, 4.0, -2.0, 7.0, 0.0])
    model = GandKModel(half_width)
    ends = np.concatenate([centers - half_width, centers + half_width])
    assert np.unique(ends).size < ends.size - 2
    # Latents on every end, one double to either side of it, at +-inf and
    # at normal draws around the centres.
    near = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    spread = 4.0 * half_width * make_stream(90).standard_normal(20)
    latents = np.concatenate([near, [-np.inf, np.inf], spread])
    expected = interval_log_potential(latents[None, :], centers[:, None], half_width)
    assert (expected == 0.0).any() and (expected == -np.inf).any()
    keys, log_potentials = model.bind(centers)
    assert np.array_equal(log_potentials(keys(latents)), expected)


@pytest.mark.parametrize("n_obs", [1, 2, 3, 16, 20, 32, 80])
def test_gandk_keys_count_the_ends_at_or_below(n_obs):
    # 2n ends fall on, below and above a power of two.  The keys are the
    # searchsorted counts of the nudged ends, for a 1-d and an (R, N) input.
    half_width = 0.2
    theta = GandKParams(3.0, 1.0, 2.0, 0.5)
    rng = make_stream(91, n_obs)
    centers = gandk_simulate_data(theta, n_obs, half_width, rng)
    ends = np.sort(np.concatenate([np.nextafter(centers - half_width, np.inf), centers + half_width]))
    near = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    draws = gandk_quantile_transform(rng.standard_normal(100_000), theta)
    latents = np.concatenate([near, [0.0, -0.0, -np.inf, np.inf], draws])
    keys, _ = GandKModel(half_width).bind(centers)
    expected = ends.searchsorted(latents, "right")
    assert np.array_equal(keys(latents), expected)
    wide = latents[: latents.size // 8 * 8].reshape(8, -1)
    assert np.array_equal(keys(wide), expected[: wide.size].reshape(wide.shape))
    assert keys(np.inf) == 2 * n_obs and keys(-np.inf) == 0


class _FixedGandK(GandKModel):
    """g-and-k potentials on latents given in advance."""

    def __init__(self, half_width, latents):
        super().__init__(half_width)
        self.latents = latents

    def sample_latent(self, theta, rng, size=None):
        return self.latents.reshape(size)


def test_gandk_recycle_on_cells_has_the_oracle_law(monkeypatch):
    # Centres 0, 0 and 0.25 with half-width 0.25: intervals (-0.25, 0.25)
    # twice and (0, 0.5).  Latents on an end lie outside the open intervals
    # that end there: 0 is in the first two only, 0.25 in the last only.
    centers = np.array([0.0, 0.0, 0.25])
    latents = np.array([-0.25, 0.0, 0.25, 0.1, 0.5, -0.1, 0.3, 0.1, 0.4, 0.25])
    model = _FixedGandK(0.25, latents)
    matrices = []
    recycle = models.estimate_recycle
    monkeypatch.setattr(
        models, "estimate_recycle", lambda matrix, rng: matrices.append(matrix) or recycle(matrix, rng)
    )
    estimate = log_likelihood_estimator(model, centers, "recycle", latents.size)
    rng = make_stream(44)
    draws = np.exp([estimate(None, rng) for _ in range(10_000)])
    keys, log_potentials = model.bind(centers)
    full = log_potentials(keys(latents))
    matrix = matrices[0]
    assert matrix.log_values.shape[1] <= 2 * centers.size + 1
    assert np.array_equal(matrix.expanded(), full)
    mean, second = recycle_conditional_moments(np.exp(full))
    for power, exact in ((1, mean), (2, second)):
        moment = draws**power
        se = moment.std(ddof=1) / math.sqrt(draws.size)
        assert abs(moment.mean() - exact) <= 4 * se


class _FixedLatents:
    """Integer latents given in advance, their own keys.

    Records the values its potentials are evaluated on.
    """

    def __init__(self, latents):
        self.latents = latents
        self.evaluated = []

    def sample_latent(self, theta, rng, size=None):
        return self.latents.reshape(size)

    def bind(self, data):
        def matrix(values):
            self.evaluated.append(values)
            return np.zeros((len(data), values.size))

        return np.asarray, matrix


@pytest.mark.parametrize(
    "latents",
    [
        np.random.default_rng(40).integers(-30, 5, size=200),
        np.full(50, -7),
        np.random.default_rng(41).integers(-(10**12), 10**12, size=100),
        np.random.default_rng(42).integers(-128, 128, size=300).astype(np.int8),
        np.random.default_rng(43).integers(0, 2**63, size=100, dtype=np.uint64) * 2,
    ],
    ids=["negative", "single-valued", "wide-range", "int8", "uint64"],
)
def test_estimator_tabulates_distinct_latents_like_unique(latents, monkeypatch):
    # The closure evaluates the potentials on the distinct values and
    # maps each particle to its value's column: both exactly as np.unique.
    seen = []
    monkeypatch.setattr(
        models, "estimate_biased", lambda matrix: seen.append(matrix) or 0.0
    )
    model = _FixedLatents(latents)
    log_likelihood_estimator(model, np.zeros(3), "biased", latents.size)(None, None)
    values, columns = np.unique(latents, return_inverse=True)
    (evaluated,) = model.evaluated
    assert evaluated.dtype == values.dtype and np.array_equal(evaluated, values)
    assert np.array_equal(seen[0].columns, columns)

@pytest.mark.parametrize("size", [None, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_estimator_rejects_a_nan_or_inf_kernel_result(bad, size, monkeypatch):
    # The closure is the one consumer of the kernels, so it checks their result.
    monkeypatch.setattr(models, "estimate_biased", lambda matrix: bad)
    estimate = log_likelihood_estimator(TwoStateLatentModel(), np.array([0, 1]), "biased", 4)
    with pytest.raises(ValueError, match=r"log estimate must be in \[-inf, inf\), got (nan|inf)"):
        estimate(np.array([0.4]), make_stream(1), size)


@pytest.mark.parametrize("kind", ["simple", "recycle", "perm"])
def test_log_likelihood_estimator_unbiased_on_two_state(kind):
    model = TwoStateLatentModel()
    theta = np.array([0.4])
    data = np.array([0, 1, 0])
    exact = model.exact_log_likelihood(theta, data)
    estimate = log_likelihood_estimator(model, data, kind, 3)
    stream = make_stream(19)
    draws = np.exp([estimate(theta, stream) for _ in range(4000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - math.exp(exact)) < 3.5 * se


def test_estimator_moments_match_oracle_distribution():
    # The model route (latent sampling + potential evaluation) and the
    # oracle route (exhaustive enumeration) describe the same estimator.
    model = TwoStateLatentModel()
    theta = np.array([0.4])
    data = (0, 1)
    lvm = DiscreteLVM(np.array([0.6, 0.4]), model.kernel)
    potentials = induced_potentials(lvm, data)
    mean, second = estimator_distribution_exact(lvm.measure, potentials, 2,
                                                kind="recycle")
    estimate = log_likelihood_estimator(model, np.array(data), "recycle", 2)
    stream = make_stream(20)
    draws = np.exp([estimate(theta, stream) for _ in range(6000)])
    mean_se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean) < 3.5 * mean_se
    second_se = (draws**2).std(ddof=1) / math.sqrt(draws.size)
    assert abs((draws**2).mean() - second) < 3.5 * second_se



# ------------------------------------------------------------ replicate axis


def _replicate_problem(name):
    """(model, theta, data) for one model, at four observations."""
    if name == "fixture-d3":
        model = DiscreteFixtureModel(*get_fixture("d3").build())
        return model, np.zeros(0), model.factor_indices
    model, theta = {
        "poisson-beta": (PoissonBetaModel(5.0), np.array([50.0, 2.0, 8.0])),
        "g-and-k": (GandKModel(0.2), np.array([3.0, 1.0, 2.0, 0.5])),
        "two-state": (TwoStateLatentModel(), np.array([0.3])),
    }[name]
    return model, theta, model.simulate(theta, 4, make_stream(70))


def _scalar_reference(model, data, kind, n_particles):
    """The one-replicate closure written out: one draw of n_particles, np.unique, one kernel."""
    latent_keys, log_potential_matrix = model.bind(data)

    def estimate(theta, rng):
        latents = np.asarray(model.sample_latent(theta, rng, size=n_particles))
        values, columns = np.unique(latent_keys(latents), return_inverse=True)
        matrix = PotentialMatrix(log_potential_matrix(values), columns)
        if kind == "recycle":
            return estimate_recycle(matrix, rng)[0]
        if kind == "simple":
            return estimate_simple(matrix)
        if kind == "perm":
            return estimate_perm_exact(matrix)
        return estimate_biased(matrix)

    return estimate


@pytest.mark.parametrize("kind", models.ESTIMATOR_KINDS)
@pytest.mark.parametrize("problem", ["poisson-beta", "g-and-k", "two-state", "fixture-d3"])
def test_one_replicate_calls_give_the_scalar_stream(problem, kind):
    # size=None and size=1 draw exactly as the one-replicate closure did:
    # the same log values and the same generator position after them.
    model, theta, data = _replicate_problem(problem)
    n_particles = 8
    estimate = log_likelihood_estimator(model, data, kind, n_particles)
    reference = _scalar_reference(model, data, kind, n_particles)
    streams = [make_stream(73) for _ in range(3)]
    expected = [reference(theta, streams[0]) for _ in range(10)]
    scalar = [estimate(theta, streams[1]) for _ in range(10)]
    single = []
    for _ in range(10):
        value = estimate(theta, streams[2], 1)
        assert value.shape == (1,)
        single.append(float(value[0]))
    assert scalar == expected and single == expected
    assert isinstance(scalar[0], float)
    positions = {str(stream.bit_generator.state) for stream in streams}
    assert len(positions) == 1


@pytest.mark.parametrize("kind", ["recycle", "simple"])
@pytest.mark.parametrize("name", ["d1", "d3"])
def test_replicate_block_has_the_oracle_law(name, kind):
    # 20,000 replicates at 4 particles run in two passes (16,384 + 3,616);
    # their mean and second moment match the exact ones within 4 SE.
    measure, potentials = get_fixture(name).build()
    model = DiscreteFixtureModel(measure, potentials)
    n_particles, n_replicates = 4, 20_000
    estimate = log_likelihood_estimator(model, model.factor_indices, kind, n_particles)
    draws = np.exp(estimate(np.zeros(0), make_stream(74), n_replicates))
    assert draws.shape == (n_replicates,)
    mean, second = estimator_distribution_exact(measure, potentials, n_particles, kind)
    for power, exact in ((1, mean), (2, second)):
        moment = draws**power
        se = moment.std(ddof=1) / math.sqrt(n_replicates)
        assert abs(moment.mean() - exact) <= 4 * se


@pytest.mark.parametrize(
    "latents",
    [
        np.random.default_rng(75).integers(-128, 128, size=(3, 100)).astype(np.int8),
        np.random.default_rng(76).integers(-128, 128, size=(3, 20)).astype(np.int8),
        np.random.default_rng(77).integers(0, 256, size=(3, 100)).astype(np.uint8),
        np.random.default_rng(78).integers(0, 256, size=(3, 20)).astype(np.uint8),
        np.array([[-(2**62), 2**62, 0, 5], [2**62, 2**62 - 1, -(2**62), 7], [1, 2, 3, 1]]),
        np.random.default_rng(79).integers(0, 2**63, size=(3, 30), dtype=np.uint64),
    ],
    ids=["int8-table", "int8-sort", "uint8-table", "uint8-sort", "int64-wide", "uint64"],
)
def test_replicate_block_tabulates_each_row_like_unique(latents, monkeypatch):
    # Three replicates in one pass: the potentials are evaluated on each
    # row's distinct values, one row after another, and each replicate's
    # matrix maps its particles to its own columns, as np.unique does.
    seen = []
    monkeypatch.setattr(
        models, "estimate_biased", lambda matrix: seen.append(matrix) or 0.0
    )
    model = _FixedLatents(latents)
    estimate = log_likelihood_estimator(model, np.zeros(3), "biased", latents.shape[1])
    logs = estimate(None, None, 3)
    assert logs.tolist() == [0.0, 0.0, 0.0]
    (evaluated,) = model.evaluated
    uniques = [np.unique(row, return_inverse=True) for row in latents]
    assert evaluated.dtype == latents.dtype
    assert np.array_equal(evaluated, np.concatenate([values for values, _ in uniques]))
    for matrix, (values, columns) in zip(seen, uniques):
        assert matrix.log_values.shape[1] == values.size
        assert np.array_equal(matrix.columns, columns)


@pytest.mark.parametrize("rate", [500.0, 2.0**62], ids=["rate-500", "rate-2^62"])
def test_poisson_beta_replicate_block_matches_unique_per_row(rate, monkeypatch):
    # At rate 2**62 the counts spread over about 2**62, so three rows at
    # one offset each would pass the intp range; each row is sorted alone.
    seen = []
    monkeypatch.setattr(
        models, "estimate_biased", lambda matrix: seen.append(matrix) or 0.0
    )
    model, theta = PoissonBetaModel(5.0), np.array([rate, 2.0, 8.0])
    data = np.array([0.0, 3.0, 1e6])
    log_likelihood_estimator(model, data, "biased", 50)(theta, make_stream(80), 3)
    latents = model.sample_latent(theta, make_stream(80), size=(3, 50))
    assert rate < 1e3 or latents.max() - latents.min() > 2**58
    _, log_potential_matrix = model.bind(data)
    assert len(seen) == 3
    for matrix, row in zip(seen, latents):
        values, columns = np.unique(row, return_inverse=True)
        assert np.array_equal(matrix.columns, columns)
        assert np.array_equal(matrix.log_values, log_potential_matrix(values))


def test_gandk_replicate_block_keeps_each_replicates_columns(monkeypatch):
    # Cell keys of several replicates share one potential call; each
    # replicate's matrix still expands to its own latents' potentials.
    seen = []
    monkeypatch.setattr(
        models, "estimate_biased", lambda matrix: seen.append(matrix) or 0.0
    )
    model, theta = GandKModel(0.2), np.array([3.0, 1.0, 2.0, 0.5])
    data = model.simulate(theta, 20, make_stream(81))
    log_likelihood_estimator(model, data, "biased", 640)(theta, make_stream(82), 5)
    latents = model.sample_latent(theta, make_stream(82), size=(5, 640))
    latent_keys, log_potential_matrix = model.bind(data)
    assert len(seen) == 5
    for matrix, row in zip(seen, latents):
        assert matrix.log_values.shape[1] <= 2 * data.size + 1
        assert np.array_equal(matrix.expanded(), log_potential_matrix(latent_keys(row)))


def test_replicate_memory_is_one_pass():
    # 1,000 replicates at 6,400 particles would hold 6.4 million latents,
    # 51 MB as int64.  The closure runs passes of 10 replicates (64,000
    # particles), so its peak is one pass's: latents, columns and the
    # pass's potentials at about 320 columns a replicate, with the
    # temporaries of their evaluation; 4.3 MB when this was written.
    model = PoissonBetaModel(sigma=5.0)
    theta = np.array([500.0, 2.0, 8.0])
    data = model.simulate(theta, 50, make_stream(83))
    n_particles, n_replicates = 6400, 1000
    estimate = log_likelihood_estimator(model, data, "simple", n_particles)
    pass_particles = (2**16 // n_particles) * n_particles
    tracemalloc.start()
    try:
        logs = estimate(theta, make_stream(84), n_replicates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logs.shape == (n_replicates,) and np.isfinite(logs).all()
    assert peak < 12 * pass_particles * 8


@pytest.mark.parametrize("n_obs", [0, 2])
def test_estimator_size_follows_numpy(n_obs):
    # None gives a float, R an array of R, 0 an empty array; a negative
    # size is an error, as in numpy.
    model, theta = TwoStateLatentModel(), np.array([0.5])
    estimate = log_likelihood_estimator(model, np.zeros(n_obs), "recycle", 5)
    assert isinstance(estimate(theta, make_stream(85)), float)
    assert estimate(theta, make_stream(85), 3).shape == (3,)
    assert estimate(theta, make_stream(85), 0).shape == (0,)
    with pytest.raises(ValueError):
        estimate(theta, make_stream(85), -1)
