import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from prodest import models
from prodest.estimators import DimensionError, LogEstimate, PotentialMatrix, estimate_simple
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
    potentials = model.log_potentials(data)
    assert potentials(np.zeros(7)).shape == (5, 7)
    # A latent draw equal to the observation sits inside its own interval.
    assert potentials(np.array([data[2]]))[2, 0] == 0.0


# -------------------------------------------------------------- Poisson-Beta


def test_poisson_beta_mean():
    params = PoissonBetaParams(50.0, 2.0, 8.0)
    draws = sample_poisson_beta(params, make_stream(12), size=20000)
    expected = 50.0 * 2.0 / 10.0
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - expected) < 3 * se


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
    potentials = model.log_potentials(data)
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


# -------------------------------------------------------------------- priors


def test_uniform_prior():
    prior = UniformPrior(0.0, 10.0)
    assert prior.log_density(5.0) == pytest.approx(math.log(0.1))
    assert prior.log_density(0.0) == -math.inf
    assert prior.log_density(10.0) == -math.inf
    draws = np.array([prior.sample(make_stream(15, i)) for i in range(200)])
    assert ((draws > 0.0) & (draws < 10.0)).all()


def test_exponential_prior():
    prior = ExponentialPrior(10.0)
    assert prior.log_density(3.0) == pytest.approx(-0.3 - math.log(10.0))
    assert prior.log_density(0.0) == -math.inf
    assert prior.log_density(-1.0) == -math.inf
    stream = make_stream(16)
    draws = np.array([prior.sample(stream) for _ in range(4000)])
    assert (draws > 0).all()
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 10.0) < 3 * se


def test_prior_spec_composition():
    prior = PriorSpec((UniformPrior(0.0, 1.0), ExponentialPrior(2.0)))
    assert prior.dim == 2
    theta = np.array([0.5, 2.0])
    assert prior.log_density(theta) == pytest.approx(
        math.log(1.0) + (-1.0 - math.log(2.0))
    )
    assert prior.log_density(np.array([2.0, 1.0])) == -math.inf
    sample = prior.sample(make_stream(17))
    assert sample.shape == (2,)


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
    potentials = model.log_potentials(np.array([1, 0]))
    matrix = potentials(np.array([0, 1]))
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
        model.log_potentials(symbols)
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
        model.log_potentials([1.0, 0.0])(latents),
        model.log_potentials(np.array([1, 0]))(latents),
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
        matrix = model.log_potentials(data)(latents)
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
    # A steady-state estimate holds the (n_obs, n_particles) potential
    # matrix once: no defensive copy and no matrix-sized temporaries.
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
    log_potential_matrix = model.log_potentials(data)
    tracemalloc.start()
    try:
        matrix = PotentialMatrix.adopt(log_potential_matrix(values), columns)
        estimate_simple(matrix, n_particles // 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_particles * 8 + 50 * values.size * 8


class _FixedLatents:
    """Integer latents given in advance; records the values its potentials are evaluated on."""

    def __init__(self, latents):
        self.latents = latents
        self.evaluated = []

    def sample_latent(self, theta, rng, size=None):
        return self.latents

    def log_potentials(self, data):
        def matrix(values):
            self.evaluated.append(values)
            return np.zeros((len(data), values.size))

        return matrix


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
        models, "estimate_biased", lambda matrix: seen.append(matrix) or LogEstimate(0.0)
    )
    model = _FixedLatents(latents)
    log_likelihood_estimator(model, np.zeros(3), "biased", latents.size)(None, None)
    values, columns = np.unique(latents, return_inverse=True)
    (evaluated,) = model.evaluated
    assert evaluated.dtype == values.dtype and np.array_equal(evaluated, values)
    assert np.array_equal(seen[0].columns, columns)

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
