import math

import numpy as np
import pytest

from prodest.estimators import EstimatorFailure
from prodest.mcmc import (
    _MAX_INIT_TRIES,
    ChainConfig,
    ChainState,
    InitializationError,
    ParticleCountError,
    ProposalSpec,
    acceptance_probability,
    check_pilot_length,
    ess_batch_means,
    initial_proposal,
    pseudo_marginal_step,
    relative_variance_of_logs,
    run_chain,
    tune_particle_count,
    tune_proposal,
)
from prodest.models import (
    PriorSpec,
    TwoStateLatentModel,
    UniformPrior,
    log_likelihood_estimator,
)
from prodest.rng import make_stream

from conftest import batch_mean_se, relvar_and_se, run_grid_toy


def flat_chain_config(length, seed, estimator, **overrides):
    """Uniform(0, 1) single-parameter chain around a supplied estimator."""
    model = TwoStateLatentModel()
    defaults = dict(
        model=model,
        data=np.array([0, 1, 0]),
        prior=PriorSpec((UniformPrior(0.0, 1.0),)),
        proposal=ProposalSpec.from_covariance(np.array([[0.01]])),
        length=length,
        seed=seed,
        estimator=estimator,
        theta_init=np.array([0.5]),
    )
    defaults.update(overrides)
    return ChainConfig(**defaults)


class CountingEstimator:
    def __init__(self, value=0.0):
        self.calls = 0
        self.value = value

    def __call__(self, theta, rng):
        self.calls += 1
        return self.value


# -------------------------------------------------------------- step pieces


def test_acceptance_probability_values():
    assert acceptance_probability(0.0) == 1.0
    assert acceptance_probability(3.0) == 1.0
    assert acceptance_probability(-math.log(2.0)) == pytest.approx(0.5)
    assert acceptance_probability(-math.inf) == 0.0
    with pytest.raises(ValueError):
        acceptance_probability(math.nan)


def test_chain_state_validation():
    state = ChainState(np.array([1.0]), log_like=-2.0, log_prior=0.0)
    with pytest.raises(ValueError):
        state.theta[0] = 3.0
    with pytest.raises(ValueError):
        ChainState(np.array([1.0]), log_like=math.nan, log_prior=0.0)


def test_prior_rejection_spends_no_estimate():
    estimator = CountingEstimator()
    state = ChainState(np.array([0.5]), log_like=0.0, log_prior=0.0)
    proposal = ProposalSpec.from_covariance(np.array([[1.0]]))
    rng = make_stream(1)
    for _ in range(50):
        next_state, accepted = pseudo_marginal_step(
            state, proposal, lambda theta: -math.inf, estimator, rng
        )
        assert not accepted
        assert next_state is state
    assert estimator.calls == 0


def test_step_always_accepts_uphill():
    state = ChainState(np.array([0.5]), log_like=-10.0, log_prior=0.0)
    proposal = ProposalSpec.from_covariance(np.array([[0.01]]))
    rng = make_stream(2)
    next_state, accepted = pseudo_marginal_step(
        state, proposal, lambda theta: 0.0, lambda theta, r: -1.0, rng
    )
    assert accepted
    assert next_state.log_like == -1.0


def test_step_never_accepts_zero_estimate():
    state = ChainState(np.array([0.5]), log_like=-1.0, log_prior=0.0)
    proposal = ProposalSpec.from_covariance(np.array([[0.01]]))
    rng = make_stream(3)
    for _ in range(20):
        _, accepted = pseudo_marginal_step(
            state, proposal, lambda theta: 0.0, lambda theta, r: -math.inf, rng
        )
        assert not accepted


def test_step_rejects_nan_estimate():
    state = ChainState(np.array([0.5]), log_like=-1.0, log_prior=0.0)
    proposal = ProposalSpec.from_covariance(np.array([[0.01]]))
    with pytest.raises(EstimatorFailure):
        pseudo_marginal_step(
            state, proposal, lambda theta: 0.0,
            lambda theta, r: math.nan, make_stream(4),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at_step", [False, True])
def test_run_chain_rejects_nan_or_inf_estimate(bad, at_step):
    # A bad estimate at the start, or at each step after a good start; +inf
    # would otherwise pass the Metropolis test.
    calls = []

    def estimator(theta, rng):
        calls.append(theta)
        return -1.0 if at_step and len(calls) == 1 else bad

    with pytest.raises(EstimatorFailure, match=f"likelihood estimate is {bad}"):
        run_chain(flat_chain_config(5, seed=4, estimator=estimator))
    assert len(calls) >= 1 + at_step


# ------------------------------------------------------------------ proposal


def test_proposal_from_covariance():
    covariance = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = ProposalSpec.from_covariance(covariance)
    assert spec.dim == 2
    assert spec.jitter == 0.0
    assert spec.chol @ spec.chol.T == pytest.approx(covariance)


def test_proposal_rejects_asymmetry():
    with pytest.raises(ValueError):
        ProposalSpec.from_covariance(np.array([[1.0, 0.2], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_proposal_rejects_non_finite_covariance(where, bad):
    # NaN and inf - inf make the symmetry check compare NaN, which is never
    # above the tolerance; the finiteness check must catch them first.
    covariance = np.eye(2)
    covariance[where] = covariance[where[::-1]] = bad
    with pytest.raises(ValueError, match="covariance must be finite"):
        ProposalSpec.from_covariance(covariance)


def test_proposal_degenerate_covariance_gets_jitter():
    spec = ProposalSpec.from_covariance(np.zeros((2, 2)))
    assert spec.jitter > 0.0
    assert np.isfinite(spec.chol).all()
    rank_one = ProposalSpec.from_covariance(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert rank_one.jitter == pytest.approx(1e-8, rel=1e-6)


def test_initial_proposal_scales_with_theta():
    spec = initial_proposal(np.array([0.0, 10.0]))
    assert spec.covariance[0, 0] == pytest.approx(0.05**2)
    assert spec.covariance[1, 1] == pytest.approx((0.05 * 11.0) ** 2)


def test_tune_proposal_scaling():
    rng = make_stream(5)
    pilot = rng.normal(size=(8000, 1)) * 2.0
    spec = tune_proposal(pilot)
    sample_var = pilot[4000:].var(ddof=1)
    assert spec.covariance[0, 0] == pytest.approx(2.38 * sample_var, rel=1e-12)


def test_tune_proposal_dimension_scaling():
    rng = make_stream(6)
    pilot = rng.normal(size=(6000, 4))
    spec = tune_proposal(pilot)
    kept = pilot[3000:]
    expected = (2.38 / 2.0) * np.cov(kept.T)
    assert spec.covariance == pytest.approx(expected, rel=1e-10)


def test_tune_proposal_burn_in_and_degenerate_pilot():
    pilot = np.ones((100, 2))
    spec = tune_proposal(pilot)
    assert spec.jitter > 0.0
    with pytest.raises(ValueError):
        tune_proposal(np.ones((3, 4)))
    # 9 rows keep 5 after the burn-in, enough for a 4 x 4 covariance; 8 keep 4.
    pilot = make_stream(7).normal(size=(9, 4))
    assert tune_proposal(pilot).jitter == 0.0
    with pytest.raises(ValueError, match="keeps 4 after the burn-in"):
        tune_proposal(pilot[:8])
    with pytest.raises(ValueError, match="keeps 4 after the burn-in"):
        check_pilot_length(8, 4)
    check_pilot_length(9, 4)


# -------------------------------------------------------------------- chains


def test_run_chain_deterministic():
    def noisy(theta, rng):
        return float(rng.standard_normal() - 1.0)

    outputs = [run_chain(flat_chain_config(200, seed=7, estimator=noisy))
               for _ in range(2)]
    assert (outputs[0].samples == outputs[1].samples).all()
    assert (outputs[0].log_like_trace == outputs[1].log_like_trace).all()
    assert (outputs[0].accepted == outputs[1].accepted).all()


def test_run_chain_reuses_stored_estimate():
    estimator = CountingEstimator(value=-1.0)
    output = run_chain(flat_chain_config(300, seed=8, estimator=estimator))
    # One call at initialization, then exactly one per in-support proposal;
    # re-estimating the current point would double the count.
    assert estimator.calls <= 301
    assert estimator.calls >= output.accepted.sum() + 1
    assert output.samples.shape == (300, 1)


def test_run_chain_shapes_and_rate():
    def noisy(theta, rng):
        return float(rng.standard_normal())

    output = run_chain(flat_chain_config(500, seed=9, estimator=noisy))
    assert output.log_like_trace.shape == (500,)
    assert output.accepted.dtype == bool
    assert output.acceptance_rate == pytest.approx(output.accepted.mean())
    assert output.ess.shape == (1,)
    assert output.final_state.theta.shape == (1,)


def test_run_chain_init_requires_positive_prior():
    config = flat_chain_config(
        10, seed=10, estimator=lambda t, r: 0.0, theta_init=np.array([2.0])
    )
    with pytest.raises(InitializationError):
        run_chain(config)


def test_run_chain_init_retries_then_fails():
    estimator = CountingEstimator(value=-math.inf)
    config = flat_chain_config(10, seed=11, estimator=estimator)
    with pytest.raises(InitializationError, match=f"{_MAX_INIT_TRIES} initialization"):
        run_chain(config)
    assert estimator.calls == _MAX_INIT_TRIES


def test_run_chain_init_retries_at_theta_init_until_nonzero():
    # Each attempt estimates afresh at theta_init, and the first nonzero
    # estimate starts the chain.
    seen = []

    def estimator(theta, rng):
        seen.append(float(theta[0]))
        return -math.inf if len(seen) < 3 else 0.0

    output = run_chain(flat_chain_config(5, seed=12, estimator=estimator))
    assert seen[:3] == [0.5, 0.5, 0.5]
    assert output.samples.shape == (5, 1)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        flat_chain_config(0, seed=0, estimator=lambda t, r: 0.0)
    with pytest.raises(ValueError):
        flat_chain_config(
            10, seed=0, estimator=lambda t, r: 0.0,
            proposal=ProposalSpec.from_covariance(np.eye(2)),
        )


# ------------------------------------------------------- variance utilities


def test_estimator_replicates_deterministic():
    model = TwoStateLatentModel()
    estimate = log_likelihood_estimator(model, np.array([0, 1, 0, 1]), "recycle", 8)
    theta = np.array([0.5])
    a = estimate(theta, make_stream(12), 50)
    b = estimate(theta, make_stream(12), 50)
    assert a.shape == (50,)
    assert (a == b).all()


def test_relative_variance_edge_cases():
    assert relative_variance_of_logs(np.zeros(100)) == 0.0
    assert relative_variance_of_logs(np.full(10, -math.inf)) == math.inf
    with pytest.raises(ValueError):
        relative_variance_of_logs(np.zeros(1))


def test_relative_variance_matches_known_value():
    # What ``tune_particle_count`` measures at each probe, against the
    # delta-method reference on the same replicates.
    model = TwoStateLatentModel()
    estimate = log_likelihood_estimator(
        model, np.array([0, 1, 0, 1]), "recycle", 8
    )
    theta = np.array([0.5])
    logs = estimate(theta, make_stream(16), 4000)
    point = relative_variance_of_logs(estimate(theta, make_stream(16), 4000))
    check, se = relvar_and_se(logs)
    assert point == pytest.approx(check, rel=1e-12)
    assert se < 0.1  # sanity on the error scale itself


def test_tune_particle_count_doubles_from_data_size():
    model = TwoStateLatentModel()
    data = model.simulate(np.array([0.4]), 6, make_stream(17))
    count, probes = tune_particle_count(
        model, data, np.array([0.4]), "recycle", target=math.inf,
        n_replicates=20, rng=make_stream(18), max_particles=6 * 2**10,
    )
    assert count == 6
    assert len(probes) == 1 and probes[0][0] == 6
    tight, probes = tune_particle_count(
        model, data, np.array([0.4]), "recycle", target=0.05,
        n_replicates=100, rng=make_stream(19), max_particles=6 * 2**10,
    )
    assert tight % 6 == 0 and tight / 6 == 2 ** (len(probes) - 1)
    assert [count for count, _ in probes] == [6 * 2**i for i in range(len(probes))]
    assert probes[-1][1] <= 0.05


def test_tune_particle_count_respects_ceiling():
    model = TwoStateLatentModel()
    data = model.simulate(np.array([0.4]), 6, make_stream(20))
    with pytest.raises(ParticleCountError, match="relative variance"):
        tune_particle_count(
            model, data, np.array([0.4]), "recycle", target=1e-8,
            n_replicates=30, rng=make_stream(21), max_particles=20,
        )


def test_tune_particle_count_rejects_ceiling_below_start():
    # The count starts at one particle per observation, 6 here.
    model = TwoStateLatentModel()
    data = model.simulate(np.array([0.4]), 6, make_stream(20))
    with pytest.raises(ValueError, match="max_particles 5 is below the starting count of 6"):
        tune_particle_count(
            model, data, np.array([0.4]), "recycle", target=1000.0,
            n_replicates=30, rng=make_stream(21), max_particles=5,
        )
    count, probes = tune_particle_count(
        model, data, np.array([0.4]), "recycle", target=1000.0,
        n_replicates=30, rng=make_stream(21), max_particles=6,
    )
    assert count == 6 and len(probes) == 1


# ------------------------------------------------------------ effective size


def test_ess_constant_series():
    assert ess_batch_means(np.ones(100)) == 100.0


def test_ess_iid_series():
    draws = make_stream(22).standard_normal(40000)
    ess = ess_batch_means(draws)
    assert 0.9 * 40000 < ess < 1.1 * 40000


def test_ess_autocorrelated_series():
    rng = make_stream(23)
    rho = 0.5
    noise = rng.standard_normal(40000) * math.sqrt(1 - rho**2)
    series = np.empty(40000)
    series[0] = rng.standard_normal()
    for t in range(1, 40000):
        series[t] = rho * series[t - 1] + noise[t]
    # Integrated autocorrelation time (1+rho)/(1-rho) = 3.
    ess = ess_batch_means(series)
    assert 0.75 * 40000 / 3 < ess < 1.25 * 40000 / 3


def test_ess_short_series_rejected():
    with pytest.raises(ValueError):
        ess_batch_means(np.array([1.0, 2.0, 3.0]))


# ------------------------------------------------------------- whole chains


def test_grid_chain_matches_direct_normalization():
    occupancy, exact, errors = run_grid_toy(seed=24, length=20000)
    for got, want, err in zip(occupancy, exact, errors):
        assert abs(got - want) <= 4 * max(err, 1e-4)


def test_estimator_choice_does_not_move_posterior():
    model = TwoStateLatentModel()
    data = model.simulate(np.array([0.7]), 12, make_stream(25))
    prior = PriorSpec((UniformPrior(0.0, 1.0),))
    proposal = ProposalSpec.from_covariance(np.array([[0.04]]))

    def chain(estimator, seed):
        config = ChainConfig(
            model=model, data=data, prior=prior, proposal=proposal,
            length=4000, seed=seed, estimator=estimator, theta_init=np.array([0.5]),
        )
        return run_chain(config)

    exact = chain(lambda theta, rng: model.exact_log_likelihood(theta, data), 26)
    recycle = chain(log_likelihood_estimator(model, data, "recycle", 24), 27)
    simple = chain(log_likelihood_estimator(model, data, "simple", 24), 28)
    kept = slice(1000, None)
    reference = exact.samples[kept, 0].mean()
    ref_se = batch_mean_se(exact.samples[kept, 0])
    for other in (recycle, simple):
        got = other.samples[kept, 0].mean()
        se = math.hypot(ref_se, batch_mean_se(other.samples[kept, 0]))
        assert abs(got - reference) <= 4 * se
