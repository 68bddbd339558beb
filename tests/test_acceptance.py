"""Acceptance gate: one test per release criterion, scales and tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failure) and asserts both the numerical claim and
its runtime budget.  Statistical checks run on fixed seeds.
"""

import json
import math
import time

import numpy as np
import pytest

from prodest.cli import main as cli_main
from prodest.fixtures import DiscreteFixtureModel, get_fixture
from prodest.mcmc import ess_batch_means
from prodest.oracle import (
    estimator_distribution_exact,
    expected_factor_relvar,
    factor_relative_variances,
    induced_potentials,
    latent_expected_second_moment,
    latent_expected_second_moment_simple,
    mean_product,
    observation_marginal,
    second_moment_perm_exact,
    second_moment_recycle_exact,
    second_moment_simple_exact,
)
from prodest.estimators import PotentialMatrix, estimate_perm_exact, estimate_recycle
from prodest.rng import make_stream

from conftest import (
    random_disjoint_fixture,
    random_identical_fixture,
    random_indicator_fixture,
    random_lvm,
    random_moment_fixture,
    random_product_fixture,
    relvar_and_se,
    run_grid_toy,
)
from oracle_support import (
    identical_potential_bound,
    independent_second_moment,
    recycle_conditional_moments,
)

FUZZ_SEED = 20260814

# 200 shared fuzz fixtures: half with block structure so the simple
# estimator is defined, half with free particle counts.
_fuzz_rng = np.random.default_rng(FUZZ_SEED)
FUZZ_FIXTURES = [
    random_moment_fixture(_fuzz_rng, require_block=(i % 2 == 0))
    for i in range(200)
]


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _within_budget(name, started, budget_s, detail=""):
    elapsed = time.perf_counter() - started
    _report(name, elapsed < budget_s, f"{detail} ({elapsed:.1f}s < {budget_s}s)")


def test_01_exact_unbiasedness():
    started = time.perf_counter()
    checked = 0
    for measure, potentials, n_particles in FUZZ_FIXTURES:
        target = mean_product(measure, potentials)
        kinds = ["perm", "recycle"]
        if n_particles % potentials.n_factors == 0:
            kinds.append("simple")
        for kind in kinds:
            mean, _ = estimator_distribution_exact(measure, potentials, n_particles, kind=kind)
            assert abs(mean - target) <= 1e-10 * target, (kind, mean, target)
            checked += 1
    d1_mean, _ = estimator_distribution_exact(
        *get_fixture("d1").build(), 2, kind="biased"
    )
    assert d1_mean == pytest.approx(0.125, abs=1e-15)
    assert d1_mean != pytest.approx(0.25, abs=0.01)
    _within_budget(
        "exact unbiasedness", started, 30.0,
        f"{checked} estimator laws over 200 fixtures match targets to 1e-10; "
        "biased law gives 1/8 vs 1/4 on d1",
    )


def test_02_conditional_mean_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(FUZZ_SEED + 1)
    worst = 0.0
    for _ in range(100):
        n_factors = int(rng.integers(1, 4))
        n_particles = int(rng.integers(n_factors, 7))
        values = rng.random((n_factors, n_particles)) * 2.0
        values[rng.random((n_factors, n_particles)) < 0.25] = 0.0
        cond_mean, _ = recycle_conditional_moments(values)
        with np.errstate(divide="ignore"):
            matrix = PotentialMatrix(np.log(values))
        perm = math.exp(estimate_perm_exact(matrix))
        scale = max(perm, 1e-300)
        worst = max(worst, abs(cond_mean - perm) / scale)
    assert worst <= 1e-12
    _within_budget(
        "conditional mean identity", started, 10.0,
        f"recycled mean given particles equals injection average on 100 "
        f"matrices, worst relative gap {worst:.2e}",
    )


def test_03_second_moment_dual_routes():
    started = time.perf_counter()
    checked = 0
    for measure, potentials, n_particles in FUZZ_FIXTURES:
        target = mean_product(measure, potentials)
        closed = second_moment_recycle_exact(measure, potentials, n_particles)
        _, raw_second = estimator_distribution_exact(
            measure, potentials, n_particles, kind="recycle"
        )
        assert abs(raw_second / target**2 - closed) <= 1e-10 * closed
        closed_perm = second_moment_perm_exact(measure, potentials, n_particles)
        _, raw_perm = estimator_distribution_exact(
            measure, potentials, n_particles, kind="perm"
        )
        assert abs(raw_perm / target**2 - closed_perm) <= 1e-10 * closed_perm
        checked += 1
    measure, potentials = get_fixture("d1").build()
    assert second_moment_perm_exact(measure, potentials, 2) == pytest.approx(2.0)
    assert second_moment_recycle_exact(measure, potentials, 2) == pytest.approx(2.0)
    assert second_moment_simple_exact(measure, potentials, 1) == pytest.approx(4.0)
    _within_budget(
        "second-moment dual routes", started, 60.0,
        f"moment-lattice and enumeration paths agree to 1e-10 on {checked} "
        "fixtures; d1 gives perm=recycle=2, simple=4",
    )


def test_04_independent_factor_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(FUZZ_SEED + 2)
    for _ in range(100):
        measure, potentials, n_particles = random_product_fixture(rng)
        enumerated = second_moment_recycle_exact(measure, potentials, n_particles)
        closed = independent_second_moment(
            factor_relative_variances(measure, potentials), n_particles
        )
        assert abs(enumerated - closed) <= 1e-10 * closed
    measure, potentials = get_fixture("d3").build()
    pinned = second_moment_recycle_exact(measure, potentials, 2)
    assert pinned == pytest.approx(3.0, abs=1e-12)
    _within_budget(
        "independent-factor closed form", started, 30.0,
        "recycled second moment factorizes on 100 product fixtures; d3 at "
        "two particles gives 3",
    )


def test_05_ordering_families():
    started = time.perf_counter()
    rng = np.random.default_rng(FUZZ_SEED + 3)
    for _ in range(100):  # disjoint supports: recycling changes nothing
        measure, potentials, n_particles = random_disjoint_fixture(rng)
        perm = second_moment_perm_exact(measure, potentials, n_particles)
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        assert abs(recycle - perm) <= 1e-10 * perm
    for _ in range(100):  # identical rows: explicit lower bound
        measure, potentials, n_particles = random_identical_fixture(rng)
        relvar = factor_relative_variances(measure, potentials)[0]
        bound = identical_potential_bound(relvar, potentials.n_factors, n_particles)
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        assert recycle >= bound * (1 - 1e-10)
    for _ in range(100):  # identical rows with tame third moment: reuse wins
        measure, potentials, n_particles = random_identical_fixture(
            rng, require_block=True, bounded_third_moment=True
        )
        block = n_particles // potentials.n_factors
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        simple = second_moment_simple_exact(measure, potentials, block)
        assert recycle <= simple * (1 + 1e-10)
    for _ in range(100):  # indicator potentials: reuse wins
        measure, potentials, n_particles = random_indicator_fixture(rng)
        block = n_particles // potentials.n_factors
        recycle = second_moment_recycle_exact(measure, potentials, n_particles)
        simple = second_moment_simple_exact(measure, potentials, block)
        assert recycle <= simple * (1 + 1e-10)
    _within_budget(
        "variance ordering families", started, 60.0,
        "equality on disjoint supports, lower bound and simple-dominance "
        "for shared rows, indicator dominance; 100 cases each",
    )


def test_06_latent_averaged_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(FUZZ_SEED + 4)
    for _ in range(50):
        lvm = random_lvm(rng)
        n_obs = int(rng.integers(1, 4))
        n_particles = int(rng.integers(n_obs, 7))
        enumerated, closed, constant = latent_expected_second_moment(
            lvm, n_obs, n_particles
        )
        assert abs(enumerated - closed) <= 1e-10 * closed
        block = int(rng.integers(1, 3))
        simple_closed = latent_expected_second_moment_simple(lvm, n_obs, block)
        marginal = observation_marginal(lvm)
        total = 0.0
        for obs in np.ndindex(*([marginal.size] * n_obs)):
            weight = float(np.prod(marginal[list(obs)]))
            potentials = induced_potentials(lvm, obs)
            total += weight * second_moment_simple_exact(
                lvm.measure, potentials, block
            )
        assert abs(total - simple_closed) <= 1e-10 * simple_closed
        assert constant == pytest.approx(
            expected_factor_relvar(lvm), rel=1e-12
        )
    lvm = get_fixture("d4").build()
    enumerated, closed, constant = latent_expected_second_moment(lvm, 1, 2)
    assert constant == pytest.approx(0.25, abs=1e-14)
    assert closed == pytest.approx(1.125, abs=1e-14)
    assert enumerated == pytest.approx(1.125, rel=1e-12)
    _within_budget(
        "observation-averaged identities", started, 60.0,
        "recycled and block closed forms match enumeration on 50 latent "
        "models; d4 gives C=1/4 and 9/8 at one observation, two particles",
    )


def test_07_monte_carlo_consistency():
    started = time.perf_counter()
    model = DiscreteFixtureModel(*get_fixture("d1").build())
    stream = make_stream(FUZZ_SEED, 7)
    latents = model.sample_latent((), stream, size=(100_000, 2))
    # Every replicate's (factor, particle) log potentials in one evaluation.
    _, log_potentials = model.bind(model.factor_indices)
    tensor = log_potentials(latents.ravel())
    tensor = tensor.reshape(model.n_factors, *latents.shape).swapaxes(0, 1)
    logs = np.array([
        estimate_recycle(PotentialMatrix(values), stream)[0]
        for values in tensor
    ])
    draws = np.exp(logs)
    mean = draws.mean()
    mean_se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(mean - 0.25) <= 3 * mean_se
    relvar, relvar_se = relvar_and_se(logs)
    assert abs(relvar - 1.0) <= 3 * relvar_se
    _within_budget(
        "Monte Carlo consistency", started, 10.0,
        f"100000 recycled replicates on d1: mean {mean:.4f} within 3 SE of "
        f"0.25, relative variance {relvar:.3f} within 3 SE of 1.0",
    )


def _read_logs(csv_path):
    return np.loadtxt(csv_path, delimiter=",", skiprows=2, usecols=1)


def test_08_gandk_tuning_experiment(tmp_path):
    started = time.perf_counter()
    n_obs = 20
    base = (
        "model = gandk\n"
        "theta = 3.0, 1.0, 2.0, 0.5\n"
        f"n_obs = {n_obs}\n"
        "epsilon = 0.2\n"
    )
    tune_cfg = tmp_path / "tune.cfg"
    tune_cfg.write_text(base + "estimator = recycle\ntarget = 2.0\nreplicates = 200\n")
    assert cli_main(
        ["tune", "--config", str(tune_cfg), "--seed", str(FUZZ_SEED),
         "--out", str(tmp_path / "tune")]
    ) == 0
    tuned = json.loads((tmp_path / "tune" / "tune.json").read_text())["n_particles"]
    assert tuned <= 200 * n_obs

    logs = {}
    for kind in ("recycle", "simple"):
        cfg = tmp_path / f"est_{kind}.cfg"
        cfg.write_text(base + f"estimator = {kind}\nn_particles = {tuned}\n")
        out = tmp_path / f"est_{kind}"
        assert cli_main(
            ["estimate", "--config", str(cfg), "--seed", str(FUZZ_SEED),
             "--out", str(out), "--replicates", "2000"]
        ) == 0
        logs[kind] = _read_logs(out / "estimates.csv")
    recycle_rv, recycle_se = relvar_and_se(logs["recycle"])
    simple_rv, simple_se = relvar_and_se(logs["simple"])
    assert recycle_rv <= 2.0 + 3 * recycle_se
    gap_se = math.hypot(recycle_se, simple_se)
    assert recycle_rv <= simple_rv + 3 * gap_se
    _within_budget(
        "g-and-k tuning experiment", started, 600.0,
        f"tuned particle count {tuned} (cap {200 * n_obs}); relative variance "
        f"{recycle_rv:.2f} (recycle) vs {simple_rv:.2f} (simple) at equal cost",
    )


def test_09_poisson_beta_chain(tmp_path):
    # At 50 observations the rate posterior has a long right tail, so the
    # proposal covariance needs staged pilot refinement and the noise
    # target must sit well below the usual rule of thumb before every
    # coordinate mixes fast enough for ESS > 500 in 20000 steps.
    started = time.perf_counter()
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text(
        "model = poisson-beta\n"
        "theta = 500.0, 2.0, 8.0\n"
        "sigma = 5.0\n"
        "n_obs = 50\n"
        "estimator = recycle\n"
        "target = 0.2\n"
        "tune_replicates = 300\n"
        "chain_length = 20000\n"
        "pilot_length = 6000\n"
        "pilot_stages = 3\n"
    )
    out = tmp_path / "mcmc"
    assert cli_main(
        ["mcmc", "--config", str(cfg), "--seed", "6", "--out", str(out)]
    ) == 0
    summary = json.loads((out / "mcmc_summary.json").read_text())
    rate_mean = summary["posterior_mean"]["rate"]
    low, high = summary["central95"]["rate"]
    assert low <= rate_mean <= high
    assert low <= 550.0 and high >= 450.0  # interval reaches values near 500
    ess = summary["ess"]
    assert min(ess) > 500.0
    _within_budget(
        "Poisson-Beta chain", started, 900.0,
        f"tuned to {summary['n_particles']} particles; rate posterior mean "
        f"{rate_mean:.0f} inside ({low:.0f}, {high:.0f}); "
        f"min ESS {min(ess):.0f} > 500 at length 20000",
    )


def test_10_exact_chain_grid_posterior():
    started = time.perf_counter()
    occupancy, exact, errors = run_grid_toy(seed=FUZZ_SEED, length=100_000)
    gaps = np.abs(occupancy - exact)
    for got, want, err in zip(occupancy, exact, errors):
        assert abs(got - want) <= 3 * max(err, 1e-5)
    _within_budget(
        "exact-likelihood grid chain", started, 120.0,
        f"cell occupancies match direct normalization within 3 SE; largest "
        f"gap {gaps.max():.4f}",
    )


def test_11_ess_autocorrelated_pin():
    started = time.perf_counter()
    length, rho = 100_000, 0.5
    rng = make_stream(FUZZ_SEED, 11)
    noise = rng.standard_normal(length) * math.sqrt(1 - rho**2)
    series = np.empty(length)
    series[0] = rng.standard_normal()
    for t in range(1, length):
        series[t] = rho * series[t - 1] + noise[t]
    ratio = ess_batch_means(series) / length
    assert abs(ratio - 1.0 / 3.0) <= 0.2 / 3.0
    _within_budget(
        "batch-means ESS pin", started, 60.0,
        f"ESS/T = {ratio:.3f} within 20% of 1/3 for an AR(1) series",
    )


def _smallest(meets, low):
    """Smallest integer >= low where ``meets`` holds; it must hold at every larger one too."""
    high = low
    while not meets(high):
        low, high = high + 1, 2 * high
    while low < high:
        middle = (low + high) // 2
        if meets(middle):
            high = middle
        else:
            low = middle + 1
    return high


def test_12_particle_scaling_exact():
    # The paper's headline claim without Monte Carlo: on d4 the
    # observation-averaged relative second moment is prod_p (1 + C/(N - p))
    # for recycle and (1 + C/M)**n for simple with N = n*M particles, so
    # the smallest N that holds it at 2 grows like n and n**2.
    started = time.perf_counter()
    lvm = get_fixture("d4").build()
    constant = expected_factor_relvar(lvm)
    assert constant == pytest.approx(0.25, abs=1e-14)
    sizes = [10, 100, 1_000, 10_000]
    recycle, simple = [], []
    for n in sizes:
        steps = np.arange(n)
        recycle.append(_smallest(
            lambda count: np.prod(1.0 + constant / (count - steps)) <= 2.0, n
        ))
        # (1 + C/M)**n >= 1 + n*C/M, so no M below n*C meets the target;
        # starting there also keeps the power far from overflow.
        block = _smallest(
            lambda m: latent_expected_second_moment_simple(lvm, n, m) <= 2.0,
            math.ceil(n * constant),
        )
        simple.append(n * block)
    assert recycle == [10, 107, 1_067, 10_667]
    assert simple == [40, 3_600, 361_000, 36_070_000]
    decade = math.log(sizes[-1] / sizes[-2])
    recycle_slope = math.log(recycle[-1] / recycle[-2]) / decade
    simple_slope = math.log(simple[-1] / simple[-2]) / decade
    assert abs(recycle_slope - 1.0) <= 0.01
    assert abs(simple_slope - 2.0) <= 0.01
    ratios = [s / r for s, r in zip(simple, recycle)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    _within_budget(
        "particle scaling on d4", started, 5.0,
        f"N for relative second moment <= 2 at n = {sizes}: recycle {recycle}, "
        f"simple {simple}; slopes {recycle_slope:.4f} and {simple_slope:.4f}",
    )
