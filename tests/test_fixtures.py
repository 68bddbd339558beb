import math

import numpy as np
import pytest
from scipy import stats

from prodest.fixtures import (
    FIXTURES,
    DiscreteFixtureModel,
    get_fixture,
    log_potential_values,
    sample_support_indices,
)
from prodest.oracle import mean_product
from prodest.rng import make_stream


def test_registry_contents():
    assert {"d1", "d3", "d4"} <= set(FIXTURES)
    assert get_fixture("d1").kind == "moments"
    assert get_fixture("d3").kind == "moments"
    assert get_fixture("d4").kind == "latent"


def test_unknown_fixture_lists_known_names():
    with pytest.raises(KeyError, match="d1"):
        get_fixture("d99")


def test_sample_support_indices_shapes_and_law():
    measure, _ = get_fixture("d1").build()
    rng = make_stream(1)
    single = sample_support_indices(measure, 4, rng)
    assert single.shape == (4,)
    batch = sample_support_indices(measure, 3, rng, n_replicates=5000)
    assert batch.shape == (5000, 3)
    counts = [(batch == 0).sum(), (batch == 1).sum()]
    assert stats.chisquare(counts).pvalue > 1e-4


def test_log_potential_values_shapes():
    measure, potentials = get_fixture("d1").build()
    indices = np.array([0, 1, 0])
    matrix = log_potential_values(potentials, indices)
    assert matrix.shape == (2, 3)
    assert matrix[0] == pytest.approx([0.0, -math.inf, 0.0])
    stacked = log_potential_values(potentials, np.array([[0, 1], [1, 1]]))
    assert stacked.shape == (2, 2, 2)
    assert stacked[1, 0] == pytest.approx([-math.inf, -math.inf])


def test_fixture_model_interface():
    measure, potentials = get_fixture("d3").build()
    model = DiscreteFixtureModel(measure, potentials)
    assert model.param_names == ()
    assert model.theta_dim == 0
    assert (model.factor_indices == np.arange(2)).all()
    latents = model.sample_latent(np.zeros(0), make_stream(2), size=2000)
    assert latents.shape == (2000,)
    matrix = model.log_potentials(model.factor_indices)(np.arange(measure.n_points))
    assert np.exp(matrix) == pytest.approx(potentials.values)
    # Latent draws follow the measure.
    counts = np.bincount(latents, minlength=measure.n_points)
    check = stats.chisquare(counts, f_exp=measure.probs * 2000)
    assert check.pvalue > 1e-4


def test_fixture_model_target_matches_oracle():
    measure, potentials = get_fixture("d1").build()
    model = DiscreteFixtureModel(measure, potentials)
    # Enumerate over the latent support instead of sampling.
    matrix = model.log_potentials(model.factor_indices)(np.arange(measure.n_points))
    means = np.exp(matrix) @ measure.probs
    assert np.prod(means) == pytest.approx(mean_product(measure, potentials))
