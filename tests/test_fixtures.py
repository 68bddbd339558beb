import math

import numpy as np
import pytest
from scipy import stats

from prodest.estimators import DimensionError
from prodest.fixtures import FIXTURES, DiscreteFixtureModel, get_fixture
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


def test_fixture_model_interface():
    measure, potentials = get_fixture("d3").build()
    model = DiscreteFixtureModel(measure, potentials)
    assert model.param_names == ()
    assert model.theta_dim == 0
    assert (model.factor_indices == np.arange(2)).all()
    latents = model.sample_latent(np.zeros(0), make_stream(2), size=2000)
    assert latents.shape == (2000,)
    keys, log_potentials = model.bind(model.factor_indices)
    matrix = log_potentials(keys(np.arange(measure.n_points)))
    assert np.exp(matrix) == pytest.approx(potentials.values)
    # Latent draws follow the measure.
    counts = np.bincount(latents, minlength=measure.n_points)
    check = stats.chisquare(counts, f_exp=measure.probs * 2000)
    assert check.pvalue > 1e-4


def test_fixture_model_rejects_a_mismatched_pair():
    measure, _ = get_fixture("d1").build()
    _, potentials = get_fixture("d3").build()
    with pytest.raises(DimensionError) as raised:
        DiscreteFixtureModel(measure, potentials)
    assert str(raised.value) == "potentials tabulated on 4 points, measure has 2"


def test_fixture_model_target_matches_oracle():
    measure, potentials = get_fixture("d1").build()
    model = DiscreteFixtureModel(measure, potentials)
    # Enumerate over the latent support instead of sampling.
    _, log_potentials = model.bind(model.factor_indices)
    matrix = log_potentials(np.arange(measure.n_points))
    means = np.exp(matrix) @ measure.probs
    assert np.prod(means) == pytest.approx(mean_product(measure, potentials))


@pytest.mark.parametrize(
    "data, message",
    [
        ([0.7, 1.9], "integer factor indices in \\[0, 2\\)"),
        ([0, 2], "integer factor indices in \\[0, 2\\)"),
        ([math.nan, 1], "observations must be finite, got nan at index 0"),
    ],
    ids=["fractional", "past-the-last", "nan"],
)
def test_fixture_model_rejects_non_index_observations(data, message):
    # Fractional indices used to bind the rows they truncate to, and NaN
    # raised numpy's cast error rather than the model's own.
    model = DiscreteFixtureModel(*get_fixture("d3").build())
    with pytest.raises(ValueError, match=message):
        model.bind(data)
