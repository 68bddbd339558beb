"""Named finite-support fixtures used by the oracle, the CLI and the tests.

Each fixture is small enough for exhaustive enumeration yet exercises a
distinct regime of the estimators:

``d1``
    Fair two-point measure with disjoint singleton indicators.  The two
    factors can never share a particle, the target is 1/4, and each
    factor has single-draw relative variance 1.
``d3``
    Uniform measure on {0, 1}^2 with coordinate indicators.  The factors
    depend on independent coordinates, so the recycled second moment
    matches the independent-factor closed form.
``d4``
    Two-state latent model with a symmetric 3/4 versus 1/4 emission
    kernel.  Used for the observation-averaged second-moment identity;
    its expected factor relative variance is 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .models import symbol_column
from .oracle import DiscreteLVM, DiscreteMeasure, DiscretePotentialSet, check_pair

__all__ = [
    "Fixture",
    "FIXTURES",
    "get_fixture",
    "disjoint_indicator_fixture",
    "product_coordinate_fixture",
    "two_state_latent_fixture",
    "DiscreteFixtureModel",
]


@dataclass(frozen=True)
class Fixture:
    """A named finite problem: either a (measure, potentials) pair or a latent model."""

    name: str
    kind: str  # "moments" or "latent"
    build: Callable[[], Union[tuple[DiscreteMeasure, DiscretePotentialSet], DiscreteLVM]]


def disjoint_indicator_fixture() -> tuple[DiscreteMeasure, DiscretePotentialSet]:
    """Fair coin with indicators of {0} and {1}: disjoint supports, target 1/4."""
    measure = DiscreteMeasure(support=(0, 1), probs=np.array([0.5, 0.5]))
    potentials = DiscretePotentialSet(values=np.array([[1.0, 0.0], [0.0, 1.0]]))
    return measure, potentials


def product_coordinate_fixture() -> tuple[DiscreteMeasure, DiscretePotentialSet]:
    """Uniform law on pairs of bits with one indicator per coordinate."""
    support = ((0, 0), (0, 1), (1, 0), (1, 1))
    measure = DiscreteMeasure(support=support, probs=np.full(4, 0.25))
    first_bit = np.array([0.0, 0.0, 1.0, 1.0])
    second_bit = np.array([0.0, 1.0, 0.0, 1.0])
    potentials = DiscretePotentialSet(values=np.stack([first_bit, second_bit]))
    return measure, potentials


def two_state_latent_fixture() -> DiscreteLVM:
    """Balanced two-state latent law with a symmetric binary emission kernel."""
    return DiscreteLVM(
        latent_probs=np.array([0.5, 0.5]),
        kernel=np.array([[0.75, 0.25], [0.25, 0.75]]),
    )


FIXTURES: dict[str, Fixture] = {
    "d1": Fixture(name="d1", kind="moments", build=disjoint_indicator_fixture),
    "d3": Fixture(name="d3", kind="moments", build=product_coordinate_fixture),
    "d4": Fixture(name="d4", kind="latent", build=two_state_latent_fixture),
}


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}") from None


class DiscreteFixtureModel:
    """A fixed (measure, potentials) pair behind the latent-model interface.

    There is nothing to infer: theta is an empty vector and the
    "observations" are factor indices, so factor p's potential row doubles
    as the log potential of observation p.  This lets the estimator bridge
    and the tuning helpers run unchanged on the named fixtures.
    """

    param_names = ()
    theta_dim = 0

    def __init__(self, measure: DiscreteMeasure, potentials: DiscretePotentialSet):
        check_pair(measure, potentials)
        self.measure = measure
        self.potentials = potentials
        with np.errstate(divide="ignore"):
            self._log_values = np.log(potentials.values)

    @property
    def n_factors(self) -> int:
        return self.potentials.n_factors

    @property
    def factor_indices(self) -> np.ndarray:
        """The data vector: one pseudo-observation per factor."""
        return np.arange(self.n_factors)

    def sample_latent(self, theta, rng: np.random.Generator, size=None):
        return rng.choice(self.measure.n_points, size=size, p=self.measure.probs)

    def bind(self, data) -> tuple:
        """Check the factor indices once; support points are their own keys."""
        rows = symbol_column(
            data, self.n_factors, "fixture observations must be integer factor indices"
        )
        log_values = self._log_values

        def log_potentials(x):
            return log_values[rows, np.asarray(x, dtype=np.intp)[None, :]]

        return np.asarray, log_potentials

