"""Fixed-seed streams of ``log_likelihood_estimator``, pinned bit for bit.

A speed-up must leave every stream as it was: the same selections, the
same random draws and the same log values.  Each case draws 20 estimates
from one seeded generator and compares the log values and the
generator's final position exactly with values recorded when every
estimator still read the full (n_obs, n_particles) potential matrix.  The
one exception is the ``perm`` stream, re-recorded when the permanent moved
from enumeration to a dynamic program; its enumerated values are kept in
``ENUMERATED_PERM`` and must agree to 1e-14.
Poisson-Beta, two-state and fixture latents are integers, so these
streams run on the compressed matrix; g-and-k latents are floats.
"""

import numpy as np
import pytest

from prodest.fixtures import DiscreteFixtureModel, get_fixture
from prodest.models import (
    GandKModel,
    PoissonBetaModel,
    TwoStateLatentModel,
    log_likelihood_estimator,
)
from prodest.rng import make_stream

SEED = 2024


def _poisson_beta():
    model, theta = PoissonBetaModel(5.0), np.array([500.0, 2.0, 8.0])
    return model, theta, model.simulate(theta, 50, make_stream(SEED, 1))


def _two_state():
    model, theta = TwoStateLatentModel(), np.array([0.3])
    return model, theta, model.simulate(theta, 4, make_stream(SEED, 1))


def _fixture_d3():
    model = DiscreteFixtureModel(*get_fixture("d3").build())
    return model, np.zeros(0), model.factor_indices


def _g_and_k():
    model, theta = GandKModel(0.2), np.array([3.0, 1.0, 2.0, 0.5])
    return model, theta, model.simulate(theta, 20, make_stream(SEED, 1))


# (problem, kind) -> (model, theta and data factory, n_particles).  The simple kind needs
# n_particles divisible by the 50 Poisson-Beta observations.
CASES = {
    ("poisson-beta", "recycle"): (_poisson_beta, 640),
    ("poisson-beta", "simple"): (_poisson_beta, 650),
    **{("two-state", kind): (_two_state, 8) for kind in ("simple", "recycle", "perm", "biased")},
    ("fixture-d3", "recycle"): (_fixture_d3, 12),
    ("g-and-k", "recycle"): (_g_and_k, 640),
}

# (problem, kind) -> (20 log values, (Philox counter, buffer_pos,
# has_uint32, uinteger) after them).
PINS = {
    ('poisson-beta', 'recycle'): (
        [
            -268.74779887047043, -269.40499642227655, -269.5641409528529, -269.617490325879,
            -268.9322526672611, -269.4294775626674, -270.161619769787, -272.09547570517805,
            -267.1307768990098, -270.0153556386819, -270.61497467124826, -271.24189390028516,
            -271.14743960747256, -268.1757388647355, -269.625223684815, -269.04827262838216,
            -268.0699973287749, -269.93207839245594, -267.9313845304583, -268.940906758656,
        ],
        ([21085, 0, 0, 0], 3, 0, 0),
    ),
    ('poisson-beta', 'simple'): (
        [
            -347.84165563193005, -444.94799644903094, -733.1732952786695, -335.99775709636725,
            -425.3994566008098, -593.7340673636262, -442.5525879751039, -476.52811171879574,
            -351.10590005273167, -329.60792970025165, -321.3039378426549, -384.31483462725174,
            -457.9669938050811, -724.207431979319, -392.61457181953114, -362.47564267466004,
            -335.2691882208955, -619.0629184769942, -761.111232473809, -650.950446064258,
        ],
        ([21209, 0, 0, 0], 2, 0, 0),
    ),
    ('two-state', 'simple'): (
        [
            -2.6548056865833973, -3.465735902799726, -2.367123614131616, -2.6548056865833978,
            -3.465735902799726, -2.6548056865833973, -3.0602707946915624, -3.465735902799726,
            -3.0602707946915615, -1.961658506023452, -2.6548056865833978, -3.0602707946915615,
            -2.7725887222397807, -3.0602707946915624, -3.465735902799726, -3.0602707946915615,
            -2.6548056865833978, -2.7725887222397807, -3.0602707946915615, -2.6548056865833978,
        ],
        ([40, 0, 0, 0], 4, 0, 0),
    ),
    ('two-state', 'recycle'): (
        [
            -2.937210701934334, -2.931437922848593, -3.0803115455750074, -2.680123494567687,
            -2.75488914514038, -2.608285670948505, -2.808956366410656, -2.680123494567687,
            -2.808956366410656, -2.741817063573028, -2.608285670948505, -2.8550649440640194,
            -2.808956366410656, -2.7989754774129754, -2.786072072577068, -2.608285670948505,
            -2.786072072577068, -2.741817063573028, -2.75488914514038, -2.680123494567687,
        ],
        ([60, 0, 0, 0], 4, 0, 0),
    ),
    ('two-state', 'perm'): (
        [
            -3.0602707946915615, -2.7374974024285113, -2.7374974024285113, -3.0602707946915615,
            -2.7374974024285113, -2.7374974024285113, -2.85635860530524, -2.7374974024285113,
            -2.6986083092417905, -2.6986083092417905, -2.7374974024285113, -2.85635860530524,
            -2.6986083092417905, -2.85635860530524, -2.7374974024285113, -2.6986083092417905,
            -3.0602707946915615, -2.6986083092417905, -2.6986083092417905, -3.0602707946915615,
        ],
        ([40, 0, 0, 0], 4, 0, 0),
    ),
    ('two-state', 'biased'): (
        [
            -3.0756885184941822, -2.8040854361760585, -2.8040854361760585, -3.0756885184941822,
            -2.8040854361760585, -2.8040854361760585, -2.901665764514923, -2.8040854361760585,
            -2.77258872223978, -2.77258872223978, -2.8040854361760585, -2.901665764514923,
            -2.77258872223978, -2.901665764514923, -2.8040854361760585, -2.77258872223978,
            -3.0756885184941822, -2.77258872223978, -2.77258872223978, -3.0756885184941822,
        ],
        ([40, 0, 0, 0], 4, 0, 0),
    ),
    ('fixture-d3', 'recycle'): (
        [
            -0.8938178760220965, -2.174751721484161, -1.3274538610969575, -1.8870696490323802,
            -2.3978952727983707, -2.174751721484161, -2.174751721484161, -2.11021320034659,
            -1.4816045409242158, -1.4170660197866447, -3.091042453358316, -1.4816045409242158,
            -1.838279484862948, -1.4816045409242158, -1.193922468472435, -1.4816045409242158,
            -1.7047480922384255, -2.174751721484161, -1.4816045409242158, -1.4816045409242158,
        ],
        ([70, 0, 0, 0], 4, 0, 0),
    ),
    ('g-and-k', 'recycle'): (
        [
            -46.35411519231529, -48.17291584652689, -47.476390668468866, -48.78936080119265,
            -46.78561642418074, -46.96499256768911, -46.79247203956374, -49.37074626303036,
            -48.13112479462951, -47.36475706327291, -47.584678941155076, -48.08352648687559,
            -47.69723027476237, -47.90328819862141, -47.937711334771556, -47.970635990241384,
            -47.14090419519142, -47.020142539680606, -48.50644738011351, -48.03969310037389,
        ],
        ([3367, 0, 0, 0], 3, 0, 0),
    ),
}

# The ('two-state', 'perm') values as the enumeration of all 1,680 ordered
# selections gave them, before the subset dynamic program replaced it.
ENUMERATED_PERM = [
    -3.0602707946915624, -2.7374974024285104, -2.7374974024285104, -3.0602707946915624,
    -2.7374974024285104, -2.7374974024285104, -2.85635860530524, -2.7374974024285104,
    -2.6986083092417905, -2.6986083092417905, -2.7374974024285104, -2.85635860530524,
    -2.6986083092417905, -2.85635860530524, -2.7374974024285104, -2.6986083092417905,
    -3.0602707946915624, -2.6986083092417905, -2.6986083092417905, -3.0602707946915624,
]


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_log_likelihood_stream_pin(case):
    build, n_particles = CASES[case]
    model, theta, data = build()
    estimate = log_likelihood_estimator(model, data, case[1], n_particles)
    rng = make_stream(SEED, 2)
    log_values = [estimate(theta, rng) for _ in range(20)]
    state = rng.bit_generator.state
    position = (
        state["state"]["counter"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )
    expected_values, expected_position = PINS[case]
    assert log_values == expected_values
    assert position == expected_position


def test_perm_pin_agrees_with_enumeration():
    # The two computations round differently, by a few ulps of the log value.
    pinned = PINS[("two-state", "perm")][0]
    assert pinned == pytest.approx(ENUMERATED_PERM, rel=1e-14)
