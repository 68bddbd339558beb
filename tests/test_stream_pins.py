"""Fixed-seed streams of ``log_likelihood_estimator``, pinned bit for bit.

A speed-up must leave every stream as it was: the same selections, the
same random draws and the same log values.  Each case draws 20 estimates
from one seeded generator and compares the log values and the
generator's final position exactly with values recorded when every
estimator still read the full (n_obs, n_particles) potential matrix.
Poisson-Beta, two-state and fixture latents are integers, so these
streams run on the compressed matrix; g-and-k latents are floats.

Two kinds of change re-recorded pins on purpose:

* the ``perm`` stream, when the permanent moved from enumeration to a
  dynamic program; its enumerated values are kept in ``ENUMERATED_PERM``
  and must agree to 1e-14;
* the three integer-latent ``recycle`` streams (Poisson-Beta, two-state
  and fixture ``d3``), when the recycle kernel began to draw a column of
  the compressed matrix by its count-weighted potential and then one of
  its particles.  The law of the estimator is unchanged (the oracle tests
  in ``test_estimators.py`` check it), and so is the number of uniforms
  drawn, hence the generator positions.  The g-and-k ``recycle`` stream
  and the ``simple`` and ``biased`` streams did not move.
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
            -268.8896851383852, -269.1572874656648, -269.82650212423505, -269.4254042049424,
            -268.8102078454749, -269.1578945651405, -270.17242420538713, -271.9741602674571,
            -267.3083994899904, -269.8189760768584, -270.49117042594855, -271.5901220231316,
            -271.06870250274, -268.30790749598367, -269.6052209450161, -268.8929117628001,
            -268.2123694693697, -269.78075464781045, -267.9404407629807, -268.7287464228726,
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
            -3.1248093158291335, -3.098492007511759, -3.0803115455750074, -2.9649606148872367,
            -2.75488914514038, -2.608285670948505, -2.608285670948505, -2.680123494567687,
            -2.608285670948505, -2.7989754774129754, -2.6235531430792927, -2.9424877590351786,
            -2.608285670948505, -2.6319213927498097, -2.8979899887810534, -2.79790653022407,
            -2.8979899887810534, -2.741817063573028, -2.75488914514038, -2.6336034789327947,
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
            -0.7396671961948382, -2.174751721484161, -1.3274538610969575, -2.11021320034659,
            -2.3978952727983707, -2.5802168295923256, -2.174751721484161, -2.11021320034659,
            -1.299282984130261, -1.7047480922384255, -3.091042453358316, -1.4816045409242158,
            -1.838279484862948, -1.4816045409242158, -1.193922468472435, -1.6639260977181705,
            -1.8870696490323802, -2.174751721484161, -1.3274538610969575, -1.6639260977181705,
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
