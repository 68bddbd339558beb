"""Fixed-seed streams of ``log_likelihood_estimator``, pinned bit for bit.

A speed-up must leave every stream as it was: the same selections, the
same random draws and the same log values.  Each case draws 20 estimates
from one seeded generator and compares the log values and the
generator's final position exactly with recorded ones.  Every stream
runs on the compressed matrix: Poisson-Beta, two-state and fixture
latents are their own keys, and g-and-k latents are keyed by their cell
among the interval ends.

Five changes re-recorded pins on purpose; the ``simple`` and ``biased``
streams have not moved since they were first recorded:

* the ``perm`` stream, when the permanent moved from enumeration to a
  dynamic program; its enumerated values are kept in ``ENUMERATED_PERM``
  and must agree to 1e-14;
* the three integer-latent ``recycle`` streams (Poisson-Beta, two-state
  and fixture ``d3``), when the recycle kernel began to draw a column of
  the compressed matrix by its count-weighted potential and then one of
  its particles;
* all four ``recycle`` streams, g-and-k included, values and generator
  positions, when the kernel began to draw every factor's uniform in one
  call and to give each factor a first try over all particles, with a
  fresh uniform when that try lands on a taken particle;
* the three integer-latent ``recycle`` streams again, values and
  generator positions, when the kernel began to retire columns rather
  than particles: a column's available particles rank before its taken
  ones, so a first try stands when its rank is below the column's
  available count;
* the g-and-k ``recycle`` stream, values and generator position, when
  g-and-k latents began to share a column per cell, so that the kernel
  draws and retires one of at most 2n + 1 columns instead of one of
  n_particles.  The g-and-k ``simple`` and ``biased`` pins were recorded
  before that change and stayed as they were.

Each time the law of the estimator stayed the same; the oracle tests in
``test_estimators.py`` check it.

The closure also takes a replicate count, ``estimate(theta, rng, size)``.
Every case above must give its pinned stream with ``size=1`` too, since a
pass of one replicate draws exactly as the scalar call.  With more
replicates per pass the stream differs, so two batched cases are pinned
on their own in ``BATCHED_PINS``, each from two calls of ``size=10``:

* ``('g-and-k', 'recycle')`` and ``('poisson-beta', 'recycle')``, both at
  640 particles, where a pass holds 102 replicates: the ten replicates'
  latents come first, then each kernel's uniforms in turn.

One more pin covers the command line: ``CLI_PINS`` holds the sha256 of
``estimates.csv`` from ``prodest estimate`` on g-and-k at the benchmark's
``gandk-cli`` point (a fixed 20-line data file, epsilon 0.2, 640
particles, ``--replicates 10``), for ``recycle`` and ``simple`` on two
seeds.  It checks the stream and the result writer together, header line
and number format included, so a version bump re-records it.  At 640
particles every ``simple`` estimate of these seeds has an empty block and
is zero, so its pins check the zero path and the writer.

``MCMC_PINS`` holds the sha256 of ``trace.csv`` and ``mcmc_summary.json``
from two small ``prodest mcmc`` runs, so the chain's start, pilot step,
tuned proposal and burn-in window are pinned with its streams.

Running this file prints the current streams as ``PINS``,
``BATCHED_PINS``, ``CLI_PINS`` and ``MCMC_PINS`` literals.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from prodest.cli import main
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
# n_particles divisible by the number of observations.
CASES = {
    ("poisson-beta", "recycle"): (_poisson_beta, 640),
    ("poisson-beta", "simple"): (_poisson_beta, 650),
    **{("two-state", kind): (_two_state, 8) for kind in ("simple", "recycle", "perm", "biased")},
    ("fixture-d3", "recycle"): (_fixture_d3, 12),
    ("g-and-k", "recycle"): (_g_and_k, 640),
    # At 640 particles most simple blocks of 32 miss their interval.
    **{("g-and-k", kind): (_g_and_k, 12_800) for kind in ("simple", "biased")},
}

# (problem, kind) -> (20 log values, (Philox counter, buffer_pos,
# has_uint32, uinteger) after them).
PINS = {
    ('poisson-beta', 'recycle'): (
        [
            -268.8932257699164, -269.16919579550006, -269.7436732864319, -269.5706192293512,
            -269.30248409040945, -267.54050720687354, -270.01326954102154, -270.028018376956,
            -267.96592885094714, -270.7926668088548, -268.16607018341114, -270.29978958043,
            -268.8016599582229, -269.56944876297166, -269.189480523798, -268.7241276232389,
            -268.9803724373051, -269.21390495222516, -268.92322553963623, -269.19391859989304,
        ],
        ([21110, 0, 0, 0], 1, 0, 0),
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
            -3.1248093158291335, -2.6801234945676873, -3.0803115455750074, -2.6801234945676873,
            -2.8089563664106554, -2.7418170635730275, -2.942487759035178, -2.786072072577068,
            -2.8979899887810534, -2.9520572100513287, -2.7860720725770682, -2.6082856709485043,
            -2.6319213927498097, -2.8979899887810534, -2.79790653022407, -2.8979899887810534,
            -2.79790653022407, -3.0803115455750083, -2.6319213927498097, -2.7418170635730275,
        ],
        ([64, 0, 0, 0], 4, 0, 0),
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
            -0.7396671961948382, -2.174751721484161, -1.1451323043030026, -1.66392609771817,
            -3.091042453358316, -2.174751721484161, -2.3978952727983707, -2.8033603809065353,
            -2.11021320034659, -1.1939224684724346, -2.9368917735310576, -1.992430164690206,
            -1.7047480922384253, -2.3978952727983707, -1.327453861096957, -0.9909816244757441,
            -2.174751721484161, -2.174751721484161, -2.174751721484161, -1.4816045409242156,
        ],
        ([71, 0, 0, 0], 4, 0, 0),
    ),
    ('g-and-k', 'recycle'): (
        [
            -46.35707210714608, -48.31284768512053, -47.55880656028795, -48.86126282975904,
            -46.94437063844433, -46.89449075881152, -46.80342091553311, -49.368816505580874,
            -48.2485753499017, -47.35963631112447, -47.64502787802514, -48.081062099552206,
            -47.68757245815903, -47.83815571644162, -47.918309291657316, -47.912384499362844,
            -47.07297628719665, -46.91572884888688, -48.5562035880638, -48.03771233779296,
        ],
        ([3368, 0, 0, 0], 2, 0, 0),
    ),
    ('g-and-k', 'simple'): (
        [
            -48.052095556099744, -48.53887321163655, -48.03132141233069, -48.84427364671653,
            -47.49742852778123, -49.41292883233412, -47.07892330015233, -46.73873987948358,
            -47.19545815204813, -48.64131819179414, -49.586141357589035, -47.806714313888556,
            -49.134639049039016, -47.80990594065737, -47.71670528817809, -48.17655027104666,
            -47.9362835020911, -48.05524743800701, -47.963629881433825, -49.56417736906534,
        ],
        ([65418, 0, 0, 0], 4, 0, 0),
    ),
    ('g-and-k', 'biased'): (
        [
            -47.55891572327205, -47.80199427610203, -47.46193317412548, -47.829060015144144,
            -47.7564316909213, -47.778465589332036, -47.68160584340544, -47.511964607963556,
            -47.96102711673898, -47.74792100319145, -47.44321067797015, -47.94244254447308,
            -47.83592176031502, -47.476121207646294, -47.54952479095629, -47.65174048313771,
            -47.67936975272361, -47.75567570605044, -47.75716349252059, -47.66403881517794,
        ],
        ([65418, 0, 0, 0], 4, 0, 0),
    ),
}

# Replicates per call of the batched pins: one pass of 10 replicates at
# 640 particles, so each kernel draws after all ten replicates' latents.
BATCH_SIZE = 10

# (problem, kind) -> (20 log values from two calls of size 10, generator
# position after them), laid out as PINS.
BATCHED_PINS = {
    ('g-and-k', 'recycle'): (
        [
            -46.27896920386818, -47.91906774697889, -47.312779465338544, -48.9882039111599,
            -47.28712163420615, -46.974890403621856, -46.67749823746578, -49.5695477551006,
            -48.075633689763016, -48.21143570980644, -47.72411302591792, -48.21167229354425,
            -47.76763675907838, -47.710731963349865, -47.81929088644278, -48.65631627416517,
            -46.75612835322353, -47.208592024271375, -48.44739335862203, -47.98772330987772,
        ],
        ([3368, 0, 0, 0], 4, 0, 0),
    ),
    ('poisson-beta', 'recycle'): (
        [
            -271.15055572600903, -269.13541655645474, -270.54925184028036, -269.8503254154847,
            -269.1878663301895, -270.14072994473514, -267.3202653781957, -268.962514173195,
            -269.9038352530515, -268.0136573322811, -269.89145373627196, -269.43541804292664,
            -267.5348614448851, -269.93698488878675, -269.0821541745635, -270.33228064274977,
            -270.01601120581057, -269.1518728688117, -269.0882839019387, -269.67653522158884,
        ],
        ([21085, 0, 0, 0], 1, 0, 0),
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


# The g-and-k observations of the ``CLI_PINS`` data file, one per line.
CLI_DATA = [
    2.5042861841365545, 2.0079807591352874, 2.8618428963572824, 6.497354243812709,
    1.4468535175606028, 10.849409477067516, 2.9004226033258047, 2.4092297033007926,
    4.898013360119266, 2.3270469683550488, 2.3247060539296798, 2.5373315360473905,
    2.5097462711123284, 3.8674464159384594, 5.2866186858388415, 2.4856675507357577,
    2.819755251594995, 3.5316098064717623, 1.3494226052394487, 2.6708476262224905,
]

# (kind, seed) pairs of the command-line pin.
CLI_CASES = [(kind, seed) for kind in ("recycle", "simple") for seed in (7, 8)]

# (kind, seed) -> sha256 of ``estimates.csv``.
CLI_PINS = {
    ('recycle', 7): 'c48838ed96155f6882c2b4c96646c95d6374b04ce8ac4eeb0d9f068ffaffb6f8',
    ('recycle', 8): '04e67bfd59e801f4a97fe4a6210a1af365e0cf8cacf40c01fcd39d0d6ec9a7df',
    ('simple', 7): 'aaf0169441bca77ca825ef13cf4ce81263a88c93a7e20dbec46cfb163223b550',
    ('simple', 8): '037fee852c4be8109d934654adbda5b0a09fc3c719c637d5c9717d07badd8c99',
}

# Small ``prodest mcmc`` runs with seed 7: the two-state chain tunes its
# particle count and refines its proposal over two pilot stages, and the
# g-and-k chain tunes at five observations and runs one pilot.
MCMC_CONFIGS = {
    "two-state": (
        "model = two-state\nestimator = recycle\ntarget = 0.3\ntune_replicates = 50\n"
        "chain_length = 200\npilot_length = 100\npilot_stages = 2\n"
    ),
    "g-and-k": (
        "model = gandk\nn_obs = 5\nestimator = recycle\ntune_replicates = 50\n"
        "chain_length = 200\npilot_length = 100\n"
    ),
}

# problem -> (sha256 of ``trace.csv``, sha256 of ``mcmc_summary.json``).
MCMC_PINS = {
    'two-state': (
        'b62fb590a8fc931007d8446f0aa1b80ac671d48b7bfc0f37a96416c91a00cbd1',
        '401b7d5a3bcd80bb0886a3650fe94d1a1da53a827ce2d33e6612aa6e2273d844',
    ),
    'g-and-k': (
        'a1f306c56cb83c3b671c8414af4be8a5de02a761e3bae43efb1c1482dee33c46',
        'dac836582ca82a710daf7414ff5abd6ac2099c81cc588dcb0f2315914b50ec1e',
    ),
}


def _stream(case, size=None):
    """The case's 20 log values and the generator's position after them.

    With ``size`` the values come from 20 / size calls of that size.
    """
    build, n_particles = CASES[case]
    model, theta, data = build()
    estimate = log_likelihood_estimator(model, data, case[1], n_particles)
    rng = make_stream(SEED, 2)
    if size is None:
        log_values = [estimate(theta, rng) for _ in range(20)]
    else:
        log_values = []
        for _ in range(20 // size):
            log_values += estimate(theta, rng, size).tolist()
    state = rng.bit_generator.state
    position = (
        state["state"]["counter"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )
    return log_values, position


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_log_likelihood_stream_pin(case):
    assert _stream(case) == PINS[case]


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_one_replicate_call_keeps_the_stream(case):
    # size=1 is a pass of one replicate: the scalar call's draws, in order.
    assert _stream(case, size=1) == PINS[case]


@pytest.mark.parametrize("case", sorted(BATCHED_PINS), ids="-".join)
def test_batched_stream_pin(case):
    assert _stream(case, BATCH_SIZE) == BATCHED_PINS[case]


def _cli_digest(kind, seed, work_dir):
    """sha256 of ``estimates.csv`` from ``prodest estimate`` on the CLI_DATA file."""
    (work_dir / "data.txt").write_text("".join(f"{value!r}\n" for value in CLI_DATA))
    config = work_dir / f"{kind}.cfg"
    config.write_text(
        "model = gandk\ntheta = 3.0, 1.0, 2.0, 0.5\ndata = data.txt\nepsilon = 0.2\n"
        f"estimator = {kind}\nn_particles = 640\n"
    )
    out = work_dir / f"out-{kind}-{seed}"
    argv = ["estimate", "--config", str(config), "--seed", str(seed), "--out", str(out),
            "--replicates", "10"]
    assert main(argv) == 0
    return hashlib.sha256((out / "estimates.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def test_cli_estimates_file_pin(case, tmp_path):
    assert _cli_digest(*case, tmp_path) == CLI_PINS[case]


def _mcmc_digests(problem, work_dir):
    """sha256 of ``trace.csv`` and ``mcmc_summary.json`` from the problem's mcmc run."""
    config = work_dir / f"{problem}.cfg"
    config.write_text(MCMC_CONFIGS[problem])
    out = work_dir / f"mcmc-{problem}"
    assert main(["mcmc", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "mcmc_summary.json")
    )


@pytest.mark.parametrize("problem", sorted(MCMC_CONFIGS))
def test_mcmc_files_pin(problem, tmp_path):
    assert _mcmc_digests(problem, tmp_path) == MCMC_PINS[problem]


def test_perm_pin_agrees_with_enumeration():
    # The two computations round differently, by a few ulps of the log value.
    pinned = PINS[("two-state", "perm")][0]
    assert pinned == pytest.approx(ENUMERATED_PERM, rel=1e-14)


def _print_pins(name, cases, size=None):
    print(f"{name} = {{")
    for case in cases:
        log_values, position = _stream(case, size)
        print(f"    {case!r}: (\n        [")
        for start in range(0, len(log_values), 4):
            print("            " + " ".join(f"{value!r}," for value in log_values[start : start + 4]))
        print(f"        ],\n        {position!r},\n    ),")
    print("}")


if __name__ == "__main__":
    # Print the current streams as PINS, BATCHED_PINS and CLI_PINS
    # literals, in the layout above, so that a deliberate re-recording is
    # one command and its diff shows which values moved:
    #     PYTHONPATH=src python tests/test_stream_pins.py
    _print_pins("PINS", CASES)
    _print_pins("BATCHED_PINS", BATCHED_PINS, BATCH_SIZE)
    print("CLI_PINS = {")
    with tempfile.TemporaryDirectory() as work_dir:
        for case in CLI_CASES:
            print(f"    {case!r}: {_cli_digest(*case, Path(work_dir))!r},")
    print("}")
    print("MCMC_PINS = {")
    with tempfile.TemporaryDirectory() as work_dir:
        for problem in MCMC_CONFIGS:
            print(f"    {problem!r}: (")
            for digest in _mcmc_digests(problem, Path(work_dir)):
                print(f"        {digest!r},")
            print("    ),")
    print("}")
