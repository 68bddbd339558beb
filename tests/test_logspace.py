import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import prodest
from prodest.logspace import _logsumexp, log_mean_exp


finite_logs = st.lists(
    st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=12
)


@given(finite_logs)
def test_log_mean_exp_matches_direct(values):
    direct = math.log(np.mean(np.exp(values)))
    assert log_mean_exp(np.array(values)) == pytest.approx(direct, rel=1e-12)


def test_log_mean_exp_handles_large_magnitudes():
    # Would overflow if exponentiated directly.
    values = np.array([1000.0, 1000.0 + math.log(3.0)])
    assert log_mean_exp(values) == pytest.approx(1000.0 + math.log(2.0), rel=1e-14)


def test_log_mean_exp_all_zero_terms():
    assert log_mean_exp(np.array([-math.inf, -math.inf])) == -math.inf


# A few values drawn many times, so the maximum is often tied, plus -inf
# (a zero term) and magnitudes that overflow exp.
log_terms = st.lists(
    st.one_of(
        st.sampled_from([-math.inf, -700.0, -1.5, 0.0, 0.25, 3.0, 800.0]),
        st.floats(min_value=-1e4, max_value=1e4),
    ),
    min_size=1,
    max_size=40,
)


@given(log_terms)
@example([2.0, 2.0, 2.0])  # every term ties at the maximum
@example([1.0, 7.5, 7.5, -math.inf])
@example([-math.inf])
@example([-math.inf] * 4)  # all zero
@settings(max_examples=500)
def test_logsumexp_matches_scipy_bit_for_bit(values):
    values = np.array(values)
    assert _logsumexp(values) == scipy_logsumexp(values)


def test_package_import_leaves_scipy_out():
    # scipy is a test dependency only; importing it would double the
    # package's resident memory.
    source = str(Path(prodest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, prodest, prodest.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"
