"""Shared Monte Carlo oracle for the split-detector tests, and the suite's
hypothesis profile.

A run takes p_right and the calibration once from the quadrature oracles on
a tabulated profile. Replica i draws its right-hand count from
``np.random.default_rng(base_seed + i)``, so a set of replicas is the same
however it is scheduled, and one ``split_estimate`` call turns all counts
into position estimates.
"""

import numpy as np
import pytest
from hypothesis import settings

from oracles import split_calibration_constant, split_probability
from wvfreq.noise import split_estimate

# Every property test draws the same examples on every run and stores none, so
# a failure found once cannot replay from a checkout's .hypothesis/ database
# and change the suite's count; each test keeps its own max_examples.
settings.register_profile("wvfreq", derandomize=True, database=None)
settings.load_profile("wvfreq")


def _replicated_estimates(x_grid, intensity, n_detected, n_reps, base_seed):
    p_right = split_probability(x_grid, intensity)
    calibration = split_calibration_constant(x_grid, intensity)
    n_right = np.array(
        [
            np.random.default_rng(base_seed + i).binomial(n_detected, p_right)
            for i in range(n_reps)
        ]
    )
    return split_estimate(n_right, n_detected, calibration)


def _std_error(x_grid, intensity, n_detected):
    """Standard deviation of one estimate: the binomial spread of the
    right-hand count, 2 sqrt(p (1 - p) / n), times the calibration."""
    p_right = split_probability(x_grid, intensity)
    calibration = split_calibration_constant(x_grid, intensity)
    return 2.0 * calibration * np.sqrt(p_right * (1.0 - p_right) / n_detected)


@pytest.fixture(scope="session")
def split_replicas():
    """``(x_grid, intensity, n_detected, n_reps, base_seed) -> estimates``."""
    return _replicated_estimates


@pytest.fixture(scope="session")
def split_std_error():
    """``(x_grid, intensity, n_detected) -> std of one estimate``."""
    return _std_error
