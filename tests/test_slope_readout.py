"""The sweep's lock-in readout over 64 seeds (seed 1000 s, s = 0..63).

Acceptance criterion 2 checks one seed's fit, which cannot tell a biased
readout from an unlucky seed. Over 64 seeds the mean fitted slope must lie
within 3 standard errors of 9.1 pm/MHz times the amplification, at the
default 10 Hz drive, at 5, 20 and 50 Hz, and at 30 and 100 Hz sample rates
(3 and 10 samples a drive cycle), and the
mean reported slope error within 15% of the slopes' spread, so that the
closed-form point errors that weight the fit are neither too small nor too
large. Each seed's sweep takes a few milliseconds.
"""

import functools

import numpy as np
import pytest

from wvfreq.config import ExperimentConfig
from wvfreq.recipes import run_slope_sweep

SEEDS = range(0, 64_000, 1000)
UNAMPLIFIED_SLOPE = 9.1e-18  # m/Hz, the default prism calibration


@functools.cache
def ensemble(**fields):
    """(amplification, fitted slopes, reported slope errors) over SEEDS."""
    headers = [run_slope_sweep(ExperimentConfig(seed=seed, **fields))[1] for seed in SEEDS]
    slopes = np.array([header["fitted_slope_m_per_hz"] for header in headers])
    errors = np.array([header["fitted_slope_error_m_per_hz"] for header in headers])
    return headers[0]["derived_amplification"], slopes, errors


NOISE = {
    "defaults": {},
    "electronic": {"electronic_noise": 1e-9},  # beside 1.5e-9 m of shot noise a sample
    # 1e11 dark counts a sample, beside 1.02e11 detected photons.
    "dark": {"dark_count_rate": 1e14},
}


# The lock-in reads the drive through the bandpass's unity gain and zero phase
# at its centre, which is the drive frequency whatever that is.
DRIVES = {f"drive-{f:g}Hz": {"mod_frequency": f} for f in (5.0, 20.0, 50.0)}
# Below the Nyquist frequency the bandpass's gain at its centre is 1 however
# few samples a cycle holds: these rates read the 10 Hz drive unbiased.
RATES = {f"rate-{r:g}Hz": {"sample_rate": r} for r in (30.0, 100.0)}


@pytest.mark.parametrize("case", ["defaults", "electronic", *DRIVES, *RATES])
def test_mean_slope_is_unbiased(case):
    amplification, slopes, _ = ensemble(**{**NOISE, **DRIVES, **RATES}[case])
    standard_error = slopes.std(ddof=1) / np.sqrt(slopes.size)
    expected = UNAMPLIFIED_SLOPE * amplification
    assert abs(slopes.mean() - expected) <= 3.0 * standard_error


@pytest.mark.parametrize("noise", sorted(NOISE))
def test_reported_error_matches_the_spread(noise):
    _, slopes, errors = ensemble(**NOISE[noise])
    assert errors.mean() == pytest.approx(slopes.std(ddof=1), rel=0.15, abs=0.0)
