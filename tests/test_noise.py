import itertools

import numpy as np
import pytest
import scipy.constants
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from oracles import dark_port_grid, dark_port_profile, split_calibration_constant
from wvfreq import dispersion, noise
from wvfreq.config import ExperimentConfig, resolve
from wvfreq.dispersion import OpticalCarrier, kick_of_shift
from wvfreq.errors import NumericalError, ValidationError
from wvfreq.noise import (
    SensitivityReport,
    ideal_sensitivity,
    measured_sensitivity,
    photon_number,
    shot_noise_snr,
    split_estimate,
    split_noise,
    usable_range,
)
from wvfreq.signal_chain import NoiseExtensions, RecordPlan, split_profile, synthesize_run

SIGMA = 388e-6


@pytest.fixture(scope="module")
def physics():
    return resolve(ExperimentConfig())


@pytest.fixture(scope="module")
def carrier():
    return OpticalCarrier(780e-9)


class TestPhotonNumber:
    def test_literal_constants_are_exact(self):
        assert dispersion.SPEED_OF_LIGHT == scipy.constants.c
        assert noise.PLANCK == scipy.constants.h
        # noise takes c from dispersion rather than holding a second copy.
        assert noise.SPEED_OF_LIGHT is dispersion.SPEED_OF_LIGHT

    def test_zero_power(self, carrier):
        assert photon_number(0.0, carrier, 1.0) == 0.0

    def test_two_milliwatt_one_second(self, carrier):
        n = photon_number(2e-3, carrier, 1.0)
        assert n == pytest.approx(7.85e15, rel=1e-3)
        assert n == pytest.approx(7853221845366628.0, rel=1e-12)

    def test_thirty_millisecond_scaling(self, carrier):
        assert photon_number(2e-3, carrier, 0.03) == pytest.approx(2.36e14, rel=2e-3)
        assert photon_number(2e-3, carrier, 0.03) == pytest.approx(
            0.03 * photon_number(2e-3, carrier, 1.0), rel=1e-12
        )

    def test_validation(self, carrier):
        with pytest.raises(ValidationError, match="power"):
            photon_number(-1.0, carrier, 1.0)
        with pytest.raises(ValidationError, match="integration time"):
            photon_number(1e-3, carrier, 0.0)


class TestShotNoiseSnr:
    def test_zero_photons(self, carrier):
        assert shot_noise_snr(0.0, carrier.wavenumber, SIGMA, 1e-11) == 0.0

    def test_sqrt_scaling(self, carrier):
        r1 = shot_noise_snr(1e14, carrier.wavenumber, SIGMA, 1e-11)
        r4 = shot_noise_snr(4e14, carrier.wavenumber, SIGMA, 1e-11)
        assert r4 == pytest.approx(2 * r1, rel=1e-12)

    def test_operating_point_743khz(self, physics, carrier):
        # Cross-check: the shot-noise SNR at the minimum sweep point equals
        # the scaled-to-1s sensitivity over the ideal sensitivity.
        n = photon_number(2e-3, carrier, 0.03)
        delta = physics.deflection_slope() * 743e3
        snr = shot_noise_snr(n, carrier.wavenumber, SIGMA, delta)
        assert snr == pytest.approx(1.917, abs=0.01)
        ratio = measured_sensitivity(743e3, 0.03) / ideal_sensitivity(
            2e-3, physics.point, SIGMA
        )
        assert snr == pytest.approx(ratio, rel=1e-9)


class TestSensitivities:
    def test_ideal_published_value(self, physics):
        sens = ideal_sensitivity(2e-3, physics.point, SIGMA)
        assert sens == pytest.approx(67e3, rel=0.05)
        assert sens == pytest.approx(67129.18745499518, rel=1e-9)

    def test_ideal_power_scaling(self, physics):
        base = ideal_sensitivity(2e-3, physics.point, SIGMA)
        assert ideal_sensitivity(8e-3, physics.point, SIGMA) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_ideal_sigma_scaling(self, physics):
        base = ideal_sensitivity(2e-3, physics.point, SIGMA)
        assert ideal_sensitivity(2e-3, physics.point, 2 * SIGMA) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_measured_published_value(self):
        assert measured_sensitivity(743e3, 0.03) == pytest.approx(129e3, rel=0.01)

    def test_measured_identity_at_one_second(self):
        assert measured_sensitivity(5e5, 1.0) == 5e5

    def test_measured_tau_scaling(self):
        assert measured_sensitivity(5e5, 0.12) == pytest.approx(
            2 * measured_sensitivity(5e5, 0.03), rel=1e-12
        )

    def test_measured_min_shift_scaling(self):
        assert measured_sensitivity(2.5e5, 0.03) == pytest.approx(
            measured_sensitivity(5e5, 0.03) / 2, rel=1e-12
        )

    def test_zero_power_unreachable(self, physics):
        with pytest.raises(ValidationError):
            ideal_sensitivity(0.0, physics.point, SIGMA)

    def test_report_invariant(self):
        with pytest.raises(ValidationError):
            SensitivityReport(
                snr=1.0,
                min_deflection=1e-11,
                min_frequency_shift=743e3,
                integration_time=0.03,
                sensitivity_per_rt_hz=999.0,  # inconsistent with shift * sqrt(tau)
                ideal_sensitivity_per_rt_hz=67e3,
                usable_range_hz=5e12,
                range_clamped=False,
            )


def usable_range_root_finds():
    """(cfg, physics, excess, edge) of the usable-range root find on a grid of
    288 configs: 2 materials x 3 wavelengths x 4 sigmas x 4 thresholds x 3
    path lengths. Configs whose kick stays below threshold up to the edge are
    skipped."""
    grid = itertools.product(
        ("fused_silica", "bk7"),
        (633e-9, 780e-9, 1550e-9),
        (0.1e-3, 0.388e-3, 1e-3, 5e-3),
        (0.05, 0.2, 0.35, 0.5),
        (0.05, 0.27, 2.0),
    )
    for material, wavelength, sigma, threshold, path_length in grid:
        cfg = ExperimentConfig(
            material=material, wavelength=wavelength, sigma=sigma,
            range_threshold=threshold, path_length=path_length,
        )
        physics = resolve(cfg)

        def excess(dnu, physics=physics, sigma=sigma, threshold=threshold):
            delta = dispersion.dispersive_deflection(physics.point, dnu)
            return dispersion.momentum_kick(delta, physics.carrier) * sigma - threshold

        edge = dispersion.SPEED_OF_LIGHT / physics.point.prism.material.valid_range[0]
        edge = (edge - physics.carrier.frequency) * (1.0 - 1e-12)
        if excess(edge) >= 0.0:
            yield cfg, physics, excess, edge


class TestUsableRange:
    def test_closed_form_matches_oracles(self):
        # The kick map crosses the threshold within 1e-11 relative of the
        # closed-form span, and scipy's brentq on it lands there too.
        compared = 0
        for cfg, physics, excess, edge in usable_range_root_finds():
            result = usable_range(physics.point, cfg.sigma, cfg.range_threshold)
            assert not result.clamped, cfg
            span = result.frequency_span
            tol = 1e-11 * span
            assert excess(span - tol) < 0.0 <= excess(span + tol), cfg
            root = brentq(excess, 0.0, edge, xtol=1e-3, rtol=1e-12, maxiter=500)
            assert abs(span - root) <= tol, cfg
            compared += 1
        assert compared == 288  # no config of the grid is clamped

    def test_published_range(self, physics, carrier):
        span = usable_range(physics.point, SIGMA, threshold=0.5)
        assert not span.clamped
        assert span.frequency_span == pytest.approx(5e12, rel=0.30)

    def test_tiny_threshold(self, physics, carrier):
        span = usable_range(physics.point, SIGMA, threshold=1e-9)
        assert span.frequency_span < 1e5

    def test_small_step_keeps_relative_precision(self, physics, carrier):
        # Far below the kHz scale the span is linear in the index step, so
        # 1000x less threshold gives 1000x less span, down to a few Hz.
        spans = [
            usable_range(physics.point, SIGMA, th).frequency_span
            for th in (1e-9, 1e-12)
        ]
        assert spans[0] == pytest.approx(1000.0 * spans[1], rel=1e-6)

    def test_threshold_validation(self, physics, carrier):
        # Above KICK_SIGMA_LIMIT the range would name drives the kernel refuses.
        for threshold in (0.0, np.nextafter(0.5, 1.0), 1.0):
            with pytest.raises(ValidationError, match=r"threshold must lie in \(0, 0.5\]"):
                usable_range(physics.point, SIGMA, threshold=threshold)

    def test_sigma_scaling(self, physics, carrier):
        base = usable_range(physics.point, SIGMA, 0.5).frequency_span
        halved = usable_range(physics.point, SIGMA / 2, 0.5).frequency_span
        assert halved == pytest.approx(2 * base, rel=0.05)
        assert halved > base  # monotone decreasing in sigma

    def test_threshold_monotonicity(self, physics, carrier):
        spans = [
            usable_range(physics.point, SIGMA, th).frequency_span
            for th in (0.1, 0.3, 0.5)
        ]
        assert spans[0] < spans[1] < spans[2]

    def test_wide_beam_short_path(self):
        # A bracketed root find on this config takes 110 Brent iterations.
        cfg = ExperimentConfig(sigma=5e-3, range_threshold=0.2, path_length=0.05)
        physics = resolve(cfg)
        span = usable_range(physics.point, cfg.sigma, cfg.range_threshold)
        assert span.frequency_span == pytest.approx(2.728e10, rel=1e-3)

    @pytest.mark.parametrize(
        "sigma,threshold",
        [(1e300, 0.5), (1e294, 0.5), (1e26, 0.5), (SIGMA, 1e-300), (1e300, 1e-30)],
    )
    def test_root_below_frequency_resolution(self, physics, sigma, threshold):
        # np.roots returns the cubic's smallest root as 0 below an index step
        # of about 1.5e-33, and a span of -0 Hz gives no step back. At
        # (1e300, 1e-30) the step itself underflows to 0.
        with pytest.raises(NumericalError, match="usable range not resolved: the root -0 Hz"):
            usable_range(physics.point, sigma, threshold=threshold)

    @pytest.mark.parametrize("sigma,expected", [(1e10, 0.184165), (1e20, 1.84165e-11)])
    def test_wide_beam_span_round_trips(self, physics, sigma, expected):
        # The index step at sigma = 1e10 m is 6.8e-18, below one ulp of n0;
        # the closed-form forward map still gives it back.
        span = usable_range(physics.point, sigma, threshold=0.5)
        assert not span.clamped
        assert span.frequency_span == pytest.approx(expected, rel=1e-5)
        kick = kick_of_shift(physics.point, span.frequency_span)
        assert kick * sigma == pytest.approx(0.5, rel=1e-12)

    def test_clamped_at_validity_edge(self, physics, carrier):
        # A needle-thin beam never reaches the kick bound inside the window.
        span = usable_range(physics.point, 1e-9, threshold=0.5)
        assert span.clamped


def gaussian_profile(sigma=SIGMA, n=4097, half_width=8.0):
    x = np.linspace(-half_width * sigma, half_width * sigma, n)
    profile = np.exp(-(x**2) / (2 * sigma**2))
    profile /= np.trapezoid(profile, x)
    return x, profile


def sample_positions(x_grid, intensity, n, rng):
    """Inverse-CDF photon positions from a tabulated profile (linear
    interpolation): the per-photon oracle for the binomial count law."""
    cdf = cumulative_trapezoid(intensity, x_grid, initial=0.0)
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, x_grid)


def per_photon_right_counts(x_grid, intensity, n, n_reps, base_seed):
    """Right-hand counts of ``sample_positions`` photons, replica i seeded
    base_seed + i. A photon lands at x > 0 exactly when its uniform variate
    exceeds CDF(0), so the count skips the interpolation."""
    cdf = cumulative_trapezoid(intensity, x_grid, initial=0.0)
    cdf_at_split = np.interp(0.0, x_grid, cdf / cdf[-1])
    return np.array(
        [
            np.count_nonzero(np.random.default_rng(base_seed + i).random(n) > cdf_at_split)
            for i in range(n_reps)
        ]
    )


class TestSplitDetection:
    def test_symmetric_profile_unbiased(self, split_replicas):
        x, profile = gaussian_profile()
        estimates = split_replicas(x, profile, 10_000, 200, base_seed=42)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean()) <= 3 * se

    def test_calibration_constant_gaussian(self):
        x, profile = gaussian_profile()
        constant = split_calibration_constant(x, profile)
        assert constant == pytest.approx(SIGMA * np.sqrt(np.pi / 2), rel=1e-6)

    def test_variance_scaling(self, split_replicas):
        # The 1/N variance law over four decades of photon number.
        x, profile = gaussian_profile()
        variances = {}
        for n in (10_000, 1_000_000, 100_000_000):
            est = split_replicas(x, profile, n, 200, base_seed=7)
            variances[n] = est.var(ddof=1)
        assert variances[10_000] / variances[1_000_000] == pytest.approx(100, rel=0.30)
        assert variances[1_000_000] / variances[100_000_000] == pytest.approx(
            100, rel=0.30
        )

    def test_threshold_count_matches_positions(self, physics):
        # The shortcut in per_photon_right_counts counts the same photons
        # as drawing every position, on a kicked (asymmetric) profile.
        state = physics.state
        x = dark_port_grid(state)
        profile = dark_port_profile(0.2 / state.beam.sigma, state, x)
        for seed in range(10):
            positions = sample_positions(
                x, profile, 200_000, np.random.default_rng(seed)
            )
            counted = per_photon_right_counts(x, profile, 200_000, 1, base_seed=seed)
            assert counted[0] == np.count_nonzero(positions > 0.0)

    def test_both_paths_same_law(self, split_replicas):
        # Per-photon placement and the binomial kernel on the same problem;
        # variances must agree.
        x, profile = gaussian_profile()
        n = 200_000
        positions = split_estimate(
            per_photon_right_counts(x, profile, n, 400, base_seed=11),
            n,
            split_calibration_constant(x, profile),
        )
        counts = split_replicas(x, profile, n, 400, base_seed=11)
        assert counts.var(ddof=1) == pytest.approx(positions.var(ddof=1), rel=0.25)

    def test_std_error_estimate(self, split_std_error):
        x, profile = gaussian_profile()
        predicted = SIGMA * np.sqrt(np.pi / 2) / np.sqrt(1_000_000)
        assert split_std_error(x, profile, 1_000_000) == pytest.approx(predicted, rel=0.01)

    def test_deterministic(self, split_replicas):
        x, profile = gaussian_profile()
        a = split_replicas(x, profile, 50_000, 1, base_seed=9)
        b = split_replicas(x, profile, 50_000, 1, base_seed=9)
        assert np.array_equal(a, b)

    def test_estimate_is_elementwise(self):
        n_right = np.array([0, 250, 500, 1000])
        estimates = split_estimate(n_right, 1000, 2e-4)
        assert estimates == pytest.approx([-2e-4, -1e-4, 0.0, 2e-4], rel=1e-15, abs=0)
        singles = [split_estimate(int(r), 1000, 2e-4) for r in n_right]
        assert np.array_equal(estimates, singles)

    def test_simulated_ratio_to_shot_noise_limit(self, physics, split_std_error):
        # With no extra noise the simulated apparatus sits at the shot-noise
        # limit (ratio ~ 1); adding per-sample electronic noise at sqrt(3)x
        # the shot level degrades it to ~ 2, the parameter study behind a
        # near-quantum-limited instrument.
        tau = 0.03
        fs = 1000.0
        n_avg = int(tau * fs)
        slope_m_per_hz = (
            2 * kick_of_shift(physics.point, 1e6) * SIGMA**2
            / np.tan(physics.state.phi / 2) / 1e6
        )
        ideal = ideal_sensitivity(2e-3, physics.point, SIGMA)
        n_per_sample = physics.n_photons_per_sample()

        def simulated_ratio(extensions, seed):
            series = synthesize_run(
                0.0, 30.0, fs, physics, n_per_sample, seed, extensions=extensions
            )
            blocks = series.samples.reshape(-1, n_avg).mean(axis=1)
            min_shift = blocks.std(ddof=1) / slope_m_per_hz
            return measured_sensitivity(min_shift, tau) / ideal

        assert simulated_ratio(None, seed=60) == pytest.approx(1.0, rel=0.10)
        shot_std = split_std_error(
            *gaussian_profile(),
            int(round(np.sin(physics.state.phi / 2) ** 2 * n_per_sample)),
        )
        noisy = NoiseExtensions(electronic_noise=np.sqrt(3) * shot_std)
        assert simulated_ratio(noisy, seed=61) == pytest.approx(2.0, rel=0.15)

    def test_monte_carlo_matches_snr_formula(self, physics, split_replicas):
        # Empirical SNR of the estimator vs the closed-form shot-noise SNR,
        # at one (phi, shift) point; the full grid runs in the acceptance suite.
        state = physics.state
        n_injected = 1e8
        shift = 9.5e9
        k = kick_of_shift(physics.point, shift)
        x = dark_port_grid(state)
        profile = dark_port_profile(k, state, x)
        p_ps = np.sin(state.phi / 2) ** 2
        n_detected = int(round(p_ps * n_injected))
        estimates = split_replicas(x, profile, n_detected, 4000, base_seed=123)
        empirical = estimates.mean() / estimates.std(ddof=1)
        formula = shot_noise_snr(
            n_injected,
            physics.carrier.wavenumber,
            state.beam.sigma,
            physics.deflection_slope() * shift,
        )
        assert empirical == pytest.approx(formula, rel=0.05)


class TestSplitNoise:
    def test_shot_noise_at_the_dark_port(self):
        # An even split: sigma_x = c / sqrt(n), the estimate's binomial spread.
        c, n = 4.86e-4, 102_091_883_990
        assert split_noise(c, n, 0.5) == pytest.approx(c / np.sqrt(n), rel=1e-15, abs=0.0)
        assert split_noise(c, n, np.full(7, 0.5), 0.0, 3e-9) == pytest.approx(
            np.hypot(c / np.sqrt(n), 3e-9), rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize(
        "e,k", [(0.0, 600), (3e-9, 600), (3e-9, -600), (1e100, 600), (1e300, -600)]
    )
    def test_scaling_c_and_sigma_e_by_a_power_of_two_is_exact(self, e, k):
        # The sum of squares is taken at the scale of the larger term, so
        # sigma_e^2 overflows nowhere and a power of two moves no bit.
        c, n, p = 4.86e-4, 102_091_883_990, np.array([0.3, 0.5, 0.6])
        sigma = split_noise(c, n, p, 1e3, e)
        assert np.isfinite(sigma) and sigma >= e
        assert split_noise(np.ldexp(c, k), n, p, 1e3, np.ldexp(e, k)) == np.ldexp(sigma, k)

    @pytest.mark.parametrize(
        "extensions",
        [
            NoiseExtensions(),
            NoiseExtensions(electronic_noise=1e-9),
            # 1e11 dark counts a sample, beside 1.02e11 detected photons.
            NoiseExtensions(dark_count_rate=1e14),
            NoiseExtensions(electronic_noise=1e-9, dark_count_rate=1e14),
        ],
        ids=["shot", "electronic", "dark", "both"],
    )
    def test_matches_an_undriven_record(self, physics, extensions):
        # 10^4 samples: the spread of their standard deviation is 0.7%.
        plan = RecordPlan.build(
            physics, 10.0, 1000.0, physics.n_photons_per_sample(), 10.0, extensions
        )
        record = synthesize_run(
            0.0, 10.0, 1000.0, physics, plan.n_per_sample, seed=41, extensions=extensions
        )
        predicted = split_noise(
            plan.calibration, plan.n_detected, 0.5, plan.dark_mean, extensions.electronic_noise
        )
        assert record.samples.std(ddof=1) == pytest.approx(predicted, rel=0.03, abs=0.0)

    def test_driven_variance_averages_over_the_phases(self, physics):
        # A 1 THz drive swings p from 0.10 to 0.90, so 4 p (1 - p) averages
        # 0.57 over a cycle: the spread about each phase's mean follows the
        # averaged variance, not the even split's.
        plan = RecordPlan.build(
            physics, 10.0, 1000.0, physics.n_photons_per_sample(), 10.0, NoiseExtensions()
        )
        record = synthesize_run(1e12, 10.0, 1000.0, physics, plan.n_per_sample, 42, plan=plan)
        profile = split_profile(plan, 1e12)
        mean = plan.calibration * (2.0 * np.tile(profile, 100) - 1.0)
        predicted = split_noise(plan.calibration, plan.n_detected, profile)
        assert (record.samples - mean).std() == pytest.approx(predicted, rel=0.03, abs=0.0)
        assert predicted < 0.8 * split_noise(plan.calibration, plan.n_detected, 0.5)
