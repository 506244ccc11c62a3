"""Experiment recipes behind the CLI subcommands.

Each recipe runs one of the canonical measurements end to end on a resolved
configuration and returns plain data plus CSV text. A recipe that draws
records builds the request's one ``RecordPlan`` first, which runs every
configuration check, and then draws each record from it with its own
generator: sweep points are seeded ``seed + point_index`` and the spectrum's
undriven record ``seed + 1``, so the order of the draws never changes the
result. The sweep reads each point's record with the request's one
lock-in kernel, and weights its fit with the closed-form error of that
reading. The spectrum draws its undriven record's photon counts on a worker
thread while the calling thread synthesizes the driven record.
"""

from dataclasses import dataclass

import numpy as np

from .calibration import (
    fit_scan_calibration,
    load_reference_lines,
    propagate_calibration_error,
)
from .config import resolve, resolved_metadata
from .errors import SimulationError
from .interferometer import amplification_factor
from .noise import (
    ideal_sensitivity,
    measured_sensitivity,
    photon_number,
    shot_noise_snr,
    split_noise,
    usable_range,
    SensitivityReport,
)
from .signal_chain import (
    PhotonDraw,
    RecordPlan,
    lock_in_kernel,
    power_spectrum,
    slope_fit,
    synthesize_run,
    timeseries_to_csv,
)
from .units import csv_text, data_lines, finite_number, fmt


def _plan(physics, duration, **needs):
    """The request's record plan at the config's rate, photons, modulation and noise."""
    cfg = physics.config
    return RecordPlan.build(
        physics, duration, cfg.sample_rate, physics.n_photons_per_sample(), cfg.mod_frequency,
        physics.extensions, **needs,
    )


def _record(plan, dnu_peak, seed, ahead=None):
    """One raw record of the request, drawn from its plan by ``synthesize_run``."""
    return synthesize_run(
        dnu_peak, plan.duration, plan.sample_rate, plan.physics, plan.n_per_sample, seed,
        ahead=ahead or PhotonDraw(plan, dnu_peak, seed),
    )


@dataclass
class SlopeSweepResult:
    shifts: np.ndarray  # Hz
    deflections: np.ndarray  # m
    errors: np.ndarray  # m
    slope: float  # m/Hz
    slope_error: float  # m/Hz
    amplification: float
    metadata: dict


def run_slope_sweep(config):
    """Modulation-amplitude sweep read by a lock-in, with a weighted linear fit.

    Each point reads ``lock_in_kernel @ record.samples``. Its error, the fit's
    weight, is sqrt(2 / N_w) sigma_x over the N_w samples the lock-in reads.
    """
    physics = resolve(config)
    duration = (config.n_cycles + config.settle_cycles) * (1.0 / config.mod_frequency)
    spec = physics.filter_spec
    plan = _plan(physics, duration, filter_spec=spec)
    n_cycles, per_cycle = config.n_cycles, plan.per_cycle
    kernel = lock_in_kernel(spec, plan.sample_rate, plan.n_samples, per_cycle, n_cycles)
    shifts = config.sweep_shifts()
    deflections = np.empty(shifts.size)
    errors = np.empty(shifts.size)
    for i, dnu in enumerate(shifts):
        seed = config.seed + i
        try:
            draw = PhotonDraw(plan, dnu, seed)
            record = _record(plan, dnu, seed, ahead=draw)
        except SimulationError as exc:
            raise type(exc)(f"sweep point {i} (dnu={dnu:.6g} Hz): {exc}") from exc
        deflections[i] = kernel @ record.samples
        sigma_x = split_noise(
            plan.calibration, plan.n_detected, draw.profile, plan.dark_mean,
            plan.extensions.electronic_noise,
        )
        errors[i] = np.sqrt(2.0 / (n_cycles * per_cycle)) * sigma_x
    slope, slope_error = slope_fit(shifts, deflections, errors)
    metadata = resolved_metadata(physics)
    metadata["fitted_slope_m_per_hz"] = slope
    metadata["fitted_slope_error_m_per_hz"] = slope_error
    return SlopeSweepResult(
        shifts=shifts,
        deflections=deflections,
        errors=errors,
        slope=slope,
        slope_error=slope_error,
        amplification=amplification_factor(physics.state),
        metadata=metadata,
    )


def slope_sweep_csv(result):
    columns = ("dnu_hz", "deflection_m", "std_of_mean_m")
    return csv_text(result.metadata, columns, result.shifts, result.deflections, result.errors)


def run_spectrum_pair(config):
    """Driven and undriven raw-signal spectra on a shared dB reference."""
    physics = resolve(config)
    cfg = config
    plan = _plan(physics, cfg.spectrum_duration, segments=cfg.spectrum_segments)
    undriven = PhotonDraw(plan, 0.0, cfg.seed + 1)
    with undriven.drawn_ahead():
        driven = _record(plan, cfg.spectrum_dnu, cfg.seed)
    undriven = _record(plan, 0.0, cfg.seed + 1, ahead=undriven)
    spec_driven = power_spectrum(driven, segments=cfg.spectrum_segments)
    spec_undriven = power_spectrum(undriven, segments=cfg.spectrum_segments)
    # Re-reference both traces to the driven fundamental (0 dB).
    fundamental = np.argmin(np.abs(spec_driven.frequencies - cfg.mod_frequency))
    ref_db = spec_driven.power_db[fundamental]
    ref_power = spec_driven.ref_power * 10.0 ** (ref_db / 10.0)
    driven_db = spec_driven.power_db - ref_db
    undriven_db = spec_undriven.power_db + 10.0 * np.log10(
        spec_undriven.ref_power / ref_power
    )
    metadata = resolved_metadata(physics)
    metadata["resolution_bw_hz"] = spec_driven.resolution_bw
    metadata["ref_power"] = ref_power
    return spec_driven.frequencies, driven_db, undriven_db, metadata


def spectrum_pair_csv(frequencies, driven_db, undriven_db, metadata):
    columns = ("frequency_hz", "driven_db", "undriven_db")
    return csv_text(metadata, columns, frequencies, driven_db, undriven_db)


def run_sensitivity(config):
    """Ideal and scaled sensitivities, SNR at the minimum sweep point, range."""
    physics = resolve(config)
    cfg = config
    # The range first: it refuses a sigma wide enough to overflow the SNR terms.
    span = usable_range(physics.point, cfg.sigma, cfg.range_threshold)
    ideal = ideal_sensitivity(cfg.power, physics.point, cfg.sigma)
    min_shift = cfg.sweep_min
    scaled = measured_sensitivity(min_shift, cfg.integration_time)
    slope = physics.deflection_slope()
    delta_min = slope * min_shift
    n_tau = photon_number(cfg.power, physics.carrier, cfg.integration_time)
    snr = shot_noise_snr(n_tau, physics.carrier.wavenumber, cfg.sigma, delta_min)
    return SensitivityReport(
        snr=snr,
        min_deflection=delta_min,
        min_frequency_shift=min_shift,
        integration_time=cfg.integration_time,
        sensitivity_per_rt_hz=scaled,
        ideal_sensitivity_per_rt_hz=ideal,
        usable_range_hz=span.frequency_span,
        range_clamped=span.clamped,
    ), resolved_metadata(physics)


def sensitivity_csv(report, metadata):
    columns = (
        "snr", "min_deflection_rad", "min_frequency_shift_hz", "integration_time_s",
        "sensitivity_hz_rthz", "ideal_sensitivity_hz_rthz", "usable_range_hz", "range_clamped",
    )
    return csv_text(
        metadata, columns, report.snr, report.min_deflection, report.min_frequency_shift,
        report.integration_time, report.sensitivity_per_rt_hz,
        report.ideal_sensitivity_per_rt_hz, report.usable_range_hz, report.range_clamped,
    )


def sensitivity_text(report):
    ratio = report.sensitivity_per_rt_hz / report.ideal_sensitivity_per_rt_hz
    flag = " (clamped to material validity window)" if report.range_clamped else ""
    return (
        f"shot-noise SNR at {report.min_frequency_shift / 1e3:.1f} kHz, "
        f"{report.integration_time * 1e3:.0f} ms: {report.snr:.3f}\n"
        f"minimum deflection: {report.min_deflection:.4e} rad\n"
        f"sensitivity (scaled to 1 s): "
        f"{report.sensitivity_per_rt_hz / 1e3:.1f} kHz/sqrt(Hz)\n"
        f"ideal shot-noise sensitivity: "
        f"{report.ideal_sensitivity_per_rt_hz / 1e3:.1f} kHz/sqrt(Hz)\n"
        f"ratio to shot-noise limit: {ratio:.2f}\n"
        f"usable range: {report.usable_range_hz / 1e12:.2f} THz{flag}\n"
    )


def run_range(config):
    physics = resolve(config)
    span = usable_range(physics.point, config.sigma, config.range_threshold)
    return span, resolved_metadata(physics)


def run_simulate(config, dnu_peak, duration):
    """Raw time-series dump at one modulation amplitude."""
    physics = resolve(config)
    series = _record(_plan(physics, duration), dnu_peak, config.seed)
    metadata = resolved_metadata(physics)
    metadata["dnu_peak_hz"] = dnu_peak
    metadata["seed"] = config.seed
    return timeseries_to_csv(series, metadata)


def run_calibrate(positions_path, references_path=None, probe_value=None):
    """Fit a scan calibration from a positions file and a reference table."""
    positions = [
        finite_number(line.split(",")[0], where) for where, line in data_lines(positions_path)
    ]
    references = load_reference_lines(references_path)
    calibration = fit_scan_calibration(positions, references)
    lines = [
        f"slope_hz_per_unit = {fmt(calibration.slope)}",
        f"intercept_hz = {fmt(calibration.intercept)}",
        f"residual_rms_hz = {fmt(calibration.residual_rms)}",
        f"slope_error_hz_per_unit = {fmt(calibration.slope_error)}",
        f"fractional_slope_error = {fmt(calibration.fractional_slope_error)}",
    ]
    if probe_value is not None:
        err = propagate_calibration_error(calibration, probe_value)
        lines.append(f"propagated_error_hz_on_{fmt(probe_value)} = {fmt(err)}")
    return calibration, "\n".join(lines) + "\n"
