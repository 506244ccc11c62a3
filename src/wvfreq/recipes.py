"""Experiment recipes behind the CLI subcommands.

Each recipe runs one of the canonical measurements end to end on a resolved
configuration. A table recipe (slope, spectrum, sensitivity, range) returns
its table, a dict from each CSV column name to its values in column order,
and the header metadata; ``table_csv`` writes that pair, so a column is
named once, where its values are computed. A recipe that draws
records builds the request's one ``RecordPlan`` first, which runs every
configuration check, and then draws each record by handing that plan to
``synthesize_run`` with the record's own seed: sweep points are seeded
``seed + point_index`` and the spectrum's undriven record ``seed + 1``, so
the order of the draws never changes the result. The sweep reads each
point's record with the request's one lock-in kernel, and weights its fit
with the closed-form error of that reading, from the ``split_profile`` the
record was drawn from. Every record is drawn on the calling thread.
"""

import numpy as np

from .calibration import (
    fit_scan_calibration,
    load_reference_lines,
    propagate_calibration_error,
)
from .config import resolve, resolved_metadata
from .errors import SimulationError, ValidationError
from .noise import (
    ideal_sensitivity,
    measured_sensitivity,
    photon_number,
    shot_noise_snr,
    split_noise,
    usable_range,
)
from .signal_chain import (
    RecordPlan,
    lock_in_kernel,
    power_spectrum,
    slope_fit,
    split_profile,
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


def _record(plan, dnu_peak, seed):
    """One raw record of the request, drawn from its plan by ``synthesize_run``."""
    return synthesize_run(
        dnu_peak, plan.duration, plan.sample_rate, plan.physics, plan.n_per_sample, seed,
        plan=plan,
    )


def table_csv(result):
    """A recipe's (table, metadata) as CSV text, its columns in the table's order."""
    table, metadata = result
    return csv_text(metadata, tuple(table), *table.values())


def run_slope_sweep(config):
    """Modulation-amplitude sweep read by a lock-in, with a weighted linear fit.

    Returns the sweep's table, a dict from each CSV column to its values in
    column order, and its metadata, which carries the fitted slope and its
    error. Each point reads ``lock_in_kernel @ record.samples``. Its error,
    the fit's weight, is sqrt(2 / N_w) sigma_x over the N_w samples the
    lock-in reads. The points are drawn from the largest shift down: the
    shifts are >= 0, so every point's drive lies within the largest's, and a
    kick or wavelength that only the config decides is refused before the
    first photon, as is a sweep whose shifts are all one value, which has no
    slope.
    """
    if config.sweep_min == config.sweep_max:
        raise ValidationError(
            f"sweep_min and sweep_max are both {config.sweep_min} Hz: a sweep of one "
            "shift has no slope"
        )
    physics = resolve(config)
    duration = (config.n_cycles + config.settle_cycles) * (1.0 / config.mod_frequency)
    spec = physics.filter_spec
    plan = _plan(physics, duration, filter_spec=spec)
    n_cycles, per_cycle = config.n_cycles, plan.per_cycle
    kernel = lock_in_kernel(spec, plan.sample_rate, plan.n_samples, per_cycle, n_cycles)
    shifts = config.sweep_shifts()
    deflections = np.empty(shifts.size)
    errors = np.empty(shifts.size)
    for i in np.argsort(shifts, kind="stable")[::-1].tolist():
        dnu = shifts[i]
        try:
            record = _record(plan, dnu, config.seed + i)
        except SimulationError as exc:
            raise type(exc)(f"sweep point {i} (dnu={dnu:.6g} Hz): {exc}") from exc
        deflections[i] = kernel @ record.samples
        sigma_x = split_noise(
            plan.calibration, plan.n_detected, split_profile(plan, dnu), plan.dark_mean,
            plan.extensions.electronic_noise,
        )
        errors[i] = np.sqrt(2.0 / (n_cycles * per_cycle)) * sigma_x
    slope, slope_error = slope_fit(shifts, deflections, errors)
    metadata = resolved_metadata(physics)
    metadata["fitted_slope_m_per_hz"] = slope
    metadata["fitted_slope_error_m_per_hz"] = slope_error
    return {"dnu_hz": shifts, "deflection_m": deflections, "std_of_mean_m": errors}, metadata


def slope_sweep_csv(result):
    """``table_csv`` under its own name, which ``bench/workloads.py`` times."""
    return table_csv(result)


def run_spectrum_pair(config):
    """Driven and undriven raw-signal spectra on a shared dB reference: the
    table and its metadata, as ``run_slope_sweep`` returns them.

    Each record's periodogram is taken before the next record is drawn, so
    the transform's temporaries never sit beside both records. The plan has
    already refused what it would refuse, and each record has its own seed,
    so the order changes no byte.
    """
    physics = resolve(config)
    cfg = config
    plan = _plan(physics, cfg.spectrum_duration, segments=cfg.spectrum_segments)
    spec_driven = power_spectrum(_record(plan, cfg.spectrum_dnu, cfg.seed), cfg.spectrum_segments)
    spec_undriven = power_spectrum(_record(plan, 0.0, cfg.seed + 1), cfg.spectrum_segments)
    # Re-reference both traces to the driven fundamental (0 dB).
    fundamental = np.argmin(np.abs(spec_driven.frequencies - cfg.mod_frequency))
    ref_db = spec_driven.power_db[fundamental]
    ref_power = spec_driven.ref_power * 10.0 ** (ref_db / 10.0)
    driven_db = spec_driven.power_db - ref_db
    undriven_db = spec_undriven.power_db + 10.0 * np.log10(spec_undriven.ref_power / ref_power)
    metadata = resolved_metadata(physics)
    metadata["resolution_bw_hz"] = spec_driven.resolution_bw
    metadata["ref_power"] = ref_power
    return {
        "frequency_hz": spec_driven.frequencies, "driven_db": driven_db, "undriven_db": undriven_db
    }, metadata


def spectrum_pair_csv(result):
    """``table_csv`` under its own name, which ``bench/workloads.py`` times."""
    return table_csv(result)


def run_sensitivity(config):
    """The sensitivity report's one-row table and its metadata.

    The row holds the shot-noise SNR and deflection at the minimum sweep
    point, the scaled and ideal sensitivities and the usable range.
    ``sensitivity_csv`` and ``sensitivity_text`` both read it, so a figure is
    named once.
    """
    physics = resolve(config)
    cfg = config
    # The range first: it refuses a sigma wide enough to overflow the SNR terms.
    span = usable_range(physics.point, cfg.sigma, cfg.range_threshold)
    ideal = ideal_sensitivity(cfg.power, physics.point, cfg.sigma)
    scaled = measured_sensitivity(cfg.sweep_min, cfg.integration_time)
    delta_min = physics.deflection_slope() * cfg.sweep_min
    n_tau = photon_number(cfg.power, physics.carrier, cfg.integration_time)
    return {
        "snr": shot_noise_snr(n_tau, physics.carrier.wavenumber, cfg.sigma, delta_min),
        "min_deflection_rad": delta_min,
        "min_frequency_shift_hz": cfg.sweep_min,
        "integration_time_s": cfg.integration_time,
        "sensitivity_hz_rthz": scaled,
        "ideal_sensitivity_hz_rthz": ideal,
        "usable_range_hz": span.frequency_span,
        "range_clamped": span.clamped,
    }, resolved_metadata(physics)


def sensitivity_csv(result):
    """``table_csv`` under its own name, which ``bench/workloads.py`` times."""
    return table_csv(result)


def sensitivity_text(result):
    row = result[0]
    ratio = row["sensitivity_hz_rthz"] / row["ideal_sensitivity_hz_rthz"]
    flag = " (clamped to material validity window)" if row["range_clamped"] else ""
    return (
        f"shot-noise SNR at {row['min_frequency_shift_hz'] / 1e3:.1f} kHz, "
        f"{row['integration_time_s'] * 1e3:.0f} ms: {row['snr']:.3f}\n"
        f"minimum deflection: {row['min_deflection_rad']:.4e} rad\n"
        f"sensitivity (scaled to 1 s): {row['sensitivity_hz_rthz'] / 1e3:.1f} kHz/sqrt(Hz)\n"
        f"ideal shot-noise sensitivity: "
        f"{row['ideal_sensitivity_hz_rthz'] / 1e3:.1f} kHz/sqrt(Hz)\n"
        f"ratio to shot-noise limit: {ratio:.2f}\n"
        f"usable range: {row['usable_range_hz'] / 1e12:.2f} THz{flag}\n"
    )


def run_range(config):
    """The usable-range report's one-row table and its metadata."""
    physics = resolve(config)
    span = usable_range(physics.point, config.sigma, config.range_threshold)
    row = {"usable_range_hz": span.frequency_span, "clamped": span.clamped}
    return row, resolved_metadata(physics)


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
