"""Reference implementations the tests check the package against.

The package computes the split detector and the dark-port centroid in
closed form. The oracles here evaluate the same quantities by trapezoid
quadrature on a tabulated detector-plane profile, or write out the formula
a test compares against; the Sellmeier index steps are summed in exact
rational arithmetic. The bandpass, which the package evaluates in closed
form on the unit circle and applies on an FFT grid, is checked against the
stage's (b, a) from ``scipy.signal.bilinear``: its response through
``freqz`` and the recursion through ``lfilter``. The record synthesis,
which evaluates the dark-port kernel over one period of the sampled drive
and draws the photon counts in phase order, in blocks written through a
strided view, is checked against a per-sample evaluation and one
whole-record draw in that order, taken through a sort of the sample
indices, and the spectrum pair against both records synthesized that way
one after the other. The periodogram, one batched transform of the record's
(segments, segment length) view, is checked against one transform per
segment, summed in a loop.
The CSV writer, which formats a block of cells in numpy, is checked against
a per-row f-string writer, and the reader, which parses cells as integers
and scales them, against one ``np.fromstring`` call on the whole body. None
is used by a request.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.integrate import trapezoid
from scipy.signal import bilinear, freqz, lfilter

from wvfreq.config import resolve, resolved_metadata
from wvfreq.dispersion import SPEED_OF_LIGHT, kick_of_shift, sellmeier_index
from wvfreq.errors import DarkPortEmptyError, GrazingIncidenceError, ValidationError
from wvfreq.interferometer import (
    DEFAULT_GRID_HALF_WIDTH,
    dark_port_split_calibration,
    dark_port_split_probability,
    weak_value_magnitude,
)
from wvfreq.noise import split_estimate
from wvfreq.signal_chain import (
    ModulationConfig,
    NoiseExtensions,
    RecordPlan,
    STAGE_Q,
    Spectrum,
    TimeSeries,
    hann_window,
    modulation_period,
    power_spectrum,
    segment_length,
)
from wvfreq.units import fmt

DEFAULT_GRID_POINTS = 4097  # tail error of the +-8 sigma grid ~ exp(-32)


def dark_port_grid(state, n_points=DEFAULT_GRID_POINTS, half_width=DEFAULT_GRID_HALF_WIDTH):
    """Symmetric detector-plane grid covering +-half_width*sigma."""
    span = half_width * state.beam.sigma
    return np.linspace(-span, span, n_points)


def dark_port_profile(k, state, x_grid, background_fraction=0.0):
    """Normalized dark-port intensity samples on ``x_grid`` (unit trapezoid
    integral).

    A nonzero ``background_fraction`` beta mixes in a uniform floor carrying
    beta of the input light (relative to the sin^2(phi/2) dark-port share),
    standing in for stray light from imperfect optics.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size < 2 or np.any(np.diff(x_grid) <= 0):
        raise ValidationError("x_grid must be a strictly increasing 1-D array")
    if background_fraction < 0:
        raise ValidationError("background fraction must be >= 0")
    p_ps = np.sin(state.phi / 2.0) ** 2
    w_dark = p_ps / (p_ps + background_fraction) if background_fraction else 1.0
    envelope = np.exp(-(x_grid**2) / (2.0 * state.beam.sigma**2))
    intensity = np.sin(k * x_grid + state.phi / 2.0) ** 2 * envelope
    norm = trapezoid(intensity, x_grid)
    if norm <= 0.0:
        raise DarkPortEmptyError("dark-port intensity vanished on the grid")
    uniform = 1.0 / (x_grid[-1] - x_grid[0])
    return w_dark * intensity / norm + (1.0 - w_dark) * uniform


def exact_dark_port_mean(k, state):
    """First moment of the exact dark-port intensity, by trapezoid quadrature.

    Valid beyond k*sigma << 1; this is the oracle against which the
    linearized ``amplified_deflection`` is checked. Raises DarkPortEmptyError
    when essentially no light reaches the dark port (phi ~ 0 and k ~ 0).
    """
    sigma = state.beam.sigma
    x = dark_port_grid(state)
    intensity = np.sin(k * x + state.phi / 2.0) ** 2 * np.exp(
        -(x**2) / (2.0 * sigma**2)
    )
    norm = trapezoid(intensity, x)
    # Compare against the bright-beam normalization sqrt(2*pi)*sigma.
    occupancy = norm / (np.sqrt(2.0 * np.pi) * sigma)
    if occupancy < 1e-14:
        raise DarkPortEmptyError(f"dark-port occupancy {occupancy:.3e} below floor 1e-14")
    return trapezoid(x * intensity, x) / norm


def amplified_deflection(k, state):
    """Linearized dark-port centroid shift 2 k sigma^2 cot(phi/2) in meters."""
    return 2.0 * k * state.beam.sigma**2 * weak_value_magnitude(state.phi)


def amplified_deflection_closed_form(dn, gamma, n, phi, sigma, k0):
    """Small-phi closed form 8 k0 sigma^2 (dn/phi) / sqrt(sin(gamma/2)**-2 - n^2).

    Uses the small-angle weak value 2/phi instead of cot(phi/2); relative to
    ``amplified_deflection`` the substitution error is about phi^2/12.
    """
    radicand = np.sin(gamma / 2.0) ** -2 - n**2
    if radicand <= 0.0:
        raise GrazingIncidenceError(
            f"sin(gamma/2)**-2 - n^2 = {radicand:.3e} <= 0 in closed-form deflection"
        )
    return 8.0 * k0 * sigma**2 * (dn / phi) / np.sqrt(radicand)


def min_deviation_angle(prism, wavelength):
    """Total deviation theta = 2*asin(n*sin(gamma/2)) - gamma at minimum deviation.

    n sin(gamma/2) > 1 is the grazing condition sin(gamma/2)**-2 - n^2 < 0.
    """
    n = sellmeier_index(prism.material, wavelength)
    s = n * np.sin(prism.apex_angle / 2.0)
    if np.any(s > 1.0):
        raise GrazingIncidenceError(
            f"n*sin(gamma/2) = {np.max(s):.6f} > 1 for {prism.material.name}; "
            "beam does not traverse the prism"
        )
    theta = 2.0 * np.arcsin(s) - prism.apex_angle
    return float(theta) if np.isscalar(wavelength) else theta


def exact_index_square(model, wavelength, frequency_shift=0):
    """n^2 at nu0 + dnu as an exact fraction, with nu0 = c/wavelength taken exactly:
    the Sellmeier sum is rational in wavelength and frequency_shift."""
    c_light = Fraction(SPEED_OF_LIGHT)
    lam2 = (c_light / (c_light / Fraction(wavelength) + Fraction(frequency_shift))) ** 2
    return 1 + sum(
        Fraction(b) * lam2 / (lam2 - Fraction(c)) for b, c in zip(model.b, model.c)
    )


def exact_index_step(model, wavelength, frequency_shift, digits=50):
    """n(nu0 + dnu) - n0 rounded to a float: the difference of two exact
    Sellmeier sums, with the square roots taken to ``digits`` decimal digits."""
    n0_sq = exact_index_square(model, wavelength)
    dn_sq = exact_index_square(model, wavelength, frequency_shift) - n0_sq
    with localcontext() as ctx:
        ctx.prec = digits + 10

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        n0 = dec(n0_sq).sqrt()
        return float(dec(dn_sq) / (dec(n0_sq + dn_sq).sqrt() + n0))


def unamplified_deflection(k, path_length, k0):
    """Free-space deflection l*k/k0 = l*delta of the un-postselected beam."""
    return path_length * k / k0


def split_probability(x_grid, intensity):
    """Probability that a photon drawn from the profile lands at x > 0."""
    x_grid = np.asarray(x_grid, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    right = x_grid >= 0.0
    return trapezoid(intensity[right], x_grid[right])


def split_calibration_constant(x_grid, intensity):
    """Meters per unit difference-over-sum for small centroid shifts.

    For a small rigid shift d of a symmetric profile the count asymmetry is
    2*I(0)*d, so the inverse slope is 1/(2*I(0)).
    """
    center = np.interp(0.0, x_grid, intensity)
    if center <= 0.0:
        raise ValidationError("profile vanishes at the split position")
    return 1.0 / (2.0 * center)


def stage_coefficients(spec, sample_rate):
    """Digital (b, a) of one stage: ``scipy.signal.bilinear`` applied to the
    prototype (w0/Q) s / (s^2 + (w0/Q) s + w0^2), with w0 prewarped so the map
    lands the resonance on the center frequency. Not renormalized: the gain
    at the center is 1 in exact arithmetic."""
    w0 = 2.0 * sample_rate * np.tan(np.pi * spec.center / sample_rate)
    return bilinear([w0 / STAGE_Q, 0.0], [1.0, w0 / STAGE_Q, w0**2], fs=sample_rate)


def frequency_response(spec, freqs, sample_rate):
    """Complex response of the full cascade (all stages and the gain):
    ``scipy.signal.freqz`` of ``stage_coefficients``, to the power stages."""
    b, a = stage_coefficients(spec, sample_rate)
    _, stage = freqz(b, a, worN=np.asarray(freqs, dtype=float), fs=sample_rate)
    return spec.gain * stage**spec.stages


def lfilter_cascade(series, spec):
    """The bandpass by recursion: ``lfilter`` applied ``stages`` times, then the gain."""
    b, a = stage_coefficients(spec, series.sample_rate)
    out = series.samples
    for _ in range(spec.stages):
        out = lfilter(b, a, out)
    return out * spec.gain


def direct_synthesize_run(
    dnu_peak, duration, sample_rate, physics, n_per_sample, seed, modulation=None, extensions=None
):
    """``synthesize_run`` with the kernel evaluated at every sample time.

    The same draws from the same generator in the same order, over a split
    probability computed sample by sample instead of over one period. The
    counts come from one whole-record call in phase order: the samples of the
    whole periods of m = min(P, N) samples stably sorted by their index mod m,
    then the samples after the last whole period.
    """
    modulation = modulation or ModulationConfig()
    extensions = extensions or NoiseExtensions()
    plan = RecordPlan.build(
        physics, duration, sample_rate, n_per_sample, modulation.mod_frequency, extensions
    )
    n_samples, n_detected, dark_mean = plan.n_samples, plan.n_detected, plan.dark_mean
    state = physics.state
    beta = physics.config.background_fraction
    t = np.arange(n_samples) / sample_rate
    dnu = dnu_peak * np.sin(2.0 * np.pi * modulation.mod_frequency * t)
    p_right = dark_port_split_probability(kick_of_shift(physics.point, dnu), state, beta)
    calibration = dark_port_split_calibration(state, beta)
    rng = np.random.default_rng(seed)
    m = min(modulation_period(modulation.mod_frequency, sample_rate), n_samples)
    whole = n_samples - n_samples % m
    order = np.concatenate(
        [np.argsort(np.arange(whole) % m, kind="stable"), np.arange(whole, n_samples)]
    )
    n_right = np.empty(n_samples, dtype=np.int64)
    n_right[order] = rng.binomial(n_detected, p_right[order])
    total = np.full(n_samples, float(n_detected))
    if extensions.dark_count_rate > 0.0:
        dark = rng.poisson(dark_mean, n_samples)
        n_right = n_right + rng.binomial(dark, 0.5)
        total = total + dark
    estimates = split_estimate(n_right, total, calibration)
    if extensions.electronic_noise > 0.0:
        estimates = estimates + rng.normal(0.0, extensions.electronic_noise, n_samples)
    return TimeSeries(sample_rate=sample_rate, samples=estimates)


def serial_spectrum_pair(config):
    """``run_spectrum_pair``'s table and metadata, with the driven and then the
    undriven record drawn by ``direct_synthesize_run``."""
    physics = resolve(config)
    cfg = physics.config

    def record(dnu_peak, seed):
        return direct_synthesize_run(
            dnu_peak, cfg.spectrum_duration, cfg.sample_rate, physics,
            physics.n_photons_per_sample(), seed,
            modulation=ModulationConfig(mod_frequency=cfg.mod_frequency),
            extensions=physics.extensions,
        )

    spec_driven = power_spectrum(record(cfg.spectrum_dnu, cfg.seed), cfg.spectrum_segments)
    spec_undriven = power_spectrum(record(0.0, cfg.seed + 1), cfg.spectrum_segments)
    fundamental = np.argmin(np.abs(spec_driven.frequencies - cfg.mod_frequency))
    ref_db = spec_driven.power_db[fundamental]
    ref_power = spec_driven.ref_power * 10.0 ** (ref_db / 10.0)
    undriven_db = spec_undriven.power_db + 10.0 * np.log10(spec_undriven.ref_power / ref_power)
    metadata = resolved_metadata(physics)
    metadata["resolution_bw_hz"] = spec_driven.resolution_bw
    metadata["ref_power"] = ref_power
    return {
        "frequency_hz": spec_driven.frequencies,
        "driven_db": spec_driven.power_db - ref_db,
        "undriven_db": undriven_db,
    }, metadata


def per_row_csv(metadata, columns, *values):
    """The per-row f-string writer the CSV outputs used before ``csv_text``."""
    lines = [f"# {key} = {fmt(value)}\n" for key, value in metadata.items()]
    lines.append(",".join(columns) + "\n")
    for row in zip(*values):
        cells = (f"{v:.17g}" if isinstance(v, np.floating) else f"{int(v)}" for v in row)
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def fromstring_columns(text, columns):
    """The whole-body reader ``csv_columns`` used before its integer route:
    the same header checks, then one ``np.fromstring`` call on the body."""
    column_line = ",".join(columns) + "\n"
    mismatch = f"CSV header mismatch: expected {column_line.strip()!r}"
    start = text.find("\n" + column_line) + 1
    if not text.startswith(column_line, start):
        raise ValidationError(mismatch)
    metadata = {}
    for line in text[:start].splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            raise ValidationError(mismatch)
        key, equals, value = line[1:].partition("=")
        if equals:
            metadata[key.strip()] = value.strip()
    data = text[start + len(column_line) :].rstrip().encode()
    if not data:
        raise ValidationError("CSV has no data rows")
    width = len(columns)
    separators = data.translate(None, _NOT_SEPARATOR) + b"\n"
    n_rows = separators.count(b"\n")
    if separators != (b"," * (width - 1) + b"\n") * n_rows:
        raise ValidationError(f"CSV rows must hold {width} comma-separated values")
    try:
        values = np.fromstring(data.replace(b"\n", b","), sep=",")
    except ValueError:
        values = np.empty(0)
    if values.size != n_rows * width:
        raise ValidationError("CSV body holds a value that is not a number")
    return metadata, np.ascontiguousarray(values.reshape(n_rows, width).T)


def direct_power_spectrum(series, segments=1):
    """``power_spectrum`` with one transform per segment, summed in a loop."""
    seg_len = segment_length(series.samples.size, segments)
    win = hann_window(seg_len)
    coherent_gain = win.sum()
    power = np.zeros(seg_len // 2 + 1)
    for i in range(segments):
        chunk = series.samples[i * seg_len : (i + 1) * seg_len]
        power += np.abs(np.fft.rfft(chunk * win) / coherent_gain) ** 2
    power /= segments
    power[1:] *= 2.0
    if seg_len % 2 == 0:
        power[-1] /= 2.0
    freqs = np.fft.rfftfreq(seg_len, d=1.0 / series.sample_rate)
    enbw = series.sample_rate * (win**2).sum() / coherent_gain**2
    ref = float(power.max())
    if ref <= 0.0:
        ref = 1.0
    power_db = 10.0 * np.log10(np.maximum(power, 1e-300) / ref)
    return Spectrum(frequencies=freqs, power_db=power_db, resolution_bw=enbw, ref_power=ref)
