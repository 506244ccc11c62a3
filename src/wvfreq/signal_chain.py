"""Time-domain measurement chain: modulation, filtering, peaks, spectra.

The emulated procedure: the laser frequency is modulated with a 10 Hz sine,
the split-detector position estimate is sampled uniformly, passed through
two cascaded 6 dB/octave bandpass stages centered on the modulation
frequency and amplified by 1e4, and the per-cycle peaks are averaged. Raw
(unfiltered) series feed the FFT noise spectra.

Each filter stage is the bilinear-discretized first-order bandpass
prototype H(s) = (w0/Q) s / (s^2 + (w0/Q) s + w0^2): one zero at DC, one
pole pair, 6 dB/octave asymptotic skirts. The stage Q is 1 (bandwidth equal
to the center frequency) and each stage is renormalized to unity gain at
the center frequency on the digital grid, so the cascade attenuates a tone
two octaves out by about 24 dB. Filtering is causal (lfilter), so the
output carries the prototype's phase response: zero at the center
frequency, approaching +90 deg per stage below and -90 deg per stage above.

Determinism: all randomness flows through one generator seeded by the run
seed and is drawn as whole-series calls in a fixed order, so a fixed seed
reproduces the output byte for byte in the same software environment.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import get_window, lfilter

from .errors import AliasingError, ValidationError, WeakValueValidityError
from .interferometer import (
    KICK_SIGMA_LIMIT,
    dark_port_split_calibration,
    dark_port_split_probability,
    postselection_probability,
)
from .noise import split_estimate
from .units import csv_columns, csv_text

STAGE_Q = 1.0  # first-order prototype: bandwidth = center frequency


@dataclass
class TimeSeries:
    """Uniformly sampled real signal."""

    sample_rate: float
    samples: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValidationError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValidationError("samples must be a non-empty 1-D array")

    def times(self):
        return self.t0 + np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class ModulationConfig:
    """Sinusoidal optical-frequency modulation."""

    mod_frequency: float = 10.0
    amplitude: float = 0.0

    def __post_init__(self):
        if not self.mod_frequency > 0:
            raise ValidationError(
                f"modulation frequency must be positive, got {self.mod_frequency}"
            )
        if self.amplitude < 0:
            raise ValidationError(f"amplitude must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class FilterSpec:
    """Cascade of identical 6 dB/octave bandpass stages plus a flat gain."""

    center: float = 10.0
    stages: int = 2
    gain: float = 1e4

    def __post_init__(self):
        if not self.center > 0:
            raise ValidationError(f"center frequency must be positive, got {self.center}")
        if self.stages < 1:
            raise ValidationError(f"need at least one stage, got {self.stages}")


@dataclass
class Spectrum:
    """One-sided power spectrum in dB relative to ``ref_power``."""

    frequencies: np.ndarray
    power_db: np.ndarray
    resolution_bw: float
    ref_power: float = 1.0


@dataclass(frozen=True)
class NoiseExtensions:
    """Optional non-shot noise terms, all disabled by default."""

    electronic_noise: float = 0.0  # additive rms position noise per sample, m
    dark_count_rate: float = 0.0  # detector dark counts, Hz

    def __post_init__(self):
        if self.electronic_noise < 0 or self.dark_count_rate < 0:
            raise ValidationError("noise extension parameters must be >= 0")


def stage_coefficients(spec, sample_rate):
    """Digital (b, a) for one peak-normalized bandpass stage."""
    if sample_rate < 20.0 * spec.center:
        raise AliasingError(
            f"sample rate {sample_rate} Hz too low for a {spec.center} Hz "
            "bandpass (need >= 20x center)"
        )
    # Prewarp so the bilinear map lands the resonance exactly on center, then
    # apply s -> K (1 - 1/z) / (1 + 1/z) to (w0/Q) s / (s^2 + (w0/Q) s + w0^2).
    k = 2.0 * sample_rate
    w0 = k * np.tan(np.pi * spec.center / sample_rate)
    bk = w0 / STAGE_Q * k
    d = k**2 + bk + w0**2
    b = np.array([bk, 0.0, -bk]) / d
    a = np.array([1.0, 2.0 * (w0**2 - k**2) / d, (k**2 - bk + w0**2) / d])
    peak = abs(_polyresp(b, a, spec.center, sample_rate))
    return b / peak, a


def _polyresp(b, a, freq, sample_rate):
    z = np.exp(2j * np.pi * np.asarray(freq, dtype=float) / sample_rate)
    zi = 1.0 / z
    num = sum(coef * zi**i for i, coef in enumerate(b))
    den = sum(coef * zi**i for i, coef in enumerate(a))
    return num / den


def bandpass(series, spec):
    """Apply the stage cascade and gain to a series."""
    b, a = stage_coefficients(spec, series.sample_rate)
    out = series.samples
    for _ in range(spec.stages):
        out = lfilter(b, a, out)
    return TimeSeries(
        sample_rate=series.sample_rate, samples=out * spec.gain, t0=series.t0
    )


def synthesize_run(
    dnu_peak,
    duration,
    sample_rate,
    physics,
    n_per_sample,
    seed,
    modulation=None,
    extensions=None,
):
    """Simulate the raw split-detector record for a modulated run.

    For every sample time, the instantaneous frequency offset maps through
    the prism deflection to a momentum kick, and the split detector sees
    round((P_ps + beta) * n_per_sample) photons of the kicked dark-port
    profile, split by the closed-form ``dark_port_split_probability`` (the
    grid quadrature is only its test oracle), so a record costs O(samples)
    at any sample rate. ``dnu_peak`` overrides the amplitude in
    ``modulation`` (default: 10 Hz sine). Output samples are calibrated
    position estimates in meters (unfiltered). Deterministic for a fixed seed.
    """
    modulation = modulation or ModulationConfig()
    mod_frequency = modulation.mod_frequency
    extensions = extensions or NoiseExtensions()
    cycles = duration * mod_frequency
    if not 1 <= cycles < np.inf or abs(cycles - round(cycles)) > 1e-9:
        raise ValidationError(
            f"duration {duration} s is not a whole number of {mod_frequency} Hz cycles"
        )
    state = physics.state
    p_ps = postselection_probability(state.phi)
    beta = physics.config.background_fraction
    n_detected = int(round((p_ps + beta) * n_per_sample))
    if n_detected > np.iinfo(np.int64).max:
        raise ValidationError(
            f"{n_detected:.3g} detected photons per sample exceed the binomial "
            "draw's int64 range"
        )
    if p_ps * n_per_sample < 10:
        raise ValidationError(
            f"P_ps * n_per_sample = {p_ps * n_per_sample:.2f} < 10: too few "
            "postselected photons per sample for a meaningful estimate"
        )

    if duration * sample_rate > np.iinfo(np.intp).max:
        raise ValidationError(
            f"a {duration} s record at {sample_rate} Hz holds more samples than "
            "an array can index"
        )
    n_samples = int(round(duration * sample_rate))
    if n_samples < 1:
        raise ValidationError(f"a {duration} s record at {sample_rate} Hz holds no sample")
    t = np.arange(n_samples) / sample_rate
    dnu = dnu_peak * np.sin(2.0 * np.pi * mod_frequency * t)
    kick = physics.kick_of_shift(dnu)
    ks_max = np.max(np.abs(kick)) * state.beam.sigma
    if ks_max > KICK_SIGMA_LIMIT:
        worst = dnu[np.argmax(np.abs(kick))]
        raise WeakValueValidityError(
            f"weak value condition violated at frequency offset {worst:.6g} Hz "
            f"(k*sigma = {ks_max:.3g})"
        )
    p_right = dark_port_split_probability(kick, state, beta)
    calibration = dark_port_split_calibration(state, beta)

    # All draws from one stream, whole-series calls in a fixed order.
    rng = np.random.default_rng(seed)
    n_right = rng.binomial(n_detected, p_right)
    total = np.full(n_samples, float(n_detected))
    if extensions.dark_count_rate > 0.0:
        dark = rng.poisson(extensions.dark_count_rate / sample_rate, n_samples)
        n_right = n_right + rng.binomial(dark, 0.5)
        total = total + dark
    estimates = split_estimate(n_right, total, calibration)
    if extensions.electronic_noise > 0.0:
        estimates = estimates + rng.normal(0.0, extensions.electronic_noise, n_samples)
    return TimeSeries(sample_rate=sample_rate, samples=estimates)


def extract_peaks(series, cycle_period, n_cycles):
    """Mean and standard deviation of the mean of per-cycle signal maxima.

    Uses the final ``n_cycles`` complete cycles, which discards filter
    settling at the start of the record.
    """
    per_cycle = cycle_period * series.sample_rate
    if abs(per_cycle - round(per_cycle)) > 1e-6:
        raise ValidationError(
            f"cycle period {cycle_period} s is not a whole number of samples "
            f"at {series.sample_rate} Hz"
        )
    per_cycle = int(round(per_cycle))
    available = series.samples.size // per_cycle
    if available < n_cycles:
        raise ValidationError(
            f"series holds {available} complete cycles, need {n_cycles}"
        )
    tail = series.samples[(available - n_cycles) * per_cycle : available * per_cycle]
    peaks = tail.reshape(n_cycles, per_cycle).max(axis=1)
    mean = float(np.mean(peaks))
    if n_cycles > 1:
        std_of_mean = float(np.std(peaks, ddof=1) / np.sqrt(n_cycles))
    else:
        std_of_mean = 0.0
    return mean, std_of_mean


def slope_fit(shifts, deflections, errors):
    """Weighted least-squares line through (shift, deflection) points.

    Weights are 1/error^2 and the slope error comes from the normal
    equations. Points are put in a canonical order before summation, so the
    result is bit-identical under any permutation of the inputs.
    """
    x = np.asarray(shifts, dtype=float)
    y = np.asarray(deflections, dtype=float)
    err = np.asarray(errors, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValidationError("need two same-length 1-D arrays of at least 2 points")
    if np.ptp(x) == 0.0:
        raise ValidationError("degenerate fit: all abscissae identical")
    if err.shape != x.shape or np.any(err <= 0):
        raise ValidationError("errors must be positive and match the points")
    order = np.lexsort((err, y, x))
    x, y, err = x[order], y[order], err[order]
    w = 1.0 / err**2
    sw = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    denom = sw * sxx - sx**2
    slope = (sw * sxy - sx * sy) / denom
    return float(slope), float(np.sqrt(sw / denom))


def power_spectrum(series, segments=1):
    """One-sided Hann-windowed periodogram, segment-averaged when ``segments`` > 1.

    Powers are mean-square (a full-scale sine of amplitude A contributes
    A^2/2 in its bin) and reported in dB relative to the strongest bin.
    """
    n = series.samples.size
    if n < 16:
        raise ValidationError(f"series too short for a spectrum ({n} samples)")
    if segments < 1 or n // segments < 16:
        raise ValidationError(f"cannot split {n} samples into {segments} segments")
    seg_len = n // segments
    win = get_window("hann", seg_len)
    coherent_gain = win.sum()
    power = np.zeros(seg_len // 2 + 1)
    for i in range(segments):
        chunk = series.samples[i * seg_len : (i + 1) * seg_len]
        spectrum = np.fft.rfft(chunk * win)
        power += np.abs(spectrum / coherent_gain) ** 2
    power /= segments
    power[1:] *= 2.0  # fold negative frequencies; DC stays single-sided
    if seg_len % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is its own image
    freqs = np.fft.rfftfreq(seg_len, d=1.0 / series.sample_rate)
    enbw = series.sample_rate * (win**2).sum() / coherent_gain**2
    ref = float(power.max())
    if ref <= 0.0:
        ref = 1.0
    power_db = 10.0 * np.log10(np.maximum(power, 1e-300) / ref)
    return Spectrum(
        frequencies=freqs, power_db=power_db, resolution_bw=enbw, ref_power=ref
    )


# --- CSV serialization (units.csv_text / csv_columns layout) ---

_TIMESERIES_COLUMNS = ("time_s", "position_m")


def timeseries_to_csv(series, metadata=None):
    meta = {"sample_rate": float(series.sample_rate), "t0": float(series.t0)}
    meta.update(metadata or {})
    return csv_text(meta, _TIMESERIES_COLUMNS, series.times(), series.samples)


def timeseries_from_csv(text):
    header, (_, samples) = csv_columns(text, _TIMESERIES_COLUMNS)
    series = TimeSeries(
        sample_rate=float(header["sample_rate"]),
        samples=samples,
        t0=float(header.get("t0", 0.0)),
    )
    return series, header
