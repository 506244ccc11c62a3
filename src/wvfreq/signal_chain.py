"""Time-domain measurement chain: modulation, filtering, lock-in, spectra.

The emulated procedure: the laser frequency is modulated with a 10 Hz sine,
the split-detector position estimate is sampled uniformly, passed through
two cascaded 6 dB/octave bandpass stages centered on the modulation
frequency and amplified by 1e4, and a lock-in reads the amplitude at the
modulation frequency over the settled cycles. The filter and the lock-in
are both linear, so a sweep reads each record with one dot product
(``lock_in_kernel``). Raw (unfiltered) series feed the FFT noise spectra.

Each filter stage is the bilinear-discretized first-order bandpass
prototype H(s) = (w0/Q) s / (s^2 + (w0/Q) s + w0^2): one zero at DC, one
pole pair, 6 dB/octave asymptotic skirts. The stage Q is 1 (bandwidth equal
to the center frequency), and w0 is prewarped so that the map lands the
resonance on the center frequency: each stage's gain there is 1 by
construction, so the cascade attenuates a tone two octaves out by about
24 dB. The filter is causal and starts from zero state, so the output
carries the prototype's phase response: zero at the center frequency,
approaching +90 deg per stage below and -90 deg per stage above. It is
applied as the cascade's exact frequency response, a closed form on the
unit circle, on an FFT grid padded past the length over which the impulse
response decays below 1e-20, so the circular convolution equals the
recursive filter to rounding; numpy's FFT is all it needs.

The sampled drive repeats every P samples (``modulation_period``), so the
dark-port kernel runs over one period and ``synthesize_run`` reuses it.
Later periods reuse the first period's values instead of their own phases
2 pi f t, whose rounding grows with t. The kernel maps the drive to the
split probability p continuously, so the two differ wherever that rounding
reaches p: at the default 7.4 MHz / 10 Hz / 1 kHz, 419 of 1e5 samples differ
by one ulp over 100 s and 83 686 of 1e6 over 1000 s; over 1000 s at a 250 Hz
drive, up to 36 ulps near the drive's zero crossings, and over 100 s at a
1 GHz drive, 15 ulps. The reused value, from the smaller phase, is the more
accurate one. It is not bit-identical to a per-sample evaluation, and a
one-ulp move can change the drawn count: at a 250 Hz drive the reused
period holds p = 0.5 exactly where a per-sample evaluation gives 0.5 -+ 1
ulp, which flips the binomial sampler's min(p, 1 - p) branch (2013 of
60 000 counts differ over 60 s).

Determinism: each record's randomness flows through one generator seeded by
the run seed, in a fixed order: the photon counts in phase order (every
sample of a period's first phase, then of its second, and so on over the
record's whole periods, then the samples after the last whole period), in
calls of at most DRAW_BLOCK samples that give the same stream as one
whole-record call in that order, then any noise-extension draws as
whole-record calls in sample order. A fixed seed therefore reproduces the
output byte for byte in the same software environment, whichever thread
draws the counts: ``run_spectrum_pair`` draws the undriven record's counts
on a worker thread while the calling thread synthesizes the driven record
(``PhotonDraw.drawn_ahead``).
"""

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ValidationError
from .interferometer import (
    dark_port_split_calibration,
    dark_port_split_probability,
    postselection_probability,
)
from .noise import split_estimate
from .units import csv_columns, csv_text, finite_number

STAGE_Q = 1.0  # first-order prototype: bandwidth = center frequency
IMPULSE_TAIL = 1e-20  # the FFT padding outlasts the impulse response's decay to this level
# The largest mean numpy's Poisson draw accepts: 10 standard deviations below int64's limit.
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
# Samples per binomial call, whole phases of the drive where they fit: bounds the
# draw's temporaries, and a record longer than this may draw its counts on a
# worker thread.
DRAW_BLOCK = 1 << 16
_INTP_MAX = np.iinfo(np.intp).max  # numpy's largest array, in bytes


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
            raise ValidationError(f"filter_center must be positive, got {self.center}")
        if self.stages < 1:
            raise ValidationError(f"filter_stages must be >= 1, got {self.stages}")
        if not self.gain > 0:
            # The lock-in kernel divides the gain back out.
            raise ValidationError(f"filter_gain must be positive, got {self.gain}")


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
        for name in ("electronic_noise", "dark_count_rate"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")


def fft_length(n):
    """Smallest 2^a 3^b 5^c >= n: numpy's FFT is fastest on such lengths."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=4)
def cascade_response(spec, sample_rate, n_samples):
    """FFT length and gain * H^stages on its rfft grid, for an n_samples record.

    With r = tan(pi center / sample_rate), the prewarped bilinear map sends
    z = exp(i w) to s = i w0 tan(w/2) / r, so each stage is
    H = (i u/Q) / (1 - u^2 + i u/Q) with u = tan(w/2) / r: exactly 1 at the
    center. Its pole pair has |z|^2 = (1 - r/Q + r^2) / (1 + r/Q + r^2), and a
    padding of ceil(ln IMPULSE_TAIL / ln|z|) * (stages + 1) samples outlasts
    the cascade's impulse response, so the wrapped-around tail of the
    circular convolution is below IMPULSE_TAIL. A padded length that a
    float64 array could not hold is refused before anything is allocated.
    """
    if sample_rate < 20.0 * spec.center:
        raise AliasingError(
            f"sample rate {sample_rate} Hz too low for a {spec.center} Hz "
            "bandpass (need >= 20x center)"
        )
    r = math.tan(math.pi * spec.center / sample_rate)
    # ln|z| = log1p(|z|^2 - 1) / 2, with |z|^2 - 1 = -2 (r/Q) / (1 + r/Q + r^2).
    log_pole = 0.5 * math.log1p(-2.0 * r / STAGE_Q / (1.0 + r / STAGE_Q + r * r))
    tail = math.log(IMPULSE_TAIL) / log_pole * (spec.stages + 1) if log_pole < 0.0 else math.inf
    n_fft = fft_length(n_samples + math.ceil(tail)) if n_samples + tail < _INTP_MAX else math.inf
    if 8 * n_fft > _INTP_MAX:
        raise ValidationError(
            f"a {spec.stages}-stage {spec.center} Hz bandpass at {sample_rate} Hz rings "
            "longer than a float64 array can hold"
        )
    u = np.tan(np.pi * np.arange(n_fft // 2 + 1) / n_fft) / r
    iq = 1j * u / STAGE_Q
    return n_fft, spec.gain * (iq / (1.0 - u * u + iq)) ** spec.stages


def bandpass(series, spec):
    """Apply the stage cascade and gain to a series: causal, from zero state."""
    n = series.samples.size
    n_fft, response = cascade_response(spec, series.sample_rate, n)
    out = np.fft.irfft(np.fft.rfft(series.samples, n_fft) * response, n_fft)[:n]
    return TimeSeries(sample_rate=series.sample_rate, samples=out, t0=series.t0)


@functools.lru_cache(maxsize=4)
def lock_in_kernel(spec, sample_rate, n_samples, per_cycle, n_cycles):
    """The sweep's lock-in folded through the bandpass, as one read-only vector g.

    The lock-in reads A = 2 mean(y sin wt) over the last ``n_cycles`` whole
    cycles of y = ``bandpass(record)``, divided by the gain; a record of
    fewer whole cycles is refused. The bandpass is the record padded to
    n_fft, times the cascade's response H and truncated, so A = w . y is the
    raw record's inner product with the filter's adjoint applied to the
    window w: g = irfft(conj(H) rfft(w, n_fft))[:N] / gain, and each sweep
    point reads ``g @ record.samples``, with no per-record FFT. The bandpass
    has unity gain and zero phase at its center, so the in-phase term alone
    reads the drive's amplitude.
    """
    available = n_samples // per_cycle
    if available < n_cycles:
        raise ValidationError(f"a record of {available} whole cycles cannot give {n_cycles}")
    n_fft, response = cascade_response(spec, sample_rate, n_samples)
    n_window = n_cycles * per_cycle
    window = np.zeros(n_fft)
    cycle = np.sin(2.0 * np.pi * np.arange(per_cycle) / per_cycle)
    end = available * per_cycle
    window[end - n_window : end] = np.tile(cycle * (2.0 / n_window), n_cycles)
    folded = np.fft.irfft(np.conj(response) * np.fft.rfft(window), n_fft)[:n_samples]
    kernel = folded / spec.gain
    kernel.setflags(write=False)
    return kernel


def modulation_period(mod_frequency, sample_rate):
    """Samples in one exact period of a sampled sine: the least P with P f / R whole.

    Computed exactly on the float inputs: with f = a/b and R = c/d in lowest
    terms, P = b c / gcd(a d, b c). A rate that shares no short period with
    the modulation gives a very large P.
    """
    a, b = float(mod_frequency).as_integer_ratio()
    c, d = float(sample_rate).as_integer_ratio()
    return b * c // math.gcd(a * d, b * c)


@dataclass(frozen=True)
class RecordPlan:
    """A request's records, laid out by ``build``, which runs every check that
    depends only on the configuration (the record's; a sweep's bandpass and
    cycle; a spectrum's segment split), so that a request drawing its records
    from one plan refuses nothing after its first photon."""

    physics: object  # the request's config.ResolvedPhysics
    duration: float  # s, of each record
    sample_rate: float
    n_per_sample: float  # photons per sample before postselection
    mod_frequency: float
    extensions: NoiseExtensions
    n_samples: int  # N
    period: int  # m = min(P, N): the sample times the dark-port kernel runs on
    n_detected: int  # photons per sample that reach the split detector
    dark_mean: float  # dark counts per sample
    calibration: float  # meters per unit difference-over-sum
    n_fft: int = 0  # the bandpass's padded FFT length, for a sweep
    per_cycle: int = 0  # samples per modulation cycle, for a sweep
    segment_length: int = 0  # samples per periodogram segment, for a spectrum

    @classmethod
    def build(
        cls, physics, duration, sample_rate, n_per_sample, mod_frequency, extensions,
        filter_spec=None, segments=None,
    ):
        if not duration > 0:
            raise ValidationError(f"record duration must be positive, got {duration} s")
        cycles = duration * mod_frequency
        if not 1 <= cycles < np.inf or abs(cycles - round(cycles)) > 1e-9:
            raise ValidationError(
                f"duration {duration} s is not a whole number of {mod_frequency} Hz cycles"
            )
        state, beta = physics.state, physics.config.background_fraction
        p_ps = postselection_probability(state.phi)
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
        if duration * sample_rate > _INTP_MAX // 8:  # 8 bytes a sample, for the count buffer
            raise ValidationError(
                f"a {duration} s record at {sample_rate} Hz holds more samples than "
                "an array can index"
            )
        n_samples = int(round(duration * sample_rate))
        if n_samples < 1:
            raise ValidationError(f"a {duration} s record at {sample_rate} Hz holds no sample")
        dark_mean = extensions.dark_count_rate / sample_rate
        if dark_mean > 0.0 and n_detected + dark_mean > POISSON_MEAN_MAX:
            # The photon and dark counts are summed in int64 too.
            raise ValidationError(
                f"{dark_mean:.3g} dark counts per sample exceed the Poisson draw's int64 range"
            )
        n_fft = per_cycle = seg_len = 0
        if filter_spec is not None:
            n_fft, _ = cascade_response(filter_spec, sample_rate, n_samples)
            per_cycle = samples_per_cycle(1.0 / mod_frequency, sample_rate)
        if segments is not None:
            seg_len = segment_length(n_samples, segments)
        return cls(
            physics, duration, sample_rate, n_per_sample, mod_frequency, extensions, n_samples,
            min(modulation_period(mod_frequency, sample_rate), n_samples), n_detected,
            dark_mean, dark_port_split_calibration(state, beta), n_fft, per_cycle, seg_len,
        )


class PhotonDraw:
    """One record's right-hand photon counts, planned on the calling thread.

    It runs the dark-port kernel on its ``RecordPlan``'s m = min(P, N) sample
    times, keeps that one-period split probability (``profile``), seeds the
    record's generator and allocates its int64 count buffer; the plan has
    checked everything else. ``draw`` then fills the buffer in phase order: a
    phase's samples share one p, so numpy's binomial sampler sets up once per
    phase and call, not once per sample. It allocates nothing of the record's
    length, so it can run on a worker thread (``drawn_ahead``); numpy releases
    the GIL inside the draw.
    """

    def __init__(self, plan, dnu_peak, seed):
        self.plan = plan
        physics = plan.physics
        t = np.arange(plan.period) / plan.sample_rate
        dnu = dnu_peak * np.sin(2.0 * np.pi * plan.mod_frequency * t)
        # The kernel refuses |k sigma| above its limit (WeakValueValidityError).
        self.profile = dark_port_split_probability(
            physics.kick_of_shift(dnu), physics.state, physics.config.background_fraction
        )
        self.counts = np.empty(plan.n_samples, dtype=np.int64)
        self.rng = np.random.default_rng(seed)
        self._worker = None
        self._failure = None

    def draw(self):
        """Fill the counts in phase order: the same stream as one whole-record call.

        The record is q whole periods of m = ``profile.size`` samples and r
        more. Phase by phase, a block's phases fill their q samples of a
        strided (q, m) view with one binomial call, its p broadcast from the
        profile; a phase of more than DRAW_BLOCK samples is drawn in runs.
        The r samples after the last whole period follow in sample order.
        """
        rng, n, profile, counts = self.rng, self.plan.n_detected, self.profile, self.counts
        m = profile.size
        q = counts.size // m
        periods = counts[: q * m].reshape(q, m)
        width = max(DRAW_BLOCK // q, 1)  # phases in a block
        for k0 in range(0, m, width):
            k1 = min(k0 + width, m)
            for j0 in range(0, q, DRAW_BLOCK):  # one run, unless a phase outgrows a block
                j1 = min(j0 + DRAW_BLOCK, q)
                drawn = rng.binomial(n, profile[k0:k1, None], (k1 - k0, j1 - j0))
                periods[j0:j1, k0:k1] = drawn.T
        counts[q * m :] = rng.binomial(n, profile[: counts.size - q * m])

    def _draw_on_worker(self):
        try:
            self.draw()
        except Exception as exc:  # raised again on the calling thread by ``drawn``
            self._failure = exc

    @contextlib.contextmanager
    def drawn_ahead(self):
        """Draw the counts on one worker thread while the ``with`` body runs.

        The thread starts only when it pays: the record spans more than one
        block and the process may run on more than one CPU. The thread is
        joined when the body ends, whether or not it raised.
        """
        if self.counts.size > DRAW_BLOCK and _usable_cpus() > 1:
            self._worker = threading.Thread(target=self._draw_on_worker, name="wvfreq-draw")
            self._worker.start()
        try:
            yield
        finally:
            if self._worker is not None:
                self._worker.join()

    def drawn(self):
        """The counts, drawn here unless a worker thread drew them; its failure is raised here."""
        if self._worker is None:
            self.draw()
        else:
            self._worker.join()
            if self._failure is not None:
                raise self._failure
        return self.counts


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def synthesize_run(
    dnu_peak,
    duration,
    sample_rate,
    physics,
    n_per_sample,
    seed,
    modulation=None,
    extensions=None,
    ahead=None,
):
    """Simulate the raw split-detector record for a modulated run.

    The instantaneous frequency offset maps through the prism deflection to a
    momentum kick, and the split detector sees round((P_ps + beta) *
    n_per_sample) photons of the kicked dark-port profile, split by the
    closed-form ``dark_port_split_probability`` (the grid quadrature is only
    its test oracle). The sampled drive repeats every P =
    ``modulation_period`` samples, so the kernel runs on min(P, N) sample
    times, and the counts are drawn from that one-period profile in phase
    order, in calls of at most DRAW_BLOCK samples (``PhotonDraw``): kernel
    work is O(min(P, N)), the photon draws are O(N), and no full-length
    split probability is built. Each sample's count is Binomial(n, p) at
    its own phase; the phase order decides only which variate of the stream
    lands on which sample. ``modulation`` sets the drive's frequency
    (default: a 10 Hz sine); its ``amplitude`` is not read, ``dnu_peak`` is.
    Output samples are calibrated position estimates in meters (unfiltered).
    Deterministic for a fixed seed.

    The ``RecordPlan`` built from the arguments checks them before anything
    is drawn. ``ahead`` is this record's ``PhotonDraw`` from a plan of the
    same arguments, whose counts may have been drawn on a worker thread
    (``run_spectrum_pair`` does this for the undriven record); this call then
    joins that draw and finishes the record on the calling thread.
    """
    record = ahead or PhotonDraw(
        RecordPlan.build(
            physics, duration, sample_rate, n_per_sample,
            (modulation or ModulationConfig()).mod_frequency, extensions or NoiseExtensions(),
        ),
        dnu_peak, seed,
    )
    n_right = record.drawn()
    # The noise-extension draws follow the counts from the same stream, whole-record calls.
    plan, rng, n_samples = record.plan, record.rng, n_right.size
    total = float(plan.n_detected)
    if plan.extensions.dark_count_rate > 0.0:
        dark = rng.poisson(plan.dark_mean, n_samples)
        n_right = n_right + rng.binomial(dark, 0.5)
        total = total + dark
    estimates = split_estimate(n_right, total, plan.calibration)
    if plan.extensions.electronic_noise > 0.0:
        estimates = estimates + rng.normal(0.0, plan.extensions.electronic_noise, n_samples)
    return TimeSeries(sample_rate=plan.sample_rate, samples=estimates)


def samples_per_cycle(cycle_period, sample_rate):
    """Number of samples in one cycle; refuses a cycle that is not a whole number."""
    per_cycle = cycle_period * sample_rate
    if not per_cycle >= 1 or abs(per_cycle - round(per_cycle)) > 1e-6:
        raise ValidationError(
            f"cycle period {cycle_period} s is not a whole number of samples "
            f"at {sample_rate} Hz"
        )
    return int(round(per_cycle))


def extract_peaks(series, cycle_period, n_cycles):
    """Mean and standard deviation of the mean of per-cycle signal maxima.

    Uses the final ``n_cycles`` complete cycles, which discards filter
    settling at the start of the record. No request calls it: the sweep
    reads its points with ``lock_in_kernel``, and only the benchmark's
    read-back of a long record still takes peaks. Noise lifts each cycle's
    maximum, so the mean reads high where the signal is small.
    """
    per_cycle = samples_per_cycle(cycle_period, series.sample_rate)
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


def hann_window(n):
    """Periodic Hann window, bit-identical to get_window("hann", n) for n >= 2."""
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


def segment_length(n_samples, segments):
    """Samples per periodogram segment; refuses a split with a segment under 16."""
    if n_samples < 16:
        raise ValidationError(f"series too short for a spectrum ({n_samples} samples)")
    if segments < 1 or n_samples // segments < 16:
        raise ValidationError(f"cannot split {n_samples} samples into {segments} segments")
    return n_samples // segments


def power_spectrum(series, segments=1):
    """One-sided Hann-windowed periodogram, segment-averaged when ``segments`` > 1.

    Powers are mean-square (a full-scale sine of amplitude A contributes
    A^2/2 in its bin) and reported in dB relative to the strongest bin.
    """
    seg_len = segment_length(series.samples.size, segments)
    win = hann_window(seg_len)
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
        sample_rate=finite_number(header.get("sample_rate", ""), "CSV metadata 'sample_rate'"),
        samples=samples,
        t0=finite_number(header.get("t0", "0"), "CSV metadata 't0'"),
    )
    return series, header
