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

The sampled drive repeats every P samples (``modulation_period``), so
``split_profile`` runs the dark-port kernel over one period and
``synthesize_run`` reuses it. Later periods reuse the first period's values
instead of their own phases 2 pi f t, whose rounding grows with t. The
kernel maps the drive to the split probability p continuously, so the two
differ wherever that rounding reaches p: at the default 7.4 MHz / 10 Hz /
1 kHz, 419 of 1e5 samples differ by one ulp over 100 s and 83 686 of 1e6
over 1000 s; over 1000 s at a 250 Hz drive, up to 36 ulps near the drive's
zero crossings, and over 100 s at a 1 GHz drive, 15 ulps. The reused value,
from the smaller phase, is the more accurate one. It is not bit-identical
to a per-sample evaluation, and a one-ulp move can change the drawn count:
at a 250 Hz drive the reused period holds p = 0.5 exactly where a
per-sample evaluation gives 0.5 -+ 1 ulp, which flips the binomial
sampler's min(p, 1 - p) branch (2013 of 60 000 counts differ over 60 s).

Determinism: each record's randomness flows through one generator seeded by
the run seed, in a fixed order: the photon counts in phase order (every
sample of a period's first phase, then of its second, and so on over the
record's whole periods, then the samples after the last whole period), in
``_draw_counts``'s calls of at most DRAW_BLOCK samples, the same stream as one
whole-record call in that order, then any noise-extension draws as
whole-record calls in sample order. The record's shape decides the calls:
an undriven record's blocks of at least SCALAR_RUN variates, and a driven
record's phases when each holds at least SCALAR_RUN, are drawn with p as a
Python float, other blocks with p broadcast from the profile; numpy's
sampler keeps its state across calls and draws the same variates either
way, so how a record is split into calls never moves a byte. The estimate
is then finished in the counts' own buffer, FINISH_BLOCK samples at a time,
by elementwise arithmetic, so how it is blocked never moves a byte either.
A fixed seed therefore reproduces the output byte for byte in the same
software environment.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import kick_of_shift
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
# Samples per binomial call of ``_draw_counts``, whole phases of the drive where they
# fit: bounds the draw's temporaries.
DRAW_BLOCK = 1 << 16
# Variates of one p from which ``_draw_counts`` passes p as a Python float.
# numpy's binomial then skips its broadcast iterator, a few ns a variate, but
# each such call costs one more call, a few us: on a 2-vCPU VM (Python 3.11,
# numpy 2.4.6) the two break even between 256 and 384 variates a phase. An
# undriven record's blocks, or a driven 100 s record's phases of 1000 variates,
# lie above it; a slope point's 30 or a 1024 Hz record's 4 lie below.
SCALAR_RUN = 512
# Samples per block of ``synthesize_run``'s finish, which writes each block's
# position estimate over its counts: a block's float64 temporary, 64 KiB, stays
# below glibc's 128 KiB mmap threshold, so it reuses freed heap pages instead of
# mapping and faulting in fresh ones on every call (DRAW_BLOCK's 512 KiB would).
FINISH_BLOCK = 1 << 13
_INTP_MAX = np.iinfo(np.intp).max  # numpy's largest array, in bytes
# numpy's normal draw stays within NORMAL_DRAW_MAX standard deviations: its
# ziggurat tail returns r - log1p(-u) / r with r = 3.654 and u a 53-bit uniform
# below 1, so at most 3.654 + 53 ln 2 / 3.654. Electronic noise up to
# DBL_MAX / 16 rms draws no inf, with room left for the position estimate it is
# added to.
NORMAL_DRAW_MAX = 13.71
ELECTRONIC_NOISE_MAX = np.finfo(float).max / 16
# ``split_profile`` caches at most PROFILE_CACHE_ENTRIES profiles of at most
# PROFILE_CACHE_SAMPLES float64 values: 32 x 4096 x 8 bytes = 1 MiB, plus the
# last longer profile, which is no larger than one record's sample array.
PROFILE_CACHE_ENTRIES = 32
PROFILE_CACHE_SAMPLES = 1 << 12


@dataclass
class TimeSeries:
    """Uniformly sampled real signal."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValidationError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValidationError("samples must be a non-empty 1-D array")

    def times(self):
        return np.arange(self.samples.size) / self.sample_rate


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
        if self.electronic_noise > ELECTRONIC_NOISE_MAX:
            raise ValidationError(
                f"electronic_noise must be <= {ELECTRONIC_NOISE_MAX:.4g} m, "
                f"got {self.electronic_noise}"
            )


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


def _refuse_above_nyquist(drive, sample_rate):
    """The one aliasing rule: a drive at or above sample_rate / 2 is an AliasingError."""
    if drive >= sample_rate / 2:
        raise AliasingError(
            f"a {drive} Hz drive is at or above the {sample_rate / 2} Hz Nyquist "
            f"frequency of a {sample_rate} Hz sample rate"
        )


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
    float64 array could not hold is refused before anything is allocated, and
    so is a center at or above the Nyquist frequency, by the record plan's rule.
    """
    _refuse_above_nyquist(spec.center, sample_rate)
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
    return TimeSeries(sample_rate=series.sample_rate, samples=out)


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
    is centred on the drive (``config.resolve``), where it has unity gain and
    zero phase, so the in-phase term alone reads the drive's amplitude.
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
    per_cycle: int = 0  # samples per modulation cycle, for a sweep

    @classmethod
    def build(
        cls, physics, duration, sample_rate, n_per_sample, mod_frequency, extensions,
        filter_spec=None, segments=None,
    ):
        """The plan of a ``duration`` s record, or a ValidationError naming the
        first check it fails, in this order: a duration that is not positive,
        or not a whole number of drive cycles; a photon count beyond the
        binomial draw's int64 range, or fewer than 10 postselected photons a
        sample; a record that holds more samples than an array can index, or
        none; a drive at or above the Nyquist frequency, sample_rate / 2 (an
        AliasingError: its samples would read the drive as an alias, or as
        nothing when sampled once a period); a dark-count mean beyond the
        Poisson draw's range; and, when given, the sweep's bandpass and cycle
        and the spectrum's segment split, position scale and electronic-noise
        bound.
        """
        if not duration > 0:
            raise ValidationError(f"record duration must be positive, got {duration} s")
        cycles = duration * mod_frequency
        if not 1 <= cycles < np.inf or abs(cycles - round(cycles)) > 1e-9:
            raise ValidationError(
                f"duration {duration} s is not a whole number of {mod_frequency} Hz cycles"
            )
        state, beta = physics.state, physics.config.background_fraction
        p_ps = postselection_probability(state.phi)
        # As Python floats, so that an overflow reaches the check as inf.
        detected = float(p_ps + beta) * float(n_per_sample)
        if detected > np.iinfo(np.int64).max:
            raise ValidationError(
                f"{detected:.3g} detected photons per sample exceed the binomial "
                "draw's int64 range"
            )
        n_detected = int(round(detected))
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
        _refuse_above_nyquist(mod_frequency, sample_rate)
        dark_mean = extensions.dark_count_rate / sample_rate
        if dark_mean > 0.0 and n_detected + dark_mean > POISSON_MEAN_MAX:
            # The photon and dark counts are summed in int64 too.
            raise ValidationError(
                f"{dark_mean:.3g} dark counts per sample exceed the Poisson draw's int64 range"
            )
        calibration = dark_port_split_calibration(state, beta)
        per_cycle = 0
        if filter_spec is not None:
            cascade_response(filter_spec, sample_rate, n_samples)
            per_cycle = samples_per_cycle(1.0 / mod_frequency, sample_rate)
        if segments is not None:
            segment_length(n_samples, segments)
            # A sample is at most x = c + NORMAL_DRAW_MAX sigma_e (the estimate
            # lies in [-c, c]), and |rfft(x w)| / sum(w) <= max|x|, so a
            # segment's power is at most x^2. The periodogram sums ``segments``
            # of them and doubles their mean, so max(segments, 2) x^2 must be finite.
            x_max = math.sqrt(np.finfo(float).max / max(segments, 2))
            if calibration > x_max:  # then no noise bound is left to name
                raise ValidationError(
                    f"the position scale {calibration:.4g} m of sigma = {state.beam.sigma} m "
                    f"exceeds {x_max:.4g} m, the largest sample a {segments}-segment "
                    "spectrum can square"
                )
            noise_max = (x_max - calibration) / NORMAL_DRAW_MAX
            if extensions.electronic_noise > noise_max:
                raise ValidationError(
                    f"electronic_noise must be <= {noise_max:.4g} m for a {segments}-segment "
                    f"spectrum, got {extensions.electronic_noise}"
                )
        return cls(
            physics, duration, sample_rate, n_per_sample, mod_frequency, extensions, n_samples,
            min(modulation_period(mod_frequency, sample_rate), n_samples), n_detected,
            dark_mean, calibration, per_cycle,
        )


def split_profile(plan, dnu_peak):
    """The dark-port kernel on the plan's m = min(P, N) sample times, read-only.

    Sample k's split probability at drive amplitude ``dnu_peak``; the record's
    later periods repeat it. The profile reads only the operating point (its
    carrier included), the interferometer state, ``background_fraction``, the
    plan's m, ``sample_rate`` and ``mod_frequency``, and ``dnu_peak``: never
    the seed. It is cached on those for the life of the process, so a sweep
    reads each point's sigma_x from the profile its record was drawn from,
    and a later request at the same point and drive runs no kernel. The cache
    holds at most PROFILE_CACHE_ENTRIES profiles of at most
    PROFILE_CACHE_SAMPLES values, 1 MiB at worst, plus the last longer
    profile (m = N at a rate that shares no short period with the drive), so
    a sweep at such a rate still reads sigma_x from the profile its record
    was drawn from.
    """
    physics = plan.physics
    key = (
        physics.point, physics.state, physics.config.background_fraction,
        plan.period, plan.sample_rate, plan.mod_frequency, dnu_peak,
    )
    return (_profile if plan.period <= PROFILE_CACHE_SAMPLES else _long_profile)(*key)


@functools.lru_cache(maxsize=PROFILE_CACHE_ENTRIES)
def _profile(point, state, background_fraction, period, sample_rate, mod_frequency, dnu_peak):
    t = np.arange(period) / sample_rate
    dnu = dnu_peak * np.sin(2.0 * np.pi * mod_frequency * t)
    # The kernel refuses |k sigma| above its limit (WeakValueValidityError).
    profile = dark_port_split_probability(kick_of_shift(point, dnu), state, background_fraction)
    profile.setflags(write=False)
    return profile


_long_profile = functools.lru_cache(maxsize=1)(_profile.__wrapped__)


def _draw_counts(rng, n, profile, n_samples):
    """Binomial(n, p) counts of an n_samples record, drawn from ``rng`` in phase order.

    The record is q whole periods of m = ``profile.size`` samples and r
    more. A phase's samples share one p, so numpy's binomial sampler sets up
    once per phase and call, not once per sample: phase by phase, a block's
    phases fill their q samples of a strided (q, m) view, a phase of more
    than DRAW_BLOCK samples in pieces. The record's shape decides each
    block's calls: a profile of one p (an undriven record) whose block holds
    at least SCALAR_RUN variates is one call with p as a Python float; else,
    if q >= SCALAR_RUN, one such call per phase; else one call with p
    broadcast from the profile. The r samples after the last whole period,
    if r > 0, follow in sample order. This is the same stream as one
    whole-record call.
    """
    counts = np.empty(n_samples, dtype=np.int64)
    m = profile.size
    q = n_samples // m
    periods = counts[: q * m].reshape(q, m)
    width = max(DRAW_BLOCK // q, 1)  # phases in a block
    one_p = profile.min() == profile.max()
    for k0 in range(0, m, width):
        k1 = min(k0 + width, m)
        for j0 in range(0, q, DRAW_BLOCK):  # one piece, unless a phase outgrows a block
            j1 = min(j0 + DRAW_BLOCK, q)
            if one_p and (k1 - k0) * q >= SCALAR_RUN:
                periods[j0:j1, k0:k1] = rng.binomial(n, float(profile[0]), (k1 - k0, j1 - j0)).T
            elif q >= SCALAR_RUN:
                for k in range(k0, k1):
                    periods[j0:j1, k] = rng.binomial(n, float(profile[k]), j1 - j0)
            else:
                periods[j0:j1, k0:k1] = rng.binomial(n, profile[k0:k1, None], (k1 - k0, j1 - j0)).T
    if q * m < n_samples:
        counts[q * m :] = rng.binomial(n, profile[: n_samples - q * m])
    return counts


def synthesize_run(
    dnu_peak,
    duration,
    sample_rate,
    physics,
    n_per_sample,
    seed,
    modulation=None,
    extensions=None,
    plan=None,
):
    """Simulate the raw split-detector record for a modulated run.

    The instantaneous frequency offset maps through the prism deflection to a
    momentum kick, and the split detector sees round((P_ps + beta) *
    n_per_sample) photons of the kicked dark-port profile, split by the
    closed-form ``dark_port_split_probability`` (the grid quadrature is only
    its test oracle). The sampled drive repeats every P =
    ``modulation_period`` samples, so the kernel runs on min(P, N) sample
    times, and the counts are drawn from that one-period profile in phase
    order, in calls of at most DRAW_BLOCK samples (``split_profile``,
    ``_draw_counts``): kernel work is O(min(P, N)), the photon draws are
    O(N), and no full-length split probability is built. Each sample's count
    is Binomial(n, p) at its own phase; the phase order decides only which
    variate of the stream lands on which sample. Any dark counts' right-hand
    share is added to the counts in place, and ``split_estimate`` then runs
    on FINISH_BLOCK samples at a time, each block's estimate written over its
    counts through a float64 view of the same buffer, and any electronic
    noise is added to it in place: besides the counts, only the
    noise-extension draws take full-length arrays. ``modulation`` sets the
    drive's frequency (default: a 10 Hz sine); its ``amplitude`` is not
    read, ``dnu_peak`` is. Output samples are calibrated position estimates
    in meters (unfiltered). Deterministic for a fixed seed.

    The ``RecordPlan`` built from the arguments checks them before anything
    is drawn. A recipe passes its request's ``plan`` instead, and then only
    ``dnu_peak`` and ``seed`` are read from the arguments.
    """
    plan = plan or RecordPlan.build(
        physics, duration, sample_rate, n_per_sample,
        (modulation or ModulationConfig()).mod_frequency, extensions or NoiseExtensions(),
    )
    rng, n_samples = np.random.default_rng(seed), plan.n_samples
    n_right = _draw_counts(rng, plan.n_detected, split_profile(plan, dnu_peak), n_samples)
    # The noise-extension draws follow the counts from the same stream, whole-record calls.
    n_detected, dark = float(plan.n_detected), None
    if plan.extensions.dark_count_rate > 0.0:
        dark = rng.poisson(plan.dark_mean, n_samples)
        n_right += rng.binomial(dark, 0.5)
    # Each block's estimate overwrites the counts it is computed from.
    estimates = n_right.view(np.float64)
    for i in range(0, n_samples, FINISH_BLOCK):
        block = slice(i, i + FINISH_BLOCK)
        total = n_detected if dark is None else n_detected + dark[block]
        split_estimate(n_right[block], total, plan.calibration, out=estimates[block])
    if plan.extensions.electronic_noise > 0.0:
        estimates += rng.normal(0.0, plan.extensions.electronic_noise, n_samples)
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
    result is bit-identical under any permutation of the inputs. The errors
    are divided by 2^k, the power of two of the largest, so that no weight
    or sum over- or underflows, and the slope error is scaled back; the
    deflections are divided by 2^j, the power of two of the largest |y|, so
    that no sum of w x y overflows, and the slope is scaled back. The
    scalings are exact, so the result does not depend on them.
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
    k = np.frexp(err.max())[1]
    j = np.frexp(np.abs(y).max())[1]
    x, y, err = x[order], np.ldexp(y[order], -j), np.ldexp(err[order], -k)
    w = 1.0 / err**2
    sw = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    denom = sw * sxx - sx**2
    slope = (sw * sxy - sx * sy) / denom
    return float(np.ldexp(slope, j)), float(np.ldexp(np.sqrt(sw / denom), k))


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
    A^2/2 in its bin) and reported in dB relative to the strongest bin. The
    segments are one batched transform of the record's (segments, seg_len)
    view, summed in segment order; samples after the last whole segment are
    dropped.

    The spectra are scaled by the coherent gain c as one multiply of their
    float64 view by 1/c, not numpy's complex division. That division by
    c + 0j computes (re + im·0)·(1/c) and (im − re·0)·(1/c), so the two
    differ only in the sign of a zero part, which squaring erases: every
    power keeps its bits.
    """
    seg_len = segment_length(series.samples.size, segments)
    win = hann_window(seg_len)
    coherent_gain = win.sum()
    chunks = series.samples[: segments * seg_len].reshape(segments, seg_len)
    spectra = np.fft.rfft(chunks * win)
    parts = spectra.view(np.float64)
    parts *= 1.0 / coherent_gain
    power = np.abs(spectra)
    power *= power
    power = power.sum(axis=0)
    power /= segments
    power[1:] *= 2.0  # fold negative frequencies; DC stays single-sided
    if seg_len % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is its own image
    ref = float(power.max())
    if ref <= 0.0:
        ref = 1.0
    power_db = 10.0 * np.log10(np.maximum(power, 1e-300) / ref)
    return Spectrum(
        frequencies=np.fft.rfftfreq(seg_len, d=1.0 / series.sample_rate),
        power_db=power_db,
        resolution_bw=series.sample_rate * (win**2).sum() / coherent_gain**2,
        ref_power=ref,
    )


# --- CSV serialization (units.csv_text / csv_columns layout) ---

_TIMESERIES_COLUMNS = ("time_s", "position_m")


def timeseries_to_csv(series, metadata=None):
    meta = {"sample_rate": float(series.sample_rate), **(metadata or {})}
    return csv_text(meta, _TIMESERIES_COLUMNS, series.times(), series.samples)


def timeseries_from_csv(text):
    header, (_, samples) = csv_columns(text, _TIMESERIES_COLUMNS)
    rate = finite_number(header.get("sample_rate", ""), "CSV metadata 'sample_rate'")
    return TimeSeries(sample_rate=rate, samples=samples), header
