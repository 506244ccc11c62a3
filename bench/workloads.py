"""Workloads, output checks and the pass loop of the wvfreq benchmark.

Every request goes through ``wvfreq.cli.main(argv)`` with ``-o`` pointing
into the run's work directory and stdout captured in memory, so unit
parsing, config build, ``resolve``, the recipe, CSV formatting and the file
write are all on the timed path. One client sends the next request only
after the previous one returned (a closed loop). A pass is one trip over a
workload's fixed request list; outputs are checked after the pass, outside
its timing.

The workload seed is the ``--seed`` of every request and the seed of the
scan jitter in the generated calibration positions file.
"""

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import probe
import spans
from wvfreq import (
    calibration,
    cli,
    config,
    dispersion,
    interferometer,
    noise,
    recipes,
    signal_chain,
    units,
)

TRACED_MODULES = (
    cli,
    config,
    units,
    dispersion,
    interferometer,
    noise,
    signal_chain,
    recipes,
    calibration,
)

# Published numbers and tolerances, as in tests/test_acceptance.py.
PAPER_AMPLIFICATION = 79.0
PAPER_SLOPE = 720e-18  # m/Hz
PAPER_SLOPE_ERR = 11e-18
PAPER_UNAMPLIFIED = 9.1e-18  # m/Hz
PAPER_SENSITIVITY = 129e3  # Hz/sqrt(Hz)
PAPER_IDEAL_SENSITIVITY = 67e3
PAPER_RANGE = 5e12  # Hz
# The fitted slope is a random variable of the seed. The acceptance test
# allows 2 combined sigma and a fixed 2% on the identity for one fixed seed;
# over 150 seeds the slope sits 1.1% below 9.1 x amplification with a
# seed-to-seed spread 1.5x its reported error, so those tolerances fail about
# one seed in four. A check that must hold for every workload seed allows
# this many sigma instead.
SLOPE_SIGMA = 5.0

# Generated calibration scan: Hz per scan unit, offset and jitter (1 MHz rms).
SCAN_SLOPE = 2.3e8
SCAN_OFFSET = 3.0
SCAN_JITTER = 1e6 / SCAN_SLOPE
PROPAGATE_HZ = 129e3

DNU_PEAK = 7.4e6
LONG_DURATION = 100.0
DAQ_RATE = 1024.0  # Hz: 102.4 samples per 10 Hz cycle


class CheckFailed(Exception):
    """An output that does not match what the request must produce."""


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Step:
    """One request of a pass: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    samples: int = 0  # simulated detector samples (duration x sample rate)
    output: str | None = None  # file the request writes


def _samples(duration, sample_rate):
    """Detector samples one ``synthesize_run`` call makes, counted as it counts them."""
    return int(round(duration * sample_rate))


def _sweep_samples(cfg):
    """Samples of a ``slope`` request: every sweep point runs settle + measured cycles."""
    cycles = cfg.n_cycles + cfg.settle_cycles
    return cfg.sweep_points * _samples(cycles / cfg.mod_frequency, cfg.sample_rate)


def _spectrum_samples(cfg):
    """Samples of a ``spectrum`` request: a driven and an undriven record."""
    return 2 * _samples(cfg.spectrum_duration, cfg.sample_rate)


def _cli_step(name, argv, output, check, samples=0):
    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["-o", output])
        return code, stdout.getvalue()

    def check_result(result):
        code, stdout = result
        _expect(code == 0, f"exit code {code}")
        with open(output, "r", encoding="utf-8") as handle:
            text = handle.read()
        check(text, stdout)

    return Step(name, run, check_result, samples, output)


# --- output parsing and checks ---


def _parse_csv(text):
    """'# key = value' header, column line and numeric rows of a wvfreq CSV."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns, np.array(rows, dtype=float)


def _config_csv(text, columns, n_rows=None):
    meta, found, rows = _parse_csv(text)
    _expect(meta.get("config_hash"), "header carries no config_hash")
    _expect(found == columns, f"columns {found!r}, expected {columns!r}")
    _expect(rows.shape[0] >= 1, "no data rows")
    if n_rows is not None:
        _expect(rows.shape[0] == n_rows, f"{rows.shape[0]} rows, expected {n_rows}")
    _expect(np.all(np.isfinite(rows)), "non-finite value in output")
    return meta, rows


def check_slope(text, _stdout):
    meta, rows = _config_csv(text, "dnu_hz,deflection_m,std_of_mean_m")
    _expect(rows.shape[0] == int(meta["sweep_points"]), f"{rows.shape[0]} sweep points")
    slope = float(meta["fitted_slope_m_per_hz"])
    error = float(meta["fitted_slope_error_m_per_hz"])
    refit = np.polyfit(rows[:, 0], rows[:, 1], 1, w=1.0 / rows[:, 2])[0]
    _expect(math.isclose(refit, slope, rel_tol=1e-9), f"rows refit to {refit}, header {slope}")
    amplification = float(meta["derived_amplification"])
    _expect(
        abs(amplification / PAPER_AMPLIFICATION - 1) <= 0.03,
        f"amplification {amplification} not within 3% of {PAPER_AMPLIFICATION}",
    )
    combined = math.hypot(PAPER_SLOPE_ERR, error)
    _expect(
        abs(slope - PAPER_SLOPE) <= SLOPE_SIGMA * combined,
        f"slope {slope} more than {SLOPE_SIGMA} combined sigma from {PAPER_SLOPE}",
    )
    identity = slope / (PAPER_UNAMPLIFIED * amplification)
    _expect(
        abs(identity - 1) <= 0.02 + SLOPE_SIGMA * error / slope,
        f"slope identity {identity} outside 2% + {SLOPE_SIGMA} sigma",
    )


def check_spectrum(mod_frequency, min_contrast_db=None):
    def check(text, _stdout):
        _, rows = _config_csv(text, "frequency_hz,driven_db,undriven_db")
        freqs, driven = rows[:, 0], rows[:, 1]
        fundamental = np.argmin(np.abs(freqs - mod_frequency))
        _expect(driven[fundamental] == 0.0, "driven trace not referenced to its fundamental")
        strongest = freqs[np.argmax(driven)]
        _expect(
            abs(strongest - mod_frequency) <= freqs[1],
            f"strongest driven line at {strongest} Hz, not {mod_frequency} Hz",
        )
        if min_contrast_db is not None:
            floor = np.median(driven[(freqs > 35.0) & (freqs < 45.0)])
            _expect(
                -floor >= min_contrast_db,
                f"fundamental-to-floor {-floor:.1f} dB < {min_contrast_db} dB",
            )

    return check


def check_sensitivity(text, stdout):
    _, rows = _config_csv(
        text,
        "snr,min_deflection_rad,min_frequency_shift_hz,integration_time_s,"
        "sensitivity_hz_rthz,ideal_sensitivity_hz_rthz,usable_range_hz,range_clamped",
        1,
    )
    sensitivity, ideal, span, clamped = rows[0, 4:8]
    _expect(abs(sensitivity / PAPER_SENSITIVITY - 1) <= 0.01, f"sensitivity {sensitivity}")
    _expect(abs(ideal / PAPER_IDEAL_SENSITIVITY - 1) <= 0.05, f"ideal sensitivity {ideal}")
    _expect(abs(span / PAPER_RANGE - 1) <= 0.30 and clamped == 0, f"usable range {span}")
    _expect("ideal shot-noise sensitivity" in stdout, "no text report on stdout")


def check_range(text, _stdout):
    _, rows = _config_csv(text, "usable_range_hz,clamped", 1)
    span, clamped = rows[0]
    _expect(abs(span / PAPER_RANGE - 1) <= 0.30 and clamped == 0, f"usable range {span}")


def check_simulate(sample_rate, n_samples):
    def check(text, _stdout):
        meta, _ = _config_csv(text, "time_s,position_m", n_samples)
        _expect(float(meta["sample_rate"]) == sample_rate, f"sample_rate {meta['sample_rate']}")

    return check


def write_positions(seed, path):
    """Scan positions of the packaged Rb D2 lines under a linear scan with jitter."""
    reference_hz = np.array(
        [line.relative_frequency for line in calibration.load_reference_lines()]
    )
    rng = np.random.default_rng(seed)
    positions = reference_hz / SCAN_SLOPE + SCAN_OFFSET
    positions += rng.normal(0.0, SCAN_JITTER, positions.size)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# generated scan positions, one per reference line\n")
        handle.writelines(f"{x:.17g}\n" for x in positions)
    return positions, reference_hz


def check_calibrate(positions, reference_hz):
    """Compare the report with an independent least-squares fit of the same data."""
    slope, intercept = np.polyfit(positions, reference_hz, 1)
    residuals = reference_hz - (slope * positions + intercept)
    sxx = ((positions - positions.mean()) ** 2).sum()
    slope_error = math.sqrt((residuals**2).sum() / (positions.size - 2) / sxx)
    expected = {
        "slope_hz_per_unit": slope,
        "intercept_hz": intercept,
        "residual_rms_hz": math.sqrt(np.mean(residuals**2)),
        "slope_error_hz_per_unit": slope_error,
        "fractional_slope_error": slope_error / abs(slope),
        f"propagated_error_hz_on_{units.fmt(PROPAGATE_HZ)}": PROPAGATE_HZ
        * slope_error
        / abs(slope),
    }

    def check(text, _stdout):
        report = {}
        for line in text.splitlines():
            key, _, value = line.partition("=")
            report[key.strip()] = float(value)
        _expect(set(report) == set(expected), f"report keys {sorted(report)}")
        for key, value in expected.items():
            _expect(
                math.isclose(report[key], value, rel_tol=1e-7, abs_tol=1e-9 * SCAN_SLOPE),
                f"{key} = {report[key]}, independent fit gives {value}",
            )

    return check


# --- workloads ---


def paper_reproduction(seed, workdir):
    """The six README subcommands at the default operating point."""
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    s = ["--seed", str(seed)]
    positions_path = out("positions.txt")
    positions, reference_hz = write_positions(seed, positions_path)
    cfg = config.config_from_mapping({"seed": seed})
    return [
        _cli_step("slope", ["slope"] + s, out("slope.csv"), check_slope, _sweep_samples(cfg)),
        _cli_step(
            "spectrum", ["spectrum"] + s, out("spectrum.csv"),
            check_spectrum(cfg.mod_frequency, min_contrast_db=30.0), _spectrum_samples(cfg),
        ),
        _cli_step("sensitivity", ["sensitivity"] + s, out("sensitivity.csv"), check_sensitivity),
        _cli_step("range", ["range"] + s, out("range.csv"), check_range),
        _cli_step(
            "simulate", ["simulate", "--dnu-peak", "7.4MHz", "--duration", "2.5s"] + s,
            out("simulate.csv"), check_simulate(cfg.sample_rate, _samples(2.5, cfg.sample_rate)),
            _samples(2.5, cfg.sample_rate),
        ),
        _cli_step(
            "calibrate", ["calibrate", positions_path, "--propagate", "129kHz"],
            out("calibrate.txt"), check_calibrate(positions, reference_hz),
        ),
    ]


def incommensurate_sampling(seed, workdir):
    """A 1024 Hz acquisition rate: 102.4 samples per cycle, no shared profiles."""
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    s = ["--seed", str(seed), "--sample-rate", f"{DAQ_RATE:g}Hz"]
    # Two 2 s records; 2048 samples fill one whole kernel chunk each.
    cfg = config.config_from_mapping(
        {"seed": seed, "sample_rate": DAQ_RATE, "spectrum_duration": 2.0, "spectrum_segments": 4}
    )
    return [
        _cli_step(
            "simulate", ["simulate", "--dnu-peak", "7.4MHz", "--duration", "1s"] + s,
            out("simulate.csv"), check_simulate(DAQ_RATE, _samples(1.0, DAQ_RATE)),
            _samples(1.0, DAQ_RATE),
        ),
        _cli_step(
            "spectrum",
            ["spectrum", "--spectrum-duration", f"{cfg.spectrum_duration:g}s",
             "--spectrum-segments", str(cfg.spectrum_segments)] + s,
            out("spectrum.csv"), check_spectrum(cfg.mod_frequency), _spectrum_samples(cfg),
        ),
    ]


def long_record(seed, workdir):
    """A 100 s record written by the CLI, read back and post-processed."""
    path = os.path.join(workdir, "long.csv")
    cfg = config.config_from_mapping({"seed": seed})
    physics = config.resolve(cfg)
    # The same call run_simulate makes, in process: the read-back must equal it.
    expected = signal_chain.synthesize_run(
        DNU_PEAK, LONG_DURATION, cfg.sample_rate, physics,
        physics.n_photons_per_sample(), cfg.seed,
        modulation=signal_chain.ModulationConfig(
            mod_frequency=cfg.mod_frequency, amplitude=DNU_PEAK
        ),
        extensions=signal_chain.NoiseExtensions(
            electronic_noise=cfg.electronic_noise, dark_count_rate=cfg.dark_count_rate
        ),
    )
    n_samples = expected.samples.size

    def readback():
        with open(path, "r", encoding="utf-8") as handle:
            series, meta = signal_chain.timeseries_from_csv(handle.read())
        spec = signal_chain.FilterSpec(
            center=float(meta["filter_center"]),
            stages=int(meta["filter_stages"]),
            gain=float(meta["filter_gain"]),
        )
        cycle = 1.0 / float(meta["mod_frequency"])
        n_cycles = int(round(LONG_DURATION / cycle)) - int(meta["settle_cycles"])
        peaks = signal_chain.extract_peaks(signal_chain.bandpass(series, spec), cycle, n_cycles)
        spectrum = signal_chain.power_spectrum(series, segments=16)
        return series, meta, spec, peaks, spectrum

    def check_readback(result):
        series, meta, spec, (peak_mean, _), spectrum = result
        _expect(series.sample_rate == expected.sample_rate, "sample rate changed on read-back")
        _expect(
            np.array_equal(series.samples, expected.samples),
            "read-back differs from the in-process series",
        )
        crest = (
            float(meta["derived_amplification"])
            * float(meta["derived_unamplified_slope_m_per_hz"])
            * DNU_PEAK
        )
        amplitude = peak_mean / spec.gain
        _expect(abs(amplitude / crest - 1) <= 0.02, f"peak {amplitude} vs crest {crest}")
        strongest = spectrum.frequencies[np.argmax(spectrum.power_db)]
        _expect(
            abs(strongest - float(meta["mod_frequency"])) <= spectrum.frequencies[1],
            f"strongest line at {strongest} Hz",
        )

    return [
        _cli_step(
            "simulate",
            ["simulate", "--dnu-peak", "7.4MHz", "--duration", "100s", "--seed", str(seed)],
            path, check_simulate(1000.0, n_samples), n_samples,
        ),
        Step("readback", readback, check_readback),
    ]


WORKLOADS = {
    "paper_reproduction": paper_reproduction,
    "incommensurate_sampling": incommensurate_sampling,
    "long_record": long_record,
}


# --- pass loop ---


def run_pass(steps, tracer=None):
    """Run every step once; returns the pass time and (result, error) per step."""
    for step in steps:
        if step.output and os.path.exists(step.output):
            os.remove(step.output)
    results = []
    start = time.perf_counter()
    for step in steps:
        scope = tracer.request(step.name) if tracer else contextlib.nullcontext()
        try:
            with scope:
                results.append((step.run(), None))
        except (Exception, SystemExit) as exc:  # a failed request is counted, not fatal
            results.append((None, exc))
    return time.perf_counter() - start, results


def check_pass(steps, results):
    """Messages of the requests that failed, and the bytes of output files written."""
    failures, written = [], 0
    for step, (result, error) in zip(steps, results):
        if error is None:
            try:
                step.check(result)
            except Exception as exc:  # any defect in an output fails the request
                error = exc
        if error is not None:
            failures.append(f"{step.name}: {type(error).__name__}: {error}")
        if step.output and os.path.exists(step.output):
            written += os.path.getsize(step.output)
    return failures, written


# Spans whose inclusive time is reported as "<name>_ms".
SPAN_METRICS = {
    "cli.build_parser_ms": ["cli.build_parser"],
    "config.from_mapping_ms": ["config.config_from_mapping"],
    "config.resolve_ms": ["config.resolve"],
    "config.resolved_metadata_ms": ["config.resolved_metadata"],
    "dispersion.calibrate_apex_angle_ms": ["dispersion.calibrate_apex_angle"],
    "dispersion.get_material_ms": ["dispersion.get_material"],
    "noise.usable_range_ms": ["noise.usable_range"],
    "calibration.fit_scan_calibration_ms": ["calibration.fit_scan_calibration"],
    "recipes.format_ms": [
        "recipes.slope_sweep_csv",
        "recipes.spectrum_pair_csv",
        "recipes.sensitivity_csv",
        "recipes.sensitivity_text",
    ],
    "signal_chain.synthesize_run_ms": ["signal_chain.synthesize_run"],
    "signal_chain.timeseries_to_csv_ms": ["signal_chain.timeseries_to_csv"],
    "signal_chain.timeseries_from_csv_ms": ["signal_chain.timeseries_from_csv"],
    "signal_chain.bandpass_ms": ["signal_chain.bandpass"],
    "signal_chain.power_spectrum_ms": ["signal_chain.power_spectrum"],
    "signal_chain.extract_peaks_ms": ["signal_chain.extract_peaks"],
    "signal_chain.slope_fit_ms": ["signal_chain.slope_fit"],
    "recipes.run_slope_ms": ["recipes.run_slope_sweep"],
    "recipes.run_spectrum_ms": ["recipes.run_spectrum_pair"],
    "recipes.run_sensitivity_ms": ["recipes.run_sensitivity"],
    "recipes.run_range_ms": ["recipes.run_range"],
    "recipes.run_simulate_ms": ["recipes.run_simulate"],
    "recipes.run_calibrate_ms": ["recipes.run_calibrate"],
}
LAYERS = (
    "cli", "config", "dispersion", "interferometer", "noise",
    "signal_chain", "recipes", "calibration",
)


def _rate(count, ms, scale):
    return count / scale / (ms / 1e3) if ms > 0 else 0.0


def layer_metrics(by_name, by_layer, written):
    """Per-layer figures of one traced pass."""
    empty = {"calls": 0, "ms": 0.0, "count": 0}
    span = lambda name: by_name.get(name, empty)  # noqa: E731
    metrics = {
        metric: sum(span(name)["ms"] for name in names)
        for metric, names in SPAN_METRICS.items()
    }
    metrics["config.resolve_calls"] = span("config.resolve")["calls"]
    synth = span("signal_chain.synthesize_run")
    metrics["signal_chain.synthesize_run_samples"] = synth["count"]
    metrics["signal_chain.synthesize_us_per_sample"] = (
        synth["ms"] * 1e3 / synth["count"] if synth["count"] else 0.0
    )
    for name in ("timeseries_to_csv", "timeseries_from_csv"):
        entry = span(f"signal_chain.{name}")
        metrics[f"signal_chain.{name}_mb_per_s"] = _rate(entry["count"], entry["ms"], 1e6)
    metrics["cli.output_bytes"] = written
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = by_layer.get(layer, 0.0)
    return metrics


def run(workload, seed, seconds, trace, workdir):
    """Warm up once, then run passes until ``seconds`` have passed since the
    start (at least one timed pass, and one traced pass when ``trace`` is
    set). Traced passes alternate with untraced ones."""
    deadline = time.perf_counter() + seconds
    steps = WORKLOADS[workload](seed, workdir)
    tracer = spans.Tracer(TRACED_MODULES) if trace else None
    attempted, failures = 0, []

    def one_pass(traced):
        nonlocal attempted
        if traced:
            tracer.install()
        try:
            elapsed, results = run_pass(steps, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        failed, written = check_pass(steps, results)
        attempted += len(steps)
        failures.extend(failed)
        return elapsed * 1e3, written

    samples_per_pass = sum(step.samples for step in steps)
    one_pass(False)  # warm-up: lazy loads and first-call costs, not timed
    probe.probe_ms()
    plain_ms, probe_ms, traced_ms, layers, self_ms = [], [], [], [], {}
    while not plain_ms or (trace and not traced_ms) or time.perf_counter() < deadline:
        traced = trace and len(plain_ms) > len(traced_ms)
        elapsed, written = one_pass(traced)
        if not traced:
            plain_ms.append(elapsed)
            probe_ms.append(probe.probe_ms())
            continue
        traced_ms.append(elapsed)
        by_name, by_layer = spans.summarize(tracer.take())
        layers.append(layer_metrics(by_name, by_layer, written))
        counted = layers[-1]["signal_chain.synthesize_run_samples"]
        if counted != samples_per_pass:
            raise RuntimeError(
                f"synthesize_run made {counted} samples in a pass; the workload counts "
                f"{samples_per_pass} for samples_per_s"
            )
        for name, entry in by_name.items():
            self_ms[name] = self_ms.get(name, 0.0) + entry["self_ms"]

    return {
        "pass_ms": plain_ms,
        "probe_ms": probe_ms,  # machine-speed probe timed after each untraced pass
        "traced_pass_ms": traced_ms,
        "layers": layers,  # one dict of per-layer figures per traced pass
        "self_ms": self_ms,  # self time per span name over all traced passes
        "samples_per_pass": samples_per_pass,
        "requests_per_pass": len(steps),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
    }
