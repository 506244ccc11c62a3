import inspect
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wvfreq import cli, errors, recipes, signal_chain
from wvfreq.config import (
    ExperimentConfig,
    config_from_file,
    config_from_mapping,
    resolve,
    resolved_metadata,
)
from wvfreq.dispersion import kick_of_shift
from wvfreq.errors import ValidationError
from wvfreq.signal_chain import ELECTRONIC_NOISE_MAX, timeseries_from_csv
from wvfreq.units import csv_columns, parse_quantity


class TestUnits:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("388um", 388e-6),
            ("780nm", 780e-9),
            ("2mW", 2e-3),
            ("7.4MHz", 7.4e6),
            ("30ms", 0.03),
            ("0.27m", 0.27),
            ("9.1pm", 9.1e-12),
            ("1.3", 1.3),
            ("5THz", 5e12),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-12)

    def test_dimension_check(self):
        assert parse_quantity("388um", "length") == pytest.approx(388e-6)
        with pytest.raises(ValidationError, match="expected frequency"):
            parse_quantity("388um", "frequency")

    def test_bad_suffix(self):
        with pytest.raises(ValidationError, match="unknown unit"):
            parse_quantity("3parsec")

    def test_garbage(self):
        with pytest.raises(ValidationError):
            parse_quantity("not-a-number")

    @pytest.mark.parametrize(
        "text",
        ["1e309", "-1e309", "1e300THz", float("inf"), float("nan"), pytest.param(10**400, id="int")],
    )
    def test_not_finite(self, text):
        with pytest.raises(ValidationError, match="is not finite"):
            parse_quantity(text, "frequency")


class TestConfig:
    def test_defaults_resolve_to_operating_point(self):
        physics = resolve(ExperimentConfig())
        assert physics.state.phi == pytest.approx(0.22853207394762412, rel=1e-12)
        assert physics.point.prism.apex_angle == pytest.approx(0.7822222992740858, rel=1e-12)

    @pytest.mark.parametrize("apex", [{}, {"apex_angle": "60deg"}])
    def test_index_evaluated_once_per_resolve(self, monkeypatch, apex):
        # Kick, slope, range, ideal sensitivity and metadata all read the operating point.
        from wvfreq import dispersion, noise
        from wvfreq.noise import ideal_sensitivity, usable_range

        calls = []
        original = dispersion.sellmeier_index
        dispersion._calibrated_point.cache_clear()
        noise._usable_range.cache_clear()
        monkeypatch.setattr(
            dispersion, "sellmeier_index", lambda *args: calls.append(args) or original(*args)
        )
        physics = resolve(config_from_mapping(apex))
        assert len(calls) == 1
        kick_of_shift(physics.point, np.linspace(-7.4e6, 7.4e6, 5))
        physics.deflection_slope()
        usable_range(physics.point, 388e-6)
        ideal_sensitivity(2e-3, physics.point, 388e-6)
        resolved_metadata(physics)
        assert len(calls) == 1

    def test_packaged_tables_parsed_once_per_process(self, monkeypatch):
        from wvfreq import calibration, dispersion

        # Earlier tests may have filled the caches.
        dispersion.load_material_catalog.cache_clear()
        calibration._packaged_reference_lines.cache_clear()
        reads = []
        for module in (dispersion, calibration):
            monkeypatch.setattr(
                module,
                "data_lines",
                lambda source, parse=module.data_lines: reads.append(source.name) or parse(source),
            )
        for _ in range(2):
            resolve(ExperimentConfig())
            calibration.load_reference_lines()
        assert reads == ["sellmeier_coefficients.txt", "rb_d2_reference_lines.txt"]

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "sigma = 500um\n"
            "power = 4mW\n"
            "seed = 99\n"
        )
        cfg = config_from_file(path)
        assert cfg.sigma == pytest.approx(500e-6)
        assert cfg.power == pytest.approx(4e-3)
        assert cfg.seed == 99
        cfg2 = config_from_mapping({"power": "8mW"}, base=cfg)
        assert cfg2.power == pytest.approx(8e-3)
        assert cfg2.sigma == pytest.approx(500e-6)

    def test_key_set_twice_is_refused(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("sample_rate = 1kHz\n# comment\npower = 4mW\n sample_rate = 2kHz\n")
        message = f"{path}:4: config key 'sample_rate' is set twice"
        with pytest.raises(ValidationError) as info:
            config_from_file(path)
        assert str(info.value) == message
        assert cli.main(["range", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_exclusive_pairs(self):
        with pytest.raises(ValidationError, match="only one of"):
            config_from_mapping({"phi": "0.2rad", "postselection": "0.013"})
        # supplying phi clears the postselection default
        cfg = config_from_mapping({"phi": "0.2rad"})
        assert cfg.phi == pytest.approx(0.2)
        assert cfg.postselection is None
        physics = resolve(cfg)
        assert physics.state.phi == pytest.approx(0.2)

    def test_pair_rules_at_construction(self):
        for kwargs, message in (
            ({"phi": 0.2}, "supply only one of 'phi' and 'postselection'"),
            ({"apex_angle": 1.0}, "supply only one of 'apex_angle' and 'unamplified_slope'"),
            ({"postselection": None}, "one of 'phi' or 'postselection' is required"),
            ({"unamplified_slope": None}, "one of 'apex_angle' or 'unamplified_slope' is required"),
        ):
            with pytest.raises(ValidationError) as info:
                ExperimentConfig(**kwargs)
            assert str(info.value) == message
        cfg = ExperimentConfig(phi=0.2, postselection=None, apex_angle=1.0, unamplified_slope=None)
        assert resolve(cfg).point.prism.apex_angle == 1.0

    def test_direct_apex_angle(self):
        cfg = config_from_mapping({"apex_angle": "60deg"})
        assert cfg.unamplified_slope is None
        physics = resolve(cfg)
        assert physics.point.prism.apex_angle == pytest.approx(np.pi / 3, rel=1e-9)

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            config_from_mapping({"wavelenght": "780nm"})

    def test_int_field_validation(self):
        for name in ("n_cycles", "settle_cycles", "sweep_points", "filter_stages",
                     "spectrum_segments", "seed"):
            with pytest.raises(ValidationError, match="integer"):
                config_from_mapping({name: "2.5"})
            assert type(getattr(config_from_mapping({name: "7"}), name)) is int

    def test_int_field_above_two_to_the_53_is_exact(self, tmp_path):
        # A float holds 2^53 + 1 as 2^53, so an integer literal or a Python
        # int is taken as written; exponent forms still pass through the float.
        big = 2**53 + 1
        for name in ("seed", "n_cycles"):
            for raw in (str(big), f" +{big} ", big):
                assert getattr(config_from_mapping({name: raw}), name) == big
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = {big}\nn_cycles = {big}\n")
        cfg = config_from_file(path)
        assert (cfg.seed, cfg.n_cycles) == (big, big)
        assert config_from_mapping({"n_cycles": "1e3"}).n_cycles == 1000
        assert config_from_mapping({"filter_stages": "1e31"}).filter_stages == int(1e31)
        with pytest.raises(ValidationError) as info:
            config_from_mapping({"seed": "1.5"})
        assert str(info.value) == "seed must be an integer, got '1.5'"

    def test_metadata_and_hash(self):
        physics = resolve(ExperimentConfig())
        meta = resolved_metadata(physics)
        assert "derived_phi" in meta
        assert "derived_apex_angle" in meta
        assert meta["derived_amplification"] == pytest.approx(78.27, abs=0.01)
        again = resolved_metadata(resolve(ExperimentConfig()))
        assert meta["config_hash"] == again["config_hash"]
        other = resolved_metadata(resolve(ExperimentConfig(seed=1)))
        assert other["config_hash"] != meta["config_hash"]


QUICK_ARGS = [
    "--sweep-points", "3",
    "--n-cycles", "5",
    "--settle-cycles", "2",
    "--sweep-min", "2MHz",
    "--sweep-max", "7.4MHz",
]


# (flag, message, subcommand) of refusals that must come before any record is drawn.
REFUSED_BEFORE_ANY_RECORD = [
    (flag, message, command)
    for command in ("slope", "spectrum", "simulate", "sensitivity", "range")
    for flag, message in (
        ("--filter-stages=0", "filter_stages must be >= 1, got 0"),
        # The bandpass is centred on the drive, so a zero centre is a zero drive.
        ("--mod-frequency=0Hz", "mod_frequency must be positive, got 0.0"),
        ("--electronic-noise=-1m", "electronic_noise must be >= 0, got -1.0"),
        ("--dark-count-rate=-1Hz", "dark_count_rate must be >= 0, got -1.0"),
        ("--sweep-points=1", "sweep_points must be in [2, 9223372036854775807], got 1"),
        ("--sweep-max=-1MHz", "sweep_max must be >= 0, got -1000000.0"),
        # phi = pi: the dark port passes all the light and amplifies nothing.
        ("--postselection=1", "phi must lie in (0, pi) for amplification, got 3.141592653589793"),
    )
] + [
    (flag, message, command)
    for command in ("slope", "spectrum", "simulate")
    for flag, message in (
        (
            "--power=1e-15",
            "P_ps * n_per_sample = 0.05 < 10: too few postselected photons per sample "
            "for a meaningful estimate",
        ),
        (
            "--dark-count-rate=1e30",
            "1e+27 dark counts per sample exceed the Poisson draw's int64 range",
        ),
        ("--background-fraction=-1", "background fraction must be >= 0"),
    )
] + [
    # The bandpass is centred on the drive, so a drive at the Nyquist
    # frequency is refused by the one aliasing rule, before the bandpass.
    (
        "--sample-rate=20Hz",
        "a 10.0 Hz drive is at or above the 10.0 Hz Nyquist frequency of a 20.0 Hz sample rate",
        "slope",
    ),
    # A sweep_max equal to the default sweep_min: every shift is one value.
    (
        "--sweep-max=743kHz",
        "sweep_min and sweep_max are both 743000.0 Hz: a sweep of one shift has no slope",
        "slope",
    ),
    (
        "--sample-rate=1024Hz",
        "cycle period 0.1 s is not a whole number of samples at 1024.0 Hz",
        "slope",
    ),
    # The padding, ln 1e-20 / ln|z| * (stages + 1) samples, is about 14.7
    # drive cycles a stage: only the stage count grows it beyond the record.
    # At these two counts the padded FFT's bytes still fit in intp, and numpy
    # refuses the allocation (a prefix is matched).
    ("--filter-stages=1e14", "Unable to allocate 521. PiB for an array", "slope"),
    ("--filter-stages=5e14", "Unable to allocate 2.55 EiB for an array", "slope"),
    # Past about 7.9e14 stages they do not.
] + [
    (
        f"--filter-stages={stages}",
        f"a {int(float(stages))}-stage 10.0 Hz bandpass at 1000.0 Hz rings longer than "
        "a float64 array can hold",
        "slope",
    )
    for stages in ("1e15", "1e16", "1e18", "1e31", "1e300")
] + [
    ("--spectrum-segments=0", "cannot split 100000 samples into 0 segments", "spectrum"),
    ("--spectrum-duration=0.1s", "cannot split 100 samples into 16 segments", "spectrum"),
    (
        "--spectrum-duration=0.15s",
        "duration 0.15 s is not a whole number of 10.0 Hz cycles",
        "spectrum",
    ),
    ("--duration=0.15s", "duration 0.15 s is not a whole number of 10.0 Hz cycles", "simulate"),
]

# A drive at or above the Nyquist frequency: each exited 0 before, with a
# spectrum peaked at the 400 Hz alias of a 600 Hz drive, or, sampled once a
# period, a record that holds no drive at all (sin 2 pi k = 0).
ABOVE_NYQUIST = [
    (["spectrum", "--mod-frequency", "600Hz"], 600.0, 1000.0),
    (["spectrum", "--sample-rate", "19Hz"], 10.0, 19.0),
    (["simulate", "--sample-rate", "15Hz", "--duration", "1s"], 10.0, 15.0),
    (["simulate", "--mod-frequency", "1000Hz", "--duration", "0.1s"], 1000.0, 1000.0),
]


def _positions_file(tmp_path):
    """The packaged reference lines' positions on a 2.3e8 Hz/unit, 5 MHz scan."""
    from wvfreq.calibration import load_reference_lines

    lines = load_reference_lines()
    slope, intercept = 2.3e8, 5e6
    positions = [(l.relative_frequency - intercept) / slope for l in lines]
    pos_file = tmp_path / "positions.txt"
    pos_file.write_text("# positions\n" + "".join(f"{p!r}\n" for p in positions))
    return pos_file


class TestCli:
    @pytest.mark.parametrize(
        "command", ["slope", "spectrum", "sensitivity", "range", "simulate", "calibrate"]
    )
    def test_request_runs_on_the_calling_thread(self, tmp_path, capsys, command):
        # The benchmark's tracer keeps one span stack, so a request at its
        # defaults neither starts a thread nor leaves one running.
        argv = [command] + ([str(_positions_file(tmp_path))] if command == "calibrate" else [])
        before = threading.active_count()
        with mock.patch.object(
            threading.Thread, "start", autospec=True, side_effect=threading.Thread.start
        ) as start:
            assert cli.main(argv + ["-o", str(tmp_path / "out.csv")]) == 0
        assert start.call_count == 0
        assert threading.active_count() == before

    def test_sensitivity_text(self, capsys):
        assert cli.main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "kHz/sqrt(Hz)" in out
        assert "usable range" in out

    def test_sensitivity_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sens.csv"
        assert cli.main(["sensitivity", "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "ideal_sensitivity_hz_rthz" in text
        assert "# config_hash =" in text

    @pytest.mark.parametrize("args", [[], ["--sigma", "2mm", "--sweep-min", "1MHz"]])
    def test_sensitivity_text_and_csv_share_one_row(self, tmp_path, capsys, args):
        # Every kHz and THz figure on stdout is a CSV frequency column's value
        # as sensitivity_text formats it, and every such column is on stdout:
        # a figure added to one output and not the other fails here.
        out_path = tmp_path / "sens.csv"
        assert cli.main(["sensitivity", *args, "-o", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        text = out_path.read_text()
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        columns = tuple(header.split(","))
        _, table = csv_columns(text, columns)
        unmatched = [float(value[0]) for name, value in zip(columns, table) if "_hz" in name]
        formats = {"kHz": lambda v: f"{v / 1e3:.1f}", "THz": lambda v: f"{v / 1e12:.2f}"}
        figures = re.findall(r"(\S+) (kHz|THz)", stdout)
        assert len(figures) == len(unmatched)
        for figure, unit in figures:
            matches = [value for value in unmatched if formats[unit](value) == figure]
            assert matches, (figure, unit)
            unmatched.remove(matches[0])

    def test_slope_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["slope", *QUICK_ARGS, "-o", str(a)]) == 0
        assert cli.main(["slope", *QUICK_ARGS, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert "# fitted_slope_m_per_hz =" in text
        assert "dnu_hz,deflection_m,std_of_mean_m" in text

    def test_slope_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["slope", *QUICK_ARGS, "-o", str(a)]) == 0
        assert cli.main(["slope", *QUICK_ARGS, "--seed", "7", "-o", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_every_error_class_has_one_exit_code(self, capsys):
        # main maps these three bases to exits 2, 3 and 4 and their stderr
        # prefixes; every other class in wvfreq.errors derives from exactly
        # one of them. The contract is written out here, not read from the
        # classes.
        contract = {
            errors.ValidationError: (2, "error: "),
            errors.PhysicsValidityError: (3, "physics validity error: "),
            errors.NumericalError: (4, "numerical error: "),
        }
        classes = [
            cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if cls.__module__ == errors.__name__ and cls is not errors.SimulationError
        ]
        assert set(contract) < set(classes)
        for cls in classes:
            bases = [base for base in contract if issubclass(cls, base)]
            assert len(bases) == 1, cls.__name__
            code, prefix = contract[bases[0]]
            with mock.patch.object(recipes, "run_range", side_effect=cls("raised")):
                assert cli.main(["range"]) == code, cls.__name__
            assert capsys.readouterr().err == f"{prefix}raised\n", cls.__name__

    def test_validation_exit_code(self, capsys):
        assert cli.main(["slope", "--sweep-points", "1"]) == 2
        assert "error" in capsys.readouterr().err
        assert cli.main(["slope", "--n-cycles", "0"]) == 2
        assert capsys.readouterr().err == "error: n_cycles must be >= 1, got 0\n"
        assert cli.main(["slope", "--settle-cycles", "-1"]) == 2
        assert capsys.readouterr().err == "error: settle_cycles must be >= 0, got -1\n"
        assert cli.main(["sensitivity", "--power", "1e300W"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: photon number overflows")
        for args, message in (
            (["simulate", "--sample-rate", "0Hz"], "sample_rate must be positive, got 0.0"),
            (["range", "--sample-rate", "0Hz"], "sample_rate must be positive, got 0.0"),
            (["slope", "--filter-gain", "0"], "filter_gain must be positive, got 0.0"),
            (
                ["simulate", "--sample-rate", "5Hz", "--duration", "0.1s"],
                "a 0.1 s record at 5.0 Hz holds no sample",
            ),
            (
                ["spectrum", "--sample-rate", "1e-3Hz"],
                "a 100.0 s record at 0.001 Hz holds no sample",
            ),
            (["sensitivity", "--sigma", "1e309"], "quantity '1e309' is not finite"),
            (["range", "--sigma", "1e309"], "quantity '1e309' is not finite"),
            (["slope", "--seed", "1e309"], "quantity '1e309' is not finite"),
            (["simulate", "--duration", "1e309s"], "quantity '1e309s' is not finite"),
            (["sensitivity", "--sweep-min", "1e309"], "quantity '1e309' is not finite"),
            (["simulate", "--dnu-peak", "1e300THz"], "quantity '1e300THz' is not finite"),
            (
                ["simulate", "--duration", "1e10s", "--mod-frequency", "1e300Hz"],
                "duration 10000000000.0 s is not a whole number of 1e+300 Hz cycles",
            ),
            (
                ["simulate", "--duration", "1e20s"],
                "a 1e+20 s record at 1000.0 Hz holds more samples than an array can index",
            ),
            (
                ["spectrum", "--spectrum-duration", "1e20s"],
                "a 1e+20 s record at 1000.0 Hz holds more samples than an array can index",
            ),
            (
                ["slope", "--n-cycles", "1e20"],
                "a 1e+19 s record at 1000.0 Hz holds more samples than an array can index",
            ),
            # Past intp max // 8 samples the int64 count buffer's byte count
            # overflows intp, so these are refused by name too.
            (
                ["simulate", "--duration", "1.2e15s"],
                "a 1200000000000000.0 s record at 1000.0 Hz holds more samples than an array "
                "can index",
            ),
            (
                ["spectrum", "--spectrum-duration", "1.2e15s"],
                "a 1200000000000000.0 s record at 1000.0 Hz holds more samples than an array "
                "can index",
            ),
            (
                ["slope", "--n-cycles", "3e16"],
                "a 3000000000000000.5 s record at 1000.0 Hz holds more samples than an array "
                "can index",
            ),
            (
                ["slope", "--settle-cycles", "3e16"],
                "a 3000000000000002.5 s record at 1000.0 Hz holds more samples than an array "
                "can index",
            ),
            (
                ["slope", "--sweep-points", "1e20"],
                "sweep_points must be in [2, 9223372036854775807], got 100000000000000000000",
            ),
            (
                ["slope", "--sweep-points", "-1"],
                "sweep_points must be in [2, 9223372036854775807], got -1",
            ),
            (
                ["sensitivity", "--sigma", "1e-300"],
                "beam sigma must be >= the wavelength, got 1e-300 m",
            ),
            (
                ["sensitivity", "--sigma", "1e-9"],
                "beam sigma must be >= the wavelength, got 1e-09 m",
            ),
            (["range", "--sigma", "1e-9"], "beam sigma must be >= the wavelength, got 1e-09 m"),
            (["spectrum", "--spectrum-dnu=-1MHz"], "spectrum_dnu must be >= 0, got -1000000.0"),
            (["simulate", "--dnu-peak=-1MHz"], "--dnu-peak must be >= 0, got -1000000.0"),
            (["simulate", "--duration=-1s"], "record duration must be positive, got -1.0 s"),
            (["simulate", "--duration=0s"], "record duration must be positive, got 0.0 s"),
            (
                ["spectrum", "--spectrum-duration=-1s"],
                "record duration must be positive, got -1.0 s",
            ),
            (["spectrum", "--spectrum-duration=0s"], "record duration must be positive, got 0.0 s"),
            # Above the kernel's limit the range would name drives it refuses.
            (["range", "--range-threshold", "1"], "threshold must lie in (0, 0.5], got 1.0"),
            (["sensitivity", "--range-threshold", "1"], "threshold must lie in (0, 0.5], got 1.0"),
        ):
            assert cli.main(args) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_slope_reads_one_cycle_without_settling(self, tmp_path):
        # The lock-in needs one whole cycle, not a spread of cycles.
        out = tmp_path / "slope.csv"
        assert cli.main(["slope", "--n-cycles", "1", "--settle-cycles", "0", "-o", str(out)]) == 0
        _, (shifts, deflections, errors) = csv_columns(
            out.read_text(), ("dnu_hz", "deflection_m", "std_of_mean_m")
        )
        assert shifts.size == 6
        assert np.all(np.isfinite(deflections)) and np.all(errors > 0)

    @pytest.mark.parametrize("flag,message,command", REFUSED_BEFORE_ANY_RECORD)
    def test_config_refused_before_any_record(self, capsys, flag, message, command):
        # Every refusal comes before the first record: the config fields' in
        # every subcommand, the record plan's in the three that draw records.
        # No sweep message carries a "sweep point 0" prefix.
        with (
            mock.patch.object(recipes, "synthesize_run", side_effect=AssertionError) as run,
            mock.patch.object(signal_chain, "_draw_counts", side_effect=AssertionError) as draw,
        ):
            assert cli.main([command, flag]) == 2
        assert run.call_count == draw.call_count == 0
        err = capsys.readouterr().err
        if message.startswith("Unable to allocate"):  # numpy's text goes on
            assert err.startswith(f"error: {message}") and err.count("\n") == 1
        else:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args,drive,rate", ABOVE_NYQUIST)
    def test_drive_above_nyquist_refused_before_any_photon(
        self, tmp_path, capsys, args, drive, rate
    ):
        out = tmp_path / "x.csv"
        with mock.patch.object(
            signal_chain, "_draw_counts", side_effect=AssertionError
        ) as draw:
            assert cli.main([*args, "-o", str(out)]) == 2
        assert draw.call_count == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a {drive} Hz drive is at or above the {rate / 2} Hz Nyquist frequency "
            f"of a {rate} Hz sample rate\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--sigma=1e300"],  # a Python float overflow, not a numpy one
        ],
    )
    def test_float_overflow_exit_code(self, tmp_path, capsys, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args + ["-o", str(tmp_path / "x.csv")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: ")  # then the C library's text
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()
        # The float branch prints the exception's last argument (an
        # OverflowError's is its strerror); the OS and memory branch its text.
        for exc, code, err in (
            (FloatingPointError("overflow encountered in multiply"), 4,
             "numerical error: overflow encountered in multiply\n"),
            (OverflowError(34, "Numerical result out of range"), 4,
             "numerical error: Numerical result out of range\n"),
            (FileNotFoundError(2, "No such file or directory"), 2,
             "error: [Errno 2] No such file or directory\n"),
            (MemoryError("raised"), 2, "error: raised\n"),
        ):
            with mock.patch.object(recipes, "run_range", side_effect=exc):
                assert cli.main(["range"]) == code, type(exc).__name__
            assert capsys.readouterr().err == err

    def test_slope_reads_huge_electronic_noise(self, tmp_path):
        # sigma_e^2 would overflow, the fit's weights 1/err^2 underflow and
        # its sums of w x y overflow, without their power-of-two scaling.
        # Where sigma_e swamps the shot noise, each record is sigma_e times
        # the same normal draws, so the slope and its error scale with sigma_e.
        fits = []
        for noise in (1e100, 1e200, 1e300, 1e306, 1e307):
            out = tmp_path / f"slope-{noise:g}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["slope", f"--electronic-noise={noise:g}m", "-o", str(out)]) == 0
            header, _ = csv_columns(out.read_text(), ("dnu_hz", "deflection_m", "std_of_mean_m"))
            names = ("fitted_slope_m_per_hz", "fitted_slope_error_m_per_hz")
            fit = [float(header[name]) for name in names]
            assert np.all(np.isfinite(fit)) and fit[1] > 0.0
            fits.append(np.array(fit) / noise)
        np.testing.assert_allclose(fits[1:], [fits[0]] * 4, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("noise", ["1e306m", "1e307m", "1e308m", "1.7e308m"])
    @pytest.mark.parametrize(
        "command", [["simulate", "--duration", "0.1s"], ["slope"], ["spectrum"]],
        ids=["simulate", "slope", "spectrum"],
    )
    def test_extreme_electronic_noise_never_prints_inf(self, tmp_path, capsys, command, noise):
        # numpy's normal draw overflows to inf without a floating-point flag,
        # so a noise that could draw one is refused by name; below the bound a
        # run either writes finite numbers or stops with one line.
        out = tmp_path / "x.csv"
        code = cli.main(command + [f"--electronic-noise={noise}", "-o", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            text = out.read_text().lower()
            assert "inf" not in text and "nan" not in text
        else:
            assert code in (2, 3, 4) and err.count("\n") == 1
        if float(noise[:-1]) > ELECTRONIC_NOISE_MAX:
            assert code == 2 and err.startswith("error: electronic_noise must be <= ")

    def test_spectrum_refuses_noise_its_periodogram_cannot_square(self, tmp_path, capsys):
        # A 16-segment periodogram squares samples up to c + 13.71 sigma_e and
        # sums 16 of their powers: the plan refuses a sigma_e past that bound,
        # and just below it the spectrum is finite.
        plan = recipes._plan(resolve(ExperimentConfig()), 100.0, segments=16)
        bound = float((np.sqrt(np.finfo(float).max / 16) - plan.calibration) / 13.71)
        out = tmp_path / "x.csv"
        for noise, code in [(bound * (1 + 1e-9), 2), (bound * (1 - 1e-9), 0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                argv = ["spectrum", f"--electronic-noise={noise!r}m", "-o", str(out)]
                assert cli.main(argv) == code
            err = capsys.readouterr().err
            if code == 2:
                assert err == (
                    f"error: electronic_noise must be <= {bound:.4g} m for a 16-segment "
                    f"spectrum, got {noise!r}\n"
                )
            else:
                text = out.read_text().lower()
                assert err == "" and "inf" not in text and "nan" not in text

    @pytest.mark.parametrize(
        "args,scale,sigma",
        [
            (["--sigma", "3e153"], "3.76e+153", "3e+153"),
            (["--sigma", "1e200", "--spectrum-dnu", "0"], "1.253e+200", "1e+200"),
        ],
        ids=["driven", "undriven"],
    )
    def test_spectrum_refuses_a_scale_its_periodogram_cannot_square(
        self, capsys, args, scale, sigma
    ):
        # The position scale c = sqrt(pi / 2) sigma alone exceeds
        # sqrt(DBL_MAX / 16): no electronic-noise bound is left, so the plan
        # names the scale and sigma, before any photon.
        with mock.patch.object(signal_chain, "_draw_counts", side_effect=AssertionError) as draw:
            assert cli.main(["spectrum", *args]) == 2
        assert draw.call_count == 0
        assert capsys.readouterr().err == (
            f"error: the position scale {scale} m of sigma = {sigma} m exceeds 3.352e+153 m, "
            "the largest sample a 16-segment spectrum can square\n"
        )

    def test_slope_filter_gain_cancels(self, tmp_path):
        # The lock-in kernel divides the gain back out, so a gain of 1e300
        # reads the same deflections as the default 1e4.
        columns = ("dnu_hz", "deflection_m", "std_of_mean_m")
        readings = []
        for gain in ("1e4", "1e300"):
            out = tmp_path / f"slope-{gain}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["slope", f"--filter-gain={gain}", "-o", str(out)]) == 0
            readings.append(csv_columns(out.read_text(), columns)[1])
        (_, default, default_errors), (_, large, large_errors) = readings
        np.testing.assert_allclose(large, default, rtol=1e-12, atol=0.0)
        assert np.array_equal(large_errors, default_errors)

    @pytest.mark.parametrize("command", ["slope", "spectrum", "simulate"])
    def test_dark_count_mean_beyond_poisson_range_exit_code(self, tmp_path, capsys, command):
        assert cli.main([command, "--dark-count-rate=1e30Hz", "-o", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith("1e+27 dark counts per sample exceed the Poisson draw's int64 range\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["range", "sensitivity"])
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--sigma", "1e294"),
            ("--sigma", "1e300"),
            ("--range-threshold", "1e-300"),
        ],
    )
    def test_usable_range_not_converged_exit_code(self, capsys, command, flag, value):
        # sensitivity finds the range first: at these sigmas its SNR terms
        # would overflow with a RuntimeWarning before the exit-4 message.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, flag, value]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: usable range not resolved: the root")
        assert captured.err.count("\n") == 1

    def test_usable_range_of_a_wide_beam(self, capsys):
        # The index step, 6.8e-18, is below one ulp of n0 and still resolved.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["range", "--sigma", "1e10"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        _, table = csv_columns(captured.out, ("usable_range_hz", "clamped"))
        span = table[0][0]
        assert 0.18 < span < 0.19
        physics = resolve(config_from_mapping({"sigma": "1e10"}))
        assert kick_of_shift(physics.point, span) * 1e10 == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("path_length", ["3e-7", "2.7e-7"])
    def test_calibration_next_to_grazing_incidence(self, capsys, path_length):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["range", "--path-length", path_length]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        meta, _ = csv_columns(captured.out, ("usable_range_hz", "clamped"))
        slope = float(meta["derived_unamplified_slope_m_per_hz"])
        assert slope == pytest.approx(9.1e-18, rel=1e-15)

    def test_usable_range_wide_beam_short_path(self, capsys):
        # scipy's brentq needs 110 iterations on this range, 10 more than its default cap.
        args = ["range", "--sigma", "5mm", "--range-threshold", "0.2", "--path-length", "0.05"]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("usable_range_hz,clamped\n27283767284.34103,0\n")

    def test_apex_angle_too_small_exit_code(self, capsys):
        for value in ("1e-150", "1e-300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["sensitivity", "--apex-angle", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: apex angle must lie in [1e-09, pi), got {value}\n"

    def test_photon_count_beyond_int64_exit_code(self, capsys):
        # A background fraction near 1e300 overflows the photon count itself.
        for flag in ("--power=1e200W", "--background-fraction=1e300"):
            assert cli.main(["simulate", flag, "--duration", "0.1s"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.endswith("exceed the binomial draw's int64 range\n")
            assert captured.err.count("\n") == 1

    def test_record_too_long_exit_code(self, capsys):
        # 1e15 s at 1 kHz asks numpy for 8e18 bytes, more than any 64-bit
        # address space, so the request is refused whatever the memory
        # overcommit policy and nothing is allocated.
        assert cli.main(["spectrum", "--spectrum-duration", "1e15s"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1

    def test_simulated_record_too_long_exit_code(self, tmp_path, capsys):
        # The kernel runs over one period; the refusal comes from the
        # record's count buffer, allocated before any draw.
        assert cli.main(["simulate", "--duration", "1e15s", "-o", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_spectrum_kick_beyond_kernel_range_exit_code(self, tmp_path, capsys):
        # The driven record's kick is beyond the kernel's range; the request
        # fails before it draws a count and writes nothing.
        args = ["spectrum", "--spectrum-dnu", "6THz", "-o", str(tmp_path / "x.csv")]
        assert cli.main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "physics validity error: k*sigma = 0.63245397653798907 exceeds 0.5, the "
            "range of the dark-port kernel\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_kick_beyond_kernel_range_names_point(self, tmp_path, capsys):
        args = ["slope", "--sweep-max", "6THz", "--sweep-points", "2"]
        assert cli.main(args + ["-o", str(tmp_path / "x.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "physics validity error: sweep point 1 (dnu=6e+12 Hz): "
            "k*sigma = 0.63245397653798907 exceeds 0.5, the range of the dark-port kernel\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args,code,message",
        [
            (
                ["--sweep-max", "6THz"], 3,
                "physics validity error: sweep point 5 (dnu=6e+12 Hz): "
                "k*sigma = 0.63245397653798907 exceeds 0.5, the range of the dark-port kernel",
            ),
            (
                ["--wavelength", "210.0001nm", "--sweep-max", "1THz"], 2,
                "error: sweep point 5 (dnu=1e+12 Hz): wavelength outside fused_silica "
                "validity range [2.100e-07, 3.710e-06] m: "
                "2.0985310106446028e-07..2.1014730502097871e-07 m",
            ),
        ],
        ids=["kernel-range", "sellmeier-window"],
    )
    def test_sweep_refused_before_any_photon(self, capsys, args, code, message):
        # Both refusals depend only on the config and grow with the shift, so
        # the sweep draws its largest point first: it is refused there, and
        # no photon of a smaller point is drawn.
        records = []
        run = recipes.synthesize_run

        def spy_run(dnu_peak, *rest, **kwargs):
            records.append(dnu_peak)
            return run(dnu_peak, *rest, **kwargs)

        with (
            mock.patch.object(recipes, "synthesize_run", spy_run),
            mock.patch.object(signal_chain, "_draw_counts", side_effect=AssertionError) as draw,
        ):
            assert cli.main(["slope", *args]) == code
        assert draw.call_count == 0
        assert records == [float(args[-1].removesuffix("THz")) * 1e12]
        assert capsys.readouterr().err == message + "\n"

    def test_wavelength_outside_window_prints_its_digits(self, capsys):
        # 210 nm lies just inside the window, but a 7.4 MHz drive moves it
        # below 2.1e-07 m; the message prints the offending minimum with
        # enough digits to show that it is below the window's edge.
        assert cli.main(["slope", "--wavelength", "210nm"]) == 2
        err = capsys.readouterr().err
        lowest = err.rsplit(" m: ", 1)[1].split("..")[0]
        assert float(lowest) < 2.1e-07

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["sensitivity", "--wavelength", "5um"],
                "fused_silica validity range [2.100e-07, 3.710e-06] m: 4.9999999999999996e-06 m",
            ),
            (
                ["range", "--material", "bk7", "--wavelength", "2.6um"],
                "bk7 validity range [3.000e-07, 2.500e-06] m: 2.6000000000000001e-06 m",
            ),
        ],
        ids=["sensitivity-5um", "range-bk7-2.6um"],
    )
    def test_one_wavelength_outside_window_is_named_once(self, capsys, args, message):
        # A lone wavelength is not printed as a range from itself to itself.
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: wavelength outside {message}\n"

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--seed", "-1", "--duration", "0.1s",
             "-o", str(tmp_path / "x.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0, got -1\n"

    def test_zero_mod_frequency_exit_code(self, capsys):
        assert cli.main(["slope", "--mod-frequency", "0Hz"]) == 2
        err = capsys.readouterr().err
        assert err == "error: mod_frequency must be positive, got 0.0\n"

    def test_zero_power_exit_codes(self, tmp_path, capsys):
        assert cli.main(["sensitivity", "--power", "0W"]) == 2
        assert capsys.readouterr().err == "error: zero photon budget: sensitivity is unbounded\n"
        args = ["spectrum", "--power", "0W", "--spectrum-duration", "1s",
                "--spectrum-segments", "1", "-o", str(tmp_path / "x.csv")]
        assert cli.main(args) == 2

    def test_physics_exit_code(self, tmp_path, capsys):
        # kick bound violated at the modulation extreme
        code = cli.main(
            ["simulate", "--dnu-peak", "6THz", "--duration", "0.1s",
             "-o", str(tmp_path / "x.csv")]
        )
        assert code == 3
        assert "physics validity" in capsys.readouterr().err

    def test_drive_of_the_printed_range_prints_its_excess(self, capsys):
        # The printed range is the positive side's; a drive of that size
        # reaches |k sigma| just above 0.5 at its negative crest, and the
        # refusal prints enough digits to show it.
        args = ["simulate", "--dnu-peak", "4748005356984.6514Hz", "--duration", "0.1s"]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert err == (
            "physics validity error: k*sigma = 0.50040223430884712 exceeds 0.5, the "
            "range of the dark-port kernel\n"
        )

    def test_filter_center_is_refused(self, tmp_path, capsys):
        # The bandpass is centred on the drive; no flag or key moves it.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["slope", "--filter-center", "12Hz"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --filter-center 12Hz" in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text("filter_center = 10Hz\n")
        assert cli.main(["slope", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown config key 'filter_center'; known keys: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["slope", "spectrum", "sensitivity", "range", "simulate"])
    def test_header_filter_center_is_the_drive(self, tmp_path, command):
        out = tmp_path / "out.csv"
        assert cli.main([command, "--mod-frequency", "20Hz", "-o", str(out)]) == 0
        header = dict(
            line[2:].split(" = ", 1) for line in out.read_text().splitlines()
            if line.startswith("# ")
        )
        assert header["filter_center"] == header["mod_frequency"] == "20"

    def test_seed_above_two_to_the_53_reaches_header_and_draw(self, tmp_path, capsys):
        assert cli.main(["range", "--seed", "9007199254740993"]) == 0
        assert "# seed = 9007199254740993\n" in capsys.readouterr().out
        rows = []
        for seed in ("9007199254740992", "9007199254740993"):
            out = tmp_path / f"{seed}.csv"
            assert cli.main(["simulate", "--duration", "0.1s", "--seed", seed, "-o", str(out)]) == 0
            rows.append([line for line in out.read_text().splitlines() if line[0] != "#"])
        assert rows[0] != rows[1]

    def test_calibrate_roundtrip(self, tmp_path, capsys):
        pos_file = _positions_file(tmp_path)
        assert cli.main(["calibrate", str(pos_file), "--propagate", "129kHz"]) == 0
        out = capsys.readouterr().out
        assert "slope_hz_per_unit = 230000000" in out
        assert "propagated_error_hz" in out

    @pytest.mark.parametrize("bad", ["np.float64(2.08)", "nan", "1e999"])
    def test_calibrate_non_numeric_line(self, tmp_path, capsys, bad):
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text(f"# positions\n1.0\n{bad}\n3.0\n4.0\n5.0\n6.0\n")
        assert cli.main(["calibrate", str(pos_file)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {pos_file}:3: not a finite number: {bad!r}\n"

    @pytest.mark.parametrize("bad", ["x", "nan", "inf", "1e999"])
    def test_calibrate_non_numeric_reference(self, tmp_path, capsys, bad):
        refs = tmp_path / "refs.txt"
        refs.write_text(f"# name, MHz\na, 0.0\nb, {bad}, note\nc, 20.0\n")
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text("1.0\n2.0\n3.0\n")
        assert cli.main(["calibrate", str(pos_file), "--references", str(refs)]) == 2
        assert capsys.readouterr().err == f"error: {refs}:3: not a finite number: {bad!r}\n"

    @pytest.mark.parametrize("role", ["config", "positions", "references"])
    def test_input_file_not_utf8(self, tmp_path, capsys, role):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# \xff\xfe\n1.0\n")
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text("1.0\n2.0\n3.0\n")
        argv = {
            "config": ["sensitivity", "--config", str(bad)],
            "positions": ["calibrate", str(bad)],
            "references": ["calibrate", str(pos_file), "--references", str(bad)],
        }[role]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text (byte 2)\n"

    def test_input_files_with_byte_order_mark(self, tmp_path, capsys):
        from wvfreq.calibration import load_reference_lines

        positions = "".join(f"{l.relative_frequency / 2.3e8!r}\n" for l in load_reference_lines())
        outputs = []
        for mark in ("", "\ufeff"):
            config = tmp_path / "run.cfg"
            config.write_text(mark + "seed = 3\n", encoding="utf-8")
            pos_file = tmp_path / "positions.txt"
            pos_file.write_text(mark + positions, encoding="utf-8")
            assert cli.main(["range", "--config", str(config)]) == 0
            assert cli.main(["calibrate", str(pos_file)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == ""

    def test_calibrate_rereads_a_user_reference_file(self, tmp_path, capsys):
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text("1.0\n2.0\n3.0\n")
        refs = tmp_path / "refs.txt"
        slopes = []
        for spacing in (10.0, 30.0):
            refs.write_text(f"a, 0.0\nb, {spacing}\nc, {2 * spacing}\n")
            assert cli.main(["calibrate", str(pos_file), "--references", str(refs)]) == 0
            slopes.append(capsys.readouterr().out.splitlines()[0])
        assert slopes == ["slope_hz_per_unit = 10000000", "slope_hz_per_unit = 30000000"]

    def test_calibrate_duplicate_positions(self, tmp_path, capsys):
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text("1.0\n1.0\n2.0\n3.0\n4.0\n5.0\n")
        assert cli.main(["calibrate", str(pos_file)]) == 2
        assert capsys.readouterr().err == "error: degenerate fit: duplicate observed positions\n"
        # Distinct positions whose spread float64 cannot square are refused by
        # name, not by numpy's overflow or divide-by-zero text.
        for positions, sxx in (
            ("-1e308\n1.0\n2.0\n3.0\n4.0\n1e308\n", "inf"),
            ("1e-320\n2e-320\n3e-320\n4e-320\n5e-320\n6e-320\n", "0"),
        ):
            pos_file.write_text(positions)
            assert cli.main(["calibrate", str(pos_file), "--propagate", "129kHz"]) == 4
            assert capsys.readouterr() == (
                "",
                "numerical error: the spread of the observed positions cannot be squared "
                f"in float64: sum of squared deviations = {sxx}\n",
            )

    def test_simulate_csv_parses_back(self, tmp_path):
        out_path = tmp_path / "sim.csv"
        assert (
            cli.main(
                ["simulate", "--dnu-peak", "7.4MHz", "--duration", "0.3s",
                 "-o", str(out_path)]
            )
            == 0
        )
        series, meta = timeseries_from_csv(out_path.read_text())
        assert series.samples.size == 300
        assert meta["material"] == "fused_silica"
        assert "config_hash" in meta

    def test_range_subcommand(self, tmp_path):
        out_path = tmp_path / "range.csv"
        assert cli.main(["range", "-o", str(out_path)]) == 0
        text = out_path.read_text()
        line = [l for l in text.splitlines() if not l.startswith("#")][-1]
        span = float(line.split(",")[0])
        assert span == pytest.approx(4.75e12, rel=0.01)

    def test_spectrum_smoke(self, tmp_path):
        out_path = tmp_path / "spec.csv"
        args = [
            "spectrum", "-o", str(out_path),
            "--spectrum-duration", "10s",
            "--spectrum-segments", "4",
        ]
        assert cli.main(args) == 0
        header = out_path.read_text().splitlines()
        assert "frequency_hz,driven_db,undriven_db" in header

    def test_config_file_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("power = 8mW\n")
        assert cli.main(["sensitivity", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "33.6 kHz/sqrt(Hz)" in out  # ideal halves at 4x power


PARSE_SEQUENCE = [
    ["slope", "--seed", "7", "--sweep-points", "3"],
    ["range", "-o", "range.csv"],
    ["slope"],
    ["simulate", "--dnu-peak", "7.4MHz"],
    ["slope", "--bogus-flag", "1"],
    ["calibrate", "positions.txt", "--propagate", "129kHz"],
    ["slope"],
]


class TestParserReuse:
    def test_main_builds_one_parser_per_process(self, capsys):
        cli._parser.cache_clear()
        seen = []
        dispatch = mock.patch.object(
            cli, "_dispatch", side_effect=lambda args: seen.append(args) or 0
        )
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build, dispatch:
            parser = cli._parser()
            for argv in PARSE_SEQUENCE:
                if "--bogus-flag" in argv:
                    with pytest.raises(SystemExit) as exit_info:
                        cli.main(argv)
                    assert exit_info.value.code == 2
                else:
                    assert cli.main(argv) == 0
                assert cli._parser() is parser
        assert build.call_count == 1
        assert cli._parser.cache_info().currsize == 1
        assert "--bogus-flag" in capsys.readouterr().err
        # No state carries over: each namespace equals a fresh parser's.
        accepted = [argv for argv in PARSE_SEQUENCE if "--bogus-flag" not in argv]
        assert seen == [cli.build_parser().parse_args(argv) for argv in accepted]
        assert seen[2].seed is None and seen[2].sweep_points is None

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_does_not_build_the_parser(self):
        src = Path(cli.__file__).resolve().parent.parent
        code = "import wvfreq.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out == "0\n"


# One process runs these steps in order. After ``import wvfreq`` it lists the
# numpy and wvfreq.* modules loaded, and after each later step the scipy,
# fractions and decimal modules. No step may load any of them; the first step
# after the import of the CLI also reads its simulated record back. The
# script also counts the CSV writer's and reader's tables and the parsed
# packaged data tables built by the import: none.
_IMPORT_SCRIPT = """
import json, sys
out = sys.argv[1]
loaded = lambda roots=("scipy", "fractions", "decimal"): sorted(
    m for m in sys.modules if m.split(".")[0] in roots
)
import wvfreq
steps = [[m for m in loaded(("numpy", "wvfreq")) if m != "wvfreq"]]
import wvfreq.cli as cli
from wvfreq import calibration, dispersion, signal_chain, units
built = sum(
    table.cache_info().currsize
    for table in (
        units._powers_of_ten, units._layout_tables, units._reader_tables,
        dispersion.load_material_catalog, calibration._packaged_reference_lines,
    )
)
steps.append(loaded())
from wvfreq.calibration import load_reference_lines
with open(out + "/positions.txt", "w") as handle:
    handle.writelines(f"{i}.0\\n" for i in range(len(load_reference_lines())))
assert cli.main(["simulate", "-o", out + "/raw.csv"]) == 0
with open(out + "/raw.csv") as handle:
    signal_chain.timeseries_from_csv(handle.read())
assert cli.main(["spectrum", "-o", out + "/spectrum.csv"]) == 0
assert cli.main(["calibrate", out + "/positions.txt", "-o", out + "/calibration.txt"]) == 0
steps.append(loaded())
assert cli.main(["range", "-o", out + "/range.csv"]) == 0
assert cli.main(["sensitivity", "-o", out + "/sensitivity.csv"]) == 0
steps.append(loaded())
assert cli.main(["slope", "-o", out + "/slope.csv"]) == 0
steps.append(loaded())
print(json.dumps([built, steps]))
"""
_IMPORT_STEPS = (
    "import wvfreq",
    "import wvfreq.cli",
    "simulate and its read-back, spectrum, calibrate",
    "range, sensitivity",
    "slope",
)

# Runs each subcommand at its defaults, in a fresh interpreter, with stdout
# and stderr in files; argv[2] == "block" makes every scipy import fail.
_SUBCOMMAND_SCRIPT = """
import contextlib, sys
out = sys.argv[1]
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from wvfreq import cli
from wvfreq.calibration import load_reference_lines
with open(out + "/positions.txt", "w") as handle:
    handle.writelines(f"{i}.0\\n" for i in range(len(load_reference_lines())))
for name, argv in (
    ("slope", ["slope"]),
    ("spectrum", ["spectrum"]),
    ("sensitivity", ["sensitivity", "-o", out + "/sensitivity.csv"]),
    ("range", ["range"]),
    ("simulate", ["simulate", "--dnu-peak", "7.4MHz"]),
    ("calibrate", ["calibrate", out + "/positions.txt", "--propagate", "129kHz"]),
):
    with open(f"{out}/{name}.out", "w") as stdout, open(f"{out}/{name}.err", "w") as stderr:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    print(name, code)
"""


def _run_script(script, *args):
    src = Path(cli.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout


class TestLazyImports:
    def test_each_request_loads_only_what_it_runs(self, tmp_path):
        built, steps = json.loads(_run_script(_IMPORT_SCRIPT, tmp_path).splitlines()[-1])
        assert built == 0
        assert len(steps) == len(_IMPORT_STEPS)
        for loaded, step in zip(steps, _IMPORT_STEPS):
            assert loaded == [], step

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        outputs = {}
        for mode in ("block", "allow"):
            out = tmp_path / mode
            out.mkdir()
            codes = _run_script(_SUBCOMMAND_SCRIPT, out, mode)
            assert codes.split() == [
                "slope", "0", "spectrum", "0", "sensitivity", "0",
                "range", "0", "simulate", "0", "calibrate", "0",
            ], mode
            outputs[mode] = {
                path.name: path.read_bytes() for path in out.iterdir() if path.suffix != ".txt"
            }
        assert len(outputs["block"]) == 13  # six stdouts, six stderrs, one CSV
        assert outputs["block"] == outputs["allow"]
