import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wvfreq import cli
from wvfreq.config import (
    ExperimentConfig,
    config_from_file,
    config_from_mapping,
    resolve,
    resolved_metadata,
)
from wvfreq.errors import ValidationError
from wvfreq.signal_chain import timeseries_from_csv
from wvfreq.units import parse_quantity


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

    @pytest.mark.parametrize("text", ["1e309", "-1e309", "1e300THz", float("inf"), float("nan")])
    def test_not_finite(self, text):
        with pytest.raises(ValidationError, match="is not finite"):
            parse_quantity(text, "frequency")


class TestConfig:
    def test_defaults_resolve_to_operating_point(self):
        physics = resolve(ExperimentConfig())
        assert physics.state.phi == pytest.approx(0.22853207394762412, rel=1e-12)
        assert physics.prism.apex_angle == pytest.approx(0.7822230716277206, rel=1e-9)

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
        assert resolve(cfg).prism.apex_angle == 1.0

    def test_direct_apex_angle(self):
        cfg = config_from_mapping({"apex_angle": "60deg"})
        assert cfg.unamplified_slope is None
        physics = resolve(cfg)
        assert physics.prism.apex_angle == pytest.approx(np.pi / 3, rel=1e-9)

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            config_from_mapping({"wavelenght": "780nm"})

    def test_int_field_validation(self):
        for name in ("n_cycles", "settle_cycles", "sweep_points", "filter_stages",
                     "spectrum_segments", "seed"):
            with pytest.raises(ValidationError, match="integer"):
                config_from_mapping({name: "2.5"})
            assert type(getattr(config_from_mapping({name: "7"}), name)) is int

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


class TestCli:
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

    def test_validation_exit_code(self, capsys):
        assert cli.main(["slope", "--sweep-points", "1"]) == 2
        assert "error" in capsys.readouterr().err
        for n_cycles in ("0", "1"):
            assert cli.main(["slope", "--n-cycles", n_cycles]) == 2
            assert capsys.readouterr().err == f"error: n_cycles must be >= 2, got {n_cycles}\n"
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
                "sweep point 0 (dnu=743000 Hz): a 1e+19 s record at 1000.0 Hz holds "
                "more samples than an array can index",
            ),
            (
                ["slope", "--sweep-points", "1e20"],
                "slope sweep needs 2 to 9223372036854775807 points, got 100000000000000000000",
            ),
            (
                ["slope", "--sweep-points", "-1"],
                "slope sweep needs 2 to 9223372036854775807 points, got -1",
            ),
        ):
            assert cli.main(args) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["range", "sensitivity"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--sigma", "1e294"), ("--sigma", "1e300"), ("--range-threshold", "1e-300")],
    )
    def test_usable_range_not_converged_exit_code(self, capsys, command, flag, value):
        # sensitivity finds the range first: at these sigmas its SNR terms
        # would overflow with a RuntimeWarning before the exit-4 message.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, flag, value]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: usable-range root find")
        assert captured.err.count("\n") == 1

    def test_apex_angle_too_small_exit_code(self, capsys):
        for value in ("1e-150", "1e-300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["sensitivity", "--apex-angle", value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: apex angle must lie in [1e-09, pi), got {value}\n"

    def test_photon_count_beyond_int64_exit_code(self, capsys):
        assert cli.main(["simulate", "--power", "1e200W", "--duration", "0.1s"]) == 2
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
        assert "unreachable" in capsys.readouterr().err
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

    def test_calibrate_roundtrip(self, tmp_path, capsys):
        from wvfreq.calibration import load_reference_lines

        lines = load_reference_lines()
        slope, intercept = 2.3e8, 5e6
        positions = [(l.relative_frequency - intercept) / slope for l in lines]
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text("# positions\n" + "".join(f"{p!r}\n" for p in positions))
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

    def test_calibrate_duplicate_positions(self, tmp_path, capsys):
        pos_file = tmp_path / "positions.txt"
        pos_file.write_text("1.0\n1.0\n2.0\n3.0\n4.0\n5.0\n")
        assert cli.main(["calibrate", str(pos_file)]) == 2

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
