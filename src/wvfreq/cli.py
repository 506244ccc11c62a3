"""Command-line entry point.

Subcommands: slope, spectrum, sensitivity, range, calibrate, simulate.
Exit codes: 0 success, 2 validation error, 3 physics-validity error,
4 numerical failure.
"""

import argparse
import functools
import sys

import numpy as np

from . import recipes
from .config import CONFIG_FIELDS, ExperimentConfig, config_from_file, config_from_mapping
from .errors import NumericalError, PhysicsValidityError, ValidationError
from .units import csv_text, parse_quantity

EXIT_VALIDATION = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4


_CSV_TO_STDOUT = "CSV output path (default stdout)"
# (subcommand, help, -o help) of the subcommands that take config flags and -o only
_CONFIG_COMMANDS = (
    ("slope", "modulation sweep and deflection-slope fit", _CSV_TO_STDOUT),
    ("spectrum", "driven and undriven noise spectra", _CSV_TO_STDOUT),
    ("sensitivity", "sensitivity and usable-range report",
     "CSV output path (text report on stdout)"),
    ("range", "usable tuning range for the kick bound", _CSV_TO_STDOUT),
)


def _build_config(args):
    base = ExperimentConfig()
    if args.config:
        base = config_from_file(args.config, base=base)
    overrides = {
        name: getattr(args, name)
        for name in CONFIG_FIELDS
        if getattr(args, name, None) is not None
    }
    return config_from_mapping(overrides, base=base)


def _write(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wvfreq",
        description=(
            "Simulator for weak-value-amplified optical frequency measurement: "
            "prism dispersion, Sagnac postselection, shot-noise split detection "
            "and the bandpass/lock-in signal chain."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One parent parser holds --config and the per-field flags of the config commands.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="flat key = value config file")
    for name in CONFIG_FIELDS:
        flag = "--" + name.replace("_", "-")
        config.add_argument(flag, dest=name, metavar="VALUE", help=CONFIG_FIELDS[name][1])

    for name, help_text, output_help in _CONFIG_COMMANDS:
        p = sub.add_parser(name, help=help_text, parents=[config])
        p.add_argument("-o", "--output", help=output_help)

    p = sub.add_parser("calibrate", help="fit the scan-to-frequency calibration")
    p.add_argument("positions", help="file of observed line positions, one per line")
    p.add_argument(
        "--references",
        help="reference-line table (default: packaged Rb D2 set)",
    )
    p.add_argument(
        "--propagate",
        help="also propagate the slope error onto this frequency (e.g. 129kHz)",
    )
    p.add_argument("-o", "--output", help="report output path (default stdout)")

    p = sub.add_parser(
        "simulate", help="dump one raw detector time series", parents=[config]
    )
    p.add_argument("--dnu-peak", default="0Hz", help="modulation amplitude (e.g. 7.4MHz)")
    p.add_argument("--duration", default="2.5s", help="record length (whole cycles)")
    p.add_argument("-o", "--output", help=_CSV_TO_STDOUT)

    return parser


def _dispatch(args):
    if args.command == "slope":
        result = recipes.run_slope_sweep(_build_config(args))
        _write(recipes.slope_sweep_csv(result), args.output)
        return 0
    if args.command == "spectrum":
        freqs, driven, undriven, meta = recipes.run_spectrum_pair(_build_config(args))
        _write(recipes.spectrum_pair_csv(freqs, driven, undriven, meta), args.output)
        return 0
    if args.command == "sensitivity":
        report, meta = recipes.run_sensitivity(_build_config(args))
        sys.stdout.write(recipes.sensitivity_text(report))
        if args.output:
            _write(recipes.sensitivity_csv(report, meta), args.output)
        return 0
    if args.command == "range":
        span, meta = recipes.run_range(_build_config(args))
        text = csv_text(
            meta, ("usable_range_hz", "clamped"), span.frequency_span, span.clamped
        )
        _write(text, args.output)
        return 0
    if args.command == "calibrate":
        probe = parse_quantity(args.propagate, "frequency") if args.propagate else None
        _, text = recipes.run_calibrate(args.positions, args.references, probe)
        _write(text, args.output)
        return 0
    if args.command == "simulate":
        config = _build_config(args)
        dnu_peak = parse_quantity(args.dnu_peak, "frequency")
        if dnu_peak < 0:  # a sine amplitude, as sweep_min and spectrum_dnu are
            raise ValidationError(f"--dnu-peak must be >= 0, got {dnu_peak}")
        duration = parse_quantity(args.duration, "time")
        _write(recipes.run_simulate(config, dnu_peak, duration), args.output)
        return 0
    raise ValidationError(f"unknown command {args.command!r}")


@functools.cache
def _parser():
    """The process's one parser, built on the first ``main`` call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # An overflow or 0/0 anywhere in a request ends it, rather than printing inf or nan.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PhysicsValidityError as exc:
        print(f"physics validity error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FloatingPointError, OverflowError) as exc:  # a float result out of range
        print(f"numerical error: {exc.args[-1]}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, MemoryError) as exc:  # MemoryError: a record too long to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
