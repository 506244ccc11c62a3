"""Experiment configuration: defaults, file/flag parsing, resolution.

Defaults pin the published operating point: 780 nm carrier, 388 um beam,
27 cm interferometer, 2 mW locked power, 1.3% postselection and a prism
calibrated to a 9.1 pm/MHz unamplified deflection slope. Exactly one of
{phi, postselection} and one of {apex_angle, unamplified_slope} may be
supplied; the derived partner is recorded in the run metadata.

Config files are flat ``key = value`` text with '#' comments; values may
carry unit suffixes (see units.py). CLI flags override file values.
"""

import hashlib
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, dispersion, interferometer
from .errors import ValidationError
from .noise import photon_number
from .signal_chain import FilterSpec, NoiseExtensions
from .units import data_lines, fmt, parse_quantity

# field name -> (dimension for the unit parser, help text)
CONFIG_FIELDS = {
    "wavelength": ("length", "carrier wavelength (default 780nm)"),
    "power": ("power", "optical power entering the interferometer (default 2mW)"),
    "sigma": ("length", "Gaussian beam intensity width (default 388um)"),
    "path_length": ("length", "interferometer path length (default 0.27m)"),
    "postselection": (None, "dark-port postselection probability (default 0.013)"),
    "phi": ("angle", "dark-port phase, alternative to postselection"),
    "apex_angle": ("angle", "prism apex angle, alternative to unamplified_slope"),
    "unamplified_slope": (
        None,
        "free-deflection slope in m/Hz used to calibrate the apex angle "
        "(default 9.1e-18, i.e. 9.1 pm/MHz)",
    ),
    "material": (None, "prism material name from the Sellmeier catalog"),
    "mod_frequency": ("frequency", "modulation frequency (default 10Hz)"),
    "sample_rate": ("frequency", "detector sampling rate (default 1kHz)"),
    "n_cycles": (None, "modulation cycles averaged per sweep point (default 25)"),
    "settle_cycles": (None, "extra cycles discarded for filter settling (default 5)"),
    "sweep_min": ("frequency", "smallest modulation amplitude (default 743kHz)"),
    "sweep_max": ("frequency", "largest modulation amplitude (default 7.4MHz)"),
    "sweep_points": (None, "number of sweep points (default 6)"),
    "filter_stages": (None, "stages of the bandpass centred on mod_frequency (default 2)"),
    "filter_gain": (None, "post-filter gain (default 1e4)"),
    "spectrum_duration": ("time", "record length for noise spectra (default 100s)"),
    "spectrum_dnu": ("frequency", "drive amplitude for the driven spectrum (default 7.4MHz)"),
    "spectrum_segments": (None, "averaged periodogram segments (default 16)"),
    "integration_time": ("time", "effective integration time per point (default 30ms)"),
    "range_threshold": (None, "k*sigma bound defining the usable range (default 0.5)"),
    "background_fraction": (None, "uniform stray-light fraction beta (default 0)"),
    "electronic_noise": ("length", "additive rms position noise per sample (default 0)"),
    "dark_count_rate": ("frequency", "detector dark-count rate (default 0)"),
    "seed": (None, "base random seed"),
}

# Exactly one member of each pair is set; supplying one clears the other.
_EXCLUSIVE_PAIRS = (("phi", "postselection"), ("apex_angle", "unamplified_slope"))

_INTP_MAX = int(np.iinfo(np.intp).max)
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
# The fields that no object built by resolve() checks: name -> (test, the rule it states).
_FIELD_RULES = {
    "mod_frequency": (lambda v: v > 0, "positive"),
    "sample_rate": (lambda v: v > 0, "positive"),
    "seed": (lambda v: v >= 0, ">= 0"),
    # The lock-in reads each sweep point over whole cycles, so it needs one.
    "n_cycles": (lambda v: v >= 1, ">= 1"),
    "settle_cycles": (lambda v: v >= 0, ">= 0"),
    # Sweep points and the spectrum's drive are sine amplitudes; the line fit
    # needs two points, linspace an intp count.
    "sweep_min": (lambda v: v >= 0, ">= 0"),
    "sweep_max": (lambda v: v >= 0, ">= 0"),
    "spectrum_dnu": (lambda v: v >= 0, ">= 0"),
    "sweep_points": (lambda v: 2 <= v <= _INTP_MAX, f"in [2, {_INTP_MAX}]"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    wavelength: float = 780e-9
    power: float = 2e-3
    sigma: float = 388e-6
    path_length: float = 0.27
    postselection: float | None = 0.013
    phi: float | None = None
    apex_angle: float | None = None
    unamplified_slope: float | None = 9.1e-18
    material: str = "fused_silica"
    mod_frequency: float = 10.0
    sample_rate: float = 1000.0
    n_cycles: int = 25
    settle_cycles: int = 5
    sweep_min: float = 0.743e6
    sweep_max: float = 7.4e6
    sweep_points: int = 6
    filter_stages: int = 2
    filter_gain: float = 1e4
    spectrum_duration: float = 100.0
    spectrum_dnu: float = 7.4e6
    spectrum_segments: int = 16
    integration_time: float = 0.03
    range_threshold: float = 0.5
    background_fraction: float = 0.0
    electronic_noise: float = 0.0
    dark_count_rate: float = 0.0
    seed: int = 20100

    def __post_init__(self):
        for first, second in _EXCLUSIVE_PAIRS:
            given = [name for name in (first, second) if getattr(self, name) is not None]
            if len(given) == 2:
                raise ValidationError(f"supply only one of {first!r} and {second!r}")
            if not given:
                raise ValidationError(f"one of {first!r} or {second!r} is required")
        for name, (allowed, rule) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not allowed(value):
                raise ValidationError(f"{name} must be {rule}, got {value}")

    def sweep_shifts(self):
        return np.linspace(self.sweep_min, self.sweep_max, self.sweep_points)


def _coerce(name, raw):
    kind = ExperimentConfig.__annotations__[name]
    if kind is str:
        return str(raw)
    value = parse_quantity(raw, CONFIG_FIELDS[name][0])
    if kind is int:
        if value != int(value):
            raise ValidationError(f"{name} must be an integer, got {raw!r}")
        # The float rounds integers above 2^53; an integer literal or int is taken exactly.
        return int(raw) if _INTEGER.fullmatch(str(raw)) else int(value)
    return value


def config_from_mapping(mapping, base=None):
    """Build a config from a {key: value} mapping of strings or numbers.

    Supplying one member of the {phi, postselection} or
    {apex_angle, unamplified_slope} pair clears the other; supplying both is
    an error.
    """
    base = base or ExperimentConfig()
    updates = {}
    for name, raw in mapping.items():
        if name not in CONFIG_FIELDS:
            known = ", ".join(sorted(CONFIG_FIELDS))
            raise ValidationError(f"unknown config key {name!r}; known keys: {known}")
        updates[name] = _coerce(name, raw)
    for pair in _EXCLUSIVE_PAIRS:
        for name, partner in (pair, pair[::-1]):
            if name in updates:
                updates.setdefault(partner, None)
    return replace(base, **updates)


def config_from_file(path, base=None):
    """Parse a flat ``key = value`` config file; a key set twice is refused."""
    mapping = {}
    for where, line in data_lines(path):
        if "=" not in line:
            raise ValidationError(f"{where}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise ValidationError(f"{where}: config key {key!r} is set twice")
        mapping[key] = value.strip()
    return config_from_mapping(mapping, base=base)


@dataclass(frozen=True)
class ResolvedPhysics:
    """Config with every derived physical object materialized."""

    config: ExperimentConfig
    carrier: dispersion.OpticalCarrier
    point: dispersion.OperatingPoint
    state: interferometer.InterferometerState
    filter_spec: FilterSpec
    extensions: NoiseExtensions

    def deflection_slope(self):
        return dispersion.deflection_slope(self.point)

    def n_photons_per_sample(self):
        return photon_number(self.config.power, self.carrier, 1.0 / self.config.sample_rate)


def resolve(config):
    """Materialize the physical, filter and noise objects; each checks its config fields."""
    carrier = dispersion.OpticalCarrier(wavelength=config.wavelength)
    material = dispersion.get_material(config.material)

    # ExperimentConfig holds exactly one member of each pair.
    if config.phi is not None:
        phi = config.phi
    else:
        phi = interferometer.phi_for_postselection(config.postselection)
    if config.apex_angle is not None:
        prism = dispersion.Prism(apex_angle=config.apex_angle, material=material)
        point = dispersion.operating_point(prism, carrier)
    else:
        point = dispersion.calibrate_apex_angle(
            config.unamplified_slope, config.path_length, carrier, material
        )
    beam = interferometer.BeamProfile(sigma=config.sigma, carrier=carrier)
    state = interferometer.InterferometerState(
        phi=phi, path_length=config.path_length, beam=beam
    )
    return ResolvedPhysics(
        config=config, carrier=carrier, point=point, state=state,
        # Centred on the drive: the lock-in reads it through unity gain and zero phase.
        filter_spec=FilterSpec(config.mod_frequency, config.filter_stages, config.filter_gain),
        extensions=NoiseExtensions(config.electronic_noise, config.dark_count_rate),
    )


def resolved_metadata(physics):
    """Flat mapping of the resolved run parameters, for output headers."""
    cfg = physics.config
    meta = {}
    for field_info in fields(cfg):
        value = getattr(cfg, field_info.name)
        if value is not None:
            meta[field_info.name] = value
    meta["filter_center"] = physics.filter_spec.center
    meta["derived_phi"] = physics.state.phi
    meta["derived_postselection"] = interferometer.postselection_probability(
        physics.state.phi
    )
    meta["derived_apex_angle"] = physics.point.prism.apex_angle
    meta["derived_unamplified_slope_m_per_hz"] = (
        cfg.path_length * physics.deflection_slope()
    )
    meta["derived_amplification"] = interferometer.amplification_factor(physics.state)
    meta["config_hash"] = config_hash(meta)
    return meta


def config_hash(meta):
    """Short digest of the resolved configuration and the package version;
    an identical hash means byte-identical output in the same software
    environment (numpy's version, which the photon draws depend on, is not
    hashed)."""
    payload = "\n".join(
        f"{key}={fmt(value) if isinstance(value, float) else value}"
        for key, value in sorted(meta.items())
        if key != "config_hash"
    )
    payload += f"\nwvfreq={__version__}"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
