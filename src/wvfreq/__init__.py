"""Weak-value amplified optical frequency measurement simulator."""

__version__ = "0.1.2"  # set before the submodules load: config_hash reads it

from .calibration import (
    ReferenceLine,
    ScanCalibration,
    fit_scan_calibration,
    load_reference_lines,
    propagate_calibration_error,
)
from .config import ExperimentConfig, ResolvedPhysics, config_from_file, resolve
from .dispersion import (
    OperatingPoint,
    OpticalCarrier,
    Prism,
    SellmeierModel,
    calibrate_apex_angle,
    deflection_slope,
    dispersive_deflection,
    get_material,
    momentum_kick,
    operating_point,
    sellmeier_index,
)
from .interferometer import (
    BeamProfile,
    InterferometerState,
    amplification_factor,
    phi_for_postselection,
    postselection_probability,
    weak_value_magnitude,
)
from .noise import (
    SensitivityReport,
    ideal_sensitivity,
    measured_sensitivity,
    photon_number,
    shot_noise_snr,
    usable_range,
)
from .signal_chain import (
    FilterSpec,
    ModulationConfig,
    Spectrum,
    TimeSeries,
    bandpass,
    extract_peaks,
    power_spectrum,
    slope_fit,
    synthesize_run,
)
