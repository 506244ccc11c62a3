"""Weak-value amplified optical frequency measurement simulator."""

from .calibration import (
    ReferenceLine,
    ScanCalibration,
    fit_scan_calibration,
    load_reference_lines,
    propagate_calibration_error,
)
from .config import ExperimentConfig, ResolvedPhysics, config_from_file, resolve
from .dispersion import (
    OpticalCarrier,
    Prism,
    SellmeierModel,
    calibrate_apex_angle,
    deflection_slope,
    dispersive_deflection,
    get_material,
    min_deviation_angle,
    momentum_kick,
    sellmeier_index,
)
from .interferometer import (
    BeamProfile,
    InterferometerState,
    amplification_factor,
    amplified_deflection,
    amplified_deflection_closed_form,
    dark_port_profile,
    exact_dark_port_mean,
    phi_for_postselection,
    postselection_probability,
    unamplified_deflection,
    weak_value_magnitude,
)
from .noise import (
    PhotonBudget,
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

__version__ = "0.1.0"
