"""Cavity-enhanced two-photon transition rates for a quantum dot under a
lateral electric field.

The package computes second-order (two-photon) absorption and emission
rates of a parity-broken quantum-dot transition placed in one or two
photonic-crystal nanocavity modes, along with the one-photon rate it
competes against. Sweeps over field strength or emitted frequency are
driven by YAML configs or the bundled preset and serialize to CSV/JSON
deterministically.
"""

from .cavity import (
    BulkHost,
    CavityMode,
    bulk_mode_density,
    cavity_mode_density_times_omega,
    lorentzian_mismatch,
    mode_at_wavelength,
    purcell_factor,
)
from .quantities import (
    CODATA2018,
    CONSTANTS_VERSION,
    AngularFrequency,
    Constants,
    DipoleMoment,
    Wavelength,
    angular_frequency_to_wavelength,
    energy_to_angular_frequency,
    wavelength_to_angular_frequency,
)
from .rates import (
    DriveField,
    Experiment,
    Linewidth,
    PhotonChannel,
    QuadratureError,
    RateReport,
    effective_rabi,
    evaluate_point,
    on_shell_two_photon_rate,
    opse_rate,
    photon_number_bulk,
    photon_number_cavity,
    quantized_rabi_rate,
    tpa_rate_bulk,
    tpa_rate_cavity,
    tpse_spectral_density_bulk,
    tpse_spectral_density_cavity,
    tpse_spectral_density_single_mode,
    tpse_total,
    tpse_total_fixed,
    tpste_rate,
)
from .presets import PRESET_NAMES, build_experiment, preset_config
from .scenario import (
    ConfigError,
    OutputError,
    ScenarioConfig,
    SpectralRow,
    SweepError,
    SweepResult,
    config_from_dict,
    load_config,
    parse_json_text,
    reproduce_fig3a,
    reproduce_fig3b,
    result_to_csv_text,
    result_to_json_text,
    run_sweep,
    write_output,
)
from .stark import (
    ABSORPTION,
    EMISSION,
    IntermediateState,
    LateralField,
    QuantumDotModel,
    SingularDetuningError,
    default_intermediate_states,
    dipole_product_sp,
    dipole_product_sp_field_derivative,
    dipole_ss,
    dipole_ss_field_derivative,
    intermediate_detunings,
    m12,
    oscillator_length,
    stark_displacement,
    state_dipole_pair,
)

__version__ = "0.1.0"
