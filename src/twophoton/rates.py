"""Two-photon and one-photon transition rates for the driven dot.

All rates come from the second-order amplitude through the p-shell
intermediate states: a transition moment M12, which depends only on the
dot, the field and the two photon frequencies, times one environment
factor per photon leg. The generic on-shell rate is

    gamma = 2 pi |Omega_eff|^2 L(w_d - w_1 - w_2)

with Omega_eff the product of M12 and each photon's one-leg quantized
Rabi rate per unit dipole, and L a unit-area Lorentzian standing in for
the energy-conservation delta. Spectral densities for spontaneous emission
replace per-photon occupation factors with mode densities:

    bulk factor    f(w)  = n w^3 / (3 pi^2 hbar eps0 c^3)
    cavity factor  g(w)  = 2 Q psi^2 phi(w) / (pi hbar n^2 eps0 V)
    density        dGamma/dw2 = (pi/2) [factor at w1] [factor at w2] M12^2

with w1 = w_d - w2 on shell and psi the overlap of a mode with the dot
(psi = 1 for a bulk leg). Stimulated-plus-spontaneous emission into a
driven mode-2 cavity multiplies the double-mode density by
eta2 P2 pi / (4 hbar w2).

Everything is a pure function of immutable inputs; evaluation points are
independent and can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (
    BulkHost,
    CavityMode,
    _mismatch_raw,
    lorentzian_mismatch,
    purcell_factor,
)
from .quantities import (
    AngularFrequency,
    C,
    DipoleMoment,
    EPS0,
    HBAR,
    angular_frequency_to_wavelength,
)
from .stark import (
    ABSORPTION,
    EMISSION,
    LateralField,
    QuantumDotModel,
    _m12_raw,
    dipole_ss,
)

__all__ = [
    "DriveField",
    "Experiment",
    "Linewidth",
    "PhotonChannel",
    "QuadratureError",
    "RateReport",
    "effective_rabi",
    "evaluate_point",
    "on_shell_two_photon_rate",
    "opse_rate",
    "photon_number_bulk",
    "photon_number_cavity",
    "quantized_rabi_rate",
    "tpa_rate_bulk",
    "tpa_rate_cavity",
    "tpse_spectral_density_bulk",
    "tpse_spectral_density_cavity",
    "tpse_spectral_density_single_mode",
    "tpse_total",
    "tpse_total_fixed",
    "tpste_rate",
]

MAX_QUADRATURE_INTERVALS = 2**20


class QuadratureError(RuntimeError):
    """Spectral integral failed to converge within the point budget."""

    def __init__(self, achieved: float, rel_change: float, points: int):
        self.achieved = achieved
        self.rel_change = rel_change
        self.points = points
        super().__init__(
            f"integral not converged at {points} points: last doubling changed "
            f"the estimate by {rel_change:.2e} (best estimate {achieved:.6e})")


@dataclass(frozen=True)
class DriveField:
    """Classical laser drive: frequency, power, and either a focal spot area
    (bulk propagation) or an in-coupling efficiency (cavity feeding). Exactly
    one of the two is consulted per evaluation context."""

    omega: AngularFrequency
    power: float                     # W
    spot_area: float | None = None   # m^2
    coupling: float | None = None    # overrides the mode's eta when set

    def __post_init__(self):
        if self.power < 0.0 or not math.isfinite(self.power):
            raise ValueError(f"drive power must be nonnegative, got {self.power!r}")
        if self.spot_area is not None and not (self.spot_area > 0.0):
            raise ValueError(f"spot area must be positive, got {self.spot_area!r}")
        if self.coupling is not None and not (0.0 <= self.coupling <= 1.0):
            raise ValueError(f"coupling must lie in [0, 1], got {self.coupling!r}")


@dataclass(frozen=True)
class Linewidth:
    """FWHM gamma_d (rad/s) of the Lorentzian that regularizes the
    two-photon energy-conservation delta function."""

    gamma_d: float

    def __post_init__(self):
        if not (self.gamma_d > 0.0) or not math.isfinite(self.gamma_d):
            raise ValueError(f"linewidth must be positive, got {self.gamma_d!r}")


@dataclass(frozen=True)
class PhotonChannel:
    """One photon slot of a two-photon process: its frequency, the volume it
    is quantized in, the mean photon number already present, and the overlap
    psi of its mode with the dot."""

    omega: AngularFrequency
    volume: float                # m^3
    photons: float               # mean occupation, >= 0
    psi: float = 1.0

    def __post_init__(self):
        if not (self.volume > 0.0):
            raise ValueError(f"channel volume must be positive, got {self.volume!r}")
        if self.photons < 0.0 or not math.isfinite(self.photons):
            raise ValueError(f"photon number must be nonnegative, got {self.photons!r}")


@dataclass(frozen=True)
class RateReport:
    """One sweep row: every quantity reported for a single field strength."""

    field_strength: float            # V/m
    omega_eff_over_2pi: float        # Hz
    gamma_opse_over_2pi: float       # Hz
    gamma_tpste_over_2pi: float      # Hz
    tpse_spectral_density: float     # dimensionless (rate per unit rate-frequency)
    enhancement_tpse: float          # F1 F2
    enhancement_tpa: float           # G1 G2

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"report field {name} must be finite and "
                                 f"nonnegative, got {value!r}")

    _FIELDS = ("field_strength", "omega_eff_over_2pi", "gamma_opse_over_2pi",
               "gamma_tpste_over_2pi", "tpse_spectral_density",
               "enhancement_tpse", "enhancement_tpa")


@dataclass(frozen=True)
class Experiment:
    """Complete parameterization of one dot-plus-cavities evaluation: the dot
    model, the two cavity modes, the TPA drives feeding them, the mode-2
    stimulation drive, the delta-regularization linewidth, and optionally a
    third mode at the dot transition that Purcell-scales the one-photon rate."""

    dot: QuantumDotModel
    mode1: CavityMode
    mode2: CavityMode
    drive1: DriveField
    drive2: DriveField
    stim_drive2: DriveField
    linewidth: Linewidth | None = None
    mode_d: CavityMode | None = None

    def resolved_linewidth(self) -> Linewidth:
        if self.linewidth is not None:
            return self.linewidth
        return Linewidth(opse_rate(self.dot, LateralField(0.0), self.mode_d))


# --- building blocks ------------------------------------------------------


def _vacuum_coupling(omega: float, volume: float, n: float) -> float:
    # sqrt(hbar w / (2 n^2 eps0 V)), the single-photon field scale, V/m
    return math.sqrt(HBAR * omega / (2.0 * n**2 * EPS0 * volume))


def quantized_rabi_rate(d: DipoleMoment, omega: AngularFrequency, photons: float,
                        volume: float, host: BulkHost, psi: float = 1.0,
                        occupation: str = EMISSION) -> float:
    """One-leg quantized Rabi rate, rad/s:

        Omega = (d/hbar) sqrt(occ hbar w / (2 n^2 eps0 V)) psi

    occ is N+1 for emission (spontaneous and stimulated) and N for
    absorption; absorbing from an empty channel gives exactly zero.
    """
    if photons < 0.0:
        raise ValueError(f"photon number must be nonnegative, got {photons!r}")
    if occupation == EMISSION:
        occ = photons + 1.0
    elif occupation == ABSORPTION:
        occ = photons
        if occ == 0.0:
            return 0.0
    else:
        raise ValueError(
            f"occupation must be 'emission' or 'absorption', got {occupation!r}")
    return d.coulomb_meters / HBAR * math.sqrt(occ) \
        * _vacuum_coupling(omega.rad_per_s, volume, host.n) * psi


def effective_rabi(channel1: PhotonChannel, channel2: PhotonChannel,
                   field: LateralField, model: QuantumDotModel,
                   direction: str = ABSORPTION) -> float:
    """Two-photon effective Rabi rate, rad/s: f1 f2 M12, the two-ordering
    sum over intermediate states factored into the transition moment and
    each channel's one-leg quantized Rabi rate per unit dipole, which
    carries the channel's overlap psi."""
    m = _m12_raw(channel1.omega.rad_per_s, channel2.omega.rad_per_s, field, model,
                 direction)
    unit, host = DipoleMoment(1.0), model.host
    f1 = quantized_rabi_rate(unit, channel1.omega, channel1.photons, channel1.volume,
                             host, psi=channel1.psi, occupation=direction)
    f2 = quantized_rabi_rate(unit, channel2.omega, channel2.photons, channel2.volume,
                             host, psi=channel2.psi, occupation=direction)
    return float(f1 * f2 * m)


def on_shell_two_photon_rate(omega_eff: float, detuning: float,
                             lw: Linewidth) -> float:
    """2 pi |Omega_eff|^2 L(detuning) with L the unit-area Lorentzian of
    FWHM gamma_d; L(0) = 2/(pi gamma_d)."""
    half = 0.5 * lw.gamma_d
    lorentz = half / (math.pi * (detuning**2 + half**2))
    return 2.0 * math.pi * omega_eff**2 * lorentz


def photon_number_bulk(drive: DriveField, volume: float, host: BulkHost) -> float:
    """Mean photon number of a focused beam inside quantization volume V:
    N = P V n / (2 c A hbar w)."""
    if drive.spot_area is None:
        raise ValueError("bulk photon number needs drive.spot_area")
    if not (volume > 0.0):
        raise ValueError(f"quantization volume must be positive, got {volume!r}")
    return drive.power * volume * host.n / (
        2.0 * C * drive.spot_area * HBAR * drive.omega.rad_per_s)


def photon_number_cavity(drive: DriveField, mode: CavityMode) -> float:
    """Steady-state intracavity photon number N = eta P Q phi / (hbar w^2),
    with phi evaluated at the drive frequency."""
    eta = drive.coupling if drive.coupling is not None else mode.eta
    phi = lorentzian_mismatch(drive.omega, mode)
    return eta * drive.power * mode.quality * phi / (HBAR * drive.omega.rad_per_s**2)


# --- spontaneous-emission spectral densities ------------------------------


def _leg_factor(omega, mode: CavityMode | None, n: float):
    # one photon's environment factor, omega raw rad/s scalar or array:
    # bulk n w^3 / (3 pi^2 hbar eps0 c^3) when mode is None, otherwise the
    # cavity's 2 Q psi^2 phi(w) / (pi hbar n^2 eps0 V)
    if mode is None:
        return n * omega**3 / (3.0 * math.pi**2 * HBAR * EPS0 * C**3)
    return 2.0 * mode.quality * mode.psi**2 * _mismatch_raw(omega, mode) / (
        math.pi * HBAR * n**2 * EPS0 * mode.volume)


# emission environment -> how many photons go into a cavity mode: the w1
# photon into mode1, then the w2 photon into mode2; the rest into the bulk
_CAVITY_LEGS = {"bulk": 0, "single": 1, "double": 2}


def _legs(environment: str, mode1: CavityMode | None,
          mode2: CavityMode | None) -> tuple:
    """The leg table: (mode at w1, mode at w2) of an emission environment,
    None standing for the bulk continuum."""
    count = _CAVITY_LEGS.get(environment)
    if count is None:
        raise ValueError(
            f"environment must be 'bulk', 'single' or 'double', got {environment!r}")
    legs = (mode1, mode2)[:count] + (None, None)[count:]
    if any(leg is None for leg in legs[:count]):
        needed = " and ".join(("mode1", "mode2")[:count])
        raise ValueError(f"{environment}-mode environment needs {needed}")
    return legs


def _check_omega2(omega2: AngularFrequency, model: QuantumDotModel) -> float:
    w2 = omega2.rad_per_s
    if w2 >= model.omega_d.rad_per_s:
        raise ValueError(
            f"emitted frequency {w2:.6e} rad/s must lie below the dot "
            f"transition {model.omega_d.rad_per_s:.6e} rad/s")
    return w2


def _density_raw(w2, field: LateralField, model: QuantumDotModel, environment: str,
                 mode1: CavityMode | None, mode2: CavityMode | None):
    # dGamma/dw2 = (pi/2) [leg factor at w1] [leg factor at w2] M12^2 with
    # w1 = w_d - w2; w2 raw rad/s scalar or array. Mode overlaps enter
    # through the leg factors.
    leg1, leg2 = _legs(environment, mode1, mode2)
    n = model.host.n
    w1 = model.omega_d.rad_per_s - w2
    m = _m12_raw(w1, w2, field, model, EMISSION)
    return (math.pi / 2.0) * _leg_factor(w1, leg1, n) * _leg_factor(w2, leg2, n) * m * m


def _spectral_density(omega2: AngularFrequency, model: QuantumDotModel,
                      field: LateralField, environment: str,
                      mode1: CavityMode | None, mode2: CavityMode | None) -> float:
    w2 = _check_omega2(omega2, model)
    return float(_density_raw(w2, field, model, environment, mode1, mode2))


def tpse_spectral_density_bulk(omega2: AngularFrequency, model: QuantumDotModel,
                               field: LateralField) -> float:
    """Free-space two-photon emission density dGamma/dw2 at w2, the partner
    photon taking up w1 = w_d - w2. Dimensionless. All psi = 1."""
    return _spectral_density(omega2, model, field, "bulk", None, None)


def tpse_spectral_density_cavity(omega2: AngularFrequency, model: QuantumDotModel,
                                 field: LateralField, mode1: CavityMode,
                                 mode2: CavityMode) -> float:
    """Double-mode emission density: both photons filtered by their cavity
    Lorentzians, scaled by (psi1 psi2)^2."""
    return _spectral_density(omega2, model, field, "double", mode1, mode2)


def tpse_spectral_density_single_mode(omega2: AngularFrequency,
                                      model: QuantumDotModel, field: LateralField,
                                      mode1: CavityMode) -> float:
    """Single-mode emission density: the w1 photon goes into mode 1, the w2
    photon into the free-space continuum. Scaled by psi1^2."""
    return _spectral_density(omega2, model, field, "single", mode1, None)


# --- total emission rate by quadrature ------------------------------------


def _initial_intervals(model: QuantumDotModel, environment: str,
                       mode1: CavityMode | None, mode2: CavityMode | None) -> int:
    # Start fine enough that every cavity Lorentzian is sampled several times
    # per linewidth; plain doubling from a coarse grid would miss the peak and
    # stop on a false plateau.
    span = model.omega_d.rad_per_s
    finest = span
    for mode in (mode1, mode2):
        if mode is not None and environment != "bulk":
            finest = min(finest, mode.omega_c.rad_per_s / mode.quality)
    wanted = min(max(256, int(8.0 * span / finest)), MAX_QUADRATURE_INTERVALS // 4)
    return 1 << (wanted - 1).bit_length()


def tpse_total_fixed(model: QuantumDotModel, field: LateralField, environment: str,
                     intervals: int, mode1: CavityMode | None = None,
                     mode2: CavityMode | None = None) -> float:
    """Composite-trapezoid total of the chosen spectral density over
    w2 in (0, w_d) at exactly `intervals` trapezoid panels, no convergence
    loop. Doubling `intervals` nests the grids exactly. The integrand
    vanishes at both endpoints (w^3 factors and phi -> 0)."""
    if intervals < 2:
        raise ValueError(f"grid needs at least 2 intervals, got {intervals!r}")
    grid = np.linspace(0.0, model.omega_d.rad_per_s, intervals + 1)
    values = np.zeros_like(grid)
    values[1:-1] = _density_raw(grid[1:-1], field, model, environment, mode1, mode2)
    return float(np.trapezoid(values, grid))


def tpse_total(model: QuantumDotModel, field: LateralField, environment: str = "bulk",
               mode1: CavityMode | None = None, mode2: CavityMode | None = None,
               initial_intervals: int | None = None,
               rel_change: float = 1e-3) -> float:
    """Total spontaneous two-photon rate, 1/s: the spectral density integrated
    over the emitted-frequency half-axis, doubling the trapezoid grid until
    successive estimates agree to rel_change (default 0.1%). Raises
    QuadratureError with the best estimate if the interval cap is hit first."""
    intervals = initial_intervals if initial_intervals is not None \
        else _initial_intervals(model, environment, mode1, mode2)
    if intervals < 2:
        raise ValueError(f"grid needs at least 2 intervals, got {intervals!r}")
    previous = tpse_total_fixed(model, field, environment, intervals, mode1, mode2)
    while True:
        intervals *= 2
        current = tpse_total_fixed(model, field, environment, intervals, mode1, mode2)
        scale = max(abs(current), abs(previous))
        if scale == 0.0:       # identically zero integrand (zero field)
            return 0.0
        change = abs(current - previous) / scale
        if change < rel_change:
            return current
        if intervals >= MAX_QUADRATURE_INTERVALS:
            raise QuadratureError(current, change, intervals)
        previous = current


# --- driven rates ----------------------------------------------------------


def tpste_rate(model: QuantumDotModel, field: LateralField, mode1: CavityMode,
               mode2: CavityMode, drive2: DriveField) -> float:
    """Stimulated-plus-spontaneous two-photon emission rate, 1/s, with the
    w2 photon driven into mode 2 and the w1 = w_d - w2 partner emitted
    spontaneously into mode 1:

        (pi/2) [2 Q1 psi1^2 phi1 / (pi hbar n^2 eps0 V1)] [N2 (psi2 g2/hbar)^2] M12^2

    with N2 = eta2 P2 Q2 phi2 / (hbar w2^2) the intracavity photon number
    of the stimulation drive and g2 = sqrt(hbar w2 / (2 n^2 eps0 V2)) the
    single-photon field of mode 2. Linear in the stimulation power P2.
    """
    w2 = _check_omega2(drive2.omega, model)
    n = model.host.n
    w1 = model.omega_d.rad_per_s - w2
    stim = photon_number_cavity(drive2, mode2) \
        * (_vacuum_coupling(w2, mode2.volume, n) * mode2.psi / HBAR) ** 2
    m = _m12_raw(w1, w2, field, model, EMISSION)
    return float((math.pi / 2.0) * _leg_factor(w1, mode1, n) * stim * m * m)


def tpa_rate_bulk(drive1: DriveField, drive2: DriveField, model: QuantumDotModel,
                  field: LateralField, lw: Linewidth) -> float:
    """Two-photon absorption rate, 1/s, for two focused beams in the bare
    host; equivalent closed form
    (pi/2) [P1/(2 hbar^2 n eps0 c A1)] [P2/(2 hbar^2 n eps0 c A2)] M12^2 L."""
    # quantization volume cancels against the photon number; use 1 m^3
    ch1 = PhotonChannel(drive1.omega, 1.0, photon_number_bulk(drive1, 1.0, model.host))
    ch2 = PhotonChannel(drive2.omega, 1.0, photon_number_bulk(drive2, 1.0, model.host))
    om = effective_rabi(ch1, ch2, field, model, ABSORPTION)
    detuning = model.omega_d.rad_per_s - drive1.omega.rad_per_s - drive2.omega.rad_per_s
    return on_shell_two_photon_rate(om, detuning, lw)


def tpa_rate_cavity(drive1: DriveField, drive2: DriveField, mode1: CavityMode,
                    mode2: CavityMode, model: QuantumDotModel, field: LateralField,
                    lw: Linewidth) -> float:
    """Two-photon absorption rate, 1/s, with both drives fed through cavity
    modes. Built from the intracavity photon numbers, so each per-photon
    bracket is eta P Q phi / (hbar^2 w n^2 eps0 V) and the enhancement over
    the bulk rate is exactly G1 G2 with G = eta Q A lambda / (pi V n)."""
    ch1 = PhotonChannel(drive1.omega, mode1.volume,
                        photon_number_cavity(drive1, mode1), mode1.psi)
    ch2 = PhotonChannel(drive2.omega, mode2.volume,
                        photon_number_cavity(drive2, mode2), mode2.psi)
    om = effective_rabi(ch1, ch2, field, model, ABSORPTION)
    detuning = model.omega_d.rad_per_s - drive1.omega.rad_per_s - drive2.omega.rad_per_s
    return on_shell_two_photon_rate(om, detuning, lw)


def opse_rate(model: QuantumDotModel, field: LateralField,
              mode_d: CavityMode | None = None) -> float:
    """One-photon spontaneous emission rate of the dot transition, 1/s:
    n w_d^3 d_ge^2 / (3 pi hbar eps0 c^3), with the field-suppressed s-s
    dipole. A mode at the transition frequency, when given, multiplies the
    rate by its Purcell factor."""
    d = dipole_ss(field, model).coulomb_meters
    w_d = model.omega_d.rad_per_s
    rate = model.host.n * w_d**3 * d * d / (3.0 * math.pi * HBAR * EPS0 * C**3)
    if mode_d is not None:
        rate *= purcell_factor(angular_frequency_to_wavelength(model.omega_d),
                               model.host, mode_d, model.omega_d)
    return rate


# --- sweep row -------------------------------------------------------------


def _tpa_enhancement(drive: DriveField, mode: CavityMode, host: BulkHost) -> float:
    """G = eta Q phi A lambda / (pi V n) at the drive frequency: the
    intracavity photon number over the bulk one inside the mode volume.
    The drive power cancels, so both are taken at 1 W."""
    unit = DriveField(drive.omega, 1.0, drive.spot_area, drive.coupling)
    return photon_number_cavity(unit, mode) / photon_number_bulk(unit, mode.volume, host)


def evaluate_point(field_v_per_m: float, experiment: Experiment) -> RateReport:
    """All reported quantities at one lateral-field strength."""
    field = LateralField(field_v_per_m)
    ex = experiment

    ch1 = PhotonChannel(ex.drive1.omega, ex.mode1.volume,
                        photon_number_cavity(ex.drive1, ex.mode1), ex.mode1.psi)
    ch2 = PhotonChannel(ex.drive2.omega, ex.mode2.volume,
                        photon_number_cavity(ex.drive2, ex.mode2), ex.mode2.psi)
    om_eff = effective_rabi(ch1, ch2, field, ex.dot, ABSORPTION)

    tpste = tpste_rate(ex.dot, field, ex.mode1, ex.mode2, ex.stim_drive2)
    opse = opse_rate(ex.dot, field, ex.mode_d)
    density = tpse_spectral_density_cavity(ex.drive2.omega, ex.dot, field,
                                           ex.mode1, ex.mode2)

    w2 = ex.drive2.omega
    w1 = AngularFrequency(ex.dot.omega_d.rad_per_s - w2.rad_per_s)
    host = ex.dot.host
    f1 = purcell_factor(angular_frequency_to_wavelength(w1), host, ex.mode1, w1)
    f2 = purcell_factor(angular_frequency_to_wavelength(w2), host, ex.mode2, w2)
    g1 = _tpa_enhancement(ex.drive1, ex.mode1, host)
    g2 = _tpa_enhancement(ex.drive2, ex.mode2, host)

    two_pi = 2.0 * math.pi
    return RateReport(
        field_strength=field.v_per_m,
        omega_eff_over_2pi=om_eff / two_pi,
        gamma_opse_over_2pi=opse / two_pi,
        gamma_tpste_over_2pi=tpste / two_pi,
        tpse_spectral_density=density,
        enhancement_tpse=f1 * f2,
        enhancement_tpa=g1 * g2,
    )
