"""Two-photon and one-photon transition rates for the driven dot.

All rates come from the second-order amplitude through the p-shell
intermediate states: a transition moment

    M12 = |d_gk d_ke| |sum_k (1/D1 + 1/D2)|

(stark.m12), the field's dipole product times a field-free sum over the
two p-shell states k and the two photon orderings, times one environment
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
(psi = 1 for a bulk leg). The one-photon rate is pi d_ss^2 times the leg
factor at w_d: f(w_d) in bulk, g(w_d) with a mode at the dot line.
Stimulated-plus-spontaneous emission into a driven mode-2 cavity
multiplies the double-mode density by eta2 P2 pi / (4 hbar w2).

Both sweep kinds are evaluated at the field where the dipole product p
peaks (stark._peak_field). A field sweep is one reference evaluate_point
there plus the field law: every rate is a field-dependent dipole factor
times field-free factors, so each row rescales the reference by p(E)
(omega_eff; p^2 for TPSTE and the density) and by d_ss(E)^2 (OPSE). An
omega2 sweep row is the emitted power density at w2, cavity and bulk,
there too: both go as p^2, which the normalization to the bulk peak
cancels, so a held field only tells zero (all-zero rows) from nonzero.

Everything is a pure function of immutable inputs; evaluation points are
independent and can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _check_nonnegative,
    _check_range,
    angular_frequency_to_wavelength,
)
from .stark import (
    ABSORPTION,
    EMISSION,
    LateralField,
    QuantumDotModel,
    _P_SHELL,
    _detuning_sum,
    _dipoles,
    _peak_field,
    dipole_product_sp,
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

class QuadratureError(RuntimeError):
    """tpse_total's two mesh levels disagree by more than 0.1%, or the
    finer estimate is not finite: `achieved` is that finer estimate,
    `rel_change` the relative change from the coarser one (nan beside a
    non-finite estimate) and `points` the finer level's panel count."""

    def __init__(self, achieved: float, rel_change: float, points: int):
        self.achieved = achieved
        self.rel_change = rel_change
        self.points = points
        super().__init__(
            f"integral not converged at {points} panels: bisecting every panel "
            f"changed the estimate by {rel_change:.2e} (finer estimate {achieved:.6e})")


@dataclass(frozen=True)
class DriveField:
    """Classical laser drive: frequency, power and a focal spot area (bulk
    propagation). Its in-coupling into a cavity is the mode's eta."""

    omega: AngularFrequency
    power: float                     # W
    spot_area: float | None = None   # m^2

    def __post_init__(self):
        _check_range(self.power, "drive power", 0.0)
        if self.spot_area is not None:
            _check_range(self.spot_area, "spot area", 0.0, exclusive=True)


@dataclass(frozen=True)
class Linewidth:
    """FWHM gamma_d (rad/s) of the Lorentzian that regularizes the
    two-photon energy-conservation delta function."""

    gamma_d: float

    def __post_init__(self):
        _check_range(self.gamma_d, "linewidth", 0.0, exclusive=True)


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
        _check_range(self.volume, "channel volume", 0.0, exclusive=True)
        _check_range(self.photons, "photon number", 0.0)
        _check_range(self.psi, "mode overlap", 0.0, high=1.0)


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
        _check_nonnegative(vars(self), "report field")


@dataclass(frozen=True)
class Experiment:
    """Complete parameterization of one dot-plus-cavities evaluation: the dot
    model, the two cavity modes, the TPA drives feeding them, the mode-2
    stimulation drive, and optionally a third mode at the dot transition
    that Purcell-scales the one-photon rate."""

    dot: QuantumDotModel
    mode1: CavityMode
    mode2: CavityMode
    drive1: DriveField
    drive2: DriveField
    stim_drive2: DriveField
    mode_d: CavityMode | None = None


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
    _check_range(photons, "photon number", 0.0)
    _check_range(volume, "quantization volume", 0.0, exclusive=True)
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
    carries the channel's overlap psi. The dipole product comes last, so a
    subnormal one keeps its digits while the rate is a normal float."""
    s = _detuning_sum(channel1.omega.rad_per_s, channel2.omega.rad_per_s, model,
                      direction)
    unit, host = DipoleMoment(1.0), model.host
    f1 = quantized_rabi_rate(unit, channel1.omega, channel1.photons, channel1.volume,
                             host, psi=channel1.psi, occupation=direction)
    f2 = quantized_rabi_rate(unit, channel2.omega, channel2.photons, channel2.volume,
                             host, psi=channel2.psi, occupation=direction)
    return float(f1 * f2 * s * dipole_product_sp(field, model))


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
    _check_range(volume, "quantization volume", 0.0, exclusive=True)
    return drive.power * volume * host.n / (
        2.0 * C * drive.spot_area * HBAR * drive.omega.rad_per_s)


def photon_number_cavity(drive: DriveField, mode: CavityMode) -> float:
    """Steady-state intracavity photon number N = eta P Q phi / (hbar w^2),
    with phi evaluated at the drive frequency."""
    phi = lorentzian_mismatch(drive.omega, mode)
    return mode.eta * drive.power * mode.quality * phi / (HBAR * drive.omega.rad_per_s**2)


# --- spontaneous-emission spectral densities ------------------------------


# denominator of the bulk leg factor n w^3 / (3 pi^2 hbar eps0 c^3)
_BULK_LEG = 3.0 * math.pi**2 * HBAR * EPS0 * C**3


def _leg_factor(omega, mode: CavityMode | None, n: float):
    # one photon's environment factor, omega raw rad/s scalar or array:
    # bulk n w^3 / (3 pi^2 hbar eps0 c^3) when mode is None, otherwise the
    # cavity's 2 Q psi^2 phi(w) / (pi hbar n^2 eps0 V)
    if mode is None:
        return n * omega**3 / _BULK_LEG
    # never 2 Q, which overflows for Q near the float maximum (and inf times
    # a zero Lorentzian is nan); halving the denominator instead is exact
    return mode.quality * mode.psi**2 * _mismatch_raw(omega, mode) / (
        math.pi * HBAR * n**2 * EPS0 * mode.volume / 2.0)


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


def _check_omega2(omega2: AngularFrequency, model: QuantumDotModel) -> tuple:
    """The emitted pair (w1, w2), raw rad/s, with w1 = w_d - w2 > 0."""
    w2, w_d = omega2.rad_per_s, model.omega_d.rad_per_s
    if w2 >= w_d:
        raise ValueError(
            f"emitted frequency {w2:.6e} rad/s must lie below the dot "
            f"transition {w_d:.6e} rad/s")
    return w_d - w2, w2


def _density_raw(w1, w2, field: LateralField, model: QuantumDotModel,
                 leg1: CavityMode | None, leg2: CavityMode | None):
    # dGamma/dw2 = (pi/2) [leg factor at w1] [leg factor at w2] M12^2; w1, w2
    # raw rad/s scalars or arrays. Mode overlaps enter through the leg factors;
    # the dipole product p comes last, as p * p underflows first.
    n, p = model.host.n, dipole_product_sp(field, model)
    s = _detuning_sum(w1, w2, model, EMISSION)
    return p * (p * ((math.pi / 2.0) * _leg_factor(w1, leg1, n)
                     * _leg_factor(w2, leg2, n) * s * s))


def _spectral_density(omega2: AngularFrequency, model: QuantumDotModel,
                      field: LateralField, leg1: CavityMode | None,
                      leg2: CavityMode | None) -> float:
    return float(_density_raw(*_check_omega2(omega2, model), field, model, leg1, leg2))


def tpse_spectral_density_bulk(omega2: AngularFrequency, model: QuantumDotModel,
                               field: LateralField) -> float:
    """Free-space two-photon emission density dGamma/dw2 at w2, the partner
    photon taking up w1 = w_d - w2. Dimensionless. All psi = 1."""
    return _spectral_density(omega2, model, field, None, None)


def tpse_spectral_density_cavity(omega2: AngularFrequency, model: QuantumDotModel,
                                 field: LateralField, mode1: CavityMode,
                                 mode2: CavityMode) -> float:
    """Double-mode emission density: both photons filtered by their cavity
    Lorentzians, scaled by (psi1 psi2)^2."""
    return _spectral_density(omega2, model, field, mode1, mode2)


def tpse_spectral_density_single_mode(omega2: AngularFrequency,
                                      model: QuantumDotModel, field: LateralField,
                                      mode1: CavityMode) -> float:
    """Single-mode emission density: the w1 photon goes into mode 1, the w2
    photon into the free-space continuum. Scaled by psi1^2."""
    return _spectral_density(omega2, model, field, mode1, None)


# --- total emission rate by quadrature ------------------------------------


# 7-point Gauss-Legendre rule on [-1, 1]: (node, weight)
_GAUSS7 = (
    (0.0, 0.41795918367346938776),
    (-0.40584515137739716691, 0.38183005050511894495),
    (0.40584515137739716691, 0.38183005050511894495),
    (-0.74153118559939443986, 0.27970539148927666790),
    (0.74153118559939443986, 0.27970539148927666790),
    (-0.94910791234275852453, 0.12948496616886969327),
    (0.94910791234275852453, 0.12948496616886969327),
)


def _breakpoints(model: QuantumDotModel, leg1: CavityMode | None,
                 leg2: CavityMode | None) -> list:
    """Sorted panel edges on the w2 axis [0, w_d], graded geometrically
    toward the integrand's features: points q 4^k / 4 in from both ends,
    with q the smaller confinement quantum (the detuning sum's poles sit q
    beyond each end), and around each cavity leg's centre c in w2 (w_d - w_c1
    for mode1, w_c2 for mode2) the points c +- (w_c / 2Q) 4^k, starting at
    the Lorentzian's half width."""
    w_d = model.omega_d.rad_per_s
    points = {0.0, w_d}
    step = min(model.omega_e.rad_per_s, model.omega_h.rad_per_s) / 4.0
    while 0.0 < step < w_d:
        points.update((step, w_d - step))
        step *= 4.0
    for leg, at_w1 in ((leg1, True), (leg2, False)):
        if leg is None:
            continue
        w_c = leg.omega_c.rad_per_s
        c = w_d - w_c if at_w1 else w_c
        points.add(c)
        # never 2 Q, which overflows for Q near the float maximum; a step
        # that underflows to 0 adds no ring
        step = w_c / leg.quality / 2.0
        while 0.0 < step < w_d:
            points.update((c - step, c + step))
            step *= 4.0
    return sorted(p for p in points if 0.0 <= p <= w_d)


def _panels(edges: list, intervals: int):
    """(midpoint, half width) of each of `intervals` panels: the panel count
    is split over the segments between sorted `edges` as evenly as whole
    panels allow, at least one per segment, and each segment is cut into
    equal panels."""
    segments = len(edges) - 1
    if intervals < segments:
        raise ValueError(f"{segments} mesh segments need at least {segments} "
                         f"panels, got {intervals!r}")
    for i in range(segments):
        count = (i + 1) * intervals // segments - i * intervals // segments
        lo = edges[i]
        half = (edges[i + 1] - lo) / (2 * count)
        for j in range(count):
            yield lo + (2 * j + 1) * half, half


def _initial_intervals(model: QuantumDotModel, environment: str,
                       mode1: CavityMode | None, mode2: CavityMode | None) -> int:
    """tpse_total's coarser panel count: the breakpoint mesh's segment
    count, one panel per segment."""
    return len(_breakpoints(model, *_legs(environment, mode1, mode2))) - 1


def _leg_parts(mode: CavityMode | None, n: float) -> tuple:
    """A leg factor split as scale * shape(w), for the quadrature's inner
    loop: the shape is w^3 in bulk and phi(w) in a cavity, so the scale is
    _leg_factor at 1 rad/s in bulk and at the mode centre, where phi is
    exactly 1, in a cavity."""
    if mode is None:
        return _leg_factor(1.0, None, n), lambda w: w * w * w
    return _leg_factor(mode.omega_c.rad_per_s, mode, n), \
        lambda w: _mismatch_raw(w, mode)


def tpse_total_fixed(model: QuantumDotModel, field: LateralField, environment: str,
                     intervals: int, mode1: CavityMode | None = None,
                     mode2: CavityMode | None = None) -> float:
    """Total of the chosen spectral density over w2 in (0, w_d) by a
    7-point Gauss-Legendre rule on exactly `intervals` panels, with no
    convergence check. The panels are split over the segments of a
    breakpoint mesh (_breakpoints) graded toward the axis ends and each
    cavity Lorentzian, at least one panel per segment, so `intervals` must
    reach the segment count; ValueError otherwise.

    Nodes are evaluated one at a time on floats and no grid is held, so
    memory does not grow with `intervals`. The field-free density is
    integrated and the dipole product p multiplies in last: a zero field
    gives exactly 0.0, and a subnormal p keeps its digits."""
    leg1, leg2 = _legs(environment, mode1, mode2)
    w_d, n = model.omega_d.rad_per_s, model.host.n
    edges = _breakpoints(model, leg1, leg2)
    # the guard on intermediate-state detunings: emission's smallest
    # denominators, the confinement quanta, sit at the ends of the axis
    _detuning_sum(w_d, 0.0, model, EMISSION)
    (scale1, shape1), (scale2, shape2) = _leg_parts(leg1, n), _leg_parts(leg2, n)
    # emission denominators (w_k - w_g) - w_d + w, as _detuning_sum forms them
    offset1, offset2 = ((w_d + getattr(model, quantum).rad_per_s) - w_d
                        for _, quantum in _P_SHELL)
    total = 0.0
    for mid, half in _panels(edges, intervals):
        panel = 0.0
        for x, weight in _GAUSS7:
            w2 = mid + half * x
            w1 = w_d - w2
            s = 1.0 / (offset1 + w2) + 1.0 / (offset1 + w1) \
                + (1.0 / (offset2 + w2) + 1.0 / (offset2 + w1))
            panel += weight * shape1(w1) * shape2(w2) * s * s
        total += half * panel
    p = dipole_product_sp(field, model)
    return p * (p * ((math.pi / 2.0) * scale1 * scale2 * total))


def tpse_total(model: QuantumDotModel, field: LateralField, environment: str = "bulk",
               mode1: CavityMode | None = None, mode2: CavityMode | None = None) -> float:
    """Total spontaneous two-photon rate, 1/s: the spectral density integrated
    over the emitted-frequency half-axis by tpse_total_fixed, once with one
    panel per breakpoint-mesh segment (_initial_intervals) and once with
    every panel bisected. The finer estimate is returned when the two agree
    to 0.1% (a zero field gives exactly 0.0); otherwise QuadratureError
    carries it, a non-finite estimate included. The mesh resolves every
    cavity Lorentzian, so on the preset the totals converge for Q from 1e2
    to 1e10; from Q of about 1e14, where phi's x - 1 cancels digits, they
    raise instead of returning a wrong value."""
    n = _initial_intervals(model, environment, mode1, mode2)
    coarse = tpse_total_fixed(model, field, environment, n, mode1, mode2)
    fine = tpse_total_fixed(model, field, environment, 2 * n, mode1, mode2)
    change, scale = abs(fine - coarse), max(abs(fine), abs(coarse))
    if change <= 1e-3 * scale:
        return fine
    # scale is 0 here only beside a nan estimate
    raise QuadratureError(fine, change / scale if scale else math.nan, 2 * n)


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
    w1, w2 = _check_omega2(drive2.omega, model)
    n = model.host.n
    stim = photon_number_cavity(drive2, mode2) \
        * (_vacuum_coupling(w2, mode2.volume, n) * mode2.psi / HBAR) ** 2
    p, s = dipole_product_sp(field, model), _detuning_sum(w1, w2, model, EMISSION)
    return float(p * (p * ((math.pi / 2.0) * _leg_factor(w1, mode1, n) * stim * s * s)))


def _cavity_channel(drive: DriveField, mode: CavityMode) -> PhotonChannel:
    """The photon slot of a drive fed through a cavity mode."""
    return PhotonChannel(drive.omega, mode.volume, photon_number_cavity(drive, mode),
                         mode.psi)


def _tpa_rate(ch1: PhotonChannel, ch2: PhotonChannel, model: QuantumDotModel,
              field: LateralField, lw: Linewidth) -> float:
    om = effective_rabi(ch1, ch2, field, model, ABSORPTION)
    detuning = model.omega_d.rad_per_s - ch1.omega.rad_per_s - ch2.omega.rad_per_s
    return on_shell_two_photon_rate(om, detuning, lw)


def tpa_rate_bulk(drive1: DriveField, drive2: DriveField, model: QuantumDotModel,
                  field: LateralField, lw: Linewidth) -> float:
    """Two-photon absorption rate, 1/s, for two focused beams in the bare
    host; equivalent closed form
    (pi/2) [P1/(2 hbar^2 n eps0 c A1)] [P2/(2 hbar^2 n eps0 c A2)] M12^2 L."""
    # quantization volume cancels against the photon number; use 1 m^3
    ch1, ch2 = (PhotonChannel(drive.omega, 1.0, photon_number_bulk(drive, 1.0, model.host))
                for drive in (drive1, drive2))
    return _tpa_rate(ch1, ch2, model, field, lw)


def tpa_rate_cavity(drive1: DriveField, drive2: DriveField, mode1: CavityMode,
                    mode2: CavityMode, model: QuantumDotModel, field: LateralField,
                    lw: Linewidth) -> float:
    """Two-photon absorption rate, 1/s, with both drives fed through cavity
    modes. Built from the intracavity photon numbers, so each per-photon
    bracket is eta P Q phi / (hbar^2 w n^2 eps0 V) and the enhancement over
    the bulk rate is exactly G1 G2 with G = eta Q A lambda / (pi V n)."""
    return _tpa_rate(_cavity_channel(drive1, mode1), _cavity_channel(drive2, mode2),
                     model, field, lw)


def opse_rate(model: QuantumDotModel, field: LateralField,
              mode_d: CavityMode | None = None) -> float:
    """One-photon spontaneous emission rate of the dot transition, 1/s:
    pi d_ss^2 times the leg factor at w_d, with the field-suppressed s-s
    dipole. In bulk that is n w_d^3 d_ss^2 / (3 pi hbar eps0 c^3); a mode at
    the transition frequency, when given, takes the photon instead, which
    scales the bulk rate by its Purcell factor times psi^2."""
    d = _dipoles(field, model)[0]
    leg = _leg_factor(model.omega_d.rad_per_s, mode_d, model.host.n)
    # d * leg first: d * d underflows while the rate is still representable
    return math.pi * d * (d * leg)


# --- sweep row -------------------------------------------------------------


def _tpa_enhancement(drive: DriveField, mode: CavityMode, host: BulkHost) -> float:
    """G = eta Q phi A lambda / (pi V n) at the drive frequency: the
    intracavity photon number over the bulk one inside the mode volume.
    The drive power cancels, so both are taken at 1 W."""
    unit = DriveField(drive.omega, 1.0, drive.spot_area)
    return photon_number_cavity(unit, mode) / photon_number_bulk(unit, mode.volume, host)


def evaluate_point(field_v_per_m: float, experiment: Experiment) -> RateReport:
    """All reported quantities at one lateral-field strength."""
    field = LateralField(field_v_per_m)
    ex = experiment

    om_eff = effective_rabi(_cavity_channel(ex.drive1, ex.mode1),
                            _cavity_channel(ex.drive2, ex.mode2), field, ex.dot,
                            ABSORPTION)

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


# --- sweep rows ------------------------------------------------------------


def _field_row(ex: Experiment):
    """Row function of a field sweep, field in V/m: one evaluate_point at
    the field where the dipole product p peaks (dx = sqrt(2) l_e), rescaled
    per row by the field law. omega_eff goes as p, TPSTE and the density as
    p^2, OPSE as d_ss^2; F1F2 and G1G2 do not depend on the field. |p| <=
    p_ref on every row, so a rescale cannot overflow."""
    peak = _peak_field(ex.dot)
    ref = evaluate_point(peak.v_per_m, ex)
    d_ref, p_ref, _, _ = _dipoles(peak, ex.dot)

    def row(field_v_per_m: float) -> RateReport:
        d, p, _, _ = _dipoles(LateralField(field_v_per_m), ex.dot)
        # a dipole that underflows at its peak is zero on every row
        r = p / p_ref if p_ref else 0.0
        q = d / d_ref if d_ref else 0.0
        return RateReport(field_v_per_m, ref.omega_eff_over_2pi * r,
                          ref.gamma_opse_over_2pi * q * q, ref.gamma_tpste_over_2pi * r * r,
                          ref.tpse_spectral_density * r * r, ref.enhancement_tpse,
                          ref.enhancement_tpa)
    return row


def _omega2_row(ex: Experiment, held_v_per_m: float):
    """Row function of an omega2 sweep, w2 in rad/s: emitted power
    densities at w2, cavity and bulk, W s/rad, at the dipole peak for any
    held field above 0, and zero at a zero held field. Both go as p(E)^2,
    which a normalization to the bulk peak cancels, so every nonzero held
    field gives the same relative spectrum; at the peak p is largest, so it
    does not underflow where the held field's would."""
    field = _peak_field(ex.dot) if held_v_per_m else LateralField(0.0)

    def row(w2: float) -> tuple[float, float]:
        omega2 = AngularFrequency(w2)
        cavity = HBAR * w2 * tpse_spectral_density_cavity(omega2, ex.dot, field,
                                                          ex.mode1, ex.mode2)
        bulk = HBAR * w2 * tpse_spectral_density_bulk(omega2, ex.dot, field)
        if not (math.isfinite(cavity) and math.isfinite(bulk)):
            raise ValueError(f"emitted power density is not finite "
                             f"(cavity {cavity!r}, bulk {bulk!r})")
        return cavity, bulk
    return row
