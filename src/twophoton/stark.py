"""Quantum-dot model under a lateral electric field.

A two-level dot (ground state and s-shell exciton at omega_d) is dressed
with p-shell intermediate states. Electron and hole envelopes are harmonic
oscillators; a lateral field displaces them by dx, suppressing the s-s
interband dipole by a Gaussian overlap and switching on the parity-broken
s-p channel:

    dx    = e field (1/(m_e w_e^2) + 1/(m_h w_h^2))
    l_e   = sqrt(hbar / (2 m_e w_e))
    d_ss  = e r_cv exp(-dx^2 / (4 l_e^2))
    d_gk d_ke = e^2 r_cv dx exp(-dx^2 / (4 l_e^2))

The product is the same for both p-shell states k, so the second-order
transition moment factors into the field's dipole product times a
field-free sum over the two photon orderings:

    M12 = |d_gk d_ke| |sum_k (1/D1 + 1/D2)|

Absorption uses D = (w_k - w_g) - w_i; emission replaces the term-1
(term-2) denominator by (w_k - w_g) - w_d + w_2 (resp. + w_1).

One envelope length l_e serves both carriers: the hole's own length
sqrt(hbar / (2 m_h w_h)) appears nowhere. That is exact only when
m_e w_e = m_h w_h, as in the paper-fig3 preset (0.055 * 12 = 0.11 * 6);
other masses or confinement quanta use the electron's length for both.

Internals also accept numpy arrays for the photon frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cavity import BulkHost
from .quantities import AngularFrequency, DipoleMoment, HBAR, QE, _check_range

__all__ = [
    "ABSORPTION",
    "DEFAULT_MIN_DETUNING",
    "EMISSION",
    "LateralField",
    "QuantumDotModel",
    "SingularDetuningError",
    "dipole_product_sp",
    "dipole_product_sp_field_derivative",
    "dipole_ss",
    "dipole_ss_field_derivative",
    "m12",
    "oscillator_length",
    "stark_displacement",
]

# Detunings smaller than this (rad/s) are treated as resonant with an
# intermediate state, outside the perturbative regime of the model.
DEFAULT_MIN_DETUNING = 1e9

ABSORPTION = "absorption"
EMISSION = "emission"


class SingularDetuningError(ValueError):
    """An intermediate-state denominator fell below DEFAULT_MIN_DETUNING."""

    def __init__(self, label: str, ordering: str, value: float):
        self.label = label
        self.ordering = ordering
        self.value = value
        super().__init__(
            f"near-resonant intermediate state {label!r} ({ordering} term): "
            f"|detuning| = {abs(value):.3e} rad/s < floor {DEFAULT_MIN_DETUNING:.3e} rad/s")


@dataclass(frozen=True)
class QuantumDotModel:
    """Dot transition frequency, envelope oscillator parameters, interband
    dipole length r_cv and the host the dot is embedded in."""

    omega_d: AngularFrequency     # s-shell exciton transition
    m_e_star: float               # electron effective mass, kg
    m_h_star: float               # hole effective mass, kg
    omega_e: AngularFrequency     # electron confinement quantum
    omega_h: AngularFrequency     # hole confinement quantum
    r_cv: float                   # interband dipole length, m
    host: BulkHost

    def __post_init__(self):
        _check_range(self.m_e_star, "electron mass", 0.0, exclusive=True)
        _check_range(self.m_h_star, "hole mass", 0.0, exclusive=True)
        _check_range(self.r_cv, "dipole length", 0.0, exclusive=True)


@dataclass(frozen=True)
class LateralField:
    """In-plane DC electric field magnitude, V/m. Nonnegative."""

    v_per_m: float

    def __post_init__(self):
        _check_range(self.v_per_m, "field", 0.0)


def oscillator_length(model: QuantumDotModel) -> float:
    """Electron envelope length l_e = sqrt(hbar / (2 m_e* w_e)), meters."""
    return math.sqrt(HBAR / (2.0 * model.m_e_star * model.omega_e.rad_per_s))


def _displacement_slope(model: QuantumDotModel) -> float:
    # d(dx)/d(field), m per V/m
    return QE * (1.0 / (model.m_e_star * model.omega_e.rad_per_s**2)
                 + 1.0 / (model.m_h_star * model.omega_h.rad_per_s**2))


def stark_displacement(field: LateralField, model: QuantumDotModel) -> float:
    """Relative electron-hole displacement dx, meters."""
    return _displacement_slope(model) * field.v_per_m


def _peak_field(model: QuantumDotModel) -> LateralField:
    # where the dipole product dx exp(-dx^2/(4 l_e^2)) peaks: dx = sqrt(2) l_e
    return LateralField(math.sqrt(2.0) * oscillator_length(model)
                        / _displacement_slope(model))


def _dipoles(field: LateralField, model: QuantumDotModel) -> tuple:
    """(d_ss in C m, |d_gk||d_ke| in C^2 m^2, dx, l_e): both dipoles from
    one displacement dx and one Gaussian overlap exp(-dx^2/(4 l_e^2))."""
    dx, l_e = stark_displacement(field, model), oscillator_length(model)
    overlap = math.exp(-dx * dx / (4.0 * l_e * l_e))
    return QE * model.r_cv * overlap, QE**2 * model.r_cv * dx * overlap, dx, l_e


def dipole_ss(field: LateralField, model: QuantumDotModel) -> DipoleMoment:
    """s-s interband dipole e r_cv exp(-dx^2/(4 l_e^2)); the zero-field
    transition dipole, Gaussian-suppressed as the envelopes separate."""
    return DipoleMoment(_dipoles(field, model)[0])


def dipole_ss_field_derivative(field: LateralField, model: QuantumDotModel) -> float:
    """Analytic d(d_ss)/d(field), C m per (V/m)."""
    d, _, dx, l_e = _dipoles(field, model)
    return d * (-dx * _displacement_slope(model) / (2.0 * l_e * l_e))


def dipole_product_sp(field: LateralField, model: QuantumDotModel) -> float:
    """|d_gk||d_ke| = e^2 r_cv dx exp(-dx^2/(4 l_e^2)), C^2 m^2.

    Identical for both p-shell states; odd in the field, so it
    vanishes at zero field where parity forbids the two-photon channel.
    """
    return _dipoles(field, model)[1]


def dipole_product_sp_field_derivative(field: LateralField,
                                       model: QuantumDotModel) -> float:
    """Analytic d(|d_gk||d_ke|)/d(field), C^2 m^2 per (V/m): e d_ss
    d(dx)/d(field) (1 - dx^2/(2 l_e^2))."""
    d, _, dx, l_e = _dipoles(field, model)
    return QE * d * _displacement_slope(model) * (1.0 - dx * dx / (2.0 * l_e * l_e))


# the p-shell intermediate states: label, and the QuantumDotModel attribute
# holding the confinement quantum that places the state above the exciton
_P_SHELL = (("conduction-p", "omega_e"), ("valence-p", "omega_h"))


def _detuning_sum(omega1, omega2, model: QuantumDotModel, direction: str):
    """The field-free factor of m12, |sum_k (1/D1 + 1/D2)|, s; omega1/omega2
    are raw rad/s scalars or numpy arrays broadcast against each other.
    Callers multiply the field's dipole product in last, so that a
    subnormal product costs no digits while the rate is a normal float. Raises
    SingularDetuningError when a denominator magnitude falls below
    DEFAULT_MIN_DETUNING."""
    if direction not in (ABSORPTION, EMISSION):
        raise ValueError(f"direction must be 'absorption' or 'emission', got {direction!r}")
    w_d = model.omega_d.rad_per_s
    total = 0.0
    for label, quantum in _P_SHELL:
        energy = w_d + getattr(model, quantum).rad_per_s
        if direction == ABSORPTION:
            d1, d2 = energy - omega1, energy - omega2
        else:
            d1, d2 = energy - w_d + omega2, energy - w_d + omega1
        for ordering, d in (("photon-1-first", d1), ("photon-2-first", d2)):
            # builtin abs: cheap on a scalar, and on an array it needs no
            # numpy import here
            smallest = abs(d) if isinstance(d, float) else abs(d).min()
            if smallest < DEFAULT_MIN_DETUNING:
                raise SingularDetuningError(label, ordering, float(smallest))
        total = total + (1.0 / d1 + 1.0 / d2)
    return abs(total)


def m12(omega1: AngularFrequency, omega2: AngularFrequency, field: LateralField,
        model: QuantumDotModel, direction: str = ABSORPTION) -> float:
    """Two-photon transition moment, C^2 m^2 s:

        M12 = |d_gk d_ke| |sum_k (1/D1 + 1/D2)|

    with d_gk d_ke the field's dipole product, the same for both p-shell
    states k, and (D1, D2) the photon-1-first and photon-2-first term
    denominators of state k for the chosen direction. The mode overlaps
    belong to the photon legs (rates.PhotonChannel, CavityMode.psi).
    """
    return float(dipole_product_sp(field, model)
                 * _detuning_sum(omega1.rad_per_s, omega2.rad_per_s, model, direction))
