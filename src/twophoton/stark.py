"""Quantum-dot model under a lateral electric field.

A two-level dot (ground state and s-shell exciton at omega_d) is dressed
with p-shell intermediate states. Electron and hole envelopes are harmonic
oscillators; a lateral field displaces them by dx, suppressing the s-s
interband dipole by a Gaussian overlap and switching on the parity-broken
s-p channel:

    dx    = e field (1/(m_e w_e^2) + 1/(m_h w_h^2))
    l_e   = sqrt(hbar / (2 m_e w_e))
    d_ss  = e r_cv exp(-dx^2 / (4 l_e^2))
    d_gk d_ke = e^2 r_cv dx exp(-dx^2 / (4 l_e^2))   (per p-shell state)

Detunings feed the second-order transition amplitude; absorption uses
Delta = (w_k - w_g) - w_i, emission replaces the term-1 (term-2)
denominator by (w_k - w_g) - w_d + w_2 (resp. + w_1).

Internals accept numpy arrays for the photon frequencies so spectral
integrals can evaluate in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cavity import BulkHost
from .quantities import AngularFrequency, DipoleMoment, HBAR, QE

__all__ = [
    "DEFAULT_MIN_DETUNING",
    "IntermediateState",
    "LateralField",
    "QuantumDotModel",
    "SingularDetuningError",
    "StateDetunings",
    "default_intermediate_states",
    "dipole_product_sp",
    "dipole_product_sp_field_derivative",
    "dipole_ss",
    "dipole_ss_field_derivative",
    "intermediate_detunings",
    "m12",
    "oscillator_length",
    "stark_displacement",
    "state_dipole_pair",
]

# Detunings smaller than this (rad/s) are treated as resonant with an
# intermediate state, outside the perturbative regime of the model.
DEFAULT_MIN_DETUNING = 1e9

ABSORPTION = "absorption"
EMISSION = "emission"


class SingularDetuningError(ValueError):
    """An intermediate-state denominator fell below the configured floor."""

    def __init__(self, label: str, ordering: str, value: float, floor: float):
        self.label = label
        self.ordering = ordering
        self.value = value
        super().__init__(
            f"near-resonant intermediate state {label!r} ({ordering} term): "
            f"|detuning| = {abs(value):.3e} rad/s < floor {floor:.3e} rad/s")


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
        if not (self.m_e_star > 0.0):
            raise ValueError(f"electron mass must be positive, got {self.m_e_star!r}")
        if not (self.m_h_star > 0.0):
            raise ValueError(f"hole mass must be positive, got {self.m_h_star!r}")
        if not (self.r_cv > 0.0):
            raise ValueError(f"dipole length must be positive, got {self.r_cv!r}")


@dataclass(frozen=True)
class LateralField:
    """In-plane DC electric field magnitude, V/m. Nonnegative."""

    v_per_m: float

    def __post_init__(self):
        if self.v_per_m < 0.0 or not math.isfinite(self.v_per_m):
            raise ValueError(f"field must be nonnegative and finite, got {self.v_per_m!r}")


@dataclass(frozen=True)
class IntermediateState:
    """Virtual state for the second-order amplitude, placed by its total
    excitation energy above the crystal ground state."""

    label: str
    energy_above_ground: AngularFrequency


def default_intermediate_states(model: QuantumDotModel) -> tuple[IntermediateState, ...]:
    """The two p-shell channels: conduction-p one electron quantum above the
    exciton, valence-p one hole quantum above it."""
    w_d = model.omega_d.rad_per_s
    return (
        IntermediateState("conduction-p",
                          AngularFrequency(w_d + model.omega_e.rad_per_s)),
        IntermediateState("valence-p",
                          AngularFrequency(w_d + model.omega_h.rad_per_s)),
    )


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


def _overlap(field: LateralField, model: QuantumDotModel) -> float:
    dx = stark_displacement(field, model)
    l_e = oscillator_length(model)
    return math.exp(-dx * dx / (4.0 * l_e * l_e))


def dipole_ss(field: LateralField, model: QuantumDotModel) -> DipoleMoment:
    """s-s interband dipole e r_cv exp(-dx^2/(4 l_e^2)); the zero-field
    transition dipole, Gaussian-suppressed as the envelopes separate."""
    return DipoleMoment(QE * model.r_cv * _overlap(field, model))


def dipole_ss_field_derivative(field: LateralField, model: QuantumDotModel) -> float:
    """Analytic d(d_ss)/d(field), C m per (V/m)."""
    kappa = _displacement_slope(model)
    dx = kappa * field.v_per_m
    l_e = oscillator_length(model)
    return QE * model.r_cv * math.exp(-dx * dx / (4.0 * l_e * l_e)) \
        * (-dx * kappa / (2.0 * l_e * l_e))


def dipole_product_sp(field: LateralField, model: QuantumDotModel) -> float:
    """|d_gk||d_ke| = e^2 r_cv dx exp(-dx^2/(4 l_e^2)), C^2 m^2.

    Identical for both default p-shell states; odd in the field, so it
    vanishes at zero field where parity forbids the two-photon channel.
    """
    return QE**2 * model.r_cv * stark_displacement(field, model) * _overlap(field, model)


def dipole_product_sp_field_derivative(field: LateralField,
                                       model: QuantumDotModel) -> float:
    """Analytic d(|d_gk||d_ke|)/d(field), C^2 m^2 per (V/m)."""
    kappa = _displacement_slope(model)
    dx = kappa * field.v_per_m
    l_e = oscillator_length(model)
    g = math.exp(-dx * dx / (4.0 * l_e * l_e))
    return QE**2 * model.r_cv * kappa * g * (1.0 - dx * dx / (2.0 * l_e * l_e))


def state_dipole_pair(field: LateralField, model: QuantumDotModel) -> tuple[float, float]:
    """(|d_gk|, |d_ke|) for a p-shell channel, C m each.

    The interband leg carries the parity-broken envelope overlap,
    e r_cv (dx/l_e) exp(-dx^2/(4 l_e^2)); the intraband leg is the bare
    oscillator matrix element e l_e. Their product is dipole_product_sp.
    """
    l_e = oscillator_length(model)
    dx = stark_displacement(field, model)
    d_gk = QE * model.r_cv * (dx / l_e) * _overlap(field, model)
    d_ke = QE * l_e
    return d_gk, d_ke


class StateDetunings(NamedTuple):
    """Term denominators for one intermediate state: the photon-1-first and
    photon-2-first orderings of the second-order amplitude."""

    state: IntermediateState
    photon1_first: float    # rad/s
    photon2_first: float    # rad/s


def _term_denominators(state: IntermediateState, omega_d, omega1, omega2,
                       direction: str, min_detuning: float):
    """(photon-1-first, photon-2-first) denominators of one intermediate
    state; omega_d, omega1 and omega2 are raw rad/s scalars or numpy arrays.
    Raises SingularDetuningError when any magnitude falls below
    min_detuning (rad/s)."""
    energy = state.energy_above_ground.rad_per_s
    if direction == ABSORPTION:
        d1, d2 = energy - omega1, energy - omega2
    elif direction == EMISSION:
        base = energy - omega_d
        d1, d2 = base + omega2, base + omega1
    else:
        raise ValueError(f"direction must be 'absorption' or 'emission', got {direction!r}")
    for ordering, d in (("photon-1-first", d1), ("photon-2-first", d2)):
        # one reduction: on a scalar about half the cost of np.any(np.abs(d) < floor)
        smallest = np.abs(d).min()
        if smallest < min_detuning:
            raise SingularDetuningError(state.label, ordering, float(smallest),
                                        min_detuning)
    return d1, d2


def intermediate_detunings(omega1: AngularFrequency, omega2: AngularFrequency,
                           model: QuantumDotModel,
                           states: Sequence[IntermediateState] | None = None,
                           direction: str = ABSORPTION,
                           min_detuning: float = DEFAULT_MIN_DETUNING,
                           ) -> list[StateDetunings]:
    """Denominators of both photon orderings for every intermediate state.

    Raises SingularDetuningError when any denominator magnitude falls below
    min_detuning (rad/s).
    """
    if states is None:
        states = default_intermediate_states(model)
    return [StateDetunings(state, *_term_denominators(
                state, model.omega_d.rad_per_s, omega1.rad_per_s,
                omega2.rad_per_s, direction, min_detuning))
            for state in states]


def _m12_raw(omega1, omega2, field: LateralField, model: QuantumDotModel,
             direction: str, states: Sequence[IntermediateState] | None = None,
             min_detuning: float = DEFAULT_MIN_DETUNING):
    """Array-friendly core of m12 at unit mode overlaps; omega1/omega2 are
    raw rad/s scalars or numpy arrays broadcast against each other. states
    default to the model's two p-shell channels."""
    if states is None:
        states = default_intermediate_states(model)
    product = dipole_product_sp(field, model)
    total = 0.0
    for state in states:
        d1, d2 = _term_denominators(state, model.omega_d.rad_per_s, omega1, omega2,
                                    direction, min_detuning)
        total = total + product * (1.0 / d1 + 1.0 / d2)
        # free them before the next state's are made: on a quadrature grid
        # each is as large as the grid
        del d1, d2
    return np.abs(total)


def m12(omega1: AngularFrequency, omega2: AngularFrequency, field: LateralField,
        model: QuantumDotModel,
        states: Sequence[IntermediateState] | None = None,
        direction: str = ABSORPTION,
        psi1: float = 1.0, psi2: float = 1.0,
        min_detuning: float = DEFAULT_MIN_DETUNING) -> float:
    """Two-photon transition moment, C^2 m^2 s:

        M12 = psi1 psi2 | sum_k d_gk d_ke (1/D1 + 1/D2) |

    with (D1, D2) the per-state term denominators for the chosen direction
    and psi1, psi2 the overlaps of the dot with the modes of photons 1 and 2.
    A photon in one mode has one overlap with the dot, so the overlaps
    factor out of the two-ordering sum.
    """
    value = _m12_raw(omega1.rad_per_s, omega2.rad_per_s, field, model, direction,
                     states, min_detuning)
    return psi1 * psi2 * float(value)
