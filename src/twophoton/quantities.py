"""Physical constants and dimension-tagged scalar quantities.

Angular frequency in rad/s is the canonical frequency unit everywhere in
this package; wavelengths are free-space values in meters and only appear
at input/output boundaries. _check_range is the one "finite and in range"
rule of every numeric input: the typed quantities of each module and the
config keys of scenario all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Final

__all__ = [
    "AngularFrequency",
    "DipoleMoment",
    "Wavelength",
    "CONSTANTS_VERSION",
    "angular_frequency_to_wavelength",
    "energy_to_angular_frequency",
    "wavelength_to_angular_frequency",
]

CONSTANTS_VERSION: Final[str] = "codata2018"

# CODATA 2018: h and e are exact; hbar carried to full double precision.
HBAR: Final[float] = 6.62607015e-34 / (2.0 * math.pi)     # J s
EPS0: Final[float] = 8.8541878128e-12                    # F/m
C: Final[float] = 299792458.0                            # m/s
QE: Final[float] = 1.602176634e-19                       # C
M0: Final[float] = 9.1093837015e-31                      # kg


def _check_range(value: float, name: str, low: float | None = None,
                 exclusive: bool = False, high: float | None = None) -> None:
    """Raise ValueError naming `name` unless value is finite, at least low
    (above it when exclusive) and at most high, checked in that order. A
    value that passes builds no message."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if low is not None and not (value > low if exclusive else value >= low):
        raise ValueError(f"{name} must be {'>' if exclusive else '>='} {low}, "
                         f"got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")


def _check_nonnegative(fields: dict, label: str) -> None:
    """_check_range(value, f"{label} {name}", 0.0) for each name, value of
    fields, in order. All values are tested at once first (a finite sum
    means every value is finite), so fields that pass build no message."""
    if not (math.isfinite(sum(fields.values())) and min(fields.values()) >= 0.0):
        for name, value in fields.items():
            _check_range(value, f"{label} {name}", 0.0)


@dataclass(frozen=True)
class AngularFrequency:
    """Angular frequency, rad/s. Must be positive."""

    rad_per_s: float

    def __post_init__(self):
        _check_range(self.rad_per_s, "angular frequency", 0.0, exclusive=True)


@dataclass(frozen=True)
class Wavelength:
    """Free-space wavelength, meters. Must be positive."""

    meters: float

    def __post_init__(self):
        _check_range(self.meters, "wavelength", 0.0, exclusive=True)


@dataclass(frozen=True)
class DipoleMoment:
    """Electric dipole moment magnitude, C m. Must be nonnegative."""

    coulomb_meters: float

    def __post_init__(self):
        _check_range(self.coulomb_meters, "dipole moment", 0.0)


def wavelength_to_angular_frequency(wavelength: Wavelength) -> AngularFrequency:
    """omega = 2 pi c / lambda."""
    return AngularFrequency(2.0 * math.pi * C / wavelength.meters)


def angular_frequency_to_wavelength(omega: AngularFrequency) -> Wavelength:
    """lambda = 2 pi c / omega. Inverse of wavelength_to_angular_frequency."""
    return Wavelength(2.0 * math.pi * C / omega.rad_per_s)


def energy_to_angular_frequency(energy_ev: float) -> AngularFrequency:
    """omega = E / hbar with E given in electronvolts."""
    _check_range(energy_ev, "energy in eV", 0.0, exclusive=True)
    return AngularFrequency(energy_ev * QE / HBAR)
