"""Physical constants and dimension-tagged scalar quantities.

Angular frequency in rad/s is the canonical frequency unit everywhere in
this package; wavelengths are free-space values in meters and only appear
at input/output boundaries.
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


@dataclass(frozen=True)
class AngularFrequency:
    """Angular frequency, rad/s. Must be positive."""

    rad_per_s: float

    def __post_init__(self):
        if not (self.rad_per_s > 0.0) or not math.isfinite(self.rad_per_s):
            raise ValueError(
                f"angular frequency must be positive and finite, got {self.rad_per_s!r}")

    @property
    def hz(self) -> float:
        return self.rad_per_s / (2.0 * math.pi)


@dataclass(frozen=True)
class Wavelength:
    """Free-space wavelength, meters. Must be positive."""

    meters: float

    def __post_init__(self):
        if not (self.meters > 0.0) or not math.isfinite(self.meters):
            raise ValueError(
                f"wavelength must be positive and finite, got {self.meters!r}")

    @property
    def nanometers(self) -> float:
        return self.meters * 1e9


@dataclass(frozen=True)
class DipoleMoment:
    """Electric dipole moment magnitude, C m. Must be nonnegative."""

    coulomb_meters: float

    def __post_init__(self):
        if self.coulomb_meters < 0.0 or not math.isfinite(self.coulomb_meters):
            raise ValueError(
                f"dipole moment must be nonnegative and finite, got {self.coulomb_meters!r}")


def wavelength_to_angular_frequency(wavelength: Wavelength) -> AngularFrequency:
    """omega = 2 pi c / lambda."""
    return AngularFrequency(2.0 * math.pi * C / wavelength.meters)


def angular_frequency_to_wavelength(omega: AngularFrequency) -> Wavelength:
    """lambda = 2 pi c / omega. Inverse of wavelength_to_angular_frequency."""
    return Wavelength(2.0 * math.pi * C / omega.rad_per_s)


def energy_to_angular_frequency(energy_ev: float) -> AngularFrequency:
    """omega = E / hbar with E given in electronvolts."""
    if not (energy_ev > 0.0):
        raise ValueError(f"energy must be positive, got {energy_ev!r} eV")
    return AngularFrequency(energy_ev * QE / HBAR)
