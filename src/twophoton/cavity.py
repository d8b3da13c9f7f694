"""Cavity mode and bulk host descriptions, Lorentzian mismatch, Purcell factor.

The frequency mismatch profile used throughout is

    phi(omega) = (omega/omega_c) / (1 + 4 Q^2 (omega/omega_c - 1)^2)

which equals 1 at omega = omega_c. The omega/omega_c numerator is kept
as is, so the true maximum of phi sits a fraction ~1/(8 Q^2) of a
linewidth above resonance; the on-resonance value is still exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import (AngularFrequency, Wavelength, _check_range,
                         wavelength_to_angular_frequency)

__all__ = [
    "BulkHost",
    "CavityMode",
    "lorentzian_mismatch",
    "mode_at_wavelength",
    "purcell_factor",
]


@dataclass(frozen=True)
class BulkHost:
    """Homogeneous host medium with refractive index n >= 1."""

    n: float

    def __post_init__(self):
        _check_range(self.n, "refractive index", 1.0)


@dataclass(frozen=True)
class CavityMode:
    """Single cavity mode: center frequency, quality factor, mode volume,
    in-coupling efficiency eta and mode-overlap factor psi (both in [0, 1])."""

    omega_c: AngularFrequency
    quality: float              # dimensionless Q > 0
    volume: float               # m^3
    eta: float = 1.0            # in-coupling efficiency
    psi: float = 1.0            # emitter-mode overlap

    def __post_init__(self):
        _check_range(self.quality, "quality factor", 0.0, exclusive=True)
        _check_range(self.volume, "mode volume", 0.0, exclusive=True)
        _check_range(self.eta, "coupling efficiency", 0.0, high=1.0)
        _check_range(self.psi, "mode overlap", 0.0, high=1.0)


def mode_at_wavelength(wavelength: Wavelength, host: BulkHost, quality: float,
                       eta: float = 1.0, psi: float = 1.0,
                       volume_cubic_wavelengths: float = 1.0) -> CavityMode:
    """Build a mode centered at a free-space wavelength with volume given in
    units of the cubic in-medium wavelength (lambda/n)^3."""
    _check_range(volume_cubic_wavelengths, "mode volume in cubic wavelengths", 0.0,
                 exclusive=True)
    volume = (wavelength.meters / host.n) ** 3 * volume_cubic_wavelengths
    return CavityMode(omega_c=wavelength_to_angular_frequency(wavelength),
                      quality=quality, volume=volume, eta=eta, psi=psi)


def _mismatch_raw(omega, mode: CavityMode):
    """Array-friendly core of lorentzian_mismatch; omega is raw rad/s, a
    scalar or a numpy array."""
    x = omega / mode.omega_c.rad_per_s
    # 4 ((x - 1) Q)^2: Q^2 and 2 Q overflow for a Q the product keeps finite
    # (0 * inf is nan on resonance); in place where an array would make a copy
    t = (x - 1.0) * mode.quality
    t *= t
    x /= 1.0 + 4.0 * t
    return x


def lorentzian_mismatch(omega: AngularFrequency, mode: CavityMode) -> float:
    """phi(omega) = (omega/omega_c) / (1 + 4 Q^2 (omega/omega_c - 1)^2)."""
    return _mismatch_raw(omega.rad_per_s, mode)


def purcell_factor(wavelength: Wavelength, host: BulkHost, mode: CavityMode,
                   omega: AngularFrequency | None = None) -> float:
    """Rate enhancement of one emission factor relative to bulk:

        F = (3 / 4 pi^2) (lambda/n)^3 Q phi(omega) / V

    evaluated at the mode center when omega is not given.
    """
    if omega is None:
        omega = mode.omega_c
    lam_medium = wavelength.meters / host.n
    return (3.0 / (4.0 * math.pi**2)) * lam_medium**3 * mode.quality \
        * lorentzian_mismatch(omega, mode) / mode.volume
