"""The built-in parameter preset.

PRESET, "paper-fig3", is the one preset: the InGaAs-dot-in-GaAs working
point that fig3a and fig3b sweep and the test suite uses: 926 nm dot
transition, 12/6 meV electron/hole lateral confinement, a 1550 nm
telecom mode and its energy-conserving partner, Q = 5000 and
single-cubic-wavelength volumes for both modes, 2% in-coupling, 12 uW
absorption drives over a 1 um^2 spot, and a 100 uW stimulation drive,
which feeds mode 2 only and so has no spot.

The preset is a plain dict in the scenario-config schema so user configs
can override any single value; build_experiment turns a resolved dict into
the typed objects the rate functions take.
"""

from __future__ import annotations

from .cavity import BulkHost, CavityMode, mode_at_wavelength
from .quantities import (
    AngularFrequency,
    M0,
    Wavelength,
    angular_frequency_to_wavelength,
    energy_to_angular_frequency,
    wavelength_to_angular_frequency,
)
from .rates import DriveField, Experiment
from .stark import QuantumDotModel

__all__ = ["PRESET", "build_experiment", "preset_config"]

_DOT_WAVELENGTH_NM = 926.0
_PUMP_WAVELENGTH_NM = 1550.0


def _paper_fig3() -> dict:
    omega_d = wavelength_to_angular_frequency(Wavelength(_DOT_WAVELENGTH_NM * 1e-9))
    omega_1 = wavelength_to_angular_frequency(Wavelength(_PUMP_WAVELENGTH_NM * 1e-9))
    omega_2 = omega_d.rad_per_s - omega_1.rad_per_s
    return {
        "dot": {
            "wavelength_nm": _DOT_WAVELENGTH_NM,
            "electron_mass_ratio": 0.055,
            "hole_mass_ratio": 0.11,
            "electron_confinement_mev": 12.0,
            "hole_confinement_mev": 6.0,
            "r_cv_nm": 0.6,
            "refractive_index": 3.4,
        },
        "modes": [
            {
                "wavelength_nm": _PUMP_WAVELENGTH_NM,
                "quality": 5000.0,
                "volume_cubic_wavelengths": 1.0,
                "eta": 0.02,
                "psi": 1.0,
            },
            {
                # energy-conserving partner of the 1550 nm mode
                "omega_rad_per_s": omega_2,
                "quality": 5000.0,
                "volume_cubic_wavelengths": 1.0,
                "eta": 0.02,
                "psi": 1.0,
            },
        ],
        "drives": [
            {"wavelength_nm": _PUMP_WAVELENGTH_NM, "power_uw": 12.0,
             "spot_area_um2": 1.0},
            {"omega_rad_per_s": omega_2, "power_uw": 12.0, "spot_area_um2": 1.0},
            # feeds mode 2 only, so it has no bulk beam and no spot
            {"omega_rad_per_s": omega_2, "power_uw": 100.0},
        ],
        "sweep": {
            "variable": "field",
            "min": 0.0,
            "max": 2.0,
            "points": 200,
            "log": False,
        },
    }


PRESET = "paper-fig3"


def preset_config(name: str) -> dict:
    """The named preset's full config dict, built fresh on every call."""
    if name != PRESET:
        raise ValueError(f"unknown preset {name!r}; known presets: {PRESET}")
    return _paper_fig3()


def _entry_omega(entry: dict) -> AngularFrequency:
    if "omega_rad_per_s" in entry:
        return AngularFrequency(entry["omega_rad_per_s"])
    return wavelength_to_angular_frequency(Wavelength(entry["wavelength_nm"] * 1e-9))


def _build_mode(entry: dict, host: BulkHost) -> CavityMode:
    omega = _entry_omega(entry)
    overlaps = {key: entry[key] for key in ("eta", "psi") if key in entry}
    return mode_at_wavelength(
        angular_frequency_to_wavelength(omega), host, entry["quality"],
        volume_cubic_wavelengths=entry["volume_cubic_wavelengths"], **overlaps)


def _build_drive(entry: dict) -> DriveField:
    spot = entry.get("spot_area_um2")
    return DriveField(_entry_omega(entry), entry["power_uw"] * 1e-6,
                      None if spot is None else spot * 1e-12)


def _build_dot(entry: dict) -> QuantumDotModel:
    return QuantumDotModel(
        omega_d=wavelength_to_angular_frequency(
            Wavelength(entry["wavelength_nm"] * 1e-9)),
        m_e_star=entry["electron_mass_ratio"] * M0,
        m_h_star=entry["hole_mass_ratio"] * M0,
        omega_e=energy_to_angular_frequency(entry["electron_confinement_mev"] * 1e-3),
        omega_h=energy_to_angular_frequency(entry["hole_confinement_mev"] * 1e-3),
        r_cv=entry["r_cv_nm"] * 1e-9,
        host=BulkHost(entry["refractive_index"]),
    )


def _reason(exc: Exception) -> str:
    """An error's message, led by its type when it is an arithmetic one,
    whose bare message ("math range error") names no cause."""
    return f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError) else str(exc)


def _built(path: str, build, *args):
    """build(*args), naming the config entry `path` in a ValueError that
    replaces its ValueError or ArithmeticError: a value the config checks
    pass can still under- or overflow on its way to SI units."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{path}: {_reason(exc)}") from exc


def build_experiment(config: dict) -> Experiment:
    """Typed Experiment from a fully validated, fully resolved config dict.
    Raises ValueError naming the entry (dot, modes[i], drives[i]) that
    cannot be built."""
    dot = _built("dot", _build_dot, config["dot"])
    modes = [_built(f"modes[{i}]", _build_mode, entry, dot.host)
             for i, entry in enumerate(config["modes"])]
    drives = [_built(f"drives[{i}]", _build_drive, entry)
              for i, entry in enumerate(config["drives"])]
    return Experiment(
        dot=dot,
        mode1=modes[0],
        mode2=modes[1],
        drive1=drives[0],
        drive2=drives[1],
        stim_drive2=drives[2],
        mode_d=modes[2] if len(modes) > 2 else None,
    )
