"""Sweep configuration, execution and serialization.

Config files are YAML with this shape (all numbers SI-prefixed as the key
names say; `preset: paper-fig3` fills every key, after which any subset can
be overridden, list entries merging element-wise by position):

    preset: paper-fig3
    dot:
      wavelength_nm: 926.0
      electron_mass_ratio: 0.055        # units of the free-electron mass
      hole_mass_ratio: 0.11
      electron_confinement_mev: 12.0
      hole_confinement_mev: 6.0
      r_cv_nm: 0.6
      refractive_index: 3.4
    modes:                              # 2 required; optional 3rd at the dot line
      - wavelength_nm: 1550.0           # or omega_rad_per_s (exactly one)
        quality: 5000.0
        volume_cubic_wavelengths: 1.0   # or volume_m3 (exactly one)
        eta: 0.02
        psi: 1.0
      - ...
    drives:                             # exactly 3: photon-1, photon-2, stimulation
      - wavelength_nm: 1550.0           # or omega_rad_per_s (exactly one)
        power_uw: 12.0
        spot_area_um2: 1.0              # field sweeps need it on drives 0 and 1
        coupling: 0.02                  # optional, overrides the mode's eta
      - ...
    sweep:
      variable: field                   # or omega2
      min: 0.0                          # V/um for field, rad/s for omega2
      max: 2.0
      points: 200
      log: false                        # optional log spacing (needs min > 0)
      field_v_per_um: 0.75              # omega2 sweeps only: field to hold
    linewidth:                          # optional; no sweep output reads it
      gamma_d_rad_per_s: 1.0e9
    output:                             # optional; CLI flags take precedence
      path: sweep.csv
      format: csv                       # or json

Field sweeps evaluate the full rate report per grid point, and need a
spot area on drives 0 and 1 for the G1*G2 column; omega2 sweeps
emit relative emitted-power spectra (cavity and bulk, normalized to the
bulk peak inside the window). Grid points are mutually independent, so they
may be evaluated concurrently; rows always come out in grid order. Output
is deterministic: the run timestamp lives on the result object only and is
never serialized.

`linewidth` only sets Experiment.linewidth, the delta-regularization width
that Experiment.resolved_linewidth hands to the tpa_rate_* functions of the
Python API (defaulting to the zero-field one-photon rate). No sweep column
depends on it, so it changes no CSV or JSON byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .presets import PRESET_NAMES, build_experiment, preset_config
from .quantities import CONSTANTS_VERSION, HBAR, AngularFrequency
from .rates import (
    Experiment,
    RateReport,
    evaluate_point,
    tpse_spectral_density_bulk,
    tpse_spectral_density_cavity,
)
from .stark import LateralField, SingularDetuningError

__all__ = [
    "ConfigError",
    "OutputError",
    "ScenarioConfig",
    "SpectralRow",
    "SweepError",
    "SweepResult",
    "config_from_dict",
    "load_config",
    "parse_json_text",
    "reproduce_fig3a",
    "reproduce_fig3b",
    "result_to_csv_text",
    "result_to_json_text",
    "run_sweep",
    "write_output",
]

DEFAULT_FIG3B_FIELD_V_PER_UM = 0.75
# far above every grid in use (a few thousand points); rejects a typo that
# would allocate gigabytes before the first row
MAX_SWEEP_POINTS = 10**6


class ConfigError(ValueError):
    """Config rejected; the message names the offending field."""


class SweepError(RuntimeError):
    """Evaluation failed at a specific grid point."""

    def __init__(self, index: int, variable: str, value: float, reason: str):
        self.index = index
        self.variable = variable
        self.value = value
        super().__init__(
            f"grid point {index} ({variable} = {value:.6g}): {reason}")


class OutputError(RuntimeError):
    """Result could not be written; the message names the path."""


@dataclass(frozen=True)
class SpectralRow:
    """One omega2-sweep row: emitted power per unit frequency, cavity and
    bulk environments, in units of the bulk in-window peak."""

    omega2_rad_per_s: float
    tpse_power_cavity_rel: float
    tpse_power_bulk_rel: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"spectral row field {name} must be finite "
                                 f"and nonnegative, got {value!r}")

    _FIELDS = ("omega2_rad_per_s", "tpse_power_cavity_rel", "tpse_power_bulk_rel")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, preset-expanded sweep description plus the built
    experiment. `resolved` is the post-merge plain dict that config_hash
    is the SHA-256 of."""

    resolved: dict
    experiment: Experiment
    sweep_variable: str
    sweep_min: float
    sweep_max: float
    sweep_points: int
    sweep_log: bool
    sweep_field_v_per_um: float | None
    output_path: str | None
    output_format: str
    config_hash: str


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep rows plus provenance metadata. The timestamp records
    when the sweep ran; it is excluded from equality and serialization so
    identical configs give byte-identical output."""

    rows: tuple
    sweep_variable: str
    config_hash: str
    constants_version: str
    timestamp: str = dataclass_field(default="", compare=False)


# --- validation -------------------------------------------------------------


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(entry: dict, allowed: set[str], path: str) -> None:
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {path}")


def _number(entry: dict, key: str, path: str, *, required: bool = True,
            minimum: float | None = None, exclusive: bool = False,
            maximum: float | None = None, integer: bool = False):
    if key not in entry:
        if required:
            raise ConfigError(f"{path}.{key} is required")
        return None
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key} must be finite, got {value!r}")
    if minimum is not None:
        if exclusive and not value > minimum:
            raise ConfigError(f"{path}.{key} must be > {minimum}, got {value!r}")
        if not exclusive and not value >= minimum:
            raise ConfigError(f"{path}.{key} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key} must be <= {maximum}, got {value!r}")
    return value


def _one_frequency_key(entry: dict, path: str) -> None:
    present = [k for k in ("wavelength_nm", "omega_rad_per_s") if k in entry]
    if len(present) != 1:
        raise ConfigError(f"{path} needs exactly one of wavelength_nm or "
                          f"omega_rad_per_s, got {present or 'neither'}")
    _number(entry, present[0], path, minimum=0.0, exclusive=True)


def _validate_dot(entry: dict) -> None:
    _require_mapping(entry, "dot")
    keys = {"wavelength_nm", "electron_mass_ratio", "hole_mass_ratio",
            "electron_confinement_mev", "hole_confinement_mev", "r_cv_nm",
            "refractive_index"}
    _reject_unknown(entry, keys, "dot")
    for key in keys - {"refractive_index"}:
        _number(entry, key, "dot", minimum=0.0, exclusive=True)
    _number(entry, "refractive_index", "dot", minimum=1.0)


def _validate_mode(entry: dict, path: str) -> None:
    _require_mapping(entry, path)
    _reject_unknown(entry, {"wavelength_nm", "omega_rad_per_s", "quality",
                            "volume_cubic_wavelengths", "volume_m3", "eta",
                            "psi"}, path)
    _one_frequency_key(entry, path)
    _number(entry, "quality", path, minimum=0.0, exclusive=True)
    volume_keys = [k for k in ("volume_cubic_wavelengths", "volume_m3") if k in entry]
    if len(volume_keys) != 1:
        raise ConfigError(f"{path} needs exactly one of volume_cubic_wavelengths "
                          f"or volume_m3, got {volume_keys or 'neither'}")
    _number(entry, volume_keys[0], path, minimum=0.0, exclusive=True)
    _number(entry, "eta", path, required=False, minimum=0.0, maximum=1.0)
    _number(entry, "psi", path, required=False, minimum=0.0, maximum=1.0)


def _validate_drive(entry: dict, path: str) -> None:
    _require_mapping(entry, path)
    _reject_unknown(entry, {"wavelength_nm", "omega_rad_per_s", "power_uw",
                            "spot_area_um2", "coupling"}, path)
    _one_frequency_key(entry, path)
    _number(entry, "power_uw", path, minimum=0.0)
    _number(entry, "spot_area_um2", path, required=False, minimum=0.0,
            exclusive=True)
    _number(entry, "coupling", path, required=False, minimum=0.0, maximum=1.0)


def _validate_sweep(entry: dict) -> None:
    _require_mapping(entry, "sweep")
    _reject_unknown(entry, {"variable", "min", "max", "points", "log",
                            "field_v_per_um"}, "sweep")
    variable = entry.get("variable")
    if variable not in ("field", "omega2"):
        raise ConfigError(f"sweep.variable must be 'field' or 'omega2', "
                          f"got {variable!r}")
    # omega2 is a photon frequency, so strictly positive
    low = _number(entry, "min", "sweep", minimum=0.0,
                  exclusive=variable == "omega2")
    high = _number(entry, "max", "sweep")
    if not low < high:
        raise ConfigError(f"sweep.min must be < sweep.max, got {low!r} and {high!r}")
    _number(entry, "points", "sweep", minimum=2, maximum=MAX_SWEEP_POINTS,
            integer=True)
    log = entry.get("log", False)
    if not isinstance(log, bool):
        raise ConfigError(f"sweep.log must be a boolean, got {log!r}")
    if log and not low > 0.0:
        raise ConfigError(f"sweep.min must be > 0 for log spacing, got {low!r}")
    if variable == "field" and "field_v_per_um" in entry:
        raise ConfigError("sweep.field_v_per_um only applies to omega2 sweeps")
    if variable == "omega2":
        _number(entry, "field_v_per_um", "sweep", required=False, minimum=0.0)


def _validate(config: dict) -> None:
    _reject_unknown(config, {"dot", "modes", "drives", "sweep", "linewidth",
                             "output"}, "config")
    if "dot" not in config:
        raise ConfigError("dot is required")
    _validate_dot(config["dot"])

    modes = config.get("modes")
    if not isinstance(modes, list) or not 2 <= len(modes) <= 3:
        raise ConfigError(f"modes must list 2 or 3 cavity modes, "
                          f"got {modes if modes is None else len(modes)}")
    for i, entry in enumerate(modes):
        _validate_mode(entry, f"modes[{i}]")

    drives = config.get("drives")
    if not isinstance(drives, list) or len(drives) != 3:
        raise ConfigError(f"drives must list exactly 3 entries "
                          f"(photon-1, photon-2, stimulation), "
                          f"got {drives if drives is None else len(drives)}")
    for i, entry in enumerate(drives):
        _validate_drive(entry, f"drives[{i}]")

    if "sweep" not in config:
        raise ConfigError("sweep is required")
    _validate_sweep(config["sweep"])
    if config["sweep"]["variable"] == "field":
        # the G1*G2 column compares each TPA drive with its focused bulk beam
        for i in (0, 1):
            if "spot_area_um2" not in drives[i]:
                raise ConfigError(f"drives[{i}].spot_area_um2 is required by field "
                                  f"sweeps (the G1*G2 column)")

    if "linewidth" in config:
        lw = _require_mapping(config["linewidth"], "linewidth")
        _reject_unknown(lw, {"gamma_d_rad_per_s"}, "linewidth")
        _number(lw, "gamma_d_rad_per_s", "linewidth", minimum=0.0, exclusive=True)

    if "output" in config:
        out = _require_mapping(config["output"], "output")
        _reject_unknown(out, {"path", "format"}, "output")
        if "path" in out and (not isinstance(out["path"], str) or not out["path"]):
            raise ConfigError(f"output.path must be a non-empty string, "
                              f"got {out['path']!r}")
        fmt = out.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _deep_merge(base[key], value) if key in base else value
        return merged
    if isinstance(base, list) and isinstance(override, list):
        merged = [_deep_merge(b, o) for b, o in zip(base, override)]
        longer = base if len(base) > len(override) else override
        merged.extend(longer[len(merged):])
        return merged
    return override


def _canonical_hash(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def config_from_dict(data: dict, default_preset: str | None = None) -> ScenarioConfig:
    """Validate a parsed config mapping, expanding its preset if named.
    default_preset applies only when the mapping names none itself."""
    data = _require_mapping(data, "config")
    data = dict(data)
    preset = data.pop("preset", default_preset)
    if preset is not None:
        if preset not in PRESET_NAMES:
            known = ", ".join(PRESET_NAMES)
            raise ConfigError(f"preset must be one of: {known}; got {preset!r}")
        resolved = _deep_merge(preset_config(preset), data)
    else:
        resolved = data
    _validate(resolved)
    experiment = build_experiment(resolved)

    sweep = resolved["sweep"]
    variable = sweep["variable"]
    if variable == "omega2":
        omega_d = experiment.dot.omega_d.rad_per_s
        if sweep["max"] >= omega_d:
            raise ConfigError(
                f"sweep.max must stay below the dot transition "
                f"({omega_d:.6e} rad/s), got {sweep['max']!r}")
        hold = sweep.get("field_v_per_um", DEFAULT_FIG3B_FIELD_V_PER_UM)
    else:
        hold = None

    out = resolved.get("output", {})
    return ScenarioConfig(
        resolved=resolved,
        experiment=experiment,
        sweep_variable=variable,
        sweep_min=float(sweep["min"]),
        sweep_max=float(sweep["max"]),
        sweep_points=int(sweep["points"]),
        sweep_log=bool(sweep.get("log", False)),
        sweep_field_v_per_um=hold,
        output_path=out.get("path"),
        output_format=out.get("format", "csv"),
        config_hash=_canonical_hash(resolved),
    )


def load_config(source: str | Path,
                default_preset: str | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from a YAML file path or inline YAML text."""
    if isinstance(source, Path) or os.path.exists(source):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
    elif "\n" not in source and source.endswith((".yaml", ".yml", ".json")):
        raise ConfigError(f"config file not found: {source}")
    else:
        text = source
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError("config is empty")
    return config_from_dict(data, default_preset)


# --- execution --------------------------------------------------------------


def _grid(config: ScenarioConfig) -> np.ndarray:
    if config.sweep_log:
        return np.geomspace(config.sweep_min, config.sweep_max, config.sweep_points)
    return np.linspace(config.sweep_min, config.sweep_max, config.sweep_points)


def _run_field_sweep(config: ScenarioConfig) -> tuple:
    rows = []
    for i, e_v_per_um in enumerate(_grid(config)):
        try:
            rows.append(evaluate_point(float(e_v_per_um) * 1e6, config.experiment))
        except (SingularDetuningError, ValueError) as exc:
            raise SweepError(i, "field_V_per_um", float(e_v_per_um), str(exc)) from exc
    return tuple(rows)


def _run_omega2_sweep(config: ScenarioConfig) -> tuple:
    ex = config.experiment
    field = LateralField(config.sweep_field_v_per_um * 1e6)
    cavity = np.empty(config.sweep_points)
    bulk = np.empty(config.sweep_points)
    grid = _grid(config)
    for i, w2 in enumerate(grid):
        omega2 = AngularFrequency(float(w2))
        try:
            cav_density = tpse_spectral_density_cavity(
                omega2, ex.dot, field, ex.mode1, ex.mode2)
            bulk_density = tpse_spectral_density_bulk(omega2, ex.dot, field)
        except (SingularDetuningError, ValueError) as exc:
            raise SweepError(i, "omega2_rad_per_s", float(w2), str(exc)) from exc
        cavity[i] = HBAR * w2 * cav_density        # emitted power density, W s/rad
        bulk[i] = HBAR * w2 * bulk_density
    peak = float(bulk.max())
    if peak > 0.0:
        cavity = cavity / peak
        bulk = bulk / peak
    return tuple(SpectralRow(float(w2), float(c), float(b))
                 for w2, c, b in zip(grid, cavity, bulk))


def run_sweep(config: ScenarioConfig) -> SweepResult:
    """Evaluate the configured sweep. Deterministic for a fixed config;
    singular grid points surface as SweepError naming the point."""
    if config.sweep_variable == "field":
        rows = _run_field_sweep(config)
    else:
        rows = _run_omega2_sweep(config)
    return SweepResult(
        rows=rows,
        sweep_variable=config.sweep_variable,
        config_hash=config.config_hash,
        constants_version=CONSTANTS_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def reproduce_fig3a(preset: str = "paper-fig3") -> SweepResult:
    """Lateral-field sweep of the preset working point: 0 to 2 V/um over
    200 points (paper-fig3's sweep), reporting all rate curves per point."""
    return run_sweep(config_from_dict({"preset": preset}))


def reproduce_fig3b(preset: str = "paper-fig3") -> SweepResult:
    """Emitted-power spectrum across the preset's mode-2 resonance at
    0.75 V/um: 401 points spanning 4 cavity linewidths each side of center,
    cavity and bulk environments normalized to the bulk in-window peak."""
    mode2 = config_from_dict({"preset": preset}).experiment.mode2
    center = mode2.omega_c.rad_per_s
    width = center / mode2.quality
    sweep = {
        "variable": "omega2",
        "min": center - 4.0 * width,
        "max": center + 4.0 * width,
        "points": 401,
        "field_v_per_um": DEFAULT_FIG3B_FIELD_V_PER_UM,
    }
    return run_sweep(config_from_dict({"preset": preset, "sweep": sweep}))


# --- serialization ----------------------------------------------------------


_CSV_HEADERS = {
    "field": ("field_V_per_um", "omega_eff_over_2pi_Hz", "gamma_opse_over_2pi_Hz",
              "gamma_tpste_over_2pi_Hz", "tpse_spectral_density",
              "enhancement_tpse", "enhancement_tpa"),
    "omega2": SpectralRow._FIELDS,
}


def _fmt(value: float) -> str:
    # 17 significant digits: parses back to exactly the same double
    return format(value, ".16e")


def _csv_values(row, variable: str) -> tuple:
    if variable == "field":
        return (row.field_strength / 1e6, row.omega_eff_over_2pi,
                row.gamma_opse_over_2pi, row.gamma_tpste_over_2pi,
                row.tpse_spectral_density, row.enhancement_tpse,
                row.enhancement_tpa)
    return tuple(getattr(row, name) for name in SpectralRow._FIELDS)


def result_to_csv_text(result: SweepResult) -> str:
    lines = [",".join(_CSV_HEADERS[result.sweep_variable])]
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in _csv_values(row, result.sweep_variable)))
    return "\n".join(lines) + "\n"


def result_to_json_text(result: SweepResult) -> str:
    # hand-rolled so every float carries 17 significant digits; json.dumps
    # offers no hook for float formatting
    row_type = RateReport if result.sweep_variable == "field" else SpectralRow
    lines = [
        "{",
        f'  "config_hash": {json.dumps(result.config_hash)},',
        f'  "constants_version": {json.dumps(result.constants_version)},',
        f'  "sweep_variable": {json.dumps(result.sweep_variable)},',
        '  "rows": [',
    ]
    last = len(result.rows) - 1
    for i, row in enumerate(result.rows):
        body = ", ".join(f'"{name}": {_fmt(getattr(row, name))}'
                         for name in row_type._FIELDS)
        lines.append("    {" + body + "}" + ("," if i < last else ""))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_json_text(text: str) -> SweepResult:
    """Inverse of result_to_json_text; the parsed result compares equal to
    the one serialized (timestamps are excluded from comparison)."""
    data = json.loads(text)
    variable = data["sweep_variable"]
    row_type = RateReport if variable == "field" else SpectralRow
    rows = tuple(row_type(**{name: float(entry[name]) for name in row_type._FIELDS})
                 for entry in data["rows"])
    return SweepResult(rows=rows, sweep_variable=variable,
                       config_hash=data["config_hash"],
                       constants_version=data["constants_version"])


def write_output(result: SweepResult, format: str, path: str | Path) -> None:
    """Serialize to CSV or JSON at `path`."""
    if format == "csv":
        text = result_to_csv_text(result)
    elif format == "json":
        text = result_to_json_text(result)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
