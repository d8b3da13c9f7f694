"""Sweep configuration, execution and serialization.

Config files are YAML, or JSON when the file name ends in .json.
README.md's `## Config schema` section documents every key and the rules
that tie keys together; a test loads its YAML block and checks its keys
against _SCHEMA, the key table the checks below follow in its order.
`preset: paper-fig3` fills every key, after which any subset can be
overridden, list entries merging element-wise by position.

Sweep rows come from the row functions of rates, which take SI inputs: a
field sweep's from the field law, an omega2 sweep's as emitted power
densities that run_sweep normalizes to the bulk peak inside the window.
Grid points are mutually independent, so they may be evaluated
concurrently; rows always come out in grid order. Output is deterministic
and carries no timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from operator import attrgetter, itemgetter, truediv
from pathlib import Path

import numpy as np
import yaml

from .presets import PRESET, _reason, build_experiment, preset_config
from .quantities import CONSTANTS_VERSION, _check_nonnegative, _check_range
from .rates import Experiment, RateReport, _field_row, _omega2_row

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
        _check_nonnegative(vars(self), "spectral row field")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, preset-expanded sweep description plus the built
    experiment. `resolved` is the post-merge plain dict that config_hash
    is the SHA-256 of; `grid` holds the swept values in the config unit
    (V/um for field, rad/s for omega2)."""

    resolved: dict
    experiment: Experiment
    sweep_variable: str
    grid: tuple
    sweep_field_v_per_um: float | None
    config_hash: str


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep rows plus provenance metadata."""

    rows: tuple
    sweep_variable: str
    config_hash: str
    constants_version: str


# --- validation -------------------------------------------------------------


@dataclass(frozen=True)
class _Number:
    """Rule for one numeric config key: min, exclusive and max are the
    bounds _check_range applies, the rule the typed inputs use."""

    min: float | None = None
    exclusive: bool = False      # the value must exceed min, not just reach it
    max: float | None = None
    integer: bool = False
    required: bool = True


_POSITIVE = _Number(min=0.0, exclusive=True)
_FRACTION = _Number(min=0.0, max=1.0, required=False)
_FREQUENCY = ("wavelength_nm", "omega_rad_per_s")

# The config schema: each section's keys, in check order, with the rule for
# each numeric key. A tuple of keys is a one-of group (exactly one of them
# must be present); None marks a key that _check_sweep checks, together
# with the rules that tie keys to each other.
_SCHEMA = {
    "dot": {"wavelength_nm": _POSITIVE, "electron_mass_ratio": _POSITIVE,
            "hole_mass_ratio": _POSITIVE, "electron_confinement_mev": _POSITIVE,
            "hole_confinement_mev": _POSITIVE, "r_cv_nm": _POSITIVE,
            "refractive_index": _Number(min=1.0)},
    "modes": {_FREQUENCY: _POSITIVE, "quality": _POSITIVE,
              "volume_cubic_wavelengths": _POSITIVE, "eta": _FRACTION, "psi": _FRACTION},
    "drives": {_FREQUENCY: _POSITIVE, "power_uw": _Number(min=0.0),
               "spot_area_um2": _Number(min=0.0, exclusive=True, required=False)},
    "sweep": {"variable": None, "min": _Number(min=0.0), "max": _Number(),
              "points": _Number(min=2, max=MAX_SWEEP_POINTS, integer=True),
              "log": None, "field_v_per_um": _Number(min=0.0, required=False)},
}
# each section's key names, one-of groups flattened
_KEYS = {name: {key for group in rules
                for key in (group if isinstance(group, tuple) else (group,))}
         for name, rules in _SCHEMA.items()}
# list sections: fewest and most entries, and what the entries are
_LISTS = {"modes": (2, 3, "2 or 3 cavity modes"),
          "drives": (3, 3, "exactly 3 entries (photon-1, photon-2, stimulation)")}
# (entry, key, reason): a key its section takes that this entry's place
# leaves unread, so setting it there is an error rather than a no-op
_UNREAD = (("modes[2]", "eta", "no drive feeds the third mode"),
           ("drives[2]", "spot_area_um2", "the stimulation drive has no bulk beam"))


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(entry, path: str, known) -> None:
    _require_mapping(entry, path)
    for key in entry:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {path}")


def _number(entry: dict, key: str, path: str, rule: _Number):
    if key not in entry:
        if rule.required:
            raise ConfigError(f"{path}.{key} is required")
        return None
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}")
    # math.isfinite cannot take an int past the float range
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}.{key} must be finite, got an integer beyond the "
                          f"float range")
    try:
        _check_range(value, f"{path}.{key}", rule.min, rule.exclusive, rule.max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if rule.integer and int(value) != value:
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    return value


def _check_numbers(entry: dict, path: str, rules: dict) -> None:
    for key, rule in rules.items():
        if isinstance(key, tuple):
            present = [k for k in key if k in entry]
            if len(present) != 1:
                raise ConfigError(f"{path} needs exactly one of {key[0]} or "
                                  f"{key[1]}, got {present or 'neither'}")
            key = present[0]
        if rule is not None:
            _number(entry, key, path, rule)


def _entries(config: dict, name: str) -> list[tuple[str, object]]:
    """(path, value) of each mapping in one section: one per entry of a
    list section."""
    if name not in config:
        raise ConfigError(f"{name} is required")
    value = config[name]
    if name not in _LISTS:
        return [(name, value)]
    fewest, most, what = _LISTS[name]
    if not isinstance(value, list) or not fewest <= len(value) <= most:
        got = len(value) if isinstance(value, list) else type(value).__name__
        raise ConfigError(f"{name} must list {what}, got {got}")
    return [(f"{name}[{i}]", entry) for i, entry in enumerate(value)]


def _check_sweep(sweep: dict, drives: list) -> dict:
    """sweep's keys and the rules that tie them to each other and to the
    drives; returns the sweep fields of ScenarioConfig, the grid built."""
    rules = _SCHEMA["sweep"]
    variable = sweep.get("variable")
    if variable not in ("field", "omega2"):
        raise ConfigError(f"sweep.variable must be 'field' or 'omega2', "
                          f"got {variable!r}")
    # omega2 is a photon frequency, so strictly positive
    low = _number(sweep, "min", "sweep",
                  _POSITIVE if variable == "omega2" else rules["min"])
    high = _number(sweep, "max", "sweep", rules["max"])
    if not low < high:
        raise ConfigError(f"sweep.min must be < sweep.max, got {low!r} and {high!r}")
    points = _number(sweep, "points", "sweep", rules["points"])
    log = sweep.get("log", False)
    if not isinstance(log, bool):
        raise ConfigError(f"sweep.log must be a boolean, got {log!r}")
    if log and not low > 0.0:
        raise ConfigError(f"sweep.min must be > 0 for log spacing, got {low!r}")
    if variable == "omega2":
        hold = _number(sweep, "field_v_per_um", "sweep", rules["field_v_per_um"])
        if hold is None:
            hold = DEFAULT_FIG3B_FIELD_V_PER_UM
    elif "field_v_per_um" in sweep:
        raise ConfigError("sweep.field_v_per_um only applies to omega2 sweeps")
    else:
        hold = None
        # the G1*G2 column compares each TPA drive with its focused bulk beam
        for i in (0, 1):
            if "spot_area_um2" not in drives[i]:
                raise ConfigError(f"drives[{i}].spot_area_um2 is required by field "
                                  f"sweeps (the G1*G2 column)")
        if not math.isfinite(high * 1e6):
            raise ConfigError(f"sweep.max must be finite in V/m, got {high!r}")
    space = np.geomspace if log else np.linspace
    grid = tuple(space(float(low), float(high), int(points)).tolist())
    return {"sweep_variable": variable, "grid": grid, "sweep_field_v_per_um": hold}


def _validate(config: dict) -> dict:
    """Check a resolved config against _SCHEMA, section by section and key
    by key in table order, so the first error is the first bad key a reader
    meets; unknown top-level keys are checked after the sections. Returns
    the sweep fields of ScenarioConfig."""
    for name, rules in _SCHEMA.items():
        for path, entry in _entries(config, name):
            _check_keys(entry, path, _KEYS[name])
            for where, key, reason in _UNREAD:
                if path == where and key in entry:
                    raise ConfigError(f"{path}.{key} is not accepted: {reason}")
            if name == "sweep":   # its numbers interleave with its cross-key rules
                settings = _check_sweep(entry, config["drives"])
            else:
                _check_numbers(entry, path, rules)
    _check_keys(config, "config", _SCHEMA)
    return settings


def _check_dot_line(config: dict, experiment: Experiment, variable: str) -> None:
    """Emitted photons lie below the dot transition: each omega2 grid point,
    and photon 2 of a field sweep (drives 1 and 2)."""
    omega_d = experiment.dot.omega_d.rad_per_s
    if variable == "omega2":
        if config["sweep"]["max"] >= omega_d:
            raise ConfigError(f"sweep.max must stay below the dot transition "
                              f"({omega_d:.6e} rad/s), got {config['sweep']['max']!r}")
        return
    for i, drive in ((1, experiment.drive2), (2, experiment.stim_drive2)):
        if drive.omega.rad_per_s >= omega_d:
            key = next(k for k in _FREQUENCY if k in config["drives"][i])
            raise ConfigError(f"drives[{i}].{key} must put photon 2 below the dot "
                              f"transition ({omega_d:.6e} rad/s) on field sweeps, "
                              f"got {config['drives'][i][key]!r}")


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
    resolved = dict(_require_mapping(data, "config"))
    preset = resolved.pop("preset", default_preset)
    if preset is not None:
        if preset != PRESET:
            raise ConfigError(f"preset must be one of: {PRESET}; got {preset!r}")
        resolved = _deep_merge(preset_config(preset), resolved)
    settings = _validate(resolved)
    try:
        experiment = build_experiment(resolved)
    except ValueError as exc:
        # an in-range value whose SI conversion under- or overflows
        raise ConfigError(str(exc)) from exc
    _check_dot_line(resolved, experiment, settings["sweep_variable"])
    return ScenarioConfig(resolved=resolved, experiment=experiment,
                          config_hash=_canonical_hash(resolved), **settings)


def load_config(source: str | Path,
                default_preset: str | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from a config file path or inline YAML text.
    A Path, or a str with no newline, is a file path; a str that holds a
    newline is YAML text. A file whose name ends in .json is read as JSON,
    anything else as YAML."""
    text, parse, syntax = source, yaml.safe_load, "YAML"
    if isinstance(source, Path) or "\n" not in source:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {source}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
        if str(source).endswith(".json"):
            parse, syntax = json.loads, "JSON"
    try:
        data = parse(text)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"config is not valid {syntax}: {exc}") from exc
    if data is None:
        raise ConfigError("config is empty")
    return config_from_dict(data, default_preset)


# --- execution --------------------------------------------------------------


def run_sweep(config: ScenarioConfig) -> SweepResult:
    """Evaluate the configured sweep. Deterministic for a fixed config;
    singular grid points surface as SweepError naming the point. A failure
    of what every row shares (a field sweep's reference row, the held
    field, an omega2 sweep's bulk peak) names grid point 0."""
    variable, ex = config.sweep_variable, config.experiment
    header, _, to_si = _COLUMNS[variable][1][0]
    rows, i, x = [], 0, config.grid[0]
    try:
        point = _field_row(ex) if variable == "field" else \
            _omega2_row(ex, config.sweep_field_v_per_um * 1e6)
        for i, x in enumerate(config.grid):
            rows.append(point(x * to_si))
    except (ValueError, ArithmeticError) as exc:
        raise SweepError(i, header, x, _reason(exc)) from exc
    if variable == "omega2":
        # in units of the bulk peak; an all-zero spectrum (zero field) stays zero
        peak = max(bulk for _, bulk in rows)
        if config.sweep_field_v_per_um and peak < sys.float_info.min:
            raise SweepError(0, header, config.grid[0], (
                f"the bulk peak of the window, {peak!r} W s/rad, is below the "
                f"smallest normal float, so rows relative to it would lose their "
                f"digits: dot.r_cv_nm is too small for this window"))
        peak = peak or 1.0
        rows = [SpectralRow(w2, cavity / peak, bulk / peak)
                for w2, (cavity, bulk) in zip(config.grid, rows)]
    return SweepResult(rows=tuple(rows), sweep_variable=variable,
                       config_hash=config.config_hash, constants_version=CONSTANTS_VERSION)


def reproduce_fig3a() -> SweepResult:
    """Lateral-field sweep of the paper-fig3 working point: 0 to 2 V/um over
    200 points (the preset's sweep), reporting all rate curves per point."""
    return run_sweep(config_from_dict({"preset": PRESET}))


def reproduce_fig3b() -> SweepResult:
    """Emitted-power spectrum across paper-fig3's mode-2 resonance, the
    same at any nonzero field: 401 points spanning 4 cavity linewidths each
    side of center, cavity and bulk environments normalized to the bulk
    in-window peak."""
    mode2 = preset_config(PRESET)["modes"][1]
    center = mode2["omega_rad_per_s"]
    width = center / mode2["quality"]
    sweep = {
        "variable": "omega2",
        "min": center - 4.0 * width,
        "max": center + 4.0 * width,
        "points": 401,
    }
    return run_sweep(config_from_dict({"preset": PRESET, "sweep": sweep}))


# --- serialization ----------------------------------------------------------


# sweep variable -> (row type, columns); a column is (CSV header, row field,
# divisor from the field's SI unit to the CSV unit). The first column is the
# swept one, which SweepError names; its divisor also takes a grid value,
# in the config unit, to SI. JSON rows carry the fields in SI units.
_COLUMNS = {
    "field": (RateReport, (
        ("field_V_per_um", "field_strength", 1e6),
        ("omega_eff_over_2pi_Hz", "omega_eff_over_2pi", 1.0),
        ("gamma_opse_over_2pi_Hz", "gamma_opse_over_2pi", 1.0),
        ("gamma_tpste_over_2pi_Hz", "gamma_tpste_over_2pi", 1.0),
        ("tpse_spectral_density", "tpse_spectral_density", 1.0),
        ("enhancement_tpse", "enhancement_tpse", 1.0),
        ("enhancement_tpa", "enhancement_tpa", 1.0))),
    "omega2": (SpectralRow, (
        ("omega2_rad_per_s", "omega2_rad_per_s", 1.0),
        ("tpse_power_cavity_rel", "tpse_power_cavity_rel", 1.0),
        ("tpse_power_bulk_rel", "tpse_power_bulk_rel", 1.0))),
}


# Every float is written as %.16e: 17 significant digits, which parse back
# to exactly the same double. Each row is one % format of a line template;
# the column order is the row type's field order.
def result_to_csv_text(result: SweepResult) -> str:
    columns = _COLUMNS[result.sweep_variable][1]
    line = ",".join(["%.16e"] * len(columns)) + "\n"
    fields = attrgetter(*(name for _, name, _ in columns))
    divisors = [divisor for _, _, divisor in columns]
    lines = [",".join(header for header, _, _ in columns) + "\n"]
    lines += [line % tuple(map(truediv, fields(row), divisors)) for row in result.rows]
    return "".join(lines)


def result_to_json_text(result: SweepResult) -> str:
    # hand-rolled: json.dumps offers no hook for float formatting
    names = [name for _, name, _ in _COLUMNS[result.sweep_variable][1]]
    line = "    {" + ", ".join(f'"{name}": %.16e' for name in names) + "},\n"
    fields = attrgetter(*names)
    lines = ["{\n"] + [f'  "{key}": {json.dumps(getattr(result, key))},\n'
                       for key in ("config_hash", "constants_version", "sweep_variable")]
    lines += ['  "rows": [\n'] + [line % fields(row) for row in result.rows]
    if result.rows:
        lines[-1] = lines[-1][:-2] + "\n"    # no comma after the last row
    lines.append("  ]\n}\n")
    return "".join(lines)


def parse_json_text(text: str) -> SweepResult:
    """Inverse of result_to_json_text; the parsed result compares equal to
    the one serialized."""
    data = json.loads(text)
    variable = data["sweep_variable"]
    row_type, columns = _COLUMNS[variable]
    values = itemgetter(*(name for _, name, _ in columns))
    rows = tuple(row_type(*map(float, values(entry))) for entry in data["rows"])
    return SweepResult(rows=rows, sweep_variable=variable,
                       config_hash=data["config_hash"],
                       constants_version=data["constants_version"])


# output format -> serializer; the one list of formats --format and
# write_output accept
OUTPUT_FORMATS = {"csv": result_to_csv_text, "json": result_to_json_text}
_FORMAT_NAMES = " or ".join(map(repr, OUTPUT_FORMATS))


def write_output(result: SweepResult, format: str, path: str | Path) -> None:
    """Serialize to one of OUTPUT_FORMATS at `path`."""
    if format not in OUTPUT_FORMATS:
        raise ValueError(f"format must be {_FORMAT_NAMES}, got {format!r}")
    text = OUTPUT_FORMATS[format](result)
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
