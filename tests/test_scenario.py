"""Config loading, validation completeness, sweep execution and
deterministic serialization."""

import copy
import dataclasses
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from twophoton.cavity import purcell_factor
from twophoton.presets import preset_config
from twophoton.quantities import angular_frequency_to_wavelength
from twophoton.rates import RateReport, evaluate_point, opse_rate
from twophoton.scenario import (
    _COLUMNS,
    _KEYS,
    MAX_SWEEP_POINTS,
    ConfigError,
    OutputError,
    SpectralRow,
    SweepError,
    SweepResult,
    config_from_dict,
    load_config,
    parse_json_text,
    reproduce_fig3a,
    reproduce_fig3b,
    result_to_csv_text,
    result_to_json_text,
    run_sweep,
    write_output,
)
from twophoton.stark import LateralField

FIVE_POINT = {"preset": "paper-fig3",
              "sweep": {"variable": "field", "min": 0.0, "max": 2.0, "points": 5}}

FIELD_HEADER = ("field_V_per_um,omega_eff_over_2pi_Hz,gamma_opse_over_2pi_Hz,"
                "gamma_tpste_over_2pi_Hz,tpse_spectral_density,"
                "enhancement_tpse,enhancement_tpa")


# --- loading and preset expansion -------------------------------------------


def test_preset_round_trips_parameter_values():
    cfg = config_from_dict({"preset": "paper-fig3"})
    r = cfg.resolved
    assert r["dot"]["wavelength_nm"] == 926.0
    assert r["dot"]["electron_mass_ratio"] == 0.055
    assert r["dot"]["hole_mass_ratio"] == 0.11
    assert r["dot"]["electron_confinement_mev"] == 12.0
    assert r["dot"]["hole_confinement_mev"] == 6.0
    assert r["dot"]["r_cv_nm"] == 0.6
    assert r["dot"]["refractive_index"] == 3.4
    for entry in r["modes"]:
        assert entry["quality"] == 5000.0
        assert entry["eta"] == 0.02
        assert entry["volume_cubic_wavelengths"] == 1.0
    assert r["modes"][0]["wavelength_nm"] == 1550.0
    assert r["drives"][0]["power_uw"] == 12.0
    assert r["drives"][1]["power_uw"] == 12.0
    assert r["drives"][2]["power_uw"] == 100.0
    for entry in r["drives"][:2]:
        assert entry["spot_area_um2"] == 1.0
    # the stimulation drive feeds mode 2 only: no bulk beam, no spot
    assert "spot_area_um2" not in r["drives"][2]
    ex = cfg.experiment
    # mode 2 sits exactly at the energy-conserving partner frequency
    assert ex.mode2.omega_c.rad_per_s == pytest.approx(
        ex.dot.omega_d.rad_per_s - ex.mode1.omega_c.rad_per_s, abs=1e-3)
    assert ex.mode1.volume == pytest.approx((1550e-9 / 3.4) ** 3, rel=1e-15)
    assert ex.mode2.volume == pytest.approx(3.096260799522057e-19, rel=1e-13)


def test_single_override_leaves_rest_unchanged():
    cfg = config_from_dict({"preset": "paper-fig3",
                            "modes": [{"quality": 1e4}]})
    base = config_from_dict({"preset": "paper-fig3"})
    assert cfg.experiment.mode1.quality == 1e4
    assert cfg.experiment.mode1.eta == base.experiment.mode1.eta
    assert cfg.experiment.mode1.volume == base.experiment.mode1.volume
    assert cfg.experiment.mode2 == base.experiment.mode2
    assert cfg.resolved["drives"] == base.resolved["drives"]
    assert cfg.config_hash != base.config_hash


def test_load_config_file_and_inline(tmp_path, monkeypatch):
    # a str that holds a newline is YAML text; one without is a file path
    text = "preset: paper-fig3\nsweep: {points: 5}"
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    from_file = load_config(path)
    from_text = load_config(text)
    assert from_file.config_hash == from_text.config_hash
    assert from_text.grid == from_file.grid and len(from_text.grid) == 5
    assert load_config(str(path)).config_hash == from_file.config_hash
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=r"^config file not found: cfg\.txt$"):
        load_config("cfg.txt")


def test_load_config_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))
    with pytest.raises(ConfigError, match="YAML"):
        load_config("sweep: [unclosed\n")
    # PyYAML raises a plain ValueError for an out-of-range timestamp
    with pytest.raises(ConfigError, match="config is not valid YAML: month"):
        load_config("dot:\n  wavelength_nm: 2020-13-45\n")


def test_json_config_file_is_read_as_json(tmp_path):
    # json.dumps writes 1e-05 and 2e-05, which YAML 1.1 reads as strings
    doc = preset_config("paper-fig3")
    doc["drives"][2]["power_uw"] = 2e-05
    doc["sweep"] = {"variable": "field", "min": 1e-05, "max": 2.0, "points": 3,
                    "log": True}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert '"power_uw": 2e-05' in path.read_text()
    config = load_config(path)
    assert config.grid[0] == 1e-05
    assert config.resolved["drives"][2]["power_uw"] == 2e-05
    assert load_config(str(path)).config_hash == config.config_hash


def test_empty_config_rejected(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


def test_default_preset_applies_only_without_explicit_one():
    cfg = config_from_dict(copy.deepcopy(FIVE_POINT["sweep"] and
                                         {"sweep": FIVE_POINT["sweep"]}),
                           default_preset="paper-fig3")
    assert len(cfg.grid) == 5
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict({"preset": "other"}, default_preset="paper-fig3")


def _mutated(path_keys, value):
    cfg = preset_config("paper-fig3")
    target = cfg
    for key in path_keys[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path_keys[-1]]
    else:
        target[path_keys[-1]] = value
    return cfg


_DELETE = object()

REJECTIONS = [
    # (mutation path, value, expected message fragment)
    (("dot", "wavelength_nm"), -1.0, "dot.wavelength_nm"),
    (("dot", "wavelength_nm"), _DELETE, "dot.wavelength_nm"),
    (("dot", "electron_mass_ratio"), 0.0, "dot.electron_mass_ratio"),
    (("dot", "hole_mass_ratio"), -0.1, "dot.hole_mass_ratio"),
    (("dot", "electron_confinement_mev"), 0.0, "dot.electron_confinement_mev"),
    (("dot", "hole_confinement_mev"), "six", "dot.hole_confinement_mev"),
    (("dot", "r_cv_nm"), 0.0, "dot.r_cv_nm"),
    (("dot", "refractive_index"), 0.5, "dot.refractive_index"),
    (("dot", "extra"), 1.0, "unknown key 'extra' in dot"),
    (("modes", 0, "quality"), 0.0, "modes[0].quality"),
    (("modes", 0, "volume_cubic_wavelengths"), -1.0,
     "modes[0].volume_cubic_wavelengths"),
    (("modes", 0, "eta"), 1.5, "modes[0].eta"),
    (("modes", 1, "psi"), -0.2, "modes[1].psi"),
    (("modes", 0, "omega_rad_per_s"), 1e15, "exactly one of wavelength_nm"),
    # volume_cubic_wavelengths is the one volume key
    (("modes", 0, "volume_m3"), 1e-19, "unknown key 'volume_m3' in modes[0]"),
    (("modes", 0, "surprise"), 1.0, "unknown key 'surprise' in modes[0]"),
    # no drive feeds a third mode, so its in-coupling would be ignored
    (("modes",), preset_config("paper-fig3")["modes"] + [
        {"wavelength_nm": 926.0, "quality": 5000.0, "volume_cubic_wavelengths": 1.0,
         "eta": 0.5}],
     "modes[2].eta is not accepted: no drive feeds the third mode"),
    # ... and the stimulation drive feeds its cavity mode only, so it takes no spot
    (("drives", 2, "spot_area_um2"), 1.0,
     "drives[2].spot_area_um2 is not accepted: the stimulation drive has no "
     "bulk beam"),
    (("drives", 0, "power_uw"), -1.0, "drives[0].power_uw"),
    (("drives", 1, "spot_area_um2"), 0.0, "drives[1].spot_area_um2"),
    (("drives", 0, "spot_area_um2"), _DELETE, "drives[0].spot_area_um2"),
    (("drives", 1, "spot_area_um2"), _DELETE, "drives[1].spot_area_um2"),
    # a drive's in-coupling is its mode's eta
    (("drives", 2, "coupling"), 0.5, "unknown key 'coupling' in drives[2]"),
    (("drives", 0, "wavelength_nm"), _DELETE, "exactly one of wavelength_nm"),
    (("drives", 0, "oops"), 1.0, "unknown key 'oops' in drives[0]"),
    (("sweep", "variable"), "power", "sweep.variable"),
    (("sweep", "variable"), _DELETE, "sweep.variable"),
    (("sweep", "min"), -0.5, "sweep.min"),
    (("sweep", "max"), _DELETE, "sweep.max"),
    (("sweep", "points"), 1, "sweep.points"),
    (("sweep", "points"), 2.5, "sweep.points"),
    (("sweep", "points"), MAX_SWEEP_POINTS + 1, "sweep.points"),
    (("sweep", "points"), math.inf, "sweep.points must be finite"),
    # a YAML or JSON integer past the float range, which math.isfinite cannot take
    (("sweep", "points"), 10**400,
     "sweep.points must be finite, got an integer beyond the float range"),
    (("dot", "refractive_index"), 10**400,
     "dot.refractive_index must be finite, got an integer beyond the float range"),
    (("drives", 0, "power_uw"), -10**400, "drives[0].power_uw must be finite"),
    (("sweep", "log"), "yes", "sweep.log"),
    (("sweep", "field_v_per_um"), 0.75, "field_v_per_um"),
    (("sweep", "stride"), 3, "unknown key 'stride' in sweep"),
    (("bogus",), 1.0, "unknown key 'bogus' in config"),
    # the tpa_rate_* API takes its Linewidth as an argument; no output reads one
    (("linewidth",), {"gamma_d_rad_per_s": 1.0e9}, "unknown key 'linewidth' in config"),
    # the CLI's --output and --format choose where a sweep goes
    (("output",), {"path": "out.csv"}, "unknown key 'output' in config"),
    (("modes",), 3, "modes must list 2 or 3 cavity modes, got int"),
    (("drives",), 3, "drives must list exactly 3 entries"),
    # a field sweep emits drives 1 and 2 as photon 2, below the dot line
    (("drives", 1, "omega_rad_per_s"), 3.0e15,
     "drives[1].omega_rad_per_s must put photon 2 below the dot transition"),
    (("drives", 2, "omega_rad_per_s"), 3.0e15, "drives[2].omega_rad_per_s"),
    (("dot", "wavelength_nm"), 2400.0, "drives[1].omega_rad_per_s"),
    # in range, but under- or overflows on its way to SI units
    (("dot", "wavelength_nm"), 1.0e-320, "dot: wavelength must be > 0.0, got 0.0"),
    (("modes", 0, "volume_cubic_wavelengths"), 1.0e-320,
     "modes[0]: mode volume must be > 0.0, got 0.0"),
    (("dot", "electron_confinement_mev"), 1.0e308,
     "dot: angular frequency must be finite, got inf"),
    # (wavelength/n)^3 underflows, so the first mode's volume is 0 m^3
    (("dot", "refractive_index"), 1.0e308, "modes[0]: mode volume must be > 0.0"),
    # ... or overflows
    (("modes", 0, "wavelength_nm"), 1.0e308, "modes[0]: OverflowError: "),
    # a field sweep's grid is converted to V/m point by point
    (("sweep", "max"), 1.0e308, "sweep.max must be finite in V/m"),
]


@pytest.mark.parametrize("path_keys,value,fragment", REJECTIONS,
                         ids=["-".join(map(str, r[0])) + f"={r[1]!r}"[:30]
                              for r in REJECTIONS])
def test_validation_rejects_each_field(path_keys, value, fragment):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_mutated(path_keys, value))
    assert fragment in str(err.value)


def test_validation_rejects_bad_linewidth_and_output():
    cfg = preset_config("paper-fig3")
    cfg["linewidth"] = {"gamma_d_rad_per_s": 1e9}
    with pytest.raises(ConfigError, match="unknown key 'linewidth' in config"):
        config_from_dict(cfg)
    cfg = preset_config("paper-fig3")
    cfg["output"] = {"path": "out.json", "format": "json"}
    with pytest.raises(ConfigError, match="unknown key 'output' in config"):
        config_from_dict(cfg)


def test_validation_rejects_wrong_counts():
    cfg = preset_config("paper-fig3")
    cfg["modes"] = cfg["modes"][:1]
    with pytest.raises(ConfigError, match="modes"):
        config_from_dict(cfg)
    cfg = preset_config("paper-fig3")
    cfg["drives"] = cfg["drives"][:2]
    with pytest.raises(ConfigError, match="drives"):
        config_from_dict(cfg)
    with pytest.raises(ConfigError, match="dot"):
        config_from_dict({"sweep": {"variable": "field", "min": 0.0,
                                    "max": 1.0, "points": 2}})


WRONG_TYPES = [3, "three", [3], None]


@pytest.mark.parametrize("path_keys,path", [
    (("dot",), "dot"), (("modes",), "modes"), (("modes", 0), "modes[0]"),
    (("drives",), "drives"), (("drives", 2), "drives[2]"), (("sweep",), "sweep"),
    (("output",), "output"), (("modes", 0, "volume_m3"), "modes[0]"),
    (("drives", 2, "coupling"), "drives[2]")])
@pytest.mark.parametrize("value", WRONG_TYPES, ids=repr)
def test_wrong_type_names_its_path(path_keys, path, value):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_mutated(path_keys, value))
    # output is no section (--output/--format choose where a sweep goes), and
    # volume_m3 and coupling are no keys (a mode's volume is in (lambda/n)^3,
    # a drive's in-coupling is its mode's eta), so a value of any type there
    # is an unknown key, named in the message with the mapping that holds it
    if path_keys[-1] in ("output", "volume_m3", "coupling"):
        prefix = f"unknown key {path_keys[-1]!r} in {path if path != 'output' else 'config'}"
    else:
        prefix = path + " "
    assert str(err.value).startswith(prefix)


def test_field_sweep_drive_past_dot_line_names_its_wavelength():
    cfg = preset_config("paper-fig3")
    cfg["drives"][1] = {"wavelength_nm": 800.0, "power_uw": 12.0, "spot_area_um2": 1.0}
    with pytest.raises(ConfigError, match=re.escape("drives[1].wavelength_nm")):
        config_from_dict(cfg)


def test_omega2_sweep_ignores_drives_past_dot_line():
    cfg = preset_config("paper-fig3")
    center = cfg["modes"][1]["omega_rad_per_s"]
    cfg["drives"][2]["omega_rad_per_s"] = 3.0e15
    cfg["sweep"] = {"variable": "omega2", "min": center - 1e11,
                    "max": center + 1e11, "points": 3}
    assert config_from_dict(cfg).sweep_variable == "omega2"


def test_omega2_sweep_range_checked_against_dot_line():
    cfg = preset_config("paper-fig3")
    cfg["sweep"] = {"variable": "omega2", "min": 1e14, "max": 3e15, "points": 3}
    with pytest.raises(ConfigError, match="sweep.max"):
        config_from_dict(cfg)


@pytest.mark.parametrize("low", [-1.0, 0.0])
def test_omega2_sweep_needs_positive_min(low):
    cfg = preset_config("paper-fig3")
    cfg["sweep"] = {"variable": "omega2", "min": low, "max": 1e15, "points": 3}
    with pytest.raises(ConfigError, match="sweep.min must be > 0"):
        config_from_dict(cfg)


def test_log_spacing_needs_positive_min():
    cfg = preset_config("paper-fig3")
    cfg["sweep"]["log"] = True
    with pytest.raises(ConfigError, match="log"):
        config_from_dict(cfg)
    cfg["sweep"]["min"] = 0.1
    grid_cfg = config_from_dict(cfg)
    assert list(grid_cfg.grid) == np.geomspace(0.1, cfg["sweep"]["max"],
                                               cfg["sweep"]["points"]).tolist()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_schema_block() -> str:
    section = README.read_text().split("\n## Config schema\n", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_schema_block_loads_and_names_every_key():
    block = _readme_schema_block()
    load_config(block)
    # keys a line sets, keys shown commented out (`# key: value`), and the
    # other member of a one-of group (`# or key (exactly one)`)
    documented = {}
    for line in block.splitlines():
        top = re.match(r"(\w+):", line)
        if top:
            section = documented.setdefault(top.group(1), set())
            continue
        section.update(re.findall(r"^\s*(?:- )?(?:# )?(\w+):", line))
        section.update(re.findall(r"# or (\w+) \(exactly one\)", line))
    documented.pop("preset")
    assert documented == _KEYS


def _readme_output_tables() -> dict:
    """(CSV column, JSON key, unit) rows of each `### <variable> sweep`
    table in README's Output section, by sweep variable."""
    section = README.read_text().split("\n## Output\n", 1)[1].split("\n## ", 1)[0]
    return {block.split(" ", 1)[0].lower():
            re.findall(r"^\| `(\w+)` +\| `(\w+)` +\| (.+?) +\|$", block, re.M)
            for block in section.split("\n### ")[1:]}


def test_readme_output_tables_match_the_columns():
    tables = _readme_output_tables()
    assert set(tables) == set(_COLUMNS)
    for variable, (_, columns) in _COLUMNS.items():
        documented = tables[variable]
        assert [(header, key) for header, key, _ in documented] == \
            [(header, name) for header, name, _ in columns]
        # a column whose CSV unit is not the JSON row's SI unit names both
        for (_, _, unit), (_, _, divisor) in zip(documented, columns):
            assert ("in CSV" in unit) == (divisor != 1.0)


# --- sweep execution --------------------------------------------------------


def test_field_sweep_shape_and_parity():
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    assert len(result.rows) == 5
    fields = [row.field_strength for row in result.rows]
    assert fields == sorted(fields)
    assert fields[0] == 0.0 and fields[-1] == 2e6
    first = result.rows[0]
    assert first.omega_eff_over_2pi == 0.0
    assert first.gamma_tpste_over_2pi == 0.0
    assert first.tpse_spectral_density == 0.0
    assert first.gamma_opse_over_2pi > 0.0
    assert result.constants_version == "codata2018"


def _random_dot_sweep(rng: random.Random, log: bool) -> dict:
    """A field sweep of a randomly drawn dot: all 7 dot keys, both modes,
    and drives drawn around the dot line (photon 2 below it)."""
    def log_uniform(low, high):
        return 10.0 ** rng.uniform(math.log10(low), math.log10(high))

    lam_d = rng.uniform(850.0, 1000.0)
    omega_d = 2.0 * math.pi * 299792458.0 / (lam_d * 1e-9)
    omega_1 = omega_d * rng.uniform(0.3, 0.7)
    omega_2 = omega_d - omega_1
    omegas = (omega_1, omega_2)
    modes = [{"omega_rad_per_s": omegas[i] * (1.0 + rng.uniform(-1e-4, 1e-4)),
              "quality": log_uniform(1e3, 1e5),
              "volume_cubic_wavelengths": rng.uniform(0.5, 3.0),
              "eta": rng.uniform(0.0, 1.0), "psi": rng.uniform(0.2, 1.0)}
             for i in range(2)]
    drives = [{"omega_rad_per_s": omega * (1.0 - rng.uniform(0.0, 1e-4)),
               "power_uw": log_uniform(1.0, 1e3), "spot_area_um2": rng.uniform(0.5, 5.0)}
              for omega in (omega_1, omega_2, omega_2)]
    # the stimulation drive takes no spot; it is drawn all the same, so the
    # draws after it stay those of the seed
    del drives[2]["spot_area_um2"]
    top = rng.uniform(0.5, 3.0)
    sweep = {"variable": "field", "min": rng.uniform(0.01, 0.1) if log else 0.0,
             "max": top, "points": 5, "log": log}
    return {"preset": None,
            "dot": {"wavelength_nm": lam_d,
                    "electron_mass_ratio": log_uniform(0.02, 0.2),
                    "hole_mass_ratio": log_uniform(0.05, 0.5),
                    "electron_confinement_mev": rng.uniform(3.0, 30.0),
                    "hole_confinement_mev": rng.uniform(2.0, 20.0),
                    "r_cv_nm": rng.uniform(0.2, 2.0),
                    "refractive_index": rng.uniform(2.5, 4.0)},
            "modes": modes, "drives": drives, "sweep": sweep}


# The field law holds wherever evaluate_point's value is a normal float;
# a subnormal value has lost digits, so it is only held to "also below it".
_UNDERFLOW = sys.float_info.min


def test_field_law_rows_match_evaluate_point_on_random_dots():
    # each field row is one reference evaluate_point rescaled by the field
    # law; on every column it must equal evaluate_point at the row's field
    rng = random.Random(7)
    for n in range(400):
        config = config_from_dict(_random_dot_sweep(rng, log=n % 2 == 1))
        rows = run_sweep(config).rows
        for row, e_v_per_um in zip(rows, config.grid):
            expected = evaluate_point(e_v_per_um * 1e6, config.experiment)
            for got, want in zip(dataclasses.astuple(row), dataclasses.astuple(expected)):
                if want < _UNDERFLOW:
                    assert got < _UNDERFLOW, (n, row)
                else:
                    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (n, row)
        if config.grid[0] == 0.0:
            first = rows[0]
            assert first.omega_eff_over_2pi == 0.0
            assert first.gamma_tpste_over_2pi == 0.0
            assert first.tpse_spectral_density == 0.0


def test_sweep_determinism():
    a = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    b = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    assert a == b
    assert result_to_csv_text(a) == result_to_csv_text(b)
    assert result_to_json_text(a) == result_to_json_text(b)


def test_sweep_error_names_grid_point():
    # drive 1 parked exactly on the conduction-p resonance makes every
    # nonzero-field point singular
    cfg = preset_config("paper-fig3")
    ex = config_from_dict({"preset": "paper-fig3"}).experiment
    resonant = ex.dot.omega_d.rad_per_s + ex.dot.omega_e.rad_per_s
    del cfg["drives"][0]["wavelength_nm"]
    cfg["drives"][0]["omega_rad_per_s"] = resonant
    cfg["sweep"] = {"variable": "field", "min": 0.5, "max": 1.0, "points": 3}
    with pytest.raises(SweepError) as err:
        run_sweep(config_from_dict(cfg))
    assert "grid point 0" in str(err.value)
    assert "field_V_per_um = 0.5" in str(err.value)
    assert err.value.index == 0


def _arithmetic_failures():
    # in range, but the photon number of drive 1 overflows (w^2) or divides
    # by zero (1/w^2)
    fast = preset_config("paper-fig3")
    del fast["drives"][0]["wavelength_nm"]
    fast["drives"][0]["omega_rad_per_s"] = 1.0e160
    slow = preset_config("paper-fig3")
    del slow["drives"][0]["wavelength_nm"]
    slow["drives"][0]["omega_rad_per_s"] = 1.0e-300
    return [fast, slow]


@pytest.mark.parametrize("cfg", _arithmetic_failures(), ids=["overflow", "zero-division"])
def test_sweep_arithmetic_error_names_grid_point(cfg):
    cfg["sweep"]["points"] = 3
    with pytest.raises(SweepError) as err:
        run_sweep(config_from_dict(cfg))
    cause = err.value.__cause__
    assert isinstance(cause, ArithmeticError)
    # the bare message ("math range error") names no cause; its type does
    assert str(err.value).startswith(
        f"grid point 0 (field_V_per_um = 0): {type(cause).__name__}: ")


def test_field_sweep_of_an_underflowing_dipole_is_all_zero():
    # r_cv so small that both dipoles underflow even at their peak: every
    # row is evaluate_point's all-zero rates, not a division by zero
    cfg = preset_config("paper-fig3")
    cfg["dot"]["r_cv_nm"] = 1.0e-300
    cfg["sweep"]["points"] = 3
    config = config_from_dict(cfg)
    for row, e_v_per_um in zip(run_sweep(config).rows, config.grid):
        assert row == evaluate_point(e_v_per_um * 1e6, config.experiment)
        assert row.omega_eff_over_2pi == row.gamma_opse_over_2pi == 0.0


def _omega2_sweep(cfg: dict) -> dict:
    center = cfg["modes"][1]["omega_rad_per_s"]
    cfg["sweep"] = {"variable": "omega2", "min": center - 1e11,
                    "max": center + 1e11, "points": 3}
    return cfg


def test_omega2_sweep_arithmetic_error_names_grid_point():
    # in range, but the bulk leg's w1^3 overflows: w1 is near the dot line
    cfg = _omega2_sweep(preset_config("paper-fig3"))
    cfg["dot"]["wavelength_nm"] = 1.0e-90
    with pytest.raises(SweepError, match=r"grid point 0 \(omega2_rad_per_s = .*\): "
                                         r"OverflowError: "):
        run_sweep(config_from_dict(cfg))


def test_omega2_sweep_nonfinite_density_names_grid_point():
    # the densities overflow to inf; the bulk-peak normalization would make nan
    cfg = _omega2_sweep(preset_config("paper-fig3"))
    cfg["dot"]["r_cv_nm"] = 1.0e308
    with pytest.raises(SweepError, match=r"grid point 0 \(omega2_rad_per_s = .*\): "
                                         r"emitted power density is not finite"):
        run_sweep(config_from_dict(cfg))


def test_mode_volume_is_in_cubic_wavelengths():
    cfg = preset_config("paper-fig3")
    cfg["sweep"]["points"] = 3
    base = config_from_dict(copy.deepcopy(cfg))
    cfg["modes"][1]["volume_cubic_wavelengths"] = 0.8
    config = config_from_dict(cfg)
    assert config.experiment.mode2.volume == pytest.approx(
        0.8 * base.experiment.mode2.volume, rel=1e-15)
    result = run_sweep(config)
    assert len(result.rows) == 3
    # F2, so F1*F2, goes as 1/V2
    assert result.rows[-1].enhancement_tpse == pytest.approx(
        run_sweep(base).rows[-1].enhancement_tpse / 0.8, rel=1e-12)


def test_third_mode_scales_opse_by_purcell_times_psi_squared():
    # modes[2] at the dot line takes the one-photon emission: bulk OPSE
    # times its Purcell factor times psi^2
    columns = {}
    for psi in (1.0, 0.5):
        cfg = copy.deepcopy(FIVE_POINT)
        cfg["modes"] = [{}, {}, {"wavelength_nm": 926.0, "quality": 5000.0,
                                 "volume_cubic_wavelengths": 1.0, "psi": psi}]
        config = config_from_dict(cfg)
        ex = config.experiment
        wavelength = angular_frequency_to_wavelength(ex.dot.omega_d)
        purcell = purcell_factor(wavelength, ex.dot.host, ex.mode_d, ex.dot.omega_d)
        rows = run_sweep(config).rows
        for row in rows:
            bulk = opse_rate(ex.dot, LateralField(row.field_strength)) / (2.0 * math.pi)
            assert row.gamma_opse_over_2pi == pytest.approx(bulk * purcell * psi**2,
                                                            rel=1e-12)
        columns[psi] = [row.gamma_opse_over_2pi for row in rows]
    assert columns[0.5] == pytest.approx([0.25 * x for x in columns[1.0]], rel=1e-12)


def test_omega2_sweep_needs_no_spot_area():
    # only the field sweep's G1*G2 column uses the bulk beams
    cfg = preset_config("paper-fig3")
    for drive in cfg["drives"][:2]:
        del drive["spot_area_um2"]
    assert len(run_sweep(config_from_dict(_omega2_sweep(cfg))).rows) == 3


def test_omega2_sweep_rows():
    cfg = preset_config("paper-fig3")
    center = cfg["modes"][1]["omega_rad_per_s"]
    cfg["sweep"] = {"variable": "omega2", "min": center - 2e11,
                    "max": center + 2e11, "points": 41,
                    "field_v_per_um": 0.75}
    result = run_sweep(config_from_dict(cfg))
    assert len(result.rows) == 41
    assert all(isinstance(row, SpectralRow) for row in result.rows)
    bulk = [row.tpse_power_bulk_rel for row in result.rows]
    assert max(bulk) == 1.0            # normalized to the bulk in-window peak
    omegas = [row.omega2_rad_per_s for row in result.rows]
    assert omegas == sorted(omegas)


def _omega2_log(cfg: dict, **sweep) -> tuple:
    """Rows of cfg as a log omega2 sweep over +-4 mode-2 linewidths of the
    preset, with extra sweep keys."""
    cfg["sweep"] = {"variable": "omega2", "min": 8.18266e14, "max": 8.19577e14,
                    "points": 81, "log": True, **sweep}
    return run_sweep(config_from_dict(cfg)).rows


def test_omega2_spectrum_does_not_depend_on_held_field():
    # both densities go as p(E)^2, which the bulk-peak normalization cancels,
    # so every nonzero held field is evaluated at the dipole peak. At 1e-148
    # and 10 V/um the held field's own p would make the bulk curve 0 and
    # leave the cavity column unnormalized (1.3e-320 W s/rad at 1e-148).
    def spectrum(held):
        return _omega2_log(preset_config("paper-fig3"), field_v_per_um=held)

    reference = spectrum(0.75)
    for held in (1e-300, 1e-148, 1e-100, 2.5, 10.0, 1e308):
        assert spectrum(held) == reference, held
    assert all(row.tpse_power_cavity_rel == row.tpse_power_bulk_rel == 0.0
               for row in spectrum(0.0))


@pytest.mark.parametrize("r_cv_nm", [1e-145, 1e-148])
def test_omega2_sweep_with_a_subnormal_bulk_peak_fails(r_cv_nm):
    # below about 1e-139 nm the raw bulk peak is subnormal: at 1e-145 the
    # relative cavity peak would keep only some of its digits (144197.216
    # against 144197.288), and at 1e-148 the bulk column would be all 0
    # and the cavity one raw W s/rad
    cfg = preset_config("paper-fig3")
    cfg["dot"]["r_cv_nm"] = r_cv_nm
    with pytest.raises(SweepError, match=r"grid point 0 \(omega2_rad_per_s = .*\): "
                                         r".*dot\.r_cv_nm is too small"):
        _omega2_log(cfg)
    # a zero held field still gives all-zero rows
    assert all(row.tpse_power_cavity_rel == row.tpse_power_bulk_rel == 0.0
               for row in _omega2_log(cfg, field_v_per_um=0.0))


def test_omega2_sweep_with_a_small_dipole_keeps_the_relative_spectrum():
    cfg = preset_config("paper-fig3")
    cfg["dot"]["r_cv_nm"] = 1e-100
    reference = _omega2_log(preset_config("paper-fig3"))
    for row, ref in zip(_omega2_log(cfg), reference, strict=True):
        assert dataclasses.astuple(row) == pytest.approx(dataclasses.astuple(ref),
                                                         rel=1e-12)


def test_omega2_sweep_with_quality_near_the_float_maximum():
    # 2 Q overflows at Q = 1e308, and inf times a zero Lorentzian is nan
    cfg = preset_config("paper-fig3")
    cfg["modes"][0]["quality"] = 1e308
    rows = _omega2_log(cfg)
    assert len(rows) == 81
    assert max(row.tpse_power_bulk_rel for row in rows) == 1.0


# Numeric keys whose small change moves no column of any sweep below. Only
# the held field: an omega2 sweep is evaluated at the dipole peak for every
# nonzero held field. ROADMAP item 6 deletes it.
_NO_OUTPUT = {("sweep", "field_v_per_um")}


def _numeric_paths(node, path=()):
    """The path of every number below node, booleans left out."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from _numeric_paths(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def _sweep_columns(cfg: dict) -> list:
    return [dataclasses.astuple(row) for row in run_sweep(config_from_dict(cfg)).rows]


def test_every_numeric_key_moves_an_output():
    # a key that no output reads is a dead key: nudge each number of the
    # preset, as a field sweep, as an omega2 sweep and with a third mode at
    # the dot line, and some column of that sweep must move
    field = preset_config("paper-fig3")
    field["sweep"]["points"] = 5
    with_mode_d = copy.deepcopy(field)
    with_mode_d["modes"].append({"wavelength_nm": 926.0, "quality": 5000.0,
                                 "volume_cubic_wavelengths": 1.0, "psi": 1.0})
    omega2 = _omega2_sweep(preset_config("paper-fig3"))
    omega2["sweep"]["field_v_per_um"] = 0.75
    seen, live = set(), set()
    for base in (field, omega2, with_mode_d):
        before = _sweep_columns(copy.deepcopy(base))
        for path in _numeric_paths(base):
            seen.add(path)
            cfg = copy.deepcopy(base)
            target = cfg
            for key in path[:-1]:
                target = target[key]
            value = target[path[-1]]
            if isinstance(value, int):
                target[path[-1]] = value + 1
            else:
                target[path[-1]] = value * (1.0 - 1e-6) if value else 1e-6
            after = _sweep_columns(cfg)
            if len(after) != len(before) or any(
                    not math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
                    for row_a, row_b in zip(after, before) for a, b in zip(row_a, row_b)):
                live.add(path)
    assert seen - live == _NO_OUTPUT


def test_fig3a_shape():
    result = reproduce_fig3a()
    assert len(result.rows) == 200
    assert result.sweep_variable == "field"
    assert result.rows[0].field_strength == 0.0
    assert result.rows[-1].field_strength == pytest.approx(2e6, rel=1e-15)
    for row in result.rows:
        for field in dataclasses.fields(row):
            value = getattr(row, field.name)
            assert math.isfinite(value) and value >= 0.0


def test_fig3b_spectrum(experiment):
    result = reproduce_fig3b()
    assert len(result.rows) == 401
    cav = np.array([row.tpse_power_cavity_rel for row in result.rows])
    blk = np.array([row.tpse_power_bulk_rel for row in result.rows])
    omegas = np.array([row.omega2_rad_per_s for row in result.rows])
    center = experiment.mode2.omega_c.rad_per_s
    # cavity curve peaks on the mode-2 resonance
    peak_index = int(np.argmax(cav))
    assert omegas[peak_index] == pytest.approx(center, rel=1e-12)
    # peak cavity/bulk ratio is the Purcell product, about 1.44e5
    ratio = cav[peak_index] / blk[peak_index]
    assert ratio == pytest.approx(144365.37545649847, rel=1e-9)
    # bulk curve is smooth and flat across the 8-linewidth window
    assert blk.max() == 1.0
    assert blk.min() > 0.99
    assert np.all(np.diff(blk) > 0.0)  # monotone: no Lorentzian structure


# --- serialization ----------------------------------------------------------


def test_csv_header_and_line_count():
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    text = result_to_csv_text(result)
    lines = text.splitlines()
    assert len(lines) == 6             # header + 5 rows
    assert lines[0] == FIELD_HEADER
    # field column is in V/um
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[-1].split(",")[0]) == pytest.approx(2.0, rel=1e-15)


def test_csv_17_significant_digits():
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    cell = result_to_csv_text(result).splitlines()[1].split(",")[2]
    mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17
    assert float(cell) == result.rows[0].gamma_opse_over_2pi


def test_json_round_trip_equality(tmp_path):
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    text = result_to_json_text(result)
    parsed = parse_json_text(text)
    assert parsed == result
    assert parsed.config_hash == result.config_hash
    # files round-trip the same way
    path = tmp_path / "out.json"
    write_output(result, "json", path)
    assert parse_json_text(path.read_text()) == result


def test_json_excludes_timestamp():
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    assert "timestamp" not in result_to_json_text(result)


def test_json_carries_metadata():
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    text = result_to_json_text(result)
    assert result.config_hash in text
    assert "codata2018" in text


def test_omega2_round_trip():
    cfg = preset_config("paper-fig3")
    center = cfg["modes"][1]["omega_rad_per_s"]
    cfg["sweep"] = {"variable": "omega2", "min": center - 1e11,
                    "max": center + 1e11, "points": 5}
    result = run_sweep(config_from_dict(cfg))
    assert parse_json_text(result_to_json_text(result)) == result
    lines = result_to_csv_text(result).splitlines()
    assert lines[0] == "omega2_rad_per_s,tpse_power_cavity_rel,tpse_power_bulk_rel"
    assert len(lines) == 6


# values at the edges of what a row holds: both zeros, the smallest
# subnormal, a tiny normal and the largest finite float
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308)


def _edge_result(variable: str, count: int) -> SweepResult:
    # count rows, each value of EDGE_VALUES visiting every column
    row_type, columns = _COLUMNS[variable]
    rows = tuple(row_type(*(EDGE_VALUES[(i + j) % len(EDGE_VALUES)]
                            for j in range(len(columns)))) for i in range(count))
    return SweepResult(rows=rows, sweep_variable=variable, config_hash="0" * 64,
                       constants_version="codata2018")


def _reference_csv(result: SweepResult) -> str:
    # the serializers as they were, one format(v, ".16e") per value
    columns = _COLUMNS[result.sweep_variable][1]
    lines = [",".join(header for header, _, _ in columns)]
    for row in result.rows:
        lines.append(",".join(format(getattr(row, name) / divisor, ".16e")
                              for _, name, divisor in columns))
    return "\n".join(lines) + "\n"


def _reference_json(result: SweepResult) -> str:
    columns = _COLUMNS[result.sweep_variable][1]
    lines = ["{",
             f'  "config_hash": {json.dumps(result.config_hash)},',
             f'  "constants_version": {json.dumps(result.constants_version)},',
             f'  "sweep_variable": {json.dumps(result.sweep_variable)},',
             '  "rows": [']
    last = len(result.rows) - 1
    for i, row in enumerate(result.rows):
        body = ", ".join(f'"{name}": {format(getattr(row, name), ".16e")}'
                         for _, name, _ in columns)
        lines.append("    {" + body + "}" + ("," if i < last else ""))
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


def test_columns_follow_the_row_field_order():
    # the serializers and parse_json_text pass row fields by position
    for row_type, columns in _COLUMNS.values():
        assert [name for _, name, _ in columns] == \
            [field.name for field in dataclasses.fields(row_type)]


@pytest.mark.parametrize("variable", ["field", "omega2"])
@pytest.mark.parametrize("count", [0, 1, 2 * len(EDGE_VALUES)])
def test_serializers_match_per_value_formatting_at_the_float_edges(variable, count):
    result = _edge_result(variable, count)
    csv_text, json_text = result_to_csv_text(result), result_to_json_text(result)
    assert csv_text == _reference_csv(result)
    assert json_text == _reference_json(result)
    parsed = parse_json_text(json_text)
    assert parsed == result
    # == takes -0.0 for 0.0; the bytes keep the sign
    assert result_to_json_text(parsed) == json_text


# each row type and the label its check messages carry
ROW_LABELS = [(RateReport, "report field"), (SpectralRow, "spectral row field")]


@pytest.mark.parametrize("row_type, label", ROW_LABELS)
@pytest.mark.parametrize("bad, rule", [(math.nan, "must be finite, got nan"),
                                       (math.inf, "must be finite, got inf"),
                                       (-math.inf, "must be finite, got -inf"),
                                       (-1.0, "must be >= 0.0, got -1.0")])
def test_row_check_names_the_first_bad_field(row_type, label, bad, rule):
    names = [field.name for field in dataclasses.fields(row_type)]
    for i, name in enumerate(names):
        values = [1.0] * len(names)
        values[i] = bad
        with pytest.raises(ValueError) as err:
            row_type(*values)
        assert str(err.value) == f"{label} {name} {rule}"
        # a second bad field later on: the first is still the one named
        for j in range(i + 1, len(names)):
            both = list(values)
            both[j] = math.nan
            with pytest.raises(ValueError) as err:
                row_type(*both)
            assert str(err.value) == f"{label} {name} {rule}"


@pytest.mark.parametrize("row_type", [row_type for row_type, _ in ROW_LABELS])
def test_row_check_accepts_signed_zero_subnormals_and_an_overflowing_sum(row_type):
    names = [field.name for field in dataclasses.fields(row_type)]
    width = len(names)
    for value in (-0.0, 5e-324):
        for i in range(width):
            values = [1.0] * width
            values[i] = value
            assert getattr(row_type(*values), names[i]) == value
    # two 1e308 fields sum to inf, yet each field is finite
    values = [1.0] * width
    values[0] = values[-1] = 1e308
    assert math.isinf(sum(values))
    row_type(*values)


def test_write_output_errors(tmp_path):
    result = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    with pytest.raises(OutputError, match="no/such/dir"):
        write_output(result, "csv", tmp_path / "no" / "such" / "dir" / "x.csv")
    with pytest.raises(ValueError, match="format"):
        write_output(result, "tsv", tmp_path / "x.tsv")


def test_config_hash_traceability(tmp_path):
    cfg = config_from_dict(copy.deepcopy(FIVE_POINT))
    result = run_sweep(cfg)
    assert result.config_hash == cfg.config_hash
    assert len(result.config_hash) == 64
    again = config_from_dict(copy.deepcopy(FIVE_POINT))
    assert again.config_hash == cfg.config_hash
