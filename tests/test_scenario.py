"""Config loading, validation completeness, sweep execution and
deterministic serialization."""

import copy
import math

import numpy as np
import pytest

from twophoton.presets import preset_config
from twophoton.scenario import (
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
    for entry in r["drives"]:
        assert entry["spot_area_um2"] == 1.0
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


def test_load_config_file_and_inline(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("preset: paper-fig3\n")
    from_file = load_config(path)
    from_text = load_config("preset: paper-fig3")
    assert from_file.config_hash == from_text.config_hash


def test_load_config_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))
    with pytest.raises(ConfigError, match="YAML"):
        load_config("sweep: [unclosed\n")


def test_empty_config_rejected(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(path)


def test_default_preset_applies_only_without_explicit_one():
    cfg = config_from_dict(copy.deepcopy(FIVE_POINT["sweep"] and
                                         {"sweep": FIVE_POINT["sweep"]}),
                           default_preset="paper-fig3")
    assert cfg.sweep_points == 5
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
    (("modes", 0, "volume_m3"), 1e-19, "exactly one of volume_cubic_wavelengths"),
    (("modes", 0, "surprise"), 1.0, "unknown key 'surprise' in modes[0]"),
    (("drives", 0, "power_uw"), -1.0, "drives[0].power_uw"),
    (("drives", 1, "spot_area_um2"), 0.0, "drives[1].spot_area_um2"),
    (("drives", 0, "spot_area_um2"), _DELETE, "drives[0].spot_area_um2"),
    (("drives", 1, "spot_area_um2"), _DELETE, "drives[1].spot_area_um2"),
    (("drives", 2, "coupling"), 2.0, "drives[2].coupling"),
    (("drives", 0, "wavelength_nm"), _DELETE, "exactly one of wavelength_nm"),
    (("drives", 0, "oops"), 1.0, "unknown key 'oops' in drives[0]"),
    (("sweep", "variable"), "power", "sweep.variable"),
    (("sweep", "variable"), _DELETE, "sweep.variable"),
    (("sweep", "min"), -0.5, "sweep.min"),
    (("sweep", "max"), _DELETE, "sweep.max"),
    (("sweep", "points"), 1, "sweep.points"),
    (("sweep", "points"), 2.5, "sweep.points"),
    (("sweep", "points"), MAX_SWEEP_POINTS + 1, "sweep.points"),
    (("sweep", "log"), "yes", "sweep.log"),
    (("sweep", "field_v_per_um"), 0.75, "field_v_per_um"),
    (("sweep", "stride"), 3, "unknown key 'stride' in sweep"),
    (("bogus",), 1.0, "unknown key 'bogus' in config"),
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
    cfg["linewidth"] = {"gamma_d_rad_per_s": 0.0}
    with pytest.raises(ConfigError, match="gamma_d_rad_per_s"):
        config_from_dict(cfg)
    cfg["linewidth"] = {"gamma_d_rad_per_s": 1e9, "units": "Hz"}
    with pytest.raises(ConfigError, match="unknown key 'units'"):
        config_from_dict(cfg)
    cfg = preset_config("paper-fig3")
    cfg["output"] = {"format": "xml"}
    with pytest.raises(ConfigError, match="output.format"):
        config_from_dict(cfg)
    cfg["output"] = {"path": ""}
    with pytest.raises(ConfigError, match="output.path"):
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
    assert grid_cfg.sweep_log is True


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
    assert result.timestamp != ""


def test_sweep_determinism():
    a = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    b = run_sweep(config_from_dict(copy.deepcopy(FIVE_POINT)))
    assert a == b                      # timestamp excluded from equality
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


def test_omega2_sweep_needs_no_spot_area():
    # only the field sweep's G1*G2 column uses the bulk beams
    cfg = preset_config("paper-fig3")
    for drive in cfg["drives"]:
        del drive["spot_area_um2"]
    center = cfg["modes"][1]["omega_rad_per_s"]
    cfg["sweep"] = {"variable": "omega2", "min": center - 1e11,
                    "max": center + 1e11, "points": 3}
    assert len(run_sweep(config_from_dict(cfg)).rows) == 3


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


def test_fig3a_shape():
    result = reproduce_fig3a()
    assert len(result.rows) == 200
    assert result.sweep_variable == "field"
    assert result.rows[0].field_strength == 0.0
    assert result.rows[-1].field_strength == pytest.approx(2e6, rel=1e-15)
    for row in result.rows:
        for name in row._FIELDS:
            value = getattr(row, name)
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
    assert result.timestamp != ""
    assert result.timestamp not in result_to_json_text(result)
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
