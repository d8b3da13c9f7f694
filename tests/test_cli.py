import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twophoton
from twophoton.cli import _build_parser, main
from twophoton.scenario import (load_config, parse_json_text, reproduce_fig3a,
                                result_to_csv_text, run_sweep)


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "preset: paper-fig3\n"
        "sweep:\n  variable: field\n  min: 0.0\n  max: 2.0\n  points: 5\n")
    return str(path)


def test_sweep_to_stdout(cfg_path, capsys, tmp_path):
    # with neither --output nor --format: CSV to stdout, no file written
    assert main(["sweep", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("field_V_per_um,omega_eff_over_2pi_Hz,")
    assert out == result_to_csv_text(run_sweep(load_config(cfg_path)))
    assert list(tmp_path.iterdir()) == [Path(cfg_path)]


def test_sweep_json_to_stdout(cfg_path, capsys):
    assert main(["sweep", "--config", cfg_path, "--format", "json"]) == 0
    assert len(parse_json_text(capsys.readouterr().out).rows) == 5


def test_sweep_to_file_json(cfg_path, tmp_path):
    out = tmp_path / "result.json"
    assert main(["sweep", "--config", cfg_path, "--output", str(out),
                 "--format", "json"]) == 0
    parsed = parse_json_text(out.read_text())
    assert len(parsed.rows) == 5
    assert parsed.constants_version == "codata2018"


def test_sweep_rejects_config_output_block(tmp_path, capsys):
    # --output and --format are the one way to choose where a sweep goes
    out = tmp_path / "from_config.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "preset: paper-fig3\n"
        "sweep:\n  variable: field\n  min: 0.0\n  max: 1.0\n  points: 3\n"
        f"output:\n  path: {out}\n  format: csv\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "unknown key 'output' in config" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_missing_config_exits_2(capsys):
    assert main(["sweep", "--config", "/definitely/not/here.yaml"]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cfg.txt", "sweep: {points: 3}"],
                         ids=["no-yaml-suffix", "inline-yaml"])
def test_sweep_config_is_always_a_path(tmp_path, monkeypatch, capsys, name):
    # neither a missing file of any name nor YAML text is read as inline config
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", name]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config file not found: {name}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name", ["f.yaml", "f.json"])
def test_sweep_config_that_is_not_utf8_exits_2(tmp_path, capsys, name):
    # a UTF-16 byte-order mark is no UTF-8; the read error names the file
    cfg = tmp_path / name
    cfg.write_bytes(b"\xff\xfepreset: paper-fig3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff ")
    assert captured.out == ""


def test_sweep_invalid_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "preset: paper-fig3\n"
        "sweep:\n  variable: field\n  min: 0.0\n  max: 2.0\n  points: 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "sweep.points" in capsys.readouterr().err


def test_omega2_sweep_nonpositive_min_exits_2(tmp_path, capsys):
    cfg = tmp_path / "omega2.yaml"
    cfg.write_text(
        "preset: paper-fig3\n"
        "sweep:\n  variable: omega2\n  min: -1.0\n  max: 1.0e15\n  points: 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "sweep.min" in capsys.readouterr().err


@pytest.mark.parametrize("override,fragment", [
    ("drives:\n  - {}\n  - {omega_rad_per_s: 3.0e+15}\n", "drives[1].omega_rad_per_s"),
    ("dot:\n  wavelength_nm: 2400.0\n", "drives[1].omega_rad_per_s"),
    ("modes: 3\n", "modes must list"),
    ("dot:\n  wavelength_nm: 1.0e-320\n", "dot: wavelength must be > 0.0, got 0.0"),
    ("sweep:\n  max: 1.0e+308\n", "sweep.max must be finite in V/m"),
    ("sweep:\n  points: 1" + "0" * 400 + "\n",
     "sweep.points must be finite, got an integer beyond the float range"),
    ("modes:\n  - {volume_m3: 1.0e-19}\n", "unknown key 'volume_m3' in modes[0]"),
    ("drives:\n  - {}\n  - {}\n  - {coupling: 0.5}\n",
     "unknown key 'coupling' in drives[2]"),
    ("drives:\n  - {}\n  - {}\n  - {spot_area_um2: 1.0}\n",
     "drives[2].spot_area_um2 is not accepted"),
], ids=["drive-past-dot-line", "dot-line-below-drives", "modes-not-a-list",
        "dot-line-underflows", "field-sweep-max-overflows-in-v-per-m",
        "points-past-float-range", "volume-m3", "drive-coupling", "stimulation-spot"])
def test_config_error_exits_2(tmp_path, capsys, override, fragment):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("preset: paper-fig3\n" + override)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert fragment in capsys.readouterr().err


def test_sweep_runtime_error_exits_1(tmp_path, capsys):
    # drive 1 on the conduction-p resonance: singular at the first grid point
    import yaml

    from twophoton import build_experiment, preset_config

    base = preset_config("paper-fig3")
    ex = build_experiment(base)
    del base["drives"][0]["wavelength_nm"]
    base["drives"][0]["omega_rad_per_s"] = \
        ex.dot.omega_d.rad_per_s + ex.dot.omega_e.rad_per_s
    base["sweep"] = {"variable": "field", "min": 0.5, "max": 1.0, "points": 2}
    base["preset"] = None  # complete config, keep the CLI default from merging
    cfg = tmp_path / "singular.yaml"
    cfg.write_text(yaml.safe_dump(base))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "grid point 0" in err


@pytest.mark.parametrize("omega,error", [
    (1.0e160, "OverflowError"),         # the photon number's w^2 overflows
    (1.0e-300, "ZeroDivisionError"),    # its 1/w^2 divides by zero
], ids=["overflow", "zero-division"])
def test_sweep_arithmetic_error_exits_1(tmp_path, capsys, omega, error):
    import yaml

    from twophoton import preset_config

    base = preset_config("paper-fig3")
    base["drives"][0] = {"omega_rad_per_s": omega, "power_uw": 12.0, "spot_area_um2": 1.0}
    base["sweep"]["points"] = 2
    base["preset"] = None  # complete config, keep the CLI default from merging
    cfg = tmp_path / "extreme.yaml"
    cfg.write_text(yaml.safe_dump(base))
    assert main(["sweep", "--config", str(cfg)]) == 1
    # the cause's type, not the non-finite report of a row
    assert capsys.readouterr().err.startswith(
        f"error: grid point 0 (field_V_per_um = 0): {error}: ")


def test_fig3a_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["fig3a", "--output", str(a)]) == 0
    assert main(["fig3a", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == result_to_csv_text(reproduce_fig3a())


def test_fig3b_output(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["fig3b", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega2_rad_per_s,tpse_power_cavity_rel,tpse_power_bulk_rel"
    assert len(lines) == 402


def test_enhancement_output(capsys):
    assert main(["enhancement", "--q1", "5000", "--q2", "5000",
                 "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    values = dict(line.split(" = ") for line in out)
    assert float(values["F1"]) == pytest.approx(379.95443865876666, rel=1e-6)
    assert float(values["F2"]) == pytest.approx(379.95443865876666, rel=1e-6)
    assert float(values["F1F2"]) == pytest.approx(144365.37545649847, rel=1e-6)
    assert float(values["G1"]) == pytest.approx(153.15972046970325, rel=1e-6)
    assert float(values["G2"]) == pytest.approx(69.54914110437048, rel=1e-6)
    assert float(values["G1G2"]) == pytest.approx(10652.12701045333, rel=1e-6)
    # the printed digits, so a refactor that moves one shows up
    assert out == ["F1 = 3.799544e+02", "F2 = 3.799544e+02", "F1F2 = 1.443654e+05",
                   "G1 = 1.531597e+02", "G2 = 6.954914e+01", "G1G2 = 1.065213e+04"]


def test_enhancement_rejects_bad_values(capsys):
    # the config rules of modes[i] check the flags, which the message names
    for flag, value, message in (
            ("--q1", "-5", "--q1 must be > 0.0, got -5.0"),
            ("--q2", "nan", "--q2 must be finite, got nan"),
            ("--v2-cubic-wavelengths", "0", "--v2-cubic-wavelengths must be > 0.0, got 0.0")):
        flags = {"--q1": "5000", "--q2": "5000",
                 "--v1-cubic-wavelengths": "1", "--v2-cubic-wavelengths": "1", flag: value}
        assert main(["enhancement", *(item for pair in flags.items() for item in pair)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_enhancement_overflowing_quality_exits_2(capsys):
    # F1 itself is finite (the Lorentzian never squares Q); F1 F2 is not
    assert main(["enhancement", "--q1", "1e308", "--q2", "5000",
                 "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: F1F2 = inf is not finite; it is set by --q1, "
            "--v1-cubic-wavelengths, --q2 and --v2-cubic-wavelengths\n")


def test_enhancement_of_a_quality_whose_square_overflows(capsys):
    # Q^2 = 1e400 is past the float range; F1, linear in Q, is not
    assert main(["enhancement", "--q1", "1e200", "--q2", "5000",
                 "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "1"]) == 0
    assert "F1 = 7.599089e+198\n" in capsys.readouterr().out


@pytest.mark.parametrize("q1,q2,v1,v2,message", [
    # F1 overflows: a huge Q (its square still finite) in a tiny volume
    ("1e150", "5000", "1e-160", "1",
     "error: F1 = inf is not finite; it is set by --q1 and --v1-cubic-wavelengths\n"),
    # each factor is finite, their product is not
    ("1e150", "1e150", "1e-10", "1e-10",
     "error: F1F2 = inf is not finite; it is set by --q1, --v1-cubic-wavelengths, "
     "--q2 and --v2-cubic-wavelengths\n"),
    # each factor is positive, their product underflows to zero
    ("1", "1", "1e300", "1e300",
     "error: F1F2 = 0.0 is not positive; it is set by --q1, --v1-cubic-wavelengths, "
     "--q2 and --v2-cubic-wavelengths\n"),
], ids=["F1", "F1F2", "F1F2-underflow"])
def test_enhancement_nonfinite_value_names_its_flags(capsys, q1, q2, v1, v2, message):
    assert main(["enhancement", "--q1", q1, "--q2", q2,
                 "--v1-cubic-wavelengths", v1, "--v2-cubic-wavelengths", v2]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message


@pytest.mark.parametrize("i", [1, 2])
def test_enhancement_volume_that_underflows_names_its_flag(capsys, i):
    # 1e-320 (lambda/n)^3 is 0 m^3; the user wrote the flag, not modes[i - 1]
    volumes = {1: "1", 2: "1"}
    volumes[i] = "1e-320"
    assert main(["enhancement", "--q1", "5000", "--q2", "5000",
                 "--v1-cubic-wavelengths", volumes[1],
                 "--v2-cubic-wavelengths", volumes[2]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --v{i}-cubic-wavelengths: mode volume must be "
                   f"> 0.0, got 0.0\n")


def test_json_config_file_sweeps(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"preset": "paper-fig3", "sweep": {"variable": "field", '
                   '"min": 1e-05, "max": 2.0, "points": 3, "log": true}}')
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == pytest.approx(1e-05, rel=1e-15)


def test_json_integer_past_float_range_exits_2(tmp_path, capsys):
    # json.loads makes an int of any size; math.isfinite cannot take it
    cfg = tmp_path / "c.json"
    cfg.write_text('{"preset": "paper-fig3", "dot": {"refractive_index": 1%s}}'
                   % ("0" * 400))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: dot.refractive_index must be finite, got an integer beyond the "
        "float range\n")


def test_malformed_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"preset": ')
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: ")


def test_unknown_preset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "other.yaml"
    cfg.write_text("preset: other\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "preset" in capsys.readouterr().err


def test_readme_cli_flags_match_the_parser():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for block in re.findall(r"^```\n(.*?)^```$", section, re.M | re.S):
        command = block.split()[1]
        documented[command] = set(re.findall(r"--[\w-]+", block))
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {flag for action in sub._actions for flag in action.option_strings}
              - {"-h", "--help"} for name, sub in subparsers.choices.items()}
    assert documented == parsed


def test_module_entry_point():
    # the child imports the same package this process does, installed or not
    src = str(Path(twophoton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "twophoton.cli", "enhancement",
         "--q1", "100", "--q2", "100",
         "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert "F1F2" in result.stdout
