import os
import subprocess
import sys
from pathlib import Path

import pytest

import twophoton
from twophoton.cli import main
from twophoton.scenario import parse_json_text, reproduce_fig3a, result_to_csv_text


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "preset: paper-fig3\n"
        "sweep:\n  variable: field\n  min: 0.0\n  max: 2.0\n  points: 5\n")
    return str(path)


def test_sweep_to_stdout(cfg_path, capsys):
    assert main(["sweep", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("field_V_per_um,omega_eff_over_2pi_Hz,")


def test_sweep_to_file_json(cfg_path, tmp_path):
    out = tmp_path / "result.json"
    assert main(["sweep", "--config", cfg_path, "--output", str(out),
                 "--format", "json"]) == 0
    parsed = parse_json_text(out.read_text())
    assert len(parsed.rows) == 5
    assert parsed.constants_version == "codata2018"


def test_sweep_uses_config_output_block(tmp_path):
    out = tmp_path / "from_config.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "preset: paper-fig3\n"
        "sweep:\n  variable: field\n  min: 0.0\n  max: 1.0\n  points: 3\n"
        f"output:\n  path: {out}\n  format: csv\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert out.read_text().count("\n") == 4


def test_sweep_missing_config_exits_2(capsys):
    assert main(["sweep", "--config", "/definitely/not/here.yaml"]) == 2
    assert "not found" in capsys.readouterr().err


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


def test_fig3a_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    named = tmp_path / "named.csv"
    assert main(["fig3a", "--output", str(a)]) == 0
    assert main(["fig3a", "--output", str(b)]) == 0
    assert main(["fig3a", "--preset", "paper-fig3", "--output", str(named)]) == 0
    assert a.read_bytes() == b.read_bytes() == named.read_bytes()
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


def test_enhancement_rejects_bad_values(capsys):
    assert main(["enhancement", "--q1", "-5", "--q2", "5000",
                 "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "1"]) == 2
    assert "--q1" in capsys.readouterr().err


def test_unknown_preset_exits_2(capsys):
    assert main(["fig3a", "--preset", "other"]) == 2
    assert "preset" in capsys.readouterr().err


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
