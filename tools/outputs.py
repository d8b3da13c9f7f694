"""Write the canonical twophoton outputs, or compare two sets of them.

    python3 tools/outputs.py write DIR
    python3 tools/outputs.py diff A B

`write` runs the CLI in process and writes into DIR: fig3a.csv,
fig3b.csv, enhancement.txt, and a log field sweep and a log omega2 sweep
of the paper-fig3 preset, each as .csv and .json, plus the log field
sweep with a third mode at the dot line (field-mode-d). It also writes
tpse-total.txt: the preset's bulk, single and double tpse_total at
0.75 V/um, and its single and double totals with both modes at Q = 1.32e5
(the c02 gate's Q) and at Q = 1e6, to 17 significant digits. It uses
the twophoton package found on sys.path (set PYTHONPATH to pick a
checkout's src/) and prints the package path it used to stderr.

`diff` prints `identical` for each file whose bytes match. For each file
that differs it prints, per CSV column (per row key for JSON, per name
for the `name = value` lines of a .txt file), how many rows changed and
the largest relative change. Exits 1 if any file differs or exists on
one side only. Standard library only.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ENHANCEMENT = ["enhancement", "--q1", "5000", "--q2", "12000",
               "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "0.7"]
# log field grid over 0.01-2 V/um
FIELD_LOG = {"variable": "field", "min": 0.01, "max": 2.0, "points": 60, "log": True}
# a third mode at the preset's 926 nm dot line, which Purcell-scales OPSE
MODE_D = {"wavelength_nm": 926.0, "quality": 5000.0, "volume_cubic_wavelengths": 1.0}
# config overrides on the paper-fig3 preset, by output name; the log omega2
# grid spans +-4 mode-2 linewidths around 8.189e14 rad/s
SWEEPS = {
    "field-log": {"sweep": FIELD_LOG},
    "omega2-log": {"sweep": {"variable": "omega2", "min": 8.18266e14,
                             "max": 8.19577e14, "points": 81, "log": True}},
    "field-mode-d": {"modes": [{}, {}, MODE_D], "sweep": FIELD_LOG},
}
# Q of both modes for the extra single and double totals in tpse-total.txt
TOTAL_QUALITIES = (1.32e5, 1e6)


def _cli_output(argv: list[str]) -> str:
    from twophoton import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"twophoton {' '.join(argv[:1])} exited {code}")
    return out.getvalue()


def _tpse_totals() -> str:
    from twophoton import LateralField, build_experiment, preset_config, tpse_total

    ex = build_experiment(preset_config("paper-fig3"))
    field = LateralField(0.75e6)
    totals = {env: tpse_total(ex.dot, field, env, ex.mode1, ex.mode2)
              for env in ("bulk", "single", "double")}
    for quality in TOTAL_QUALITIES:
        mode1, mode2 = (replace(mode, quality=quality) for mode in (ex.mode1, ex.mode2))
        for env in ("single", "double"):
            totals[f"{env} Q={quality:.3g}"] = tpse_total(ex.dot, field, env, mode1, mode2)
    return "".join(f"{name} = {value:.16e}\n" for name, value in totals.items())


def write(directory: Path) -> int:
    import twophoton

    print(f"twophoton from {Path(twophoton.__file__).parent}", file=sys.stderr)
    directory.mkdir(parents=True, exist_ok=True)
    outputs = {"fig3a.csv": ["fig3a"], "fig3b.csv": ["fig3b"],
               "enhancement.txt": ENHANCEMENT}
    with tempfile.TemporaryDirectory() as configs:
        # --config takes a file path; a .json one is read as JSON
        for name, overrides in SWEEPS.items():
            config = Path(configs) / f"{name}.json"
            config.write_text(json.dumps({"preset": "paper-fig3", **overrides}))
            for fmt in ("csv", "json"):
                outputs[f"{name}.{fmt}"] = ["sweep", "--config", str(config),
                                            "--format", fmt]
        texts = {name: _cli_output(argv) for name, argv in outputs.items()}
    texts["tpse-total.txt"] = _tpse_totals()
    for name, text in texts.items():
        (directory / name).write_text(text)
        print(f"wrote {directory / name}")
    return 0


def _table(path: Path) -> dict[str, list[float]]:
    """Numeric columns of an output, by CSV header or JSON row key; the
    `name = value` lines of a .txt file are one row, a column per name."""
    text = path.read_text()
    if path.suffix == ".json":
        rows = json.loads(text)["rows"]
    elif path.suffix == ".txt":
        rows = [dict(line.split(" = ", 1) for line in text.splitlines())]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    return {key: [float(row[key]) for row in rows] for key in (rows[0] if rows else ())}


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _report(a: Path, b: Path) -> list[str]:
    old, new = _table(a), _table(b)
    if list(old) != list(new):
        return [f"  columns differ: {list(old)} vs {list(new)}"]
    lines = []
    for key, values in old.items():
        if len(values) != len(new[key]):
            return [f"  row count differs: {len(values)} vs {len(new[key])}"]
        changed = [_relative(x, y) for x, y in zip(values, new[key]) if x != y]
        lines.append(f"  {key}: {len(changed)} of {len(values)} rows changed, "
                     f"max rel {max(changed, default=0.0):.2e}")
    return lines


def diff(a: Path, b: Path) -> int:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    differs = False
    for name in names:
        left, right = a / name, b / name
        if not (left.exists() and right.exists()):
            print(f"{name}: only in {a if left.exists() else b}")
            differs = True
        elif left.read_bytes() == right.read_bytes():
            print(f"{name}: identical")
        else:
            print(f"{name}: differs")
            print("\n".join(_report(left, right)))
            differs = True
    return 1 if differs else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        return write(Path(argv[1]))
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
