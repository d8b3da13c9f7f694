"""Reproduce the ROADMAP item-1 baseline table, untraced.

    python3 bench/baseline.py

Times each measurement of the table, and the process and layer timings the
item also asks for, as min and median over repeats. Prints one line per
row, then the rows as one JSON list on the last line. Each row carries the
ROADMAP figure (a range as "lo-hi"), the ratio of the median to it, and a
note where the two measure different things.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

from common import SRC, WORK, child_env, pin_threads, require_source

# (measurement, ROADMAP figure, unit, note on what differs)
ROADMAP = {
    "fig3a, in process": ("14", "ms", "reproduce_fig3a() also validates the config "
                          "and builds the experiment; see the run_sweep-only row"),
    "fig3a run_sweep only": ("14", "ms", "config built beforehand"),
    "fig3b, in process": ("18-20", "ms", "reproduce_fig3b(), config build included"),
    "evaluate_point": ("61", "us", ""),
    "tpste_rate": ("19", "us", ""),
    "cavity density": ("20", "us", "tpse_spectral_density_cavity at the drive-2 frequency"),
    "tpse_total double at Q=5000": ("24-30", "ms", ""),
    "CSV write": ("2", "ms", "result_to_csv_text of the fig3a result"),
    "JSON write": ("-", "ms", "result_to_json_text of the fig3a result"),
    "config_from_dict": ("-", "ms", "paper-fig3 preset"),
    "build_experiment": ("-", "ms", "paper-fig3 preset"),
    "import twophoton": ("150-200", "ms", "-X importtime cumulative"),
    "import numpy": ("-", "ms", "-X importtime cumulative, inside import twophoton"),
    "import yaml": ("-", "ms", "-X importtime cumulative, inside import twophoton"),
    "process: python -c pass": ("-", "ms", "interpreter start-up alone"),
    "process: twophoton fig3a": ("~200", "ms", "ROADMAP: a CLI run takes about 200 ms"),
    "process: twophoton fig3b": ("~200", "ms", ""),
    "process: twophoton sweep --config preset": ("~200", "ms", "config naming only the preset"),
}


def per_call(fn, repeats: int, number: int, scale: float) -> list[float]:
    fn()    # warm caches and lazy imports
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - start) / number * scale)
    return samples


def process(argv: list[str], repeats: int = 7) -> list[float]:
    env = child_env()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
        samples.append((perf_counter() - start) * 1e3)
    return samples


def _mid(figure: str) -> float | None:
    digits = figure.lstrip("~")
    if digits == "-":
        return None
    low, _, high = digits.partition("-")
    return (float(low) + float(high or low)) / 2.0


def main() -> int:
    require_source()
    pin_threads()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from twophoton import presets, rates, scenario, stark

    ex = workloads.preset_experiment(5000.0)
    field = stark.LateralField(0.75e6)
    fig3a_config = scenario.config_from_dict({"preset": "paper-fig3"})
    fig3a = scenario.reproduce_fig3a()
    preset = presets.preset_config("paper-fig3")
    WORK.mkdir(exist_ok=True)
    config_path = WORK / "baseline-preset.yaml"
    config_path.write_text("preset: paper-fig3\n")

    cli = [sys.executable, "-m", "twophoton.cli"]
    imports = [tracing.import_times(repeats=1) for _ in range(7)]
    samples = {
        "fig3a, in process": per_call(scenario.reproduce_fig3a, 7, 3, 1e3),
        "fig3a run_sweep only": per_call(lambda: scenario.run_sweep(fig3a_config), 7, 3, 1e3),
        "fig3b, in process": per_call(scenario.reproduce_fig3b, 7, 3, 1e3),
        "evaluate_point": per_call(lambda: rates.evaluate_point(0.75e6, ex), 7, 300, 1e6),
        "tpste_rate": per_call(lambda: rates.tpste_rate(ex.dot, field, ex.mode1, ex.mode2,
                                                        ex.stim_drive2), 7, 300, 1e6),
        "cavity density": per_call(lambda: rates.tpse_spectral_density_cavity(
            ex.drive2.omega, ex.dot, field, ex.mode1, ex.mode2), 7, 300, 1e6),
        "tpse_total double at Q=5000": per_call(lambda: rates.tpse_total(
            ex.dot, field, "double", mode1=ex.mode1, mode2=ex.mode2), 7, 1, 1e3),
        "CSV write": per_call(lambda: scenario.result_to_csv_text(fig3a), 7, 10, 1e3),
        "JSON write": per_call(lambda: scenario.result_to_json_text(fig3a), 7, 10, 1e3),
        "config_from_dict": per_call(lambda: scenario.config_from_dict({"preset": "paper-fig3"}),
                                     7, 100, 1e3),
        "build_experiment": per_call(lambda: presets.build_experiment(preset), 7, 100, 1e3),
        "import twophoton": [row["twophoton"] for row in imports],
        "import numpy": [row["numpy"] for row in imports],
        "import yaml": [row["yaml"] for row in imports],
        "process: python -c pass": process([sys.executable, "-c", "pass"]),
        "process: twophoton fig3a": process(cli + ["fig3a"]),
        "process: twophoton fig3b": process(cli + ["fig3b"]),
        "process: twophoton sweep --config preset": process(
            cli + ["sweep", "--config", str(config_path)]),
    }
    config_path.unlink()

    rows = []
    for name, values in samples.items():
        figure, unit, note = ROADMAP[name]
        median = statistics.median(values)
        mid = _mid(figure)
        rows.append({"measurement": name, "roadmap": f"{figure} {unit}", "unit": unit,
                     "min": min(values), "median": median,
                     "ratio_to_roadmap": None if mid is None else median / mid,
                     "note": note})
        ratio = "" if mid is None else f"{median / mid:5.2f}x"
        print(f"{name:42s} roadmap {figure:>8s} {unit:3s} min {min(values):9.4g} "
              f"median {median:9.4g} {ratio:6s} {note}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
