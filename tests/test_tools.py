"""The repository tools: tools/outputs.py writes the canonical outputs and
diffs two sets of them, tools/loc.py counts the config keys and CLI flags
the package defines, the benchmark's tracer finds a span for every
layer it times on the figure sweeps and its traced run of the sweep
workload yields every per-layer metric, and the benchmark's README config
still fails with the error it documents. The benchmark tests read bench/
and change nothing in it."""

import argparse
import csv
import importlib.util
import io
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
BENCH = ROOT / "bench"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_write_and_diff(tmp_path, capsys):
    outputs = _tool("outputs")
    written = tmp_path / "a"
    assert outputs.main(["write", str(written)]) == 0
    names = sorted(path.name for path in written.iterdir())
    assert {"fig3a.csv", "tpse-total.txt", "field-mode-d.csv",
            "field-mode-d.json"} <= set(names)
    totals = (written / "tpse-total.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in totals] == [
        "bulk", "single", "double", "single Q=1.32e+05", "double Q=1.32e+05",
        "single Q=1e+06", "double Q=1e+06"]
    capsys.readouterr()

    assert outputs.main(["diff", str(written), str(written)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: identical"
                                                    for name in names]

    # perturb one value of one column in a copy
    copy = tmp_path / "b"
    shutil.copytree(written, copy)
    path = copy / "field-mode-d.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    column = rows[0].index("gamma_opse_over_2pi_Hz")
    rows[5][column] = repr(float(rows[5][column]) * (1.0 + 1e-9))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    path.write_text(text.getvalue())

    assert outputs.main(["diff", str(written), str(copy)]) == 1
    out = capsys.readouterr().out
    assert "field-mode-d.csv: differs" in out
    assert "  gamma_opse_over_2pi_Hz: 1 of 60 rows changed, max rel 1.00e-09" in out
    assert "  omega_eff_over_2pi_Hz: 0 of 60 rows changed" in out
    assert "field-mode-d.json: identical" in out


def test_outputs_diff_reports_name_value_files_per_name(tmp_path, capsys):
    outputs = _tool("outputs")
    bulk, double = 1387.9636541734548, 22307.916374048613
    for side, value in (("a", bulk), ("b", math.nextafter(bulk, math.inf))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "tpse-total.txt").write_text(
            f"bulk = {value:.16e}\ndouble = {double:.16e}\n")
    assert outputs.main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "tpse-total.txt: differs",
        "  bulk: 1 of 1 rows changed, max rel 1.64e-16",
        "  double: 0 of 1 rows changed, max rel 0.00e+00"]


def test_loc_counts_config_keys_and_cli_flags(capsys):
    from twophoton.cli import _build_parser
    from twophoton.scenario import _KEYS

    loc = _tool("loc")
    source = ROOT / "src" / "twophoton"
    keys = sum(len(keys) for keys in _KEYS.values())
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = sum(1 for sub in subparsers.choices.values() for action in sub._actions
                if action.option_strings != ["-h", "--help"])
    assert (loc.config_keys(source / "scenario.py"), loc.cli_flags(source / "cli.py")) \
        == (keys, flags)
    assert loc.main([str(source)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [f"config keys {keys}",
                                                         f"CLI flags {flags}"]


def test_figure_sweeps_reach_every_traced_rates_cavity_and_presets_name(monkeypatch):
    # bench/tracing.per_layer takes the median of each traced function's
    # spans, and its probe reaches rates, cavity and presets only through
    # sweeps: a sweep path that stopped calling one of them would leave an
    # empty span list and stop the traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    from twophoton.scenario import reproduce_fig3a, reproduce_fig3b

    with tracing.Tracer() as tracer:
        reproduce_fig3a()
        reproduce_fig3b()
    # the probe calls tpse_total* and stark's functions itself
    expected = [f"{module}.{name}" for module in ("rates", "cavity", "presets")
                for name in tracing.TRACED[module] if not name.startswith("tpse_total")]
    assert [name for name in expected if not tracer.durations[name]] == []


def test_traced_sweep_run_gives_every_per_layer_metric(monkeypatch):
    # bench/run.py --trace 1 exits 1 on a per-layer metric it cannot compute:
    # a ZeroDivisionError when tpse_total stops calling tpse_total_fixed, an
    # empty median when a traced layer is never reached. Run its own traced()
    # over one 6-op cycle of the sweep workload, then the probe.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    seed = 1
    workload = workloads.SweepWorkload(seed)
    try:
        metrics, detail = run.traced(workload, 1e-9, seed, spec)
    finally:
        workload.close()
    assert (detail["attempted"], detail["failed"]) == (2 * workload.cycle, 0)
    assert list(metrics) == [entry["name"] for entry in spec]
    assert [name for name, entry in metrics.items()
            if not math.isfinite(entry["value"])] == []


def test_benchmark_readme_config_fails_with_its_documented_error(monkeypatch):
    # the cli workload counts the README op as a known failure only while
    # its error names README_REJECTION; a check order that reached another
    # bad key first would turn it into an unexpected failure
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    kind, code, stderr = workloads.in_process(workloads.README_CONFIG)
    assert (kind, code) == ("error", 2)
    assert workloads.README_REJECTION in stderr
