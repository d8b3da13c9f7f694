"""Spans and counts for the traced benchmark run.

The tracer rebinds public functions of twophoton's modules to timing
wrappers, in every twophoton module that holds them (scenario calls
rates.evaluate_point through its own imported name, for instance), and
puts the originals back afterwards. The package source is not edited.
Each span records its duration, its self time (duration minus the time of
the spans it caused) and the span that caused it.

Layers the workload under test does not reach are covered by `probe`, a
fixed pass over every layer, so that each per-layer metric has a value on
every workload. rates reaches stark through a private alias, so stark's
functions are timed by direct calls at the sweep's grid points.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
import yaml

import workloads
from common import WORK, child_env
from twophoton import cli, rates, stark

TRACED = {
    "scenario": ("load_config", "config_from_dict", "run_sweep", "result_to_csv_text",
                 "result_to_json_text", "parse_json_text"),
    "presets": ("build_experiment",),
    "rates": ("evaluate_point", "effective_rabi", "tpste_rate", "opse_rate",
              "tpse_spectral_density_cavity", "tpse_spectral_density_bulk",
              "tpse_total", "tpse_total_fixed"),
    "stark": ("m12", "dipole_product_sp"),
    "cavity": ("purcell_factor", "lorentzian_mismatch"),
}
IMPORTED = ("twophoton", "numpy", "yaml")


class Tracer:
    """Holds spans in memory while installed; `paused` stops recording, so
    the benchmark's own input generation and checks leave no spans."""

    def __init__(self):
        self.stack = []                # [name, child seconds] per open span
        self.durations = defaultdict(lambda: array("d"))
        self.self_times = defaultdict(lambda: array("d"))
        self.parents = defaultdict(Counter)
        self.counts = Counter()        # quadrature and serialization counters
        self.last_grid = 0             # evaluations of the latest fixed grid
        self.paused = False
        self._restore = []

    def _record(self, name: str, elapsed: float, child: float) -> None:
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += elapsed
        self.durations[name].append(elapsed)
        self.self_times[name].append(elapsed - child)
        self.parents[name][parent[0] if parent else None] += 1

    def wrap(self, name: str, fn):
        stack, record = self.stack, self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record(name, elapsed, frame[1])
        return traced

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            self._record(name, elapsed, frame[1])

    def _counted(self, name: str, fn):
        if name == "tpse_total_fixed":
            def counted(model, field, environment, intervals, *args, **kwargs):
                if not self.paused:
                    # the trapezoid's end points are zero and never evaluated
                    self.last_grid = intervals - 1
                    self.counts["evals"] += intervals - 1
                return fn(model, field, environment, intervals, *args, **kwargs)
        elif name == "tpse_total":
            def counted(*args, **kwargs):
                try:
                    value = fn(*args, **kwargs)
                except rates.QuadratureError:
                    if not self.paused:
                        self.counts["failed"] += 1
                    raise
                if not self.paused:
                    self.counts["useful"] += self.last_grid
                return value
        elif name == "run_sweep":
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not self.paused:
                    self.counts["sweep_rows"] += len(result.rows)
                return result
        elif name in ("result_to_csv_text", "result_to_json_text"):
            def counted(*args, **kwargs):
                text = fn(*args, **kwargs)
                if not self.paused:
                    self.counts["output_bytes"] += len(text)
                return text
        else:
            return fn
        return functools.wraps(fn)(counted)

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "twophoton" or name.startswith("twophoton.")]
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"twophoton.{module_name}")
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{module_name}.{name}", self._counted(name, original))
                for holder in modules:
                    if getattr(holder, name, None) is original:
                        self._restore.append((holder, name, original))
                        setattr(holder, name, wrapper)
        return self

    def __exit__(self, *exc_info):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def spans(self) -> dict:
        """Per span name: count, total, median and median self time (s),
        and which spans caused it."""
        return {name: {"count": len(d), "total_s": sum(d),
                       "median_s": statistics.median(d),
                       "self_median_s": statistics.median(self.self_times[name]),
                       "parents": dict(self.parents[name])}
                for name, d in sorted(self.durations.items())}


def import_times(repeats: int = 3) -> dict:
    """Median cumulative import time (ms) of twophoton and the two packages
    it loads, from `python -X importtime -c "import twophoton"`."""
    samples = defaultdict(list)
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import twophoton"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        seen = set()
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTED:
                module = parts[2].strip()
                if module not in seen:
                    seen.add(module)
                    samples[module].append(int(parts[1]) / 1000.0)
    return {module: statistics.median(values) for module, values in samples.items()}


def _cli_main(tracer: Tracer, seed: int, repeats: int = 3) -> None:
    """cli.main in process for each subcommand; inner spans are paused so
    the scenario metrics describe the workload's own calls."""
    WORK.mkdir(exist_ok=True)
    config = WORK / f"probe-{seed}.yaml"
    doc = workloads.seeded_config(np.random.default_rng([seed, 0]), "field-linear", 300)
    config.write_text(yaml.safe_dump(doc))
    output = WORK / f"probe-{seed}.csv"
    commands = {
        "fig3a": ["fig3a", "--output", str(output)],
        "fig3b": ["fig3b", "--output", str(output)],
        "sweep": ["sweep", "--config", str(config), "--output", str(output)],
        "enhancement": ["enhancement", "--q1", "5000", "--q2", "5000",
                        "--v1-cubic-wavelengths", "1", "--v2-cubic-wavelengths", "1"],
    }
    try:
        for sub, argv in commands.items():
            for _ in range(repeats):
                with tracer.span(f"cli.main.{sub}"), tracer.pause(), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"twophoton {sub} exited {code}")
    finally:
        config.unlink(missing_ok=True)
        output.unlink(missing_ok=True)


def _stark_direct(ex, seed: int) -> None:
    """stark.m12 and stark.dipole_product_sp at a seeded field grid of the
    preset, through the (rebound) module attributes."""
    w1, w2 = ex.drive1.omega, ex.drive2.omega
    rng = np.random.default_rng([seed, 1])
    for volts_per_um in np.linspace(0.0, float(rng.uniform(1.5, 2.5)), 500):
        field = stark.LateralField(float(volts_per_um) * 1e6)
        stark.m12(w1, w2, field, ex.dot)
        stark.dipole_product_sp(field, ex.dot)


def canonical_tpse_evals(tracer: Tracer, ex) -> int:
    """Integrand evaluations tpse_total spends on the double-mode total of
    the preset (Q = 5000) at 0.75 V/um: the count a better quadrature cuts."""
    before = tracer.counts["evals"]
    rates.tpse_total(ex.dot, stark.LateralField(0.75e6), "double",
                     mode1=ex.mode1, mode2=ex.mode2)
    return tracer.counts["evals"] - before


def probe(tracer: Tracer, workload: str, seed: int) -> dict:
    """Cover every layer once; returns the values that are not span
    medians. Runs with the tracer installed."""
    extra = {f"import.{module}_ms": ms for module, ms in import_times().items()}
    with tracer.pause():
        preset, high_q = (workloads.preset_experiment(q) for q in (5000.0, 1.32e5))
    _cli_main(tracer, seed)
    _stark_direct(preset, seed)
    if workload != "sweep":
        sweep = workloads.SweepWorkload(seed)
        for i in range(2):    # one field and one omega2 op
            with tracer.pause():
                inp = sweep.prepare(i)
            sweep.execute(inp)
    extra["rates.tpse_total.integrand_evals"] = canonical_tpse_evals(tracer, preset)
    if workload != "tpse-total":
        try:
            rates.tpse_total(high_q.dot, stark.LateralField(0.75e6), "double",
                             mode1=high_q.mode1, mode2=high_q.mode2)
        except rates.QuadratureError:
            pass        # the documented failure; the tracer counts it
    return extra


def per_layer(tracer: Tracer, extra: dict, spec: list) -> dict:
    """Every per-layer metric BENCHMARK.json names, from spans, counters
    and `extra`. Counts are per op (per sweep row, per tpse_total call), so
    they do not grow with the number of ops that fit in the run. Other names
    map onto spans by suffix: `.self_ms`/`.self_us` take the median self
    time, `_ms`/`_us` the median duration."""
    counts, durations = tracer.counts, tracer.durations
    fixed, totals = durations["rates.tpse_total_fixed"], durations["rates.tpse_total"]
    derived = {
        "scenario.output_bytes": counts["output_bytes"] / len(durations["scenario.run_sweep"]),
        "rates.evaluate_point.calls_per_row":
            len(durations["rates.evaluate_point"]) / counts["sweep_rows"],
        "rates.tpse_total_fixed.calls_per_total": len(fixed) / len(totals),
        "rates.tpse_total.useful_ratio": counts["useful"] / counts["evals"],
        "rates.tpse_total_fixed.ns_per_eval": sum(fixed) / counts["evals"] * 1e9,
        "rates.tpse_total.failed_fraction": counts["failed"] / len(totals),
        **extra,
    }
    scale = {"ms": 1e3, "us": 1e6}
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in derived:
            value = derived[name]
        elif name.endswith((".self_ms", ".self_us")):
            span = name.rsplit(".", 1)[0]
            value = statistics.median(tracer.self_times[span]) * scale[name[-2:]]
        else:
            span = name[:-3]
            value = statistics.median(durations[span]) * scale[name[-2:]]
        metrics[name] = {"value": value, "unit": unit}
    return metrics
