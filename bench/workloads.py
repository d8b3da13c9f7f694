"""The three benchmark workloads: inputs made from a seed, the timed call
into twophoton, and the check of every output.

Each workload is a closed loop with one client. An op is prepared (inputs
generated, untimed), executed (timed: only calls into twophoton, or one
child process for `cli`) and checked (untimed). Ops repeat in cycles of
`cycle` kinds, and a run ends on a cycle boundary, so every run has the
same mix of op kinds.

Outcomes are three-way. `ok` ops produced output that passed every check.
`known` ops raised a documented defect of the program (named in the
result, counted against ok_fraction, never dropped). Anything else is an
unexpected failure: an exception nobody documented, or a wrong output.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from common import BENCH, SRC, WORK, child_env
from twophoton import cavity, presets, quantities, rates, scenario, stark

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REFERENCE_CSV = BENCH / "reference" / "fig3a.csv"
README_CONFIG = BENCH / "inputs" / "readme_config.yaml"
# the documented rejection of the README's schema example (ROADMAP item 4)
README_REJECTION = "modes[1].omega_rad_per_s must be a number"

# tpse_total("bulk") divided by dipole_product_sp(field)**2 for the
# paper-fig3 dot. The bulk density is M12^2 times field-free factors and
# M12 is linear in dipole_product_sp, so the ratio is field-independent;
# 2e-3 is the accuracy the quadrature tests accept for the bulk total.
BULK_TOTAL_PER_PRODUCT_SQ = 7.231161651913671e+113
BULK_REL_TOL = 2e-3
# the double-mode total against the Lorentzian-width estimate, as pinned
# by the rates tests; the single-mode estimate has the same form
LORENTZ_REL_TOL = 0.05


class Outcome(NamedTuple):
    rows: int                 # output rows produced
    ok: bool                  # produced output and it passed every check
    known: str | None = None  # name of the documented defect it hit
    error: str | None = None  # what went wrong, for an unexpected failure


def _error(exc: BaseException) -> Outcome:
    return Outcome(0, False, error=f"{type(exc).__name__}: {exc}")


def _log_uniform(rng, low: float, high: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))


def seeded_config(rng, kind: str, points: int) -> dict:
    """paper-fig3 with seed-drawn Q, volumes, powers and sweep. `kind` is
    field-linear, field-log or omega2 (across the mode-2 resonance)."""
    base = presets.preset_config("paper-fig3")
    q = [_log_uniform(rng, 1e3, 3e4) for _ in range(2)]
    doc = {
        "preset": "paper-fig3",
        "modes": [{"quality": q[i], "volume_cubic_wavelengths": float(rng.uniform(0.5, 3.0))}
                  for i in range(2)],
        "drives": [{"power_uw": float(rng.uniform(1.0, 50.0))},
                   {"power_uw": float(rng.uniform(1.0, 50.0))},
                   {"power_uw": float(rng.uniform(10.0, 500.0))}],
    }
    if kind == "field-linear":
        doc["sweep"] = {"variable": "field", "min": float(rng.uniform(0.0, 0.2)),
                        "max": float(rng.uniform(1.5, 2.5)), "points": points}
    elif kind == "field-log":
        doc["sweep"] = {"variable": "field", "min": _log_uniform(rng, 1e-3, 1e-2),
                        "max": float(rng.uniform(1.5, 2.5)), "points": points,
                        "log": True}
    else:
        center = base["modes"][1]["omega_rad_per_s"]
        width = center / q[1]
        doc["sweep"] = {"variable": "omega2",
                        "min": center - float(rng.uniform(2.0, 6.0)) * width,
                        "max": center + float(rng.uniform(2.0, 6.0)) * width,
                        "points": points,
                        "field_v_per_um": float(rng.uniform(0.1, 2.0))}
    return doc


def purcell_product(experiment) -> float:
    """F1*F2 at the drive frequencies, from cavity.purcell_factor."""
    host = experiment.dot.host
    w2 = experiment.drive2.omega
    w1 = quantities.AngularFrequency(experiment.dot.omega_d.rad_per_s - w2.rad_per_s)
    product = 1.0
    for omega, mode in ((w1, experiment.mode1), (w2, experiment.mode2)):
        product *= cavity.purcell_factor(
            quantities.angular_frequency_to_wavelength(omega), host, mode, omega)
    return product


def _csv_floats(line: str) -> list[float]:
    return [float(v) for v in line.split(",")]


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# --- sweep ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepInput:
    kind: str
    text: str
    points: int
    stride: int = 0     # reference ops: rows between fig3a grid points


class SweepWorkload:
    """load_config -> run_sweep -> CSV -> JSON -> parse, 1800 to 3300 rows
    per op. Field sweeps (linear, log, and the unperturbed preset on a grid
    that contains fig3a's) alternate with omega2 sweeps."""

    name = "sweep"
    kinds = ("field-linear", "omega2", "field-log", "omega2", "reference", "omega2")
    cycle = len(kinds)

    def __init__(self, seed: int):
        self.seed = seed
        self.offset = float(np.random.default_rng(seed).random())
        lines = REFERENCE_CSV.read_text().splitlines()
        self.reference = [_csv_floats(line) for line in lines[1:]]
        self.prepare(0)

    def prepare(self, i: int) -> SweepInput:
        kind = self.kinds[i % self.cycle]
        # golden-ratio stratified row counts: every run sees the same spread
        # of sizes whatever the seed. An omega2 row costs about 2/3 of a
        # field row, so omega2 ops get 1.5x the rows and every op takes
        # about as long, which keeps the median off a gap between two kinds.
        points = 1800 + int(400.0 * ((self.offset + i * GOLDEN) % 1.0))
        if kind == "omega2":
            points = points * 3 // 2
        if kind == "reference":
            stride = points // (len(self.reference) - 1)
            points = stride * (len(self.reference) - 1) + 1
            doc = {"preset": "paper-fig3",
                   "sweep": {"variable": "field", "min": 0.0, "max": 2.0,
                             "points": points}}
            return SweepInput(kind, yaml.safe_dump(doc, sort_keys=False), points, stride)
        doc = seeded_config(np.random.default_rng([self.seed, i]), kind, points)
        return SweepInput(kind, yaml.safe_dump(doc, sort_keys=False), points)

    def execute(self, inp: SweepInput):
        config = scenario.load_config(inp.text)
        result = scenario.run_sweep(config)
        csv_text = scenario.result_to_csv_text(result)
        json_text = scenario.result_to_json_text(result)
        return config, result, csv_text, json_text, scenario.parse_json_text(json_text)

    def check(self, inp: SweepInput, out, exc) -> Outcome:
        if exc is not None:
            return _error(exc)
        config, result, csv_text, json_text, parsed = out
        rows = len(result.rows)
        problems = []
        if rows != inp.points:
            problems.append(f"{rows} rows for {inp.points} grid points")
        csv_lines = csv_text.splitlines()
        if len(csv_lines) != rows + 1:
            problems.append(f"{len(csv_lines)} CSV lines for {rows} rows")
        if parsed != result or scenario.result_to_json_text(parsed) != json_text:
            problems.append("JSON does not round-trip bit-identically")
        if inp.kind == "omega2":
            problems += self._check_spectrum(config, result)
        else:
            f1f2 = purcell_product(config.experiment)
            if not all(_close(row.enhancement_tpse, f1f2, 1e-12) for row in result.rows):
                problems.append(f"enhancement_tpse differs from F1*F2 = {f1f2!r}")
        if inp.kind == "reference":
            for k, expected in enumerate(self.reference):
                got = _csv_floats(csv_lines[1 + k * inp.stride])
                if not all(_close(g, e, 1e-12) for g, e in zip(got, expected)):
                    problems.append(f"fig3a row {k} differs from the reference")
                    break
        return Outcome(rows, not problems, error="; ".join(problems) or None)

    @staticmethod
    def _check_spectrum(config, result) -> list[str]:
        problems = []
        bulk = [row.tpse_power_bulk_rel for row in result.rows]
        if max(bulk) != 1.0:
            problems.append(f"bulk spectrum peaks at {max(bulk)!r}, not 1")
        # both cavity Lorentzians peak at omega_c2, since w_c1 + w_c2 = w_d
        mode2 = config.experiment.mode2
        omegas = [row.omega2_rad_per_s for row in result.rows]
        peak = max(range(len(omegas)), key=lambda k: result.rows[k].tpse_power_cavity_rel)
        step = (omegas[-1] - omegas[0]) / (len(omegas) - 1)
        tolerance = step + 0.5 * mode2.omega_c.rad_per_s / mode2.quality
        if abs(omegas[peak] - mode2.omega_c.rad_per_s) > tolerance:
            problems.append(f"cavity spectrum peaks at {omegas[peak]:.6e} rad/s, "
                            f"mode 2 is at {mode2.omega_c.rad_per_s:.6e}")
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# --- tpse-total -------------------------------------------------------------

# Q ladder: (centre, seeded jitter half-width in decades). Jitter stays
# inside one power-of-two bucket of the starting grid, so a rung costs the
# same work under every seed. 1.32e5 is the Q the c02 gate claims.
Q_RUNGS = ((1e2, 0.0), (1e3, 0.05), (1.4e4, 0.05), (1.32e5, 0.0), (1e6, 0.0))
ENVIRONMENTS = ("bulk", "single", "double")


def known_quadrature_failure(environment: str, quality: float) -> bool:
    """The documented non-convergence of the uniform trapezoid."""
    return (environment == "double" and quality >= 1.32e5) or \
           (environment == "single" and quality >= 1e6)


@dataclass(frozen=True)
class TotalInput:
    environment: str
    quality: float
    field: object
    experiment: object


def preset_experiment(quality: float):
    """The paper-fig3 experiment with both modes at `quality`."""
    config = presets.preset_config("paper-fig3")
    for mode in config["modes"]:
        mode["quality"] = quality
    return presets.build_experiment(config)


def lorentz_estimate(environment: str, experiment, field) -> float:
    """Centre density times the integral of the Lorentzian product:
    (pi/2) g1 g2/(g1+g2) for two modes, (pi/2) g1 for one."""
    dot, mode1, mode2 = experiment.dot, experiment.mode1, experiment.mode2
    g1 = mode1.omega_c.rad_per_s / mode1.quality
    if environment == "double":
        g2 = mode2.omega_c.rad_per_s / mode2.quality
        centre = rates.tpse_spectral_density_cavity(mode2.omega_c, dot, field, mode1, mode2)
        return centre * (math.pi / 2.0) * g1 * g2 / (g1 + g2)
    w2 = quantities.AngularFrequency(dot.omega_d.rad_per_s - mode1.omega_c.rad_per_s)
    centre = rates.tpse_spectral_density_single_mode(w2, dot, field, mode1)
    return centre * (math.pi / 2.0) * g1


class TpseTotalWorkload:
    """One rates.tpse_total call per op, cycling bulk/single/double over the
    Q ladder. Starting grids run from 2k to 262k panels and the doubling
    loop to 1M, so arrays go from 16 KB to 8 MB."""

    name = "tpse-total"
    cycle = len(Q_RUNGS) * len(ENVIRONMENTS)

    def __init__(self, seed: int):
        self.seed = seed
        self.prepare(0)

    def prepare(self, i: int) -> TotalInput:
        rng = np.random.default_rng([self.seed, i])
        centre, jitter = Q_RUNGS[(i // len(ENVIRONMENTS)) % len(Q_RUNGS)]
        quality = centre * 10.0 ** rng.uniform(-jitter, jitter) if jitter else centre
        field = stark.LateralField(float(rng.uniform(0.1, 2.0)) * 1e6)
        return TotalInput(ENVIRONMENTS[i % len(ENVIRONMENTS)], quality, field,
                          preset_experiment(quality))

    def execute(self, inp: TotalInput) -> float:
        ex = inp.experiment
        modes = {"bulk": {}, "single": {"mode1": ex.mode1},
                 "double": {"mode1": ex.mode1, "mode2": ex.mode2}}[inp.environment]
        return rates.tpse_total(ex.dot, inp.field, inp.environment, **modes)

    def check(self, inp: TotalInput, total, exc) -> Outcome:
        if exc is not None:
            if isinstance(exc, rates.QuadratureError) and \
                    known_quadrature_failure(inp.environment, inp.quality):
                return Outcome(0, False, known=f"QuadratureError: {inp.environment} "
                                               f"at Q={inp.quality:.3g}")
            return _error(exc)
        ex = inp.experiment
        if inp.environment == "bulk":
            product = stark.dipole_product_sp(inp.field, ex.dot)
            expected, tolerance = BULK_TOTAL_PER_PRODUCT_SQ * product * product, BULK_REL_TOL
        else:
            expected = lorentz_estimate(inp.environment, ex, inp.field)
            tolerance = LORENTZ_REL_TOL
        if not (math.isfinite(total) and abs(total / expected - 1.0) <= tolerance):
            return Outcome(1, False, error=f"{inp.environment} total at Q={inp.quality:.4g} "
                                           f"is {total!r}, expected {expected!r} "
                                           f"within {tolerance:g}")
        return Outcome(1, True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# --- cli --------------------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    kind: str
    argv: tuple
    expected: tuple   # ("ok", csv text) or ("error", exit code, stderr text)


def in_process(path: Path) -> tuple:
    """What `twophoton sweep --config path --format csv` should produce."""
    try:
        config = scenario.load_config(str(path), default_preset="paper-fig3")
    except scenario.ConfigError as exc:
        return ("error", 2, f"error: {exc}\n")
    return ("ok", scenario.result_to_csv_text(scenario.run_sweep(config)))


class CliWorkload:
    """One fresh `python -m twophoton.cli` process per op, one at a time:
    fig3a, fig3b, sweep on a seeded JSON config, sweep on the README's
    schema example verbatim. Output goes to a file and must equal the
    in-process result byte for byte."""

    name = "cli"
    kinds = ("fig3a", "fig3b", "sweep-seeded", "sweep-readme")
    cycle = len(kinds)

    def __init__(self, seed: int):
        self.seed = seed
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        self.output = self.dir / "out.csv"
        self.stderr = self.dir / "stderr.txt"
        self.env = child_env()
        self.max_rss_kb = 0
        self.expected = {
            "fig3a": ("ok", scenario.result_to_csv_text(scenario.reproduce_fig3a())),
            "fig3b": ("ok", scenario.result_to_csv_text(scenario.reproduce_fig3b())),
            "sweep-readme": in_process(README_CONFIG),
        }
        self.prepare(0)

    def prepare(self, i: int) -> CliInput:
        kind = self.kinds[i % self.cycle]
        base = [sys.executable, "-m", "twophoton.cli"]
        out = ["--output", str(self.output)]
        if kind in ("fig3a", "fig3b"):
            argv, expected = base + [kind] + out, self.expected[kind]
        elif kind == "sweep-readme":
            argv = base + ["sweep", "--config", str(README_CONFIG), "--format", "csv"] + out
            expected = self.expected[kind]
        else:
            rng = np.random.default_rng([self.seed, i])
            sweep_kind = ("field-linear", "omega2")[(i // self.cycle) % 2]
            doc = seeded_config(rng, sweep_kind, int(rng.integers(200, 401)))
            path = self.dir / "config.json"
            path.write_text(json.dumps(doc, indent=2))
            if yaml.safe_load(path.read_text()) != doc:
                raise RuntimeError("seeded JSON config does not read back as written")
            argv = base + ["sweep", "--config", str(path), "--format", "csv"] + out
            expected = in_process(path)
        if self.output.exists():
            self.output.unlink()
        return CliInput(kind, tuple(argv), expected)

    def execute(self, inp: CliInput) -> int:
        with open(self.stderr, "wb") as err:
            proc = subprocess.Popen(inp.argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.dir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, inp: CliInput, code, exc) -> Outcome:
        if exc is not None:
            return _error(exc)
        stderr = self.stderr.read_text()
        if inp.expected[0] == "ok":
            text = self.output.read_text() if self.output.exists() else None
            if code == 0 and text == inp.expected[1]:
                return Outcome(text.count("\n") - 1, True)
            return Outcome(0, False, error=f"{inp.kind}: exit {code}, output "
                                           f"{'differs' if text else 'missing'}; "
                                           f"stderr {stderr[-200:]!r}")
        _, want_code, want_stderr = inp.expected
        if code != want_code or stderr != want_stderr:
            return Outcome(0, False, error=f"{inp.kind}: exit {code} with {stderr[-200:]!r}, "
                                           f"in process {want_code} with {want_stderr!r}")
        if inp.kind == "sweep-readme" and README_REJECTION in stderr:
            return Outcome(0, False, known=f"ConfigError: {README_REJECTION}")
        return Outcome(0, False, error=f"{inp.kind}: rejected with {stderr.strip()!r}")

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0

    def close(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


WORKLOADS = {w.name: w for w in (SweepWorkload, TpseTotalWorkload, CliWorkload)}


def setup_argv(name: str, seed: int) -> list[str]:
    """A child interpreter that does one workload's set-up and exits: for
    cli the package import a CLI process pays, otherwise everything up to
    the first op being ready."""
    if name == "cli":
        return [sys.executable, "-c", "import twophoton.cli"]
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.WORKLOADS[{name!r}]({seed})")
    return [sys.executable, "-c", code]
