"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are `sweep`, `tpse-total` and `cli` (see workloads.py and
BENCHMARK.json). With `--trace 0` the run measures the end-to-end metrics
with no tracing; with `--trace 1` it runs every op untraced and traced in
turn, and reports the per-layer metrics and the tracing overhead. Every
metric is printed by name and unit, then one JSON object as the last line
of standard output. `--out FILE` also writes the full result with its
provenance, the tail percentile and sample count, and the failing ops.

Exits with status 2, printing no result, when the checkout holds no
package source.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from common import SRC, load_spec, pin_threads, provenance, require_source, child_env

SETUP_ROUNDS = 6     # rounds of set-up children, spread through the run
SETUP_PER_ROUND = 5
MIN_BEYOND = 10     # samples a reported tail percentile must have above it


def setup_seconds(argv: list[str]) -> float:
    """Wall time of a child process that does the workload's set-up."""
    start = perf_counter()
    done = subprocess.run(argv, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"benchmark: set-up child failed:\n{done.stderr.decode()}")
    return elapsed


def run_op(workload, i: int, tracer=None) -> tuple[float, object]:
    """Prepare, time and check op i. Only execute() is timed and, with a
    tracer, only execute() leaves spans."""
    pause = tracer.pause if tracer else contextlib.nullcontext
    with pause():
        inp = workload.prepare(i)
    start = perf_counter()
    try:
        out, exc = workload.execute(inp), None
    except Exception as error:      # judged by the workload's check
        out, exc = None, error
    elapsed = perf_counter() - start
    with pause():
        outcome = workload.check(inp, out, exc)
    return elapsed, outcome


def loop(workload, seconds: float, times: list, outcomes: list) -> None:
    """Continue the closed loop until the first cycle boundary after
    `seconds` of op time in `times`."""
    while not times or len(times) % workload.cycle or sum(times) < seconds:
        elapsed, outcome = run_op(workload, len(times))
        times.append(elapsed)
        outcomes.append(outcome)


def measure(workload, seconds: float, setup_argv: list[str]) -> tuple:
    """One closed loop of `seconds`, with set-up children run in rounds
    spread through it: the machine has slow spells of several seconds, and
    spreading the samples keeps one spell from setting the median."""
    setup_seconds(setup_argv)       # untimed: fills the bytecode cache
    setup, times, outcomes = [], [], []
    for k in range(1, SETUP_ROUNDS + 1):
        setup += [setup_seconds(setup_argv) for _ in range(SETUP_PER_ROUND)]
        loop(workload, seconds * k / SETUP_ROUNDS, times, outcomes)
    return times, outcomes, setup


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with MIN_BEYOND samples
    above it: the (MIN_BEYOND + 1)-th largest time. The maximum when there
    are too few samples."""
    ordered = sorted(times)
    if len(ordered) <= MIN_BEYOND:
        return 100.0, ordered[-1]
    rank = len(ordered) - MIN_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def summarize(outcomes) -> dict:
    known = Counter(o.known for o in outcomes if o.known)
    errors = [o.error for o in outcomes if o.error]
    return {"attempted": len(outcomes), "ok": sum(o.ok for o in outcomes),
            "rows": sum(o.rows for o in outcomes), "failed": len(errors),
            "known_failures": dict(sorted(known.items())),
            "unexpected_failures": errors[:20]}


def end_to_end(workload, times, outcomes, setup: list[float], spec: list) -> tuple:
    counts = summarize(outcomes)
    busy = sum(times)
    p, tail_value = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": counts["ok"] / busy,
        "rows_per_s": counts["rows"] / busy,
        "ok_fraction": counts["ok"] / counts["attempted"],
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    detail = {"tail_percentile": p, "samples": len(times), "op_seconds": busy,
              "setup_samples_s": setup, **counts}
    return metrics, detail


def traced(workload, seconds: float, seed: int, spec: list) -> tuple:
    """Run each op twice, untraced and traced, until the first cycle
    boundary after `seconds` of op time; then the probe pass. The order
    within a pair flips every cycle. The overhead is the median over ops of
    traced over untraced time: the two halves of a pair run back to back,
    so a slow spell of the machine falls on both."""
    import tracing
    tracer = tracing.Tracer()
    ratios, outcomes, busy = [], [], 0.0
    while busy < seconds or len(ratios) % workload.cycle:
        i = len(ratios)
        pair = {}
        for on in ((False, True) if (i // workload.cycle) % 2 == 0 else (True, False)):
            with tracer if on else contextlib.nullcontext():
                pair[on], outcome = run_op(workload, i, tracer if on else None)
            outcomes.append(outcome)
        busy += pair[False] + pair[True]
        ratios.append(pair[True] / pair[False])
    with tracer:
        extra = tracing.probe(tracer, workload.name, seed)
    extra["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    metrics = tracing.per_layer(tracer, extra, spec)
    detail = {"traced_over_untraced": ratios,
              "spans": tracer.spans(), **summarize(outcomes)}
    return metrics, detail


def print_metrics(name: str, metrics: dict, detail: dict) -> None:
    print(f"workload {name}: {detail['attempted']} ops, {detail['ok']} ok, "
          f"{detail['failed']} unexpected failures")
    for metric, entry in metrics.items():
        print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    if "tail_percentile" in detail:
        print(f"  op_tail_s is p{detail['tail_percentile']:.1f} of {detail['samples']} ops")
    for known, count in detail["known_failures"].items():
        print(f"  known failure x{count}: {known}")
    for error in detail["unexpected_failures"]:
        print(f"  UNEXPECTED: {error}")


def main(argv=None) -> int:
    require_source()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result here")
    args = parser.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(SRC))
    import twophoton
    if Path(twophoton.__file__).resolve().parent != SRC / "twophoton":
        sys.exit(f"benchmark: imported twophoton from {twophoton.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics, detail = traced(workload, args.seconds, args.seed, spec["per_layer"])
        else:
            times, outcomes, setup = measure(workload, args.seconds,
                                             workloads.setup_argv(args.workload, args.seed))
            metrics, detail = end_to_end(workload, times, outcomes, setup, spec["end_to_end"])
    finally:
        workload.close()

    print_metrics(args.workload, metrics, detail)
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "provenance": provenance(args.seed),
            "metrics": metrics, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
