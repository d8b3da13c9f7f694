"""Run every workload on several seeds and write one result file.

    python3 bench/suite.py --out bench/results/BENCH_<commit>.json

Runs `run.py` for BENCHMARK.json's `run_seconds` on RUNS seeds from
`--first-seed`, every workload of BENCHMARK.json in turn for each seed so
a slow spell of the machine falls on all of them, then one traced run per
workload, then the ROADMAP baseline table (baseline.py). Prints, for each
workload, every end-to-end metric by name and unit with its median,
quartiles and spread (inter-quartile distance over the median) against
the metric's bound, and the known failing ops. compare.py diffs two
result files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from common import BENCH, WORK, load_spec, provenance, quartiles, require_source, spread

RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"suite-{workload}-{seed}-{trace}.json"
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(out)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"suite: {' '.join(argv)} exited {done.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def steadiness(value: float, bound: float) -> str:
    if value < bound / 3.0:
        return "steady"
    return "wide" if value <= bound else "TOO WIDE"


def summarize(spec: dict, runs: list[dict]) -> dict:
    metrics = {}
    for entry in spec["end_to_end"]:
        values = [run["metrics"][entry["name"]]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        metrics[entry["name"]] = {"unit": entry["unit"], "better": entry["better"],
                                  "bound": entry["bound"], "values": values, "q1": q1,
                                  "median": median, "q3": q3, "spread": spread(values)}
    known = Counter()
    for run in runs:
        known.update(run["detail"]["known_failures"])
    return {"seeds": [run["seed"] for run in runs], "end_to_end": metrics,
            "known_failures": dict(known),
            "unexpected_failures": sum(run["detail"]["failed"] for run in runs),
            "tail_percentiles": [run["detail"]["tail_percentile"] for run in runs],
            "samples": [run["detail"]["samples"] for run in runs]}


def print_summary(name: str, summary: dict) -> None:
    print(f"\n== {name}: seeds {summary['seeds'][0]}..{summary['seeds'][-1]}, "
          f"{summary['unexpected_failures']} unexpected failures, "
          f"ops per run {min(summary['samples'])}-{max(summary['samples'])}")
    print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for metric, m in summary["end_to_end"].items():
        print(f"  {metric:14s} {m['unit']:6s} {m['median']:12.6g} {m['q1']:12.6g} "
              f"{m['q3']:12.6g} {m['spread']:7.2%} {m['bound']:6.0%} "
              f"{steadiness(m['spread'], m['bound'])}")
    for known, count in sorted(summary["known_failures"].items()):
        print(f"  known failure x{count}: {known}")


def main(argv=None) -> int:
    require_source()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the ROADMAP baseline table")
    parser.add_argument("--out", type=Path, help="result file to write")
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed} done", file=sys.stderr)
    result = {"provenance": provenance(seeds), "run_seconds": seconds, "workloads": {}}
    for name in names:
        summary = summarize(spec, runs[name])
        if not args.no_trace:
            traced = run_once(name, seeds[0], seconds, 1)
            summary["per_layer"] = traced["metrics"]
            summary["spans"] = traced["detail"]["spans"]
        result["workloads"][name] = summary
        print_summary(name, summary)
    if not args.no_baseline:
        done = subprocess.run([sys.executable, str(BENCH / "baseline.py")],
                              stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        result["baseline"] = json.loads(done.stdout.splitlines()[-1])
        print("\n== ROADMAP baseline table")
        for row in result["baseline"]:
            print(f"  {row['measurement']:34s} roadmap {row['roadmap']:>14s}   "
                  f"now min {row['min']:9.4g} median {row['median']:9.4g} {row['unit']}"
                  f"   {row['note']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
