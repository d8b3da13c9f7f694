"""Compare two result files written by suite.py.

    python3 bench/compare.py bench/results/BENCH_<parent>.json bench/results/BENCH_<change>.json

For each workload and end-to-end metric, prints both sides' median and
quartiles, the change of the median, and a verdict against the metric's
bound from the base file:

- REGRESSION: the median got worse by more than the bound;
- unresolved: either side's spread (inter-quartile distance over the
  median) exceeds the bound, unless every run of the change reads better
  than every run of the base;
- better / same: otherwise, by whether it improved by more than the bound.

Per-layer metrics, one traced run per side, are printed with their change
only. Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys


def all_better(base: dict, new: dict) -> bool:
    if base["better"] == "lower":
        return max(new["values"]) < min(base["values"])
    return min(new["values"]) > max(base["values"])


def verdict(base: dict, new: dict) -> tuple[float, str]:
    """(share by which the median got worse, verdict word)."""
    sign = 1.0 if base["better"] == "lower" else -1.0
    worse = sign * (new["median"] - base["median"]) / abs(base["median"])
    bound = base["bound"]
    if max(base["spread"], new["spread"]) > bound and not all_better(base, new):
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    return worse, "better" if -worse > bound else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for side, data in (("base", base), ("new", new)):
        p = data["provenance"]
        print(f"{side}: commit {p['git_commit'][:12]} source {p['source_sha256'][:12]} "
              f"on {p['nproc']} x {p['cpu_model']}, python {p['python']}, "
              f"numpy {p['numpy']}")
    regressions = 0
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"\n== {name}: missing from {args.new}")
            continue
        b_w, n_w = base["workloads"][name], new["workloads"][name]
        print(f"\n== {name}")
        print(f"  {'metric':14s} {'unit':6s} {'base median [q1, q3]':>36s} "
              f"{'new median [q1, q3]':>36s} {'worse by':>9s} {'bound':>6s}  verdict")
        for metric, b in b_w["end_to_end"].items():
            n = n_w["end_to_end"][metric]
            worse, word = verdict(b, n)
            regressions += word == "REGRESSION"
            print(f"  {metric:14s} {b['unit']:6s} "
                  f"{b['median']:10.4g} [{b['q1']:10.4g}, {b['q3']:10.4g}] "
                  f"{n['median']:10.4g} [{n['q1']:10.4g}, {n['q3']:10.4g}] "
                  f"{worse:9.2%} {b['bound']:6.0%}  {word}")
        for metric, b in b_w.get("per_layer", {}).items():
            n = n_w.get("per_layer", {}).get(metric)
            if n is None:
                continue
            change = (n["value"] - b["value"]) / b["value"] if b["value"] else float("nan")
            print(f"  {metric:40s} {b['value']:12.5g} -> {n['value']:12.5g} "
                  f"{b['unit']:6s} {change:+8.1%}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
