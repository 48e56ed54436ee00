#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how well it repeats.

For every end-to-end metric of BENCHMARK.json, prints the median of the
runs and their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. --save keeps the set's values in a JSON file; --against
compares this set with a saved one: each metric's median in both sets and
the relative difference, next to the bound.

Exits nonzero if a run fails, if any spread (setup_s included) exceeds its
metric's bound, or if any median moved from the saved set by the bound or
more.

    python3 labelbench/check_spread.py --workload point_large --seeds 1-10 \
        --save labelbench/work/set1-point_large.json
    # later:
    python3 labelbench/check_spread.py --workload point_large --seeds 1-10 \
        --against labelbench/work/set1-point_large.json

Run it from the repository root. --binary runs an already built
labelbench executable instead of the BENCHMARK.json command.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    """Interquartile distance over the median; 0 for fewer than two values
    or a zero median."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def shift(first, later):
    """Relative difference of `later` from `first` (both medians)."""
    return (later - first) / abs(first) if first else 0.0


def run_set(command, workload, seed_range, run_seconds, trace):
    """One run per seed; returns {metric: [value per seed]}."""
    values = {}
    for seed in seed_range:
        argv = command + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(run_seconds), "--trace", trace]
        start = time.monotonic()
        out = subprocess.run(argv, capture_output=True, text=True)
        wall = time.monotonic() - start
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--binary", help="prebuilt labelbench executable")
    ap.add_argument("--save", help="write this set's values to a JSON file")
    ap.add_argument("--against", help="compare with a set saved by --save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.binary] if args.binary else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = run_set(command, args.workload, seeds(args.seeds),
                     bench["run_seconds"], args.trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)

    worst = 0
    for name, vs in values.items():
        s = spread(vs)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"bound {bound:.3f}  ({s / bound:.0%} of it)"
            if s > bound:
                worst = 1
        print(f"{name:28s} median {statistics.median(vs):14.6g}  spread {s:7.2%}  {flag}")
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
        if saved["workload"] != args.workload:
            sys.exit(f"{args.against} holds {saved['workload']}, not {args.workload}")
        print(f"against {args.against}")
        for name, vs in values.items():
            first = statistics.median(saved["values"][name])
            now = statistics.median(vs)
            d = shift(first, now)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.3f}  ({abs(d) / bound:.0%} of it)"
                if abs(d) >= bound:
                    worst = 1
            print(f"{name:28s} {first:14.6g} -> {now:14.6g}  {d:+7.2%}  {flag}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
