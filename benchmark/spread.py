#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command in BENCHMARK.json N times per workload, each time with
another --seed, and prints for each workload x end-to-end metric the
median, the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)), and that spread against
the metric's bound. A spread above a third of the bound is flagged: the
bound should be at least three times the widest spread seen.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME] [--save FILE]
    python3 benchmark/spread.py --load FILE    # tabulate saved runs against today's bounds

Run it from the root of the repo on an otherwise idle machine.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save", help="write every run's metrics to this JSON file")
    ap.add_argument("--load", help="read the runs from a file written with --save instead of running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    names = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    runs = {}
    worst = {}
    if args.load:
        with open(args.load) as f:
            runs = json.load(f)
        names = args.workload or list(runs)
    for name in names:
        runs.setdefault(name, [])
        for i in range(0 if args.load else args.runs):
            seed = args.first_seed + i
            cmd = contract["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ]
            began = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit code {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{name} seed {seed}: {line['failed']} of {line['attempted']} failed")
            runs[name].append({k: v["value"] for k, v in line["metrics"].items()})
            print(f"# {name} seed {seed}: {time.time() - began:.1f}s", file=sys.stderr)
        print(f"\n{name}: {len(runs[name])} seeds from {args.first_seed}")
        print(f"  {'metric':<22}{'median':>14}{'spread':>9}{'bound':>8}")
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst[metric] = max(worst.get(metric, 0.0), spread)
            flag = ""
            if metric != "setup_s":
                if spread > bound:
                    flag = "  ABOVE BOUND"
                elif spread > bound / 3:
                    flag = "  above a third of the bound"
            print(f"  {metric:<22}{med:>14.4f}{spread:>9.2%}{bound:>8.0%}{flag}")
    print("\nwidest spread per metric over the workloads run (bound should be at least 3x):")
    for metric, spread in worst.items():
        print(f"  {metric:<22}{spread:>9.2%}  x3 = {3 * spread:.2%}  bound {bounds[metric]:.0%}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
