#!/usr/bin/env python3
"""Run the fleet benchmark on several seeds and report each end-to-end
metric's median and quartile spread (IQR / median), the figure a bound
in BENCHMARK.json is checked against.

    python3 perfbench/spread.py --workload steady --seeds 1-5 [--seconds 25]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs")
    for name in runs[0]:
        vals = [r[name]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"  {name:28s} median {med:12.4f}  spread {spread:7.3f}")


if __name__ == "__main__":
    main()
