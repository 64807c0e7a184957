#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and
quartile spread (Q3 - Q1 as a share of the median).

Usage, from the repository root:

    python3 perfbench/spread.py --workload screening --trace 0 \
        --seconds 30 --seeds 1 2 3 4 5 6 7 8 9 10

Each run's result line is appended to --log (JSON lines) as it lands.
"""

import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--seeds", nargs="+", required=True)
    ap.add_argument("--log", default="perfbench/out/spread.jsonl")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cmd = json.load(f)["command"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", seed,
                   "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        line = out.stdout.strip().splitlines()[-1]
        with open(args.log, "a") as log:
            log.write(line + "\n")
        res = json.loads(line)
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} jobs failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11}  n={len(args.seeds)}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:34} {med:14.6g} {spread:11.4f}")


if __name__ == "__main__":
    main()
