#!/usr/bin/env python3
"""Run one benchmark workload on several seeds and report each metric's
spread: the distance between the first and third quartile as a share of the
median, beside the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py stream_hot --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run\n{run.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {shown}", file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound and share > bound / 3 else ""
        print(f"{name:34} {med:14.6g} {share:11.4f} {bound if bound else '':>6}{flag}")


if __name__ == "__main__":
    main()
