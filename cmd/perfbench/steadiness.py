#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise spread.

Usage, from the repository root:

    python3 cmd/perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--trace 0|1] [--out FILE.jsonl]

Each run is the command from BENCHMARK.json with --workload, --seed,
--seconds and --trace. For every end-to-end metric (or per-layer metric
with --trace 1) the summary prints the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound. Raw results go to --out as one
JSON object per line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = open(args.out, "a") if args.out else None

    for wl in workloads:
        values = {m["name"]: [] for m in metrics}
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: INCORRECT {res['failed']}/{res['attempted']}", file=sys.stderr)
            if out:
                out.write(json.dumps({"workload": wl, "seed": seed, "trace": args.trace,
                                      "info": json.loads(lines[-2]) if len(lines) > 1 else None,
                                      "result": res}) + "\n")
                out.flush()
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{wl} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'bound':>6s}")
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:32s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if out:
        out.close()


if __name__ == "__main__":
    main()
