#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs `bash perfbench/run.sh` once per seed for each workload and prints,
for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: (q3 - q1) / median.
Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 101
    python3 perfbench/steadiness.py --workload sweep-cold --runs 5

Each run's result line is appended to .bench_build/steadiness.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.time()
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            wall = time.time() - t0
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            rows.append(res)
            with open(".bench_build/steadiness.jsonl", "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace,
                                    "wall_s": wall, "result": res}) + "\n")
            ok = ok and res["correct"]
        print(f"\n{w}: {len(rows)} runs, seeds {args.first_seed}-{args.first_seed + args.runs - 1}, "
              f"all correct: {all(r['correct'] for r in rows)}")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name in sorted(rows[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name, "")
            print(f"| {name} | {rows[0]['metrics'][name]['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} | {bound} |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
