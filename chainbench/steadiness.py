#!/usr/bin/env python3
"""Run-to-run spread of chainbench's end-to-end metrics.

    python3 chainbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--out FILE]

Runs BENCHMARK.json's command once per seed (first-seed, first-seed+1,
...) on each workload with --trace 0 and --seconds run_seconds, then
prints, per workload and metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. A spread at or above a third of
the metric's bound is flagged "WIDE", at or above the bound "OVER".
The ungated metrics a run prints (wall-clock rates and latencies) are
listed too, with no bound. --out writes the same table as JSON. Run
from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"runs": args.runs, "first_seed": args.first_seed,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    flagged = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        ungated = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.time()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            for line in lines:
                if line.startswith('{"ungated"'):
                    for name, metric in json.loads(line)["ungated"].items():
                        ungated.setdefault(name, (metric["unit"], []))
                        ungated[name][1].append(metric["value"])
            print(f"{workload} seed {seed}: {time.time() - start:.0f} s, "
                  f"{result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
        rows = {}
        print(f"\n{workload} ({args.runs} runs, {failed} failed operations)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            mark = ""
            if spread >= m["bound"]:
                mark = "OVER"
            elif spread >= m["bound"] / 3:
                mark = "WIDE"
            flagged += bool(mark)
            rows[m["name"]] = {"unit": m["unit"], "median": q2, "q1": q1,
                               "q3": q3, "spread": spread,
                               "bound": m["bound"], "values": v}
            print(f"  {m['name']:22} median {q2:12.4f} {m['unit']:5} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f} {mark}")
        for name, (unit, v) in sorted(ungated.items()):
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            rows[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
                          "spread": spread, "bound": None, "values": v}
            print(f"  {name:22} median {q2:12.4f} {unit:5} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} "
                  f"ungated")
        record["workloads"][workload] = {"failed": failed, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
