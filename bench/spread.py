#!/usr/bin/env python3
"""Run bench/run.py once per seed and summarise the spread of each metric.

    python3 bench/spread.py --workload mc_paper --seeds 1-10 --seconds 20

For each metric it prints the median, the quartiles and the spread
(Q3 - Q1) / median over the runs, as `statistics.quantiles(values, n=4)`
gives the quartiles. Runs are sequential; --out keeps every run's result
line and provenance as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return {"seed": seed, "result": lines[-1], "provenance": lines[-2].get("provenance")}


def summarise(runs):
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="comma separated seeds or ranges, e.g. 1-5,9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    args = parser.parse_args()

    runs = []
    for seed in seed_list(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        r = runs[-1]["result"]
        values = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {values}", flush=True)
    summary = summarise(runs)
    print(json.dumps(summary, indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
