#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs each workload once per seed
and prints, for every end-to-end metric, the median and the quartile
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]

Every run's result line is appended to perfbench/out/spread.jsonl, and
its whole report is kept as perfbench/out/<workload>-seed<n>.txt.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = BENCH / "out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {out.returncode})\n{out.stdout}{out.stderr}")
                return 1
            with log.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            (log.parent / f"{workload}-seed{seed}.txt").write_text(out.stdout)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(seeds(args.seeds))} seeds")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- over a third of the bound"
                ok = ok and spread <= bound
            print(f"  {name:<30} median {med:>14.4f}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
