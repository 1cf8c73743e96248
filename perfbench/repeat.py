"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Runs `run.py` once per seed (seeds 1..runs, one workload after the other)
with BENCHMARK.json's run length, and prints, per workload and metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  With --out the summary is also written as JSON, together
with the commit, Python version and core count of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"meta": None, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            summary["meta"] = json.loads(lines[0])["meta"]
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output: {result}")
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()
                if m in bounds or args.trace), flush=True)
        stats = {m: summarize(v) for m, v in values.items()}
        summary["workloads"][name] = stats
        for metric, s in stats.items():
            if metric in bounds:
                print(f"  {name:13s} {metric:12s} median={s['median']:.4f} "
                      f"spread={s['spread']:.4f} bound={bounds[metric]}", flush=True)
    summary["meta"] = {k: summary["meta"][k] for k in ("commit", "src_sha256", "python", "nproc")}
    summary["run_seconds"] = spec["run_seconds"]
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
