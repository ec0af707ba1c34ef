#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark's acceptance rule measures it.

    python3 bench/steadiness.py --workloads bandit-ablation,td-wide --seeds 1-10 [--out FILE]

Runs bench/run.py once per workload and seed, one run at a time, with
run_seconds from BENCHMARK.json and tracing off, and prints each run's
table: every end-to-end metric with its unit, error_rate and refined_value.
With one seed (--seeds 1) it is the one command that runs all three
workloads. With two or more, it then prints for each workload and metric
the median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound and a third of it. --out writes every run's metrics, the
summary and the machine fingerprint as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{proc.stdout[-4000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, table


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_range(args.seeds):
            runs[seed], table = run(workload, seed, spec["run_seconds"])
            print("\n".join(table), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs.values()]
            if len(values) < 2:
                continue
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound}
            flag = "ok" if summary[name]["spread"] < bound / 3 else "WIDE"
            print(f"  {workload:16s} {name:16s} median {summary[name]['median']:12.5g} "
                  f"spread {summary[name]['spread']:.4f} bound {bound} (third {bound / 3:.4f}) "
                  f"{flag}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    last = ROOT / ".bench_run" / f"{workload}-seed{seed}-trace0" / "result.json"
    report["fingerprint"] = json.loads(last.read_text())["fingerprint"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
