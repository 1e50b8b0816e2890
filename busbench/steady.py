#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs the benchmark command once per seed on each chosen workload and
prints, for every end-to-end metric, the median, the quartiles and the
spread (third minus first quartile, as a share of the median) next to the
metric's bound. A spread above the bound fails the check.

Run it from the repository root:

    python3 busbench/steady.py --seeds 1-10
    python3 busbench/steady.py --workloads serve_closed --seeds 1-5 --seconds 3
    python3 busbench/steady.py --seeds 424242

With a single seed (the held-out seed) it prints that run's figures.

Exit code 0 when every spread is within its bound and every run passed
its checks, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--seconds", type=int, default=0,
                        help="seconds per run (default: run_seconds)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_once(bench["command"], workload, seed, seconds)
            ok &= bool(result["correct"]) and result["failed"] == 0
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in metrics), flush=True)
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = mid
            spread = (q3 - q1) / mid if mid else float("inf")
            verdict = "ok" if spread <= m["bound"] else "TOO WIDE"
            ok &= spread <= m["bound"]
            print(f"  {workload:15s} {m['name']:16s} median {mid:14.6g} {m['unit']:8s}"
                  f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:7.2%}"
                  f" bound {m['bound']:.0%} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
