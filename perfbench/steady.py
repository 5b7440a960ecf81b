#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each time with another seed, and prints for every metric the
median, the quartiles, the range and the spread (interquartile range as
a share of the median) next to the metric's bound. With --sets 2 or
more it repeats the whole set with fresh seeds and prints, for every
bounded metric, how far each later set's median moved from the first
set's, against the bound. The host-speed probe of each run (a fixed
integer loop timed between phases) is listed too; it is reported, never
gated, so a slow-host run can be told apart from a regression.

Run from the repository root:

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 10 --sets 2    # and a second set
    python3 perfbench/steady.py --runs 5 --workloads words_de_hot
    python3 perfbench/steady.py --trace 1 --runs 2    # per-layer metrics

Each run's full report is saved under .perfbench_out/steady/. The exit
code is 1 when a spread or a median change exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(command, workload, seed, seconds, trace, log_dir):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    name = f"{workload}-seed{seed}-trace{trace}.txt"
    with open(os.path.join(log_dir, name), "w") as log:
        log.write(done.stdout)
        log.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {done.returncode}); see {log_dir}/{name}")
    result = json.loads(lines[-1])
    probe = None
    for line in lines:
        if line.startswith("# stamp "):
            probe = json.loads(line[len("# stamp "):]).get("host_probe_ms")
    return result, probe


def run_set(args, command, seconds, workload, metrics, first_seed, log_dir):
    """Run one set; return {metric: [values]}."""
    values = {m["name"]: [] for m in metrics}
    print(f"== {workload}: {args.runs} runs from seed {first_seed}, {seconds} s each, trace {args.trace}")
    for seed in range(first_seed, first_seed + args.runs):
        result, probe = run_once(command, workload, seed, seconds, args.trace, log_dir)
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        for m in metrics:
            if m["name"] not in result["metrics"]:
                sys.exit(f"{workload} seed {seed}: the result line lacks {m['name']}")
            values[m["name"]].append(result["metrics"][m["name"]]["value"])
        probes = " ".join(f"{p:.1f}" for p in probe or [])
        print(f"   seed {seed:>3}: attempted {result['attempted']:>6}  host probe ms [{probes}]", flush=True)
    return values


def print_set(metrics, values):
    """Print the set's table; return the largest spread / bound."""
    worst = 0.0
    print(f"   {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}{'spread':>9}{'bound':>7}")
    for m in metrics:
        xs = values[m["name"]]
        q1, q2, q3 = quartiles(xs)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            flag = " !" if spread > bound / 3 else ""
        print(
            f"   {m['name']:<28}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{min(xs):>12.5g}{max(xs):>12.5g}"
            f"{spread:>9.4f}{'' if bound is None else bound:>7}{flag}"
        )
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    log_dir = os.path.join(".perfbench_out", "steady")
    os.makedirs(log_dir, exist_ok=True)

    worst = 0.0
    medians = {w: [] for w in workloads}
    for k in range(args.sets):
        for workload in workloads:
            first_seed = args.first_seed + (k * len(workloads) + workloads.index(workload)) * args.runs
            values = run_set(args, command, seconds, workload, metrics, first_seed, log_dir)
            worst = max(worst, print_set(metrics, values))
            medians[workload].append({n: statistics.median(xs) for n, xs in values.items()})
    failed = False
    if args.trace == 0:
        print(f"largest spread / bound: {worst:.3f} (aim: below 0.333)")
        failed = worst > 1.0
    if args.sets > 1:
        print("median change of each later set against the first (worse side), against the bound:")
        for workload in workloads:
            for m in metrics:
                if m.get("bound") is None:
                    continue
                first = medians[workload][0][m["name"]]
                for k, later in enumerate(medians[workload][1:], start=2):
                    change = (later[m["name"]] - first) / first
                    worse = change if m["better"] == "lower" else -change
                    flag = " WORSE" if worse > m["bound"] else ""
                    failed |= bool(flag)
                    print(f"   {workload:<16}{m['name']:<16} set {k}: {change:+.4f} (bound {m['bound']}){flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
