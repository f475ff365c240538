#!/usr/bin/env python3
"""Spread report: how steady is each end-to-end metric?

    python3 tipbench/spread.py --workload browse [--runs 10] [--sets 2]
        [--seconds S] [--first-seed 1]
    python3 tipbench/spread.py --from FILE.jsonl [--from ...]

Runs the benchmark --runs times per set, each run with its own seed
(set k uses seeds first_seed + k*runs ...), and saves every result line
to .bench_run/spread/<workload>.jsonl. For each metric it prints the
median and quartiles of each set (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median beside the metric's bound from
BENCHMARK.json, and, with two sets, the ratio of the second set's
median to the first's and whether it is worse by more than the bound.
--from re-reads saved lines instead of running.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def run_sets(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    out_dir = os.path.join(ROOT, ".bench_run", "spread")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, args.workload + ".jsonl")
    records = []
    with open(path, "w") as f:
        for s in range(args.sets):
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
                lines = proc.stdout.decode().strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit("run failed: seed %d exit %d" % (seed, proc.returncode))
                rec = {"set": s, "seed": seed, "result": json.loads(lines[-1])}
                f.write(json.dumps(rec) + "\n")
                f.flush()
                records.append(rec)
                print("set %d seed %d done" % (s, seed), file=sys.stderr)
    return records


def load(paths):
    records = []
    for p in paths:
        with open(p) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return records


def report(records, metrics):
    sets = sorted({r["set"] for r in records})
    names = []
    for r in records:
        for n in r["result"]["metrics"]:
            if n not in names:
                names.append(n)
    ok = True
    print("%-22s %4s %12s %12s %12s %8s %6s %8s" %
          ("metric", "set", "median", "q1", "q3", "spread", "bound", "ratio"))
    for name in names:
        meta = metrics.get(name, {})
        bound = meta.get("bound")
        medians = []
        for s in sets:
            vals = [r["result"]["metrics"][name]["value"]
                    for r in records if r["set"] == s]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians.append(med)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = ""
            if s > 0:
                ratio = "%.3f" % (med / medians[0])
                worse = (med < medians[0]) if meta.get("better") == "higher" else (med > medians[0])
                if bound is not None and worse and abs(med / medians[0] - 1) > bound:
                    ratio += " WORSE"
                    ok = False
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = " TOO-NOISY"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = " >bound/3"
            print("%-22s %4d %12.5g %12.5g %12.5g %8.3f %6s %8s%s" %
                  (name, s, med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, ratio, flag))
    failed = sum(r["result"]["failed"] for r in records)
    correct = all(r["result"]["correct"] for r in records)
    print("runs=%d failed_ops=%d all_correct=%s" % (len(records), failed, correct))
    return ok and correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--from", dest="sources", action="append")
    args = parser.parse_args()
    metrics, spec = bench_spec()
    if args.sources:
        records = load(args.sources)
    elif args.workload:
        records = run_sets(args, spec)
    else:
        parser.error("--workload or --from is required")
    return 0 if report(records, metrics) else 1


if __name__ == "__main__":
    sys.exit(main())
