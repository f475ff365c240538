#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 tipbench/run.py --workload browse|clinic|report --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (tipbench/CMakeLists.txt, Release) together with the TIP
libraries from src/ into .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only rebuild what changed. Build output goes to standard
error, so the last line of standard output is always the benchmark's
JSON result. The run's scratch databases live in .bench_run/.
Exits non-zero, printing no result, when the build fails or when the
result does not hold exactly the metrics BENCHMARK.json lists for the
run's --trace mode, with their units.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "tipbench")


def build(out):
    jobs = str(max(1, min(3, (os.cpu_count() or 2) - 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tipbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def check_result(line, trace):
    """The metrics and units BENCHMARK.json promises for this mode, or an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    result = json.loads(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return "no operation attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("tipbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "tipbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--work-dir", os.path.join(ROOT, ".bench_run")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tipbench: run timed out", file=sys.stderr)
        return 3
    out_text = result.stdout.decode()
    lines = out_text.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        sys.stderr.write(out_text)
        return result.returncode or 4
    error = check_result(lines[-1], args.trace)
    if error:
        sys.stderr.write(out_text)
        print("tipbench: " + error, file=sys.stderr)
        return 5
    sys.stdout.write(out_text)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
