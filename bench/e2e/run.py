#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (README.md).

    python3 bench/e2e/run.py --workload decode_steady --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout. Builds bench_e2e and its metric-math
test in Release mode from the checkout's sources into bench/e2e/.build/,
runs the test, checks that the binary's workload and metric names match
BENCHMARK.json, runs one workload and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything else goes to stderr. Exits 1 if an output check failed, and 2,
printing no result, if the build, the test, the name check or the run
itself failed.

    python3 bench/e2e/run.py --check-names BINARY

only compares BINARY --list against BENCHMARK.json (the bench_e2e_names
test).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / ".build"
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")


def build_and_test():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no sources to build under {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_INCLUDE={HERE / 'project_hook.cmake'}"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "bench_e2e_stats_test", "-j", jobs])
    # The compiler's temporary files stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            die(f"build step failed: {' '.join(step)}")
    test = subprocess.run([str(BUILD / "bench_e2e" / "bench_e2e_stats_test")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        die("bench_e2e_stats_test failed")
    return BUILD / "bench_e2e" / "bench_e2e"


def name_mismatches(binary, spec):
    """Lines on which BINARY --list and BENCHMARK.json disagree."""
    listed = subprocess.run([str(binary), "--list"], capture_output=True,
                            text=True, check=True).stdout.splitlines()
    declared = [f"workload {w['name']}" for w in spec["workloads"]]
    for tier in ("end_to_end", "per_layer"):
        declared += [f"{tier} {m['name']} {m['unit']} {m['better']}"
                     for m in spec[tier]]
    return ([f"only in --list: {line}" for line in listed
             if line not in declared] +
            [f"only in BENCHMARK.json: {line}" for line in declared
             if line not in listed] +
            (["same names, different order"] if listed != declared and
             sorted(listed) == sorted(declared) else []))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-names", metavar="BINARY")
    args = parser.parse_args()
    spec = load_spec()

    if args.check_names:
        mismatches = name_mismatches(args.check_names, spec)
        for line in mismatches:
            print(line, file=sys.stderr)
        sys.exit(1 if mismatches else 0)

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    binary = build_and_test()
    mismatches = name_mismatches(binary, spec)
    if mismatches:
        die("bench_e2e --list disagrees with BENCHMARK.json: " +
            "; ".join(mismatches))

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        command.append("--trace")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"bench_e2e ran past {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith("BENCH_E2E ")]
    if not lines:
        die(f"bench_e2e printed no result (exit code {proc.returncode})")
    result = json.loads(lines[-1][len("BENCH_E2E "):])

    tier = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[tier]:
        measured = result["metrics"].get(metric["name"])
        if measured is None or measured["value"] is None:
            die(f"bench_e2e did not report {metric['name']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    correct = result["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
