#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark on two checkouts.

    python3 bench/ab_e2e.py PARENT_DIR CHANGE_DIR --workload decode_steady \\
        --seeds 401-410 [--log-dir LOG_DIR]

For each seed, runs PARENT_DIR/bench/e2e/run.py and CHANGE_DIR/bench/e2e/run.py
once each with --trace 0 for BENCHMARK.json's run_seconds, alternating which
side runs first (the parent for the first seed, the change for the second,
and so on). It then prints, for every end-to-end metric in BENCHMARK.json:

  - one row per pair: seed, which side ran first, both values, the winner;
  - each side's median and quartiles, and how many pairs each side won
    (a tie counts for neither);
  - whether the gain rule holds: the change wins at least 9 of every 10
    pairs and its median is better than the parent's by more than the
    parent's interquartile range;
  - whether the change's median stays inside the metric's bound: worse
    than the parent's median by at most the bound's share of it.

Beside setup_s it prints each side's median setup_raw_s and
host.reference_ms, the raw set-up time and the host reference it was
scaled by, read from the BENCH_E2E line that each run's log holds.

Quartiles interpolate linearly between order statistics (numpy's default).
Each run's stderr goes to LOG_DIR (default: a temporary directory) as
<side>_<workload>_<seed>.log. Exits 1 if any run reports correct: false or
failed > 0, and 2 if a run printed no result.

    python3 bench/ab_e2e.py --self-test

checks the rule arithmetic on fixed numbers and exits 0 if it holds.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

# The gain rule's share of pairs the change must win: 9 in every 10.
GAIN_WINS, GAIN_PAIRS = 9, 10

# What setup_s is computed from: the raw set-up time and the host
# reference it is scaled by, both in each run's BENCH_E2E log line.
SETUP_INPUTS = ("setup_raw_s", "host.reference_ms")
LOG_PREFIX = "BENCH_E2E "


def quartiles(values):
    """(q1, median, q3), linearly interpolated; one value is its own."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True if value a beats value b for a metric whose better is DIRECTION."""
    return a < b if direction == "lower" else a > b


def summarize(parent, change, direction, bound):
    """The verdicts for one metric over paired runs parent[i], change[i]."""
    pairs = len(parent)
    change_wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    parent_wins = sum(better(p, c, direction) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gain = p_med - c_med if direction == "lower" else c_med - p_med
    worse_share = -gain / p_med if p_med else 0.0
    return {
        "pairs": pairs,
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "parent_iqr": iqr,
        "median_gain": gain,
        "gain_rule": (GAIN_PAIRS * change_wins >= GAIN_WINS * pairs and
                      gain > iqr),
        "worse_share": worse_share,
        "inside_bound": worse_share <= bound,
    }


def logged_metrics(log_path):
    """The metrics of the last BENCH_E2E line in a run's log, or {}."""
    metrics = {}
    with open(log_path) as log:
        for line in log:
            if line.startswith(LOG_PREFIX):
                metrics = json.loads(line[len(LOG_PREFIX):])["metrics"]
    return metrics


def median_of(runs, name):
    """The median of metric NAME over the runs' logged metrics, or None."""
    values = [m[name]["value"] for m in runs if name in m]
    return statistics.median(values) if values else None


def self_test():
    """Checks summarize() on numbers whose verdicts are known."""
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    # The parent set-ups reported for the parallel weight init, against a
    # change that wins 9 of 10 pairs (seed 5 ties, seed 9 loses).
    parent = [0.2385, 0.2099, 0.2510, 0.2803, 0.2276,
              0.2347, 0.1976, 0.2067, 0.2112, 0.2269]
    change = [0.0747, 0.0733, 0.0676, 0.0715, 0.2276,
              0.0729, 0.0721, 0.0688, 0.2200, 0.0722]
    s = summarize(parent, change, "lower", 0.25)
    expect("pairs", s["pairs"], 10)
    expect("change wins", s["change_wins"], 8)
    expect("parent wins", s["parent_wins"], 1)
    expect("parent q1", round(s["parent"][0], 6), 0.210225)
    expect("parent median", round(s["parent"][1], 6), 0.22725)
    expect("parent q3", round(s["parent"][2], 6), 0.23755)
    expect("8 wins of 10 is no gain", s["gain_rule"], False)
    change[4] = 0.0700  # the tie becomes a win: 9 of 10
    s = summarize(parent, change, "lower", 0.25)
    expect("9 wins of 10", s["change_wins"], 9)
    expect("9 of 10 and a wide gap is a gain", s["gain_rule"], True)
    expect("a gain is inside the bound", s["inside_bound"], True)

    # Every pair won, but the medians differ by less than the parent IQR.
    s = summarize([10.0, 11.0, 12.0, 13.0], [9.9, 10.9, 11.9, 12.9],
                  "lower", 0.05)
    expect("narrow gap wins", s["change_wins"], 4)
    expect("parent IQR", round(s["parent_iqr"], 6), 1.5)
    expect("narrow gap is no gain", s["gain_rule"], False)

    # Higher-is-better: the change must be larger to win.
    s = summarize([100.0, 100.0], [120.0, 130.0], "higher", 0.05)
    expect("higher wins", s["change_wins"], 2)
    expect("higher gain", s["median_gain"], 25.0)
    expect("higher gain rule", s["gain_rule"], True)

    # Worse by 4% stays inside a 5% bound; worse by 6% does not.
    s = summarize([50.0, 50.0, 50.0], [52.0, 52.0, 52.0], "lower", 0.05)
    expect("4% worse share", round(s["worse_share"], 6), 0.04)
    expect("4% worse inside 5%", s["inside_bound"], True)
    s = summarize([50.0, 50.0, 50.0], [53.0, 53.0, 53.0], "lower", 0.05)
    expect("6% worse outside 5%", s["inside_bound"], False)
    s = summarize([100.0], [94.0], "higher", 0.05)
    expect("6% lower throughput outside 5%", s["inside_bound"], False)

    # One pair: its own quartiles, and a single win is all of them.
    s = summarize([2.0], [1.0], "lower", 0.25)
    expect("one pair quartiles", s["parent"], (2.0, 2.0, 2.0))
    expect("one pair gain rule", s["gain_rule"], True)

    # The raw set-up and host reference come from each log's BENCH_E2E
    # line; a log without one (a run that never started) counts for none.
    with tempfile.TemporaryDirectory() as tmp:
        logs = []
        for i, (raw, ref) in enumerate([(0.0196, 39.1), (0.0152, 38.8),
                                        (0.0180, 40.0)]):
            path = pathlib.Path(tmp) / f"run{i}.log"
            line = json.dumps({"metrics": {
                "setup_raw_s": {"value": raw, "unit": "s"},
                "host.reference_ms": {"value": ref, "unit": "ms"}}})
            path.write_text(f"[100%] Built target bench_e2e\n"
                            f"{LOG_PREFIX}{line}\n")
            logs.append(logged_metrics(path))
        empty = pathlib.Path(tmp) / "empty.log"
        empty.write_text("build failed\n")
        logs.append(logged_metrics(empty))
        expect("logged raw median", median_of(logs, "setup_raw_s"), 0.0180)
        expect("logged reference median",
               median_of(logs, "host.reference_ms"), 39.1)
        expect("unlogged metric", median_of(logs, "capacity_rps"), None)

    for line in failures:
        print(f"ab_e2e self-test: {line}", file=sys.stderr)
    print(f"ab_e2e self-test: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def parse_seeds(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def run_once(checkout, workload, seed, seconds, log_path):
    """One untraced run.py; returns its result object, or None. Its stderr,
    BENCH_E2E line included, goes to LOG_PATH."""
    command = [sys.executable, str(checkout / "bench" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    with open(log_path, "w") as log:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=log,
                              text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=pathlib.Path)
    parser.add_argument("change", nargs="?", type=pathlib.Path)
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--log-dir", type=pathlib.Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("PARENT_DIR, CHANGE_DIR, --workload and --seeds "
                     "are required")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    log_dir = args.log_dir or pathlib.Path(tempfile.mkdtemp(prefix="ab_e2e"))
    log_dir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {"parent": [], "change": []}
    logged = {"parent": [], "change": []}
    firsts = []
    bad_runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        for side in order:
            log = log_dir / f"{side}_{args.workload}_{seed}.log"
            result = run_once(sides[side], args.workload, seed, seconds, log)
            if result is None:
                print(f"ab_e2e: {side} seed {seed} printed no result; "
                      f"see {log}", file=sys.stderr)
                sys.exit(2)
            if not result["correct"] or result["failed"] != 0:
                bad_runs.append(f"{side} seed {seed}: correct "
                                f"{result['correct']}, failed "
                                f"{result['failed']} of "
                                f"{result['attempted']}")
            results[side].append(result)
            logged[side].append(logged_metrics(log))
            print(f"# {side} seed {seed}: {json.dumps(result)}", flush=True)

    print(f"\nworkload {args.workload}, {len(args.seeds)} pairs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}, --seconds {seconds}, "
          f"logs in {log_dir}")
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        s = summarize(parent, change, metric["better"], metric["bound"])
        print(f"\n{name} ({unit}, {metric['better']} is better, bound "
              f"{metric['bound']:.0%})")
        print(f"  {'seed':>6} {'first':>6} {'parent':>10} {'change':>10} "
              f"{'winner':>7}")
        for seed, first, p, c in zip(args.seeds, firsts, parent, change):
            winner = ("change" if better(c, p, metric["better"]) else
                      "parent" if better(p, c, metric["better"]) else "tie")
            print(f"  {seed:>6} {first:>6} {p:>10.4f} {c:>10.4f} "
                  f"{winner:>7}")
        for side in ("parent", "change"):
            q1, med, q3 = s[side]
            line = f"  {side}: median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f})"
            if name == "setup_s":
                for key in SETUP_INPUTS:
                    value = median_of(logged[side], key)
                    line += (f", {key} median {value:.4f}" if value is not None
                             else f", {key} not logged")
            print(line)
        print(f"  wins: change {s['change_wins']}, parent "
              f"{s['parent_wins']}, of {s['pairs']} pairs")
        print(f"  gain rule (>= {GAIN_WINS} of {GAIN_PAIRS} pairs won and "
              f"median gain {s['median_gain']:+.4f} > parent IQR "
              f"{s['parent_iqr']:.4f}): "
              f"{'holds' if s['gain_rule'] else 'does not hold'}")
        share = s["worse_share"]
        print(f"  bound: change median {abs(share):.1%} "
              f"{'worse' if share > 0 else 'better'} than the parent's, "
              f"{'inside' if s['inside_bound'] else 'OUTSIDE'} "
              f"{metric['bound']:.0%}")
    for line in bad_runs:
        print(f"ab_e2e: incorrect run: {line}", file=sys.stderr)
    sys.exit(1 if bad_runs else 0)


if __name__ == "__main__":
    main()
