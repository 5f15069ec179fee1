#!/usr/bin/env python3
"""Alternating parent/change pairs of the served-path benchmark.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload bulk --seed 7 --pairs 10

Runs BENCHMARK.json's command (`servebench/run.py --trace 0`) in the two
checkouts in turn, at BENCHMARK.json's `run_seconds`. Each checkout builds
into its own CARGO_TARGET_DIR (<checkout>/.bench_build), and the side that
runs first alternates from pair to pair. The host's steal ticks (/proc/stat)
are read around every run and printed with it, so a disturbed run shows as
one. The printed lines are the record of every run.

For every end-to-end metric of BENCHMARK.json it then prints each side's
median and quartiles, the pairs the change wins (ties count for neither),
the change of the median in percent and the bound check: `worse` when the
change's median is worse than the parent's by more than the metric's bound,
else `unresolved` when the parent's interquartile range exceeds the bound
and not every change run reads better than every parent run, else `ok`.
`gain` marks a metric the change wins in at least nine of ten pairs, over
ten pairs or more, with medians further apart than the parent's
interquartile range. Exit status 1 means a run was not correct or a metric
read `worse` or `unresolved`. Nothing is written under servebench/.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def steal_ticks():
    """Steal ticks of all CPUs since boot (0 where /proc/stat has none)."""
    try:
        fields = pathlib.Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def run_once(checkout, command, workload, seed, seconds):
    """One benchmark run in `checkout`; returns its record."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    steal_before = steal_ticks()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    steal = steal_ticks() - steal_before
    record = {"steal_ticks": steal, "correct": False, "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return record
    record["correct"] = bool(last.get("correct")) and proc.returncode == 0
    record["attempted"] = last.get("attempted")
    record["failed"] = last.get("failed")
    record["metrics"] = {name: m["value"] for name, m in last.get("metrics", {}).items()}
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(metric, parent, change):
    """Summary row of one end-to-end metric over paired runs."""
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    delta = (cm - pm) / pm if pm else 0.0
    worse_by = delta if lower else -delta
    spread = (p3 - p1) / pm if pm else 0.0
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if worse_by > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    better_by = pm - cm if lower else cm - pm
    gain = len(parent) >= 10 and wins >= 0.9 * len(parent) and better_by > p3 - p1
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
            "pairs": len(parent), "delta_pct": 100.0 * delta, "verdict": verdict,
            "gain": gain}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], bench["command"], args.workload, args.seed,
                              bench["run_seconds"])
            runs[side].append(record)
            shown = " ".join(f"{m['name']}={record['metrics'].get(m['name'], float('nan')):.4g}"
                             for m in bench["end_to_end"])
            print(f"pair {pair + 1} {side:6s} correct={record['correct']} "
                  f"steal={record['steal_ticks']} {shown}"
                  + (f" error={record['error']}" if "error" in record else ""), flush=True)

    bad = any(not r["correct"] for side in runs.values() for r in side)
    print(f"\n{args.workload} seed {args.seed}: {args.pairs} pairs at {bench['run_seconds']} s; "
          "median [q1, q3] per side")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if len(pairs) < args.pairs:
            print(f"{name}: missing from {args.pairs - len(pairs)} pairs")
            bad = True
        if not pairs:
            continue
        row = judge(metric, [p for p, _ in pairs], [c for _, c in pairs])
        bad = bad or row["verdict"] != "ok"
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        print(f"{name:20s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}]  wins {row['wins']}/{row['pairs']}  "
              f"{row['delta_pct']:+.1f}%  bound {100 * metric['bound']:.0f}%  "
              f"{row['verdict']}{'  gain' if row['gain'] else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
