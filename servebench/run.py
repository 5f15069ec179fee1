#!/usr/bin/env python3
"""Served-path benchmark of refgend.

    python3 servebench/run.py --workload interactive --seed 7 --seconds 30 --trace 0

Builds refgend, refgen and servebench_trace from the repository sources
(Release, into .bench_build/ or $CARGO_TARGET_DIR), then:

  1. set-up, SETUP_REPEATS times over a stdio session (half before and
     half after step 2): launch `refgend --workers=3`, compile every
     circuit of the workload and complete one request of each class on
     each; setup_s is the median;
  2. measured phase: a `refgend --listen=0 --workers=3` set up the same
     way and given the workload's prefill, then closed-loop clients over
     loopback TCP for --seconds, with `stats` and /proc readings around it;
  3. verification of every response (see verify.py);
  4. with --trace 1, the in-process traced replay (see tracing.py).

The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The full record of the run
(metadata, every metric with its sample count, the latency breakdown, span
self times) is written to <build dir>/runs/. README.md explains the
workloads and metrics.
"""
import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

WORKERS = 3
DAEMON_FLAGS = [f"--workers={WORKERS}"]
SETUP_REPEATS = 8
CLI_COMPARES = 4


def build():
    """Configure (once) and build the three binaries; returns their paths."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmake_dir = build_dir / "servebench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "servebench-build.log"
    with open(log, "w") as out:
        steps = []
        if not (cmake_dir / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j4", "--target", "refgend",
                      "refgen", "servebench_trace"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-3000:])
                raise SystemExit(f"servebench: build failed (log: {log})")
    return build_dir, {"refgend": cmake_dir / "symref" / "refgend",
                       "refgen": cmake_dir / "symref" / "refgen",
                       "trace": cmake_dir / "servebench_trace"}


def metadata(build_dir, args, workload, completed):
    cache = (build_dir / "servebench" / "CMakeCache.txt").read_text()

    def cached(key):
        for line in cache.splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
        return ""

    compiler = cached("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return {
        "nproc": os.cpu_count(),
        "compiler": version.stdout.splitlines()[0] if version.returncode == 0 else compiler,
        "build_type": cached("CMAKE_BUILD_TYPE"),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "none",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "daemon_flags": ["--listen=0", *DAEMON_FLAGS],
        "clients": workload.connections,
        "in_flight_per_client": workload.depth,
        "mode": workload.mode,
        "setup_repeats": SETUP_REPEATS,
        "prefill_requests": len(workload.prefill),
        "requests_completed": completed,
        "latency_samples": completed,
        "samples_beyond_p90": completed - math.ceil(0.9 * completed),
        "rss_read_after_requests": workload.rss_after,
    }


def percentile(values, share):
    """Linear-interpolated percentile of a sorted list."""
    position = (len(values) - 1) * share
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def served_metrics(workload, records, failed, wall, cpu, hwm, setups, before, after):
    """End-to-end metrics as (value, unit); per-layer ones as (value, unit,
    samples)."""
    latencies = sorted(r.latency * 1e3 for r in records)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (len(records) / wall, "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms"),
        "cpu_ms_per_request": (cpu * 1e3 / len(records), "ms"),
        "peak_rss_mb": (hwm, "MiB"),
    }

    ok = [r for r in records if r.index not in failed]
    overhead = []
    queue = []
    for r in ok:
        if workload.mode == "wait":
            job = verify.job_seconds(r.line)
            overhead.append(r.latency * 1e3 - job * 1e3)
            queue.append((job - r.fields["seconds"]) * 1e3)
        else:
            overhead.append((r.latency - r.fields["seconds"]) * 1e3)
    refgens = [r for r in ok if r.request["type"] == "refgen" and not r.fields["from_cache"]]

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    lookups = delta("hits") + delta("misses")
    n = len(records)
    per_layer = {
        "protocol.overhead_ms_p50": (median_or_zero(overhead), "ms", len(overhead)),
        "api.lock_wait_ms_p50": (median_or_zero(
            [(r.fields["seconds"] - r.fields["engine_seconds"]) * 1e3 for r in refgens]), "ms",
            len(refgens)),
        "refgen.engine_ms_p50": (median_or_zero(
            [r.fields["engine_seconds"] * 1e3 for r in refgens]), "ms", len(refgens)),
        "api.cache_hit_ratio": (delta("hits") / lookups if lookups else 0.0, "ratio", lookups),
        "refgen.evaluations_per_request": (
            statistics.fmean(r.fields["total_evaluations"] for r in refgens) if refgens else 0.0,
            "count", len(refgens)),
        # `stats` counter changes per completed request, so that they do not
        # grow just because a run completes more requests.
        "sparse.fresh_factorizations": (delta("fresh_factorizations") / n, "count/req", n),
        "sparse.batched_lanes": (delta("batched_lanes") / n, "count/req", n),
        "dc.newton_iterations": (delta("newton_iterations") / n, "count/req", n),
        "transient.steps": (delta("transient_steps") / n, "count/req", n),
        "serialize.bytes_per_request": (statistics.fmean(len(r.line) for r in records), "bytes", n),
        "daemon.cores_busy": (cpu / wall, "cores", n),
        "error_ratio": (len(failed) / n, "ratio", n),
    }
    by_type = {}
    for r in records:
        by_type.setdefault(r.request["type"], []).append(r.latency * 1e3)
    breakdown = {
        "by_type": {kind: {"n": len(v), "p50": percentile(sorted(v), 0.5),
                           "p90": percentile(sorted(v), 0.9)} for kind, v in by_type.items()},
        "latency_p50_ms": end_to_end["latency_p50_ms"][0],
        "protocol.overhead_ms_p50": per_layer["protocol.overhead_ms_p50"][0],
        "daemon_queue_ms_p50": median_or_zero(queue) if queue else None,
        "api.lock_wait_ms_p50": per_layer["api.lock_wait_ms_p50"][0],
        "refgen.engine_ms_p50": per_layer["refgen.engine_ms_p50"][0],
        "result_seconds_ms_p50": median_or_zero([r.fields["seconds"] * 1e3 for r in ok]),
    }
    return end_to_end, per_layer, breakdown


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir, binaries = build()
    workload = workloads.build(args.workload, args.seed)
    workdir = build_dir / "work" / f"{args.workload}-{args.seed}-t{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / "refgend.log"

    # setup_s comes from stdio sessions: on a fresh TCP connection each
    # set-up draws 0-40 ms of Nagle/delayed-ACK stall, several times its own
    # work on small circuit sets. The TCP daemon measured below is set up
    # the same way; its set-up time is kept in the run record. Half the
    # set-ups run before the measured phase and half after it, so a slow
    # spell of the host does not cover all of them.
    setups = []

    def stdio_setups(count):
        for _ in range(count):
            daemon = None
            try:
                daemon, _, _, _, seconds = client.setup(binaries["refgend"], DAEMON_FLAGS,
                                                        workload, log, stdio=True)
                setups.append(seconds)
            finally:
                if daemon is not None:
                    daemon.stop()

    stdio_setups(SETUP_REPEATS // 2)
    daemon = None
    try:
        daemon, conn, ids, warm_lines, tcp_setup = client.setup(
            binaries["refgend"], DAEMON_FLAGS, workload, log)
        warm_lines += client.prefill(conn, workload, ids)
        before = client.engine_stats(conn, ids)
        cpu_start = daemon.cpu_seconds()
        records, wall, hwm = client.closed_loop(daemon.port, workload, ids, args.seconds, daemon)
        cpu = daemon.cpu_seconds() - cpu_start
        after = client.engine_stats(conn, ids)
        conn.sock.close()
    finally:
        if daemon is not None:
            daemon.stop()
    stdio_setups(SETUP_REPEATS - SETUP_REPEATS // 2)

    failed = verify.check(records, warm_lines)
    order = verify.served_order(records, workload.mode)
    sample = verify.cli_sample(order, failed, args.seed, CLI_COMPARES, workload.cli_window)
    failed.update(verify.cli_compare(binaries["refgen"], workdir, workload, order, sample))
    for r in records:
        r.fields = verify.fields(verify.payload(r.line)) if r.index not in failed else {}

    end_to_end, per_layer, breakdown = served_metrics(
        workload, records, failed, wall, cpu, hwm, setups, before, after)
    result = {
        "meta": metadata(build_dir, args, workload, len(records)),
        "setup_s_each": setups,
        "tcp_setup_s": tcp_setup,
        "stats_delta": {key: after[key] - before.get(key, 0) for key in after},
        "latency_breakdown_ms": breakdown,
        "failed": {str(k): v for k, v in sorted(failed.items())},
        "cli_compared": [r.index for r in sample],
    }
    if args.trace:
        spans = tracing.run(binaries["trace"], workdir, workload, records, WORKERS)
        per_layer.update(tracing.metrics(spans, records))
        result["span_self_times"] = tracing.self_times(spans)
    result["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    result["per_layer"] = {k: v for k, (v, _, _) in per_layer.items()}
    result["per_layer_samples"] = {k: n for k, (_, _, n) in per_layer.items()}

    runs = build_dir / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print("servebench meta: " + json.dumps(result["meta"]))
    print("servebench latency breakdown (ms): " + json.dumps(breakdown))
    if failed:
        print("servebench failures: " + json.dumps(result["failed"])[:2000])
    chosen = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in chosen.items()},
    }))


if __name__ == "__main__":
    main()
