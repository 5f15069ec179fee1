"""The traced run: replay a workload in-process and reduce its spans.

servebench_trace replays the stream of the measured run (same seed, same
order, at most `workload.trace_cap` requests) and writes its spans; this
module turns them into the per-layer metrics that need a trace. A layer's
self time is its span minus the part its child spans cover. A layer the
workload never reaches reads 0.
"""
import json
import statistics
import subprocess
from collections import defaultdict


def run(binary, workdir, workload, records, workers):
    stream = records[:workload.trace_cap]
    replay = {
        "depth": workload.connections * workload.depth,
        "workers": workers,
        "circuits": [{"name": c.name, "netlist": c.netlist, "spec": c.spec}
                     for c in workload.circuits],
        # The prefill replays as more warm-up, so the caches match the run's.
        "warmup": [{"circuit": name, "request": request}
                   for name, request in workload.warmup + workload.prefill],
        "stream": [{"circuit": r.circuit, "request": r.request} for r in stream],
    }
    source = workdir / "trace-in.json"
    spans_path = workdir / "trace-spans.json"
    source.write_text(json.dumps(replay))
    subprocess.run([str(binary), str(source), str(spans_path)], check=True, timeout=170)
    spans = json.loads(spans_path.read_text())["spans"]
    for span in spans:  # JSON numbers come back as floats
        span["request"] = int(span["request"])
        span["parent"] = int(span["parent"])
    return spans


def self_times(spans):
    """Total and self milliseconds per span name."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]] += span["end_us"] - span["start_us"]
    table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for i, span in enumerate(spans):
        duration = span["end_us"] - span["start_us"]
        row = table[span["name"]]
        row["calls"] += 1
        row["total_ms"] += duration / 1e3
        row["self_ms"] += (duration - children[i]) / 1e3
    return dict(table)


def _median(values):
    return statistics.median(values) if values else 0.0


def metrics(spans, records):
    """Per-layer metrics of the traced run as (value, unit, samples), where
    samples counts the spans behind the value."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def ms(span):
        return (span["end_us"] - span["start_us"]) / 1e3

    def stream_spans(name):
        return [s for s in by_name[name] if s["request"] >= 0]

    def median_of(name, unit, scale=1.0):
        chosen = stream_spans(name)
        return _median([ms(s) * scale for s in chosen]), unit, len(chosen)

    def per_count(name):
        """Microseconds of span time per unit of the spans' count (points,
        samples, steps)."""
        chosen = stream_spans(name)
        count = sum(s["count"] for s in chosen)
        return (sum(ms(s) for s in chosen) * 1e3 / count if count else 0.0), "us", len(chosen)

    def compiled(*names):
        """Compile-pass time summed over the workload's circuits."""
        return (sum((ms(s) for name in names for s in by_name[name]), 0.0), "ms",
                len(by_name[names[0]]))

    newton_iterations = sum(s["count"] for s in by_name["dc.op"])

    engine = {s["request"]: ms(s) for s in stream_spans("refgen.engine")}
    one_lane = {s["request"]: ms(s) for s in stream_spans("mna.evaluate")}
    three_lanes = {s["request"]: ms(s) for s in stream_spans("mna.evaluate_t3")}
    own = {}
    for index in engine:
        options = records[index].request.get("options", {})
        own[index] = three_lanes[index] if options.get("threads", 1) > 1 else one_lane[index]

    traced = {s["request"]: ms(s) for s in stream_spans("service.call")}
    daemon_ms = 0.0
    traced_ms = 0.0
    matched = 0
    for index, value in traced.items():
        seconds = records[index].fields.get("seconds") if records[index].fields else None
        if seconds:
            daemon_ms += seconds * 1e3
            traced_ms += value
            matched += 1

    return {
        "protocol.decode_us_p50": median_of("protocol.decode", "us", 1e3),
        "serialize.encode_ms_p50": median_of("serialize.encode", "ms"),
        "jobs.queue_ms_p50": median_of("jobs.queue", "ms"),
        "netlist.parse_ms": compiled("netlist.parse"),
        "netlist.elaborate_ms": compiled("netlist.elaborate"),
        "netlist.canonicalize_ms": compiled("netlist.canonicalize"),
        "dc.op_ms": compiled("dc.op", "dc.linearize"),
        "dc.newton_us_per_iteration": (
            compiled("dc.op")[0] * 1e3 / newton_iterations if newton_iterations else 0.0, "us",
            len(by_name["dc.op"])),
        "mna.build_ms": compiled("mna.build"),
        "mna.evaluate_ms_per_request": (
            statistics.fmean(own.values()) if own else 0.0, "ms", len(own)),
        "refgen.self_ms_per_request": (
            statistics.fmean(engine[i] - own[i] for i in engine) if engine else 0.0, "ms",
            len(engine)),
        "mna.evaluate_speedup_t3": (
            sum(one_lane.values()) / sum(three_lanes.values()) if three_lanes else 0.0, "ratio",
            len(three_lanes)),
        "mna.bode_us_per_point": per_count("mna.bode"),
        "mna.param_sweep_us_per_sample": per_count("mna.param_sweep"),
        "numeric.roots_ms": median_of("numeric.roots", "ms"),
        "transient.us_per_step": per_count("transient.solve"),
        "trace.overhead_ratio": (traced_ms / daemon_ms if daemon_ms else 0.0, "ratio", matched),
    }
