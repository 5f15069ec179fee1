"""Response checks of the served-path benchmark.

A response counts as failed when
  * its call returned an error, or its payload status is not "ok";
  * it repeats an earlier request exactly, and its payload is not
    byte-identical to that request's once `seconds`, `engine_seconds` and
    `from_cache` are removed;
  * it was picked for the CLI compare (a seeded sample of computed
    responses) and differs from `refgen --requests=... --json=-`, which runs
    the same request through api::Service in-process.
"""
import json
import random
import re
import subprocess

_RESULT = b'"result":{"type":"'
_SCRUB = re.compile(rb'"(?:seconds|engine_seconds)":[^,}]*,?|"from_cache":(?:true|false),?')
_FIELDS = re.compile(rb'"(seconds|engine_seconds|total_evaluations)":([^,}]+)')
_JOB_SECONDS = re.compile(rb'"seconds":([^,}]+),"attempts"')
_SCRUB_KEYS = ("seconds", "engine_seconds", "from_cache")


def payload(line):
    """The response object of a wait reply or a done event (bytes), or None."""
    if line is None:
        return None
    start = line.find(_RESULT)
    if start < 0:
        return None
    tail = 2 if line.startswith(b'{"id":') else 1
    return line[start + len(b'"result":'):len(line) - tail]


def is_ok(body, request_type):
    prefix = b'{"type":"%s","status":{"code":"ok"}' % request_type.encode()
    return body is not None and body.startswith(prefix)


def scrubbed(body):
    return _SCRUB.sub(b"", body)


def fields(body):
    """seconds / engine_seconds / total_evaluations / from_cache of a payload."""
    head = body[:1024]
    out = {key.decode(): float(value) for key, value in reversed(_FIELDS.findall(head))}
    out["from_cache"] = b'"from_cache":true' in head
    return out


def job_seconds(line):
    """JobInfo seconds of a wait reply (submit to done inside the daemon)."""
    match = _JOB_SECONDS.search(line[:400])
    return float(match.group(1)) if match else None


def canonical(response):
    return json.dumps({k: v for k, v in response.items() if k not in _SCRUB_KEYS},
                      sort_keys=True)


def check(records, warm_lines):
    """Indices of failed records: error, non-ok status or a changed cache hit."""
    failed = {}
    bodies = [payload(r.line) for r in records]
    warm = [payload(line) for line in warm_lines]
    for record, body in zip(records, bodies):
        if not is_ok(body, record.request["type"]):
            failed[record.index] = "status" if body is not None else "error reply"
            continue
        # A repeat the cache no longer held was recomputed; see cli_compare
        # for why that need not reproduce the first response's last bits.
        if record.origin is None or not fields(body)["from_cache"]:
            continue
        first = warm[-1 - record.origin] if record.origin < 0 else bodies[record.origin]
        if first is None or scrubbed(first) != scrubbed(body):
            failed[record.index] = f"cache hit differs from request {record.origin}"
    return failed


def served_order(records, mode):
    """Records in the order the daemon ran them: stream order for one
    request in flight, completion order for pushed done events."""
    if mode == "wait":
        return list(records)
    return sorted(records, key=lambda r: r.sent + r.latency)


def cli_sample(order, failed, seed, count, window):
    """Seeded pick of computed, successful records among the first `window`
    the daemon ran."""
    computed = [r for r in order[:window]
                if r.index not in failed and not fields(payload(r.line))["from_cache"]]
    rng = random.Random(f"cli/{seed}")
    return rng.sample(computed, min(count, len(computed)))


def cli_compare(refgen, workdir, workload, order, sample):
    """Failed indices of `sample` against the in-process CLI.

    A warm spec replays the pivot order its earlier requests left behind, so
    a result's last bits depend on what ran before it on that spec. The CLI
    session therefore replays the circuit's history: its warm-up and prefill
    requests, then every request on it up to the sampled one, in the
    daemon's order.
    """
    failed = {}
    position = {r.index: p for p, r in enumerate(order)}
    for record in sample:
        circuit = workload.circuit(record.circuit)
        session = [request for name, request in workload.warmup + workload.prefill
                   if name == circuit.name]
        session += [r.request for r in order[:position[record.index] + 1]
                    if r.circuit == circuit.name]
        netlist = workdir / f"cli-{record.index}.cir"
        requests = workdir / f"cli-{record.index}.json"
        netlist.write_text(circuit.netlist)
        requests.write_text(json.dumps(session))
        run = subprocess.run([str(refgen), str(netlist), f"--requests={requests}", "--json=-"],
                             capture_output=True, text=True, timeout=120)
        try:
            expected = json.loads(run.stdout)["responses"][-1]
        except (ValueError, KeyError, IndexError):
            failed[record.index] = f"cli failed: {run.stderr.strip()[:200]}"
            continue
        if canonical(json.loads(payload(record.line))) != canonical(expected):
            failed[record.index] = "differs from the in-process CLI"
    return failed
