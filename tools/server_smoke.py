#!/usr/bin/env python3
"""Smoke-test the refgend daemon over stdio (and one TCP session).

Usage: server_smoke.py <refgend> <refgen> <netlist>

Nine scenarios, all against the bundled netlist (the transient and
cache-bound scenarios build their own small decks — the bundled models
have no time-varying sources):
  1. Four CONCURRENT stdio-scripted sessions (one refgend process each):
     compile + submit(progress) + wait + shutdown. Validates the JSON
     event-stream shape and that every session's reference payload is
     bit-identical to a direct api::Service run (tools/refgen --json).
  2. A cancellation session on a single-worker daemon: the second submitted
     job is cancelled while queued and must come back as "cancelled",
     while the first job still completes.
  3. Error replies: unknown circuit ids surface as not_found.
  4. A Monte-Carlo param_sweep job on the daemon at 8 worker threads whose
     sample payloads are byte-identical to a direct 1-thread refgen CLI run
     (the determinism contract of the sweep engine, over the wire).
  5. A simplify job (reference-driven symbolic simplification) on the
     daemon at 8 worker threads, byte-identical to a direct 1-thread refgen
     --simplify CLI run, certificate under budget. The request carries a
     legacy "kernel" member, which must still parse. Runs on the reduced
     ua741_core.cir next to the netlist (the full model is not sparsely
     representable at a 1% budget).
  6. A transient job (nonlinear peak detector, fixed-step trapezoidal) on
     the daemon whose hex-float waveform points are byte-identical to a
     direct refgen --tran CLI run, with the step-bucket plan probe
     (fresh_factorizations == 3) asserted on both sides.
  7. Crash-safe reference store: a daemon with --store is killed with
     SIGKILL (no shutdown, no flush) right after its result lands on disk;
     a restarted daemon sharing the store dir must reply "stored": true
     with a result byte-identical to the pre-crash response. A corrupted
     store entry must be quarantined (<key>.corrupt) and recomputed.
  8. refgen --connect against a TCP daemon (--listen=0) with --json=PATH:
     the envelope lands in PATH, nothing is printed on stdout, and the
     reference is byte-identical to the direct run. A --refgen --poles
     --sweep --progress session run with --connect matches the same
     session run locally: byte-identical scrubbed responses and identical
     stderr "iter" lines.
  9. Spec churn cannot grow a handle: on a --max-cached=4 daemon, refgen
     jobs for the 8 output nodes of an RC ladder and 20 unknown output
     nodes (each failing invalid_spec) leave exactly 4 resident responses
     and 4 evictions in the circuit's stats.

Set REFGEN_CHAOS=1 to additionally run every store-scenario daemon plus a
retry session under low-probability injected faults (REFGEN_FAULT): results
must still come back ok and bit-identical to the clean baseline.
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def lines_of(output):
    parsed = []
    for line in output.splitlines():
        line = line.strip()
        if not line:
            continue
        parsed.append(json.loads(line))  # every line must be valid JSON
    return parsed


def reply(messages, rpc_id):
    found = [m for m in messages if m.get("id") == rpc_id]
    assert found, f"no reply with id {rpc_id}: {messages}"
    assert "result" in found[0], f"reply {rpc_id} is an error: {found[0]}"
    return found[0]["result"]


def run_session(daemon, script, args=(), env=None):
    proc = subprocess.Popen(
        [daemon, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    out, err = proc.communicate("".join(json.dumps(m) + "\n" for m in script), timeout=120)
    assert proc.returncode == 0, f"refgend exited {proc.returncode}: {err}"
    return lines_of(out)


SPEC = {"in": "inp", "in_neg": "inn", "out": "vo"}


def main():
    daemon, refgen, netlist_path = sys.argv[1], sys.argv[2], sys.argv[3]
    netlist = open(netlist_path).read()

    # --- Direct facade baseline (bit-exact reference payload) --------------
    direct = subprocess.run(
        [refgen, netlist_path, "--in=inp", "--in-neg=inn", "--out=vo", "--json=-"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert direct.returncode == 0, direct.stderr
    baseline = json.loads(direct.stdout)["responses"][0]
    assert baseline["status"]["code"] == "ok" and baseline["complete"] is True
    expected_reference = json.dumps(baseline["reference"], sort_keys=True)

    # --- 1. Four concurrent stdio-scripted sessions ------------------------
    script = [
        {"id": 1, "method": "compile", "params": {"netlist": netlist, "name": "ua741"}},
        {
            "id": 2,
            "method": "submit",
            "params": {
                "circuit_id": "c1",
                "request": {"type": "refgen", "spec": SPEC},
                "progress": True,
            },
        },
        {"id": 3, "method": "wait", "params": {"job_id": "j1"}},
        {"id": 4, "method": "shutdown"},
    ]
    procs = [
        subprocess.Popen(
            [daemon], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    payload = "".join(json.dumps(m) + "\n" for m in script)
    outputs = []
    for proc in procs:  # all four daemons now run their job concurrently
        proc.stdin.write(payload)
        proc.stdin.close()
    for proc in procs:
        out = proc.stdout.read()
        proc.wait(timeout=120)
        assert proc.returncode == 0, proc.stderr.read()
        outputs.append(lines_of(out))

    for i, messages in enumerate(outputs):
        compiled = reply(messages, 1)
        assert compiled["circuit_id"] == "c1" and compiled["dim"] > 30, compiled
        assert reply(messages, 2)["job_id"] == "j1"

        progress = [m for m in messages if m.get("event") == "progress"]
        assert len(progress) > 3, f"session {i}: no progress stream"
        for event in progress:
            assert event["job_id"] == "j1"
            for key in ("iteration", "purpose", "points", "evaluations",
                        "num_new_coefficients", "den_new_coefficients"):
                assert key in event, f"progress event missing {key}: {event}"
        done = [m for m in messages if m.get("event") == "done"]
        assert len(done) == 1 and done[0]["result"]["status"]["code"] == "ok"

        waited = reply(messages, 3)
        assert waited["state"] == "done" and waited["iterations"] > 3
        result = waited["result"]
        assert result["complete"] is True
        got = json.dumps(result["reference"], sort_keys=True)
        assert got == expected_reference, f"session {i}: reference differs from direct run"
        assert reply(messages, 4) == {"ok": True}
    print(f"4 concurrent sessions OK: results bit-identical to the direct facade, "
          f"{len(progress)} progress events each")

    # --- 2. Cancellation: queued job cancelled on a 1-worker daemon --------
    # j1 is a serial 6-item batch (tens of ms), so j2 is still queued behind
    # it on the single worker when the cancel lands.
    long_batch = {
        "type": "batch",
        "threads": 1,
        "items": [{"spec": SPEC, "options": {"sigma": s}} for s in range(5, 11)],
    }
    cancel_script = [
        {"id": 1, "method": "compile", "params": {"netlist": netlist}},
        {"id": 2, "method": "submit",
         "params": {"circuit_id": "c1", "request": long_batch}},
        {"id": 3, "method": "submit",
         "params": {"circuit_id": "c1",
                    "request": {"type": "refgen", "spec": SPEC,
                                "options": {"sigma": 8}}}},
        {"id": 4, "method": "cancel", "params": {"job_id": "j2"}},
        {"id": 5, "method": "poll", "params": {"job_id": "j2"}},
        {"id": 6, "method": "wait", "params": {"job_id": "j1"}},
        {"id": 7, "method": "shutdown"},
    ]
    messages = run_session(daemon, cancel_script, args=["--workers=1"])
    assert reply(messages, 4)["cancelled"] is True
    polled = reply(messages, 5)
    assert polled["state"] == "done" and polled["cancel_requested"] is True
    assert polled["result"]["status"]["code"] == "cancelled", polled
    assert reply(messages, 6)["result"]["status"]["code"] == "ok"
    print("cancel OK: queued job cancelled, first job completed")

    # --- 3. Errors are structured ------------------------------------------
    error_script = [
        {"id": 1, "method": "submit",
         "params": {"circuit_id": "c9", "request": {"type": "refgen", "spec": SPEC}}},
        {"id": 2, "method": "shutdown"},
    ]
    messages = run_session(daemon, error_script)
    errors = [m for m in messages if m.get("id") == 1]
    assert errors and errors[0]["error"]["code"] == "not_found", errors
    print("error path OK: unknown circuit_id -> not_found")

    # --- 4. param_sweep: daemon (8 threads) vs direct CLI (1 thread) --------
    # Hex-float sample payloads must be byte-identical: one shared symbolic
    # plan, counter-based Monte-Carlo draws, order-independent replays.
    direct = subprocess.run(
        [refgen, netlist_path, "--in=inp", "--in-neg=inn", "--out=vo",
         "--mc-param=ccomp:30p:0.1", "--mc-samples=32", "--seed=5",
         "--probe=1:1e6:2", "--threads=1", "--json=-"],
        capture_output=True, text=True, timeout=120,
    )
    assert direct.returncode == 0, direct.stderr
    direct_sweep = json.loads(direct.stdout)["responses"][0]
    assert direct_sweep["status"]["code"] == "ok", direct_sweep
    assert direct_sweep["fresh_factorizations"] == 1, direct_sweep["fresh_factorizations"]

    sweep_request = {
        "type": "param_sweep", "spec": SPEC, "mode": "monte_carlo",
        "params": [{"name": "ccomp", "nominal": 30e-12, "rel_sigma": 0.1}],
        "samples": 32, "seed": 5,
        "f_start_hz": 1.0, "f_stop_hz": 1e6, "points_per_decade": 2,
        "threads": 8,
    }
    sweep_script = [
        {"id": 1, "method": "compile", "params": {"netlist": netlist}},
        {"id": 2, "method": "submit",
         "params": {"circuit_id": "c1", "request": sweep_request}},
        {"id": 3, "method": "wait", "params": {"job_id": "j1"}},
        {"id": 4, "method": "shutdown"},
    ]
    messages = run_session(daemon, sweep_script)
    result = reply(messages, 3)["result"]
    assert result["status"]["code"] == "ok", result
    assert result["fresh_factorizations"] == 1, result["fresh_factorizations"]
    assert len(result["samples"]) == 32
    got = json.dumps(result["samples"], sort_keys=True)
    want = json.dumps(direct_sweep["samples"], sort_keys=True)
    assert got == want, "daemon param_sweep differs from the direct 1-thread run"
    print("param_sweep OK: 32 MC samples on the daemon byte-identical to the "
          "direct run, one shared factorization plan")

    # --- 5. simplify: daemon (8 threads) vs direct CLI (1 thread) ----------
    # The simplified model, its error certificate, and every hex-float term
    # value must be byte-identical across thread counts. The daemon request
    # keeps a legacy "kernel" member: old request files still parse.
    core_path = os.path.join(os.path.dirname(netlist_path), "ua741_core.cir")
    core_netlist = open(core_path).read()
    direct = subprocess.run(
        [refgen, core_path, "--in=inp", "--out=vo", "--simplify",
         "--error-budget=0.01", "--band=10:1e3:9", "--threads=1", "--json=-"],
        capture_output=True, text=True, timeout=300,
    )
    assert direct.returncode == 0, direct.stderr
    direct_simplify = json.loads(direct.stdout)["responses"][0]
    assert direct_simplify["status"]["code"] == "ok", direct_simplify
    cert = direct_simplify["certificate"]
    assert float.fromhex(cert["max_relative_error"]) <= cert["error_budget"], cert
    assert direct_simplify["kept_terms"] < direct_simplify["enumerated_terms"]

    simplify_request = {
        "type": "simplify", "spec": {"in": "inp", "out": "vo"},
        "error_budget": 0.01, "f_start_hz": 10.0, "f_stop_hz": 1e3,
        "band_points": 9,
        "options": {"threads": 8, "kernel": "batched"},
    }
    simplify_script = [
        {"id": 1, "method": "compile", "params": {"netlist": core_netlist}},
        {"id": 2, "method": "submit",
         "params": {"circuit_id": "c1", "request": simplify_request}},
        {"id": 3, "method": "wait", "params": {"job_id": "j1"}},
        {"id": 4, "method": "shutdown"},
    ]
    messages = run_session(daemon, simplify_script)
    result = reply(messages, 3)["result"]
    assert result["status"]["code"] == "ok", result
    scrub = ("seconds", "engine_seconds", "from_cache")
    got = json.dumps({k: v for k, v in result.items() if k not in scrub},
                     sort_keys=True)
    want = json.dumps({k: v for k, v in direct_simplify.items() if k not in scrub},
                      sort_keys=True)
    assert got == want, "daemon simplify differs from the direct 1-thread run"
    print(f"simplify OK: {result['kept_terms']} of "
          f"{result['enumerated_terms']} terms certified at 1% on the daemon, "
          f"byte-identical to the direct 1-thread run")

    # --- 6. transient: daemon vs direct CLI, byte-identical waveform --------
    # Serial time stepping with shared-nothing per-request solvers: the
    # daemon's hex-float point array must match the direct run byte for
    # byte, and both sides must report the step-bucket replay contract
    # (bias + consistent init + ONE bucket plan = 3 fresh factorizations).
    tran_netlist = (
        "* peak detector\n"
        ".model dfast d is=1e-14 n=1\n"
        "vin in 0 dc 0 sin(0 5 1k)\n"
        "rs in a 10\n"
        "d1 a out dfast\n"
        "c1 out 0 1u\n"
        "rbleed out 0 100k\n"
        ".end\n")
    with tempfile.NamedTemporaryFile(
            "w", suffix=".cir", delete=False) as handle:
        handle.write(tran_netlist)
        tran_path = handle.name
    try:
        direct = subprocess.run(
            [refgen, tran_path, "--tran=2m:4u:trap:fixed", "--threads=1",
             "--json=-"],
            capture_output=True, text=True, timeout=120,
        )
        assert direct.returncode == 0, direct.stderr
        direct_tran = json.loads(direct.stdout)["responses"][0]
        assert direct_tran["status"]["code"] == "ok", direct_tran
        assert direct_tran["fresh_factorizations"] == 3, direct_tran
        assert direct_tran["newton_iterations"] > direct_tran["steps"]

        tran_request = {"type": "transient", "tstop": 2e-3, "tstep": 4e-6,
                        "method": "trap", "adaptive": False, "threads": 8}
        tran_script = [
            {"id": 1, "method": "compile", "params": {"netlist": tran_netlist}},
            {"id": 2, "method": "submit",
             "params": {"circuit_id": "c1", "request": tran_request}},
            {"id": 3, "method": "wait", "params": {"job_id": "j1"}},
            {"id": 4, "method": "shutdown"},
        ]
        messages = run_session(daemon, tran_script)
        result = reply(messages, 3)["result"]
        assert result["status"]["code"] == "ok", result
        assert result["steps"] == 500 and len(result["points"]) == 501, result
        assert result["step_size_buckets"] == 1
        assert result["fresh_factorizations"] == 3, result["fresh_factorizations"]
        got = json.dumps(result["points"], sort_keys=True)
        want = json.dumps(direct_tran["points"], sort_keys=True)
        assert got == want, "daemon transient differs from the direct CLI run"
        print(f"transient OK: {int(result['steps'])} steps on the daemon "
              f"byte-identical to the direct run, one bucket plan, "
              f"{result['newton_iterations']} Newton iterations")
    finally:
        os.unlink(tran_path)

    # --- 7. Crash-safe store: kill -9, restart, byte-identical replay ------
    chaos = bool(os.environ.get("REFGEN_CHAOS"))
    chaos_env = None
    if chaos:
        # Low-probability, seeded faults in the engine and the work queue.
        # lu_pivot faults fall back to fresh factorizations bit-identically;
        # work_queue faults are ridden out by the submit retry policy.
        chaos_env = dict(os.environ,
                         REFGEN_FAULT="lu_pivot:0.05:1,work_queue:0.05:2")
    store_dir = tempfile.mkdtemp(prefix="refgen_store_")
    try:
        store_args = [f"--store={store_dir}"]
        request = {"type": "refgen", "spec": SPEC}
        submit_params = {"circuit_id": "c1", "request": request}
        if chaos:
            submit_params["max_attempts"] = 10
        warm_script = [
            {"id": 1, "method": "compile", "params": {"netlist": netlist}},
            {"id": 2, "method": "submit", "params": submit_params},
            {"id": 3, "method": "wait", "params": {"job_id": "j1"}},
        ]

        # First daemon: compute, let the result persist, then pull the plug
        # with SIGKILL — no shutdown handshake, no flush, a real crash.
        proc = subprocess.Popen(
            [daemon, *store_args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=chaos_env,
        )
        for message in warm_script:
            proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
        messages = []
        while not any(m.get("id") == 3 for m in messages):
            line = proc.stdout.readline()
            assert line, "daemon closed stdout before the wait reply"
            messages.append(json.loads(line))
        assert "stored" not in reply(messages, 2), "cold store must not replay"
        pre_crash = reply(messages, 3)["result"]
        assert pre_crash["status"]["code"] == "ok", pre_crash
        # Persistence runs in the job-completion callback; the entry is only
        # visible under its final name after fsync+rename, so once listed it
        # is durable and the crash cannot lose it.
        deadline = time.time() + 30
        entries = []
        while not entries:
            assert time.time() < deadline, "store entry never appeared on disk"
            entries = [f for f in os.listdir(store_dir)
                       if not f.endswith((".tmp", ".corrupt"))]
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=120)
        assert proc.returncode == -signal.SIGKILL

        # Restarted daemon sharing the store dir: warm replay, byte-identical.
        messages = run_session(
            daemon, [*warm_script, {"id": 4, "method": "shutdown"}],
            args=store_args, env=chaos_env)
        assert reply(messages, 2).get("stored") is True, reply(messages, 2)
        replayed = reply(messages, 3)["result"]
        assert json.dumps(replayed, sort_keys=True) == \
            json.dumps(pre_crash, sort_keys=True), \
            "replayed result differs from the pre-crash response"

        # Corrupt the entry (flip the first payload byte, header intact):
        # the next daemon must quarantine it and recompute from scratch.
        entry_path = os.path.join(store_dir, entries[0])
        with open(entry_path, "r+b") as handle:
            handle.readline()
            position = handle.tell()
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0x01]))
        messages = run_session(
            daemon,
            [*warm_script,
             {"id": 4, "method": "stats", "params": {"circuit_id": "c1"}},
             {"id": 5, "method": "shutdown"}],
            args=store_args, env=chaos_env)
        assert "stored" not in reply(messages, 2), "corrupt entry must not replay"
        recomputed = reply(messages, 3)["result"]
        assert recomputed["status"]["code"] == "ok", recomputed
        assert recomputed["complete"] is True, recomputed
        if chaos:
            # A fresh factorization after an injected pivot refusal may pick
            # a different (equally valid) pivot order on this 45-dim matrix,
            # so exact bytes are only guaranteed for store REPLAYS. The
            # recompute must still be a complete, structurally identical
            # reference.
            want = json.loads(expected_reference)
            got = recomputed["reference"]
            assert len(got["denominator"]["coefficients"]) == \
                len(want["denominator"]["coefficients"]), recomputed
        else:
            assert json.dumps(recomputed["reference"], sort_keys=True) == \
                expected_reference, "recomputed reference differs from baseline"
        store_stats = reply(messages, 4)["store"]
        assert store_stats["corrupt_quarantined"] == 1, store_stats
        assert os.path.exists(entry_path + ".corrupt"), "quarantine file missing"
        print("store OK: kill -9 survived, restart replayed the pre-crash "
              "response byte-identically, corrupt entry quarantined + recomputed"
              + (" [chaos: REFGEN_FAULT active]" if chaos else ""))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    # --- 8. refgen --connect honours --json=PATH ---------------------------
    # A remote session writes its envelope where --json points, exactly like
    # a local run: the file holds the envelope and stdout stays empty.
    listener = subprocess.Popen([daemon, "--listen=0"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
    out_dir = tempfile.mkdtemp(prefix="refgen-connect-")
    try:
        banner = listener.stdout.readline()
        assert banner.startswith("refgend: listening on "), banner
        target = banner.rsplit(" ", 1)[1].strip()
        envelope_path = os.path.join(out_dir, "envelope.json")
        remote = subprocess.run(
            [refgen, netlist_path, "--in=inp", "--in-neg=inn", "--out=vo",
             "--connect=" + target, "--json=" + envelope_path],
            capture_output=True, text=True, timeout=120,
        )
        assert remote.returncode == 0, remote.stderr
        assert remote.stdout == "", "--connect --json=PATH printed on stdout"
        with open(envelope_path) as handle:
            envelope = json.load(handle)
        assert envelope["status"]["code"] == "ok" and envelope["ok"] is True, envelope
        got = json.dumps(envelope["responses"][0]["reference"], sort_keys=True)
        assert got == expected_reference, "--connect reference differs from the direct run"
        print("connect OK: --json=PATH written by the remote session, stdout "
              "empty, reference byte-identical to the direct run")

        # One request runner: the daemon and the local CLI answer the same
        # session with the same responses and the same --progress lines.
        session = [refgen, netlist_path, "--in=inp", "--in-neg=inn", "--out=vo",
                   "--refgen", "--poles", "--sweep=1:1e8:10", "--progress", "--json=-"]
        local = subprocess.run(session, capture_output=True, text=True, timeout=120)
        remote = subprocess.run([*session, "--connect=" + target],
                                capture_output=True, text=True, timeout=120)
        assert local.returncode == 0, local.stderr
        assert remote.returncode == 0, remote.stderr

        def scrub(node):
            if isinstance(node, dict):
                return {k: scrub(v) for k, v in node.items()
                        if k not in ("seconds", "engine_seconds")}
            if isinstance(node, list):
                return [scrub(v) for v in node]
            return node

        def responses(run):
            return json.dumps(scrub(json.loads(run.stdout)["responses"]), sort_keys=True)

        def iter_lines(run):
            return [line for line in run.stderr.splitlines()
                    if line.lstrip().startswith("iter ")]

        assert responses(remote) == responses(local), \
            "--connect session responses differ from the local run"
        assert iter_lines(local), "local --progress printed no iter lines"
        assert iter_lines(remote) == iter_lines(local), \
            "--connect --progress lines differ from the local run"
        print(f"connect --progress OK: 3 responses byte-identical to the local "
              f"run, {len(iter_lines(local))} identical iter lines")
    finally:
        listener.terminate()
        listener.wait(timeout=30)
        shutil.rmtree(out_dir, ignore_errors=True)

    # --- 9. Spec churn: the cache bound holds per request type per handle --
    nodes = ["in"] + [f"n{k}" for k in range(1, 9)]
    ladder = "".join(f"R{k} {nodes[k - 1]} {nodes[k]} 1k\nC{k} {nodes[k]} 0 1n\n"
                     for k in range(1, 9))
    outputs = nodes[1:] + [f"nowhere{i}" for i in range(20)]
    churn_script = [{"id": 1, "method": "compile", "params": {"netlist": ladder}}]
    for i, out in enumerate(outputs):
        churn_script += [
            {"id": 100 + i, "method": "submit",
             "params": {"circuit_id": "c1",
                        "request": {"type": "refgen", "spec": {"in": "in", "out": out}}}},
            {"id": 200 + i, "method": "wait", "params": {"job_id": f"j{i + 1}"}},
        ]
    churn_script += [{"id": 2, "method": "stats", "params": {"circuit_id": "c1"}},
                     {"id": 3, "method": "shutdown"}]
    messages = run_session(daemon, churn_script, args=["--max-cached=4"])
    codes = [reply(messages, 200 + i)["result"]["status"]["code"]
             for i in range(len(outputs))]
    assert codes == ["ok"] * 8 + ["invalid_spec"] * 20, codes
    stats = reply(messages, 2)
    assert stats["entries"] == 4 and stats["evictions"] == 4, stats
    print(f"cache bound OK: {len(outputs)} specs on a --max-cached=4 handle left "
          f"{stats['entries']} entries after {stats['evictions']} evictions")


if __name__ == "__main__":
    main()
