#!/usr/bin/env python3
"""Smoke-test the refgen CLI end to end: cli_smoke.py <refgen>

The counterpart of server_smoke.py. Checks the --json envelope, payloads
byte-identical at 1 vs 8 threads, the range flags, that refgen and sweep
agree on decks with controlled sources, unknown flags, the error paths and
one exit code per status class (docs/api.md), from any working directory.
Every case runs; the exit status is 1 if any failed.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import time

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
UA741, UA741_CORE, UA741_NPN, TWO_STAGE = (os.path.join(DATA, name) for name in (
    "ua741.cir", "ua741_core.cir", "ua741_npn.cir", "two_stage_amp.cir"))
PEAK_DETECTOR = ("* peak detector\n.model dfast d is=1e-14 n=1\nvin in 0 dc 0 sin(0 5 1k)\n"
                 "rs in a 10\nd1 a out dfast\nc1 out 0 1u\nrbleed out 0 100k\n.end\n")
ACTIVE_DECKS = {  # one deck per construction: E, O, and F and H with the 0 V source they sense
    "sallen_key": "R1 in a 10k\nR2 a b 10k\nC1 a out 10n\nC2 b 0 10n\nE1 out 0 b 0 1.586\n",
    "inverting_amplifier": "R1 in m 1k\nR2 m out 10k\nC2 m out 1n\nO1 out 0 m\n",
    "current_amplifier": "R1 in a 1k\nVs a b 0\nR2 b 0 1k\nF1 0 out Vs 10\nR3 out 0 1k\n"
                         "C3 out 0 1n\n",
    "ccvs_stage": "R1 in a 1k\nVs a b 0\nR2 b 0 1k\nH1 out 0 Vs 500\nR3 out 0 1k\nC3 out 0 1n\n"}
REFGEN = SCRATCH = ""  # set by main()


def scrub(node):
    """`node` without its wall-clock members, the only ones that may differ between runs."""
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items() if k not in ("seconds", "engine_seconds")}
    return [scrub(v) for v in node] if isinstance(node, list) else node


def dumps(node):
    return json.dumps(scrub(node), sort_keys=True)


def scratch(name, text):
    path = os.path.join(SCRATCH, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def run(*args, env=None):
    return subprocess.run([REFGEN, *args], capture_output=True, text=True, timeout=300,
                          env=None if env is None else dict(os.environ, **env))


def envelope(*args, env=None):
    """The --json envelope of a run that must exit 0."""
    done = run(*args, "--json=-", env=env)
    assert done.returncode == 0, (args, done.returncode, done.stderr)
    return json.loads(done.stdout)


def same_at_1_and_8(*args, env=None):
    """The 1-thread envelope, once the 8-thread one scrubs to the same bytes."""
    one, eight = (envelope(*args, f"--threads={t}", env=env) for t in (1, 8))
    assert one["status"]["code"] == "ok", one["status"]
    assert dumps(one) == dumps(eight), f"{args}: payloads differ at 1 vs 8 threads"
    return one


def expect_exit(code, *args, says=(), env=None):
    done = run(*args, env=env)
    assert done.returncode == code, f"{args}: exit {done.returncode}, want {code}: {done.stderr}"
    for text in says:
        assert text in done.stderr, f"{args}: stderr lacks {text!r}: {done.stderr}"


def json_shape():
    path = os.path.join(SCRATCH, "out.json")
    done = run(UA741, "--in=inp", "--out=vo", "--refgen", "--poles", "--json=" + path)
    assert done.returncode == 0, done.stderr
    with open(path) as handle:
        d = json.load(handle)
    assert d["status"]["code"] == "ok" and d["ok"] is True and d["circuit"]["dim"] > 30
    assert [r["type"] for r in d["responses"]] == ["refgen", "poles_zeros"], d["responses"]
    ref, poles = d["responses"][0], d["responses"][1]["poles"]
    assert ref["status"]["code"] == "ok" and ref["complete"] is True
    den = ref["reference"]["denominator"]
    assert len(den["coefficients"]) == den["order_bound"] + 1
    assert den["coefficients"][0]["value"]["mantissa"].startswith("0x")
    assert len(poles) > 30  # 38 poles on the full µA741
    return f"{len(den['coefficients'])} denominator coefficients, {len(poles)} poles"


def session_equals_requests_alone():
    # No engine state survives a request, so a session on one handle must
    # answer every request byte for byte like the same request run alone.
    spec = {"in": "inp", "out": "vo"}
    requests = [{"type": "refgen", "spec": spec, "options": {"sigma": s, "tuning_r": r}}
                for s in (4, 6, 9) for r in (0.5, 1, 2)] + [
        {"type": "poles_zeros", "spec": spec},
        {"type": "sweep", "spec": spec, "f_start_hz": 1, "f_stop_hz": 1e8, "points_per_decade": 20},
        {"type": "sweep", "spec": spec, "f_start_hz": 10, "f_stop_hz": 1e7, "points_per_decade": 7}]

    def responses(document):
        path = scratch("requests.json", json.dumps(document))
        return [dumps(r) for r in envelope(UA741, "--requests=" + path)["responses"]]

    session = responses(requests)
    assert len(session) == len(requests) == 12, len(session)
    differ = [i for i, request in enumerate(requests) if responses(request) != [session[i]]]
    assert not differ, f"session responses {differ} differ from the request run alone"
    return "12 responses byte-identical to their requests run alone"


def param_sweep_threads():
    a = same_at_1_and_8(TWO_STAGE, "--in=vin", "--out=vout", "--sweep-param=ccomp:1p:4p:4",
                        "--probe=1e3:1e8:3")["responses"][0]
    assert a["status"]["code"] == "ok", a["status"]
    assert a["fresh_factorizations"] == 1, a["fresh_factorizations"]
    assert len(a["samples"]) == 4 and a["names"] == ["ccomp"]
    assert a["samples"][0]["response"][0]["real"].startswith(("0x", "-0x"))
    return "4 grid samples on the hierarchical netlist, one factorization plan"


def range_flags():
    ports = (TWO_STAGE, "--in=vin", "--out=vout")
    a, b = envelope(*ports, "--sweep=1k:10meg:1"), envelope(*ports, "--sweep=1e3:1e7:1")
    assert a["status"]["code"] == "ok" and a["responses"][0]["status"]["code"] == "ok"
    assert dumps(a) == dumps(b), "--sweep=1k:10meg:1 differs from --sweep=1e3:1e7:1"
    freqs = [p["frequency_hz"] for p in a["responses"][0]["points"]]
    assert len(freqs) == 5 and freqs[0] == 1e3 and freqs[-1] == 1e7, freqs
    expect_exit(2, *ports, "--sweep=1:1e3:2x", says=["bad --sweep range"])
    for count in ("1e3", "3x"):
        expect_exit(2, *ports, f"--sweep-param=ccomp:1p:10p:{count}", says=["bad --sweep-param"])
    return "1k:10meg:1 sweeps 5 points like 1e3:1e7:1; counts that are not whole exit 2"


def simplify_threads():
    a = same_at_1_and_8(UA741_CORE, "--in=inp", "--out=vo", "--simplify", "--error-budget=0.01",
                        "--band=10:1e3:9")["responses"][0]
    assert a["status"]["code"] == "ok", a["status"]
    cert = a["certificate"]
    assert float.fromhex(cert["max_relative_error"]) <= cert["error_budget"], cert
    assert a["kept_terms"] < a["enumerated_terms"]  # strictly smaller model
    assert a["prune_actions"], "pruning stage committed no reductions"
    # Plan reuse: fresh factorizations are the rare pivot-stability fallback.
    assert a["ranking_fresh_factorizations"] * 50 < a["term_evals"]
    return f"{a['kept_terms']} of {a['enumerated_terms']} terms at a 1% certified budget"


def op_threads():
    # The AC requests run on the deck linearized at its bias, with no opt-in.
    d = same_at_1_and_8(UA741_NPN, "--op", "--in=inp", "--in-neg=inn", "--out=vo", "--refgen",
                        "--sweep=1:1e8:3")
    assert [r["type"] for r in d["responses"]] == ["op", "refgen", "sweep"], d["responses"]
    op = d["responses"][0]
    # The 24-junction Newton solve replays ONE shared factorization plan.
    assert op["newton_iterations"] > 1 and op["fresh_factorizations"] == 1, op
    assert "degraded" not in op and "pivot_escalations" not in op
    assert float.fromhex(op["max_residual"]) < 1e-9
    volts = {n["name"]: n for n in op["nodes"]}
    assert volts["vcc"]["volts"] == 15.0 and volts["vee"]["volts"] == -15.0
    assert volts["vo"]["v"].startswith(("0x", "-0x"))  # bit-exact hex form
    assert len(op["devices"]) == 19
    dc_gain_db = d["responses"][2]["points"][0]["magnitude_db"]
    assert dc_gain_db > 100.0, dc_gain_db  # the linearized open-loop gain
    return f"{op['newton_iterations']} Newton iterations, {dc_gain_db:.1f} dB DC gain"


def device_monte_carlo_threads():
    # r5 as a .param: every sample moves the bias and runs its own Newton solve.
    with open(UA741_NPN) as handle:
        deck = handle.read()
    r5, vcc = "\nr5 b11 bias 39000\n", "\nvcc vcc 0 "
    assert r5 in deck and vcc in deck
    path = scratch("ua741_npn_mc.cir", deck.replace(r5, "\nr5 b11 bias {r5v}\n")
                   .replace(vcc, "\n.param r5v=39000" + vcc))
    mc = same_at_1_and_8(path, "--in=inp", "--in-neg=inn", "--out=vo", "--mc-param=r5v:39000:0.05",
                         "--mc-samples=64", "--seed=3", "--probe=1:1e8:2")["responses"][0]
    assert mc["type"] == "param_sweep" and len(mc["samples"]) == 64
    assert mc["op_solves"] == 65, mc["op_solves"]  # nominal + one per sample
    assert all(s["ok"] for s in mc["samples"])
    return f"64 re-biased samples, {mc['newton_iterations']} Newton iterations"


def transient_threads():
    tran = same_at_1_and_8(scratch("peak.cir", PEAK_DETECTOR),
                           "--tran=2m:2u:trap:fixed")["responses"][0]
    assert tran["type"] == "transient" and tran["steps"] == 1000 and len(tran["points"]) == 1001
    # Plan-replay contract: bias + consistent init + ONE step bucket.
    assert tran["step_size_buckets"] == 1 and tran["fresh_factorizations"] == 3, tran
    assert tran["newton_iterations"] > tran["steps"]  # the diode ran Newton
    assert "degraded" not in tran and "pivot_escalations" not in tran
    assert tran["points"][-1]["v"][0].startswith(("0x", "-0x"))
    return f"1000 steps, one bucket plan, {tran['newton_iterations']} Newton iterations"


def refused_replay_threads():
    # Every point runs the fresh-factorization fallback on its pool lane.
    d = same_at_1_and_8(UA741, "--in=inp", "--out=vo", "--refgen", "--poles", "--sweep=1:1e8:20",
                        env={"REFGEN_FAULT": "lu_pivot:1"})
    assert [r["type"] for r in d["responses"]] == ["refgen", "sweep", "poles_zeros"]
    assert all(r["status"]["code"] == "ok" for r in d["responses"]), d["responses"]
    return f"{d['responses'][0]['total_evaluations']} refgen evaluations, every replay refused"


def active_decks_match_sweep():
    # refgen and sweep describe one circuit: the reference's coefficients,
    # evaluated at every sweep frequency, give the sweep's response.
    worst = {}
    for name, deck in ACTIVE_DECKS.items():
        ref, sweep = envelope(scratch(name + ".cir", deck + ".end\n"), "--in=in", "--out=out",
                              "--refgen", "--sweep=1:1e9:2")["responses"]
        assert ref["status"]["code"] == "ok" and ref["complete"] is True, (name, ref["status"])
        num, den = ([c["value"]["approx"] for c in ref["reference"][part]["coefficients"]]
                    for part in ("numerator", "denominator"))
        errors = []
        for point in sweep["points"]:
            s = 2j * math.pi * point["frequency_hz"]
            h = sum(c * s**i for i, c in enumerate(num)) / sum(c * s**i for i, c in enumerate(den))
            want = complex(point["real"], point["imag"])
            errors.append(abs(h - want) / abs(want))
        worst[name] = max(errors)
    assert max(worst.values()) <= 1e-12, f"refgen differs from the sweep: {worst}"
    return ", ".join(f"{name} {error:.1e}" for name, error in worst.items())


def error_paths():
    expect_exit(3, scratch("badexpr.cir", ".param g=0\nR1 a 0 {1/g}\nC1 a 0 1n\n"), "--in=a",
                "--out=0", says=["division by zero", "line 2, column 10"])
    expect_exit(3, scratch("bad.cir", "R1 a 0 1k\nC1 a 0 bogus\n"), "--in=a", "--out=0",
                says=["parse_error", "column"])
    deep = "R1 in 0 {" + "(" * 50000 + "1k" + ")" * 50000 + "}\n"  # typed, no stack overflow
    expect_exit(3, scratch("deep.cir", deep), "--in=in", "--out=0", says=["nested deeper"])
    return "bad values and {expr} exit 3 with a position"


def exit_codes():
    ports = (UA741, "--in=inp", "--out=vo")
    expect_exit(4, UA741, "--in=inp", "--out=nosuch")
    # A sweep resolves its spec by refgen's rules.
    for spec in ("--in=nosuch --out=vo", "--in=inp --in-neg=inp --out=vo", "--in=0 --out=vo",
                 "--transimpedance --in=inp --in-neg=inp --out=vo"):
        expect_exit(4, UA741, *spec.split(), "--sweep=1:1e3:1")
    for budget in ("1e10", "inf", "nan"):  # the clock cannot hold it: usage
        expect_exit(2, *ports, f"--timeout={budget}")
    for flags in ("--sigma=abc", "--sigma=7x", "--threads=1e10", "--simplify --error-budget=abc",
                  "--mc-param=ccomp:30p:0.1 --mc-samples=abc"):
        expect_exit(2, *ports, *flags.split(), says=["bad --"])
    for _ in range(20):  # a spent budget cancels the next request, every run
        expect_exit(9, *ports, "--timeout=0.000001")
    island = scratch("island.cir", "R1 in 0 1k\nR2 x y 1k\n.end\n")
    for fault in ("", "lu_pivot:1"):
        for request in ("--refgen", "--sweep=1:1e3:2", "--poles"):
            expect_exit(6, island, "--transimpedance", "--in=in", "--out=x", request,
                        env={"REFGEN_FAULT": fault})
    return "invalid_spec 4, usage 2, cancelled 9 (20 of 20), singular_system 6"


def mode_flags():
    # A flag the run's mode does not use exits 2 naming it, before anything
    # is compiled or dialed (port 1 refuses, so a dial would fail instead).
    ports = (UA741, "--in=inp", "--out=vo")
    for flag in ("--retry=abc", "--retry=1", "--deadline-ms=xyz", "--deadline-ms=100"):
        expect_exit(2, *ports, flag, says=[flag.split("=")[0]])
    for flag in ("--timeout=abc", "--timeout=0.000001"):
        expect_exit(2, *ports, "--connect=127.0.0.1:1", flag, says=["--timeout"])
    return "--retry and --deadline-ms without --connect, --timeout with it, exit 2"


def unknown_flags():
    # A flag refgen does not read exits 2 naming it: a near miss, and the
    # retired --kernel and --auto-linearize. So does a switch given a value,
    # which would otherwise read as the bare switch.
    ports = (UA741, "--in=inp", "--out=vo")
    for flag in ("--sigm=9", "--thread=8", "--kernel=scalar", "--auto-linearize"):
        expect_exit(2, *ports, flag, says=["unknown flag " + flag.split("=")[0]])
    expect_exit(2, *ports, "--poles=false", says=["--poles takes no value"])
    return "--sigm, --thread, --kernel, --auto-linearize and --poles=false exit 2"


def main():
    global REFGEN, SCRATCH
    if len(sys.argv) != 2:
        sys.exit("usage: cli_smoke.py <refgen>")
    REFGEN, failed = os.path.abspath(sys.argv[1]), []
    cases = (json_shape, session_equals_requests_alone, param_sweep_threads, range_flags,
             simplify_threads, op_threads, device_monte_carlo_threads, transient_threads,
             refused_replay_threads, active_decks_match_sweep, error_paths, exit_codes,
             mode_flags, unknown_flags)
    with tempfile.TemporaryDirectory(prefix="cli_smoke_") as SCRATCH:
        for function in cases:
            start = time.monotonic()
            try:
                detail = function()
            except Exception as error:  # report every case, then fail
                failed.append(function.__name__)
                print(f"FAIL {function.__name__}: {type(error).__name__}: {error}"[:4000])
                continue
            print(f"{function.__name__} OK ({time.monotonic() - start:.1f} s): {detail}")
    if failed:
        sys.exit(f"{len(failed)} of {len(cases)} cases failed: {', '.join(failed)}")
    print(f"all {len(cases)} cases OK")


if __name__ == "__main__":
    main()
