"""Seeded inputs of the served-path benchmark: circuits and request streams.

Every workload is a pure function of its seed. `build(name, seed)` returns
the circuits to compile, the warm-up requests (one per request class per
circuit), the prefill (requests sent one at a time after set-up, before
the measured phase) and an endless request stream. The stream has a fixed
mix per cycle, shuffled by the seed, so the cost of a run does not depend
on which seed it got; the seed only moves element values and request
parameters.
"""
import itertools
import json
import pathlib
import random
import re
from collections import OrderedDict

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tools" / "data"

UA741_SPEC = {"in": "inp", "in_neg": "inn", "out": "vo"}
AMP_SPEC = {"in": "vin", "out": "vout"}

# The daemon's response-cache bound per spec and request class (refgend's
# --max-cached, left at its default).
CACHE_BOUND = 64

# The transient deck of the CI smoke job.
PEAK_DETECTOR = """* peak detector
.model dfast d is=1e-14 n=1
vin in 0 dc 0 sin(0 5 1k)
rs in a 10
d1 a out dfast
c1 out 0 1u
rbleed out 0 100k
.end
"""


class Circuit:
    def __init__(self, name, netlist, spec=None, devices=False, classes=()):
        self.name = name
        self.netlist = netlist
        self.spec = spec
        self.devices = devices
        self.classes = tuple(classes)


class Workload:
    """What one workload sends: circuits, warm-up requests, prefill and a
    stream.

    Each `stream()` call starts the same sequence again. It yields
    (circuit name, request object, repeat_of) tuples, where
    repeat_of is the stream index of the request this one repeats exactly,
    or None for a fresh request (index -1 - i names request i of the
    warm-up followed by the prefill).
    """

    def __init__(self, name, seed, circuits, warmup, stream, connections, depth, mode,
                 rss_after, trace_cap, cli_window, prefill=()):
        self.name = name
        self.seed = seed
        self.circuits = circuits
        self.warmup = warmup
        self.prefill = list(prefill)  # sent in order after set-up, before the stream
        self._stream = stream
        self.connections = connections
        self.depth = depth
        self.mode = mode  # "wait": submit then wait; "done": read pushed done events
        self.rss_after = rss_after  # completed requests at which VmHWM is read
        self.trace_cap = trace_cap  # requests the traced run replays at most
        self.cli_window = cli_window  # CLI compares pick among the first this many

    def stream(self):
        return self._stream()

    def circuit(self, name):
        return next(c for c in self.circuits if c.name == name)


def _jitter(rng, value, share):
    return value * (1.0 + share * rng.uniform(-1.0, 1.0))


def _fmt(value):
    return f"{value:.6g}"


def _edit_params(text, rng, names, share=0.1):
    """Rescale the named `.param` defaults (name=value tokens)."""
    def repl(match):
        name, value = match.group(1), match.group(2)
        if name not in names:
            return match.group(0)
        scaled = _jitter(rng, _parse_value(value), share)
        return f"{name}={_fmt(scaled)}"
    out = []
    for line in text.splitlines():
        if line.lower().startswith(".param"):
            line = re.sub(r"(\w+)=([^\s;]+)", repl, line)
        out.append(line)
    return "\n".join(out) + "\n"


def _edit_elements(text, rng, names, share=0.1):
    """Rescale the value (last token) of the named element cards."""
    out = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0].lower() in names:
            tokens[-1] = _fmt(_jitter(rng, _parse_value(tokens[-1]), share))
            line = " ".join(tokens)
        out.append(line)
    return "\n".join(out) + "\n"


_SUFFIX = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3,
           "meg": 1e6, "g": 1e9}


def _parse_value(token):
    match = re.fullmatch(r"([-+0-9.eE]+?)(meg|[fpnumkg])?", token.lower())
    if match is None:
        raise ValueError(f"cannot rescale value {token!r}")
    return float(match.group(1)) * _SUFFIX.get(match.group(2) or "", 1.0)


def _deck(name):
    return (DATA / name).read_text()


def rc_ladder(stages, rng):
    lines = [f".title rc ladder {stages}"]
    prev = "in"
    for k in range(1, stages + 1):
        lines.append(f"r{k} {prev} n{k} {_fmt(_jitter(rng, 1e3, 0.1))}")
        lines.append(f"c{k} n{k} 0 {_fmt(_jitter(rng, 1e-9, 0.1))}")
        prev = f"n{k}"
    lines.append(".end")
    return "\n".join(lines) + "\n", {"in": "in", "out": f"n{stages}"}


def rc_mesh(size, rng):
    """size x size RC grid driven at one corner, observed at the opposite one."""
    lines = [f".title rc mesh {size}x{size}", f"rin in m0_0 {_fmt(_jitter(rng, 1e3, 0.1))}"]
    for i in range(size):
        for j in range(size):
            node = f"m{i}_{j}"
            lines.append(f"c{i}_{j} {node} 0 {_fmt(_jitter(rng, 1e-9, 0.1))}")
            if j + 1 < size:
                lines.append(f"rh{i}_{j} {node} m{i}_{j + 1} {_fmt(_jitter(rng, 1e3, 0.1))}")
            if i + 1 < size:
                lines.append(f"rv{i}_{j} {node} m{i + 1}_{j} {_fmt(_jitter(rng, 1e3, 0.1))}")
    lines.append(".end")
    return "\n".join(lines) + "\n", {"in": "in", "out": f"m{size - 1}_{size - 1}"}


def diode_chain(stages, rng):
    lines = [f".title diode chain {stages}", ".model dch d is=1e-14 n=1",
             "vin n0 0 dc 0 sin(0 10 20k)"]
    for k in range(1, stages + 1):
        lines.append(f"r{k} n{k - 1} a{k} {_fmt(_jitter(rng, 100.0, 0.1))}")
        lines.append(f"d{k} a{k} n{k} dch")
        lines.append(f"c{k} n{k} 0 {_fmt(_jitter(rng, 10e-9, 0.1))}")
        lines.append(f"rb{k} n{k} 0 {_fmt(_jitter(rng, 10e3, 0.1))}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def bjt_chain(stages, rng):
    """Emitter-follower cascade: each stage drops one V_BE."""
    lines = [f".title bjt follower chain {stages}", ".model qn npn is=1e-15 bf=100",
             "vcc vcc 0 dc 12", "vin b1 0 dc 9 sin(9 0.5 20k)"]
    for k in range(1, stages + 1):
        lines.append(f"q{k} vcc b{k} b{k + 1} qn")
        lines.append(f"re{k} b{k + 1} 0 {_fmt(_jitter(rng, 10e3, 0.1))}")
        lines.append(f"ce{k} b{k + 1} 0 {_fmt(_jitter(rng, 100e-12, 0.1))}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def ua741_npn_param():
    """ua741_npn.cir with its load and compensation as .params."""
    text = _deck("ua741_npn.cir")
    swaps = {"rl vo 0 2000": "rl vo 0 {rload}", "cc o1 o2 3e-11": "cc o1 o2 {ccomp}",
             "cl vo 0 1e-10": "cl vo 0 {cload}"}
    for old, new in swaps.items():
        if old not in text:
            raise ValueError(f"ua741_npn.cir no longer has the card {old!r}")
        text = text.replace(old, new)
    header = ".param rload=2000 ccomp=3e-11 cload=1e-10\n"
    return text.replace("\nvcc ", "\n" + header + "vcc ", 1)


def _unique(rng, seen, draw):
    while True:
        value = draw()
        if value not in seen:
            seen.add(value)
            return value


def _refgen(spec, sigma=None, tuning_r=None, threads=None, devices=False, kind="refgen"):
    options = {}
    if sigma is not None:
        options["sigma"] = sigma
    if tuning_r is not None:
        options["tuning_r"] = tuning_r
    if threads is not None:
        options["threads"] = threads
    request = {"type": kind, "spec": spec}
    if options:
        request["options"] = options
    if devices:
        request["auto_linearize"] = True
    return request


def _sweep(spec, f_start=1.0, devices=False):
    request = {"type": "sweep", "spec": spec, "f_start_hz": f_start,
               "f_stop_hz": f_start * 1e9, "points_per_decade": 11}
    if devices:
        request["auto_linearize"] = True
    return request


def _transient(tstop, tstep):
    return {"type": "transient", "tstop": tstop, "tstep": tstep, "method": "trap",
            "adaptive": False}


def interactive(seed):
    rng = random.Random(f"interactive/{seed}")
    circuits = []
    for name, deck, spec, devices, edit in (
        ("ua741", "ua741.cir", UA741_SPEC, False,
         lambda t: _edit_params(t, rng, {"ccomp", "rload", "cload"})),
        ("ua741_core", "ua741_core.cir", UA741_SPEC, False,
         lambda t: _edit_elements(t, rng, {"cc", "cl", "rl"})),
        ("two_stage_amp", "two_stage_amp.cir", AMP_SPEC, False,
         lambda t: _edit_params(t, rng, {"gm1", "gm2", "ccomp", "cload"})),
        ("ua741_npn", "ua741_npn.cir", UA741_SPEC, True,
         lambda t: _edit_elements(t, rng, {"cc", "cl"})),
    ):
        text = _deck(deck)
        classes = ("refgen", "sweep", "op") if devices else ("refgen", "sweep")
        circuits.append(Circuit(name, text, spec, devices, classes))
        circuits.append(Circuit(name + "_edit", edit(text), spec, devices, classes))
    circuits.append(Circuit("peak_detector", PEAK_DETECTOR, None, True, ("op", "transient")))
    by_name = {c.name: c for c in circuits}

    def fresh(circuit, kind, rng, seen):
        if kind == "refgen":
            return _refgen(circuit.spec, sigma=rng.choice((5, 6, 7)),
                           tuning_r=_unique(rng, seen, lambda: round(rng.uniform(-0.4, 0.4), 4)),
                           devices=circuit.devices)
        if kind == "sweep":
            return _sweep(circuit.spec, _unique(rng, seen, lambda: round(10 ** rng.uniform(0, 1), 4)),
                          circuit.devices)
        if kind == "op":
            return {"type": "op"}
        return _transient(_unique(rng, seen, lambda: 5e-4 * (1 + rng.randrange(1, 2000) / 1e4)),
                          2e-6)

    def warm(circuit, kind):
        if kind == "refgen":
            return _refgen(circuit.spec, devices=circuit.devices)
        if kind == "sweep":
            return _sweep(circuit.spec, 1.0, circuit.devices)
        if kind == "op":
            return {"type": "op"}
        return _transient(5e-4, 2e-6)

    warmup = [(c.name, warm(c, kind)) for c in circuits for kind in c.classes]
    # Fresh sweeps on one spec churn its sweep cache. The prefill holds more
    # distinct ones than the cache bound, so repeats reaching past the bound
    # miss from the first cycle on, whatever the run's throughput.
    churn = "two_stage_amp"
    prefill_rng = random.Random(f"interactive/{seed}/prefill")
    prefill_seen = {1.0}  # the warm-up sweep's f_start
    prefill = [(churn, fresh(by_name[churn], "sweep", prefill_rng, prefill_seen))
               for _ in range(CACHE_BOUND + 8)]
    ac = [c.name for c in circuits if c.spec is not None]
    others = [name for name in ac if name != churn]
    # Exact repeats per cycle: of recent requests the caches still hold, by
    # class, and of churn sweeps the cache no longer holds. 14 of the
    # cycle's 30 requests.
    recent = {"refgen": 8, "sweep": 2, "op": 1, "transient": 1}
    far = 2

    def stream():
        rng = random.Random(f"interactive/{seed}/stream")
        seen = set(prefill_seen)
        history = {}  # class -> [(index, circuit, request)] of fresh requests
        churned = []  # every distinct churn sweep: (index, request, cache key)
        cached = OrderedDict()  # keys the churn sweep cache holds, least recent first

        def touch(key):
            """Model the churn sweep cache (LRU) after a lookup of `key`."""
            cached[key] = None
            cached.move_to_end(key)
            if len(cached) > CACHE_BOUND:
                cached.popitem(last=False)

        def add(index, name, request):
            history.setdefault(request["type"], []).append((index, name, request))
            if name == churn and request["type"] == "sweep":
                key = json.dumps(request, sort_keys=True)
                churned.append((index, request, key))
                touch(key)

        # Pre-stream request i (warm-up, then prefill) has the index -1 - i.
        for i, (name, request) in enumerate(warmup + prefill):
            add(-1 - i, name, request)
        index = 0
        for cycle in itertools.count():
            # Fresh: a refgen on each AC circuit, two sweeps on the churn
            # spec and two on the other AC circuits in turn, an op on two
            # device decks, two transients. The class mix is the same in
            # every cycle.
            slots = [(name, "refgen") for name in ac]
            slots += [(churn, "sweep")] * 2
            slots += [(others[(2 * cycle + k) % len(others)], "sweep") for k in range(2)]
            slots += [("ua741_npn", "op"), ("peak_detector", "op")]
            slots += [("peak_detector", "transient")] * 2
            slots += [(None, kind) for kind, count in recent.items() for _ in range(count)]
            slots += [(None, "far")] * far
            rng.shuffle(slots)
            for name, kind in slots:
                if kind == "far":
                    origin, request, key = rng.choice(
                        [entry for entry in churned if entry[2] not in cached])
                    touch(key)
                    yield churn, request, origin
                elif name is None:
                    origin, name, request = rng.choice(history[kind][-8:])
                    if name == churn and kind == "sweep":
                        touch(json.dumps(request, sort_keys=True))
                    yield name, request, origin
                else:
                    request = fresh(by_name[name], kind, rng, seen)
                    add(index, name, request)
                    yield name, request, None
                index += 1

    return Workload("interactive", seed, circuits, warmup, stream, connections=1, depth=1,
                    mode="wait", rss_after=150, trace_cap=360, cli_window=72, prefill=prefill)


def same_spec(seed):
    circuits = [Circuit("ua741", _deck("ua741.cir"), UA741_SPEC, False, ("refgen",))]
    warmup = [("ua741", _refgen(UA741_SPEC))]

    def stream():
        rng = random.Random(f"same_spec/{seed}/stream")
        seen = set()
        while True:
            tuning_r = _unique(rng, seen, lambda: round(rng.uniform(-0.45, 0.45), 6))
            yield "ua741", _refgen(UA741_SPEC, sigma=6, tuning_r=tuning_r), None

    return Workload("same_spec", seed, circuits, warmup, stream, connections=3, depth=2,
                    mode="done", rss_after=1000, trace_cap=300, cli_window=8)


def bulk(seed):
    rng = random.Random(f"bulk/{seed}")
    circuits = []
    for stages in (160, 174, 188, 202, 216, 230, 244, 256):
        text, spec = rc_ladder(stages, rng)
        circuits.append(Circuit(f"ladder{stages}", text, spec, False, ("refgen",)))
    text, spec = rc_mesh(12, rng)
    circuits.append(Circuit("mesh12", text, spec, False, ("refgen",)))
    circuits.append(Circuit("ua741", _deck("ua741.cir"), UA741_SPEC, False, ("poles_zeros",)))
    circuits.append(Circuit("ua741_npn_param", ua741_npn_param(), UA741_SPEC, True,
                            ("param_sweep",)))
    circuits.append(Circuit("diode_chain", diode_chain(12, rng), None, True, ("transient",)))
    circuits.append(Circuit("bjt_chain", bjt_chain(8, rng), None, True, ("transient",)))
    tran_base = {"diode_chain": (1e-4, 2e-7), "bjt_chain": (1e-4, 2e-7)}

    def request(circuit, kind, rng=None, seen=None):
        warm = rng is None
        if kind in ("refgen", "poles_zeros"):
            tuning_r = None if warm else _unique(rng, seen, lambda: round(rng.uniform(-0.3, 0.3), 6))
            threads = 3 if kind == "refgen" else None
            return _refgen(circuit.spec, sigma=None if warm else 6, tuning_r=tuning_r,
                           threads=threads, kind=kind)
        if kind == "param_sweep":
            mc_seed = 0 if warm else _unique(rng, seen, lambda: rng.randrange(1, 1 << 40))
            params = [{"name": n, "nominal": v, "rel_sigma": 0.05}
                      for n, v in (("rload", 2000.0), ("ccomp", 3e-11), ("cload", 1e-10))]
            return {"type": "param_sweep", "spec": circuit.spec, "mode": "monte_carlo",
                    "params": params, "samples": 128, "seed": mc_seed, "f_start_hz": 1.0,
                    "f_stop_hz": 1e8, "points_per_decade": 2, "threads": 3,
                    "auto_linearize": True}
        tstop, tstep = tran_base[circuit.name]
        if not warm:
            tstop = _unique(rng, seen, lambda: tstop * (1 + rng.randrange(1, 2000) / 1e5))
        return _transient(tstop, tstep)

    warmup = [(c.name, request(c, kind)) for c in circuits for kind in c.classes]

    def stream():
        rng = random.Random(f"bulk/{seed}/stream")
        seen = set()
        while True:
            order = list(circuits)
            rng.shuffle(order)
            for c in order:
                yield c.name, request(c, c.classes[0], rng, seen), None

    # trace_cap: ten 13-request cycles, so each request class has >= 10
    # samples in the traced run.
    return Workload("bulk", seed, circuits, warmup, stream, connections=1, depth=1,
                    mode="wait", rss_after=80, trace_cap=130, cli_window=26)


WORKLOADS = {"interactive": interactive, "same_spec": same_spec, "bulk": bulk}


def build(name, seed):
    return WORKLOADS[name](seed)
