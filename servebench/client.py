"""refgend process control and the closed-loop load generator.

The client talks to the daemon the way `refgen --connect` does: a plain
loopback TCP socket with no socket options, one JSON line per write. Its
timed path only reads lines and matches ids; payloads stay raw bytes until
the measured phase is over, so the client's cost depends neither on payload
size nor on the daemon's JSON code.
"""
import json
import os
import re
import selectors
import socket
import subprocess
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_JOB_ID = re.compile(rb'"job_id":"(j\d+)"')


class Daemon:
    """One refgend process: a TCP daemon (--listen=0), or with `stdio` one
    session on its stdin/stdout."""

    def __init__(self, binary, flags, log_path, stdio=False):
        self.log = open(log_path, "ab")
        self.stdio = stdio
        self.port = None
        self.proc = subprocess.Popen([binary, *flags] if stdio else [binary, "--listen=0", *flags],
                                     stdin=subprocess.PIPE if stdio else subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self.log)
        if stdio:
            return
        banner = self.proc.stdout.readline().decode()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"refgend did not announce a port: {banner!r}")
        self.port = int(match.group(1))

    # Line transport of a stdio session (the Connection interface setup uses).
    def sendall(self, data):
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def read_line(self):
        line = self.proc.stdout.readline()
        if not line:
            raise ConnectionError("refgend closed its stdout")
        return line.rstrip(b"\n")

    def cpu_seconds(self):
        """User + system CPU of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def vm_hwm_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.proc.poll() is None:
            try:
                if self.stdio:
                    self.proc.stdin.close()  # EOF ends the session
                elif self.port is not None:
                    with Connection(self.port) as conn:
                        conn.call("shutdown", {})
                else:
                    self.proc.kill()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()
        self.log.close()


class Connection:
    """One session socket with a line reader that timestamps each line."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.buffer = b""
        self.next_id = 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def sendall(self, data):
        self.sock.sendall(data)

    def send(self, method, params):
        rid = self.next_id
        self.next_id += 1
        self.sock.sendall(encode(rid, method, params))
        return rid

    def read_available(self):
        """Lines completed by one recv, with the time the recv returned."""
        chunk = self.sock.recv(1 << 18)
        now = time.perf_counter()
        if not chunk:
            raise ConnectionError("refgend closed the connection")
        self.buffer += chunk
        if b"\n" not in chunk:
            return now, []
        *lines, self.buffer = self.buffer.split(b"\n")
        return now, lines

    def read_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("refgend closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line

    def call(self, method, params):
        """Blocking RPC; events read on the way are dropped."""
        rid = self.send(method, params)
        while True:
            message = json.loads(self.read_line())
            if message.get("id") is not None and int(message["id"]) == rid:
                if "error" in message:
                    raise RuntimeError(f"{method}: {message['error']}")
                return message["result"]


def encode(rid, method, params):
    return (json.dumps({"id": rid, "method": method, "params": params},
                       separators=(",", ":")) + "\n").encode()


def reply_id(line):
    """Id of a reply line, or None for an event. Ids may arrive as 1e+02."""
    if line.startswith(b'{"id":'):
        return int(float(line[6:line.index(b",", 6)]))
    return None


def done_job(line):
    if line.startswith(b'{"event":"done","job_id":"'):
        return line[26:line.index(b'"', 26)].decode()
    return None


def setup(binary, flags, workload, log_path, stdio=False):
    """Launch refgend, compile every circuit and run every warm-up request.

    Each phase goes out in one write (compiles, then submits), so the
    number of round trips does not grow with the number of circuits. With
    `stdio` the session runs over the daemon's stdin/stdout, which has no
    Nagle/delayed-ACK stall. Returns (daemon, link, circuit ids, warm-up
    payloads, seconds), where link is a Connection for a TCP daemon.
    """
    start = time.perf_counter()
    daemon = Daemon(binary, flags, log_path, stdio)
    link = daemon if stdio else Connection(daemon.port)
    ids = {}
    compiles = {}
    batch = b""
    for rid, circuit in enumerate(workload.circuits, start=1):
        compiles[rid] = circuit.name
        batch += encode(rid, "compile", {"netlist": circuit.netlist, "name": circuit.name})
    link.sendall(batch)
    while compiles:
        line = link.read_line()
        rid = reply_id(line)
        if rid in compiles:
            message = json.loads(line)
            if "error" in message:
                raise RuntimeError(f"compile {compiles[rid]}: {message['error']}")
            ids[compiles.pop(rid)] = message["result"]["circuit_id"]
    submits = {}
    batch = b""
    for index, (name, request) in enumerate(workload.warmup):
        rid = len(workload.circuits) + 1 + index
        submits[rid] = index
        batch += encode(rid, "submit", {"circuit_id": ids[name], "request": request})
    link.sendall(batch)
    if not stdio:
        link.next_id = len(workload.circuits) + len(workload.warmup) + 1
    jobs = {}
    payloads = {}
    early = {}
    while len(payloads) < len(workload.warmup):
        line = link.read_line()
        rid = reply_id(line)
        if rid in submits:
            match = _JOB_ID.search(line)
            if match is None:
                raise RuntimeError(f"warm-up submit failed: {line[:300]!r}")
            jobs[match.group(1).decode()] = submits.pop(rid)
            for job in [job for job in early if job in jobs]:
                payloads[jobs[job]] = early.pop(job)
        elif (job := done_job(line)) is not None:
            if job in jobs:
                payloads[jobs[job]] = line
            else:
                early[job] = line
    seconds = time.perf_counter() - start
    return daemon, link, ids, [payloads[i] for i in range(len(workload.warmup))], seconds


def prefill(conn, workload, ids):
    """Run the workload's prefill one request at a time, in order, so the
    daemon's response caches end up as the stream generator models them.
    Returns the `wait` reply of each."""
    lines = []
    for name, request in workload.prefill:
        job = conn.call("submit", {"circuit_id": ids[name], "request": request})["job_id"]
        rid = conn.send("wait", {"job_id": job})
        line = conn.read_line()
        while reply_id(line) != rid:
            line = conn.read_line()
        lines.append(line)
    return lines


class Record:
    __slots__ = ("index", "circuit", "request", "origin", "sent", "latency", "line", "job",
                 "conn", "fields")

    def __init__(self, index, circuit, request, origin, conn):
        self.index = index
        self.circuit = circuit
        self.request = request
        self.origin = origin
        self.conn = conn
        self.sent = 0.0
        self.latency = None
        self.line = None
        self.job = None
        self.fields = None  # response fields, filled in after the measured phase


def closed_loop(port, workload, ids, seconds, daemon):
    """Run the measured phase; returns (records, wall seconds, VmHWM MiB).

    Each of `workload.connections` sessions keeps `workload.depth` requests
    in flight. New requests stop at the deadline, but the loop runs on until
    `workload.rss_after` requests have completed, so VmHWM is always read
    after the same amount of work.
    """
    stream = workload.stream()
    conns = [Connection(port) for _ in range(workload.connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    pending = {}   # (conn, reply id) -> record awaiting a submit or wait reply
    by_job = {}    # (conn, job id) -> record awaiting its done event
    early = {}     # (conn, job id) -> (time, line) of a done event seen first
    records = []
    state = {"done": 0, "outstanding": 0, "hwm": None}
    start = time.perf_counter()
    deadline = start + seconds
    last = start

    def issue(conn):
        name, request, origin = next(stream)
        record = Record(len(records), name, request, origin, conn)
        records.append(record)
        record.sent = time.perf_counter()
        rid = conn.send("submit", {"circuit_id": ids[name], "request": request})
        pending[(conn, rid)] = record
        state["outstanding"] += 1

    def complete(record, now, line):
        nonlocal last
        record.latency = now - record.sent
        record.line = line
        last = now
        state["done"] += 1
        state["outstanding"] -= 1
        if state["done"] == workload.rss_after:
            state["hwm"] = daemon.vm_hwm_mib()
        if now < deadline or state["done"] + state["outstanding"] < workload.rss_after:
            issue(record.conn)

    for conn in conns:
        for _ in range(workload.depth):
            issue(conn)
    while state["outstanding"]:
        for key, _ in selector.select():
            conn = key.data
            now, lines = conn.read_available()
            for line in lines:
                rid = reply_id(line)
                if rid is None:
                    job = done_job(line)
                    if job is None or workload.mode != "done":
                        continue
                    record = by_job.pop((conn, job), None)
                    if record is None:
                        early[(conn, job)] = (now, line)
                    else:
                        complete(record, now, line)
                    continue
                record = pending.pop((conn, rid))
                if record.job is not None or b',"error":' in line[:40]:
                    complete(record, now, line)  # the wait reply, or a failed call
                    continue
                record.job = _JOB_ID.search(line).group(1).decode()
                if workload.mode == "wait":
                    pending[(conn, conn.send("wait", {"job_id": record.job}))] = record
                elif (conn, record.job) in early:
                    complete(record, *early.pop((conn, record.job)))
                else:
                    by_job[(conn, record.job)] = record
    for conn in conns:
        selector.unregister(conn.sock)
        conn.sock.close()
    selector.close()
    return records, last - start, state["hwm"]


def engine_stats(conn, ids):
    """Summed `stats` counters over every compiled circuit."""
    totals = {}
    for circuit_id in ids.values():
        stats = conn.call("stats", {"circuit_id": circuit_id})
        for key in ("hits", "misses", "evictions"):
            totals[key] = totals.get(key, 0) + stats[key]
        for key, value in stats["engine"].items():
            totals[key] = totals.get(key, 0) + value
    return totals
