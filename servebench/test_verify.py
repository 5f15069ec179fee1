"""Checks of the benchmark's response verification.

    python3 servebench/test_verify.py

A corrupted payload, a failed status and a CLI disagreement must each count
as an error; payloads that differ only in timing fields must not.
"""
import json
import pathlib
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import client  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

REQUEST = {"type": "refgen", "spec": {"in": "in", "out": "out"}}


def response(mantissa="0x1.8p+0", code="ok", from_cache=False, seconds=0.004):
    return {"type": "refgen", "status": {"code": code}, "from_cache": from_cache,
            "seconds": seconds, "termination": "complete", "total_evaluations": 12,
            "engine_seconds": seconds * 0.9, "reference": {"value": mantissa}}


def wait_line(rid, payload):
    """A `wait` reply as refgend writes it: job info, then the result."""
    info = {"job_id": f"j{rid}", "state": "done", "type": "refgen", "circuit": "c",
            "iterations": 3, "cancel_requested": False, "seconds": 0.01, "attempts": 1,
            "result": payload}
    return json.dumps({"id": rid, "result": info}, separators=(",", ":")).encode()


def record(index, payload, origin=None):
    r = client.Record(index, "rc", REQUEST, origin, None)
    r.line = wait_line(index + 1, payload)
    r.latency = 0.05
    return r


class CheckTest(unittest.TestCase):
    def test_cache_hit_with_new_timings_passes(self):
        first = record(0, response())
        repeat = record(1, response(from_cache=True, seconds=0.00001), origin=0)
        self.assertEqual(verify.check([first, repeat], []), {})

    def test_corrupted_cache_hit_is_an_error(self):
        first = record(0, response())
        repeat = record(1, response(mantissa="0x1.9p+0", from_cache=True), origin=0)
        self.assertEqual(list(verify.check([first, repeat], [])), [1])

    def test_failed_status_is_an_error(self):
        self.assertEqual(list(verify.check([record(0, response(code="internal"))], [])), [0])

    def test_error_reply_is_an_error(self):
        r = record(0, response())
        r.line = b'{"id":1,"error":{"code":"not_found"}}'
        self.assertEqual(list(verify.check([r], [])), [0])


class CliCompareTest(unittest.TestCase):
    """cli_compare against a stand-in CLI that always answers response()."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self.tmp.name)
        self.cli = self.dir / "refgen"
        answer = json.dumps({"responses": [response()]})
        self.cli.write_text(f"#!{sys.executable}\nprint({answer!r})\n")
        self.cli.chmod(self.cli.stat().st_mode | stat.S_IEXEC)
        self.workload = workloads.Workload(
            "test", 0, [workloads.Circuit("rc", "r1 in out 1k\nc1 out 0 1n\n.end\n")], [],
            None, 1, 1, "wait", 1, 1, 1)

    def tearDown(self):
        self.tmp.cleanup()

    def test_matching_payload_passes(self):
        r = record(0, response(seconds=0.5))
        self.assertEqual(verify.cli_compare(self.cli, self.dir, self.workload, [r], [r]), {})

    def test_corrupted_payload_is_an_error(self):
        r = record(0, response(mantissa="0x1.9p+0"))
        failed = verify.cli_compare(self.cli, self.dir, self.workload, [r], [r])
        self.assertEqual(list(failed), [0])


if __name__ == "__main__":
    unittest.main()
