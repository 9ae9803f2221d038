"""Broker launcher: runs BrokerServer in its own process for the benchmark.

    python3 benchmark/broker_proc.py --directory FILE [--trace] [--spans CSV]

On start it prints one JSON line with the bound endpoints. After that it
reads one JSON command per line on stdin and answers each with one JSON
line on stdout:

    {"op": "expect", "kind": K, "field": "ctid"|"session", "values": [...]}
        arm a wait for events of kind K covering every listed value
    {"op": "await", "timeout": S}     block until the armed wait is met
    {"op": "mark"}                    start the measured window
    {"op": "report"}                  CPU time and layer totals since mark
    {"op": "stop", "timeout": S}      quiesce, stop, check teardown, exit

End of input stops the broker too, so it never outlives its driver.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _cpu_s() -> float:
    return time.process_time()


class _Expectation:
    """One armed wait on broker events, fed by the event log's sink."""

    def __init__(self):
        self._cond = threading.Condition()
        self._kind = ""
        self._field = ""
        self._remaining: set[str] = set()

    def arm(self, kind: str, field: str, values: list[str]) -> None:
        with self._cond:
            self._kind, self._field, self._remaining = kind, field, set(values)

    def sink(self, event) -> None:
        if event.kind != self._kind:
            return
        with self._cond:
            if event.kind == self._kind:
                self._remaining.discard(getattr(event, self._field))
                if not self._remaining:
                    self._cond.notify_all()

    def wait(self, timeout: float) -> list[str]:
        """Values still unseen after waiting (empty when the wait is met)."""
        with self._cond:
            self._cond.wait_for(lambda: not self._remaining, timeout)
            left = sorted(self._remaining)
            self._kind, self._remaining = "", set()
            return left


def _teardown_state(core) -> dict:
    wires = {
        bs.id: {"live": len(bs.allocator.live), "quarantined": len(bs.allocator.quarantined)}
        for bs in core.sessions.values()
    }
    busy = {sid: w for sid, w in wires.items() if w["live"] or w["quarantined"]}
    return {
        "table": len(core.table.by_ctid),
        "sessions": len(core.sessions),
        "sessions_holding_wires": busy,
        "clean": not core.table.by_ctid and not busy,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--directory", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    from msbc.interconnect import BrokerServer, EventLog, ServerConfig, load_directory

    expectation = _Expectation()
    events = EventLog(sink=expectation.sink)
    server = BrokerServer(load_directory(args.directory), ServerConfig(), events)
    tracer = None
    if args.trace:
        from tracing import Tracer, install_broker

        tracer = Tracer()
        install_broker(tracer, server)
    server.start()

    out = sys.stdout

    def reply(obj: dict) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    reply({
        "ready": True,
        "pid": os.getpid(),
        "signal": server.signal_endpoint,
        "payload": server.payload_endpoint,
        "payload_tls": server.payload_tls_endpoint,
    })

    mark_cpu, mark_wall = _cpu_s(), time.perf_counter()
    stopped = False
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            op = cmd["op"]
            if op == "expect":
                expectation.arm(cmd["kind"], cmd["field"], cmd["values"])
                reply({"ok": True})
            elif op == "await":
                left = expectation.wait(float(cmd["timeout"]))
                reply({"ok": not left, "missing": left[:10]})
            elif op == "mark":
                if tracer is not None:
                    tracer.mark()
                mark_cpu, mark_wall = _cpu_s(), time.perf_counter()
                reply({"ok": True})
            elif op == "report":
                core = server.broker
                body = {
                    "cpu_s": _cpu_s() - mark_cpu,
                    "wall_s": time.perf_counter() - mark_wall,
                    "table_entries": len(core.table.by_ctid),
                }
                if tracer is not None:
                    body["layers"] = tracer.window()
                reply(body)
            elif op == "stop":
                deadline = time.monotonic() + float(cmd.get("timeout", 5.0))
                core = server.broker
                while time.monotonic() < deadline and (core.sessions or core.table.by_ctid):
                    time.sleep(0.01)
                server.stop()
                stopped = True
                body = {
                    "teardown": _teardown_state(core),
                    "events": len(events.snapshot()),
                    "cpu_s": _cpu_s(),
                    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
                if tracer is not None and args.spans:
                    body["spans_written"] = tracer.write_spans(Path(args.spans))
                reply(body)
                break
            else:
                reply({"error": f"unknown op {op!r}"})
    finally:
        if not stopped:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
