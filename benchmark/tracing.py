"""Span tracing installed from outside the program, for the traced run.

Wrappers go around the public entry points of each layer. Functions that
the program binds with ``from ... import`` are wrapped at every call site
(the importing module's attribute), or those calls would go uncounted.

Each thread keeps its own span stack, per-name totals and span list, so the
hot path takes no lock. A span's self time is its duration minus the time
covered by its traced children. Spans carry a parent link within their
process; correlating one request across processes is not attempted here.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path

_perf_ns = time.perf_counter_ns

SPAN_CAP = 100_000  # spans kept per thread in the measured window


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "extra")

    def __init__(self):
        self.stack: list[list[int]] = []  # [span_id, child_ns]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []
        self.extra: dict[str, float] = {}


class Tracer:
    """In-memory spans and per-name totals for one process."""

    def __init__(self):
        self.mark_ns = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[tuple[int, _ThreadState]] = []
        self._base: dict[str, list[float]] = {}
        self._base_extra: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append((threading.get_ident(), st))
        return st

    def wrap(self, name: str, fn, post=None):
        """Return ``fn`` wrapped in a span; ``post(st, args, result)`` may add counts."""
        ids = self._ids
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            t0 = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf_ns()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if t0 >= tracer.mark_ns and len(st.spans) < SPAN_CAP:
                    st.spans.append((frame[0], parent[0] if parent else 0, name, t0, t1))
            if post is not None:
                post(st, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def add(self, st: _ThreadState, key: str, value: float) -> None:
        st.extra[key] = st.extra.get(key, 0.0) + value

    def high(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0.0):
            self.maxima[key] = value

    # -- windows ---------------------------------------------------------

    def _merged(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        stats: dict[str, list[float]] = {}
        extra: dict[str, float] = {}
        for _, st in list(self._states):
            for name, agg in list(st.stats.items()):
                acc = stats.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += agg[i]
            for key, value in list(st.extra.items()):
                extra[key] = extra.get(key, 0.0) + value
        return stats, extra

    def mark(self) -> None:
        """Start the measured window: later totals are reported relative to now."""
        self._base, self._base_extra = self._merged()
        self.maxima = {}
        self.mark_ns = _perf_ns()

    def window(self) -> dict:
        """Totals since mark(): {"stats": {name: [calls, total_ns, self_ns]}, "extra", "max"}."""
        stats, extra = self._merged()
        for name, base in self._base.items():
            acc = stats.get(name)
            if acc is not None:
                for i in range(3):
                    acc[i] -= base[i]
        for key, base in self._base_extra.items():
            extra[key] = extra.get(key, 0.0) - base
        return {"stats": stats, "extra": extra, "max": dict(self.maxima)}

    def write_spans(self, path: Path) -> int:
        """Write the window's spans as CSV; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with path.open("w", encoding="ascii") as out:
            out.write("span_id,parent_id,thread,name,start_ns,end_ns\n")
            for ident, st in list(self._states):
                for sid, parent, name, t0, t1 in st.spans:
                    out.write(f"{sid},{parent},{ident},{name},{t0},{t1}\n")
                    count += 1
        return count


def _count_feed(tracer: Tracer):
    def post(st, args, frames):
        tracer.add(st, "wire.feeds_bytes", len(args[1]))
        tracer.add(st, "wire.frames", len(frames))

    return post


def install_shared(tracer: Tracer) -> None:
    """Codec layer, wrapped the same way in every process."""
    from msbc.wire import codec

    codec.StreamParser.feed = tracer.wrap("wire.parse", codec.StreamParser.feed, _count_feed(tracer))


def install_broker(tracer: Tracer, server) -> None:
    """Wrap the broker process's layers; ``server`` is a constructed BrokerServer."""
    from msbc.interconnect import broker as broker_mod
    from msbc.interconnect.events import EventLog
    from msbc.interconnect.wiretable import WireTable

    install_shared(tracer)
    broker_mod.encode_frame = tracer.wrap("wire.encode", broker_mod.encode_frame)
    broker_mod.lookup_provider = tracer.wrap("directory.lookup", broker_mod.lookup_provider)
    broker_mod.on_signal = tracer.wrap("session.on_signal", broker_mod.on_signal)
    broker_mod.liveness = tracer.wrap("session.liveness", broker_mod.liveness)

    WireTable.lookup_end = tracer.wrap("wiretable.lookup_end", WireTable.lookup_end)
    WireTable.entries_for_session = tracer.wrap("wiretable.scan", WireTable.entries_for_session)
    WireTable.entries_for_provider = tracer.wrap("wiretable.scan", WireTable.entries_for_provider)
    EventLog.append = tracer.wrap("events.append", EventLog.append)

    core = server.broker
    Broker = type(core)

    def after_bytes(st, args, result):
        tracer.high("broker.pending_relay", len(core.pending_relay))

    Broker.on_bytes = tracer.wrap("broker.on_bytes", Broker.on_bytes, after_bytes)
    Broker.on_connect = tracer.wrap("broker.on_connect", Broker.on_connect)
    Broker.on_disconnect = tracer.wrap("broker.on_disconnect", Broker.on_disconnect)
    Broker.on_tick = tracer.wrap("broker.on_tick", Broker.on_tick)

    # Parked packets are counted where they enter and leave an entry's buffer.
    parked = [0]

    def buffer_packet(fn):
        def wrapped(self, bs, entry, pkt):
            before = len(entry.buffer)
            fn(self, bs, entry, pkt)
            parked[0] += len(entry.buffer) - before
            tracer.high("broker.buffered", parked[0])

        return wrapped

    def flush_buffer(fn):
        def wrapped(self, entry, asgw):
            before = len(entry.buffer)
            fn(self, entry, asgw)
            parked[0] += len(entry.buffer) - before

        return wrapped

    Broker._buffer_packet = buffer_packet(Broker._buffer_packet)
    Broker._flush_buffer = flush_buffer(Broker._flush_buffer)

    core.outbox.send = tracer.wrap("server.outbox_send", core.outbox.send)


def install_driver(tracer: Tracer) -> None:
    """Wrap the gateway SDK's layers in the load generator's process."""
    from msbc.gateway import api, link

    install_shared(tracer)
    link.encode_frame = tracer.wrap("wire.encode", link.encode_frame)
    api.on_signal = tracer.wrap("session.on_signal", api.on_signal)
    api.liveness = tracer.wrap("session.liveness", api.liveness)
    api.Gateway.transmit = tracer.wrap("gateway.transmit", api.Gateway.transmit)
    api.Gateway.open = tracer.wrap("gateway.open", api.Gateway.open)
    link.Link.send_frame = tracer.wrap("link.send", link.Link.send_frame)


def summarize(broker: dict, driver: dict, deliveries: int, driver_cpu_s: float,
              lag_ms: list[float], report_timeouts: int, units: dict[str, str]) -> dict:
    """Per-layer metrics of one measured window, for the names in ``units``
    (BENCHMARK.json's per_layer; see layer_map.json for which end-to-end
    metric each should move on which workload).

    ``broker`` is the launcher's report (CPU, table size, window totals),
    ``driver`` this process's Tracer.window(). Codec and session totals are
    summed over both processes; the rest belong to one side.
    """
    from common import percentile

    b_stats = broker["layers"]["stats"]
    d_stats = driver["stats"]

    def calls(stats, name):
        return stats.get(name, [0, 0, 0])[0]

    def both(name):
        a, b = b_stats.get(name, [0, 0, 0]), d_stats.get(name, [0, 0, 0])
        return [a[i] + b[i] for i in range(3)]

    def mean_us(agg):
        return agg[1] / agg[0] / 1000.0 if agg[0] else 0.0

    def extra(name):
        return broker["layers"]["extra"].get(name, 0.0) + driver["extra"].get(name, 0.0)

    encode, parse = both("wire.encode"), both("wire.parse")
    frames, feed_bytes = extra("wire.frames"), extra("wire.feeds_bytes")
    b_frames = broker["layers"]["extra"].get("wire.frames", 0.0)
    on_bytes = b_stats.get("broker.on_bytes", [0, 0, 0])
    busy_ns = sum(agg[1] for name, agg in b_stats.items()
                  if name in ("broker.on_bytes", "broker.on_connect", "broker.on_disconnect",
                              "broker.on_tick"))
    sends = b_stats.get("server.outbox_send", [0, 0, 0])
    kops = deliveries / 1000.0
    values = {
        "wire.encode_us": mean_us(encode),
        "wire.encode_calls": encode[0],
        "wire.parse_us_per_frame": parse[1] / frames / 1000.0 if frames else 0.0,
        "wire.frames_per_feed": frames / parse[0] if parse[0] else 0.0,
        "wire.bytes_per_feed": feed_bytes / parse[0] if parse[0] else 0.0,
        "session.on_signal_us": mean_us(both("session.on_signal")),
        "session.on_signal_calls": both("session.on_signal")[0],
        "session.liveness_calls": both("session.liveness")[0],
        "directory.lookup_us": mean_us(b_stats.get("directory.lookup", [0, 0, 0])),
        "directory.lookup_calls": calls(b_stats, "directory.lookup"),
        "wiretable.lookup_end_us": mean_us(b_stats.get("wiretable.lookup_end", [0, 0, 0])),
        "wiretable.lookup_end_calls": calls(b_stats, "wiretable.lookup_end"),
        "wiretable.scan_us": mean_us(b_stats.get("wiretable.scan", [0, 0, 0])),
        "wiretable.scan_calls": calls(b_stats, "wiretable.scan"),
        "wiretable.entries": broker["table_entries"],
        "broker.on_bytes_self_us_per_frame": on_bytes[2] / b_frames / 1000.0 if b_frames else 0.0,
        "broker.busy_ratio": busy_ns / 1e9 / broker["wall_s"] if broker["wall_s"] else 0.0,
        "broker.on_tick_us": mean_us(b_stats.get("broker.on_tick", [0, 0, 0])),
        "broker.pending_relay_max": broker["layers"]["max"].get("broker.pending_relay", 0),
        "broker.buffered_max": broker["layers"]["max"].get("broker.buffered", 0),
        "events.appended": calls(b_stats, "events.append"),
        "events.append_us": mean_us(b_stats.get("events.append", [0, 0, 0])),
        "server.outbox_sends": sends[0],
        "server.outbox_send_us": mean_us(sends),
        "server.frames_per_send": calls(b_stats, "wire.encode") / sends[0] if sends[0] else 0.0,
        "server.cpu_ms_per_kdelivery": broker["cpu_s"] * 1000.0 / kops if kops else 0.0,
        "gateway.transmit_us": mean_us(d_stats.get("gateway.transmit", [0, 0, 0])),
        "gateway.transmit_calls": calls(d_stats, "gateway.transmit"),
        "gateway.open_ms": mean_us(d_stats.get("gateway.open", [0, 0, 0])) / 1000.0,
        "gateway.report_timeouts": report_timeouts,
        "link.send_us": mean_us(d_stats.get("link.send", [0, 0, 0])),
        "link.send_calls": calls(d_stats, "link.send"),
        "driver.lag_p99_ms": percentile(lag_ms, 99),
        "driver.cpu_ms_per_kdelivery": driver_cpu_s * 1000.0 / kops if kops else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

