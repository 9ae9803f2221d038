"""Pieces the workloads share: the broker process client, the receiving side
of the correctness oracle, seeded payloads and a percentile helper."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
START_TIMEOUT_S = 60.0  # broker process start, TLS certificate included
STOP_QUIESCE_S = 5.0  # time the broker gets to see every session close before it stops
PAYLOAD_POOL = 1 << 17  # seeded random bytes that payloads are sliced from

_now = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def cpu_s() -> float:
    return time.process_time()


class BrokerError(RuntimeError):
    pass


class BrokerProcess:
    """Driver-side handle of broker_proc.py: one JSON line each way per command."""

    def __init__(self, directory_file: Path, trace: bool = False, spans: Path | None = None):
        cmd = [sys.executable, str(BENCH_DIR / "broker_proc.py"), "--directory", str(directory_file)]
        if trace:
            cmd.append("--trace")
            if spans is not None:
                cmd += ["--spans", str(spans)]
        # The broker writes its ephemeral TLS certificate to a temporary
        # directory; keep that inside the checkout.
        tmp = OUT_DIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, TMPDIR=str(tmp)),
        )
        self._buf = b""
        hello = self._read(START_TIMEOUT_S)
        if not hello.get("ready"):
            raise BrokerError(f"broker did not start: {hello}")
        self.signal = hello["signal"]

    def _read(self, timeout: float) -> dict:
        deadline = _now() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - _now()
            if left <= 0:
                raise BrokerError("broker control channel timed out")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BrokerError("broker process exited")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def call(self, op: str, reply_within: float = 30.0, **params) -> dict:
        params["op"] = op
        try:
            self.proc.stdin.write((json.dumps(params) + "\n").encode())
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise BrokerError(f"broker process gone: {exc}") from exc
        return self._read(reply_within)

    def expect(self, kind: str, field: str, values: list[str]) -> None:
        self.call("expect", kind=kind, field=field, values=values)

    def await_expected(self, timeout: float) -> list[str]:
        """Values of the armed expectation that never showed up."""
        return self.call("await", reply_within=timeout + 5.0, timeout=timeout)["missing"]

    def stop(self) -> dict:
        """Quiesce and stop the broker; returns its teardown check, CPU and RSS."""
        final = self.call("stop", reply_within=STOP_QUIESCE_S + 30.0, timeout=STOP_QUIESCE_S)
        self.close()
        return final

    def close(self) -> None:
        """Make sure the process has ended; idempotent."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Payloads:
    """Seeded payload bytes: a 12-byte header naming (device, seq), then a
    slice of a seeded random pool, so every packet is distinct and its
    bytes come from the seed."""

    def __init__(self, rng):
        self._pool = rng.randbytes(PAYLOAD_POOL)
        self._rng = rng

    def make(self, device: int, seq: int, size: int) -> bytes:
        body = size - 12
        off = self._rng.randrange(0, len(self._pool) - body)
        return device.to_bytes(4, "big") + seq.to_bytes(8, "big") + self._pool[off:off + body]


@dataclass
class Flow:
    """One direction of one device's traffic, sender and receiver views."""

    outstanding: dict[int, bytes] = field(default_factory=dict)
    delivered: list[int] = field(default_factory=list)
    received: list[int] = field(default_factory=list)
    sent: int = 0
    failed: int = 0


class Oracle:
    """Checks every packet a receiver got against what its sender sent.

    Senders register each payload before transmitting; receivers compare the
    arriving bytes with it and remove it, so a duplicate or a stray finds
    nothing to match. At the end, per flow, the arrival order must equal the
    order of the packets the sender saw DELIVERED.
    """

    def __init__(self):
        self.flows: dict[tuple[str, str], Flow] = {}
        self.mismatches = 0
        self.strays = 0
        self.errors: list[str] = []

    def flow(self, direction: str, ctid: str) -> Flow:
        key = (direction, ctid)
        f = self.flows.get(key)
        if f is None:
            f = self.flows[key] = Flow()
        return f

    def sending(self, flow: Flow, payload: bytes) -> int:
        flow.sent += 1
        seq = int.from_bytes(payload[4:12], "big")
        flow.outstanding[seq] = payload
        return seq

    def arrived(self, direction: str, ctid: str, payload: bytes) -> None:
        flow = self.flows.get((direction, ctid))
        seq = int.from_bytes(payload[4:12], "big") if len(payload) >= 12 else -1
        expected = flow.outstanding.pop(seq, None) if flow is not None else None
        if expected is None:
            self.strays += 1
            if len(self.errors) < 10:
                self.errors.append(f"{direction} {ctid}: unexpected or duplicate seq {seq}")
            return
        if expected != payload:
            self.mismatches += 1
            if len(self.errors) < 10:
                self.errors.append(f"{direction} {ctid}: bytes differ for seq {seq}")
        flow.received.append(seq)

    def verdict(self) -> list[str]:
        """Violations found; empty when every flow checks out."""
        problems = list(self.errors)
        if self.mismatches:
            problems.append(f"{self.mismatches} payload byte mismatches")
        if self.strays:
            problems.append(f"{self.strays} duplicate or unexpected packets")
        for (direction, ctid), f in self.flows.items():
            if f.sent != len(f.delivered) + f.failed:
                problems.append(
                    f"{direction} {ctid}: sent {f.sent} != delivered {len(f.delivered)} "
                    f"+ failed {f.failed}"
                )
            if f.received != f.delivered:
                problems.append(
                    f"{direction} {ctid}: received {len(f.received)} packets, sender saw "
                    f"{len(f.delivered)} DELIVERED, or their order differs"
                )
        return problems[:20]


def make_receiver(oracle: Oracle, direction: str):
    """A gateway Receiver that hands every arriving packet to the oracle."""
    from msbc.gateway import Receiver

    class _Recorder(Receiver):
        def on_data(self, ctid: str, payload: bytes) -> None:
            oracle.arrived(direction, ctid, payload)

    return _Recorder()


def sleep_until(t: float) -> None:
    left = t - _now()
    if left > 0:
        time.sleep(left)


def start_helper(target, *args) -> threading.Thread:
    """The one extra driver thread a workload may use (main + this = 2)."""
    thread = threading.Thread(target=target, args=args, name="bench-helper", daemon=True)
    thread.start()
    return thread
