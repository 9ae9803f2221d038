"""The four benchmark workloads, driven through the public gateway SDK.

Every input -- device ids, directory rules, payload sizes and bytes, arrival
times -- comes from the seed. Each workload owns its gateways (at most four
open at once) and uses at most two driver threads: the caller's thread plus
one helper.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from collections import deque
from statistics import median

from common import (
    BrokerProcess,
    Oracle,
    Payloads,
    make_receiver,
    percentile,
    sleep_until,
    start_helper,
)

_now = time.perf_counter

# A report is failed only by a real stall, not by a slow moment of the host.
REPORT_TIMEOUT_MS = 10_000.0
WAIT_S = 15.0
WARMUP_PACKETS = 300


MIN_WINDOW_SAMPLES = 100


def windowed(samples: list[tuple[float, float]], elapsed: float) -> list[list[float]]:
    """Split (time, value) samples into equal time windows of at least one
    second holding about MIN_WINDOW_SAMPLES each, so that a burst of host
    noise moves one window's figures rather than the run's. A window in
    which nothing completed stays in the list, empty."""
    k = max(1, min(int(elapsed), len(samples) // MIN_WINDOW_SAMPLES))
    windows: list[list[float]] = [[] for _ in range(k)]
    for t, value in samples:
        windows[min(k - 1, max(0, int(t / elapsed * k)))].append(value)
    return windows


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.broker: BrokerProcess | None = None
        self.gateways: list = []
        self.oracle = Oracle()
        self.attempted = 0  # operations other than packets; flows count those
        self.failed = 0
        self._fail_lock = threading.Lock()
        self.problems: list[str] = []
        self.report: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
        self.deliveries = 0  # packets DELIVERED in the window (attaches on churn)
        self.lag_ms: list[float] = []
        self.report_timeouts = 0  # reports that never came or came back PEER_UNAVAILABLE

    # -- inputs ------------------------------------------------------------

    def directory_text(self) -> str:
        raise NotImplementedError

    # -- phases ------------------------------------------------------------

    def setup(self, broker: BrokerProcess) -> None:
        """Open the gateways and attach the standing devices."""
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def run(self, seconds: float) -> dict[str, float]:
        """Measure for ``seconds``; returns finish() of the workload's operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close every gateway in an orderly way (decommission, BYE)."""
        for gw in reversed(self.gateways):
            gw.close(timeout=30.0)
        self.gateways = []

    def abort_all(self) -> None:
        for gw in self.gateways:
            gw.abort()
        self.gateways = []

    # -- helpers -----------------------------------------------------------

    def gateway(self, subscriber: str, role: str, provider: str | None = None, receiver=None):
        from msbc.gateway import Gateway, GatewayConfig
        from msbc.wire import Role

        cfg = GatewayConfig(
            subscriber,
            Role.ASGW if role == "asgw" else Role.LGW,
            self.broker.signal,
            provider=provider,
            report_timeout_ms=REPORT_TIMEOUT_MS,
        )
        gw = Gateway(cfg, receiver)
        self.gateways.append(gw)
        gw.open(timeout=WAIT_S)
        return gw

    def attach_all(self, gw, ctids: list[str]) -> list:
        """Attach a burst of devices and wait for every wire."""
        from msbc.gateway import AttachError

        pending = [gw.attach_device(c) for c in ctids]
        for att in pending:
            try:
                att.wait(WAIT_S * 2)
            except (AttachError, TimeoutError) as exc:
                self.fail(f"attach {att.ctid}: {exc}")
        return pending

    def fail(self, what: str) -> None:
        with self._fail_lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def totals(self) -> tuple[int, int]:
        """(attempted, failed) over every operation, packets included."""
        packets = sum(f.sent for f in self.oracle.flows.values())
        return self.attempted + packets, self.failed

    def note(self, name: str, value: float, unit: str, samples: int = 0) -> None:
        self.report[name] = (value, unit, samples)

    def delivery_done(self, flow, seq: int, delivery, timeout: float = WAIT_S) -> bool:
        """Wait for one report; record it on the flow. True when DELIVERED."""
        from msbc.gateway import DeliveryStatus

        try:
            status = delivery.wait(timeout)
        except TimeoutError:
            status = None
        if status is DeliveryStatus.DELIVERED:
            flow.delivered.append(seq)
            return True
        flow.failed += 1
        if status is None or status is DeliveryStatus.PEER_UNAVAILABLE:
            with self._fail_lock:
                self.report_timeouts += 1
        self.fail(f"delivery {delivery.ctid} seq {seq}: {status}")
        return False

    def finish(self, prefix: str, rate: str, samples: list[tuple[float, float]],
               elapsed: float) -> dict[str, float]:
        """Record the workload's operation latencies and rate.

        ``samples`` are (seconds into the window, latency ms). The gated
        figures are medians over time windows (see windowed); the named
        report keeps whole-run percentiles.
        """
        values = [v for _, v in samples]
        for q in (50, 90, 99):
            self.note(f"{prefix}_p{q}_ms", percentile(values, q), "ms", len(values))
        self.note(rate, len(values) / elapsed, "1/s", len(values))
        windows = windowed(samples, elapsed)
        span = elapsed / len(windows)
        return {
            "op_p50_ms": median([median(w) for w in windows if w]),
            "ops_per_s": median([len(w) / span for w in windows]),
            "ops": len(values),
        }


# ---------------------------------------------------------------- telemetry


class Telemetry(Workload):
    """Open-loop uplink sensor traffic on the plain payload channel."""

    name = "telemetry"
    RATE = 500.0

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        count = rng.randint(16, 64)
        self.ctids = [f"tele.{'ab'[rng.randrange(2)]}.s{i:03d}-{rng.randrange(1 << 20):05x}"
                      for i in range(count)]
        self.index = {c: i for i, c in enumerate(self.ctids)}

    def directory_text(self) -> str:
        return ("provider p0 subscriber=as-p0\nprovider p1 subscriber=as-p1\n"
                "rule tele.a.* -> p0\nrule tele.b.* -> p1\n")

    def setup(self, broker):
        self.broker = broker
        self.oracle = Oracle()
        rx = make_receiver(self.oracle, "up")
        self.gateway("as-p0", "asgw", provider="p0", receiver=rx)
        self.gateway("as-p1", "asgw", provider="p1", receiver=rx)
        self.home = self.gateway("home-1", "lgw")
        self.attach_all(self.home, self.ctids)
        self.traffic = random.Random(self.seed * 1_000_003 + 1)
        self.payloads = Payloads(self.traffic)
        self.seq = 0

    def _send(self, ctid: str):
        self.seq += 1
        size = self.traffic.randint(16, 256)
        flow = self.oracle.flow("up", ctid)
        payload = self.payloads.make(self.index[ctid], self.seq, size)
        seq = self.oracle.sending(flow, payload)
        return flow, seq, self.home.transmit(ctid, payload)

    def warmup(self):
        for _ in range(WARMUP_PACKETS):
            flow, seq, d = self._send(self.traffic.choice(self.ctids))
            self.delivery_done(flow, seq, d)

    def run(self, seconds):
        rng = self.traffic
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        rtts: list[tuple[float, float]] = []

        def waiter():
            while True:
                item = inbox.get()
                if item is None:
                    return
                due, flow, seq, d = item
                if self.delivery_done(flow, seq, d):
                    rtts.append((due - start, (_now() - due) * 1000.0))

        start = _now() + 0.01
        helper = start_helper(waiter)
        due = start
        end = start + seconds
        while True:
            due += rng.expovariate(self.RATE)
            if due >= end:
                break
            sleep_until(due)
            self.lag_ms.append((_now() - due) * 1000.0)
            flow, seq, d = self._send(rng.choice(self.ctids))
            inbox.put((due, flow, seq, d))
        inbox.put(None)
        helper.join(WAIT_S * 2)
        self.deliveries = len(rtts)
        return self.finish("rtt", "delivered_per_s", rtts, seconds)


# --------------------------------------------------------------------- bulk


class Bulk(Workload):
    """Closed loop, large frames both ways.

    The home gateway uses radio access (plain payload channel): over internet
    access the TLS session set-up hangs in a few per cent of opens
    (layer_map.json, known_defects), which would fail the run."""

    name = "bulk"
    WINDOW = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.ctids = [f"bulk.d{i:02d}-{rng.randrange(1 << 20):05x}" for i in range(rng.randint(4, 12))]
        self.index = {c: i for i, c in enumerate(self.ctids)}

    def directory_text(self) -> str:
        return "provider p0 subscriber=as-p0\nrule bulk.* -> p0\n"

    def setup(self, broker):
        self.broker = broker
        self.oracle = Oracle()
        self.provider = self.gateway("as-p0", "asgw", provider="p0",
                                     receiver=make_receiver(self.oracle, "up"))
        self.home = self.gateway("home-1", "lgw", receiver=make_receiver(self.oracle, "down"))
        self.attach_all(self.home, self.ctids)
        self.traffic = random.Random(self.seed * 1_000_003 + 2)
        self.payloads = Payloads(self.traffic)
        self.seq = 0

    def _send(self):
        rng = self.traffic
        self.seq += 1
        ctid = rng.choice(self.ctids)
        up = rng.random() < 0.5
        flow = self.oracle.flow("up" if up else "down", ctid)
        payload = self.payloads.make(self.index[ctid], self.seq, rng.randint(4096, 16384))
        seq = self.oracle.sending(flow, payload)
        gw = self.home if up else self.provider
        return _now(), flow, seq, len(payload), gw.transmit(ctid, payload)

    def _loop(self, until: float):
        start = _now()
        inflight = deque(self._send() for _ in range(self.WINDOW))
        rtts: list[tuple[float, float]] = []
        nbytes = 0
        while inflight:
            t0, flow, seq, size, d = inflight.popleft()
            if self.delivery_done(flow, seq, d):
                rtts.append((t0 - start, (_now() - t0) * 1000.0))
                nbytes += size
            if _now() < until:
                inflight.append(self._send())
        return rtts, nbytes

    def warmup(self):
        self._loop(_now() + 0.3)

    def run(self, seconds):
        start = _now()
        rtts, nbytes = self._loop(start + seconds)
        elapsed = _now() - start
        self.deliveries = len(rtts)
        self.note("goodput_mib_s", nbytes / elapsed / (1 << 20), "MiB/s", len(rtts))
        return self.finish("rtt", "delivered_per_s", rtts, elapsed)


# -------------------------------------------------------------------- churn


class Churn(Workload):
    """Control plane only: attach/detach cycles against a large directory
    and table, with periodic home-gateway reboot storms."""

    name = "churn"
    ZONES = 500          # one wildcard rule per zone
    STANDING = 1000
    STANDING_EXACT = 452
    CYCLE_POOL = 64
    CYCLE_EXACT = 16     # a minority, so the attach median sits in the full-scan mode
    STORM = 128
    STORM_EXACT = 32
    STORM_PERIOD_S = 1.5

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        names: set[str] = set()
        while len(names) < self.STANDING + self.CYCLE_POOL + self.STORM:
            names.add(f"zone.{rng.randrange(self.ZONES):03d}.d{rng.randrange(100_000):05d}")
        pool = sorted(names)
        rng.shuffle(pool)
        self.standing = pool[:self.STANDING]
        self.cycle_ctids = pool[self.STANDING:self.STANDING + self.CYCLE_POOL]
        self.storm_size = self.STORM
        self.storm_ctids = pool[self.STANDING + self.CYCLE_POOL:]
        exact = (self.standing[:self.STANDING_EXACT] + self.cycle_ctids[:self.CYCLE_EXACT]
                 + self.storm_ctids[:self.STORM_EXACT])
        rules = [f"rule zone.{z:03d}.* -> p{z % 2}" for z in range(self.ZONES)]
        rules += [f"rule {c} -> p{rng.randrange(2)}" for c in exact]
        rng.shuffle(rules)
        self.rules = rules

    def directory_text(self) -> str:
        return ("provider p0 subscriber=as-p0\nprovider p1 subscriber=as-p1\n"
                + "\n".join(self.rules) + "\n")

    def setup(self, broker):
        self.broker = broker
        self.gateway("as-p0", "asgw", provider="p0")
        self.gateway("as-p1", "asgw", provider="p1")
        self.home = self.gateway("home-1", "lgw")
        self.attempted += len(self.standing) + self.storm_size
        self.attach_all(self.home, self.standing)
        self.storm_home = self.gateway("home-2", "lgw")
        self.attach_all(self.storm_home, self.storm_ctids)
        self.order = random.Random(self.seed * 1_000_003 + 3)

    def _cycle(self, ctid: str) -> tuple[float, float] | None:
        """Attach then detach one device: (attach ms, whole cycle ms)."""
        from msbc.gateway import AttachError

        self.attempted += 1
        t0 = _now()
        try:
            self.home.attach_device(ctid).wait(WAIT_S)
        except (AttachError, TimeoutError) as exc:
            self.fail(f"attach {ctid}: {exc}")
            return None
        took = (_now() - t0) * 1000.0
        if not self.home.detach_device(ctid).wait(WAIT_S):
            self.fail(f"detach {ctid}: no ack")
            return None
        return took, (_now() - t0) * 1000.0

    def _storm(self) -> float | None:
        """Kill the second home gateway, then time a fresh one's reboot."""
        self.attempted += 1
        old = self.storm_home
        self.broker.expect("session_closed", "session", [old.call_id])
        old.abort()
        self.gateways.remove(old)
        if self.broker.await_expected(WAIT_S):
            self.fail("broker never closed the aborted home session")
        t0 = _now()
        self.storm_home = self.gateway("home-2", "lgw")
        before = self.failed
        self.attach_all(self.storm_home, self.storm_ctids)
        return (_now() - t0) * 1000.0 if self.failed == before else None

    def warmup(self):
        for ctid in self.cycle_ctids[:16]:
            self._cycle(ctid)

    def run(self, seconds):
        start = _now()
        end = start + seconds
        next_storm = start + self.STORM_PERIOD_S
        attaches: list[tuple[float, float]] = []
        cycles: list[tuple[float, float]] = []
        storms: list[float] = []
        ring = list(self.cycle_ctids)
        self.order.shuffle(ring)
        i = 0
        while _now() < end:
            if _now() >= next_storm:
                took = self._storm()
                if took is not None:
                    storms.append(took)
                next_storm += self.STORM_PERIOD_S
                continue
            t0 = _now()
            took = self._cycle(ring[i % len(ring)])
            i += 1
            if took is not None:
                attaches.append((t0 - start, took[0]))
                cycles.append((t0 - start, took[1]))
        elapsed = _now() - start
        self.deliveries = len(attaches) + len(storms) * self.storm_size
        self.note("reattach_p50_ms", median(storms), "ms", len(storms))
        result = self.finish("attach", "attach_cycles_per_s", attaches, elapsed)
        # Cycles per second of cycling time: a storm's length must not decide
        # how many cycles a window holds.
        result["ops_per_s"] = median(
            [1000.0 * len(w) / sum(w) for w in windowed(cycles, elapsed) if w]
        )
        return result

    def check(self) -> list[str]:
        got = self.home.attachments()
        problems = []
        if set(got) != set(self.standing):
            problems.append(f"home-1 holds {len(got)} wires, expected the {len(self.standing)} standing ones")
        if len(set(got.values())) != len(got):
            problems.append("home-1 holds duplicate wire ids")
        storm = self.storm_home.attachments()
        if set(storm) != set(self.storm_ctids):
            problems.append(f"home-2 holds {len(storm)} wires, expected {self.storm_size}")
        return problems


# ----------------------------------------------------------------- failover


class Failover(Workload):
    """Repeated provider death or hang, and replacement, under a low steady load."""

    name = "failover"
    STEADY_RATE = 200.0
    GAP_S = 0.05

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.steady = [f"fo.s.d{i}-{rng.randrange(1 << 20):05x}" for i in range(8)]
        self.failing = [f"fo.f.d{i}-{rng.randrange(1 << 20):05x}" for i in range(8)]
        self.parked_per_ctid = 8
        self.ctids = self.steady + self.failing
        self.index = {c: i for i, c in enumerate(self.ctids)}

    def directory_text(self) -> str:
        return ("provider p0 subscriber=as-p0\nprovider p1 subscriber=as-p1\n"
                "rule fo.s.* -> p0\nrule fo.f.* -> p1\n")

    def setup(self, broker):
        self.broker = broker
        self.oracle = Oracle()
        self.rx = make_receiver(self.oracle, "up")
        self.gateway("as-p0", "asgw", provider="p0", receiver=self.rx)
        self.provider = self.gateway("as-p1", "asgw", provider="p1", receiver=self.rx)
        self.home = self.gateway("home-1", "lgw")
        self.attach_all(self.home, self.ctids)
        self.traffic = random.Random(self.seed * 1_000_003 + 4)
        self.background = random.Random(self.seed * 1_000_003 + 5)
        self.payloads = Payloads(self.traffic)
        self.bg_payloads = Payloads(self.background)
        self.seq = 0
        self.bg_seq = 1 << 40

    def _send(self, ctid: str, payloads: Payloads, seq: int, size: int):
        flow = self.oracle.flow("up", ctid)
        payload = payloads.make(self.index[ctid], seq, size)
        s = self.oracle.sending(flow, payload)
        return flow, s, self.home.transmit(ctid, payload)

    def _park(self) -> list:
        parked = []
        for _ in range(self.parked_per_ctid):
            for ctid in self.failing:
                self.seq += 1
                parked.append(self._send(ctid, self.payloads, self.seq, self.traffic.randint(16, 256)))
        return parked

    def _await_buffering(self) -> None:
        missing = self.broker.await_expected(WAIT_S)
        if missing:
            self.fail(f"no buffering event for {missing}")

    def _replace(self, hung: bool) -> float | None:
        """Replace provider p1; time from the replacement's open() call to
        the last of its devices' packets DELIVERED.

        A dead provider is abort()ed: the broker sees the FIN, loses the
        session and buffers its devices, and the packets park before the
        replacement opens. A hung one only goes silent (no FIN): the broker
        keeps its session until the replacement registers and supersedes it
        (_supersede_asgw), and the packets are sent once the replacement is
        open."""
        self.attempted += 1
        old = self.provider
        self.broker.expect("buffering", "ctid", self.failing)
        if hung:
            old.control.set_blackhole(True)
        else:
            old.abort()
            self.gateways.remove(old)
            self._await_buffering()
            parked = self._park()
        t0 = _now()
        self.provider = self.gateway("as-p1", "asgw", provider="p1", receiver=self.rx)
        if hung:
            self._await_buffering()
            old.abort()
            self.gateways.remove(old)
            parked = self._park()
        ok = all([self.delivery_done(flow, seq, d) for flow, seq, d in parked])
        return (_now() - t0) * 1000.0 if ok else None

    def _steady(self, stop: list[bool]) -> None:
        """Open-loop background traffic to the provider that stays up."""
        rng = self.background
        inflight: deque = deque()
        due = _now()
        while not stop[0]:
            due += rng.expovariate(self.STEADY_RATE)
            sleep_until(due)
            self.lag_ms.append((_now() - due) * 1000.0)
            self.bg_seq += 1
            inflight.append(self._send(rng.choice(self.steady), self.bg_payloads, self.bg_seq,
                                       rng.randint(16, 256)))
            while inflight and inflight[0][2].done:
                if self.delivery_done(*inflight.popleft()):
                    self.bg_delivered += 1
        while inflight:
            if self.delivery_done(*inflight.popleft()):
                self.bg_delivered += 1

    def warmup(self):
        for ctid in self.ctids:
            self.seq += 1
            self.delivery_done(*self._send(ctid, self.payloads, self.seq, 64))

    def run(self, seconds):
        self.bg_delivered = 0
        stop = [False]
        helper = start_helper(self._steady, stop)
        start = _now()
        end = start + seconds
        # Cycles alternate between a dead and a hung provider; the gated
        # figures are the dead-provider cycles'.
        recoveries: list[tuple[float, float]] = []
        supersedes: list[float] = []
        hung = False
        while _now() < end:
            t0 = _now()
            took = self._replace(hung)
            if took is not None and hung:
                supersedes.append(took)
            elif took is not None:
                recoveries.append((t0 - start, took))
            hung = not hung
            time.sleep(self.GAP_S)
        elapsed = _now() - start
        stop[0] = True
        helper.join(WAIT_S * 2)
        cycles = len(recoveries) + len(supersedes)
        self.deliveries = cycles * len(self.failing) * self.parked_per_ctid + self.bg_delivered
        self.note("supersede_p50_ms", percentile(supersedes, 50), "ms", len(supersedes))
        return self.finish("recovery", "failovers_per_s", recoveries, elapsed)


WORKLOADS = {cls.name: cls for cls in (Telemetry, Bulk, Churn, Failover)}
