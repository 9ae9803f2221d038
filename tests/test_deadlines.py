"""The timer contract that the broker core, the gateway core and the event
loop share, checked without a wall clock: ``next_deadline()`` is the
earliest time at which ``on_tick`` may have work, so a tick before it does
nothing, and a tick at it leaves the next deadline later than ``now``."""

import collections
import contextlib
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_gateway_core
from test_broker_core import Gw, Rig, commission
from test_gateway_core import Net

from msbc.gateway import DeliveryStatus, GatewayConfig, GatewayState
from msbc.loop import EventLoop
from msbc.session import liveness, make_bye
from msbc.wire import Role, Verb

INTERVAL, MISSES = 200.0, 3


# -- broker core --------------------------------------------------------------


def broker_quiet(rig):
    """What an early tick must leave alone: queued bytes, closes and events."""
    out = {conn: bytes(data) for conn, data in rig.outbox.pending.items()}
    return out, list(rig.outbox.closed), len(rig.events.snapshot())


def broker_step(rig, early):
    """Tick once before the deadline (a no-op), then once at it."""
    due = rig.broker.next_deadline()
    if due is None:
        return
    if due > rig.now:
        before = broker_quiet(rig)
        rig.broker.on_tick(rig.now + early * (due - rig.now))
        assert broker_quiet(rig) == before
        assert rig.broker.next_deadline() == due
    rig.now = max(rig.now, due)
    rig.broker.on_tick(rig.now)
    after = rig.broker.next_deadline()
    assert after is None or after > rig.now


broker_actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["tick", "ping", "commission", "decommission", "ack", "send", "drop", "join", "invite"]
        ),
        st.floats(min_value=0.0, max_value=700.0),  # ms that pass before it
        st.floats(min_value=0.0, max_value=0.999),  # where the early tick falls
        st.integers(min_value=0, max_value=3),  # which ctid
    ),
    max_size=40,
)


@given(broker_actions)
@settings(max_examples=60)
def test_broker_ticks_early_do_nothing_and_ticks_on_time_move_the_deadline_on(actions):
    rig = Rig(keepalive_interval_ms=INTERVAL, keepalive_misses=MISSES)
    asgw = Gw(rig, "as-metering", Role.ASGW, "metering")
    gws = [Gw(rig, "home-gw", Role.LGW), asgw]
    for kind, gap, early, n in actions:
        target = rig.now + gap
        while rig.broker.next_deadline() is not None and rig.broker.next_deadline() <= target:
            broker_step(rig, early)
        rig.now = target
        live = [gw for gw in gws if gw.session.call_id in rig.broker.sessions]
        home = next((gw for gw in live if gw.subscriber == "home-gw"), None)
        ctid = f"meter.{n}"
        if kind == "tick":
            broker_step(rig, early)
        elif kind == "join":
            gws.append(Gw(rig, "home-gw", Role.LGW))  # supersedes the last one
        elif kind == "invite":
            gws.append(Gw(rig, f"mute-{n}", Role.LGW, send_ack=False))  # never established
        elif not live:
            continue
        elif kind == "ping":
            live[n % len(live)].control(Verb.PING, {})
        elif kind == "drop":
            rig.broker.on_disconnect(live[n % len(live)].signal, rig.now)
        elif kind == "ack":
            live[n % len(live)].control(Verb.DECOMMISSIONED, {"Ctid": ctid})
        elif home is None or asgw not in live:
            continue
        elif kind == "commission":
            home.control(Verb.COMMISSION, {"Ctid": ctid})
            auths = [f for f in asgw.signal_frames() if getattr(f, "verb", None) is Verb.AUTHORIZE]
            if auths and n % 2:  # some authorizations are left to time out
                asgw.control(Verb.AUTHORIZED, {"Ctid": ctid, "Wire": str(auths[-1].wire_param)})
        elif kind == "decommission":
            home.control(Verb.DECOMMISSION, {"Ctid": ctid})
        elif kind == "send" and ctid in rig.broker.table.by_ctid:
            entry = rig.broker.table.by_ctid[ctid]
            if entry.lgw is not None and entry.lgw.session_id == home.session.call_id:
                home.send(entry.lgw.wire, entry.lgw.next_seq_in)
        for gw in gws:  # what the broker wrote is read, as a gateway would
            rig.outbox.pending.pop(gw.signal, None)
            rig.outbox.pending.pop(gw.payload, None)
    # No gateway answers from here on: every session expires, and once the
    # stale timers have passed the broker has no deadline at all.
    for _ in range(8 * len(gws) + 8):
        broker_step(rig, 0.5)
    assert not rig.broker.sessions and not rig.broker.pending_auth
    assert rig.broker.next_deadline() is None


@given(st.lists(st.floats(min_value=0.0, max_value=599.0), max_size=8))
@settings(max_examples=40)
def test_the_broker_watchdog_fires_exactly_one_budget_after_the_last_frame(gaps):
    rig = Rig(keepalive_interval_ms=INTERVAL, keepalive_misses=MISSES)
    lgw = Gw(rig, "home-gw", Role.LGW)
    last = rig.now
    for gap in gaps:  # each frame lands inside the budget of the one before
        target = rig.now + gap
        while rig.broker.next_deadline() <= target:
            broker_step(rig, 0.5)
        rig.now = last = target
        lgw.control(Verb.PONG, {})
    while not rig.kinds("watchdog_expired"):
        broker_step(rig, 0.5)
    [expired] = rig.kinds("watchdog_expired")
    assert expired.ts_ms == last + INTERVAL * MISSES
    assert lgw.session.call_id not in rig.broker.sessions


def test_a_broker_with_no_sessions_has_no_deadline_once_its_stale_timers_pass():
    rig = Rig(keepalive_interval_ms=INTERVAL, keepalive_misses=MISSES)
    asgw = Gw(rig, "as-metering", Role.ASGW, "metering")
    homes = [Gw(rig, f"home-{i}", Role.LGW) for i in range(3)]
    for i, home in enumerate(homes):
        commission(rig, home, asgw, f"meter.{i}")
    for gw in [*homes, asgw]:
        gw.session, bye = make_bye(gw.session, rig.txns.next())
        rig.feed(gw.signal, bye)
    assert not rig.broker.sessions
    before = broker_quiet(rig)
    steps = 0
    while rig.broker.next_deadline() is not None:
        broker_step(rig, 0.5)
        steps += 1
    assert steps <= 2 * len([*homes, asgw])  # the timers each session filed, no more
    assert broker_quiet(rig) == before


# -- gateway core ---------------------------------------------------------------


class Clock:
    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now


@contextlib.contextmanager
def virtual_net(broker_interval_ms=None):
    """A ``Net`` whose broker and gateways all read one hand-set clock."""
    clock = Clock()
    with mock.patch.object(test_gateway_core, "now_ms", clock), \
            mock.patch("msbc.gateway.api._now_ms", clock):
        net = Net()
        if broker_interval_ms is not None:
            net.broker.config.keepalive_interval_ms = broker_interval_ms
        net.provider = net.gateway("as-metering", Role.ASGW, provider="metering")
        net.home = net.gateway("home-1", Role.LGW)
        net.home.attach_device("meter.a")
        net.settle()
        yield net, clock


def gateway_quiet(core):
    return {link: list(frames) for link, frames in core.out.items()}, list(core.closes), list(core.dials)


def run_until(net, clock, until, ticks):
    """Step the clock from deadline to deadline of the broker and every
    gateway up to ``until``, ticking each one that is due."""
    while True:
        dues = [(net.broker.next_deadline(), net.broker.on_tick)]
        dues += [(gw._core.next_deadline(), gw._tick) for gw in net.gateways]
        due, tick = min(((d, t) for d, t in dues if d is not None), default=(None, None),
                        key=lambda pair: pair[0])
        if due is None or due > until:
            clock.now = until
            return
        clock.now = max(clock.now, due)
        tick(clock.now)
        ticks[tick] += 1
        net.settle()


gateway_actions = st.lists(
    st.tuples(
        st.sampled_from(["transmit", "deliver", "lose", "wait"]),
        st.floats(min_value=0.0, max_value=3000.0),
        st.floats(min_value=0.0, max_value=0.999),
    ),
    max_size=30,
)


@given(gateway_actions)
@settings(max_examples=40)
def test_gateway_ticks_early_do_nothing_and_ticks_on_time_move_the_deadline_on(actions):
    with virtual_net() as (net, clock):
        gw = net.home
        core = gw._core
        core.config.report_timeout_ms = 500.0
        sent = []
        for kind, gap, early in actions:
            due = core.next_deadline()
            if due is not None and due > clock.now:
                before, unresolved = gateway_quiet(core), [d for d in sent if not d.done]
                core.on_tick(clock.now + early * (due - clock.now))
                assert gateway_quiet(core) == before
                assert not any(d.done for d in unresolved)
            clock.now += gap
            due = core.next_deadline()
            if due is not None and due <= clock.now:
                gw._tick(clock.now)
                after = core.next_deadline()
                assert after is None or after > clock.now
            if kind == "transmit":
                sent.append(gw.transmit("meter.a", b"x"))
            elif kind == "deliver":
                net.settle()
            elif kind == "lose":
                for pipe in net.pipes.values():
                    if pipe.control is net.home.control:
                        pipe.inbound.clear()  # the broker's answers never arrive


def test_transmits_whose_reports_arrive_wake_the_loop_a_bounded_number_of_times():
    with virtual_net() as (net, clock):
        gw = net.home
        gw.config.report_timeout_ms = 100.0
        gw._loop = wakes = mock.Mock(spec=EventLoop)
        ticks = collections.Counter()
        sent = []
        for _ in range(1000):  # one packet every 2 ms, each answered at once
            run_until(net, clock, clock.now + 2.0, ticks)
            sent.append(gw.transmit("meter.a", b"x"))
            net.settle()
        assert all(d.status is DeliveryStatus.DELIVERED for d in sent)
        # 2 s of traffic against a 100 ms report timeout: about one wake and
        # one tick per timeout, not one per packet
        assert 1 <= wakes.wake.call_count <= 30
        assert ticks[gw._tick] <= 40


@pytest.mark.parametrize("broker_probes", [True, False])
def test_an_idle_open_gateway_ticks_about_once_per_keepalive_interval(broker_probes):
    # A broker on the gateways' interval probes first and the gateways only
    # answer; one on a four times longer interval leaves the probing to them.
    interval = GatewayConfig.keepalive_interval_ms
    with virtual_net(None if broker_probes else 4 * interval) as (net, clock), \
            mock.patch("msbc.interconnect.broker.liveness", side_effect=liveness) as checks:
        ticks = collections.Counter()
        intervals = 20
        run_until(net, clock, clock.now + intervals * interval, ticks)
        broker_ticks = ticks[net.broker.on_tick]
        # one check per session per due timer: a stale timer is dropped unchecked
        assert checks.call_count <= 2 * (intervals + 1)
        for gw in net.gateways:
            assert gw.state is GatewayState.OPEN
            if broker_probes:
                assert ticks[gw._tick] <= intervals + 1
            else:
                assert intervals - 1 <= ticks[gw._tick] <= intervals + 1
        if broker_probes:
            assert intervals - 1 <= broker_ticks <= 2 * (intervals + 1)  # two sessions
        else:
            assert broker_ticks <= 2 * (intervals / 4 + 1)


def test_a_gateway_that_loses_its_session_redials_at_its_backoff_deadline():
    with virtual_net() as (net, clock):
        gw = net.home
        for pipe in net.pipes.values():
            if pipe.control is gw.control:
                pipe.lost = True
        net.run_pass(gw)
        assert gw.state is GatewayState.DEGRADED
        lost_at = clock.now
        run_until(net, clock, lost_at + 1000.0, collections.Counter())
        assert gw.state is GatewayState.OPEN
        assert "meter.a" in gw.attachments()  # commissioned again


def test_the_deadline_read_copes_with_a_queue_emptied_during_it():
    with virtual_net() as (net, clock):
        core = net.home._core

        class Emptied(collections.deque):
            def __getitem__(self, index):
                self.clear()  # another thread gets there first
                return super().__getitem__(index)

        core.transmit("meter.a", b"x", clock.now)
        core._deadlines = Emptied(core._deadlines)
        assert core.next_deadline() is not None  # the keepalive is still due


def test_the_lock_free_deadline_read_survives_writers_on_other_threads():
    with virtual_net() as (net, clock):
        gw, core = net.home, net.home._core
        stop, errors = threading.Event(), []

        def read():
            while not stop.is_set():
                try:
                    core.next_deadline()
                except Exception as exc:  # the failure under test
                    errors.append(exc)
                    return

        def write():
            while not stop.is_set():
                with gw._mu:
                    core.transmit("meter.a", b"x", clock.now)
                    core.out.clear()
                    core._deadlines.clear()  # as switch_endpoint and shutdown do
                    core._reports.clear()

        threads = [threading.Thread(target=f) for f in (read, read, write, write)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


def test_a_failing_deadline_read_does_not_end_the_loop():
    passes = threading.Semaphore(0)
    reads = iter([ValueError("bad read")])

    def next_deadline():
        error = next(reads, None)
        if error is not None:
            raise error
        return None

    loop = EventLoop("t", next_deadline, lambda now: None, passes.release)
    with mock.patch("msbc.loop.log"):
        loop.start()
        for _ in range(2):  # the pass with the failed read, and one after it
            loop.wake()
            assert passes.acquire(timeout=5)
        loop.stop()
