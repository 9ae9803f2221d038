"""Gateway SDK against a live broker: sessions, attachments, transfer,
reconnection, and injected link faults."""

import threading
import time

import pytest

from msbc.gateway import (
    AttachError,
    DeliveryStatus,
    Gateway,
    GatewayConfig,
    GatewayState,
    Receiver,
    SessionRejected,
    open_gateway,
)
from msbc.interconnect import BrokerServer, ServerConfig, parse_directory
from msbc.wire import MAX_FRAME_SIZE, Access, Role, Security

DIRECTORY = parse_directory(
    """
    provider metering subscriber=as-metering
    provider lighting subscriber=as-lighting
    rule meter.* -> metering
    rule light.* -> lighting
    """
)


class Recorder(Receiver):
    """Collects every callback; authorization is scriptable."""

    def __init__(self, allow=None):
        self.data = []
        self.attached = []
        self.detached = []
        self.peer_down = []
        self.errors = []
        self.states = []
        self.allow = allow  # None = allow all, else a predicate

    def on_data(self, ctid, payload):
        self.data.append((ctid, payload))

    def on_attached(self, ctid):
        self.attached.append(ctid)

    def on_detached(self, ctid):
        self.detached.append(ctid)

    def on_peer_down(self, ctid):
        self.peer_down.append(ctid)

    def on_error(self, reason, ctid=""):
        self.errors.append((reason, ctid))

    def on_state(self, state):
        self.states.append(state)

    def authorize(self, ctid):
        return True if self.allow is None else self.allow(ctid)


@pytest.fixture
def srv():
    with BrokerServer(DIRECTORY) as server:
        yield server


@pytest.fixture
def fast_srv():
    config = ServerConfig(keepalive_interval_ms=150.0, keepalive_misses=3)
    with BrokerServer(DIRECTORY, config) as server:
        yield server


def gw_config(subscriber, role, server, **kw):
    kw.setdefault("keepalive_interval_ms", 200.0)
    kw.setdefault("report_timeout_ms", 1500.0)
    kw.setdefault("reconnect_initial_ms", 50.0)
    kw.setdefault("reconnect_max_ms", 400.0)
    return GatewayConfig(subscriber, role, server.signal_endpoint, **kw)


@pytest.fixture
def pair(srv):
    """Provider gateway for metering plus a subscriber gateway, both open."""
    sink = Recorder()
    asgw = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"), sink)
    lgw_sink = Recorder()
    lgw = open_gateway(gw_config("home-1", Role.LGW, srv), lgw_sink)
    yield srv, asgw, sink, lgw, lgw_sink
    lgw.abort()
    asgw.abort()


def wait_until(predicate, timeout=5.0, step=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


# -- opening ----------------------------------------------------------------


def test_open_establishes_and_reports_states(srv):
    sink = Recorder()
    gw = open_gateway(gw_config("home-1", Role.LGW, srv), sink)
    try:
        assert gw.state is GatewayState.OPEN
        assert sink.states == [GatewayState.OPEN]
        neg = gw.negotiated
        assert neg is not None
        assert neg.security is Security.PLAIN
        assert neg.payload_endpoint == srv.payload_endpoint
    finally:
        gw.close()
    assert gw.state is GatewayState.CLOSED
    assert sink.states[-1] is GatewayState.CLOSED


def test_internet_access_negotiates_secure_payload(srv):
    gw = open_gateway(gw_config("home-1", Role.LGW, srv, access=Access.INTERNET))
    try:
        # reaching OPEN proves the payload attach succeeded over TLS
        neg = gw.negotiated
        assert neg.security is Security.SECURE
        assert neg.payload_endpoint == srv.payload_tls_endpoint
    finally:
        gw.close()


def test_internet_access_opens_reliably(srv):
    # A TLS session ticket racing the first payload frame used to hang an
    # open in a few of every hundred.
    for _ in range(25):
        gw = open_gateway(gw_config("home-1", Role.LGW, srv, access=Access.INTERNET), timeout=5.0)
        gw.close()
        assert gw.state is GatewayState.CLOSED


def test_negotiated_frame_size_is_minimum_of_both(srv):
    gw = open_gateway(gw_config("home-1", Role.LGW, srv, max_frame_size=1024))
    try:
        assert gw.negotiated.max_frame_size == 1024  # broker default is larger
    finally:
        gw.close()


def test_asgw_with_wrong_subscriber_is_rejected(srv):
    config = gw_config("impostor", Role.ASGW, srv, provider="metering")
    with pytest.raises(SessionRejected) as err:
        open_gateway(config)
    assert err.value.status == 403


def test_asgw_requires_provider():
    with pytest.raises(ValueError):
        Gateway(GatewayConfig("as-metering", Role.ASGW, "127.0.0.1:1"))


@pytest.mark.parametrize(
    "field,value",
    [
        ("subscriber", "home 1"),
        ("subscriber", "h" * 65),
        ("role", "lgw"),
        ("access", "radio"),
        ("provider", "no such/provider"),
        ("max_frame_size", 10),
        ("max_frame_size", MAX_FRAME_SIZE + 1),
        ("broker_endpoint", "127.0.0.1"),
    ],
)
def test_invalid_config_is_refused_at_construction(field, value):
    # Refused before anything is queued: accepted, it wedged open() and abort().
    config = GatewayConfig("home-1", Role.LGW, "127.0.0.1:1")
    setattr(config, field, value)
    with pytest.raises(ValueError):
        Gateway(config)


def test_open_times_out_when_broker_unreachable():
    config = GatewayConfig(
        "home-1", Role.LGW, "127.0.0.1:9", reconnect_initial_ms=20.0, reconnect_max_ms=50.0
    )
    gw = Gateway(config)
    with pytest.raises(TimeoutError):
        gw.open(timeout=0.5)
    gw.abort()
    assert gw.state is GatewayState.CLOSED


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.mark.parametrize("end", ["close", "abort"])
def test_gateway_runs_one_thread_joined_on_shutdown(srv, end):
    before = set(threading.enumerate())
    gw = open_gateway(gw_config("home-1", Role.LGW, srv))
    [loop] = new_threads(before)
    getattr(gw, end)()
    assert not loop.is_alive()
    assert new_threads(before) == []


def test_context_manager_opens_and_closes(srv):
    with Gateway(gw_config("home-1", Role.LGW, srv)) as gw:
        assert gw.state is GatewayState.OPEN
    assert gw.state is GatewayState.CLOSED


# -- attachment -------------------------------------------------------------


def test_attach_assigns_wire_and_notifies_provider(pair):
    srv, asgw, sink, lgw, _ = pair
    att = lgw.attach_device("meter.kitchen").wait(5)
    assert att.attached and att.wire == 1
    assert wait_until(lambda: sink.attached == ["meter.kitchen"])
    assert asgw.attachments() == {"meter.kitchen": 1}
    assert lgw.attachments() == {"meter.kitchen": 1}


def test_attach_is_idempotent(pair):
    _, _, _, lgw, _ = pair
    first = lgw.attach_device("meter.a").wait(5)
    second = lgw.attach_device("meter.a")
    assert second.done and second.wire == first.wire


def test_attach_unroutable_ctid_fails(pair):
    _, _, _, lgw, _ = pair
    with pytest.raises(AttachError) as err:
        lgw.attach_device("thermostat.busted").wait(5)
    assert err.value.reason == "no-route"
    assert lgw.attachments() == {}


def test_attach_without_provider_session_fails(pair):
    _, _, _, lgw, _ = pair
    # lighting is routed but no provider gateway is connected for it
    with pytest.raises(AttachError) as err:
        lgw.attach_device("light.porch").wait(5)
    assert err.value.reason == "provider-unavailable"


def test_provider_can_deny_attachment(srv):
    sink = Recorder(allow=lambda ctid: not ctid.endswith(".blocked"))
    asgw = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"), sink)
    lgw = open_gateway(gw_config("home-1", Role.LGW, srv))
    try:
        with pytest.raises(AttachError) as err:
            lgw.attach_device("meter.blocked").wait(5)
        assert err.value.reason == "denied"
        ok = lgw.attach_device("meter.fine").wait(5)
        assert ok.attached
    finally:
        lgw.abort()
        asgw.abort()


def test_attach_before_open_runs_at_establishment(srv):
    sink = Recorder()
    asgw = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"), sink)
    gw = Gateway(gw_config("home-1", Role.LGW, srv))
    try:
        att = gw.attach_device("meter.early")
        assert not att.done
        gw.open()
        assert att.wait(5).attached
    finally:
        gw.abort()
        asgw.abort()


def test_detach_releases_both_sides(pair):
    srv, asgw, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    assert lgw.detach_device("meter.a").wait(5)
    assert lgw.attachments() == {}
    assert wait_until(lambda: sink.detached == ["meter.a"])
    assert asgw.attachments() == {}
    # both wire ends released: one ack per gateway
    assert wait_until(lambda: srv.broker.events.count("released", "meter.a") == 2)


# -- transfer ---------------------------------------------------------------


def test_transfer_both_directions(pair):
    _, asgw, sink, lgw, lgw_sink = pair
    lgw.attach_device("meter.a").wait(5)
    up = lgw.transmit("meter.a", b"reading=7")
    assert up.wait(5) is DeliveryStatus.DELIVERED
    assert wait_until(lambda: sink.data == [("meter.a", b"reading=7")])
    down = asgw.transmit("meter.a", b"poll")
    assert down.wait(5) is DeliveryStatus.DELIVERED
    assert wait_until(lambda: lgw_sink.data == [("meter.a", b"poll")])


def test_transfer_ordering_preserved(pair):
    _, _, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    payloads = [f"m{i}".encode() for i in range(40)]
    deliveries = [lgw.transmit("meter.a", p) for p in payloads]
    assert all(d.wait(5) is DeliveryStatus.DELIVERED for d in deliveries)
    assert wait_until(lambda: len(sink.data) == len(payloads))
    assert [p for _, p in sink.data] == payloads


def test_transmit_unattached_resolves_no_wire(pair):
    _, _, _, lgw, _ = pair
    d = lgw.transmit("meter.never", b"x")
    assert d.done and d.status is DeliveryStatus.NO_WIRE


def test_transmit_oversized_payload_raises(pair):
    _, _, _, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    limit = lgw.negotiated.max_frame_size
    with pytest.raises(ValueError):
        lgw.transmit("meter.a", b"x" * (limit + 1))


def test_non_bytes_payload_is_refused_before_it_is_queued(pair):
    _, _, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    with pytest.raises(TypeError):
        lgw.transmit("meter.a", bytearray(b"abc"))
    assert lgw.transmit("meter.a", b"abc").wait(5) is DeliveryStatus.DELIVERED
    assert wait_until(lambda: sink.data == [("meter.a", b"abc")])
    lgw.abort()


def test_invalid_access_is_refused_by_switch_endpoint(pair):
    _, _, _, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    with pytest.raises(ValueError):
        lgw.switch_endpoint(access="internet")
    assert lgw.state is GatewayState.OPEN
    assert lgw.transmit("meter.a", b"still here").wait(5) is DeliveryStatus.DELIVERED


@pytest.mark.parametrize("access", [Access.RADIO, Access.INTERNET], ids=["radio", "internet"])
def test_concurrent_transmitters_all_delivered(srv, access):
    # Over TLS, several caller threads write one SSLSocket while the loop reads it.
    sink = Recorder()
    asgw = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"), sink)
    lgw = open_gateway(gw_config("home-1", Role.LGW, srv, access=access))
    ctids = [f"meter.t{i}" for i in range(4)]
    results = []
    lock = threading.Lock()

    def pump(ctid):
        for i in range(25):
            status = lgw.transmit(ctid, f"{ctid}:{i}".encode()).wait(5)
            with lock:
                results.append(status)

    try:
        for ctid in ctids:
            lgw.attach_device(ctid).wait(5)
        threads = [threading.Thread(target=pump, args=(c,)) for c in ctids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert results.count(DeliveryStatus.DELIVERED) == 100
        assert wait_until(lambda: len(sink.data) == 100)
        for ctid in ctids:
            mine = [p.decode() for c, p in sink.data if c == ctid]
            assert mine == [f"{ctid}:{i}" for i in range(25)]
    finally:
        lgw.abort()
        asgw.abort()


# -- shutdown ---------------------------------------------------------------


def test_close_decommissions_everything_then_says_goodbye(pair):
    srv, asgw, sink, lgw, _ = pair
    for name in ("meter.a", "meter.b", "meter.c"):
        lgw.attach_device(name).wait(5)
    cid = lgw.call_id
    lgw.close()
    assert lgw.state is GatewayState.CLOSED
    assert wait_until(lambda: sorted(sink.detached) == ["meter.a", "meter.b", "meter.c"])
    assert asgw.attachments() == {}
    # both ends of every wire get released; the provider-side acks may trail
    assert wait_until(lambda: srv.broker.events.count("released") == 6)
    events = srv.broker.events.snapshot()
    kinds = [e.kind for e in events]
    bye = next(
        i for i, e in enumerate(events) if e.kind == "session_closed" and e.detail == "bye"
    )
    # the closing gateway's own releases all land before its farewell
    own = [i for i, e in enumerate(events) if e.kind == "released" and e.session == cid]
    assert len(own) == 3 and all(i < bye for i in own)
    assert "peer_down" not in kinds and "watchdog_expired" not in kinds


def test_close_is_idempotent(pair):
    _, _, _, lgw, _ = pair
    lgw.close()
    lgw.close()
    assert lgw.state is GatewayState.CLOSED


def test_close_from_a_callback_says_goodbye_without_waiting(pair):
    # The callback runs on the loop thread, which is the one that would read
    # the acks: close() must send its farewell and return at once.
    srv, asgw, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    took = []

    def close_now(ctid, payload):
        t0 = time.monotonic()
        asgw.close()
        took.append(time.monotonic() - t0)

    sink.on_data = close_now
    lgw.transmit("meter.a", b"last")
    assert wait_until(lambda: took)
    assert took[0] < 1.0
    assert asgw.state is GatewayState.CLOSED
    assert wait_until(
        lambda: [e.detail for e in srv.broker.events.snapshot() if e.kind == "session_closed"]
        == ["bye"]
    )
    assert srv.broker.events.count("peer_down") == 0


def test_abort_leaves_peer_cleanup_to_the_broker(pair):
    srv, asgw, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    lgw.abort()  # process death: FIN without any protocol farewell
    assert wait_until(lambda: sink.peer_down == ["meter.a"])
    assert asgw.attachments() == {}
    assert srv.broker.events.count("peer_down", "meter.a") == 1


# -- keepalive and faults ---------------------------------------------------


def test_idle_session_stays_open_past_many_intervals(fast_srv):
    gw = open_gateway(gw_config("home-1", Role.LGW, fast_srv, keepalive_interval_ms=150.0))
    try:
        time.sleep(1.2)  # eight intervals of silence but for the keepalives
        assert gw.state is GatewayState.OPEN
        assert fast_srv.broker.events.count("watchdog_expired") == 0
    finally:
        gw.close()


def test_report_timeout_resolves_undeliverable(pair):
    _, asgw, _, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    lgw.config.report_timeout_ms = 300.0
    asgw.control.set_blackhole()  # provider goes dark; no report will come
    try:
        d = lgw.transmit("meter.a", b"doomed")
        assert d.wait(5) is DeliveryStatus.PEER_UNAVAILABLE
    finally:
        asgw.control.set_blackhole(False)


def test_dead_link_trips_broker_watchdog_and_peer_down(fast_srv):
    sink = Recorder()
    asgw = open_gateway(
        gw_config("as-metering", Role.ASGW, fast_srv, provider="metering"), sink
    )
    lgw_sink = Recorder()
    lgw = open_gateway(
        gw_config("home-1", Role.LGW, fast_srv, keepalive_interval_ms=150.0), lgw_sink
    )
    try:
        lgw.attach_device("meter.a").wait(5)
        killed_at = time.monotonic()
        lgw.control.set_blackhole()
        expired = fast_srv.broker.events.wait_for(
            lambda e: e.kind == "watchdog_expired", timeout=5.0
        )
        assert expired is not None
        detect_s = time.monotonic() - killed_at
        assert detect_s <= (150 * 3) / 1000.0 + 1.0
        assert wait_until(lambda: sink.peer_down == ["meter.a"])
        assert asgw.attachments() == {}
        # the gateway's own watchdog notices the silence too
        assert wait_until(lambda: lgw.state is GatewayState.DEGRADED, timeout=3.0)
    finally:
        lgw.abort()
        asgw.abort()


def test_link_recovery_reattaches_automatically(fast_srv):
    sink = Recorder()
    asgw = open_gateway(
        gw_config("as-metering", Role.ASGW, fast_srv, provider="metering"), sink
    )
    before = set(threading.enumerate())
    lgw = open_gateway(
        gw_config("home-1", Role.LGW, fast_srv, keepalive_interval_ms=150.0)
    )
    try:
        lgw.attach_device("meter.a").wait(5)
        lgw.control.set_blackhole()
        assert wait_until(lambda: lgw.state is GatewayState.DEGRADED, timeout=3.0)
        lgw.control.set_blackhole(False)
        assert wait_until(lambda: lgw.state is GatewayState.OPEN, timeout=5.0)
        assert wait_until(lambda: "meter.a" in lgw.attachments(), timeout=5.0)
        d = lgw.transmit("meter.a", b"back")
        assert d.wait(5) is DeliveryStatus.DELIVERED
        assert wait_until(lambda: (b"back" in [p for _, p in sink.data]))
        assert len(new_threads(before)) == 1  # reconnecting took no extra thread
    finally:
        lgw.abort()
        asgw.abort()


def test_endpoint_switch_is_invisible_to_the_provider(pair):
    srv, asgw, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    assert lgw.transmit("meter.a", b"before").wait(5) is DeliveryStatus.DELIVERED
    provider_wire = asgw.attachments()["meter.a"]

    lgw.switch_endpoint(access=Access.INTERNET)
    lgw.wait_until_open(10)
    assert wait_until(lambda: "meter.a" in lgw.attachments(), timeout=5.0)
    assert lgw.negotiated.security is Security.SECURE
    assert lgw.transmit("meter.a", b"after").wait(5) is DeliveryStatus.DELIVERED

    assert wait_until(lambda: [p for _, p in sink.data] == [b"before", b"after"])
    assert asgw.attachments()["meter.a"] == provider_wire
    assert sink.attached == ["meter.a"]  # no re-attach visible
    assert sink.detached == [] and sink.peer_down == []
    assert srv.broker.events.count("rebound") >= 1
    assert srv.broker.events.count("peer_down") == 0


def test_provider_restart_buffers_then_flushes(pair):
    srv, asgw, sink, lgw, _ = pair
    lgw.attach_device("meter.a").wait(5)
    asgw.abort()  # provider process dies without a word
    assert wait_until(lambda: srv.broker.events.count("buffering", "meter.a") == 1)

    held = [lgw.transmit("meter.a", f"held{i}".encode()) for i in range(5)]
    assert not any(d.done for d in held)

    sink2 = Recorder()
    asgw2 = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"), sink2)
    try:
        assert all(d.wait(10) is DeliveryStatus.DELIVERED for d in held)
        assert wait_until(lambda: len(sink2.data) == 5)
        assert [p for _, p in sink2.data] == [f"held{i}".encode() for i in range(5)]
        assert srv.broker.events.count("buffer_flush", "meter.a") == 1
    finally:
        asgw2.abort()


def test_full_buffers_flush_to_a_returning_provider(caplog):
    # Three ctids parked near the buffer cap flush into one fresh payload
    # connection in one pass: far more than the cap at once, and more than
    # the socket takes in one send, all of it to a peer that is reading.
    config = ServerConfig()
    ctids = ("meter.a", "meter.b", "meter.c")
    payload = b"p" * 12000
    per_ctid = config.buffer_max_bytes // len(payload)
    with BrokerServer(DIRECTORY, config) as srv:
        asgw = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"))
        lgw = open_gateway(gw_config("home-1", Role.LGW, srv, report_timeout_ms=20000.0))
        try:
            for ctid in ctids:
                lgw.attach_device(ctid).wait(5)
            asgw.abort()
            assert wait_until(lambda: srv.broker.events.count("buffering") == len(ctids))
            held = [lgw.transmit(c, payload) for c in ctids for _ in range(per_ctid)]
            assert wait_until(
                lambda: sum(len(e.buffer) for e in srv.broker.table.by_ctid.values()) == len(held)
            )
            sink2 = Recorder()
            asgw2 = open_gateway(gw_config("as-metering", Role.ASGW, srv, provider="metering"), sink2)
            try:
                assert [d.wait(15) for d in held] == [DeliveryStatus.DELIVERED] * len(held)
                assert wait_until(lambda: len(sink2.data) == len(held))
                assert srv.broker.events.count("packet_dropped") == 0
                assert "unsent bytes" not in caplog.text
            finally:
                asgw2.abort()
        finally:
            lgw.abort()
