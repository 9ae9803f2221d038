"""GatewayCore and the facade's write path without sockets: a real broker
core and real gateways joined by in-memory links, each loop pass run by
``Gateway._pass`` exactly as the event loop would run it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msbc.gateway import DeliveryStatus, Gateway, GatewayConfig, GatewayState, Receiver
from msbc.gateway.api import GatewayCore
from msbc.interconnect.broker import Broker, BrokerConfig
from msbc.interconnect.directory import parse_directory
from msbc.loop import now_ms
from msbc.wire import (
    ControlMessage,
    DeliveryReport,
    Role,
    StreamParser,
    Verb,
    WirePacket,
    encode_frame,
)

DIRECTORY = parse_directory(
    """
    provider metering subscriber=as-metering
    rule meter.* -> metering
    """
)


class Recorder(Receiver):
    def __init__(self):
        self.data = []

    def on_data(self, ctid, payload):
        self.data.append((ctid, payload))


class Pipe:
    """A link with no socket. What the gateway writes goes to the broker
    core; what the broker writes waits here for the gateway's next pass.
    Like a real link, it swallows writes and drops reads while dark."""

    def __init__(self, net, control):
        self.net = net
        self.control = control
        self.conn = net.next_conn = net.next_conn + 1
        self.inbound = bytearray()
        self.lost = False
        self.queued = []
        self.log = []  # ("write", frames) per flush that wrote, then "close"
        self.sent = StreamParser()  # decodes this link's writes for the assertions
        net.pipes[self.conn] = self
        net.broker.on_connect(self.conn, peer="sim")

    def send_frame(self, frame):
        if not self.control.blackhole:
            self.queued.append(frame)
        return True

    def flush(self):
        frames, self.queued = self.queued, []
        if frames and not self.control.blackhole:
            self.log.append(("write", frames))
            data = b"".join(encode_frame(f) for f in frames)
            assert self.sent.feed(data) == frames  # one write, whole frames
            self.net.broker.on_bytes(self.conn, data, now_ms())

    def read(self):
        if self.lost:
            return b""
        data, self.inbound = bytes(self.inbound), bytearray()
        return None if not data or self.control.blackhole else data

    def close(self):
        self.log.append("close")
        if not self.control.blackhole:
            self.net.broker.on_disconnect(self.conn, now_ms())


class Net:
    """One broker core, its outbox, and the gateways on in-memory links."""

    def __init__(self):
        self.broker = Broker(DIRECTORY, self, BrokerConfig())
        self.broker.configure_endpoints("10.0.0.1:5001", "10.0.0.1:5002")
        self.pipes = {}
        self.next_conn = 0
        self.gateways = []

    # the broker's outbox
    def send(self, conn_id, data):
        self.pipes[conn_id].inbound += data

    def close(self, conn_id):
        self.pipes[conn_id].lost = True

    def gateway(self, subscriber, role, provider=None):
        config = GatewayConfig(subscriber, role, "10.0.0.1:5000", provider=provider)
        gw = Gateway(config, Recorder())
        gw._dial = lambda sig, endpoint, secure: self._dial(gw, sig)
        self.gateways.append(gw)
        gw._core.open(now_ms())
        gw._tick(now_ms())
        self.settle()
        assert gw.state is GatewayState.OPEN
        return gw

    def _dial(self, gw, sig):
        pipe = Pipe(self, gw.control)
        gw._locked(gw._core.on_connected, sig, pipe, f"10.0.0.9:{pipe.conn}", now_ms())

    def run_pass(self, gw):
        """One loop pass of ``gw``: every link with bytes waiting is ready."""
        gw._ready.extend(p for p in self.pipes.values()
                         if p.control is gw.control and (p.inbound or p.lost))
        gw._pass()

    def settle(self):
        for _ in range(50):
            if not any(p.inbound for p in self.pipes.values()) and not any(
                gw._core.dials for gw in self.gateways
            ):
                return
            for gw in self.gateways:
                mine = [p for p in self.pipes.values() if p.control is gw.control]
                gw._ready.extend(p for p in mine if p.inbound)
                gw._pass()
        raise AssertionError("the network did not settle")


def links(gw):
    core = gw._core
    return core._signal, core._payload


@pytest.fixture
def net():
    net = Net()
    net.provider = net.gateway("as-metering", Role.ASGW, provider="metering")
    net.home = net.gateway("home-1", Role.LGW)
    att = net.home.attach_device("meter.a")
    net.settle()
    assert att.attached
    return net


def sends(wire, seqs):
    return b"".join(encode_frame(WirePacket(f"t{seq:08d}", wire, seq, b"p%d" % seq)) for seq in seqs)


def test_n_sends_in_one_chunk_get_one_write_of_n_reports_in_order(net):
    gw = net.provider
    _, payload = links(gw)
    wire = gw.attachments()["meter.a"]
    before = len(payload.log)
    payload.inbound += sends(wire, range(1, 9))
    net.run_pass(gw)
    assert gw.receiver.data == [("meter.a", b"p%d" % seq) for seq in range(1, 9)]
    [(kind, frames)] = payload.log[before:]
    assert kind == "write"
    assert frames == [DeliveryReport(f"t{seq:08d}", wire, seq, 200) for seq in range(1, 9)]


@given(st.lists(st.booleans(), min_size=1, max_size=12))
@settings(max_examples=30)
def test_a_blackhole_flipped_between_passes_never_splits_a_delivery_from_its_report(darkness):
    net = Net()
    gw = net.gateway("as-metering", Role.ASGW, provider="metering")
    home = net.gateway("home-1", Role.LGW)
    home.attach_device("meter.a")
    net.settle()
    _, payload = links(gw)
    wire = gw.attachments()["meter.a"]
    for i, dark in enumerate(darkness):
        gw.control.set_blackhole(dark)  # between passes, as a fault flip takes the lock
        payload.inbound += sends(wire, [2 * i + 1, 2 * i + 2])
        net.run_pass(gw)
    delivered = [int(p[1:]) for _, p in gw.receiver.data]
    reported = [f.seq for entry in payload.log if entry != "close" for f in entry[1]
                if isinstance(f, DeliveryReport)]
    assert delivered == reported
    assert len(delivered) == 2 * darkness.count(False)


def test_a_reply_queued_in_the_pass_that_loses_the_session_leaves_before_the_fin(net):
    gw = net.home
    signal, payload = links(gw)
    before = len(signal.log)
    # one pass: the provider's end went (PEER-DOWN on signaling), and the
    # payload link hit EOF; the DECOMMISSIONED ack must still go out first
    signal.inbound += encode_frame(ControlMessage(Verb.PEER_DOWN, {"Ctid": "meter.a"}, txn="b0000001"))
    payload.lost = True
    net.run_pass(gw)
    (wrote, [ack]), closed = signal.log[before:]
    assert wrote == "write" and closed == "close"
    assert ack.verb is Verb.DECOMMISSIONED and ack.params == {"Ctid": "meter.a"}
    assert payload.log[-1] == "close"
    assert gw.state is GatewayState.DEGRADED


class CountingDict(dict):
    """Counts the entries a caller touches."""

    touched = 0

    def pop(self, *args):
        self.touched += 1
        return super().pop(*args)

    def __iter__(self):
        raise AssertionError("scanned")

    def items(self):
        raise AssertionError("scanned")

    def values(self):
        raise AssertionError("scanned")


def test_report_deadlines_resolve_in_send_order_without_a_scan(net):
    core: GatewayCore = net.home._core
    core._reports = CountingDict()
    core.config.report_timeout_ms = 100.0
    t = now_ms()
    sent = [core.transmit("meter.a", b"x", t + 10.0 * i) for i in range(1000)]
    core.out.clear()  # never written: no report can come
    # a report for the third packet arrives before its deadline
    third = next(txn for _, txn in list(core._deadlines)[2:3])
    core.on_bytes(links(net.home)[1], encode_frame(DeliveryReport(third, 1, 3, 200)), t)
    core._reports.touched = 0
    core.on_tick(t + 100.0)
    assert [d.status for d in sent[:2]] == [DeliveryStatus.PEER_UNAVAILABLE, None]
    assert core._reports.touched == 1  # the one due entry, not the 999 others
    core.on_tick(t + 125.0)
    assert [d.status for d in sent[:4]] == [
        DeliveryStatus.PEER_UNAVAILABLE,
        DeliveryStatus.PEER_UNAVAILABLE,
        DeliveryStatus.DELIVERED,  # answered in time, left as it was
        None,
    ]
    assert sum(d.done for d in sent) == 3


def test_a_lowered_report_timeout_holds_for_the_next_packet(net):
    core: GatewayCore = net.home._core
    t = now_ms()
    first = core.transmit("meter.a", b"x", t)  # the default 2,000 ms
    core.config.report_timeout_ms = 100.0
    second = core.transmit("meter.a", b"y", t + 10.0)
    core.out.clear()  # never written: no report can come
    core.on_tick(t + 150.0)
    assert (first.status, second.status) == (None, DeliveryStatus.PEER_UNAVAILABLE)
    core.on_tick(t + 2000.0)
    assert first.status is DeliveryStatus.PEER_UNAVAILABLE


@pytest.mark.parametrize("verb", [Verb.COMMISSIONED, Verb.AUTHORIZE])
def test_a_grant_of_a_wire_past_the_wire_id_range_is_refused(net, verb):
    # A wire id the gateway cannot write must not be installed: every
    # later write through the gateway would be an invalid frame.
    gw = net.home if verb is Verb.COMMISSIONED else net.provider
    signal, _ = links(gw)
    grant = b"MSBC CONTROL b0000001\r\nWire: 0\r\nVerb: %b\r\nCtid: meter.b\r\nWire: 4294967296\r\n\r\n"
    signal.inbound += grant % verb.value.encode()
    net.run_pass(gw)
    assert signal.log[-1] == "close"  # the link that carried it is dropped
    assert "meter.b" not in gw.attachments()
    assert 4294967296 not in gw._core._by_wire
    gw.transmit("meter.b", b"x")
    if gw is net.home:
        gw.attach_device("meter.c")
    gw._tick(now_ms() + gw.config.keepalive_interval_ms)
    net.settle()
    assert gw.state is GatewayState.OPEN  # it reconnected
    assert "meter.b" not in gw.attachments()
