"""Broker core driven directly through its byte interface with a fake
outbox and a hand-cranked clock. The gateway side of each exchange is
played by the session operations tested in test_session.py."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from msbc.interconnect.broker import Broker, BrokerConfig
from msbc.interconnect.directory import parse_directory
from msbc.interconnect.wiretable import EntryState
from msbc.session import OpenPayload, SendSignal, make_bye, make_invite, on_signal
from msbc.wire import (
    Access,
    ControlMessage,
    DeliveryReport,
    MAX_FRAME_SIZE,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
    StreamParser,
    TxnGenerator,
    Verb,
    WirePacket,
    encode_frame,
)

DIRECTORY = """\
provider metering subscriber=as-metering
provider lighting subscriber=as-lighting
rule meter.* -> metering
rule light.* -> lighting
"""


class FakeOutbox:
    def __init__(self):
        self.closed = []
        self.parsers = {}
        self.pending = {}

    def send(self, conn_id, data):
        self.pending.setdefault(conn_id, bytearray()).extend(data)

    def close(self, conn_id):
        self.closed.append(conn_id)

    def drain(self, conn_id):
        parser = self.parsers.setdefault(conn_id, StreamParser(max_payload=MAX_FRAME_SIZE))
        data = bytes(self.pending.pop(conn_id, b""))
        return parser.feed(data)


class Rig:
    """One broker plus helpers to play gateways against it."""

    def __init__(self, directory=DIRECTORY, **cfg):
        self.outbox = FakeOutbox()
        self.broker = Broker(parse_directory(directory), self.outbox, BrokerConfig(**cfg))
        self.broker.configure_endpoints("127.0.0.1:7000", "127.0.0.1:7001")
        self.events = self.broker.events
        self.now = 0.0
        self._conn = 0
        self.txns = TxnGenerator()

    def tick(self, ms=0.0):
        self.now += ms
        self.broker.on_tick(self.now)

    def connect(self, secure=False):
        self._conn += 1
        self.broker.on_connect(self._conn, secure=secure, peer="t")
        return self._conn

    def feed(self, conn, frame):
        self.broker.on_bytes(conn, encode_frame(frame), self.now)

    def drain(self, conn):
        return self.outbox.drain(conn)

    def kinds(self, kind):
        return [e for e in self.events.snapshot() if e.kind == kind]


class Gw:
    def __init__(
        self, rig, subscriber, role, provider=None, access=Access.RADIO, attach_payload=True,
        send_ack=True,
    ):
        self.rig = rig
        self.subscriber = subscriber
        self.signal = rig.connect()
        offer = SessionOffer(
            security=Security.PLAIN,
            max_frame_size=16384,
            payload_endpoint="127.0.0.1:1",
            role=role,
            provider=provider,
        )
        self.session, invite = make_invite(
            subscriber, role, provider, access, offer, rig.txns.next()
        )
        rig.feed(self.signal, invite)
        reply = rig.drain(self.signal)[0]
        self.session, actions = on_signal(self.session, reply, txn=rig.txns.next())
        self.actions = actions
        self.payload = None
        if send_ack and actions and isinstance(actions[0], SendSignal):
            rig.feed(self.signal, actions[0].msg)
            if attach_payload:
                self.attach_payload()

    @property
    def negotiated(self):
        return self.session.negotiated

    def attach_payload(self):
        secure = self.negotiated.security is Security.SECURE
        self.payload = self.rig.connect(secure=secure)
        self.rig.feed(
            self.payload,
            ControlMessage(Verb.PING, {"Call-ID": self.session.call_id}, txn=self.rig.txns.next()),
        )
        return self.rig.drain(self.payload)

    def control(self, verb, params):
        self.rig.feed(self.signal, ControlMessage(verb, params, txn=self.rig.txns.next()))

    def signal_frames(self):
        return self.rig.drain(self.signal)

    def payload_frames(self):
        return self.rig.drain(self.payload)

    def send(self, wire, seq, payload=b"x"):
        txn = self.rig.txns.next()
        self.rig.feed(self.payload, WirePacket(txn=txn, wire=wire, seq=seq, payload=payload))
        return txn

    def report(self, pkt, status=200):
        self.rig.feed(
            self.payload,
            DeliveryReport(txn=pkt.txn, wire=pkt.wire, seq=pkt.seq, status=status),
        )


def commission(rig, lgw, asgw, ctid):
    """Full attach handshake; returns (lgw_wire, asgw_wire)."""
    lgw.control(Verb.COMMISSION, {"Ctid": ctid})
    auth = asgw.signal_frames()[-1]
    assert auth.verb is Verb.AUTHORIZE and auth.ctid == ctid
    asgw.control(Verb.AUTHORIZED, {"Ctid": ctid, "Wire": str(auth.wire_param)})
    done = lgw.signal_frames()[-1]
    assert done.verb is Verb.COMMISSIONED and done.ctid == ctid
    return int(done.wire_param), int(auth.wire_param)


@pytest.fixture
def rig():
    return Rig()


@pytest.fixture
def pair(rig):
    asgw = Gw(rig, "as-metering", Role.ASGW, "metering")
    lgw = Gw(rig, "home-gw", Role.LGW)
    return rig, lgw, asgw


# -- session setup -----------------------------------------------------------


def test_lgw_establishes_and_attaches_payload(rig):
    gw = Gw(rig, "home-gw", Role.LGW, attach_payload=False)
    assert gw.session.state.value == "Established"
    assert gw.negotiated.security is Security.PLAIN
    assert gw.negotiated.payload_endpoint == "127.0.0.1:7000"
    pong = gw.attach_payload()
    assert pong[0].verb is Verb.PONG
    assert rig.kinds("session_established")


def test_internet_access_negotiates_secure_endpoint(rig):
    gw = Gw(rig, "as-metering", Role.ASGW, "metering", access=Access.INTERNET, attach_payload=False)
    assert gw.negotiated.security is Security.SECURE
    assert gw.negotiated.payload_endpoint == "127.0.0.1:7001"


def test_plain_attach_to_secure_dialog_refused(rig):
    gw = Gw(rig, "as-metering", Role.ASGW, "metering", access=Access.INTERNET, attach_payload=False)
    conn = rig.connect(secure=False)
    rig.feed(conn, ControlMessage(Verb.PING, {"Call-ID": gw.session.call_id}, txn="t99999999"))
    frames = rig.drain(conn)
    assert frames[0].verb is Verb.ERROR and frames[0].params["Reason"] == "secure-required"
    assert conn in rig.outbox.closed


def test_payload_ping_before_ack_is_accepted(rig):
    gw = Gw(rig, "home-gw", Role.LGW, send_ack=False)
    pong = gw.attach_payload()  # overtakes the ACK
    assert pong[0].verb is Verb.PONG
    rig.feed(gw.signal, gw.actions[0].msg)
    assert rig.kinds("session_established")
    assert rig.broker.sessions[gw.session.call_id].conn_payload == gw.payload
    assert gw.payload not in rig.outbox.closed


def test_plain_attach_before_ack_to_secure_dialog_refused(rig):
    gw = Gw(rig, "as-metering", Role.ASGW, "metering", access=Access.INTERNET, send_ack=False)
    conn = rig.connect(secure=False)
    rig.feed(conn, ControlMessage(Verb.PING, {"Call-ID": gw.session.call_id}, txn="t99999998"))
    frames = rig.drain(conn)
    assert frames[0].verb is Verb.ERROR and frames[0].params["Reason"] == "secure-required"
    assert conn in rig.outbox.closed


def test_asgw_with_wrong_subscriber_rejected(rig):
    gw = Gw(rig, "impostor", Role.ASGW, "metering", attach_payload=False)
    assert gw.session.state.value == "Closed"
    assert gw.actions[0].status == 403


def test_asgw_for_unknown_provider_rejected(rig):
    gw = Gw(rig, "as-x", Role.ASGW, "nosuch", attach_payload=False)
    assert gw.actions[0].status == 403


def test_payload_attach_unknown_dialog_dropped(rig):
    conn = rig.connect()
    rig.feed(conn, ControlMessage(Verb.PING, {"Call-ID": "c-nope"}, txn="t12345678"))
    frames = rig.drain(conn)
    assert frames[0].verb is Verb.ERROR
    assert conn in rig.outbox.closed


def test_stray_request_gets_481(rig):
    from msbc.wire.types import Method

    conn = rig.connect()
    bye = SignalMessage(
        kind="request", method=Method.BYE, from_id="x", to_id="y",
        call_id="c-unknown", cseq=4, access=Access.RADIO, txn="t00000077",
    )
    rig.feed(conn, bye)
    assert rig.drain(conn)[0].status == 481


# -- commissioning -----------------------------------------------------------


def test_commission_full_handshake(pair):
    rig, lgw, asgw = pair
    lw, aw = commission(rig, lgw, asgw, "meter.gas.1")
    assert (lw, aw) == (1, 1)
    entry = rig.broker.table.by_ctid["meter.gas.1"]
    assert entry.state is EntryState.ACTIVE
    assert rig.events.count("commissioned", "meter.gas.1") == 1


def test_commission_wires_count_up(pair):
    rig, lgw, asgw = pair
    assert commission(rig, lgw, asgw, "meter.a") == (1, 1)
    assert commission(rig, lgw, asgw, "meter.b") == (2, 2)
    assert commission(rig, lgw, asgw, "meter.c") == (3, 3)


def test_commission_no_route(pair):
    rig, lgw, _ = pair
    lgw.control(Verb.COMMISSION, {"Ctid": "fridge.1"})
    err = lgw.signal_frames()[-1]
    assert err.verb is Verb.ERROR and err.params["Reason"] == "no-route"


def test_commission_provider_offline(rig):
    lgw = Gw(rig, "home-gw", Role.LGW)
    lgw.control(Verb.COMMISSION, {"Ctid": "meter.1"})
    err = lgw.signal_frames()[-1]
    assert err.params["Reason"] == "provider-unavailable"


def test_commission_duplicate(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    lgw2 = Gw(rig, "other-gw", Role.LGW)
    lgw2.control(Verb.COMMISSION, {"Ctid": "meter.1"})
    err = lgw2.signal_frames()[-1]
    assert err.params["Reason"] == "duplicate"


def test_commission_denied(pair):
    rig, lgw, asgw = pair
    lgw.control(Verb.COMMISSION, {"Ctid": "meter.1"})
    auth = asgw.signal_frames()[-1]
    asgw.control(Verb.DENIED, {"Ctid": "meter.1"})
    err = lgw.signal_frames()[-1]
    assert err.params["Reason"] == "denied"
    # The provisionally allocated provider wire goes straight back.
    assert commission(rig, lgw, asgw, "meter.2") == (1, int(auth.wire_param))


def test_authorize_timeout():
    rig = Rig(keepalive_interval_ms=100, keepalive_misses=3)
    asgw = Gw(rig, "as-metering", Role.ASGW, "metering")
    lgw = Gw(rig, "home-gw", Role.LGW)
    lgw.control(Verb.COMMISSION, {"Ctid": "meter.1"})
    assert asgw.signal_frames()[-1].verb is Verb.AUTHORIZE
    seen = []
    for _ in range(16):
        rig.tick(25)
        # keep both sessions alive under the watchdog while time passes
        lgw.control(Verb.PING, {})
        asgw.control(Verb.PING, {})
        seen += lgw.signal_frames()
        asgw.signal_frames()
    errors = [f for f in seen if getattr(f, "verb", None) is Verb.ERROR]
    assert any(f.params["Reason"] == "provider-timeout" for f in errors)


@pytest.mark.parametrize(
    "end,reason",
    [
        ("timeout", "provider-timeout"),
        ("denied", "denied"),
        ("provider-lost", "provider-unavailable"),
        ("requester-lost", None),
    ],
)
def test_every_end_of_a_pending_authorize_frees_its_wire(pair, end, reason):
    rig, lgw, asgw = pair
    lgw.control(Verb.COMMISSION, {"Ctid": "meter.1"})
    assert asgw.signal_frames()[-1].verb is Verb.AUTHORIZE
    if end == "timeout":
        rig.now = rig.broker.pending_auth[(asgw.session.call_id, "meter.1")].deadline_ms
        for gw in (lgw, asgw):  # both sessions outlive the AUTHORIZE
            gw.control(Verb.PING, {})
        rig.tick()
    elif end == "denied":
        asgw.control(Verb.DENIED, {"Ctid": "meter.1"})
    else:
        rig.broker.on_disconnect((asgw if end == "provider-lost" else lgw).signal, rig.now)
    errors = [f.params["Reason"] for f in lgw.signal_frames() if f.verb is Verb.ERROR]
    assert errors == ([reason] if reason else [])
    assert not rig.broker.pending_auth
    assert all(not bs.allocator.live for bs in rig.broker.sessions.values())


# -- transfer ----------------------------------------------------------------


def test_packet_forwarded_and_report_relayed(pair):
    rig, lgw, asgw = pair
    lw, aw = commission(rig, lgw, asgw, "meter.1")
    txn = lgw.send(lw, 1, b"hello meter")
    got = asgw.payload_frames()[0]
    assert isinstance(got, WirePacket)
    assert (got.wire, got.seq, got.payload) == (aw, 1, b"hello meter")
    assert got.txn != txn  # rewritten on the far leg
    asgw.report(got, 200)
    rpt = lgw.payload_frames()[0]
    assert isinstance(rpt, DeliveryReport)
    assert (rpt.txn, rpt.wire, rpt.seq, rpt.status) == (txn, lw, 1, 200)


def test_transfer_works_provider_to_home(pair):
    rig, lgw, asgw = pair
    lw, aw = commission(rig, lgw, asgw, "meter.1")
    txn = asgw.send(aw, 1, b"read now")
    got = lgw.payload_frames()[0]
    assert (got.wire, got.seq, got.payload) == (lw, 1, b"read now")
    lgw.report(got, 200)
    rpt = asgw.payload_frames()[0]
    assert (rpt.txn, rpt.status) == (txn, 200)


def test_seq_numbers_advance_per_wire(pair):
    rig, lgw, asgw = pair
    lw, aw = commission(rig, lgw, asgw, "meter.1")
    lw2, aw2 = commission(rig, lgw, asgw, "meter.2")
    for n in (1, 2, 3):
        lgw.send(lw, n)
    lgw.send(lw2, 1)
    frames = asgw.payload_frames()
    assert [(f.wire, f.seq) for f in frames] == [(aw, 1), (aw, 2), (aw, 3), (aw2, 1)]


def test_unknown_wire_draws_481(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    txn = lgw.send(42, 1)
    rpt = lgw.payload_frames()[0]
    assert (rpt.txn, rpt.status) == (txn, 481)


def test_seq_violation_kills_session(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    lgw.send(lw, 1)
    asgw.payload_frames()
    lgw.send(lw, 5)
    frames = lgw.signal_frames()
    assert any(
        getattr(f, "verb", None) is Verb.ERROR and f.params["Reason"] == "seq-violation"
        for f in frames
    )
    assert lgw.session.call_id not in rig.broker.sessions
    # Provider is told the home side went away.
    assert any(f.verb is Verb.PEER_DOWN for f in asgw.signal_frames())


def test_oversized_frame_kills_session():
    small = Rig(max_frame_size=64)
    asgw = Gw(small, "as-metering", Role.ASGW, "metering")
    lgw = Gw(small, "home-gw", Role.LGW)
    lw, _ = commission(small, lgw, asgw, "meter.1")
    assert lgw.negotiated.max_frame_size == 64
    lgw.send(lw, 1, b"y" * 65)
    frames = lgw.signal_frames()
    assert any(
        getattr(f, "verb", None) is Verb.ERROR and f.params["Reason"] == "frame-too-large"
        for f in frames
    )


def test_peer_without_payload_conn_reports_480(rig):
    asgw = Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
    lgw = Gw(rig, "home-gw", Role.LGW)
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    txn = lgw.send(lw, 1)
    rpt = lgw.payload_frames()[0]
    assert (rpt.txn, rpt.status) == (txn, 480)


# -- decommission ------------------------------------------------------------


def test_decommission_notifies_both_sides(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    assert lgw.signal_frames()[-1].verb is Verb.DECOMMISSIONED
    assert asgw.signal_frames()[-1].verb is Verb.DECOMMISSIONED
    assert "meter.1" not in rig.broker.table.by_ctid
    assert rig.events.count("decommissioned", "meter.1") == 1


def test_wire_reuse_waits_for_ack(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")  # wires (1, 1)
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    lgw.signal_frames()
    asgw.signal_frames()
    # No acks yet: wire 1 is quarantined on both sides.
    assert commission(rig, lgw, asgw, "meter.2") == (2, 2)
    lgw.control(Verb.DECOMMISSIONED, {"Ctid": "meter.1"})
    asgw.control(Verb.DECOMMISSIONED, {"Ctid": "meter.1"})
    assert rig.events.count("released") == 2
    assert commission(rig, lgw, asgw, "meter.3") == (1, 1)


def test_teardown_state_is_clean_only_once_every_wire_is_released(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    state = rig.broker.teardown_state()
    assert state["table"] == [] and len(state["holding_wires"]) == 2  # quarantined until acked
    assert not state["clean"]
    lgw.control(Verb.DECOMMISSIONED, {"Ctid": "meter.1"})
    asgw.control(Verb.DECOMMISSIONED, {"Ctid": "meter.1"})
    assert rig.broker.teardown_state()["holding_wires"] == []
    for gw in (lgw, asgw):
        gw.session, bye = make_bye(gw.session, rig.txns.next())
        rig.feed(gw.signal, bye)
    rig.tick()
    assert rig.broker.teardown_state() == {
        "table": [], "sessions": [], "holding_wires": [], "clean": True
    }


def test_a_ctid_decommissioned_twice_before_its_first_ack_releases_both_wires(pair):
    # A slow peer acks late: the second release of a ctid must not hide the
    # first, or that wire stays quarantined for the life of the session.
    rig, lgw, asgw = pair
    first = commission(rig, lgw, asgw, "meter.1")
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    second = commission(rig, lgw, asgw, "meter.1")
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    assert first != second  # the first pair is still quarantined
    for gw in (lgw, asgw):
        for _ in range(2):
            gw.control(Verb.DECOMMISSIONED, {"Ctid": "meter.1"})
    for bs in rig.broker.sessions.values():
        assert not bs.allocator.quarantined and not bs.releasing
    assert rig.broker.teardown_state()["holding_wires"] == []
    released = [(e.session, e.wire) for e in rig.kinds("released")]
    for gw, wires in ((lgw, (first[0], second[0])), (asgw, (first[1], second[1]))):
        assert [w for sid, w in released if sid == gw.session.call_id] == list(wires)


def test_a_lost_session_reports_every_wire_it_was_releasing(pair):
    rig, lgw, asgw = pair
    first = commission(rig, lgw, asgw, "meter.1")
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    second = commission(rig, lgw, asgw, "meter.1")
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.1"})
    rig.broker.on_disconnect(asgw.signal, rig.now)
    released = [e.wire for e in rig.kinds("released") if e.session == asgw.session.call_id]
    assert released == [first[1], second[1]]


def test_decommission_unknown_is_idempotent(pair):
    rig, lgw, _ = pair
    lgw.control(Verb.DECOMMISSION, {"Ctid": "meter.zz"})
    assert lgw.signal_frames()[-1].verb is Verb.DECOMMISSIONED


# -- failure cascades --------------------------------------------------------


def test_lgw_loss_sends_peer_down(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    commission(rig, lgw, asgw, "meter.2")
    rig.broker.on_disconnect(lgw.signal, rig.now)
    downs = [f for f in asgw.signal_frames() if f.verb is Verb.PEER_DOWN]
    assert {f.ctid for f in downs} == {"meter.1", "meter.2"}
    assert rig.broker.table.by_ctid == {}
    assert rig.events.count("peer_down") == 2


def test_payload_conn_loss_keeps_session(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    rig.broker.on_disconnect(lgw.payload, rig.now)
    assert lgw.session.call_id in rig.broker.sessions
    txn = asgw.send(1, 1)
    rpt = asgw.payload_frames()[0]
    assert (rpt.txn, rpt.status) == (txn, 480)


@pytest.mark.parametrize("drop", ["disconnect", "replaced"])
def test_payload_conn_loss_answers_relays_in_flight(pair, drop):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    txn = lgw.send(lw, 1, b"in flight")
    assert isinstance(asgw.payload_frames()[0], WirePacket)
    if drop == "disconnect":
        rig.broker.on_disconnect(asgw.payload, rig.now)
    else:
        asgw.attach_payload()  # a second PING for the dialog replaces the first
    assert asgw.session.call_id in rig.broker.sessions
    rpts = lgw.payload_frames()
    assert [(r.txn, r.wire, r.seq, r.status) for r in rpts] == [(txn, lw, 1, 480)]
    assert not rig.broker.pending_relay


def test_watchdog_expires_silent_session():
    fast = Rig(keepalive_interval_ms=100, keepalive_misses=3)
    lgw = Gw(fast, "home-gw", Role.LGW)
    fast.tick(150)
    pings = [f for f in lgw.signal_frames() if getattr(f, "verb", None) is Verb.PING]
    assert pings, "broker should probe after one silent interval"
    fast.tick(200)  # total silence 350ms > 300ms budget
    assert fast.kinds("watchdog_expired")
    assert lgw.session.call_id not in fast.broker.sessions
    closed = fast.kinds("session_closed")
    assert closed and closed[-1].detail == "watchdog"


def test_pong_defers_watchdog():
    fast = Rig(keepalive_interval_ms=100, keepalive_misses=3)
    lgw = Gw(fast, "home-gw", Role.LGW)
    for _ in range(10):
        fast.tick(80)
        lgw.control(Verb.PONG, {})
    assert not fast.kinds("watchdog_expired")


def test_bye_tears_down_cleanly(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    lgw.session, bye = make_bye(lgw.session, rig.txns.next())
    rig.feed(lgw.signal, bye)
    closed = rig.kinds("session_closed")
    assert closed and closed[-1].detail == "bye"
    # Entry still present at BYE time: provider hears peer-down.
    assert any(f.verb is Verb.PEER_DOWN for f in asgw.signal_frames())


# -- provider loss, buffering, return ---------------------------------------


def test_asgw_loss_starts_buffering(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    rig.broker.on_disconnect(asgw.signal, rig.now)
    assert rig.kinds("buffering")
    entry = rig.broker.table.by_ctid["meter.1"]
    assert entry.state is EntryState.BUFFERING and entry.asgw is None
    lgw.send(lw, 1, b"p1")
    lgw.send(lw, 2, b"p2")
    assert lgw.payload_frames() == []  # no reports while parked
    assert len(entry.buffer) == 2


def test_provider_return_flushes_in_order(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    rig.broker.on_disconnect(asgw.signal, rig.now)
    txns = [lgw.send(lw, n, b"pkt%d" % n) for n in range(1, 6)]
    asgw2 = Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
    auth = asgw2.signal_frames()[-1]
    assert auth.verb is Verb.AUTHORIZE and auth.ctid == "meter.1"
    asgw2.control(Verb.AUTHORIZED, {"Ctid": "meter.1", "Wire": str(auth.wire_param)})
    attach_frames = asgw2.attach_payload()  # flush rides right behind the pong
    got = [f for f in attach_frames + asgw2.payload_frames() if isinstance(f, WirePacket)]
    assert [g.payload for g in got] == [b"pkt1", b"pkt2", b"pkt3", b"pkt4", b"pkt5"]
    assert [g.seq for g in got] == [1, 2, 3, 4, 5]
    assert rig.kinds("peer_up") and rig.kinds("buffer_flush")
    for g in got:
        asgw2.report(g, 200)
    reports = lgw.payload_frames()
    assert [r.txn for r in reports] == txns
    assert all(r.status == 200 for r in reports)


def test_buffer_cap_drops_and_reports(pair):
    capped = Rig(buffer_max_packets=2)
    asgw = Gw(capped, "as-metering", Role.ASGW, "metering")
    lgw = Gw(capped, "home-gw", Role.LGW)
    lw, _ = commission(capped, lgw, asgw, "meter.1")
    capped.broker.on_disconnect(asgw.signal, capped.now)
    lgw.send(lw, 1)
    lgw.send(lw, 2)
    txn3 = lgw.send(lw, 3)
    rpt = lgw.payload_frames()[0]
    assert (rpt.txn, rpt.status) == (txn3, 480)
    assert capped.kinds("packet_dropped")


def test_traffic_sent_mid_reattach_stays_ordered(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    rig.broker.on_disconnect(asgw.signal, rig.now)
    lgw.send(lw, 1, b"old1")
    asgw2 = Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
    auth = asgw2.signal_frames()[-1]
    asgw2.control(Verb.AUTHORIZED, {"Ctid": "meter.1", "Wire": str(auth.wire_param)})
    # Entry is active again but payload not yet attached: still parked.
    lgw.send(lw, 2, b"old2")
    attach_frames = asgw2.attach_payload()
    lgw.send(lw, 3, b"live")
    got = [f for f in attach_frames + asgw2.payload_frames() if isinstance(f, WirePacket)]
    assert [g.payload for g in got] == [b"old1", b"old2", b"live"]
    assert [g.seq for g in got] == [1, 2, 3]


def test_home_reattach_mid_reattach_leaves_parked_packets_for_the_provider(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    rig.broker.on_disconnect(asgw.signal, rig.now)
    txn = lgw.send(lw, 1, b"parked")
    asgw2 = Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
    auth = asgw2.signal_frames()[-1]
    asgw2.control(Verb.AUTHORIZED, {"Ctid": "meter.1", "Wire": str(auth.wire_param)})
    # The provider has not attached yet; the home gateway attaches again.
    assert not any(isinstance(f, WirePacket) for f in lgw.attach_payload())
    got = [f for f in asgw2.attach_payload() if isinstance(f, WirePacket)]
    assert [(g.wire, g.seq, g.payload) for g in got] == [(int(auth.wire_param), 1, b"parked")]
    asgw2.report(got[0], 200)
    assert [(r.txn, r.status) for r in lgw.payload_frames()] == [(txn, 200)]


# -- access switch (same subscriber reconnects) ------------------------------


def test_new_session_supersedes_same_subscriber(pair):
    rig, lgw, asgw = pair
    lw, aw = commission(rig, lgw, asgw, "meter.1")
    lgw.send(lw, 1, b"before")
    asgw.payload_frames()
    lgw2 = Gw(rig, "home-gw", Role.LGW, access=Access.INTERNET)
    assert rig.kinds("rebound")
    closed = [e for e in rig.kinds("session_closed") if e.detail == "superseded"]
    assert closed and closed[0].session == lgw.session.call_id
    # Same device id resolves to a wire on the new session, provider untouched.
    lgw2.control(Verb.COMMISSION, {"Ctid": "meter.1"})
    done = lgw2.signal_frames()[-1]
    assert done.verb is Verb.COMMISSIONED
    new_wire = int(done.wire_param)
    lgw2.send(new_wire, 1, b"after")
    got = asgw.payload_frames()[0]
    # Provider keeps its wire and its seq stream just keeps counting.
    assert (got.wire, got.seq, got.payload) == (aw, 2, b"after")
    assert not any(f.verb is Verb.PEER_DOWN for f in asgw.signal_frames())
    assert rig.events.count("decommissioned") == 0


def test_supersede_requires_same_subscriber(pair):
    rig, lgw, asgw = pair
    commission(rig, lgw, asgw, "meter.1")
    Gw(rig, "another-home", Role.LGW)
    assert not rig.kinds("rebound")
    assert lgw.session.call_id in rig.broker.sessions


def test_new_asgw_session_supersedes_provider(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    asgw2 = Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
    auth = asgw2.signal_frames()[-1]
    assert auth.verb is Verb.AUTHORIZE
    asgw2.control(Verb.AUTHORIZED, {"Ctid": "meter.1", "Wire": str(auth.wire_param)})
    asgw2.attach_payload()
    lgw.send(lw, 1, b"migrated")
    got = asgw2.payload_frames()[0]
    assert got.payload == b"migrated" and got.seq == 1


def test_packet_in_flight_to_superseded_provider_gets_480(pair):
    rig, lgw, asgw = pair
    lw, _ = commission(rig, lgw, asgw, "meter.1")
    txn = lgw.send(lw, 1, b"in flight")
    assert isinstance(asgw.payload_frames()[0], WirePacket)  # the hung provider never reports
    Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
    assert [e.detail for e in rig.kinds("session_closed")] == ["superseded"]
    rpts = lgw.payload_frames()
    assert [(r.txn, r.wire, r.seq, r.status) for r in rpts] == [(txn, lw, 1, 480)]
    assert not rig.broker.pending_relay


def test_superseded_provider_parks_and_releases_each_wire(pair):
    rig, lgw, asgw = pair
    wires = [commission(rig, lgw, asgw, ctid)[1] for ctid in ("meter.1", "meter.2")]
    asgw2 = Gw(rig, "as-metering", Role.ASGW, "metering")
    old = asgw.session.call_id
    seen = [
        (e.kind, e.ctid, e.wire, e.detail)
        for e in rig.events.snapshot()
        if e.session == old and e.kind in ("session_closed", "buffering", "released")
    ]
    assert seen == [
        ("session_closed", "", -1, "superseded"),
        ("buffering", "meter.1", wires[0], "superseded"),
        ("released", "meter.1", wires[0], ""),
        ("buffering", "meter.2", wires[1], "superseded"),
        ("released", "meter.2", wires[1], ""),
    ]
    for auth in asgw2.signal_frames():
        asgw2.control(Verb.AUTHORIZED, {"Ctid": auth.ctid, "Wire": str(auth.wire_param)})
    for gw in (lgw, asgw2):
        gw.session, bye = make_bye(gw.session, rig.txns.next())
        rig.feed(gw.signal, bye)
    rig.tick()
    assert rig.broker.teardown_state()["clean"]


def test_tracing_hooks_resolve_and_count_a_park_and_a_flush():
    """benchmark/tracing.py wraps broker internals by name from outside the
    program; a renamed hook fails here rather than in the traced benchmark."""
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(
        """
        from msbc.interconnect import BrokerServer, ServerConfig, parse_directory
        from msbc.wire import Role, Verb
        from test_broker_core import DIRECTORY, Gw, Rig, commission
        from tracing import Tracer, install_broker, install_driver

        rig = Rig()
        server = BrokerServer(parse_directory(DIRECTORY), ServerConfig())
        server.broker.outbox = rig.outbox  # the unstarted server has no sockets
        server.broker.configure_endpoints("127.0.0.1:7000", "127.0.0.1:7001")
        rig.broker, rig.events = server.broker, server.events
        tracer = Tracer()
        install_broker(tracer, server)
        install_driver(tracer)

        asgw = Gw(rig, "as-metering", Role.ASGW, "metering")
        lgw = Gw(rig, "home-gw", Role.LGW)
        lw, _ = commission(rig, lgw, asgw, "meter.1")
        rig.broker.on_disconnect(asgw.signal, rig.now)
        lgw.send(lw, 1, b"parked")
        assert tracer.maxima["broker.buffered"] == 1, tracer.maxima
        asgw2 = Gw(rig, "as-metering", Role.ASGW, "metering", attach_payload=False)
        auth = asgw2.signal_frames()[-1]
        asgw2.control(Verb.AUTHORIZED, {"Ctid": "meter.1", "Wire": str(auth.wire_param)})
        asgw2.attach_payload()
        assert rig.kinds("buffer_flush")
        rig.broker.on_disconnect(asgw2.signal, rig.now)
        lgw.send(lw, 2, b"parked again")
        assert tracer.maxima["broker.buffered"] == 1, "the flush went uncounted"
        stats = tracer.window()["stats"]
        assert stats["broker.on_bytes"][0] and stats["server.outbox_send"][0], stats
        """
    )
    path = os.pathsep.join(str(root / d) for d in ("src", "benchmark", "tests"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
