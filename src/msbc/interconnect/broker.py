"""Transport-free broker core.

The broker terminates every gateway dialog (back-to-back user agent): wire
ids, seq numbers, and txn ids are rewritten on each leg, so the two sides of
a device entry never see each other's identifiers. All I/O happens through
an Outbox and all timing through explicit ``now_ms`` arguments, which keeps
the core single-threaded and replayable.

Connection lifecycle: a fresh connection is untyped until its first frame.
An INVITE makes it the session's signaling connection; a service-wire PING
carrying ``Call-ID`` binds it as the payload connection of that dialog.

Packet path: a SEND goes on under a fresh broker txn and is filed, as it
arrived and with its source session, in ``pending_relay`` until the far side
reports on it; the REPORT then goes back under the sender's own txn. While a
provider is away its entries park the arriving packets in order
(``Entry.buffer``) and flush them to the session that authorizes them next.
Every session leaves through ``_session_lost``, whatever ended it.

Event kinds logged here: session_established, session_closed, commissioned,
decommissioned, released, rebound, peer_down, peer_up, buffering,
buffer_flush, buffer_dropped, packet_dropped, watchdog_expired,
protocol_error, denied.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Protocol

from msbc.session import (
    Keepalive,
    SendSignal,
    Session,
    SessionState,
    Unacceptable,
    accept,
    answer_offer,
    keepalive_deadline,
    liveness,
    on_signal,
    receive_invite,
    reject,
)
from msbc.interconnect.directory import SubscriptionDirectory, lookup_provider
from msbc.interconnect.events import Event, EventLog
from msbc.interconnect.wiretable import End, Entry, EntryState, WireAllocator, WireTable
from msbc.wire import (
    Access,
    ControlMessage,
    DeliveryReport,
    Frame,
    MAX_FRAME_SIZE,
    Method,
    ProtocolViolation,
    Role,
    Security,
    SignalMessage,
    StreamParser,
    TxnGenerator,
    Verb,
    WirePacket,
    encode_frame,
)
from msbc.wire.types import STATUS_NO_SUCH_WIRE, STATUS_PEER_UNAVAILABLE


class Outbox(Protocol):
    def send(self, conn_id: int, data: bytes) -> None: ...

    def close(self, conn_id: int) -> None: ...


@dataclass
class BrokerConfig:
    keepalive_interval_ms: float = 5000.0
    keepalive_misses: int = 3
    buffer_max_packets: int = 1024
    buffer_max_bytes: int = 4 * 1024 * 1024
    max_frame_size: int = 16384

    @property
    def silence_budget_ms(self) -> float:
        return self.keepalive_interval_ms * self.keepalive_misses


@dataclass
class _Conn:
    parser: StreamParser
    secure: bool = False
    peer: str = ""
    kind: str = "new"  # new | signal | payload
    session_id: str = ""


@dataclass
class _BrokerSession:
    id: str
    session: Session
    role: Role
    subscriber: str
    provider: str | None
    conn_signal: int | None = None
    conn_payload: int | None = None
    allocator: WireAllocator = field(default_factory=WireAllocator)
    releasing: dict[str, list[int]] = field(default_factory=dict)  # ctid -> wires, oldest first
    last_ping_ms: float = -1e18
    last_activity: float = 0.0  # now_ms of its last frame; the watchdog reads it
    due_ms: float = 0.0  # its live entry in Broker._timers; others there are stale


@dataclass
class _PendingAuth:
    kind: str  # commission | reattach
    asgw_id: str
    ctid: str
    wire: int
    deadline_ms: float
    requester: str = ""  # lgw session id for commissions


class Broker:
    def __init__(
        self,
        directory: SubscriptionDirectory,
        outbox: Outbox,
        config: BrokerConfig | None = None,
        events: EventLog | None = None,
    ):
        self.directory = directory
        self.outbox = outbox
        self.config = config or BrokerConfig()
        self.events = events or EventLog()
        self.table = WireTable()
        self.conns: dict[int, _Conn] = {}
        self.sessions: dict[str, _BrokerSession] = {}
        self.txns = TxnGenerator(prefix="b")
        self.pending_auth: dict[tuple[str, str], _PendingAuth] = {}
        # (destination session, broker txn) -> (source session, the SEND as it
        # arrived); Entry.buffer holds the same pairs while an entry is parked.
        self.pending_relay: dict[tuple[str, str], tuple[str, WirePacket]] = {}
        self._timers: list[tuple[float, str]] = []  # (due, session id) heap; frames leave it early
        self.payload_endpoints: dict[Security, str] = {}
        self.now_ms = 0.0

    def teardown_state(self) -> dict:
        """What must be gone once every gateway has closed: wire-table
        entries, sessions, and sessions whose allocator still holds live or
        quarantined wires. ``clean`` is True when all three are empty.
        Another thread may poll it while the loop runs (it iterates copies),
        but only a read after the loop has stopped is exact."""
        state = {
            "table": sorted(self.table.by_ctid),
            "sessions": sorted(self.sessions),
            "holding_wires": [
                sid
                for sid, bs in list(self.sessions.items())
                if bs.allocator.live or bs.allocator.quarantined
            ],
        }
        return {**state, "clean": not any(state.values())}

    def configure_endpoints(self, plain: str, secure: str) -> None:
        self.payload_endpoints = {Security.PLAIN: plain, Security.SECURE: secure}

    # -- connection lifecycle ------------------------------------------------

    def on_connect(self, conn_id: int, secure: bool = False, peer: str = "") -> None:
        self.conns[conn_id] = _Conn(
            parser=StreamParser(max_payload=MAX_FRAME_SIZE), secure=secure, peer=peer
        )

    def on_bytes(self, conn_id: int, data: bytes, now_ms: float) -> None:
        self.now_ms = now_ms
        conn = self.conns.get(conn_id)
        if conn is None:
            return
        try:
            frames = conn.parser.feed(data)
        except ProtocolViolation as exc:
            self._drop_conn(conn_id, f"unparseable: {exc.reason}")
            return
        for frame in frames:
            if conn_id not in self.conns:  # an earlier frame closed us
                return
            self._dispatch(conn_id, conn, frame)

    def on_disconnect(self, conn_id: int, now_ms: float) -> None:
        self.now_ms = now_ms
        self._conn_gone(conn_id, self.conns.pop(conn_id, None), "connection-lost")

    def next_deadline(self) -> float | None:
        """The earliest now_ms at which ``on_tick`` may have work, or None."""
        due = self._timers[0][0] if self._timers else None
        if self.pending_auth:  # one timeout for all: the first inserted is due first
            auth = next(iter(self.pending_auth.values())).deadline_ms
            due = auth if due is None else min(due, auth)
        return due

    def on_tick(self, now_ms: float) -> None:
        self.now_ms = now_ms
        cfg = self.config
        while self._timers and self._timers[0][0] <= now_ms:
            due, sid = heapq.heappop(self._timers)
            bs = self.sessions.get(sid)
            if bs is None or bs.due_ms != due:
                continue
            verdict = liveness(bs.last_activity, now_ms, cfg.keepalive_interval_ms, cfg.keepalive_misses)
            if verdict is Keepalive.EXPIRED:
                silent = now_ms - bs.last_activity
                self._event("watchdog_expired", session=bs.id, detail=f"silent_ms={silent:.0f}")
                self._session_lost(bs, "watchdog")
                continue
            if verdict is Keepalive.SEND_PING and bs.session.state is SessionState.ESTABLISHED:
                if now_ms >= bs.last_ping_ms + cfg.keepalive_interval_ms:
                    bs.last_ping_ms = now_ms
                    self._send_control(bs, Verb.PING, {})
            self._arm(bs)
        while self.pending_auth:
            key, pending = next(iter(self.pending_auth.items()))
            if now_ms < pending.deadline_ms:
                break
            del self.pending_auth[key]
            self._end_auth(pending, "provider-timeout")

    def _arm(self, bs: _BrokerSession) -> None:
        """File ``bs``'s timer: its next PING once established, else its expiry."""
        cfg, probing = self.config, bs.session.state is SessionState.ESTABLISHED
        bs.due_ms = keepalive_deadline(
            bs.last_activity, bs.last_ping_ms, cfg.keepalive_interval_ms, cfg.keepalive_misses, probing
        )
        heapq.heappush(self._timers, (bs.due_ms, bs.id))

    # -- frame dispatch ------------------------------------------------------

    def _dispatch(self, conn_id: int, conn: _Conn, frame: Frame) -> None:
        if isinstance(frame, SignalMessage):
            self._on_signal_frame(conn_id, conn, frame)
        elif isinstance(frame, ControlMessage):
            self._on_control(conn_id, conn, frame)
        elif isinstance(frame, WirePacket):
            self._on_send(conn_id, conn, frame)
        else:
            self._on_report(conn_id, conn, frame)

    # -- signaling -----------------------------------------------------------

    def _on_signal_frame(self, conn_id: int, conn: _Conn, msg: SignalMessage) -> None:
        if conn.kind == "payload":
            self._drop_conn(conn_id, "signaling on payload connection")
            return
        bs = self.sessions.get(msg.call_id)
        if bs is None:
            if msg.is_request and msg.method is Method.INVITE:
                self._on_invite(conn_id, conn, msg)
            elif msg.is_request:
                self._send_raw(conn_id, self._stray_481(msg))
            return
        bs.last_activity = self.now_ms
        before = bs.session.state
        bs.session, actions = on_signal(bs.session, msg, txn=self.txns.next())
        for action in actions:
            if isinstance(action, SendSignal):
                self._send_raw(conn_id, encode_frame(action.msg))
        after = bs.session.state
        if before is not SessionState.ESTABLISHED and after is SessionState.ESTABLISHED:
            self._on_established(bs)
        if before is not SessionState.CLOSED and after is SessionState.CLOSED:
            self._session_lost(bs, "bye" if msg.is_request else "signal-close")

    def _on_invite(self, conn_id: int, conn: _Conn, msg: SignalMessage) -> None:
        offer = msg.body
        sess = receive_invite(msg, remote_endpoint=conn.peer)
        role, provider = offer.role, offer.provider
        if role is Role.ASGW:
            record = self.directory.providers.get(provider or "")
            if record is None or record.subscriber != msg.from_id:
                sess, out = reject(sess, 403, "Forbidden", self.txns.next(), Access.RADIO)
                self._send_raw(conn_id, encode_frame(out))
                self._event(
                    "protocol_error", session=msg.call_id, detail=f"forbidden provider={provider}"
                )
                return
        secure = msg.access is Access.INTERNET
        endpoint = self.payload_endpoints.get(
            Security.SECURE if secure else Security.PLAIN, "127.0.0.1:0"
        )
        try:
            answer = answer_offer(offer, msg.access, Access.RADIO, self.config.max_frame_size, endpoint)
        except Unacceptable as exc:
            sess, out = reject(sess, 488, "Not Acceptable", self.txns.next(), Access.RADIO)
            self._send_raw(conn_id, encode_frame(out))
            self._event("protocol_error", session=msg.call_id, detail=str(exc))
            return
        sess, out = accept(sess, answer, self.txns.next(), Access.RADIO)
        bs = _BrokerSession(
            id=msg.call_id,
            session=sess,
            role=role,
            subscriber=msg.from_id,
            provider=provider,
            conn_signal=conn_id,
            last_activity=self.now_ms,
        )
        self.sessions[bs.id] = bs
        self._arm(bs)
        conn.kind = "signal"
        conn.session_id = bs.id
        self._send_raw(conn_id, encode_frame(out))

    def _on_established(self, bs: _BrokerSession) -> None:
        self._event(
            "session_established",
            session=bs.id,
            detail=f"role={bs.role.value} subscriber={bs.subscriber}",
        )
        self._arm(bs)
        for other in list(self.sessions.values()):
            if other.id == bs.id or other.session.state is not SessionState.ESTABLISHED:
                continue
            if bs.role is Role.LGW and other.role is Role.LGW and other.subscriber == bs.subscriber:
                self._supersede_lgw(other, bs)
            elif bs.role is Role.ASGW and other.role is Role.ASGW and other.provider == bs.provider:
                self._session_lost(other, "superseded")
        if bs.role is Role.ASGW:
            self._provider_return(bs)

    def _supersede_lgw(self, old: _BrokerSession, new: _BrokerSession) -> None:
        """Same subscriber reconnected (access switch): move its wires over
        without touching the provider side, so the switch stays invisible."""
        for entry in self.table.entries_for_session(old.id):
            if entry.lgw is None or entry.lgw.session_id != old.id:
                continue
            wire = new.allocator.allocate()
            self.table.bind(entry, "lgw", End(new.id, wire))
            self._event("rebound", session=new.id, ctid=entry.ctid, wire=wire, detail=f"from={old.id}")
        self._session_lost(old, "superseded")

    def _provider_return(self, bs: _BrokerSession) -> None:
        for entry in self.table.entries_for_provider(bs.provider or ""):
            if entry.state is not EntryState.BUFFERING or entry.asgw is not None:
                continue
            if (bs.id, entry.ctid) in self.pending_auth:
                continue
            wire = bs.allocator.allocate()
            self.pending_auth[(bs.id, entry.ctid)] = _PendingAuth(
                kind="reattach",
                asgw_id=bs.id,
                ctid=entry.ctid,
                wire=wire,
                deadline_ms=self.now_ms + self.config.silence_budget_ms,
            )
            self._send_control(bs, Verb.AUTHORIZE, {"Ctid": entry.ctid, "Wire": str(wire)})

    # -- service wire --------------------------------------------------------

    def _on_control(self, conn_id: int, conn: _Conn, msg: ControlMessage) -> None:
        if conn.kind == "new":
            if msg.verb is Verb.PING and "Call-ID" in msg.params:
                self._attach_payload(conn_id, conn, msg)
            else:
                self._drop_conn(conn_id, "unbound connection sent control traffic")
            return
        bs = self.sessions.get(conn.session_id)
        if bs is None:
            self._drop_conn(conn_id, "control for dead session")
            return
        bs.last_activity = self.now_ms
        verb = msg.verb
        if verb is Verb.PING:
            self._send_control(bs, Verb.PONG, dict(msg.params), conn_id=conn_id)
        elif verb is Verb.PONG:
            pass
        elif verb is Verb.COMMISSION:
            self._on_commission(bs, msg)
        elif verb is Verb.DECOMMISSION:
            self._on_decommission(bs, msg)
        elif verb is Verb.AUTHORIZED:
            self._on_authorized(bs, msg)
        elif verb is Verb.DENIED:
            self._on_denied(bs, msg)
        elif verb is Verb.DECOMMISSIONED:
            self._on_teardown_ack(bs, msg)
        # COMMISSIONED / PEER-* / ERROR are broker-to-gateway only; ignore.

    def _attach_payload(self, conn_id: int, conn: _Conn, msg: ControlMessage) -> None:
        call_id = msg.params["Call-ID"]
        bs = self.sessions.get(call_id)
        # The payload PING may overtake the ACK on the signal connection:
        # the dialog exists once the 200 is sent.
        if bs is None or bs.session.state not in (
            SessionState.INVITE_RECEIVED,
            SessionState.ESTABLISHED,
        ):
            self._send_control(None, Verb.ERROR, {"Reason": "unknown-dialog"}, conn_id)
            self._drop_conn(conn_id, "payload attach to unknown dialog")
            return
        agreed = bs.session.negotiated or bs.session.pending_answer
        if agreed is not None and agreed.security is Security.SECURE and not conn.secure:
            self._send_control(None, Verb.ERROR, {"Reason": "secure-required"}, conn_id)
            self._drop_conn(conn_id, "plain payload attach to secure dialog")
            return
        if bs.conn_payload is not None and bs.conn_payload in self.conns:
            self._drop_conn(bs.conn_payload, "payload connection replaced")
        conn.kind = "payload"
        conn.session_id = call_id
        bs.conn_payload = conn_id
        bs.last_activity = self.now_ms
        self._send_control(None, Verb.PONG, {"Call-ID": call_id}, conn_id)
        for entry in self.table.entries_for_session(bs.id):
            # Only the provider end holds parked packets; a home gateway
            # re-attaching must not be handed its own uplink.
            if entry.state is EntryState.ACTIVE and entry.buffer and entry.asgw.session_id == bs.id:
                self._flush_buffer(entry, bs)

    def _on_commission(self, bs: _BrokerSession, msg: ControlMessage) -> None:
        ctid = msg.ctid
        if bs.role is not Role.LGW:
            self._send_control(bs, Verb.ERROR, {"Ctid": ctid, "Reason": "not-allowed"})
            return
        existing = self.table.by_ctid.get(ctid)
        if existing is not None:
            if existing.lgw is not None and existing.lgw.session_id == bs.id:
                # Re-ask after reconnect: answer with the wire already bound.
                self._send_control(
                    bs, Verb.COMMISSIONED, {"Ctid": ctid, "Wire": str(existing.lgw.wire)}
                )
            else:
                self._send_control(bs, Verb.ERROR, {"Ctid": ctid, "Reason": "duplicate"})
            return
        provider = lookup_provider(self.directory, ctid)
        if provider is None:
            self._send_control(bs, Verb.ERROR, {"Ctid": ctid, "Reason": "no-route"})
            return
        asgw = self._provider_session(provider)
        if asgw is None:
            self._send_control(bs, Verb.ERROR, {"Ctid": ctid, "Reason": "provider-unavailable"})
            return
        if (asgw.id, ctid) in self.pending_auth:
            self._send_control(bs, Verb.ERROR, {"Ctid": ctid, "Reason": "busy"})
            return
        wire = asgw.allocator.allocate()
        self.pending_auth[(asgw.id, ctid)] = _PendingAuth(
            kind="commission",
            asgw_id=asgw.id,
            ctid=ctid,
            wire=wire,
            deadline_ms=self.now_ms + self.config.silence_budget_ms,
            requester=bs.id,
        )
        self._send_control(asgw, Verb.AUTHORIZE, {"Ctid": ctid, "Wire": str(wire)})

    def _on_authorized(self, bs: _BrokerSession, msg: ControlMessage) -> None:
        pending = self.pending_auth.pop((bs.id, msg.ctid), None)
        if pending is None:
            return
        if pending.kind == "reattach":
            entry = self.table.by_ctid.get(pending.ctid)
            if entry is None or entry.state is not EntryState.BUFFERING or entry.asgw is not None:
                bs.allocator.cancel(pending.wire)
                return
            self.table.bind(entry, "asgw", End(bs.id, pending.wire))
            entry.state = EntryState.ACTIVE
            self._event("peer_up", session=bs.id, ctid=entry.ctid, wire=pending.wire)
            if entry.buffer:
                self._flush_buffer(entry, bs)
            return
        requester = self.sessions.get(pending.requester)
        if requester is None or requester.session.state is not SessionState.ESTABLISHED:
            bs.allocator.cancel(pending.wire)
            return
        if pending.ctid in self.table.by_ctid:
            self._end_auth(pending, "duplicate")
            return
        wire = requester.allocator.allocate()
        entry = Entry(
            ctid=pending.ctid,
            provider=bs.provider or "",
            state=EntryState.ACTIVE,
            lgw=End(requester.id, wire),
            asgw=End(bs.id, pending.wire),
        )
        self.table.add(entry)
        self._event(
            "commissioned",
            session=requester.id,
            ctid=pending.ctid,
            wire=wire,
            detail=f"provider={bs.provider} asgw_wire={pending.wire}",
        )
        self._send_control(requester, Verb.COMMISSIONED, {"Ctid": pending.ctid, "Wire": str(wire)})

    def _on_denied(self, bs: _BrokerSession, msg: ControlMessage) -> None:
        pending = self.pending_auth.pop((bs.id, msg.ctid), None)
        if pending is None:
            return
        self._event("denied", session=bs.id, ctid=pending.ctid, detail=pending.kind)
        self._end_auth(pending, "denied")

    def _end_auth(self, pending: _PendingAuth, reason: str) -> None:
        """Close a pending AUTHORIZE that will not complete: the provider's
        wire goes back if its session is alive, and a live commission
        requester gets an ERROR with ``reason``."""
        asgw = self.sessions.get(pending.asgw_id)
        if asgw is not None:
            asgw.allocator.cancel(pending.wire)
        requester = self.sessions.get(pending.requester)
        if pending.kind == "commission" and requester is not None:
            self._send_control(requester, Verb.ERROR, {"Ctid": pending.ctid, "Reason": reason})

    def _on_decommission(self, bs: _BrokerSession, msg: ControlMessage) -> None:
        ctid = msg.ctid
        entry = self.table.by_ctid.get(ctid)
        if entry is None or entry.side_for(bs.id) is None:
            self._send_control(bs, Verb.DECOMMISSIONED, {"Ctid": ctid})
            return
        self._remove_entry(entry, reason=f"decommission by {bs.id}")

    def _on_teardown_ack(self, bs: _BrokerSession, msg: ControlMessage) -> None:
        wires = bs.releasing.get(msg.ctid)
        if not wires:
            return
        wire = wires.pop(0)  # acks come in the order the releases went out
        if not wires:
            del bs.releasing[msg.ctid]
        bs.allocator.finish_release(wire)
        self._event("released", session=bs.id, ctid=msg.ctid, wire=wire)

    def _remove_entry(self, entry: Entry, reason: str) -> None:
        self.table.remove(entry.ctid)
        if entry.buffer:
            self._event(
                "buffer_dropped", ctid=entry.ctid, detail=f"count={len(entry.buffer)}"
            )
            entry.buffer = []
            entry.buffer_bytes = 0
        for end in (entry.lgw, entry.asgw):
            self._release(entry.ctid, end, Verb.DECOMMISSIONED)
        self._event("decommissioned", ctid=entry.ctid, detail=reason)

    def _release(self, ctid: str, end: End | None, verb: Verb) -> None:
        """Quarantine ``end``'s wire until its gateway acks ``verb``; an end
        whose session is gone has nothing left to release."""
        owner = self.sessions.get(end.session_id) if end is not None else None
        if owner is None or owner.session.state is not SessionState.ESTABLISHED:
            return
        owner.allocator.start_release(end.wire)
        owner.releasing.setdefault(ctid, []).append(end.wire)
        self._send_control(owner, verb, {"Ctid": ctid})

    # -- payload path --------------------------------------------------------

    def _on_send(self, conn_id: int, conn: _Conn, pkt: WirePacket) -> None:
        if conn.kind != "payload":
            self._drop_conn(conn_id, "data frame outside payload connection")
            return
        bs = self.sessions.get(conn.session_id)
        if bs is None:
            self._drop_conn(conn_id, "data for dead session")
            return
        bs.last_activity = self.now_ms
        negotiated = bs.session.negotiated
        if negotiated is not None and len(pkt.payload) > negotiated.max_frame_size:
            self._session_protocol_error(bs, "frame-too-large")
            return
        entry = self.table.lookup_end(bs.id, pkt.wire)
        if entry is None:
            self._report(conn_id, pkt, STATUS_NO_SUCH_WIRE)
            return
        end = entry.side_for(bs.id)
        if pkt.seq != end.next_seq_in:
            self._event(
                "protocol_error",
                session=bs.id,
                ctid=entry.ctid,
                detail=f"seq {pkt.seq} expected {end.next_seq_in}",
            )
            self._session_protocol_error(bs, "seq-violation")
            return
        end.next_seq_in += 1
        if entry.state is EntryState.BUFFERING or entry.buffer:
            self._buffer_packet(bs, entry, pkt)
            return
        dst = entry.other_side(bs.id)
        dst_sess = self.sessions.get(dst.session_id) if dst is not None else None
        if dst_sess is None or dst_sess.conn_payload is None:
            self._report(conn_id, pkt, STATUS_PEER_UNAVAILABLE)
            return
        self._relay(bs.id, pkt, dst_sess, dst)

    def _relay(self, src_id: str, pkt: WirePacket, dst: _BrokerSession, end: End) -> None:
        """Forward ``pkt`` to ``end`` over ``dst``'s payload connection under
        a fresh broker txn, and file it until ``dst`` reports on it."""
        txn = self.txns.next()
        self.pending_relay[(dst.id, txn)] = (src_id, pkt)
        out = WirePacket(txn=txn, wire=end.wire, seq=end.next_seq_out, payload=pkt.payload)
        end.next_seq_out += 1
        self._send_raw(dst.conn_payload, encode_frame(out))

    def _buffer_packet(self, bs: _BrokerSession, entry: Entry, pkt: WirePacket) -> None:
        cfg = self.config
        if (
            len(entry.buffer) >= cfg.buffer_max_packets
            or entry.buffer_bytes + len(pkt.payload) > cfg.buffer_max_bytes
        ):
            self._event("packet_dropped", ctid=entry.ctid, detail="buffer-full")
            if bs.conn_payload is not None:
                self._report(bs.conn_payload, pkt, STATUS_PEER_UNAVAILABLE)
            return
        entry.buffer.append((bs.id, pkt))
        entry.buffer_bytes += len(pkt.payload)

    def _flush_buffer(self, entry: Entry, asgw: _BrokerSession) -> None:
        if asgw.conn_payload is None or entry.asgw is None:
            return
        parked, entry.buffer, entry.buffer_bytes = entry.buffer, [], 0
        for src_id, pkt in parked:
            self._relay(src_id, pkt, asgw, entry.asgw)
        self._event("buffer_flush", session=asgw.id, ctid=entry.ctid, detail=f"count={len(parked)}")

    def _on_report(self, conn_id: int, conn: _Conn, rpt: DeliveryReport) -> None:
        if conn.kind != "payload":
            self._drop_conn(conn_id, "report outside payload connection")
            return
        bs = self.sessions.get(conn.session_id)
        if bs is None:
            return
        bs.last_activity = self.now_ms
        relay = self.pending_relay.pop((bs.id, rpt.txn), None)
        if relay is not None:
            self._answer_relay(relay, rpt.status)

    def _answer_relay(self, relay: tuple[str, WirePacket], status: int) -> None:
        src_id, pkt = relay
        src = self.sessions.get(src_id)
        if src is not None and src.conn_payload is not None:
            self._report(src.conn_payload, pkt, status)

    # -- teardown ------------------------------------------------------------

    def _session_lost(self, bs: _BrokerSession, reason: str) -> None:
        """The one retire path for a session, whatever ended it: BYE, a lost
        signal connection, the watchdog, a protocol error, or a newer
        session for the same subscriber or provider ("superseded").

        A home gateway's entries are removed and their providers told
        PEER-DOWN; an access switch reaches here with its wires already
        rebound to the newcomer, so it has none left. A provider's entries
        are parked (BUFFERING) until a session for that provider authorizes
        them again. Then the session's pending AUTHORIZEs end, its relays
        are swept and its connections close."""
        if bs.id not in self.sessions:
            return
        del self.sessions[bs.id]
        self._event("session_closed", session=bs.id, detail=reason)
        for ctid, wires in bs.releasing.items():
            for wire in wires:
                self._event("released", session=bs.id, ctid=ctid, wire=wire)
        bs.releasing.clear()
        for entry in self.table.entries_for_session(bs.id):
            side = entry.side_for(bs.id)
            if bs.role is Role.LGW:
                self.table.remove(entry.ctid)
                self._event("peer_down", session=bs.id, ctid=entry.ctid, wire=side.wire)
                self._event("released", session=bs.id, ctid=entry.ctid, wire=side.wire)
                if entry.buffer:
                    self._event("buffer_dropped", ctid=entry.ctid, detail=f"count={len(entry.buffer)}")
                self._release(entry.ctid, entry.asgw, Verb.PEER_DOWN)
            else:
                self.table.unbind(entry, "asgw")
                entry.state = EntryState.BUFFERING
                self._event("buffering", session=bs.id, ctid=entry.ctid, wire=side.wire, detail=reason)
                self._event("released", session=bs.id, ctid=entry.ctid, wire=side.wire)
        for key, pending in list(self.pending_auth.items()):
            if bs.id in (pending.asgw_id, pending.requester):
                del self.pending_auth[key]
                self._end_auth(pending, "provider-unavailable")
        self._sweep_relays(bs, session_gone=True)
        self._close_session_conns(bs)

    def _sweep_relays(self, bs: _BrokerSession, session_gone: bool) -> None:
        """Answer 480 to their source for the packets in flight to ``bs``,
        whose payload connection is gone. The relays of its own packets go
        only with the session: while it lives, their reports reach it on
        its next payload connection."""
        for key, relay in list(self.pending_relay.items()):
            if key[0] == bs.id:
                del self.pending_relay[key]
                self._answer_relay(relay, STATUS_PEER_UNAVAILABLE)
            elif session_gone and relay[0] == bs.id:
                del self.pending_relay[key]

    def _close_session_conns(self, bs: _BrokerSession) -> None:
        for conn_id in (bs.conn_signal, bs.conn_payload):
            if conn_id is not None and conn_id in self.conns:
                del self.conns[conn_id]
                self.outbox.close(conn_id)
        bs.conn_signal = bs.conn_payload = None

    def _session_protocol_error(self, bs: _BrokerSession, reason: str) -> None:
        self._send_control(bs, Verb.ERROR, {"Reason": reason})
        self._event("protocol_error", session=bs.id, detail=reason)
        self._session_lost(bs, reason)

    # -- plumbing ------------------------------------------------------------

    def _provider_session(self, provider: str) -> _BrokerSession | None:
        for bs in self.sessions.values():
            if (
                bs.role is Role.ASGW
                and bs.provider == provider
                and bs.session.state is SessionState.ESTABLISHED
            ):
                return bs
        return None

    def _send_control(
        self, bs: _BrokerSession | None, verb: Verb, params: dict[str, str], conn_id: int | None = None
    ) -> None:
        target = conn_id if conn_id is not None else bs.conn_signal
        if target is None:
            return
        msg = ControlMessage(verb, params, txn=self.txns.next())
        self._send_raw(target, encode_frame(msg))

    def _report(self, conn_id: int, pkt: WirePacket, status: int) -> None:
        out = DeliveryReport(txn=pkt.txn, wire=pkt.wire, seq=pkt.seq, status=status)
        self._send_raw(conn_id, encode_frame(out))

    def _send_raw(self, conn_id: int, data: bytes) -> None:
        self.outbox.send(conn_id, data)

    def _drop_conn(self, conn_id: int, reason: str) -> None:
        conn = self.conns.pop(conn_id, None)
        self._event("protocol_error", detail=reason)
        self.outbox.close(conn_id)
        self._conn_gone(conn_id, conn, reason)

    def _conn_gone(self, conn_id: int, conn: _Conn | None, reason: str) -> None:
        """A closed connection's session loses it: the signal connection
        ends the session; after a payload connection the session survives
        and only the relays to it are answered."""
        bs = self.sessions.get(conn.session_id) if conn is not None and conn.session_id else None
        if bs is None:
            return
        if conn_id == bs.conn_signal:
            bs.conn_signal = None
            self._session_lost(bs, reason)
        elif conn_id == bs.conn_payload:
            bs.conn_payload = None
            self._sweep_relays(bs, session_gone=False)

    def _event(
        self, kind: str, session: str = "", ctid: str = "", wire: int = -1, detail: str = ""
    ) -> None:
        self.events.append(Event(self.now_ms, kind, session, ctid, wire, detail))

    def _stray_481(self, msg: SignalMessage) -> bytes:
        out = SignalMessage(
            kind="response",
            status=481,
            reason="Call/Transaction Does Not Exist",
            from_id="m2m-is",
            to_id=msg.from_id,
            call_id=msg.call_id,
            cseq=msg.cseq,
            access=Access.RADIO,
            txn=self.txns.next(),
        )
        return encode_frame(out)


# Imports used by callers wiring a broker without the socket server.
__all__ = [
    "Broker",
    "BrokerConfig",
    "Outbox",
]
