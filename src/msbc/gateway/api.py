"""Gateway-side endpoint of the interconnect: session setup, device
attachment, and payload transfer behind a small threaded facade.

A Gateway owns two links to the broker (signaling and payload) and one
``msbc.loop.EventLoop`` thread, started by ``open()`` and joined by
``close()``/``abort()``. The loop reads both links and dispatches their
frames; its tick resolves report deadlines, sends keepalives and, once a
reconnect deadline comes due, re-establishes the whole session after a
loss. Writes go out on the caller's thread. All shared state sits behind
one reentrant lock, the link dispatch lock, so fault flips never
interleave with a half-processed frame.

Receiver callbacks run on the loop thread with that lock held: keep them
quick. Calling back into the gateway from a callback is fine (the lock is
reentrant); a ``close()`` there does not wait for acks. Exceptions raised
by a receiver are swallowed so user bugs cannot take down the link
machinery.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum

from msbc.session import (
    DialogRejected,
    Keepalive,
    NegotiatedChannel,
    OpenPayload,
    SendSignal,
    Session,
    SessionState,
    liveness,
    make_bye,
    make_invite,
    on_signal,
)
from msbc.wire import (
    Access,
    ControlMessage,
    DEFAULT_FRAME_SIZE,
    DeliveryReport,
    Frame,
    Role,
    STATUS_DELIVERED,
    STATUS_NO_SUCH_WIRE,
    Security,
    SessionOffer,
    SignalMessage,
    TxnGenerator,
    Verb,
    WirePacket,
)
from msbc.wire.types import validate_ctid

from msbc.gateway.link import Link, LinkControl
from msbc.loop import EventLoop, now_ms as _now_ms


class GatewayState(Enum):
    CLOSED = "closed"
    CONNECTING = "connecting"
    OPEN = "open"
    DEGRADED = "degraded"


class DeliveryStatus(Enum):
    DELIVERED = "delivered"
    PEER_UNAVAILABLE = "peer_unavailable"
    NO_WIRE = "no_wire"


_STATUS_MAP = {
    STATUS_DELIVERED: DeliveryStatus.DELIVERED,
    STATUS_NO_SUCH_WIRE: DeliveryStatus.NO_WIRE,
}


class Delivery:
    """Future for one transmitted packet; resolves when the delivery report
    arrives or the report deadline passes."""

    def __init__(self, ctid: str):
        self.ctid = ctid
        self._done = threading.Event()
        self._status: DeliveryStatus | None = None

    def _resolve(self, status: DeliveryStatus) -> None:
        if not self._done.is_set():
            self._status = status
            self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def status(self) -> DeliveryStatus | None:
        return self._status

    def wait(self, timeout: float | None = None) -> DeliveryStatus:
        if not self._done.wait(timeout):
            raise TimeoutError(f"no delivery report for {self.ctid}")
        assert self._status is not None
        return self._status


class AttachError(RuntimeError):
    def __init__(self, ctid: str, reason: str):
        super().__init__(f"attach {ctid}: {reason}")
        self.ctid = ctid
        self.reason = reason


class Attachment:
    """Future for one device attachment; resolves with the assigned wire."""

    def __init__(self, ctid: str):
        self.ctid = ctid
        self.wire: int | None = None
        self._done = threading.Event()
        self._error: AttachError | None = None

    def _resolve(self, wire: int) -> None:
        if not self._done.is_set():
            self.wire = wire
            self._done.set()

    def _fail(self, reason: str) -> None:
        if not self._done.is_set():
            self._error = AttachError(self.ctid, reason)
            self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def attached(self) -> bool:
        return self._done.is_set() and self._error is None

    def wait(self, timeout: float | None = None) -> "Attachment":
        if not self._done.wait(timeout):
            raise TimeoutError(f"attach {self.ctid} still pending")
        if self._error is not None:
            raise self._error
        return self


class SessionRejected(RuntimeError):
    def __init__(self, status: int, reason: str):
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason


class Receiver:
    """Callback surface for inbound traffic and lifecycle changes.

    Subclass and override what you care about; defaults do nothing and
    authorize everything.
    """

    def on_data(self, ctid: str, payload: bytes) -> None:
        pass

    def on_attached(self, ctid: str) -> None:
        pass

    def on_detached(self, ctid: str) -> None:
        pass

    def on_peer_down(self, ctid: str) -> None:
        pass

    def on_error(self, reason: str, ctid: str = "") -> None:
        pass

    def on_state(self, state: GatewayState) -> None:
        pass

    def authorize(self, ctid: str) -> bool:
        return True


@dataclass
class GatewayConfig:
    subscriber: str
    role: Role
    broker_endpoint: str
    access: Access = Access.RADIO
    provider: str | None = None
    max_frame_size: int = DEFAULT_FRAME_SIZE
    keepalive_interval_ms: float = 5000.0
    keepalive_misses: int = 3
    report_timeout_ms: float = 2000.0
    auto_reconnect: bool = True
    reconnect_initial_ms: float = 100.0
    reconnect_max_ms: float = 5000.0
    local_address: str | None = None


@dataclass
class _Wire:
    ctid: str
    wire: int
    seq_out: int = 0
    seq_in: int = 1  # next expected inbound seq


class Gateway:
    """One gateway endpoint. Use open_gateway() for the common case."""

    def __init__(self, config: GatewayConfig, receiver: Receiver | None = None):
        if config.role is Role.ASGW and not config.provider:
            raise ValueError("an application-service gateway needs a provider id")
        self.config = config
        self.receiver = receiver if receiver is not None else Receiver()
        self.control = LinkControl()
        self._mu = self.control.dispatch_lock
        self._txns = TxnGenerator()
        self._state = GatewayState.CLOSED
        self._session: Session | None = None
        self._signal: Link | None = None
        self._payload: Link | None = None
        self._payload_ready = False
        self._wires: dict[str, _Wire] = {}
        self._by_wire: dict[int, _Wire] = {}
        self._known: set[str] = set()  # ctids to (re)commission while open
        self._pending_attach: dict[str, Attachment] = {}
        self._pending_detach: dict[str, threading.Event] = {}
        self._pending_reports: dict[str, tuple[Delivery, float]] = {}
        self._open_event = threading.Event()
        self._open_error: SessionRejected | None = None
        self._bye_done = threading.Event()
        self._closing = False
        self._dial_at: float | None = None  # when the loop next (re)connects
        self._payload_channel: NegotiatedChannel | None = None  # for the tick to connect
        self._last_rx_ms = _now_ms()
        self._last_ping_ms = float("-inf")
        self._backoff_ms = config.reconnect_initial_ms
        self._loop: EventLoop | None = None

    # ------------------------------------------------------------- lifecycle

    def open(self, wait: bool = True, timeout: float = 10.0) -> "Gateway":
        with self._mu:
            if self._state is not GatewayState.CLOSED or self._closing:
                return self
            self._state = GatewayState.CONNECTING
            self._last_rx_ms = _now_ms()
            self._redial(0.0)
        if wait:
            self.wait_until_open(timeout)
        return self

    def wait_until_open(self, timeout: float = 10.0) -> "Gateway":
        if not self._open_event.wait(timeout):
            raise TimeoutError("session not established in time")
        if self._open_error is not None:
            raise self._open_error
        if self._state is not GatewayState.OPEN:
            raise SessionRejected(0, "gateway closed before the session opened")
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Orderly shutdown: detach every device, wait for the release acks,
        end the dialog, then drop the links. Idempotent. From a receiver
        callback it waits for nothing: the loop that reads acks is the caller."""
        acks = []
        with self._mu:
            if self._closing:
                return
            self._closing = True
            live = self._state is GatewayState.OPEN and self._signal is not None
            for ctid in sorted(self._wires) if live else []:
                if ctid not in self._pending_detach:
                    ev = self._pending_detach[ctid] = threading.Event()
                    self._known.discard(ctid)
                    self._send_control(Verb.DECOMMISSION, {"Ctid": ctid})
                    acks.append(ev)
        if self._loop is not None and self._loop.in_loop():
            timeout = 0.0
        deadline = time.monotonic() + timeout
        for ev in acks:
            ev.wait(max(0.0, deadline - time.monotonic()))
        bye_sent = False
        with self._mu:
            sess = self._session
            if live and sess is not None and sess.state is SessionState.ESTABLISHED:
                self._session, bye = make_bye(sess, self._txns.next())
                sig = self._signal
                bye_sent = sig is not None and sig.send_frame(bye)
        if bye_sent:
            self._bye_done.wait(max(0.0, deadline - time.monotonic()))
        self._shutdown("closed")

    def abort(self) -> None:
        """Drop everything on the floor: no decommissions, no farewell, the
        sockets just close. Models a process kill."""
        with self._mu:
            self._closing = True
        self._shutdown("aborted")

    def __enter__(self) -> "Gateway":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ inspection

    @property
    def state(self) -> GatewayState:
        return self._state

    @property
    def call_id(self) -> str:
        sess = self._session
        return sess.call_id if sess is not None else ""

    @property
    def negotiated(self):
        sess = self._session
        return sess.negotiated if sess is not None else None

    def attachments(self) -> dict[str, int]:
        with self._mu:
            return {ctid: w.wire for ctid, w in self._wires.items()}

    # -------------------------------------------------------------- devices

    def attach_device(self, ctid: str) -> Attachment:
        validate_ctid(ctid)
        with self._mu:
            if self.config.role is not Role.LGW:
                raise RuntimeError("providers receive attachments; they do not request them")
            existing = self._pending_attach.get(ctid)
            if existing is not None and not existing.done:
                return existing
            att = Attachment(ctid)
            wired = self._wires.get(ctid)
            if wired is not None:
                att._resolve(wired.wire)
                return att
            self._pending_attach[ctid] = att
            self._known.add(ctid)
            if self._state is GatewayState.OPEN:
                self._send_control(Verb.COMMISSION, {"Ctid": ctid})
            return att

    def detach_device(self, ctid: str) -> threading.Event:
        """Request release of a device; the returned event fires on the ack."""
        ev = threading.Event()
        with self._mu:
            self._known.discard(ctid)
            att = self._pending_attach.pop(ctid, None)
            if att is not None:
                att._fail("detached before attach completed")
            if ctid in self._wires and self._state is GatewayState.OPEN:
                pending = self._pending_detach.get(ctid)
                if pending is not None:
                    return pending
                self._pending_detach[ctid] = ev
                self._send_control(Verb.DECOMMISSION, {"Ctid": ctid})
            else:
                w = self._wires.pop(ctid, None)
                if w is not None:
                    self._by_wire.pop(w.wire, None)
                ev.set()
        return ev

    def transmit(self, ctid: str, payload: bytes) -> Delivery:
        d = Delivery(ctid)
        with self._mu:
            w = self._wires.get(ctid)
            if w is None:
                d._resolve(DeliveryStatus.NO_WIRE)
                return d
            link = self._payload
            if link is None or self._state is not GatewayState.OPEN:
                d._resolve(DeliveryStatus.PEER_UNAVAILABLE)
                return d
            sess = self._session
            limit = (
                sess.negotiated.max_frame_size
                if sess is not None and sess.negotiated is not None
                else self.config.max_frame_size
            )
            if len(payload) > limit:
                raise ValueError(
                    f"payload of {len(payload)} bytes exceeds negotiated frame size {limit}"
                )
            w.seq_out += 1
            txn = self._txns.next()
            self._pending_reports[txn] = (d, _now_ms() + self.config.report_timeout_ms)
            if not link.send_frame(WirePacket(txn, w.wire, w.seq_out, payload)):
                self._pending_reports.pop(txn, None)
                d._resolve(DeliveryStatus.PEER_UNAVAILABLE)
        return d

    # ---------------------------------------------------------------- faults

    def switch_endpoint(self, local_address: str | None = None, access: Access | None = None) -> None:
        """Abandon the current links mid-flight (no FIN, pure silence) and
        re-open from a new source address and/or access network. Models a
        physical uplink change."""
        with self._mu:
            if self._closing:
                return
            for link in (self._signal, self._payload):
                if link is not None:
                    link.muted = True
            self._drop_session()
            if local_address is not None:
                self.config.local_address = local_address
            if access is not None:
                self.config.access = access
            self._state = GatewayState.DEGRADED
            self._safe(self.receiver.on_state, GatewayState.DEGRADED)
            self._redial(0.0)

    # ------------------------------------------------------------- internals

    def _safe(self, fn, *args) -> None:
        try:
            fn(*args)
        except Exception:
            pass

    def _send_control(self, verb: Verb, params: dict[str, str]) -> bool:
        link = self._signal
        if link is None:
            return False
        return link.send_frame(ControlMessage(verb, params, txn=self._txns.next()))

    def _drop_session(self) -> None:
        # in-flight traffic dies with the links; attachments re-form later
        for link in (self._signal, self._payload):
            if link is not None:
                link.close()
        self._signal = self._payload = self._session = None
        self._payload_ready = False
        self._open_event.clear()
        self._wires.clear()
        self._by_wire.clear()
        for d, _ in self._pending_reports.values():
            d._resolve(DeliveryStatus.PEER_UNAVAILABLE)
        self._pending_reports.clear()

    def _redial(self, delay_ms: float) -> None:
        """(Re)connect after ``delay_ms``, starting the loop on first use."""
        self._dial_at = _now_ms() + delay_ms
        if self._loop is None:
            tick = min(max(self.config.keepalive_interval_ms / 4.0, 5.0), 250.0)
            self._loop = EventLoop("msbc-gateway", tick, self._tick)
            self._loop.start()
        elif delay_ms <= 0:
            self._loop.tick_soon()

    def _connect(self, endpoint: str, secure: bool, sig: Link | None) -> None:
        """Open the signaling link (``sig`` is None) or the payload link of
        the session on ``sig``. On the loop thread: the connect blocks,
        outside the lock."""
        cfg = self.config
        try:
            link = Link(
                endpoint,
                self.control,
                self._loop,
                self._handle_frame,
                self._link_lost,
                secure=secure,
                local_address=cfg.local_address,
            )
        except OSError:
            link = None
        with self._mu:
            if self._closing or self._signal is not sig:
                if link is not None:
                    link.close()
            elif sig is not None and link is None:
                self._lost_session("payload-connect-failed")
            elif sig is not None:
                self._payload = link
                ping = ControlMessage(Verb.PING, {"Call-ID": self.call_id}, txn=self._txns.next())
                link.send_frame(ping)
            elif link is not None:
                self._dial_at = None
                self._signal = link
                self._state = GatewayState.CONNECTING
                offer = SessionOffer(
                    security=Security.SECURE if cfg.access is Access.INTERNET else Security.PLAIN,
                    max_frame_size=cfg.max_frame_size,
                    payload_endpoint=link.local_address or "0.0.0.0:0",
                    role=cfg.role,
                    provider=cfg.provider,
                )
                self._session, invite = make_invite(
                    cfg.subscriber, cfg.role, cfg.provider, cfg.access, offer, self._txns.next()
                )
                self._last_rx_ms = _now_ms()
                link.send_frame(invite)  # a failed write surfaces as a lost link

    def _link_lost(self, link: Link) -> None:
        # the link calls this and _handle_frame with the lock held
        if not self._closing and link in (self._signal, self._payload):
            self._lost_session("link-lost")

    def _lost_session(self, reason: str) -> None:
        # callers hold the lock
        self._drop_session()
        if self._closing:
            return
        if self.config.auto_reconnect:
            self._state = GatewayState.DEGRADED
            self._safe(self.receiver.on_state, GatewayState.DEGRADED)
            self._redial(self._backoff_ms)
        else:
            self._state = GatewayState.CLOSED
            self._open_event.set()
            self._safe(self.receiver.on_state, GatewayState.CLOSED)

    def _shutdown(self, reason: str) -> None:
        if self._loop is not None:
            self._loop.stop()  # its sockets close as it ends
        with self._mu:
            self._drop_session()
            for att in self._pending_attach.values():
                att._fail(reason)
            for ev in self._pending_detach.values():
                ev.set()
            self._pending_attach.clear()
            self._pending_detach.clear()
            was, self._state = self._state, GatewayState.CLOSED
            self._open_event.set()
            if was is not GatewayState.CLOSED:
                self._safe(self.receiver.on_state, GatewayState.CLOSED)

    # ------------------------------------------------------- frame dispatch

    def _handle_frame(self, link: Link, frame: Frame) -> None:
        if link is not self._signal and link is not self._payload:
            return  # a ghost from an abandoned connection
        self._last_rx_ms = _now_ms()
        if isinstance(frame, SignalMessage):
            if link is self._signal:
                self._handle_signal(frame)
        elif isinstance(frame, ControlMessage):
            self._handle_control(link, frame)
        elif isinstance(frame, WirePacket):
            self._handle_packet(link, frame)
        elif isinstance(frame, DeliveryReport):
            self._handle_report(frame)

    def _handle_signal(self, msg: SignalMessage) -> None:
        sess = self._session
        if sess is None:
            return
        before = sess.state
        sess2, actions = on_signal(sess, msg, _now_ms(), txn=self._txns.next())
        self._session = sess2
        rejected: DialogRejected | None = None
        for action in actions:
            if isinstance(action, SendSignal):
                sig = self._signal
                if sig is not None:
                    sig.send_frame(action.msg)
            elif isinstance(action, OpenPayload):
                self._payload_channel = action.channel  # the tick connects it
                self._loop.tick_soon()
            elif isinstance(action, DialogRejected):
                rejected = action
        if rejected is not None:
            self._open_error = SessionRejected(rejected.status, rejected.reason)
            self._closing = True  # a rejected dialog will not heal by retrying
            self._shutdown("rejected")
            return
        if sess2.state is SessionState.CLOSED and before is not SessionState.CLOSED:
            if self._closing:
                self._bye_done.set()
            else:
                self._lost_session("closed-by-peer")

    def _handle_control(self, link: Link, msg: ControlMessage) -> None:
        verb = msg.verb
        if verb is Verb.PING:
            link.send_frame(ControlMessage(Verb.PONG, dict(msg.params), txn=self._txns.next()))
        elif verb is Verb.PONG:
            if link is self._payload and not self._payload_ready:
                self._payload_ready = True
                self._session_ready()
        elif verb is Verb.COMMISSIONED:
            self._on_commissioned(msg)
        elif verb is Verb.AUTHORIZE:
            self._on_authorize(msg)
        elif verb is Verb.DECOMMISSIONED:
            self._on_decommissioned(msg.params.get("Ctid", ""))
        elif verb is Verb.PEER_DOWN:
            self._on_peer_down(msg.params.get("Ctid", ""))
        elif verb is Verb.ERROR:
            self._on_error(msg.params)
        # COMMISSION / DECOMMISSION / AUTHORIZED / DENIED / PEER-UP never target a gateway

    def _session_ready(self) -> None:
        self._backoff_ms = self.config.reconnect_initial_ms
        self._state = GatewayState.OPEN
        self._open_error = None
        self._open_event.set()
        self._safe(self.receiver.on_state, GatewayState.OPEN)
        if self.config.role is Role.LGW:
            for ctid in sorted(self._known):
                if ctid not in self._wires:
                    self._send_control(Verb.COMMISSION, {"Ctid": ctid})

    def _install_wire(self, ctid: str, wire: int) -> None:
        old = self._wires.get(ctid)
        if old is not None:
            self._by_wire.pop(old.wire, None)
        w = _Wire(ctid=ctid, wire=wire)
        self._wires[ctid] = w
        self._by_wire[wire] = w

    def _on_commissioned(self, msg: ControlMessage) -> None:
        ctid = msg.params.get("Ctid", "")
        wire = msg.wire_param
        if not ctid or wire is None:
            return
        fresh = ctid not in self._wires
        self._install_wire(ctid, wire)
        att = self._pending_attach.pop(ctid, None)
        if att is not None:
            att._resolve(wire)
        if fresh:
            self._safe(self.receiver.on_attached, ctid)

    def _on_authorize(self, msg: ControlMessage) -> None:
        ctid = msg.params.get("Ctid", "")
        wire = msg.wire_param
        if not ctid or wire is None:
            return
        try:
            ok = bool(self.receiver.authorize(ctid))
        except Exception:
            ok = False
        if not ok:
            self._send_control(Verb.DENIED, {"Ctid": ctid})
            return
        fresh = ctid not in self._wires
        self._install_wire(ctid, wire)
        self._known.add(ctid)
        self._send_control(Verb.AUTHORIZED, {"Ctid": ctid, "Wire": str(wire)})
        if fresh:
            self._safe(self.receiver.on_attached, ctid)

    def _on_decommissioned(self, ctid: str) -> None:
        if not ctid:
            return
        ev = self._pending_detach.pop(ctid, None)
        if ev is not None:
            ev.set()
        att = self._pending_attach.pop(ctid, None)
        if att is not None:
            att._fail("decommissioned")
        w = self._wires.pop(ctid, None)
        if w is not None:
            self._by_wire.pop(w.wire, None)
        self._known.discard(ctid)
        # teardown ack: always echoed, exactly once, even for unknown ctids
        self._send_control(Verb.DECOMMISSIONED, {"Ctid": ctid})
        if w is not None:
            self._safe(self.receiver.on_detached, ctid)

    def _on_peer_down(self, ctid: str) -> None:
        if not ctid:
            return
        w = self._wires.pop(ctid, None)
        if w is not None:
            self._by_wire.pop(w.wire, None)
        self._known.discard(ctid)
        self._send_control(Verb.DECOMMISSIONED, {"Ctid": ctid})
        if w is not None:
            self._safe(self.receiver.on_peer_down, ctid)

    def _on_error(self, params: dict[str, str]) -> None:
        ctid = params.get("Ctid", "")
        reason = params.get("Reason", "error")
        if ctid:
            att = self._pending_attach.pop(ctid, None)
            if att is not None:
                self._known.discard(ctid)
                att._fail(reason)
        self._safe(self.receiver.on_error, reason, ctid)

    def _handle_packet(self, link: Link, pkt: WirePacket) -> None:
        if link is not self._payload:
            return
        w = self._by_wire.get(pkt.wire)
        if w is None:
            link.send_frame(DeliveryReport(pkt.txn, pkt.wire, pkt.seq, STATUS_NO_SUCH_WIRE))
            return
        w.seq_in = pkt.seq + 1
        # delivery and its report happen under one lock hold: a fault flipped
        # concurrently either drops the frame entirely or sees both complete
        self._safe(self.receiver.on_data, w.ctid, pkt.payload)
        link.send_frame(DeliveryReport(pkt.txn, pkt.wire, pkt.seq, STATUS_DELIVERED))

    def _handle_report(self, rpt: DeliveryReport) -> None:
        entry = self._pending_reports.pop(rpt.txn, None)
        if entry is None:
            return
        entry[0]._resolve(_STATUS_MAP.get(rpt.status, DeliveryStatus.PEER_UNAVAILABLE))

    # ------------------------------------------------------------------ tick

    def _tick(self, now: float) -> None:
        cfg = self.config
        target = None
        with self._mu:
            for txn in [t for t, (_, dl) in self._pending_reports.items() if now >= dl]:
                self._pending_reports.pop(txn)[0]._resolve(DeliveryStatus.PEER_UNAVAILABLE)
            if self._state is GatewayState.OPEN and self._session is not None:
                verdict = liveness(
                    self._last_rx_ms, now, cfg.keepalive_interval_ms, cfg.keepalive_misses
                )
                if verdict is Keepalive.EXPIRED:
                    self._lost_session("watchdog")
                elif (
                    verdict is Keepalive.SEND_PING
                    and now - self._last_ping_ms >= cfg.keepalive_interval_ms
                ):
                    self._last_ping_ms = now
                    self._send_control(Verb.PING, {})
            elif self._state is GatewayState.CONNECTING:
                if now - self._last_rx_ms >= cfg.keepalive_interval_ms * cfg.keepalive_misses:
                    self._lost_session("connect-timeout")
            sig, channel, self._payload_channel = self._signal, self._payload_channel, None
            if sig is not None and channel is not None:
                target = (channel.payload_endpoint, channel.security is Security.SECURE)
            elif sig is None and self._dial_at is not None and now >= self._dial_at:
                self._dial_at = now + self._backoff_ms  # when to try again, should this fail
                self._backoff_ms = min(self._backoff_ms * 2, cfg.reconnect_max_ms)
                target = (cfg.broker_endpoint, False)
        if target is not None and not self.control.blackhole:  # a dead radio dials nothing
            self._connect(*target, sig)


def open_gateway(
    config: GatewayConfig, receiver: Receiver | None = None, timeout: float = 10.0
) -> Gateway:
    """Create a gateway and block until its session is fully established."""
    return Gateway(config, receiver).open(wait=True, timeout=timeout)
