"""Gateway-side endpoint of the interconnect: session setup, device
attachment, and payload transfer.

``GatewayCore`` holds the protocol state and does no I/O: it takes the
bytes each link received and the time as arguments, and queues the frames
to write per link, the links to close and the connections to open.
``Gateway`` is the threaded facade around it. It owns two links to the
broker (signaling and payload) and one ``msbc.loop.EventLoop`` thread,
started by ``open()`` and joined by ``close()``/``abort()``. Each loop pass
feeds every ready link's chunk to the core under one hold of the dispatch
lock, then writes each link's queued frames with one ``send``. At the
core's ``next_deadline()`` the tick resolves overdue reports, sends a
keepalive or, after a loss, re-establishes the whole session. Calls from
the application (``transmit``, ``attach_device``, ...) write on the
caller's thread, and wake the loop if they move that deadline earlier.
Every call into the core holds the lock, so fault flips never interleave
with a half-processed chunk.

Receiver callbacks run on the loop thread with that lock held: keep them
quick. Calling back into the gateway from a callback is fine (the lock is
reentrant); a ``close()`` there does not wait for acks. Exceptions raised
by a receiver are swallowed so user bugs cannot take down the link
machinery.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

from msbc.session import (
    DialogRejected,
    Keepalive,
    OpenPayload,
    SendSignal,
    Session,
    SessionState,
    keepalive_deadline,
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
    MAX_FRAME_SIZE,
    ProtocolViolation,
    Role,
    STATUS_DELIVERED,
    STATUS_NO_SUCH_WIRE,
    Security,
    SessionOffer,
    SignalMessage,
    StreamParser,
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
        self._status: DeliveryStatus | None = None
        # held until resolved: lighter than an Event, one per packet
        self._unresolved = threading.Lock()
        self._unresolved.acquire()

    def _resolve(self, status: DeliveryStatus) -> None:
        if self._status is None:
            self._status = status
            self._unresolved.release()

    @property
    def done(self) -> bool:
        return self._status is not None

    @property
    def status(self) -> DeliveryStatus | None:
        return self._status

    def wait(self, timeout: float | None = None) -> DeliveryStatus:
        if self._status is None:
            if not self._unresolved.acquire(timeout=-1 if timeout is None else max(timeout, 0.0)):
                raise TimeoutError(f"no delivery report for {self.ctid}")
            self._unresolved.release()  # let any other waiter through
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


def _safe(fn, *args) -> None:
    try:
        fn(*args)
    except Exception:
        pass


class GatewayCore:
    """The gateway's protocol state, with no I/O, thread or clock of its own.

    The caller hands it each link's received bytes and the time (``now``,
    in ms) and then carries out what it queued: ``out`` maps each link to
    the frames to write on it, in order; ``closes`` lists links to close
    once their frames are out; ``dials`` lists connections to open as
    ``(signal link or None, endpoint, secure)``, each answered with
    ``on_connected``. A link is any hashable handle the caller picks; one
    the core forgets without closing is abandoned, as a dead radio path
    leaves it. Receiver callbacks run, and futures resolve, on the calling
    thread. ``on_tick`` has work only once ``next_deadline()`` has passed.
    """

    def __init__(self, config: GatewayConfig, receiver: Receiver):
        self.config = config
        self.receiver = receiver
        self.out: dict[object, list[Frame]] = {}
        self.closes: list[object] = []
        self.dials: list[tuple[object | None, str, bool]] = []
        self.state = GatewayState.CLOSED
        self.session: Session | None = None
        self.opened = threading.Event()  # set once OPEN, or once it never will be
        self.open_error: SessionRejected | None = None
        self.bye_done = threading.Event()
        self.closing = False
        self._txns = TxnGenerator()
        self._signal: object | None = None
        self._payload: object | None = None
        self._parsers: dict[object, StreamParser] = {}  # one per current link
        self._wires: dict[str, _Wire] = {}
        self._by_wire: dict[int, _Wire] = {}
        self._known: set[str] = set()  # ctids to (re)commission while open
        self._pending_attach: dict[str, Attachment] = {}
        self._pending_detach: dict[str, threading.Event] = {}
        self._reports: dict[str, Delivery] = {}
        # (deadline, txn), sorted: appended in send order while the timeout
        # holds, inserted in place after it is lowered
        self._deadlines: deque[tuple[float, str]] = deque()
        self._dial_at: float | None = None  # when the tick next (re)connects
        self._last_rx_ms = 0.0
        self._last_ping_ms = float("-inf")
        self._backoff_ms = config.reconnect_initial_ms

    @property
    def call_id(self) -> str:
        return self.session.call_id if self.session is not None else ""

    def attachments(self) -> dict[str, int]:
        return {ctid: w.wire for ctid, w in self._wires.items()}

    # ------------------------------------------------------------- lifecycle

    def open(self, now: float) -> bool:
        """Start connecting at the next tick; False if already under way."""
        if self.state is not GatewayState.CLOSED or self.closing:
            return False
        self.state = GatewayState.CONNECTING
        self._last_rx_ms = self._dial_at = now
        return True

    def close(self) -> list[threading.Event] | None:
        """Begin an orderly shutdown by decommissioning every device. Returns
        the events that fire on the release acks; None if already closing."""
        if self.closing:
            return None
        live = self.state is GatewayState.OPEN and self._signal is not None
        acks = [self.detach_device(ctid) for ctid in sorted(self._wires)] if live else []
        self.closing = True
        return acks

    def bye(self) -> bool:
        """End an established dialog; ``bye_done`` fires on the answer."""
        sess = self.session
        if self.state is not GatewayState.OPEN or sess is None or sess.state is not SessionState.ESTABLISHED:
            return False
        self.session, msg = make_bye(sess, self._txns.next())
        self._send(self._signal, msg)
        return True

    def shutdown(self, reason: str) -> None:
        """Drop the links for good and fail whatever still waits."""
        self.closing = True
        self._drop_session()
        for att in self._pending_attach.values():
            att._fail(reason)
        for ev in self._pending_detach.values():
            ev.set()
        self._pending_attach.clear()
        self._pending_detach.clear()
        was, self.state = self.state, GatewayState.CLOSED
        self.opened.set()
        if was is not GatewayState.CLOSED:
            _safe(self.receiver.on_state, GatewayState.CLOSED)

    def switch_endpoint(self, local_address: str | None, access: Access | None, now: float) -> bool:
        """Abandon both links (no FIN) and redial at the next tick."""
        if self.closing:
            return False
        self._drop_session(close=False)
        if local_address is not None:
            self.config.local_address = local_address
        if access is not None:
            self.config.access = access
        self.state = GatewayState.DEGRADED
        _safe(self.receiver.on_state, GatewayState.DEGRADED)
        self._dial_at = now
        return True

    # -------------------------------------------------------------- devices

    def attach_device(self, ctid: str) -> Attachment:
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
        if self.state is GatewayState.OPEN:
            self._send_control(Verb.COMMISSION, {"Ctid": ctid})
        return att

    def detach_device(self, ctid: str) -> threading.Event:
        self._known.discard(ctid)
        att = self._pending_attach.pop(ctid, None)
        if att is not None:
            att._fail("detached before attach completed")
        if ctid in self._wires and self.state is GatewayState.OPEN:
            if ctid not in self._pending_detach:
                self._send_control(Verb.DECOMMISSION, {"Ctid": ctid})
            return self._pending_detach.setdefault(ctid, threading.Event())
        self._unwire(ctid)
        ev = threading.Event()
        ev.set()
        return ev

    def transmit(self, ctid: str, payload: bytes, now: float) -> Delivery:
        d = Delivery(ctid)
        w = self._wires.get(ctid)
        if w is None:
            d._resolve(DeliveryStatus.NO_WIRE)
            return d
        link = self._payload
        if link is None or self.state is not GatewayState.OPEN:
            d._resolve(DeliveryStatus.PEER_UNAVAILABLE)
            return d
        negotiated = self.session.negotiated  # None once a BYE is out
        limit = negotiated.max_frame_size if negotiated else self.config.max_frame_size
        if len(payload) > limit:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds negotiated frame size {limit}"
            )
        w.seq_out += 1
        txn = self._txns.next()
        self._reports[txn] = d
        due = (now + self.config.report_timeout_ms, txn)
        if self._deadlines and due < self._deadlines[-1]:
            bisect.insort(self._deadlines, due)
        else:
            self._deadlines.append(due)
        self._send(link, WirePacket(txn, w.wire, w.seq_out, payload))
        return d

    # ---------------------------------------------------------------- links

    def on_connected(self, sig: object | None, link: object | None, local_address: str, now: float) -> None:
        """A dial for the signaling link (``sig`` None) or for the payload
        link of the session on ``sig`` ended: ``link`` is the new
        connection, from ``local_address``, or None if it failed."""
        cfg = self.config
        if self.closing or self._signal is not sig:
            if link is not None:
                self.closes.append(link)
        elif link is None:
            if sig is not None:
                self._lost_session("payload-connect-failed", now)
        elif sig is not None:
            self._payload = link
            self._parsers[link] = StreamParser(max_payload=MAX_FRAME_SIZE)
            self._send(link, ControlMessage(Verb.PING, {"Call-ID": self.call_id}, txn=self._txns.next()))
        else:
            self._dial_at = None
            self._signal = link
            self._parsers[link] = StreamParser(max_payload=MAX_FRAME_SIZE)
            self.state = GatewayState.CONNECTING
            offer = SessionOffer(
                security=Security.SECURE if cfg.access is Access.INTERNET else Security.PLAIN,
                max_frame_size=cfg.max_frame_size,
                payload_endpoint=local_address or "0.0.0.0:0",
                role=cfg.role,
                provider=cfg.provider,
            )
            self.session, invite = make_invite(
                cfg.subscriber, cfg.role, cfg.provider, cfg.access, offer, self._txns.next()
            )
            self._last_rx_ms = now
            self._send(link, invite)

    def on_bytes(self, link: object, data: bytes, now: float) -> None:
        """Dispatch every frame ``data`` completes on ``link``."""
        parser = self._parsers.get(link)
        if parser is None:
            return  # a ghost from an abandoned connection
        try:
            frames = parser.feed(data)
        except ProtocolViolation:
            self.closes.append(link)
            self.on_lost(link, now)
            return
        for frame in frames:
            if link not in self._parsers:
                break  # died with frames in flight: drop them
            self._handle_frame(link, frame, now)

    def on_lost(self, link: object, now: float) -> None:
        """``link``'s far end closed it, or its socket failed."""
        if not self.closing and link in self._parsers:
            self._lost_session("link-lost", now)

    # ------------------------------------------------------------- internals

    def _send(self, link: object, frame: Frame) -> None:
        self.out.setdefault(link, []).append(frame)

    def _send_control(self, verb: Verb, params: dict[str, str]) -> None:
        if self._signal is not None:
            self._send(self._signal, ControlMessage(verb, params, txn=self._txns.next()))

    def _drop_session(self, close: bool = True) -> None:
        # in-flight traffic dies with the links; attachments re-form later
        for link in (self._signal, self._payload):
            if link is not None and close:
                self.closes.append(link)
        self._signal = self._payload = self.session = None
        self._parsers.clear()
        self.opened.clear()
        self._wires.clear()
        self._by_wire.clear()
        for d in self._reports.values():
            d._resolve(DeliveryStatus.PEER_UNAVAILABLE)
        self._reports.clear()
        self._deadlines.clear()

    def _lost_session(self, reason: str, now: float) -> None:
        self._drop_session()
        if self.closing:
            return
        if self.config.auto_reconnect:
            self.state = GatewayState.DEGRADED
            _safe(self.receiver.on_state, GatewayState.DEGRADED)
            self._dial_at = now + self._backoff_ms
        else:
            self.state = GatewayState.CLOSED
            self.opened.set()
            _safe(self.receiver.on_state, GatewayState.CLOSED)

    def _unwire(self, ctid: str) -> _Wire | None:
        w = self._wires.pop(ctid, None)
        if w is not None:
            self._by_wire.pop(w.wire, None)
        return w

    # ------------------------------------------------------- frame dispatch

    def _handle_frame(self, link: object, frame: Frame, now: float) -> None:
        self._last_rx_ms = now
        if isinstance(frame, SignalMessage):
            if link is self._signal:
                self._handle_signal(frame, now)
        elif isinstance(frame, ControlMessage):
            self._handle_control(link, frame)
        elif isinstance(frame, WirePacket):
            self._handle_packet(link, frame)
        elif isinstance(frame, DeliveryReport):
            d = self._reports.pop(frame.txn, None)
            if d is not None:
                d._resolve(_STATUS_MAP.get(frame.status, DeliveryStatus.PEER_UNAVAILABLE))

    def _handle_signal(self, msg: SignalMessage, now: float) -> None:
        sess = self.session
        if sess is None:
            return
        before = sess.state
        sess2, actions = on_signal(sess, msg, now, txn=self._txns.next())
        self.session = sess2
        rejected: DialogRejected | None = None
        for action in actions:
            if isinstance(action, SendSignal):
                self._send(self._signal, action.msg)
            elif isinstance(action, OpenPayload):
                ch = action.channel
                self.dials.append((self._signal, ch.payload_endpoint, ch.security is Security.SECURE))
            elif isinstance(action, DialogRejected):
                rejected = action
        if rejected is not None:
            self.open_error = SessionRejected(rejected.status, rejected.reason)
            self.shutdown("rejected")  # a rejected dialog will not heal by retrying
            return
        if sess2.state is SessionState.CLOSED and before is not SessionState.CLOSED:
            if self.closing:
                self.bye_done.set()
            else:
                self._lost_session("closed-by-peer", now)

    def _handle_control(self, link: object, msg: ControlMessage) -> None:
        verb = msg.verb
        if verb is Verb.PING:
            self._send(link, ControlMessage(Verb.PONG, dict(msg.params), txn=self._txns.next()))
        elif verb is Verb.PONG:
            if link is self._payload and self.state is GatewayState.CONNECTING:
                self._session_ready()  # the answer to the payload link's first PING
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
        self.state = GatewayState.OPEN
        self.open_error = None
        self.opened.set()
        _safe(self.receiver.on_state, GatewayState.OPEN)
        if self.config.role is Role.LGW:
            for ctid in sorted(self._known):
                if ctid not in self._wires:
                    self._send_control(Verb.COMMISSION, {"Ctid": ctid})

    def _install_wire(self, ctid: str, wire: int) -> bool:
        """Bind ``ctid`` to ``wire``; True if it had no wire before."""
        old = self._unwire(ctid)
        self._wires[ctid] = self._by_wire[wire] = _Wire(ctid=ctid, wire=wire)
        return old is None

    def _on_commissioned(self, msg: ControlMessage) -> None:
        ctid = msg.params.get("Ctid", "")
        wire = msg.wire_param
        if not ctid or wire is None:
            return
        fresh = self._install_wire(ctid, wire)
        att = self._pending_attach.pop(ctid, None)
        if att is not None:
            att._resolve(wire)
        if fresh:
            _safe(self.receiver.on_attached, ctid)

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
        fresh = self._install_wire(ctid, wire)
        self._known.add(ctid)
        self._send_control(Verb.AUTHORIZED, {"Ctid": ctid, "Wire": str(wire)})
        if fresh:
            _safe(self.receiver.on_attached, ctid)

    def _on_decommissioned(self, ctid: str) -> None:
        if not ctid:
            return
        ev = self._pending_detach.pop(ctid, None)
        if ev is not None:
            ev.set()
        att = self._pending_attach.pop(ctid, None)
        if att is not None:
            att._fail("decommissioned")
        w = self._unwire(ctid)
        self._known.discard(ctid)
        # teardown ack: always echoed, exactly once, even for unknown ctids
        self._send_control(Verb.DECOMMISSIONED, {"Ctid": ctid})
        if w is not None:
            _safe(self.receiver.on_detached, ctid)

    def _on_peer_down(self, ctid: str) -> None:
        if not ctid:
            return
        w = self._unwire(ctid)
        self._known.discard(ctid)
        self._send_control(Verb.DECOMMISSIONED, {"Ctid": ctid})
        if w is not None:
            _safe(self.receiver.on_peer_down, ctid)

    def _on_error(self, params: dict[str, str]) -> None:
        ctid = params.get("Ctid", "")
        reason = params.get("Reason", "error")
        if ctid:
            att = self._pending_attach.pop(ctid, None)
            if att is not None:
                self._known.discard(ctid)
                att._fail(reason)
        _safe(self.receiver.on_error, reason, ctid)

    def _handle_packet(self, link: object, pkt: WirePacket) -> None:
        if link is not self._payload:
            return
        w = self._by_wire.get(pkt.wire)
        if w is None:
            self._send(link, DeliveryReport(pkt.txn, pkt.wire, pkt.seq, STATUS_NO_SUCH_WIRE))
            return
        # delivery and its report are queued by one call: a fault flipped
        # between the facade's lock holds drops the frame or sees both
        _safe(self.receiver.on_data, w.ctid, pkt.payload)
        self._send(link, DeliveryReport(pkt.txn, pkt.wire, pkt.seq, STATUS_DELIVERED))

    # ---------------------------------------------------------------- timers

    def next_deadline(self) -> float | None:
        """The earliest ``now`` at which ``on_tick`` may have work, or None; read without the lock."""
        cfg, state = self.config, self.state
        due = self._dial_at if self._signal is None else None
        if state is GatewayState.OPEN or state is GatewayState.CONNECTING:
            alive = keepalive_deadline(
                self._last_rx_ms, self._last_ping_ms, cfg.keepalive_interval_ms, cfg.keepalive_misses,
                state is GatewayState.OPEN,
            )
            due = alive if due is None else min(due, alive)
        try:
            report = self._deadlines[0][0]
        except IndexError:  # none, or another thread emptied the queue meanwhile
            return due
        return report if due is None else min(due, report)

    def on_tick(self, now: float) -> None:
        cfg = self.config
        deadlines, reports = self._deadlines, self._reports
        # due entries resolve; answered ones at the head go too: the head is awaited
        while deadlines and (deadlines[0][0] <= now or deadlines[0][1] not in reports):
            d = reports.pop(deadlines.popleft()[1], None)
            if d is not None:
                d._resolve(DeliveryStatus.PEER_UNAVAILABLE)
        state = self.state
        if state is GatewayState.OPEN or state is GatewayState.CONNECTING:
            verdict = liveness(self._last_rx_ms, now, cfg.keepalive_interval_ms, cfg.keepalive_misses)
            if verdict is Keepalive.EXPIRED:
                self._lost_session("watchdog" if state is GatewayState.OPEN else "connect-timeout", now)
            elif verdict is Keepalive.SEND_PING and state is GatewayState.OPEN:
                if now >= self._last_ping_ms + cfg.keepalive_interval_ms:
                    self._last_ping_ms = now
                    self._send_control(Verb.PING, {})
        if self._signal is None and self._dial_at is not None and now >= self._dial_at:
            self._dial_at = now + self._backoff_ms  # when to try again, should this fail
            self._backoff_ms = min(self._backoff_ms * 2, cfg.reconnect_max_ms)
            self.dials.append((None, cfg.broker_endpoint, False))


class Gateway:
    """One gateway endpoint. Use open_gateway() for the common case."""

    def __init__(self, config: GatewayConfig, receiver: Receiver | None = None):
        if config.role is Role.ASGW and not config.provider:
            raise ValueError("an application-service gateway needs a provider id")
        self.config = config
        self.receiver = receiver if receiver is not None else Receiver()
        self.control = LinkControl()
        self._mu = self.control.dispatch_lock
        self._core = GatewayCore(config, self.receiver)
        self._loop: EventLoop | None = None
        self._ready: list[Link] = []  # links the current loop pass found readable

    # ------------------------------------------------------------- lifecycle

    def open(self, wait: bool = True, timeout: float = 10.0) -> "Gateway":
        with self._mu:
            if self._locked(self._core.open, _now_ms()) and self._loop is None:
                self._loop = EventLoop("msbc-gateway", self._core.next_deadline, self._tick, self._pass)
                self._loop.start()  # its first tick dials
        if wait:
            self.wait_until_open(timeout)
        return self

    def wait_until_open(self, timeout: float = 10.0) -> "Gateway":
        core = self._core
        if not core.opened.wait(timeout):
            raise TimeoutError("session not established in time")
        if core.open_error is not None:
            raise core.open_error
        if core.state is not GatewayState.OPEN:
            raise SessionRejected(0, "gateway closed before the session opened")
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Orderly shutdown: detach every device, wait for the release acks,
        end the dialog, then drop the links. Idempotent. From a receiver
        callback it waits for nothing: the loop that reads acks is the caller."""
        core = self._core
        acks = self._locked(core.close)
        if acks is None:
            return
        if self._loop is not None and self._loop.in_loop():
            timeout = 0.0
        deadline = time.monotonic() + timeout
        for ev in acks:
            ev.wait(max(0.0, deadline - time.monotonic()))
        if self._locked(core.bye):
            core.bye_done.wait(max(0.0, deadline - time.monotonic()))
        self._shutdown("closed")

    def abort(self) -> None:
        """Drop everything on the floor: no decommissions, no farewell, the
        sockets just close. Models a process kill."""
        self._shutdown("aborted")

    def __enter__(self) -> "Gateway":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ inspection

    @property
    def state(self) -> GatewayState:
        return self._core.state

    @property
    def call_id(self) -> str:
        return self._core.call_id

    @property
    def negotiated(self):
        sess = self._core.session
        return sess.negotiated if sess is not None else None

    def attachments(self) -> dict[str, int]:
        with self._mu:
            return self._core.attachments()

    # -------------------------------------------------------------- devices

    def attach_device(self, ctid: str) -> Attachment:
        validate_ctid(ctid)
        return self._locked(self._core.attach_device, ctid)

    def detach_device(self, ctid: str) -> threading.Event:
        """Request release of a device; the returned event fires on the ack."""
        return self._locked(self._core.detach_device, ctid)

    def transmit(self, ctid: str, payload: bytes) -> Delivery:
        return self._locked(self._core.transmit, ctid, payload, _now_ms())

    # ---------------------------------------------------------------- faults

    def switch_endpoint(self, local_address: str | None = None, access: Access | None = None) -> None:
        """Abandon the current links mid-flight (no FIN, pure silence) and
        re-open from a new source address and/or access network. Models a
        physical uplink change."""
        self._locked(self._core.switch_endpoint, local_address, access, _now_ms())

    # ------------------------------------------------------------- internals

    def _locked(self, call, *args):
        """Make one call into the core under the lock, then write what it queued."""
        with self._mu:
            was = self._core.next_deadline()  # the loop wakes by then at the latest
            result = call(*args)
            self._flush()
            due = self._core.next_deadline()
            if due is not None and (was is None or due < was) and self._loop is not None:
                self._loop.wake()
        return result

    def _flush(self) -> None:
        """Carry out what the core queued: each link's frames in one write,
        then the closes, so a frame queued before a close leaves before the
        FIN. Callers hold the lock."""
        core = self._core
        if core.out:
            for link, frames in core.out.items():
                for frame in frames:
                    link.send_frame(frame)
                link.flush()
            core.out.clear()
        if core.closes:
            for link in core.closes:
                link.close()
            core.closes.clear()

    def _tick(self, now: float) -> None:
        self._locked(self._core.on_tick, now)

    def _pass(self) -> None:
        """End of a loop pass: feed each ready link's chunk to the core and
        write what it answered, all in one lock hold; then dial."""
        core, ready = self._core, self._ready
        if not ready and not core.dials:
            return
        with self._mu:
            now = _now_ms()
            for link in ready:
                data = link.read()
                if data:
                    core.on_bytes(link, data, now)
                elif data is not None:
                    core.on_lost(link, now)
            ready.clear()
            self._flush()
            dials, core.dials = core.dials, []
        for sig, endpoint, secure in dials:
            if not self.control.blackhole:  # a dead radio dials nothing
                self._dial(sig, endpoint, secure)
        if core.closing and core.state is GatewayState.CLOSED:
            self._loop.stop()  # shut down from within the loop: a rejected dialog

    def _dial(self, sig: Link | None, endpoint: str, secure: bool) -> None:
        """Open a link on the loop thread: the connect blocks, outside the lock."""
        try:
            link = Link(
                endpoint,
                self.control,
                self._loop,
                self._ready.append,
                secure=secure,
                local_address=self.config.local_address,
            )
        except OSError:
            link = None
        self._locked(self._core.on_connected, sig, link, link.local_address if link else "", _now_ms())

    def _shutdown(self, reason: str) -> None:
        with self._mu:
            self._core.closing = True  # nothing reconnects while the loop stops
        if self._loop is not None:
            self._loop.stop()  # its sockets close as it ends
        self._locked(self._core.shutdown, reason)


def open_gateway(
    config: GatewayConfig, receiver: Receiver | None = None, timeout: float = 10.0
) -> Gateway:
    """Create a gateway and block until its session is fully established."""
    return Gateway(config, receiver).open(wait=True, timeout=timeout)
