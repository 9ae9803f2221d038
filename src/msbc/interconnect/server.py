"""Socket server around the broker core.

Threading model: one thread runs a ``selectors`` event loop that owns every
non-blocking socket -- the three listeners, every accepted connection, and
a socketpair that ``stop()`` uses to wake it. Each pass reads one chunk
from every readable socket into ``Broker.on_bytes``, runs a tick when one
is due (ticks come from the ``select`` timeout), and then flushes the write
buffers the outbox appended to, so frames written in one pass leave in one
``send``. A connection counts as lost once its unsent bytes pass
``buffer_max_bytes`` and no byte has left it for a keepalive interval, so a
peer that stops reading cannot stall the others, while a large burst to a
peer that is reading (a parked buffer flushed to a returning provider) is
sent in full. The core thus runs strictly single-threaded, with no queue
and no lock.

Three listeners: signaling, plain payload, and TLS payload. The TLS
listener uses a fresh self-signed certificate generated at startup, which
is all a closed operator domain needs -- gateways connect without
verification and rely on the channel for confidentiality only. The loop
drives each TLS handshake; the broker sees the connection once it is done.
"""

from __future__ import annotations

import ipaddress
import logging
import selectors
import socket
import ssl
import tempfile
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from msbc.interconnect.broker import Broker, BrokerConfig
from msbc.interconnect.directory import SubscriptionDirectory
from msbc.interconnect.events import EventLog

log = logging.getLogger("msbc.interconnect")

_RECV_SIZE = 65536
_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
# A non-blocking call that has to wait for the socket; OSError otherwise.
_WOULD_BLOCK = (BlockingIOError, ssl.SSLWantReadError, ssl.SSLWantWriteError)


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    signal_port: int = 0  # 0 picks an ephemeral port
    payload_port: int = 0
    payload_tls_port: int = 0
    keepalive_interval_ms: float = 5000.0
    keepalive_misses: int = 3
    buffer_max_packets: int = 1024
    buffer_max_bytes: int = 4 * 1024 * 1024
    max_frame_size: int = 16384

    def broker_config(self) -> BrokerConfig:
        return BrokerConfig(
            keepalive_interval_ms=self.keepalive_interval_ms,
            keepalive_misses=self.keepalive_misses,
            buffer_max_packets=self.buffer_max_packets,
            buffer_max_bytes=self.buffer_max_bytes,
            max_frame_size=self.max_frame_size,
        )

    @property
    def tick_ms(self) -> float:
        # Frequent enough to keep watchdog latency within one interval slice.
        return min(1000.0, max(5.0, self.keepalive_interval_ms / 4))


def now_ms() -> float:
    return time.monotonic() * 1000.0


class _Conn:
    """One accepted socket and the bytes the broker has queued for it."""

    def __init__(self, conn_id: int, sock: socket.socket, secure: bool, peer: str):
        self.id = conn_id
        self.sock = sock
        self.secure = secure
        self.peer = peer
        self.handshaking = secure
        self.out = bytearray()
        self.stalled_since: float | None = None  # last progress while bytes wait
        self.events = _READ
        self.closed = False


class _BufferedOutbox:
    """The broker's outbox: queues bytes for the loop to flush."""

    def __init__(self, server: "BrokerServer"):
        self._server = server

    def send(self, conn_id: int, data: bytes) -> None:
        conn = self._server._conns.get(conn_id)
        if conn is not None:
            conn.out += data
            self._server._dirty[conn_id] = conn

    def close(self, conn_id: int) -> None:
        conn = self._server._conns.get(conn_id)
        if conn is not None:
            self._server._close(conn)


class BrokerServer:
    def __init__(
        self,
        directory: SubscriptionDirectory,
        config: ServerConfig | None = None,
        events: EventLog | None = None,
    ):
        self.config = config or ServerConfig()
        self.events = events or EventLog()
        self.broker = Broker(directory, _BufferedOutbox(self), self.config.broker_config(), self.events)
        self._selector: selectors.BaseSelector | None = None
        self._conns: dict[int, _Conn] = {}
        self._dirty: dict[int, _Conn] = {}
        self._next_conn = 0
        self._own: list[socket.socket] = []  # listeners and the wake pair
        self._wake_w: socket.socket | None = None
        self._stopping = False
        self._thread: threading.Thread | None = None
        self.signal_endpoint = ""
        self.payload_endpoint = ""
        self.payload_tls_endpoint = ""

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        cfg = self.config
        self._selector = selectors.DefaultSelector()
        wake_r, self._wake_w = socket.socketpair()
        wake_r.setblocking(False)
        self._own += (wake_r, self._wake_w)
        self._selector.register(wake_r, _READ, lambda mask: wake_r.recv(4096))
        signal_l = self._listen(cfg.signal_port, None)
        payload_l = self._listen(cfg.payload_port, None)
        tls_l = self._listen(cfg.payload_tls_port, _self_signed_context())
        self.signal_endpoint = _endpoint_of(signal_l)
        self.payload_endpoint = _endpoint_of(payload_l)
        self.payload_tls_endpoint = _endpoint_of(tls_l)
        self.broker.configure_endpoints(self.payload_endpoint, self.payload_tls_endpoint)
        self._thread = threading.Thread(target=self._run, daemon=True, name="msbc-broker")
        self._thread.start()
        log.info(
            "broker up: signal=%s payload=%s payload+tls=%s",
            self.signal_endpoint,
            self.payload_endpoint,
            self.payload_tls_endpoint,
        )

    def stop(self) -> None:
        """Stop the loop and join it; the loop closes every socket it owns."""
        self._stopping = True
        if self._thread is None:
            return
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass
        self._thread.join(timeout=5)
        self._thread = None

    def __enter__(self) -> "BrokerServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the event loop ------------------------------------------------------

    def _run(self) -> None:
        # absolute deadlines: wakeup jitter must not accumulate into drift,
        # or the watchdog's one-tick detection slack quietly erodes
        interval = self.config.tick_ms / 1000.0
        deadline = time.monotonic() + interval
        try:
            while not self._stopping:
                timeout = max(0.0, deadline - time.monotonic())
                for key, mask in self._selector.select(timeout):
                    self._guarded(key.data, mask)
                now = time.monotonic()
                if now >= deadline:
                    self._guarded(self.broker.on_tick, now * 1000.0)
                    # retry (and time out) peers that have stopped reading
                    self._dirty.update((c.id, c) for c in self._conns.values() if c.out)
                    deadline += interval
                    if deadline < now:  # stalled; skip, don't burst
                        deadline = now + interval
                while self._dirty:
                    self._guarded(self._flush, self._dirty.popitem()[1])
        finally:
            for conn in list(self._conns.values()):
                self._close(conn)
            for sock in self._own:
                _quiet_close(sock)
            self._selector.close()

    @staticmethod
    def _guarded(handler, arg) -> None:
        try:
            handler(arg)
        except Exception:
            log.exception("broker event loop: %r failed", handler)

    def _listen(self, port: int, tls: ssl.SSLContext | None) -> socket.socket:
        sock = socket.create_server((self.config.host, port), backlog=64)
        sock.setblocking(False)
        self._own.append(sock)
        self._selector.register(sock, _READ, lambda mask: self._accept(sock, tls))
        return sock

    def _accept(self, listener: socket.socket, tls: ssl.SSLContext | None) -> None:
        while True:
            try:
                sock, addr = listener.accept()
            except OSError:  # would block, or the listener is gone
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            secure = tls is not None
            if secure:
                sock = tls.wrap_socket(sock, server_side=True, do_handshake_on_connect=False)
            conn = _Conn(self._next_conn, sock, secure, f"{addr[0]}:{addr[1]}")
            self._next_conn += 1
            self._conns[conn.id] = conn
            self._selector.register(sock, _READ, lambda mask, c=conn: self._ready(c, mask))
            if secure:
                self._handshake(conn)
            else:
                self.broker.on_connect(conn.id, secure=False, peer=conn.peer)

    def _ready(self, conn: _Conn, mask: int) -> None:
        if conn.closed:  # closed earlier in this pass
            return
        if conn.handshaking:
            self._handshake(conn)
            return
        if mask & _WRITE:
            self._flush(conn)
        if mask & _READ and not conn.closed:
            self._read(conn)

    def _handshake(self, conn: _Conn) -> None:
        try:
            conn.sock.do_handshake()
        except ssl.SSLWantReadError:
            self._watch(conn, _READ)
            return
        except ssl.SSLWantWriteError:
            self._watch(conn, _WRITE)
            return
        except OSError:
            self._lost(conn)
            return
        conn.handshaking = False
        self._watch(conn, _READ)
        self.broker.on_connect(conn.id, secure=True, peer=conn.peer)
        self._read(conn)  # the first frame may have come with the handshake

    def _read(self, conn: _Conn) -> None:
        # One chunk per pass, so a peer that never stops sending cannot
        # starve the others or outrun the unsent-byte check; TLS also drains
        # what the record layer has already decrypted.
        while True:
            try:
                data = conn.sock.recv(_RECV_SIZE)
            except _WOULD_BLOCK:
                return
            except OSError:
                data = b""
            if not data:
                self._lost(conn)
                return
            self.broker.on_bytes(conn.id, data, now_ms())
            if conn.closed or not (conn.secure and conn.sock.pending()):
                return

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out) if conn.out else 0
        except _WOULD_BLOCK:
            sent = 0
        except OSError:
            self._lost(conn)
            return
        del conn.out[:sent]
        if not conn.out:
            conn.stalled_since = None
        elif sent or conn.stalled_since is None:
            conn.stalled_since = time.monotonic()
        elif (
            len(conn.out) > self.config.buffer_max_bytes
            and time.monotonic() - conn.stalled_since > self.config.keepalive_interval_ms / 1000.0
        ):
            log.warning("connection %d lost: %d unsent bytes", conn.id, len(conn.out))
            self._lost(conn)
            return
        self._watch(conn, _READ | _WRITE if conn.out else _READ)

    def _watch(self, conn: _Conn, events: int) -> None:
        if events != conn.events and not conn.closed:
            conn.events = events
            self._selector.modify(conn.sock, events, self._selector.get_key(conn.sock).data)

    def _lost(self, conn: _Conn) -> None:
        """The peer went away (or stopped reading): tell the broker."""
        self._close(conn)
        self.broker.on_disconnect(conn.id, now_ms())

    def _close(self, conn: _Conn) -> None:
        """Close a connection after one last try at sending what is queued,
        so a parting ERROR reaches the peer before the FIN."""
        if conn.closed:
            return
        if conn.out:
            try:
                conn.sock.send(conn.out)
            except OSError:
                pass
        conn.closed = True
        del self._conns[conn.id]
        self._dirty.pop(conn.id, None)
        self._selector.unregister(conn.sock)
        _quiet_close(conn.sock)


def _endpoint_of(listener: socket.socket) -> str:
    host, port = listener.getsockname()[:2]
    return f"{host}:{port}"


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _self_signed_context() -> ssl.SSLContext:
    """Ephemeral server certificate; peers connect without verification."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "m2m-is")])
    now = datetime.now(timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - timedelta(days=1))
        .not_valid_after(now + timedelta(days=365))
        .add_extension(
            x509.SubjectAlternativeName(
                [
                    x509.DNSName("localhost"),
                    x509.IPAddress(ipaddress.ip_address("127.0.0.1")),
                ]
            ),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    # No TLS 1.3 session tickets: a ticket the server writes after the
    # handshake races the client's first frame over the same SSLSocket.
    context.num_tickets = 0
    with tempfile.TemporaryDirectory() as tmp:
        cert_path = Path(tmp) / "cert.pem"
        key_path = Path(tmp) / "key.pem"
        cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
        key_path.write_bytes(
            key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption(),
            )
        )
        context.load_cert_chain(cert_path, key_path)
    return context

