"""Socket server around the broker core.

Threading model: the server runs on one ``msbc.loop.EventLoop`` thread,
which owns every socket. A pass feeds one chunk from each readable
connection to ``Broker.on_bytes``; after the tick, it flushes the write
buffers the outbox appended to, so frames written in one pass leave in one
``send``. A connection counts as lost once its unsent bytes pass
``buffer_max_bytes`` and no byte has left it for a keepalive interval, so a
peer that stops reading cannot stall the others, while a large burst to a
peer that is reading (a parked buffer flushed to a returning provider) is
sent in full. The core thus runs single-threaded, with no queue and no lock.

Three listeners: signaling, plain payload, and TLS payload. The TLS
listener uses a fresh self-signed certificate, which is all a closed
operator domain needs -- gateways connect without verification and rely on
the channel for confidentiality only. The certificate is made when the
first TLS peer connects, so a broker that serves only plain peers never
loads the TLS toolkit; that first connection pays a one-time cost (tens of
ms, on the loop thread). The loop drives each TLS handshake; the broker
sees the connection once it is done.
"""

from __future__ import annotations

import logging
import socket
import ssl
import time
from dataclasses import dataclass

from msbc.interconnect.broker import Broker, BrokerConfig
from msbc.interconnect.directory import SubscriptionDirectory
from msbc.interconnect.events import EventLog
from msbc.loop import READ, WOULD_BLOCK, WRITE, EventLoop, close_quietly, now_ms, receive

log = logging.getLogger("msbc.interconnect")


@dataclass
class ServerConfig(BrokerConfig):
    """The broker core's rules, and where the server listens."""

    host: str = "127.0.0.1"
    signal_port: int = 0  # 0 picks an ephemeral port
    payload_port: int = 0
    payload_tls_port: int = 0

    @property
    def tick_ms(self) -> float:
        # Frequent enough to keep watchdog latency within one interval slice.
        return min(1000.0, max(5.0, self.keepalive_interval_ms / 4))


class _Conn:
    """One accepted socket and the bytes the broker has queued for it."""

    def __init__(self, conn_id: int, sock: socket.socket, secure: bool, peer: str):
        self.id = conn_id
        self.sock = sock
        self.peer = peer
        self.handshaking = secure
        self.out = bytearray()
        self.stalled_since: float | None = None  # last progress while bytes wait
        self.events = READ
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
        self.broker = Broker(directory, _BufferedOutbox(self), self.config, self.events)
        self._loop: EventLoop | None = None
        self._conns: dict[int, _Conn] = {}
        self._dirty: dict[int, _Conn] = {}
        self._next_conn = 0
        self._tls: ssl.SSLContext | None = None  # made at the first TLS accept
        self.signal_endpoint = ""
        self.payload_endpoint = ""
        self.payload_tls_endpoint = ""

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        cfg = self.config
        self._loop = EventLoop("msbc-broker", cfg.tick_ms, self._tick, self._flush_dirty)
        try:
            signal_l = self._listen(cfg.signal_port, secure=False)
            payload_l = self._listen(cfg.payload_port, secure=False)
            tls_l = self._listen(cfg.payload_tls_port, secure=True)
        except OSError:
            self._loop.stop()  # closes the listeners already bound
            raise
        self.signal_endpoint = _endpoint_of(signal_l)
        self.payload_endpoint = _endpoint_of(payload_l)
        self.payload_tls_endpoint = _endpoint_of(tls_l)
        self.broker.configure_endpoints(self.payload_endpoint, self.payload_tls_endpoint)
        self._loop.start()
        log.info(
            "broker up: signal=%s payload=%s payload+tls=%s",
            self.signal_endpoint,
            self.payload_endpoint,
            self.payload_tls_endpoint,
        )

    def stop(self) -> None:
        """Stop the loop and join it; the loop closes every socket it owns."""
        if self._loop is not None:
            self._loop.stop()

    def __enter__(self) -> "BrokerServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the event loop ------------------------------------------------------

    def _tick(self, now: float) -> None:
        self.broker.on_tick(now)
        # retry (and time out) peers that have stopped reading
        self._dirty.update((c.id, c) for c in self._conns.values() if c.out)

    def _flush_dirty(self) -> None:
        while self._dirty:
            self._flush(self._dirty.popitem()[1])

    def _listen(self, port: int, secure: bool) -> socket.socket:
        sock = socket.create_server((self.config.host, port), backlog=64)
        sock.setblocking(False)
        self._loop.selector.register(sock, READ, lambda mask: self._accept(sock, secure))
        return sock

    def _accept(self, listener: socket.socket, secure: bool) -> None:
        while True:
            try:
                sock, addr = listener.accept()
            except OSError:  # would block, or the listener is gone
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if secure:
                try:
                    if self._tls is None:
                        self._tls = _self_signed_context()
                except Exception:  # the next TLS peer tries again
                    log.exception("no TLS context for %s:%s", *addr[:2])
                    close_quietly(sock)
                    continue
                sock = self._tls.wrap_socket(sock, server_side=True, do_handshake_on_connect=False)
            conn = _Conn(self._next_conn, sock, secure, f"{addr[0]}:{addr[1]}")
            self._next_conn += 1
            self._conns[conn.id] = conn
            self._loop.selector.register(sock, READ, lambda mask, c=conn: self._ready(c, mask))
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
        if mask & WRITE:
            self._flush(conn)
        if mask & READ and not conn.closed:
            self._read(conn)

    def _handshake(self, conn: _Conn) -> None:
        try:
            conn.sock.do_handshake()
        except WOULD_BLOCK as exc:
            self._watch(conn, WRITE if isinstance(exc, ssl.SSLWantWriteError) else READ)
            return
        except OSError:
            self._lost(conn)
            return
        conn.handshaking = False
        self._watch(conn, READ)
        self.broker.on_connect(conn.id, secure=True, peer=conn.peer)
        self._read(conn)  # the first frame may have come with the handshake

    def _read(self, conn: _Conn) -> None:
        # One chunk per pass, so a peer that never stops sending cannot
        # starve the others or outrun the unsent-byte check.
        data = receive(conn.sock)
        if data == b"":
            self._lost(conn)
        elif data is not None:
            self.broker.on_bytes(conn.id, data, now_ms())

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out) if conn.out else 0
        except WOULD_BLOCK:
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
        self._watch(conn, READ | WRITE if conn.out else READ)

    def _watch(self, conn: _Conn, events: int) -> None:
        if events != conn.events and not conn.closed:
            conn.events = events
            self._loop.selector.modify(conn.sock, events, self._loop.selector.get_key(conn.sock).data)

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
        self._loop.unregister(conn.sock)
        close_quietly(conn.sock)


def _endpoint_of(listener: socket.socket) -> str:
    host, port = listener.getsockname()[:2]
    return f"{host}:{port}"


def _self_signed_context() -> ssl.SSLContext:
    """Ephemeral server certificate; peers connect without verification."""
    import ipaddress
    import tempfile
    from datetime import datetime, timedelta, timezone
    from pathlib import Path

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

