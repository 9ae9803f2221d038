"""Socket server around the broker core.

Threading model: the server runs on one ``msbc.loop.EventLoop`` thread,
which owns every socket. A pass feeds one chunk from each readable
connection to ``Broker.on_bytes``, ticks the core when due, then flushes the
write buffers the outbox appended to, so frames written in one pass leave in
one ``send``. A connection counts as lost once its unsent bytes pass
``buffer_max_bytes`` and no byte has left it for a keepalive interval, so a
peer that stops reading cannot stall the others, while a large burst to a
peer that is reading (a parked buffer flushed to a returning provider) is
sent in full. The core thus runs single-threaded, with no queue and no lock.

Three listeners: signaling, plain payload, and TLS payload. The TLS
listener uses a fresh self-signed certificate, which is all a closed
operator domain needs -- gateways connect without verification and rely on
the channel for confidentiality only. ``ssl`` (with ``msbc.tls``) and the
certificate are loaded when the first TLS peer connects, so a broker that
serves only plain peers never loads either; that first connection pays a
one-time cost (tens of ms, on the loop thread). Each connection picks its
read and its would-block errors when it is accepted, so a plain read makes
no TLS check. The loop drives each TLS handshake; the broker sees the
connection once it is done.
"""

from __future__ import annotations

import logging
import socket
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


class _Conn:
    """One accepted socket, how to read it, and the bytes the broker has
    queued for it. ``tls`` is the ``msbc.tls`` module for a TLS peer."""

    def __init__(self, conn_id: int, sock: socket.socket, peer: str, tls=None):
        self.id = conn_id
        self.sock = sock
        self.peer = peer
        self.tls = tls
        self.receive = tls.receive if tls else receive
        self.would_block = tls.WOULD_BLOCK if tls else WOULD_BLOCK
        self.handshaking = tls is not None
        self.out = bytearray()
        self.retry_at: float | None = None  # while bytes wait: last progress + keepalive interval
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
        self._stalled: dict[int, _Conn] = {}  # over buffer_max_bytes unsent
        self._next_conn = 0
        self._tls_context = None  # made at the first TLS accept
        self.signal_endpoint = ""
        self.payload_endpoint = ""
        self.payload_tls_endpoint = ""

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        cfg = self.config
        self._loop = EventLoop("msbc-broker", self._next_deadline, self._tick, self._flush_dirty)
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

    def _next_deadline(self) -> float | None:
        due = self.broker.next_deadline()
        if self._stalled:
            retry = min(c.retry_at for c in self._stalled.values())
            due = retry if due is None else min(due, retry)
        return due

    def _tick(self, now: float) -> None:
        self.broker.on_tick(now)
        if self._stalled:  # retry (and time out) peers that have stopped reading
            for conn in [c for c in self._stalled.values() if now >= c.retry_at]:
                self._flush(conn)

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
            tls = None
            if secure:
                try:
                    from msbc import tls

                    if self._tls_context is None:
                        self._tls_context = _self_signed_context()
                except Exception:  # the next TLS peer tries again
                    log.exception("no TLS context for %s:%s", *addr[:2])
                    close_quietly(sock)
                    continue
                sock = self._tls_context.wrap_socket(sock, server_side=True, do_handshake_on_connect=False)
            conn = _Conn(self._next_conn, sock, f"{addr[0]}:{addr[1]}", tls)
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
        except conn.would_block as exc:
            self._watch(conn, conn.tls.waits_for(exc))
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
        data = conn.receive(conn.sock)
        if data == b"":
            self._lost(conn)
        elif data is not None:
            self.broker.on_bytes(conn.id, data, now_ms())

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out) if conn.out else 0
        except conn.would_block:
            sent = 0
        except OSError:
            self._lost(conn)
            return
        del conn.out[:sent]
        if not conn.out:
            conn.retry_at = None
        elif sent or conn.retry_at is None:
            conn.retry_at = now_ms() + self.config.keepalive_interval_ms
        elif len(conn.out) > self.config.buffer_max_bytes and now_ms() >= conn.retry_at:
            log.warning("connection %d lost: %d unsent bytes", conn.id, len(conn.out))
            self._lost(conn)
            return
        if len(conn.out) > self.config.buffer_max_bytes:
            self._stalled[conn.id] = conn
        elif self._stalled:
            self._stalled.pop(conn.id, None)
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
        self._stalled.pop(conn.id, None)
        self._loop.unregister(conn.sock)
        close_quietly(conn.sock)


def _endpoint_of(listener: socket.socket) -> str:
    host, port = listener.getsockname()[:2]
    return f"{host}:{port}"


def _self_signed_context() -> ssl.SSLContext:
    """Ephemeral server certificate; peers connect without verification."""
    import ipaddress
    import ssl
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

