"""Framed TCP/TLS connection on a gateway's event loop, with cooperative
fault injection.

A Link has no thread and no lock of its own: the loop thread does every
read and hands frames upward, and writes run on the caller's thread, all
under the ``dispatch_lock`` that the links of a gateway share. So a TLS
socket is never used by two threads at once, and a fault flipped under the
lock never interleaves with a half-processed frame. The ``blackhole`` flag
simulates a dead radio path: writes are swallowed, reads are discarded,
and a link closed while dark stays open, so the far end sees silence, not
a FIN.
"""

from __future__ import annotations

import selectors
import socket
import ssl
import threading
from typing import Callable

from msbc.loop import READ, WOULD_BLOCK, WRITE, EventLoop, close_quietly, receive
from msbc.wire import Frame, MAX_FRAME_SIZE, ProtocolViolation, StreamParser, encode_frame
from msbc.wire.types import parse_endpoint


def client_tls_context() -> ssl.SSLContext:
    """Client side of the operator-domain TLS policy: encrypt, don't verify."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.check_hostname = False
    context.verify_mode = ssl.CERT_NONE
    return context


class LinkControl:
    def __init__(self):
        self.dispatch_lock = threading.RLock()
        self.blackhole = False

    def set_blackhole(self, value: bool = True) -> None:
        with self.dispatch_lock:
            self.blackhole = value


class Link:
    """One connection; frames go up through on_frame, loss through on_lost,
    both on the loop thread with the dispatch lock held."""

    def __init__(
        self,
        endpoint: str,
        control: LinkControl,
        loop: EventLoop,
        on_frame: Callable[["Link", Frame], None],
        on_lost: Callable[["Link"], None],
        secure: bool = False,
        local_address: str | None = None,
        connect_timeout: float = 5.0,
    ):
        self.control = control
        self._loop = loop
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._closed = False
        self.muted = False  # per-link blackhole, for abandoned connections
        host, port = parse_endpoint(endpoint)
        source = (local_address, 0) if local_address else None
        sock = socket.create_connection((host, port), timeout=connect_timeout, source_address=source)
        if secure:
            sock = client_tls_context().wrap_socket(sock, server_hostname=host)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._parser = StreamParser(max_payload=MAX_FRAME_SIZE)
        loop.selector.register(sock, READ, self._readable)

    @property
    def local_address(self) -> str:
        try:
            host, port = self._sock.getsockname()[:2]
            return f"{host}:{port}"
        except OSError:
            return ""

    def _dead(self) -> bool:
        return self.muted or self.control.blackhole

    def send_frame(self, frame: Frame) -> bool:
        """Write one frame, waiting while the socket is full as ``sendall``
        would; silently swallowed while blackholed."""
        with self.control.dispatch_lock:
            if self._closed:
                return False
            if self._dead():
                return True  # the radio void accepts everything
            data = memoryview(encode_frame(frame))
            try:
                while data:
                    try:
                        data = data[self._sock.send(data):]
                    except WOULD_BLOCK as exc:
                        # TLS retries the same bytes once the socket is ready
                        _wait(self._sock, READ if isinstance(exc, ssl.SSLWantReadError) else WRITE)
                return True
            except OSError:
                return False

    def close(self) -> None:
        """Stop the link. A blackholed link keeps its socket open and read
        (no FIN) until the far end closes it or the loop ends."""
        if not self._closed:
            self._closed = True
            if not self._dead():
                self._drop()

    def _drop(self) -> None:
        self._loop.unregister(self._sock)
        close_quietly(self._sock)

    def _readable(self, mask: int) -> None:
        # The lock keeps callers' writes off the socket while the loop reads
        # it, and is taken again for each frame, so callers get in between.
        lock = self.control.dispatch_lock
        with lock:
            data = receive(self._sock)
        if data is None:
            return
        frames = []
        if data and not (self._closed or self._dead()):  # else bits fall off
            try:
                frames = self._parser.feed(data)
            except ProtocolViolation:
                data = b""
        for frame in frames:
            with lock:
                if self._closed or self._dead():
                    break  # died with frames in flight: drop them
                self._on_frame(self, frame)
        if not data:
            with lock:
                self._drop()
                if not self._closed and not self._dead():
                    self._on_lost(self)


def _wait(sock: socket.socket, events: int) -> None:
    with selectors.DefaultSelector() as selector:
        selector.register(sock, events)
        selector.select()
