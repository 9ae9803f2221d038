"""Framed TCP/TLS connection with cooperative fault injection.

A LinkControl is shared by all links of one gateway. Its ``blackhole`` flag
simulates a dead radio path: writes are swallowed, reads are discarded, and
closing a blackholed link leaves the socket open so the far end sees pure
silence instead of a FIN. The ``dispatch_lock`` is held around every frame
handed upward, so a fault flipped under the same lock can never interleave
with a half-processed frame.
"""

from __future__ import annotations

import socket
import ssl
import threading
from typing import Callable

from msbc.wire import Frame, MAX_FRAME_SIZE, ProtocolViolation, StreamParser, encode_frame
from msbc.wire.types import parse_endpoint

_RECV_SIZE = 65536


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
    """One connection; frames go up through on_frame, loss through on_lost."""

    def __init__(
        self,
        endpoint: str,
        control: LinkControl,
        on_frame: Callable[["Link", Frame], None],
        on_lost: Callable[["Link"], None],
        secure: bool = False,
        local_address: str | None = None,
        name: str = "link",
        connect_timeout: float = 5.0,
    ):
        self.name = name
        self.control = control
        self._on_frame = on_frame
        self._on_lost = on_lost
        self._closed = False
        self._leaked = False
        self.muted = False  # per-link blackhole, for abandoned connections
        self._write_lock = threading.Lock()
        host, port = parse_endpoint(endpoint)
        source = (local_address, 0) if local_address else None
        sock = socket.create_connection((host, port), timeout=connect_timeout, source_address=source)
        if secure:
            sock = client_tls_context().wrap_socket(sock, server_hostname=host)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._parser = StreamParser(max_payload=MAX_FRAME_SIZE)
        self._reader = threading.Thread(target=self._read_loop, daemon=True, name=f"msbc-{name}")
        self._reader.start()

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
        """Write one frame; silently swallowed while blackholed."""
        with self._write_lock:
            if self._closed:
                return False
            if self._dead():
                return True  # the radio void accepts everything
            try:
                self._sock.sendall(encode_frame(frame))
                return True
            except OSError:
                return False

    def close(self) -> None:
        """Stop the link. A blackholed link keeps its socket open (no FIN);
        call reap() once nobody cares about the silence any more."""
        if self._closed:
            return
        self._closed = True
        if self._dead():
            self._leaked = True
            return
        self._shutdown_socket()

    def reap(self) -> None:
        if self._leaked:
            self._leaked = False
            self._shutdown_socket()

    def _shutdown_socket(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def _read_loop(self) -> None:
        while True:
            try:
                data = self._sock.recv(_RECV_SIZE)
            except OSError:
                data = b""
            if not data:
                break
            if self._dead():
                continue  # bits fall off the dead link
            try:
                frames = self._parser.feed(data)
            except ProtocolViolation:
                break
            for frame in frames:
                with self.control.dispatch_lock:
                    if self._closed or self._dead():
                        return  # died with frames in flight: drop them
                    self._on_frame(self, frame)
        if not self._closed and not self._dead():
            self._on_lost(self)
