"""Framed TCP/TLS connection on a gateway's event loop, with cooperative
fault injection.

A Link has no thread, lock or parser of its own. The loop thread reads it
and hands each chunk to the gateway core; the frames the core queues are
encoded into the link's buffer one ``send_frame`` at a time and written by
one ``flush``, so the replies to a whole chunk leave in one ``send``. Every
call comes with the ``dispatch_lock`` that the links of a gateway share
held, so a TLS socket is never used by two threads at once, and a write
from a caller's thread never interleaves with queued bytes. The
``blackhole`` flag simulates a dead radio path: writes are swallowed,
reads are discarded, and a link closed while dark stays open, so the far
end sees silence, not a FIN. A link picks its read and would-block errors
when it is dialled; only a secure one loads ``msbc.tls`` and ``ssl``.
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import Callable

from msbc.loop import READ, WOULD_BLOCK, WRITE, EventLoop, close_quietly, receive
from msbc.wire import Frame, encode_frame
from msbc.wire.types import parse_endpoint


def client_tls_context() -> ssl.SSLContext:
    """Client side of the operator-domain TLS policy: encrypt, don't verify."""
    import ssl

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
    """One connection. The loop calls ``on_readable(link)`` when it has
    bytes; everything else is called with the dispatch lock held."""

    def __init__(
        self,
        endpoint: str,
        control: LinkControl,
        loop: EventLoop,
        on_readable: Callable[["Link"], None],
        secure: bool = False,
        local_address: str | None = None,
        connect_timeout: float = 5.0,
    ):
        self.control = control
        self._loop = loop
        self._closed = False
        self._out: list[bytes] = []  # encoded frames not yet written
        host, port = parse_endpoint(endpoint)
        source = (local_address, 0) if local_address else None
        sock = socket.create_connection((host, port), timeout=connect_timeout, source_address=source)
        if secure:
            from msbc import tls

            sock = client_tls_context().wrap_socket(sock, server_hostname=host)
            self._tls, self._receive, self._would_block = tls, tls.receive, tls.WOULD_BLOCK
        else:
            self._tls, self._receive, self._would_block = None, receive, WOULD_BLOCK
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        loop.selector.register(sock, READ, lambda mask: on_readable(self))

    @property
    def local_address(self) -> str:
        try:
            host, port = self._sock.getsockname()[:2]
            return f"{host}:{port}"
        except OSError:
            return ""

    def send_frame(self, frame: Frame) -> None:
        """Queue one frame behind those not yet written; ``flush`` writes
        them. Dropped once the link is closed, swallowed while blackholed."""
        if not self._closed and not self.control.blackhole:
            self._out.append(encode_frame(frame))

    def flush(self) -> None:
        """Write every queued byte, waiting while the socket is full as
        ``sendall`` would. A failed write surfaces as a lost link on the
        next read."""
        out, self._out = self._out, []
        if not out or self.control.blackhole:
            return
        data = memoryview(out[0] if len(out) == 1 else b"".join(out))
        try:
            while data:
                try:
                    data = data[self._sock.send(data):]
                except self._would_block as exc:
                    # TLS retries the same bytes once the socket is ready
                    _wait(self._sock, self._tls.waits_for(exc) if self._tls else WRITE)
        except OSError:
            pass

    def read(self) -> bytes | None:
        """One received chunk: None if there is nothing to hand up, b"" once
        a live link is lost. Bytes that reach a blackholed or closed link
        fall off."""
        data = self._receive(self._sock)
        if data is None:
            return None
        if not data:
            self._drop()
        return None if self._closed or self.control.blackhole else data

    def close(self) -> None:
        """Stop the link; the gateway flushes it first. Closed while
        blackholed, it keeps its socket open and read (no FIN) until the far
        end closes it or the loop ends, as does a link the gateway abandons."""
        if not self._closed:
            self._closed = True
            if not self.control.blackhole:
                self._drop()

    def _drop(self) -> None:
        self._loop.unregister(self._sock)
        close_quietly(self._sock)


def _wait(sock: socket.socket, events: int) -> None:
    with selectors.DefaultSelector() as selector:
        selector.register(sock, events)
        selector.select()
