"""One ``selectors`` event loop on one thread, shared by the broker server
and every gateway.

Each pass calls the handler of every ready socket with its event mask, runs
the tick when it is due, then the owner's ``on_pass``. Ticks come from the
``select`` timeout at absolute deadlines, so wakeup jitter does not pile up
into drift and erode a watchdog's one-tick slack; after a stall the next
tick is one interval away (skip, don't burst). A socketpair wakes the loop
from other threads. The loop closes every socket still registered with it
when it ends, or when it is stopped without having started.
"""

from __future__ import annotations

import logging
import selectors
import socket
import ssl
import threading
import time
from typing import Callable

log = logging.getLogger("msbc.loop")

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE
# A non-blocking call that has to wait for the socket; OSError otherwise.
WOULD_BLOCK = (BlockingIOError, ssl.SSLWantReadError, ssl.SSLWantWriteError)
_RECV_SIZE = 65536


def now_ms() -> float:
    return time.monotonic() * 1000.0


def receive(sock: socket.socket) -> bytes | None:
    """One chunk from a readable socket, plus what TLS has already decrypted
    (the selector cannot see it). None if nothing is ready yet; b"" at EOF
    or on a failed socket."""
    try:
        data = sock.recv(_RECV_SIZE)
        while data and isinstance(sock, ssl.SSLSocket) and sock.pending():
            data += sock.recv(sock.pending())
    except WOULD_BLOCK:
        return None
    except OSError:
        return b""
    return data


def close_quietly(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class EventLoop:
    """``selector`` maps each socket to its handler; ``on_tick(now_ms)``
    runs every ``tick_ms``. Both run on the loop's thread."""

    def __init__(
        self,
        name: str,
        tick_ms: float,
        on_tick: Callable[[float], None],
        on_pass: Callable[[], None],
    ):
        self.name = name
        self.selector = selectors.DefaultSelector()
        self._interval = tick_ms / 1000.0
        self._on_tick = on_tick
        self._on_pass = on_pass
        wake_r, self._wake_w = socket.socketpair()
        wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(wake_r, READ, lambda mask: wake_r.recv(4096))
        self._tick_now = False
        self._stopping = False
        self._thread: threading.Thread | None = None

    def unregister(self, sock: socket.socket) -> None:
        """Stop watching ``sock``; a no-op once it is gone or the loop has ended."""
        try:
            self.selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True, name=self.name)
        self._thread.start()

    def in_loop(self) -> bool:
        return threading.current_thread() is self._thread

    def tick_soon(self) -> None:
        """Run the tick on the next pass; safe from any thread."""
        self._tick_now = True
        self._wake()

    def stop(self) -> None:
        """End the loop after its current pass. From another thread this
        also joins it; the loop's own thread cannot wait for itself. A loop
        that never started closes its sockets here."""
        was_stopping, self._stopping = self._stopping, True
        if self._thread is None:
            if not was_stopping:
                self._close()
        elif not self.in_loop():
            self._wake()
            self._thread.join(timeout=5)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a wake is already pending, or the loop has ended
            pass

    def _run(self) -> None:
        interval = self._interval
        deadline = time.monotonic()
        try:
            while not self._stopping:
                timeout = 0.0 if self._tick_now else max(0.0, deadline - time.monotonic())
                for key, mask in self.selector.select(timeout):
                    self._guarded(key.data, mask)
                now = time.monotonic()
                if self._tick_now or now >= deadline:
                    self._tick_now = False
                    self._guarded(self._on_tick, now * 1000.0)
                    if now >= deadline:
                        deadline += interval
                        if deadline < now:  # stalled; skip, don't burst
                            deadline = now + interval
                self._guarded(self._on_pass)
        finally:
            self._close()

    def _close(self) -> None:
        for key in list(self.selector.get_map().values()):
            close_quietly(key.fileobj)
        self.selector.close()
        self._wake_w.close()

    def _guarded(self, handler, *args) -> None:
        try:
            handler(*args)
        except Exception:
            log.exception("%s event loop: %r failed", self.name, handler)
