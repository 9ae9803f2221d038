"""One ``selectors`` event loop on one thread, shared by the broker server
and every gateway.

Each pass calls the handler of every ready socket with its event mask, runs
the tick once the owner's ``next_deadline()`` (``now_ms`` clock, or None)
has passed, then the owner's ``on_pass``; ``select`` sleeps until that
deadline. A deadline may come early, never late, and ``on_tick(now)``
leaves the next one later than ``now``, so the loop cannot spin. A
socketpair wakes the loop from other threads, as when one moves the
deadline earlier. The loop closes every socket still registered with it
when it ends, or when it is stopped without having started. Its socket
helpers are for plain sockets; ``msbc.tls`` has the TLS ones.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from typing import Callable

log = logging.getLogger("msbc.loop")

READ = selectors.EVENT_READ
WRITE = selectors.EVENT_WRITE
# A non-blocking call on a plain socket that has to wait; OSError otherwise.
WOULD_BLOCK = BlockingIOError
RECV_SIZE = 65536


def now_ms() -> float:
    return time.monotonic() * 1000.0


def receive(sock: socket.socket) -> bytes | None:
    """One chunk from a readable plain socket. None if nothing is ready yet;
    b"" at EOF or on a failed socket."""
    try:
        return sock.recv(RECV_SIZE)
    except WOULD_BLOCK:
        return None
    except OSError:
        return b""


def close_quietly(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class EventLoop:
    """``selector`` maps each socket to its handler; ``on_tick(now_ms)``
    runs once ``next_deadline()`` has passed, all on the loop's thread."""

    def __init__(
        self,
        name: str,
        next_deadline: Callable[[], float | None],
        on_tick: Callable[[float], None],
        on_pass: Callable[[], None],
    ):
        self.name = name
        self.selector = selectors.DefaultSelector()
        self._next_deadline = next_deadline
        self._on_tick = on_tick
        self._on_pass = on_pass
        wake_r, self._wake_w = socket.socketpair()
        wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(wake_r, READ, lambda mask: wake_r.recv(4096))
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

    def stop(self) -> None:
        """End the loop after its current pass. From another thread this
        also joins it; the loop's own thread cannot wait for itself. A loop
        that never started closes its sockets here."""
        was_stopping, self._stopping = self._stopping, True
        if self._thread is None:
            if not was_stopping:
                self._close()
        elif not self.in_loop():
            self.wake()
            self._thread.join(timeout=5)

    def wake(self) -> None:
        """End the current ``select`` (the deadline may be earlier); safe from any thread."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a wake is already pending, or the loop has ended
            pass

    def _run(self) -> None:
        try:
            while not self._stopping:
                due = self._guarded(self._next_deadline)
                timeout = None if due is None else max(0.0, due / 1000.0 - time.monotonic())
                for key, mask in self.selector.select(timeout):
                    self._guarded(key.data, mask)
                if due is not None and (now := time.monotonic() * 1000.0) >= due:
                    self._guarded(self._on_tick, now)
                self._guarded(self._on_pass)
        finally:
            self._close()

    def _close(self) -> None:
        for key in list(self.selector.get_map().values()):
            close_quietly(key.fileobj)
        self.selector.close()
        self._wake_w.close()

    def _guarded(self, handler, *args):
        try:
            return handler(*args)
        except Exception:  # logged; the result is None
            log.exception("%s event loop: %r failed", self.name, handler)
