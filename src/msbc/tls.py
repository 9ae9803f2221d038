"""The TLS counterparts of ``msbc.loop``'s socket helpers, and the only
module that imports ``ssl`` at load. The broker imports it at its first TLS
accept and a gateway when it dials a secure link, so a process with only
plain peers never loads ``ssl``."""

from __future__ import annotations

import ssl

from msbc.loop import READ, RECV_SIZE, WRITE

# A non-blocking TLS call that has to wait for the socket; OSError otherwise.
WOULD_BLOCK = (BlockingIOError, ssl.SSLWantReadError, ssl.SSLWantWriteError)


def receive(sock: ssl.SSLSocket) -> bytes | None:
    """``msbc.loop.receive`` plus what TLS has already decrypted, which the
    selector cannot see."""
    try:
        data = sock.recv(RECV_SIZE)
        while data and sock.pending():
            data += sock.recv(sock.pending())
    except WOULD_BLOCK:
        return None
    except OSError:
        return b""
    return data


def waits_for(exc: OSError) -> int:
    """The event a would-block TLS call waits for; a write may need a read."""
    return READ if isinstance(exc, ssl.SSLWantReadError) else WRITE
