"""Bounded event history shared between the broker thread and observers.

The log keeps the last HISTORY events, an exact count of every kind ever
appended, and hands each event to an optional sink as it is appended, so a
long-running broker's memory does not grow with its signalling.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Callable

from msbc.record import Record

HISTORY = 4096  # events retained for snapshot(), count(kind, ctid) and wait_for


class Event(Record):
    __slots__ = ("ts_ms", "kind", "session", "ctid", "wire", "detail")

    def __init__(
        self, ts_ms: float, kind: str, session: str = "", ctid: str = "", wire: int = -1, detail: str = ""
    ):
        self.ts_ms = ts_ms
        self.kind = kind
        self.session = session
        self.ctid = ctid
        self.wire = wire
        self.detail = detail

    def format_line(self) -> str:
        wire = str(self.wire) if self.wire >= 0 else "-"
        parts = [f"{self.ts_ms:.1f}", self.kind, self.session or "-", self.ctid or "-", wire]
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class EventLog:
    """Threadsafe ring of recent events; observers can block until a
    matching event appears."""

    def __init__(self, sink: Callable[[Event], None] | None = None):
        self._events: deque[Event] = deque(maxlen=HISTORY)
        self._kinds: Counter[str] = Counter()
        # One queue per blocked wait_for (keyed by its id), holding every
        # event appended since it scanned the ring, so none is missed when
        # the ring wraps before the waiter wakes.
        self._waiters: dict[int, deque[Event]] = {}
        self._cond = threading.Condition()
        self._sink = sink

    def append(self, event: Event) -> None:
        with self._cond:
            self._events.append(event)
            self._kinds[event.kind] += 1
            if self._waiters:
                for waiter in self._waiters.values():
                    waiter.append(event)
                self._cond.notify_all()
        if self._sink is not None:
            self._sink(event)

    def snapshot(self) -> list[Event]:
        """The retained events, oldest first."""
        with self._cond:
            return list(self._events)

    def count(self, kind: str, ctid: str | None = None) -> int:
        """Events of a kind ever appended; with a ctid, among those retained."""
        with self._cond:
            if ctid is None:
                return self._kinds[kind]
            return sum(1 for e in self._events if e.kind == kind and e.ctid == ctid)

    def wait_for(
        self,
        predicate: Callable[[Event], bool],
        timeout: float = 5.0,
    ) -> Event | None:
        """Block until a retained or newly appended event satisfies the
        predicate."""
        deadline = time.monotonic() + timeout
        with self._cond:
            for event in self._events:
                if predicate(event):
                    return event
            arrived: deque[Event] = deque()
            self._waiters[id(arrived)] = arrived
            try:
                while True:
                    while arrived:
                        event = arrived.popleft()
                        if predicate(event):
                            return event
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
            finally:
                del self._waiters[id(arrived)]
