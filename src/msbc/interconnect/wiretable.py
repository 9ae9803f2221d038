"""Wire-id allocation and the CTID-keyed routing table.

Each session's allocator counts wire ids up from 1 and never issues one
twice (as QUIC never reuses a stream id), so a late packet for a detached
device finds no binding and is answered no-wire. A released id sits in
quarantine only until its gateway acknowledges the teardown.

The table maps a device both ways: by ctid, and by (session, wire) endpoint
for packet routing. Endpoints are injective -- one entry per (session, wire).
"""

from __future__ import annotations

from enum import Enum

from msbc.wire.types import SERVICE_WIRE


class WireExhausted(RuntimeError):
    pass


class WireAllocator:
    """Counts ids up from 1 to ``limit``, then raises ``WireExhausted``;
    a released id waits in quarantine for its teardown ack."""

    def __init__(self, limit: int = 2**32 - 1):
        self._ids = iter(range(1, limit + 1))
        self._live: set[int] = set()
        self._quarantine: set[int] = set()

    def allocate(self) -> int:
        wire = next(self._ids, None)
        if wire is None:
            raise WireExhausted("wire id space exhausted")
        self._live.add(wire)
        return wire

    def start_release(self, wire: int) -> None:
        """Move a live id into quarantine pending the teardown ack."""
        self._live.discard(wire)
        self._quarantine.add(wire)

    def finish_release(self, wire: int) -> None:
        """Ack received: the id leaves quarantine, never to be issued again."""
        self._quarantine.discard(wire)

    def cancel(self, wire: int) -> None:
        """Drop a live id that never carried traffic."""
        self._live.discard(wire)

    @property
    def live(self) -> frozenset[int]:
        return frozenset(self._live)

    @property
    def quarantined(self) -> frozenset[int]:
        return frozenset(self._quarantine)


class EntryState(Enum):
    PENDING = "pending"      # provider asked, not yet authorized
    ACTIVE = "active"
    BUFFERING = "buffering"  # provider side lost; traffic parked


class End:
    """One side of an entry: a wire on a session, with its seq counters."""

    __slots__ = ("session_id", "wire", "next_seq_in", "next_seq_out")

    def __init__(self, session_id: str, wire: int):
        self.session_id = session_id
        self.wire = wire
        self.next_seq_in = 1   # next seq we expect from this gateway
        self.next_seq_out = 1  # next seq we will send to this gateway


class Entry:
    __slots__ = ("ctid", "provider", "state", "lgw", "asgw", "buffer", "buffer_bytes")

    def __init__(
        self, ctid: str, provider: str, state: EntryState = EntryState.PENDING,
        lgw: End | None = None, asgw: End | None = None,
    ):
        self.ctid = ctid
        self.provider = provider
        self.state = state
        self.lgw = lgw
        self.asgw = asgw
        self.buffer: list = []  # (source session id, packet), parked in order
        self.buffer_bytes = 0

    def side_for(self, session_id: str) -> End | None:
        if self.lgw is not None and self.lgw.session_id == session_id:
            return self.lgw
        if self.asgw is not None and self.asgw.session_id == session_id:
            return self.asgw
        return None

    def other_side(self, session_id: str) -> End | None:
        if self.lgw is not None and self.lgw.session_id == session_id:
            return self.asgw
        return self.lgw


class WireTable:
    def __init__(self):
        self.by_ctid: dict[str, Entry] = {}
        self.by_end: dict[tuple[str, int], Entry] = {}

    def add(self, entry: Entry) -> None:
        if entry.ctid in self.by_ctid:
            raise ValueError(f"duplicate ctid {entry.ctid}")
        self.by_ctid[entry.ctid] = entry
        for end in (entry.lgw, entry.asgw):
            if end is not None:
                self._index(entry, end)

    def bind(self, entry: Entry, side: str, end: End) -> None:
        """Attach or replace one side of an entry, keeping the index honest."""
        old = getattr(entry, side)
        if old is not None:
            self.by_end.pop((old.session_id, old.wire), None)
        setattr(entry, side, end)
        self._index(entry, end)

    def unbind(self, entry: Entry, side: str) -> End | None:
        old = getattr(entry, side)
        if old is not None:
            self.by_end.pop((old.session_id, old.wire), None)
            setattr(entry, side, None)
        return old

    def remove(self, ctid: str) -> Entry | None:
        entry = self.by_ctid.pop(ctid, None)
        if entry is None:
            return None
        for end in (entry.lgw, entry.asgw):
            if end is not None:
                self.by_end.pop((end.session_id, end.wire), None)
        return entry

    def lookup_end(self, session_id: str, wire: int) -> Entry | None:
        return self.by_end.get((session_id, wire))

    def entries_for_session(self, session_id: str) -> list[Entry]:
        seen: list[Entry] = []
        for entry in self.by_ctid.values():
            if entry.side_for(session_id) is not None:
                seen.append(entry)
        return seen

    def entries_for_provider(self, provider: str) -> list[Entry]:
        return [e for e in self.by_ctid.values() if e.provider == provider]

    def _index(self, entry: Entry, end: End) -> None:
        if end.wire == SERVICE_WIRE:
            raise ValueError("service wire cannot join the table")
        key = (end.session_id, end.wire)
        if key in self.by_end and self.by_end[key] is not entry:
            raise ValueError(f"endpoint {key} already routed")
        self.by_end[key] = entry
