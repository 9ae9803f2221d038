"""The broker's event history: a bounded ring with exact per-kind counts."""

import threading
import time

from msbc.interconnect.events import HISTORY, Event, EventLog


def _fill(log, n, kind="tick", ctid="dev.1"):
    for i in range(n):
        log.append(Event(float(i), kind, ctid=ctid))


def test_history_is_bounded_and_counts_stay_exact():
    sunk = []
    log = EventLog(sink=sunk.append)
    _fill(log, 10, kind="first", ctid="dev.0")
    _fill(log, HISTORY + 100)
    assert len(log.snapshot()) == HISTORY
    assert log.snapshot()[-1].ts_ms == HISTORY + 99
    assert log.count("tick") == HISTORY + 100
    assert log.count("first") == 10  # none retained, all counted
    assert log.count("first", "dev.0") == 0  # a ctid filter reads the ring
    assert log.count("tick", "dev.1") == HISTORY
    assert len(sunk) == HISTORY + 110  # the sink sees every event


def test_wait_for_finds_an_event_appended_after_an_overflow():
    log = EventLog()
    _fill(log, HISTORY + 1)
    found = []
    waiter = threading.Thread(
        target=lambda: found.append(log.wait_for(lambda e: e.kind == "late", timeout=5.0))
    )
    waiter.start()
    log.append(Event(0.0, "late"))
    waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    assert found[0] is not None and found[0].kind == "late"


def test_wait_for_sees_an_event_the_ring_dropped_before_it_woke():
    log = EventLog()
    found = []
    waiter = threading.Thread(
        target=lambda: found.append(log.wait_for(lambda e: e.kind == "wanted", timeout=5.0))
    )
    waiter.start()
    deadline = time.monotonic() + 5.0
    while not log._waiters and time.monotonic() < deadline:
        time.sleep(0.001)  # until the waiter has scanned the ring and sleeps
    # Holding the log's lock keeps the waiter asleep while the wanted event
    # and then a whole ring of others arrive.
    with log._cond:
        log.append(Event(0.0, "wanted"))
        _fill(log, HISTORY + 1)
    waiter.join(timeout=10.0)
    assert not waiter.is_alive()
    assert found[0] is not None and found[0].kind == "wanted"
    assert log.count("wanted") == 1 and log.snapshot()[0].kind != "wanted"
    assert not log._waiters


def test_wait_for_times_out_without_a_match():
    log = EventLog()
    _fill(log, 3)
    assert log.wait_for(lambda e: e.kind == "never", timeout=0.05) is None
    assert not log._waiters
