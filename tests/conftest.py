"""Test-wide settings: every Hypothesis property draws the same examples on
every run and has no per-example deadline, so a loaded host cannot make the
suite fail by chance. A test's own @settings still sets its example count.

encode_frame checks nothing: the broker and the gateway SDK build their
frames from decoded fields, their own counters and values checked where
they entered. So in every test each frame those two encode is decoded
again and must come back equal to its record; one built from an unchecked
value fails the test and is never written."""

import pytest
from hypothesis import settings

from msbc.gateway import link
from msbc.interconnect import broker
from msbc.wire import ProtocolViolation, decode_stream, encode_frame

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def round_trip_guard(monkeypatch):
    broken = []  # an encoding thread may swallow the raise; the test still fails

    def encode_checked(frame):
        data = encode_frame(frame)
        try:
            intact = decode_stream(data) == ([frame], len(data))
        except ProtocolViolation:
            intact = False
        if not intact:
            broken.append(frame)
            raise AssertionError(f"encoded frame does not decode to itself: {frame!r}")
        return data

    monkeypatch.setattr(broker, "encode_frame", encode_checked)
    monkeypatch.setattr(link, "encode_frame", encode_checked)
    yield
    assert not broken, broken
