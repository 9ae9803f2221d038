"""Wire-id allocation (ids count up and are never reissued; a released id
is quarantined until its ack) and the routing table."""

import pytest
from hypothesis import given, strategies as st

from msbc.interconnect.wiretable import End, Entry, EntryState, WireAllocator, WireExhausted, WireTable


def test_allocates_counting_up_from_one():
    a = WireAllocator()
    assert [a.allocate() for _ in range(3)] == [1, 2, 3]


def test_released_id_quarantined_until_ack_and_never_reissued():
    a = WireAllocator()
    a.allocate()  # 1
    a.allocate()  # 2
    a.start_release(1)
    assert a.quarantined == {1}
    assert a.allocate() == 3
    a.finish_release(1)
    assert not a.quarantined
    assert a.allocate() == 4  # a late packet for 1 can only find no binding
    assert a.live == {2, 3, 4}


def test_cancelled_id_is_not_reissued():
    a = WireAllocator()
    a.allocate()
    a.cancel(1)
    assert not a.live
    assert a.allocate() == 2


def test_finish_without_start_is_noop():
    a = WireAllocator()
    a.allocate()
    a.finish_release(1)
    assert 1 in a.live
    assert a.allocate() == 2


def test_exhaustion():
    a = WireAllocator(limit=2)
    a.allocate()
    a.allocate()
    with pytest.raises(WireExhausted):
        a.allocate()


@given(st.lists(st.sampled_from(["alloc", "start", "finish", "cancel"]), max_size=60))
def test_allocator_never_double_issues(ops):
    a = WireAllocator()
    issued: list[int] = []
    ever: set[int] = set()
    for op in ops:
        if op == "alloc":
            wire = a.allocate()
            assert wire not in ever  # never issued before, in any state since
            ever.add(wire)
            issued.append(wire)
        elif op == "start" and issued:
            a.start_release(issued.pop(0))
        elif op == "finish" and a.quarantined:
            a.finish_release(min(a.quarantined))
        elif op == "cancel" and issued:
            a.cancel(issued.pop())
        assert not (a.live & a.quarantined)
        assert set(issued) == a.live
        assert a.quarantined <= ever


def make_entry(ctid="d1", lgw=("L", 1), asgw=("A", 1)):
    return Entry(
        ctid=ctid,
        provider="p",
        state=EntryState.ACTIVE,
        lgw=End(*lgw),
        asgw=End(*asgw),
    )


def test_table_indexes_both_ends():
    t = WireTable()
    e = make_entry()
    t.add(e)
    assert t.lookup_end("L", 1) is e
    assert t.lookup_end("A", 1) is e
    assert t.lookup_end("L", 2) is None


def test_duplicate_ctid_rejected():
    t = WireTable()
    t.add(make_entry())
    with pytest.raises(ValueError):
        t.add(make_entry(asgw=("A", 2)))


def test_duplicate_endpoint_rejected():
    t = WireTable()
    t.add(make_entry("d1", ("L", 1), ("A", 1)))
    with pytest.raises(ValueError):
        t.add(make_entry("d2", ("L", 1), ("A", 2)))


def test_service_wire_never_indexed():
    t = WireTable()
    with pytest.raises(ValueError):
        t.add(make_entry(lgw=("L", 0)))


def test_bind_replaces_one_side():
    t = WireTable()
    e = make_entry()
    t.add(e)
    t.bind(e, "lgw", End("L2", 5))
    assert t.lookup_end("L", 1) is None
    assert t.lookup_end("L2", 5) is e
    assert t.lookup_end("A", 1) is e


def test_unbind_and_remove():
    t = WireTable()
    e = make_entry()
    t.add(e)
    gone = t.unbind(e, "asgw")
    assert gone.wire == 1 and e.asgw is None
    assert t.lookup_end("A", 1) is None
    t.remove("d1")
    assert t.by_ctid == {} and t.by_end == {}


def test_session_and_provider_queries():
    t = WireTable()
    t.add(make_entry("d1", ("L", 1), ("A", 1)))
    t.add(make_entry("d2", ("L", 2), ("A", 2)))
    t.add(make_entry("d3", ("L2", 1), ("A", 3)))
    assert {e.ctid for e in t.entries_for_session("L")} == {"d1", "d2"}
    assert {e.ctid for e in t.entries_for_session("A")} == {"d1", "d2", "d3"}
    assert {e.ctid for e in t.entries_for_provider("p")} == {"d1", "d2", "d3"}


def test_sides():
    e = make_entry()
    assert e.side_for("L").wire == 1
    assert e.side_for("nope") is None
    assert e.other_side("L") is e.asgw
    assert e.other_side("A") is e.lgw
