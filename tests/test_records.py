"""Value semantics of the plain slotted records: equality, repr, hashing,
fresh mutable defaults and ``Session._replace``."""

import pytest

from msbc.interconnect.broker import _BrokerSession
from msbc.interconnect.directory import ProviderRecord, RoutingRule, SubscriptionDirectory
from msbc.interconnect.events import Event
from msbc.interconnect.wiretable import Entry
from msbc.session import (
    DialogRejected,
    NegotiatedChannel,
    OfferReceived,
    OpenPayload,
    SendSignal,
    Session,
    SessionState,
)
from msbc.wire.types import (
    Access,
    ControlMessage,
    DeliveryReport,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
    Verb,
    WirePacket,
)

OFFER = SessionOffer(Security.PLAIN, 16384, "127.0.0.1:5070", Role.ASGW, "metering")
CHANNEL = NegotiatedChannel(Security.PLAIN, 16384, "127.0.0.1:5070")
INVITE = SignalMessage("request", "as-metering", "m2m-is", "c-1", 1, Access.RADIO, body=OFFER, txn="t-000001")

# (class, the arguments of one value, the same with one field changed)
VALUES = [
    (WirePacket, ("t-000001", 1, 2, b"x"), ("t-000001", 1, 2, b"y")),
    (DeliveryReport, ("t-000001", 1, 2, 200), ("t-000001", 1, 2, 480)),
    (ControlMessage, (Verb.PING, {"Call-ID": "c-1"}, "t-000001"), (Verb.PONG, {"Call-ID": "c-1"}, "t-000001")),
    (SessionOffer, (Security.PLAIN, 16384, "h:1", Role.LGW), (Security.SECURE, 16384, "h:1", Role.LGW)),
    (SignalMessage, ("response", "a", "b", "c", 1, Access.RADIO), ("response", "a", "b", "c", 2, Access.RADIO)),
    (NegotiatedChannel, (Security.PLAIN, 16384, "127.0.0.1:5070"), (Security.PLAIN, 4096, "127.0.0.1:5070")),
    (Session, ("gw", "c-1", Role.LGW, Access.RADIO), ("gw", "c-2", Role.LGW, Access.RADIO)),
    (SendSignal, (INVITE,), (None,)),
    (OpenPayload, (CHANNEL,), (None,)),
    (OfferReceived, (OFFER, Access.RADIO), (OFFER, Access.INTERNET)),
    (DialogRejected, (403, "X"), (404, "X")),
    (Event, (1.0, "commissioned", "c-1", "meter.a", 3), (1.0, "released", "c-1", "meter.a", 3)),
    (ProviderRecord, ("metering", "as-metering"), ("metering", "as-other")),
    (RoutingRule, ("meter.*", "metering"), ("meter.gas", "metering")),
]


@pytest.mark.parametrize("cls, args, other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_records_are_equal_exactly_when_their_fields_are(cls, args, other):
    assert cls(*args) == cls(*args)
    assert not cls(*args) != cls(*args)
    assert cls(*args) != cls(*other)


def test_a_record_of_another_type_with_equal_fields_is_unequal():
    assert ProviderRecord("metering", "as-metering") != RoutingRule("metering", "as-metering")
    assert WirePacket("t-000001", 1, 2, 200) != DeliveryReport("t-000001", 1, 2, 200)
    assert DialogRejected(403, "X") != (403, "X")


@pytest.mark.parametrize("cls, args, other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_repr_names_the_class_and_every_field(cls, args, other):
    text = repr(cls(*args))
    assert text.startswith(cls.__name__ + "(") and text.endswith(")")
    for name in cls.__slots__:
        assert f"{name}=" in text


def test_repr_reads_like_a_constructor_call():
    assert repr(WirePacket("t-000001", 1, 2, b"x")) == "WirePacket(txn='t-000001', wire=1, seq=2, payload=b'x')"
    assert repr(DialogRejected(403, "X")) == "DialogRejected(status=403, reason='X')"


HASHABLE = [v for v in VALUES if v[0] is not ControlMessage]


@pytest.mark.parametrize("cls, args, other", HASHABLE, ids=[v[0].__name__ for v in HASHABLE])
def test_value_records_hash_by_their_fields(cls, args, other):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


def test_a_control_message_is_unhashable_because_its_params_are_a_dict():
    with pytest.raises(TypeError):
        hash(ControlMessage(Verb.PING))


def test_mutable_defaults_are_fresh_per_instance():
    a, b = ControlMessage(Verb.PING), ControlMessage(Verb.PING)
    assert a.params == {} and a.params is not b.params
    assert Entry("meter.a", "metering").buffer is not Entry("meter.b", "metering").buffer
    session = Session("gw", "c-1", Role.LGW, Access.RADIO)
    s1, s2 = (_BrokerSession("c-1", session, Role.LGW, "gw", None, conn, 0.0) for conn in (1, 2))
    assert s1.allocator is not s2.allocator and s1.releasing is not s2.releasing
    d1, d2 = SubscriptionDirectory(), SubscriptionDirectory()
    for name in ("providers", "rules", "_exact", "_wildcard"):
        assert getattr(d1, name) is not getattr(d2, name)
    d1.add_provider("metering", "as-metering")
    d1.add_rule("meter.*", "metering")
    assert not d2.providers and not d2.rules and not d2._wildcard and d2._prefix_lengths == ()


def test_session_replace_returns_a_changed_copy_and_leaves_the_original():
    session = Session("gw", "c-1", Role.LGW, Access.RADIO, invite_cseq=1)
    closed = session._replace(state=SessionState.CLOSED, bye_cseq=2)
    assert session.state is SessionState.IDLE and session.bye_cseq == 0
    assert closed.state is SessionState.CLOSED and closed.bye_cseq == 2
    assert closed._replace(state=SessionState.IDLE, bye_cseq=0) == session
    with pytest.raises(TypeError):
        session._replace(no_such_field=1)
