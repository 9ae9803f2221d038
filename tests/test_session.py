"""Dialog state machine: offer/answer walks, teardown, and an exhaustive
hand-checked transition table covering every (state, stimulus) pair."""

import pytest
from hypothesis import given, strategies as st

from msbc.session import (
    DialogRejected,
    InvalidConfig,
    Keepalive,
    OfferReceived,
    OpenPayload,
    SendSignal,
    Session,
    SessionState,
    Unacceptable,
    accept,
    answer_offer,
    liveness,
    make_bye,
    make_invite,
    on_signal,
    receive_invite,
    reject,
)
from msbc.wire.types import (
    Access,
    Method,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
)

CALL = "c-fixed"


def offer(role=Role.LGW, provider=None, max_frame=16384, access_security=Security.PLAIN):
    return SessionOffer(
        security=access_security,
        max_frame_size=max_frame,
        payload_endpoint="127.0.0.1:7001",
        role=role,
        provider=provider,
    )


def answer_for(sess, max_frame=4096):
    return SessionOffer(
        security=Security.PLAIN,
        max_frame_size=max_frame,
        payload_endpoint="127.0.0.1:7002",
        role=sess.role,
        provider=sess.provider,
    )


def response(sess, status, cseq, body=None, call_id=None):
    return SignalMessage(
        kind="response",
        status=status,
        reason="X",
        from_id="m2m-is",
        to_id=sess.subscriber,
        call_id=call_id or sess.call_id,
        cseq=cseq,
        access=Access.RADIO,
        body=body,
        txn="t00000099",
    )


def request(sess, method, cseq, body=None, call_id=None):
    return SignalMessage(
        kind="request",
        method=method,
        from_id="peer-gw",
        to_id=sess.subscriber,
        call_id=call_id or sess.call_id,
        cseq=cseq,
        access=Access.RADIO,
        body=body,
        txn="t00000098",
    )


# -- construction ------------------------------------------------------------


def test_make_invite_shape():
    sess, msg = make_invite("home-gw", Role.LGW, None, Access.RADIO, offer(), "t00000001")
    assert sess.state is SessionState.INVITE_SENT
    assert msg.method is Method.INVITE and msg.cseq == 1
    assert msg.call_id == sess.call_id and msg.body is sess.offered


def test_make_invite_fresh_call_ids():
    ids = {make_invite("g", Role.LGW, None, Access.RADIO, offer(), "t00000001")[1].call_id for _ in range(50)}
    assert len(ids) == 50


def test_asgw_requires_provider():
    with pytest.raises(InvalidConfig):
        make_invite("as-gw", Role.ASGW, None, Access.INTERNET, offer(role=Role.ASGW, provider="metering"), "t1")


def test_offer_must_match_session_role():
    with pytest.raises(InvalidConfig):
        make_invite("g", Role.LGW, None, Access.RADIO, offer(role=Role.ASGW, provider="p"), "t1")


# -- negotiation -------------------------------------------------------------


@pytest.mark.parametrize(
    "offer_access,local_access,expected",
    [
        (Access.RADIO, Access.RADIO, Security.PLAIN),
        (Access.RADIO, Access.INTERNET, Security.SECURE),
        (Access.INTERNET, Access.RADIO, Security.SECURE),
        (Access.INTERNET, Access.INTERNET, Security.SECURE),
    ],
)
def test_security_forced_by_any_internet_leg(offer_access, local_access, expected):
    ans = answer_offer(offer(), offer_access, local_access, 8192, "127.0.0.1:9000")
    assert ans.security is expected


def test_frame_size_is_minimum_of_both():
    assert answer_offer(offer(max_frame=16384), Access.RADIO, Access.RADIO, 4096, "h:1").max_frame_size == 4096
    assert answer_offer(offer(max_frame=128), Access.RADIO, Access.RADIO, 65536, "h:1").max_frame_size == 128


def test_minimum_frame_size_boundary():
    assert answer_offer(offer(max_frame=64), Access.RADIO, Access.RADIO, 64, "h:1").max_frame_size == 64
    with pytest.raises(Unacceptable):
        answer_offer(offer(max_frame=64), Access.RADIO, Access.RADIO, 63, "h:1")


@given(a=st.integers(64, 1 << 20), b=st.integers(64, 1 << 20))
def test_negotiated_size_never_exceeds_either_side(a, b):
    ans = answer_offer(offer(max_frame=a), Access.RADIO, Access.RADIO, b, "h:1")
    assert ans.max_frame_size == min(a, b)


# -- happy-path walks --------------------------------------------------------


def established_pair():
    """Run a full INVITE/200/ACK exchange; returns (caller, answerer) sessions."""
    caller, invite = make_invite("home-gw", Role.LGW, None, Access.RADIO, offer(), "t00000001")
    answerer = receive_invite(invite)
    ans = answer_offer(invite.body, invite.access, Access.RADIO, 16384, "127.0.0.1:7002")
    answerer, ok = accept(answerer, ans, "t00000002", Access.RADIO)
    caller, actions = on_signal(caller, ok, txn="t00000003")
    acks = [a.msg for a in actions if isinstance(a, SendSignal)]
    answerer, _ = on_signal(answerer, acks[0])
    return caller, answerer


def test_caller_walk_reaches_established():
    caller, answerer = established_pair()
    assert caller.state is SessionState.ESTABLISHED
    assert caller.negotiated is not None
    assert caller.negotiated.payload_endpoint == "127.0.0.1:7002"


def test_answerer_gets_negotiated_only_after_ack():
    caller, invite = make_invite("home-gw", Role.LGW, None, Access.RADIO, offer(), "t1")
    answerer = receive_invite(invite)
    ans = answer_for(answerer)
    answerer, _ = accept(answerer, ans, "t2", Access.RADIO)
    assert answerer.state is SessionState.INVITE_RECEIVED and answerer.negotiated is None
    answerer, _ = on_signal(answerer, request(answerer, Method.ACK, 1))
    assert answerer.state is SessionState.ESTABLISHED
    assert answerer.negotiated.max_frame_size == ans.max_frame_size


def test_ack_and_open_payload_emitted_on_2xx():
    caller, invite = make_invite("g", Role.LGW, None, Access.RADIO, offer(), "t1")
    caller, actions = on_signal(caller, response(caller, 200, 1, body=answer_for(caller)))
    kinds = [type(a) for a in actions]
    assert kinds == [SendSignal, OpenPayload]
    assert actions[0].msg.method is Method.ACK and actions[0].msg.cseq == 1


def test_reject_closes_the_answerer():
    _, invite = make_invite("g", Role.ASGW, "metering", Access.INTERNET, offer(Role.ASGW, "metering"), "t1")
    answerer = receive_invite(invite)
    answerer, msg = reject(answerer, 403, "Forbidden", "t2", Access.RADIO)
    assert answerer.state is SessionState.CLOSED
    assert msg.status == 403 and msg.cseq == 1


def test_non_2xx_rejects_the_caller():
    caller, _ = make_invite("g", Role.LGW, None, Access.RADIO, offer(), "t1")
    caller, actions = on_signal(caller, response(caller, 403, 1))
    assert caller.state is SessionState.CLOSED
    assert actions == [DialogRejected(403, "X")]


def test_answer_without_body_is_unusable():
    caller, _ = make_invite("g", Role.LGW, None, Access.RADIO, offer(), "t1")
    caller, actions = on_signal(caller, response(caller, 200, 1))
    assert caller.state is SessionState.CLOSED
    assert isinstance(actions[0], DialogRejected)


def test_answer_exceeding_offer_is_unusable():
    caller, _ = make_invite("g", Role.LGW, None, Access.RADIO, offer(max_frame=4096), "t1")
    bad = answer_for(caller, max_frame=8192)
    caller, actions = on_signal(caller, response(caller, 200, 1, body=bad))
    assert caller.state is SessionState.CLOSED


def test_provisional_response_ignored():
    caller, _ = make_invite("g", Role.LGW, None, Access.RADIO, offer(), "t1")
    caller, actions = on_signal(caller, response(caller, 100, 1))
    assert caller.state is SessionState.INVITE_SENT and actions == []


# -- teardown ----------------------------------------------------------------


def test_bye_walk_both_sides():
    caller, answerer = established_pair()
    caller, bye = make_bye(caller, "t00000010")
    assert caller.state is SessionState.CLOSING and caller.negotiated is None
    answerer, actions = on_signal(answerer, bye)
    assert answerer.state is SessionState.CLOSED and answerer.negotiated is None
    reply = actions[0].msg
    assert reply.status == 200 and reply.cseq == bye.cseq
    caller, actions = on_signal(caller, reply)
    assert caller.state is SessionState.CLOSED and actions == []


def test_error_response_to_bye_still_closes():
    caller, _ = established_pair()
    caller, bye = make_bye(caller, "t1")
    caller, _ = on_signal(caller, response(caller, 481, bye.cseq))
    assert caller.state is SessionState.CLOSED


def test_closed_still_answers_bye():
    caller, answerer = established_pair()
    answerer, _ = on_signal(answerer, request(answerer, Method.BYE, 2))
    answerer, actions = on_signal(answerer, request(answerer, Method.BYE, 2))
    assert answerer.state is SessionState.CLOSED
    assert actions[0].msg.status == 200


# -- out-of-dialog -----------------------------------------------------------


def test_unknown_call_id_request_draws_481():
    caller, _ = established_pair()
    caller2, actions = on_signal(caller, request(caller, Method.BYE, 9, call_id="c-other"))
    assert caller2.state is caller.state and caller2.negotiated == caller.negotiated
    assert actions[0].msg.status == 481 and actions[0].msg.call_id == "c-other"


def test_unknown_call_id_response_dropped():
    caller, _ = established_pair()
    caller2, actions = on_signal(caller, response(caller, 200, 1, call_id="c-other"))
    assert caller2 == caller and actions == []


# -- liveness ----------------------------------------------------------------


@pytest.mark.parametrize(
    "gap,expected",
    [
        (0, Keepalive.OK),
        (199, Keepalive.OK),
        (200, Keepalive.SEND_PING),
        (599, Keepalive.SEND_PING),
        (600, Keepalive.EXPIRED),
        (10_000, Keepalive.EXPIRED),
    ],
)
def test_liveness_boundaries(gap, expected):
    assert liveness(1000.0, 1000.0 + gap, 200, 3) is expected


# -- exhaustive transition table --------------------------------------------
#
# Every (state, stimulus) pair, checked against a table written out by hand.
# Stimuli are canonical in-dialog messages plus one out-of-dialog request and
# response; expected actions are encoded compactly:
#   s:<code> = SendSignal response, s:<METHOD> = SendSignal request,
#   open = OpenPayload, offer = OfferReceived, rej = DialogRejected.


def _fixture(name):
    idle = Session(subscriber="gw", call_id=CALL, role=Role.LGW, access=Access.RADIO)
    if name == "idle":
        return idle
    sent, invite = make_invite("gw", Role.LGW, None, Access.RADIO, offer(), "t1", call_id=CALL)
    if name == "invite_sent":
        return sent
    rcvd = receive_invite(invite)
    if name == "invite_received":
        return rcvd
    answered, _ = accept(rcvd, answer_for(rcvd), "t2", Access.RADIO)
    if name == "invite_received_answered":
        return answered
    est, _ = on_signal(sent, response(sent, 200, 1, body=answer_for(sent)))
    if name == "established":
        return est
    if name == "closing":
        return make_bye(est, "t3")[0]
    closed, _ = on_signal(est, request(est, Method.BYE, 2))
    assert name == "closed"
    return closed


def _stimulus(sess, name):
    if name == "invite":
        return request(sess, Method.INVITE, 1, body=offer())
    if name == "ack":
        return request(sess, Method.ACK, sess.invite_cseq or 1)
    if name == "bye":
        return request(sess, Method.BYE, 7)
    if name == "r2xx_invite":
        return response(sess, 200, sess.invite_cseq or 1, body=answer_for(sess))
    if name == "r3xx_invite":
        return response(sess, 486, sess.invite_cseq or 1)
    if name == "r1xx":
        return response(sess, 100, sess.invite_cseq or 1)
    if name == "r2xx_bye":
        return response(sess, 200, sess.bye_cseq or 2)
    if name == "ood_request":
        return request(sess, Method.INVITE, 5, body=offer(), call_id="c-elsewhere")
    assert name == "ood_response"
    return response(sess, 200, 5, call_id="c-elsewhere")


def _encode(action):
    if isinstance(action, SendSignal):
        tag = action.msg.status if action.msg.kind == "response" else action.msg.method.value
        return f"s:{tag}"
    if isinstance(action, OpenPayload):
        return "open"
    if isinstance(action, OfferReceived):
        return "offer"
    assert isinstance(action, DialogRejected)
    return "rej"


S = SessionState
TABLE = {
    # state                    stimulus        -> (next state, actions)
    ("idle", "invite"): (S.INVITE_RECEIVED, ["offer"]),
    ("idle", "ack"): (S.IDLE, []),
    ("idle", "bye"): (S.CLOSED, ["s:200"]),
    ("idle", "r2xx_invite"): (S.IDLE, []),
    ("idle", "r3xx_invite"): (S.IDLE, []),
    ("idle", "r1xx"): (S.IDLE, []),
    ("idle", "r2xx_bye"): (S.IDLE, []),
    ("idle", "ood_request"): (S.IDLE, ["s:481"]),
    ("idle", "ood_response"): (S.IDLE, []),
    ("invite_sent", "invite"): (S.INVITE_SENT, []),
    ("invite_sent", "ack"): (S.INVITE_SENT, []),
    ("invite_sent", "bye"): (S.CLOSED, ["s:200"]),
    ("invite_sent", "r2xx_invite"): (S.ESTABLISHED, ["s:ACK", "open"]),
    ("invite_sent", "r3xx_invite"): (S.CLOSED, ["rej"]),
    ("invite_sent", "r1xx"): (S.INVITE_SENT, []),
    ("invite_sent", "r2xx_bye"): (S.INVITE_SENT, []),
    ("invite_sent", "ood_request"): (S.INVITE_SENT, ["s:481"]),
    ("invite_sent", "ood_response"): (S.INVITE_SENT, []),
    ("invite_received", "invite"): (S.INVITE_RECEIVED, []),
    ("invite_received", "ack"): (S.INVITE_RECEIVED, []),
    ("invite_received", "bye"): (S.CLOSED, ["s:200"]),
    ("invite_received", "r2xx_invite"): (S.INVITE_RECEIVED, []),
    ("invite_received", "r3xx_invite"): (S.INVITE_RECEIVED, []),
    ("invite_received", "r1xx"): (S.INVITE_RECEIVED, []),
    ("invite_received", "r2xx_bye"): (S.INVITE_RECEIVED, []),
    ("invite_received", "ood_request"): (S.INVITE_RECEIVED, ["s:481"]),
    ("invite_received", "ood_response"): (S.INVITE_RECEIVED, []),
    ("invite_received_answered", "invite"): (S.INVITE_RECEIVED, []),
    ("invite_received_answered", "ack"): (S.ESTABLISHED, []),
    ("invite_received_answered", "bye"): (S.CLOSED, ["s:200"]),
    ("invite_received_answered", "r2xx_invite"): (S.INVITE_RECEIVED, []),
    ("invite_received_answered", "r3xx_invite"): (S.INVITE_RECEIVED, []),
    ("invite_received_answered", "r1xx"): (S.INVITE_RECEIVED, []),
    ("invite_received_answered", "r2xx_bye"): (S.INVITE_RECEIVED, []),
    ("invite_received_answered", "ood_request"): (S.INVITE_RECEIVED, ["s:481"]),
    ("invite_received_answered", "ood_response"): (S.INVITE_RECEIVED, []),
    ("established", "invite"): (S.ESTABLISHED, ["s:481"]),
    ("established", "ack"): (S.ESTABLISHED, []),
    ("established", "bye"): (S.CLOSED, ["s:200"]),
    ("established", "r2xx_invite"): (S.ESTABLISHED, []),
    ("established", "r3xx_invite"): (S.ESTABLISHED, []),
    ("established", "r1xx"): (S.ESTABLISHED, []),
    ("established", "r2xx_bye"): (S.ESTABLISHED, []),
    ("established", "ood_request"): (S.ESTABLISHED, ["s:481"]),
    ("established", "ood_response"): (S.ESTABLISHED, []),
    ("closing", "invite"): (S.CLOSING, ["s:481"]),
    ("closing", "ack"): (S.CLOSING, []),
    ("closing", "bye"): (S.CLOSED, ["s:200"]),
    ("closing", "r2xx_invite"): (S.CLOSING, []),
    ("closing", "r3xx_invite"): (S.CLOSING, []),
    ("closing", "r1xx"): (S.CLOSING, []),
    ("closing", "r2xx_bye"): (S.CLOSED, []),
    ("closing", "ood_request"): (S.CLOSING, ["s:481"]),
    ("closing", "ood_response"): (S.CLOSING, []),
    ("closed", "invite"): (S.CLOSED, ["s:481"]),
    ("closed", "ack"): (S.CLOSED, []),
    ("closed", "bye"): (S.CLOSED, ["s:200"]),
    ("closed", "r2xx_invite"): (S.CLOSED, []),
    ("closed", "r3xx_invite"): (S.CLOSED, []),
    ("closed", "r1xx"): (S.CLOSED, []),
    ("closed", "r2xx_bye"): (S.CLOSED, []),
    ("closed", "ood_request"): (S.CLOSED, ["s:481"]),
    ("closed", "ood_response"): (S.CLOSED, []),
}

FIXTURES = [
    "idle",
    "invite_sent",
    "invite_received",
    "invite_received_answered",
    "established",
    "closing",
    "closed",
]
STIMULI = [
    "invite",
    "ack",
    "bye",
    "r2xx_invite",
    "r3xx_invite",
    "r1xx",
    "r2xx_bye",
    "ood_request",
    "ood_response",
]


def test_table_is_total():
    assert set(TABLE) == {(f, s) for f in FIXTURES for s in STIMULI}


@pytest.mark.parametrize("fixture,stimulus", sorted(TABLE))
def test_transition_matches_table(fixture, stimulus):
    sess = _fixture(fixture)
    msg = _stimulus(sess, stimulus)
    new, actions = on_signal(sess, msg)
    want_state, want_actions = TABLE[(fixture, stimulus)]
    assert new.state is want_state
    assert [_encode(a) for a in actions] == want_actions
    # A usable payload channel exists exactly while the dialog is established.
    assert (new.negotiated is not None) == (new.state is S.ESTABLISHED)


@given(
    start=st.sampled_from(FIXTURES),
    steps=st.lists(st.sampled_from(STIMULI), max_size=12),
)
def test_random_walks_never_crash(start, steps):
    sess = _fixture(start)
    for name in steps:
        sess, _ = on_signal(sess, _stimulus(sess, name))
        assert (sess.negotiated is not None) == (sess.state is S.ESTABLISHED)


def test_closed_is_absorbing():
    sess = _fixture("closed")
    for name in STIMULI:
        sess, _ = on_signal(sess, _stimulus(sess, name))
        assert sess.state is S.CLOSED
