"""Signaling state machine for gateway<->broker sessions.

A dialog runs INVITE -> 200 -> ACK to establish, BYE -> 200 to tear down.
The INVITE carries the payload-channel offer; the 200 carries the answer.
Transitions are pure: `on_signal` maps (session, message) to a new
session plus a list of actions for the owning transport to perform, so the
machine can be replayed deterministically in tests.

Channel security is decided by access type alone: any side connecting over
the open internet forces a secure payload channel, while radio accesses
ride the carrier's own encryption and stay plain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from enum import Enum

from msbc.wire.types import (
    Access,
    InvalidFrame,
    Method,
    MIN_FRAME_SIZE,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
)


class InvalidConfig(ValueError):
    """Session parameters violate a role requirement."""


class Unacceptable(ValueError):
    """Offer negotiation cannot produce a usable channel."""


class SessionState(Enum):
    IDLE = "Idle"
    INVITE_SENT = "InviteSent"
    INVITE_RECEIVED = "InviteReceived"
    ESTABLISHED = "Established"
    CLOSING = "Closing"
    CLOSED = "Closed"


class Keepalive(Enum):
    OK = "ok"
    SEND_PING = "send_ping"
    EXPIRED = "expired"


@dataclass(frozen=True)
class NegotiatedChannel:
    security: Security
    max_frame_size: int
    payload_endpoint: str


@dataclass(frozen=True)
class Session:
    """One signaling dialog; immutable, advanced by the operations below."""

    subscriber: str
    call_id: str
    role: Role
    access: Access
    provider: str | None = None
    state: SessionState = SessionState.IDLE
    negotiated: NegotiatedChannel | None = None
    remote_endpoint: str = ""
    peer_access: Access | None = None
    offered: SessionOffer | None = None
    pending_answer: SessionOffer | None = None
    answered: bool = False
    invite_cseq: int = 0
    bye_cseq: int = 0


# Actions returned by transitions for the owner to execute.


@dataclass(frozen=True)
class SendSignal:
    msg: SignalMessage


@dataclass(frozen=True)
class OpenPayload:
    channel: NegotiatedChannel


@dataclass(frozen=True)
class OfferReceived:
    offer: SessionOffer
    access: Access


@dataclass(frozen=True)
class DialogRejected:
    status: int
    reason: str


Action = SendSignal | OpenPayload | OfferReceived | DialogRejected


def fresh_call_id() -> str:
    return "c-" + os.urandom(10).hex()


def make_invite(
    subscriber: str,
    role: Role,
    provider: str | None,
    access: Access,
    offer: SessionOffer,
    txn: str,
    to_id: str = "m2m-is",
    call_id: str | None = None,
) -> tuple[Session, SignalMessage]:
    """Start an outbound dialog: returns the InviteSent session and its INVITE."""
    if role is Role.ASGW and not provider:
        raise InvalidConfig("asgw sessions require a provider")
    if offer.role is not role or offer.provider != provider:
        raise InvalidConfig("offer role/provider must match the session")
    session = Session(
        subscriber=subscriber,
        call_id=call_id or fresh_call_id(),
        role=role,
        provider=provider,
        access=access,
        state=SessionState.INVITE_SENT,
        offered=offer,
        invite_cseq=1,
    )
    msg = SignalMessage(
        kind="request",
        method=Method.INVITE,
        from_id=subscriber,
        to_id=to_id,
        call_id=session.call_id,
        cseq=1,
        access=access,
        body=offer,
        txn=txn,
    )
    return session, msg


def receive_invite(msg: SignalMessage, remote_endpoint: str = "") -> Session:
    """Adopt an inbound INVITE as a new InviteReceived session (answerer side)."""
    offer = msg.body
    return Session(
        subscriber=msg.from_id,
        call_id=msg.call_id,
        role=offer.role,
        provider=offer.provider,
        access=msg.access,
        state=SessionState.INVITE_RECEIVED,
        peer_access=msg.access,
        offered=offer,
        invite_cseq=msg.cseq,
        remote_endpoint=remote_endpoint,
    )


def answer_offer(
    offer: SessionOffer,
    offer_access: Access,
    local_access: Access,
    local_max_frame: int,
    local_endpoint: str,
) -> SessionOffer:
    """Compute the answer: secure iff either side rides the open internet,
    frame size the minimum of both, endpoint the answerer's payload listener."""
    size = min(offer.max_frame_size, local_max_frame)
    if size < MIN_FRAME_SIZE:
        raise Unacceptable(f"negotiated frame size {size} below {MIN_FRAME_SIZE}")
    secure = Access.INTERNET in (offer_access, local_access)
    return SessionOffer(
        security=Security.SECURE if secure else Security.PLAIN,
        max_frame_size=size,
        payload_endpoint=local_endpoint,
        role=offer.role,
        provider=offer.provider,
    )


def accept(session: Session, answer: SessionOffer, txn: str, local_access: Access) -> tuple[Session, SignalMessage]:
    """Answer a received INVITE with 200; the dialog completes on ACK."""
    if session.state is not SessionState.INVITE_RECEIVED:
        raise InvalidConfig(f"cannot accept in state {session.state}")
    msg = _response(session, 200, "OK", session.invite_cseq, txn, local_access, body=answer)
    return replace(session, answered=True, pending_answer=answer), msg


def reject(session: Session, status: int, reason: str, txn: str, local_access: Access) -> tuple[Session, SignalMessage]:
    msg = _response(session, status, reason, session.invite_cseq, txn, local_access)
    return replace(session, state=SessionState.CLOSED), msg


def make_bye(session: Session, txn: str) -> tuple[Session, SignalMessage]:
    """Start teardown from Established; the dialog closes on the 200."""
    cseq = session.invite_cseq + 1
    msg = SignalMessage(
        kind="request",
        method=Method.BYE,
        from_id=session.subscriber,
        to_id="m2m-is",
        call_id=session.call_id,
        cseq=cseq,
        access=session.access,
        txn=txn,
    )
    return replace(session, state=SessionState.CLOSING, bye_cseq=cseq, negotiated=None), msg


def on_signal(
    session: Session, msg: SignalMessage, txn: str = "t-on-signal"
) -> tuple[Session, list[Action]]:
    """Advance the dialog by one inbound message.

    Out-of-dialog requests draw a 481 and leave the state untouched; stray
    responses are dropped. Closed absorbs everything, answering only BYE
    (200) and other requests (481).
    """
    if session.call_id and msg.call_id != session.call_id:
        return _out_of_dialog(session, msg, txn)

    state = session.state

    if msg.is_request:
        if msg.method is Method.BYE:
            reply = _response(session, 200, "OK", msg.cseq, txn, session.access)
            return replace(session, state=SessionState.CLOSED, negotiated=None), [SendSignal(reply)]
        if msg.method is Method.ACK:
            if msg.cseq != session.invite_cseq:
                return session, []
            if state is SessionState.INVITE_RECEIVED and session.answered:
                answer = session.pending_answer
                return (
                    replace(
                        session,
                        state=SessionState.ESTABLISHED,
                        negotiated=NegotiatedChannel(
                            answer.security, answer.max_frame_size, answer.payload_endpoint
                        ),
                    ),
                    [],
                )
            return session, []
        # INVITE
        if state is SessionState.IDLE:
            adopted = receive_invite(msg, session.remote_endpoint)
            return adopted, [OfferReceived(msg.body, msg.access)]
        if state in (SessionState.INVITE_SENT, SessionState.INVITE_RECEIVED):
            return session, []  # retransmission
        reply = _response(session, 481, "Call/Transaction Does Not Exist", msg.cseq, txn, session.access)
        return session, [SendSignal(reply)]

    # Responses, matched by CSeq against what we have outstanding.
    if state is SessionState.INVITE_SENT and msg.cseq == session.invite_cseq:
        if 200 <= msg.status < 300:
            answer = msg.body
            if answer is None or (
                session.offered is not None
                and answer.max_frame_size > session.offered.max_frame_size
            ):
                return (
                    replace(session, state=SessionState.CLOSED),
                    [DialogRejected(msg.status, "unusable answer")],
                )
            channel = NegotiatedChannel(
                answer.security, answer.max_frame_size, answer.payload_endpoint
            )
            ack = SignalMessage(
                kind="request",
                method=Method.ACK,
                from_id=session.subscriber,
                to_id="m2m-is",
                call_id=session.call_id,
                cseq=session.invite_cseq,
                access=session.access,
                txn=txn,
            )
            established = replace(
                session,
                state=SessionState.ESTABLISHED,
                negotiated=channel,
                peer_access=msg.access,
            )
            return established, [SendSignal(ack), OpenPayload(channel)]
        if msg.status >= 300:
            return (
                replace(session, state=SessionState.CLOSED),
                [DialogRejected(msg.status, msg.reason)],
            )
        return session, []  # 1xx: provisional, ignored
    if state is SessionState.CLOSING and msg.cseq == session.bye_cseq and msg.status >= 200:
        return replace(session, state=SessionState.CLOSED), []
    return session, []


def liveness(last_activity: float, now: float, interval_ms: float, misses: int) -> Keepalive:
    if now >= last_activity + interval_ms * misses:
        return Keepalive.EXPIRED
    if now >= last_activity + interval_ms:
        return Keepalive.SEND_PING
    return Keepalive.OK


def keepalive_deadline(last_rx: float, last_ping: float, interval_ms: float, misses: int, probing: bool) -> float:
    """When ``liveness``, comparing the same sums, next calls for a PING or
    the expiry; a peer not ``probing`` (still setting up) has only the expiry."""
    expiry = last_rx + interval_ms * misses
    return min(max(last_rx, last_ping) + interval_ms, expiry) if probing else expiry


def _response(
    session: Session,
    status: int,
    reason: str,
    cseq: int,
    txn: str,
    access: Access,
    body: SessionOffer | None = None,
) -> SignalMessage:
    return SignalMessage(
        kind="response",
        status=status,
        reason=reason,
        from_id=session.subscriber,
        to_id="m2m-is",
        call_id=session.call_id or "unknown-dialog",
        cseq=cseq,
        access=access,
        body=body,
        txn=txn,
    )


def _out_of_dialog(
    session: Session, msg: SignalMessage, txn: str
) -> tuple[Session, list[Action]]:
    if not msg.is_request:
        return session, []
    reply = SignalMessage(
        kind="response",
        status=481,
        reason="Call/Transaction Does Not Exist",
        from_id=session.subscriber or msg.to_id,
        to_id=msg.from_id,
        call_id=msg.call_id,
        cseq=msg.cseq,
        access=session.access,
        txn=txn,
    )
    return session, [SendSignal(reply)]
