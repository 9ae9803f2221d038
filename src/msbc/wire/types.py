"""Frame and identifier types for the MSBC wire protocol.

Four frame kinds travel over a connection:

  SEND    -- a wire packet: payload bytes on a numbered wire
  REPORT  -- end-to-end delivery report for a previously sent packet
  CONTROL -- service-wire verb (commission, authorize, ping, ...), wire 0 only
  SIGNAL  -- dialog signaling (INVITE / ACK / BYE and responses)

Every frame carries a transaction id on its start line; see codec.py for the
byte-level grammar.

Frames and offers are plain slotted records (``msbc.record``), immutable in
that nothing mutates one once it is built. ``validate()`` checks one. The
decoder calls it on a SIGNAL from a peer; the encoder calls none, since
every value a frame is built from was checked where it entered (see
codec.py).
"""

from __future__ import annotations

import re
from enum import Enum

from msbc.record import Record

TOKEN_RE = re.compile(r"[A-Za-z0-9._-]+")

CTID_MAX_LEN = 64
TXN_MIN_LEN = 8
TXN_MAX_LEN = 32

SERVICE_WIRE = 0
MAX_WIRE_ID = 0xFFFFFFFF
MAX_SEQ = 0xFFFFFFFFFFFFFFFF

MIN_FRAME_SIZE = 64
MAX_FRAME_SIZE = 1_048_576
DEFAULT_FRAME_SIZE = 16_384

# Delivery report status codes.
STATUS_DELIVERED = 200
STATUS_PEER_UNAVAILABLE = 480
STATUS_NO_SUCH_WIRE = 481
REPORT_STATUSES = (STATUS_DELIVERED, STATUS_PEER_UNAVAILABLE, STATUS_NO_SUCH_WIRE)


class InvalidFrame(ValueError):
    """A frame, or a value bound for one, violates its type invariants."""


def is_token(value: str, min_len: int = 1, max_len: int = CTID_MAX_LEN) -> bool:
    return (
        min_len <= len(value) <= max_len
        and TOKEN_RE.fullmatch(value) is not None
    )


def validate_ctid(value: str) -> str:
    """Check the 1..64 char, [A-Za-z0-9._-] identifier rule; returns the value."""
    if not isinstance(value, str) or not is_token(value):
        raise InvalidFrame(f"invalid ctid: {value!r}")
    return value


def validate_txn(value: str) -> str:
    if not isinstance(value, str) or not is_token(value, TXN_MIN_LEN, TXN_MAX_LEN):
        raise InvalidFrame(f"invalid txn id: {value!r}")
    return value


def validate_wire_id(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= MAX_WIRE_ID:
        raise InvalidFrame(f"invalid wire id: {value!r}")
    return value


class FrameKind(str, Enum):
    SEND = "SEND"
    REPORT = "REPORT"
    CONTROL = "CONTROL"
    SIGNAL = "SIGNAL"


class Verb(str, Enum):
    COMMISSION = "COMMISSION"
    COMMISSIONED = "COMMISSIONED"
    DECOMMISSION = "DECOMMISSION"
    DECOMMISSIONED = "DECOMMISSIONED"
    AUTHORIZE = "AUTHORIZE"
    AUTHORIZED = "AUTHORIZED"
    DENIED = "DENIED"
    PING = "PING"
    PONG = "PONG"
    PEER_DOWN = "PEER-DOWN"
    PEER_UP = "PEER-UP"
    ERROR = "ERROR"


# Verbs that must name the device they concern.
CTID_VERBS = frozenset(
    {
        Verb.COMMISSION,
        Verb.COMMISSIONED,
        Verb.DECOMMISSION,
        Verb.DECOMMISSIONED,
        Verb.AUTHORIZE,
        Verb.AUTHORIZED,
        Verb.DENIED,
        Verb.PEER_DOWN,
        Verb.PEER_UP,
    }
)

# Verbs that must carry the allocated wire id.
WIRE_VERBS = frozenset({Verb.COMMISSIONED, Verb.AUTHORIZED})


def validate_verb_params(verb: Verb, params: dict[str, str]) -> None:
    """The params a verb requires: a ctid, and with a wire grant its wire
    id. A Wire param, on any verb, must be a wire id."""
    if verb in CTID_VERBS:
        validate_ctid(params.get("Ctid", ""))
    wire = params.get("Wire")
    if wire is None:
        if verb in WIRE_VERBS:
            raise InvalidFrame(f"{verb.value} requires a Wire param")
    elif not _decimal(wire) or len(wire) > len(str(MAX_WIRE_ID)) or int(wire) > MAX_WIRE_ID:
        raise InvalidFrame(f"invalid Wire param: {wire!r}")


class Method(str, Enum):
    INVITE = "INVITE"
    ACK = "ACK"
    BYE = "BYE"


class Access(str, Enum):
    RADIO = "radio"
    INTERNET = "internet"


class Security(str, Enum):
    PLAIN = "plain"
    SECURE = "secure"


class Role(str, Enum):
    LGW = "lgw"
    ASGW = "asgw"


class WirePacket(Record):
    """Payload frame on a bearer wire; seq is per-wire, per-direction, from 1."""

    __slots__ = ("txn", "wire", "seq", "payload")

    def __init__(self, txn: str, wire: int, seq: int, payload: bytes):
        self.txn = txn
        self.wire = wire
        self.seq = seq
        self.payload = payload

    def validate(self) -> "WirePacket":
        validate_txn(self.txn)
        validate_wire_id(self.wire)
        if not 1 <= self.seq <= MAX_SEQ:
            raise InvalidFrame(f"invalid seq: {self.seq!r}")
        if not isinstance(self.payload, bytes):
            raise InvalidFrame("payload must be bytes")
        if len(self.payload) > MAX_FRAME_SIZE:
            raise InvalidFrame(f"payload exceeds {MAX_FRAME_SIZE} bytes")
        return self


class DeliveryReport(Record):
    """End-to-end acknowledgment for one WirePacket, matched by (txn, wire, seq)."""

    __slots__ = ("txn", "wire", "seq", "status")

    def __init__(self, txn: str, wire: int, seq: int, status: int):
        self.txn = txn
        self.wire = wire
        self.seq = seq
        self.status = status

    def validate(self) -> "DeliveryReport":
        validate_txn(self.txn)
        validate_wire_id(self.wire)
        if not 1 <= self.seq <= MAX_SEQ:
            raise InvalidFrame(f"invalid seq: {self.seq!r}")
        if self.status not in REPORT_STATUSES:
            raise InvalidFrame(f"invalid report status: {self.status!r}")
        return self


class ControlMessage(Record):
    """Service-wire verb with ordered string params; always travels on wire 0."""

    __slots__ = ("verb", "params", "txn")

    def __init__(self, verb: Verb, params: dict[str, str] | None = None, txn: str = ""):
        self.verb = verb
        self.params = {} if params is None else params
        self.txn = txn

    def validate(self) -> "ControlMessage":
        validate_txn(self.txn)
        if not isinstance(self.verb, Verb):
            raise InvalidFrame(f"unknown verb: {self.verb!r}")
        for key, value in self.params.items():
            if not is_token(key):
                raise InvalidFrame(f"invalid param key: {key!r}")
            if not isinstance(value, str) or not _printable(value):
                raise InvalidFrame(f"invalid param value for {key}: {value!r}")
        validate_verb_params(self.verb, self.params)
        return self

    @property
    def ctid(self) -> str | None:
        return self.params.get("Ctid")

    @property
    def wire_param(self) -> int | None:
        wire = self.params.get("Wire")
        return int(wire) if wire is not None and _decimal(wire) else None


class SessionOffer(Record):
    """Payload-channel parameters carried in INVITE bodies and 200 answers."""

    __slots__ = ("security", "max_frame_size", "payload_endpoint", "role", "provider")

    def __init__(
        self, security: Security, max_frame_size: int, payload_endpoint: str, role: Role,
        provider: str | None = None,
    ):
        self.security = security
        self.max_frame_size = max_frame_size
        self.payload_endpoint = payload_endpoint
        self.role = role
        self.provider = provider

    def validate(self) -> "SessionOffer":
        if not isinstance(self.security, Security):
            raise InvalidFrame(f"invalid security: {self.security!r}")
        if not isinstance(self.role, Role):
            raise InvalidFrame(f"invalid role: {self.role!r}")
        if not MIN_FRAME_SIZE <= self.max_frame_size <= MAX_FRAME_SIZE:
            raise InvalidFrame(f"max_frame_size out of range: {self.max_frame_size!r}")
        if not _endpoint(self.payload_endpoint):
            raise InvalidFrame(f"invalid payload endpoint: {self.payload_endpoint!r}")
        if self.role is Role.ASGW and not self.provider:
            raise InvalidFrame("asgw offer requires a provider")
        if self.provider is not None and not is_token(self.provider):
            raise InvalidFrame(f"invalid provider: {self.provider!r}")
        return self


class SignalMessage(Record):
    """Dialog signaling frame: INVITE/ACK/BYE request or a numbered response."""

    __slots__ = (
        "kind", "from_id", "to_id", "call_id", "cseq", "access", "method", "status", "reason", "body", "txn"
    )

    def __init__(
        self, kind: str, from_id: str, to_id: str, call_id: str, cseq: int, access: Access,
        method: Method | None = None, status: int | None = None, reason: str = "",
        body: SessionOffer | None = None, txn: str = "",
    ):
        self.kind = kind  # "request" | "response"
        self.from_id = from_id
        self.to_id = to_id
        self.call_id = call_id
        self.cseq = cseq
        self.access = access
        self.method = method
        self.status = status
        self.reason = reason
        self.body = body
        self.txn = txn

    def validate(self) -> "SignalMessage":
        validate_txn(self.txn)
        for label, ident in (("From", self.from_id), ("To", self.to_id), ("Call-ID", self.call_id)):
            if not is_token(ident):
                raise InvalidFrame(f"invalid {label} identity: {ident!r}")
        if not 1 <= self.cseq <= 0x7FFFFFFF:
            raise InvalidFrame(f"invalid CSeq: {self.cseq!r}")
        if not isinstance(self.access, Access):
            raise InvalidFrame(f"invalid access type: {self.access!r}")
        if self.kind == "request":
            if not isinstance(self.method, Method):
                raise InvalidFrame(f"invalid method: {self.method!r}")
            if self.method is Method.INVITE and self.body is None:
                raise InvalidFrame("INVITE requires an offer body")
            if self.method in (Method.ACK, Method.BYE) and self.body is not None:
                raise InvalidFrame(f"{self.method.value} must not carry a body")
        elif self.kind == "response":
            if self.status is None or not 100 <= self.status <= 699:
                raise InvalidFrame(f"invalid status: {self.status!r}")
            if not _printable(self.reason) or not self.reason:
                raise InvalidFrame(f"invalid reason: {self.reason!r}")
        else:
            raise InvalidFrame(f"invalid signal kind: {self.kind!r}")
        if self.body is not None:
            self.body.validate()
        return self

    @property
    def is_request(self) -> bool:
        return self.kind == "request"


Frame = WirePacket | DeliveryReport | ControlMessage | SignalMessage


def _printable(value: str) -> bool:
    return value.isascii() and value.isprintable()


def _decimal(value: str) -> bool:
    return value == "0" or (value.isdigit() and not value.startswith("0"))


def _endpoint(value: str) -> bool:
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        return False
    return 0 < int(port) < 65536 and _printable(host)


def parse_endpoint(value: str) -> tuple[str, int]:
    """Split a host:port string, raising InvalidFrame on malformed input."""
    if not _endpoint(value):
        raise InvalidFrame(f"invalid endpoint: {value!r}")
    host, _, port = value.rpartition(":")
    return host, int(port)
