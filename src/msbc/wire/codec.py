"""Byte-level codec for MSBC frames.

Grammar (CRLF = \\r\\n, SP = single space):

    frame      = start-line *(header-line) CRLF [payload]
    start-line = "MSBC" SP kind SP txn CRLF        ; kind: SEND REPORT CONTROL SIGNAL
    header-line = key ":" SP value CRLF

    SEND    headers Wire, Seq, Length; payload = Length raw bytes, then CRLF
    REPORT  headers Wire, Seq, Status
    CONTROL headers Wire (always 0), Verb, then one line per verb param
    SIGNAL  headers Method (request) or Status+Reason (response), From, To,
            Call-ID, CSeq, Access-Type, Length; payload = offer key:value lines

Payloads are length-prefixed, never sentinel-scanned, so packet bytes may
contain CR, LF or anything else. The encoder emits headers in the canonical
order above; the decoder accepts any header order and ignores unknown keys
(for CONTROL, unrecognized keys are the verb params).

Each field is checked once, where it enters the program. A peer's bytes
are checked here, on one of two paths. A SEND or REPORT header block in
exactly the layout encode_frame writes (Wire, Seq, then Length or Status,
no leading zeros) is read by one compiled match; the parser then
range-checks its numbers and checks the payload terminator, and builds the
frame. Every other block, and any block that fails one of those checks,
takes the general path, which checks every field that arrives from a peer
as it builds the frame: the header block's caps and printability, the start
line, each header line, the numbers, the enums and each kind's own rules (a
SIGNAL's dialog rules are SignalMessage.validate's). Only the general path
raises, so the frames and every ProtocolViolation are the same whichever
path a block takes. Neither path validates the frames it builds a second
time. The gateway SDK checks an application's values at its public calls,
before anything is queued; every other field of an outgoing frame is a
decoded one, a counter or a constant. So encode_frame checks nothing.
StreamParser parses a chunk in place when nothing is held over from an
earlier feed, and keeps only its unfinished tail.
"""

from __future__ import annotations

import re

from msbc.wire.types import (
    Access,
    ControlMessage,
    CTID_MAX_LEN,
    DeliveryReport,
    Frame,
    FrameKind,
    InvalidFrame,
    MAX_FRAME_SIZE,
    MAX_SEQ,
    MAX_WIRE_ID,
    Method,
    REPORT_STATUSES,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
    TXN_MAX_LEN,
    TXN_MIN_LEN,
    Verb,
    WirePacket,
    is_token,
    validate_verb_params,
)

MAX_LINE_BYTES = 4096
MAX_HEADER_COUNT = 64

_KINDS = {kind.value: kind for kind in FrameKind}
_VERBS = {verb.value: verb for verb in Verb}

# A whole header block in one match: the start line, then "key: value" lines
# with a token key, every character printable ASCII. _check_lines says which
# line is wrong when it does not match.
_BLOCK = re.compile(
    r"MSBC (%s) ([A-Za-z0-9._-]{%d,%d})((?:\r\n[A-Za-z0-9._-]{1,%d}: [ -~]*)*)"
    % ("|".join(_KINDS), TXN_MIN_LEN, TXN_MAX_LEN, CTID_MAX_LEN)
)
_HEADER = re.compile(r"\r\n([^:]+): ([^\r]*)")  # the header lines of a matched block

# The header block encode_frame writes for a SEND or a REPORT, matched on
# the buffer's bytes: its kind, txn, Wire, Seq, and Length or Status. No
# number has a leading zero or more digits than its limit, so only the range
# checks remain; a block this does not match takes the general path.
_CANONICAL = re.compile(
    rb"MSBC (?:(SEND)|REPORT) ([A-Za-z0-9._-]{%d,%d})\r\nWire: (0|[1-9][0-9]{0,%d})\r\n"
    rb"Seq: ([1-9][0-9]{0,%d})\r\n(?(1)Length|Status): (0|[1-9][0-9]{0,%d})\r\n\r\n"
    % (TXN_MIN_LEN, TXN_MAX_LEN, len(str(MAX_WIRE_ID)) - 1, len(str(MAX_SEQ)) - 1,
       len(str(MAX_FRAME_SIZE)) - 1)
)

# What StreamParser keeps of the frame at the front of its buffer between
# feeds: the buffered length it needs before it is worth parsing again (its
# header block is complete and its payload is not); or, while its header
# block is unfinished, the offset before which no terminator starts, and how
# many bytes and lines of the block were checked.
_NOTHING_YET = (0, 0, 0, 0)


class ProtocolViolation(Exception):
    """Malformed input on a connection; the caller must terminate it."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"protocol violation at byte {offset}: {reason}")


def encode_frame(frame: Frame) -> bytes:
    """Serialize a valid frame to its exact wire bytes; it is not checked again."""
    if isinstance(frame, WirePacket):
        return b"MSBC SEND %b\r\nWire: %d\r\nSeq: %d\r\nLength: %d\r\n\r\n%b\r\n" % (
            frame.txn.encode("ascii"), frame.wire, frame.seq, len(frame.payload), frame.payload
        )
    if isinstance(frame, DeliveryReport):
        return b"MSBC REPORT %b\r\nWire: %d\r\nSeq: %d\r\nStatus: %d\r\n\r\n" % (
            frame.txn.encode("ascii"), frame.wire, frame.seq, frame.status
        )
    if isinstance(frame, ControlMessage):
        params = "".join(["%s: %s\r\n" % item for item in frame.params.items()])
        text = "MSBC CONTROL %s\r\nWire: 0\r\nVerb: %s\r\n%s\r\n" % (
            frame.txn, frame.verb.value, params
        )
        return text.encode("ascii")
    if isinstance(frame, SignalMessage):
        if frame.is_request:
            opening = "Method: %s" % frame.method.value
        else:
            opening = "Status: %d\r\nReason: %s" % (frame.status, frame.reason)
        body = encode_offer(frame.body) if frame.body is not None else b""
        text = (
            "MSBC SIGNAL %s\r\n%s\r\nFrom: %s\r\nTo: %s\r\nCall-ID: %s\r\nCSeq: %d\r\n"
            "Access-Type: %s\r\nLength: %d\r\n\r\n"
        ) % (
            frame.txn, opening, frame.from_id, frame.to_id, frame.call_id, frame.cseq,
            frame.access.value, len(body),
        )
        return text.encode("ascii") + body + b"\r\n"
    raise InvalidFrame(f"not a frame: {frame!r}")


def encode_offer(offer: SessionOffer) -> bytes:
    text = "security: %s\r\nmax-frame-size: %d\r\npayload-endpoint: %s\r\nrole: %s\r\n" % (
        offer.security.value, offer.max_frame_size, offer.payload_endpoint, offer.role.value
    )
    if offer.provider is not None:
        text += "provider: %s\r\n" % offer.provider
    return text.encode("ascii")


class StreamParser:
    """Incremental frame parser for one connection.

    Feed arbitrary chunks; complete frames come back in order, partial frames
    stay buffered. State is single-owner and never shared between connections.
    A frame's header block is found with one search and checked as a whole;
    a block still arriving has its complete lines checked and its last line
    capped, so a peer cannot make the parser buffer without limit. What an
    earlier feed learnt of the frame at the front of the buffer is kept, so
    each feed looks only at the bytes it adds: a frame trickled in small
    chunks costs time linear in its size.
    """

    def __init__(self, max_payload: int = MAX_FRAME_SIZE):
        self.max_payload = min(max_payload, MAX_FRAME_SIZE)
        self._buf = bytearray()
        self._consumed = 0  # absolute offset of the first unconsumed byte
        self._partial = _NOTHING_YET

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list[Frame]:
        """Return every frame data completes, buffering the rest."""
        # With nothing held over, a bytes chunk is parsed where it lies and
        # only its unconsumed tail is copied; _partial's offsets are relative
        # to the front frame's start, so they hold in either buffer.
        held = buf = self._buf
        if held or type(data) is not bytes:
            held += data
        else:
            buf = data
        frames: list[Frame] = []
        pos = 0
        while pos < len(buf):
            frame, pos_after = self._parse_one(buf, pos)
            if frame is None:
                break
            frames.append(frame)
            pos = pos_after
            self._partial = _NOTHING_YET
        if buf is held:
            del held[:pos]
        elif pos < len(buf):
            held += memoryview(buf)[pos:]
        self._consumed += pos
        return frames

    def _parse_one(self, buf: bytes | bytearray, pos: int) -> tuple[Frame | None, int]:
        start = self._consumed + pos
        need, searched, checked, lines = self._partial
        if len(buf) - pos < need:
            return None, 0
        head_end = buf.find(b"\r\n\r\n", pos + searched)
        if head_end < 0:
            cut = buf.rfind(b"\r\n", pos + max(checked, searched))
            if cut >= 0:
                text = buf[pos + checked : cut].decode("ascii", "surrogateescape")
                new_lines = text.split("\r\n")
                _check_lines(start, start + checked, lines, new_lines)
                checked, lines = cut + 2 - pos, lines + len(new_lines)
            # a final CR may be the first half of the unfinished line's CRLF
            if len(buf) - pos - checked - (buf[-1] == 13) > MAX_LINE_BYTES:
                raise ProtocolViolation(start + checked, "header line too long")
            self._partial = (0, max(len(buf) - pos - 3, 0), checked, lines)
            return None, 0
        # A block that fails any check here is left to the general path,
        # which says what is wrong with it.
        canonical = _CANONICAL.match(buf, pos)
        if canonical is not None:
            send, txn, wire, seq, last = canonical.groups()
            wire, seq, last, end = int(wire), int(seq), int(last), canonical.end()
            if wire <= MAX_WIRE_ID and seq <= MAX_SEQ:
                if send is None:
                    if last in REPORT_STATUSES:
                        return DeliveryReport(txn.decode(), wire, seq, last), end
                elif last <= self.max_payload:
                    stop = end + last
                    if len(buf) < stop + 2:
                        self._partial = (stop + 2 - pos, 0, 0, 0)
                        return None, 0
                    if buf[stop : stop + 2] == b"\r\n":
                        return WirePacket(txn.decode(), wire, seq, bytes(buf[end:stop])), stop + 2
        kind, txn, pairs = _head(start, buf[pos:head_end])
        end = head_end + 4
        if kind is FrameKind.CONTROL:
            return _control(start, txn, pairs), end
        headers = _unique(start, pairs, "header")
        if kind is FrameKind.REPORT:
            wire = _number(start, headers, "Wire", MAX_WIRE_ID)
            seq = _number(start, headers, "Seq", MAX_SEQ)
            status = _number(start, headers, "Status", 999)
            if seq == 0:
                raise ProtocolViolation(start, "invalid seq: 0")
            if status not in REPORT_STATUSES:
                raise ProtocolViolation(start, f"invalid report status: {status}")
            return DeliveryReport(txn, wire, seq, status), end
        length = _number(start, headers, "Length", self.max_payload)
        if len(buf) < end + length + 2:
            self._partial = (end + length + 2 - pos, 0, 0, 0)
            return None, 0
        payload = bytes(buf[end : end + length])
        end += length
        if buf[end : end + 2] != b"\r\n":
            raise ProtocolViolation(self._consumed + end, "missing payload terminator")
        if kind is FrameKind.SEND:
            wire = _number(start, headers, "Wire", MAX_WIRE_ID)
            seq = _number(start, headers, "Seq", MAX_SEQ)
            if seq == 0:
                raise ProtocolViolation(start, "invalid seq: 0")
            return WirePacket(txn, wire, seq, payload), end + 2
        return _signal(start, txn, headers, payload), end + 2


def _head(start: int, block: bytes | bytearray) -> tuple[FrameKind, str, list[tuple[str, str]]]:
    """Check the complete lines of a header block: the start line, then at
    most MAX_HEADER_COUNT header lines, each printable ASCII within
    MAX_LINE_BYTES. ``start`` is the block's offset in the stream."""
    # A byte over 0x7F decodes to a lone surrogate, which _BLOCK refuses.
    text = block.decode("ascii", "surrogateescape")
    match = _BLOCK.fullmatch(text)
    if match is None or len(text) > MAX_LINE_BYTES:
        _check_lines(start, start, 0, text.split("\r\n"))
    pairs = _HEADER.findall(match[3])
    if len(pairs) > MAX_HEADER_COUNT:
        raise ProtocolViolation(start, "too many headers")
    return _KINDS[match[1]], match[2], pairs


def _check_lines(start: int, at: int, index: int, lines: list[str]) -> None:
    """Check header-block lines one at a time, the first being line ``index``
    of the block at stream offset ``start`` and itself at offset ``at``;
    raise what is wrong with the first bad one, return if nothing is."""
    for i, line in enumerate(lines, index):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolViolation(at, "header line too long")
        if not line.isprintable():
            raise ProtocolViolation(at, "non-printable byte in header")
        at += len(line) + 2
        if i == 0:
            parts = line.split(" ")
            if len(parts) != 3 or parts[0] != "MSBC":
                raise ProtocolViolation(start, f"bad start line: {line!r}")
            if parts[1] not in _KINDS:
                raise ProtocolViolation(start, f"unknown frame kind: {parts[1]!r}")
            if not is_token(parts[2], TXN_MIN_LEN, TXN_MAX_LEN):
                raise ProtocolViolation(start, f"bad txn id: {parts[2]!r}")
        else:
            key, sep, _ = line.partition(": ")
            if not sep or not is_token(key):
                raise ProtocolViolation(start, f"bad header line: {line!r}")
        if i > MAX_HEADER_COUNT:
            raise ProtocolViolation(start, "too many headers")


def _unique(start: int, pairs: list[tuple[str, str]], what: str) -> dict[str, str]:
    fields = dict(pairs)
    if len(fields) < len(pairs):
        keys = [key for key, _ in pairs]
        dup = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ProtocolViolation(start, f"duplicate {what}: {dup}")
    return fields


def _number(start: int, headers: dict[str, str], key: str, cap: int) -> int:
    value = headers.get(key)
    if value is None:
        raise ProtocolViolation(start, f"missing {key} header")
    if not (value == "0" or (value.isdigit() and not value.startswith("0"))):
        raise ProtocolViolation(start, f"bad {key} value: {value!r}")
    number = int(value)
    if number > cap:
        raise ProtocolViolation(start, f"{key} out of range: {number}")
    return number


def _control(start: int, txn: str, pairs: list[tuple[str, str]]) -> ControlMessage:
    # Positional grammar: Wire then Verb, every later line one verb param.
    # A later "Wire" line is the wire param of COMMISSIONED/AUTHORIZED,
    # distinct from the service-wire header.
    if len(pairs) < 2 or pairs[0][0] != "Wire" or pairs[1][0] != "Verb":
        raise ProtocolViolation(start, "control headers must start Wire, Verb")
    if pairs[0][1] != "0":
        raise ProtocolViolation(start, "control frame off the service wire")
    verb = _VERBS.get(pairs[1][1])
    if verb is None:
        raise ProtocolViolation(start, f"unknown verb: {pairs[1][1]!r}")
    params = _unique(start, pairs[2:], "param")
    try:
        validate_verb_params(verb, params)
    except InvalidFrame as exc:
        raise ProtocolViolation(start, str(exc)) from None
    return ControlMessage(verb, params, txn)


def _signal(start: int, txn: str, headers: dict[str, str], payload: bytes) -> SignalMessage:
    for key in ("From", "To", "Call-ID", "Access-Type"):
        if key not in headers:
            raise ProtocolViolation(start, f"missing {key} header")
    cseq = _number(start, headers, "CSeq", 0x7FFFFFFF)
    try:
        access = Access(headers["Access-Type"])
    except ValueError:
        raise ProtocolViolation(start, f"bad Access-Type: {headers['Access-Type']!r}") from None
    common = dict(
        from_id=headers["From"],
        to_id=headers["To"],
        call_id=headers["Call-ID"],
        cseq=cseq,
        access=access,
        body=_offer(start, payload) if payload else None,
        txn=txn,
    )
    if "Method" in headers:
        if "Status" in headers:
            raise ProtocolViolation(start, "signal carries both Method and Status")
        try:
            method = Method(headers["Method"])
        except ValueError:
            raise ProtocolViolation(start, f"unknown method: {headers['Method']!r}") from None
        msg = SignalMessage(kind="request", method=method, **common)
    elif "Status" in headers:
        status = _number(start, headers, "Status", 699)
        if "Reason" not in headers:
            raise ProtocolViolation(start, "missing Reason header")
        msg = SignalMessage(kind="response", status=status, reason=headers["Reason"], **common)
    else:
        raise ProtocolViolation(start, "signal carries neither Method nor Status")
    try:
        return msg.validate()
    except InvalidFrame as exc:
        raise ProtocolViolation(start, str(exc)) from None


def _offer(start: int, payload: bytes) -> SessionOffer:
    text = payload.decode("ascii", "surrogateescape")
    if not text.replace("\r\n", "").isprintable():
        raise ProtocolViolation(start, "non-printable byte in offer body")
    if not text.endswith("\r\n"):
        raise ProtocolViolation(start, "offer body not CRLF-terminated")
    fields: dict[str, str] = {}
    for line in text[:-2].split("\r\n"):
        key, sep, value = line.partition(": ")
        if not sep or not key:
            raise ProtocolViolation(start, f"bad offer line: {line!r}")
        if key in fields:
            raise ProtocolViolation(start, f"duplicate offer key: {key}")
        fields[key] = value
    for key in ("security", "max-frame-size", "payload-endpoint", "role"):
        if key not in fields:
            raise ProtocolViolation(start, f"missing offer key: {key}")
    try:
        security = Security(fields["security"])
        role = Role(fields["role"])
    except ValueError as exc:
        raise ProtocolViolation(start, f"bad offer enum: {exc}") from None
    size = fields["max-frame-size"]
    if not size.isdigit() or (size != "0" and size.startswith("0")):
        raise ProtocolViolation(start, f"bad max-frame-size: {size!r}")
    return SessionOffer(
        security=security,
        max_frame_size=int(size),
        payload_endpoint=fields["payload-endpoint"],
        role=role,
        provider=fields.get("provider"),
    )


def decode_stream(buffer: bytes, max_payload: int = MAX_FRAME_SIZE) -> tuple[list[Frame], int]:
    """Parse every complete frame in buffer; returns (frames, bytes consumed).

    Partial trailing frames are never consumed; malformed input raises
    ProtocolViolation with the offending byte offset.
    """
    parser = StreamParser(max_payload=max_payload)
    frames = parser.feed(buffer)
    return frames, parser.consumed
