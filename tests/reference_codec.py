"""The line-by-line frame parser the codec shipped before its one-pass
rewrite, kept as a test oracle only.

It reads one CRLF line at a time, checks each header byte by byte and
validates every frame it builds. tests/test_codec_properties.py feeds the
same inputs to it and to msbc.wire.codec.StreamParser and requires the same
frames, the same consumed count, and the same ProtocolViolation (offset and
reason) on the same inputs.
"""

from __future__ import annotations

from msbc.wire.codec import MAX_HEADER_COUNT, MAX_LINE_BYTES, ProtocolViolation
from msbc.wire.types import (
    Access,
    ControlMessage,
    DeliveryReport,
    Frame,
    FrameKind,
    InvalidFrame,
    MAX_FRAME_SIZE,
    Method,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
    Verb,
    WirePacket,
    is_token,
)

CRLF = b"\r\n"


class ReferenceParser:
    """Incremental frame parser for one connection, one line at a time.

    Feed arbitrary chunks; complete frames come back in order, partial frames
    stay buffered. State is single-owner and never shared between connections.
    """

    def __init__(self, max_payload: int = MAX_FRAME_SIZE):
        self.max_payload = max_payload
        self._buf = bytearray()
        self._consumed = 0  # absolute offset of the first unconsumed byte

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list[Frame]:
        """Buffer data and return every newly completed frame."""
        self._buf.extend(data)
        frames: list[Frame] = []
        while True:
            frame, used = self._parse_one()
            if frame is None:
                break
            frames.append(frame)
            del self._buf[:used]
            self._consumed += used
        return frames

    def _parse_one(self) -> tuple[Frame | None, int]:
        start = self._consumed
        pos = 0
        line, pos = self._line(pos)
        if line is None:
            return None, 0
        parts = line.split(" ")
        if len(parts) != 3 or parts[0] != "MSBC":
            raise ProtocolViolation(start, f"bad start line: {line!r}")
        try:
            kind = FrameKind(parts[1])
        except ValueError:
            raise ProtocolViolation(start, f"unknown frame kind: {parts[1]!r}") from None
        txn = parts[2]
        if not is_token(txn, 8, 32):
            raise ProtocolViolation(start, f"bad txn id: {txn!r}")

        pairs: list[tuple[str, str]] = []
        while True:
            if len(pairs) > MAX_HEADER_COUNT:
                raise ProtocolViolation(start, "too many headers")
            line, pos = self._line(pos)
            if line is None:
                return None, 0
            if line == "":
                break
            key, sep, value = line.partition(": ")
            if not sep or not is_token(key):
                raise ProtocolViolation(start, f"bad header line: {line!r}")
            pairs.append((key, value))

        if kind is FrameKind.CONTROL:
            headers = {}
        else:
            headers = {}
            for key, value in pairs:
                if key in headers:
                    raise ProtocolViolation(start, f"duplicate header: {key}")
                headers[key] = value

        if kind in (FrameKind.SEND, FrameKind.SIGNAL):
            length = self._number(start, headers, "Length", self.max_payload)
            if len(self._buf) - pos < length + 2:
                if length > self.max_payload:
                    raise ProtocolViolation(start, "payload too long")
                return None, 0
            payload = bytes(self._buf[pos : pos + length])
            pos += length
            if self._buf[pos : pos + 2] != CRLF:
                raise ProtocolViolation(start + pos, "missing payload terminator")
            pos += 2
        else:
            payload = b""

        if kind is FrameKind.CONTROL:
            frame: Frame = self._build_control(start, txn, pairs)
        else:
            frame = self._build(start, kind, txn, headers, payload)
        return frame, pos

    def _line(self, pos: int) -> tuple[str | None, int]:
        end = self._buf.find(CRLF, pos)
        if end < 0:
            # a final CR may be the first half of the line's CRLF
            if len(self._buf) - pos - self._buf.endswith(b"\r") > MAX_LINE_BYTES:
                raise ProtocolViolation(self._consumed + pos, "header line too long")
            return None, pos
        if end - pos > MAX_LINE_BYTES:
            raise ProtocolViolation(self._consumed + pos, "header line too long")
        raw = self._buf[pos:end]
        if any(b < 0x20 or b > 0x7E for b in raw):
            raise ProtocolViolation(self._consumed + pos, "non-printable byte in header")
        return raw.decode("ascii"), end + 2

    def _number(self, start: int, headers: dict[str, str], key: str, cap: int) -> int:
        value = headers.get(key)
        if value is None:
            raise ProtocolViolation(start, f"missing {key} header")
        if not (value == "0" or (value.isdigit() and not value.startswith("0"))):
            raise ProtocolViolation(start, f"bad {key} value: {value!r}")
        number = int(value)
        if number > cap:
            raise ProtocolViolation(start, f"{key} out of range: {number}")
        return number

    def _build(
        self,
        start: int,
        kind: FrameKind,
        txn: str,
        headers: dict[str, str],
        payload: bytes,
    ) -> Frame:
        try:
            if kind is FrameKind.SEND:
                wire = self._number(start, headers, "Wire", 0xFFFFFFFF)
                seq = self._number(start, headers, "Seq", 0xFFFFFFFFFFFFFFFF)
                return WirePacket(txn=txn, wire=wire, seq=seq, payload=payload).validate()
            if kind is FrameKind.REPORT:
                wire = self._number(start, headers, "Wire", 0xFFFFFFFF)
                seq = self._number(start, headers, "Seq", 0xFFFFFFFFFFFFFFFF)
                status = self._number(start, headers, "Status", 999)
                return DeliveryReport(txn=txn, wire=wire, seq=seq, status=status).validate()
            return self._build_signal(start, txn, headers, payload)
        except InvalidFrame as exc:
            raise ProtocolViolation(start, str(exc)) from None

    def _build_control(
        self, start: int, txn: str, pairs: list[tuple[str, str]]
    ) -> ControlMessage:
        # Positional grammar: Wire then Verb, every later line one verb param.
        # A later "Wire" line is the wire param of COMMISSIONED/AUTHORIZED,
        # distinct from the service-wire header.
        if len(pairs) < 2 or pairs[0][0] != "Wire" or pairs[1][0] != "Verb":
            raise ProtocolViolation(start, "control headers must start Wire, Verb")
        if pairs[0][1] != "0":
            raise ProtocolViolation(start, "control frame off the service wire")
        try:
            verb = Verb(pairs[1][1])
        except ValueError:
            raise ProtocolViolation(start, f"unknown verb: {pairs[1][1]!r}") from None
        params: dict[str, str] = {}
        for key, value in pairs[2:]:
            if key in params:
                raise ProtocolViolation(start, f"duplicate param: {key}")
            params[key] = value
        try:
            return ControlMessage(verb=verb, params=params, txn=txn).validate()
        except InvalidFrame as exc:
            raise ProtocolViolation(start, str(exc)) from None

    def _build_signal(
        self, start: int, txn: str, headers: dict[str, str], payload: bytes
    ) -> SignalMessage:
        for key in ("From", "To", "Call-ID", "Access-Type"):
            if key not in headers:
                raise ProtocolViolation(start, f"missing {key} header")
        cseq = self._number(start, headers, "CSeq", 0x7FFFFFFF)
        try:
            access = Access(headers["Access-Type"])
        except ValueError:
            raise ProtocolViolation(
                start, f"bad Access-Type: {headers['Access-Type']!r}"
            ) from None
        body = self._parse_offer(start, payload) if payload else None

        if "Method" in headers:
            if "Status" in headers:
                raise ProtocolViolation(start, "signal carries both Method and Status")
            try:
                method = Method(headers["Method"])
            except ValueError:
                raise ProtocolViolation(start, f"unknown method: {headers['Method']!r}") from None
            msg = SignalMessage(
                kind="request",
                method=method,
                from_id=headers["From"],
                to_id=headers["To"],
                call_id=headers["Call-ID"],
                cseq=cseq,
                access=access,
                body=body,
                txn=txn,
            )
        elif "Status" in headers:
            status = self._number(start, headers, "Status", 699)
            reason = headers.get("Reason")
            if reason is None:
                raise ProtocolViolation(start, "missing Reason header")
            msg = SignalMessage(
                kind="response",
                status=status,
                reason=reason,
                from_id=headers["From"],
                to_id=headers["To"],
                call_id=headers["Call-ID"],
                cseq=cseq,
                access=access,
                body=body,
                txn=txn,
            )
        else:
            raise ProtocolViolation(start, "signal carries neither Method nor Status")
        return msg.validate()

    def _parse_offer(self, start: int, payload: bytes) -> SessionOffer:
        if any(b < 0x20 or b > 0x7E for b in payload.replace(CRLF, b"")):
            raise ProtocolViolation(start, "non-printable byte in offer body")
        if not payload.endswith(CRLF):
            raise ProtocolViolation(start, "offer body not CRLF-terminated")
        fields: dict[str, str] = {}
        for raw in payload[:-2].split(CRLF):
            line = raw.decode("ascii")
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

