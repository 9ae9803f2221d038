"""Frame codec: exact bytes, round trips, incremental parsing."""

import time

import pytest

from msbc.wire import (
    Access,
    ControlMessage,
    DeliveryReport,
    InvalidFrame,
    Method,
    ProtocolViolation,
    Role,
    Security,
    SessionOffer,
    SignalMessage,
    StreamParser,
    Verb,
    WirePacket,
    decode_stream,
    encode_frame,
)
from msbc.wire import codec
from msbc.wire.codec import MAX_LINE_BYTES


def assemble(start, headers, payload=None):
    """Independent byte assembler used as the encoding oracle."""
    out = start.encode() + b"\r\n"
    for key, value in headers:
        out += f"{key}: {value}".encode() + b"\r\n"
    out += b"\r\n"
    if payload is not None:
        out += payload + b"\r\n"
    return out


def offer(**overrides):
    base = dict(
        security=Security.PLAIN,
        max_frame_size=16384,
        payload_endpoint="127.0.0.1:5070",
        role=Role.LGW,
    )
    base.update(overrides)
    return SessionOffer(**base)


class TestEncode:
    def test_control_ping_exact_bytes(self):
        frame = ControlMessage(Verb.PING, {"Token": "a1"}, txn="t00000001")
        expected = (
            b"MSBC CONTROL t00000001\r\n"
            b"Wire: 0\r\n"
            b"Verb: PING\r\n"
            b"Token: a1\r\n"
            b"\r\n"
        )
        assert encode_frame(frame) == expected

    def test_control_matches_assembler_oracle(self):
        frame = ControlMessage(
            Verb.COMMISSIONED, {"Ctid": "milk-1", "Wire": "3"}, txn="txabcdef"
        )
        oracle = assemble(
            "MSBC CONTROL txabcdef",
            [("Wire", 0), ("Verb", "COMMISSIONED"), ("Ctid", "milk-1"), ("Wire", 3)],
        )
        # The param named Wire is distinct from the service-wire header; the
        # oracle writes both lines in order.
        assert encode_frame(frame) == oracle

    def test_send_empty_payload(self):
        frame = WirePacket(txn="t1t1t1t1", wire=7, seq=1, payload=b"")
        expected = assemble(
            "MSBC SEND t1t1t1t1", [("Wire", 7), ("Seq", 1), ("Length", 0)], b""
        )
        assert encode_frame(frame) == expected
        assert b"Length: 0\r\n" in expected

    def test_send_payload_bytes(self):
        frame = WirePacket(txn="t00000009", wire=2, seq=41, payload=b"hello")
        assert encode_frame(frame) == assemble(
            "MSBC SEND t00000009", [("Wire", 2), ("Seq", 41), ("Length", 5)], b"hello"
        )

    def test_report_exact_bytes(self):
        frame = DeliveryReport(txn="t00000004", wire=9, seq=12, status=200)
        assert encode_frame(frame) == assemble(
            "MSBC REPORT t00000004", [("Wire", 9), ("Seq", 12), ("Status", 200)]
        )

    def test_signal_invite_with_offer(self):
        body = (
            b"security: plain\r\n"
            b"max-frame-size: 16384\r\n"
            b"payload-endpoint: 127.0.0.1:5070\r\n"
            b"role: lgw\r\n"
        )
        frame = SignalMessage(
            kind="request",
            method=Method.INVITE,
            from_id="house-01",
            to_id="m2m-is",
            call_id="c-0001",
            cseq=1,
            access=Access.RADIO,
            body=offer(),
            txn="t00000002",
        )
        assert encode_frame(frame) == assemble(
            "MSBC SIGNAL t00000002",
            [
                ("Method", "INVITE"),
                ("From", "house-01"),
                ("To", "m2m-is"),
                ("Call-ID", "c-0001"),
                ("CSeq", 1),
                ("Access-Type", "radio"),
                ("Length", len(body)),
            ],
            body,
        )

    def test_encode_deterministic(self):
        frame = ControlMessage(Verb.PING, {}, txn="t00000001")
        assert encode_frame(frame) == encode_frame(frame)

    @pytest.mark.parametrize(
        "bad",
        [
            WirePacket(txn="short", wire=1, seq=1, payload=b""),
            WirePacket(txn="t00000001", wire=1, seq=0, payload=b""),
            WirePacket(txn="t00000001", wire=1, seq=1, payload=b"x" * 1_048_577),
            DeliveryReport(txn="t00000001", wire=1, seq=1, status=404),
            ControlMessage(Verb.COMMISSION, {}, txn="t00000001"),  # no Ctid
            ControlMessage(Verb.COMMISSIONED, {"Ctid": "a"}, txn="t00000001"),  # no Wire
            ControlMessage(Verb.PING, {"bad key": "x"}, txn="t00000001"),
        ],
    )
    def test_invalid_frames_rejected(self, bad):
        # encode_frame checks nothing; each value is checked where it enters
        with pytest.raises(InvalidFrame):
            bad.validate()

    def test_encode_calls_no_validate(self, monkeypatch):
        frames = [
            WirePacket(txn="t00000001", wire=1, seq=1, payload=b"x"),
            DeliveryReport(txn="t00000001", wire=1, seq=1, status=200),
            ControlMessage(Verb.PING, {}, txn="t00000001"),
            SignalMessage(
                kind="request", method=Method.INVITE, from_id="a-1", to_id="b-1",
                call_id="c-1", cseq=1, access=Access.RADIO, body=offer(), txn="t00000001",
            ),
        ]
        for cls in {type(f) for f in frames} | {SessionOffer}:
            monkeypatch.setattr(cls, "validate", None)
        data = b"".join(map(encode_frame, frames))
        monkeypatch.undo()  # the decoder validates a SIGNAL
        assert decode_stream(data) == (frames, len(data))

    def test_asgw_offer_requires_provider(self):
        with pytest.raises(InvalidFrame):
            offer(role=Role.ASGW).validate()
        offer(role=Role.ASGW, provider="grocery").validate()

    def test_invite_requires_body(self):
        msg = SignalMessage(
            kind="request",
            method=Method.INVITE,
            from_id="a-1",
            to_id="b-1",
            call_id="c-1",
            cseq=1,
            access=Access.RADIO,
            txn="t00000001",
        )
        with pytest.raises(InvalidFrame):
            msg.validate()

    def test_bye_refuses_body(self):
        msg = SignalMessage(
            kind="request",
            method=Method.BYE,
            from_id="a-1",
            to_id="b-1",
            call_id="c-1",
            cseq=2,
            access=Access.RADIO,
            body=offer(),
            txn="t00000001",
        )
        with pytest.raises(InvalidFrame):
            msg.validate()


class TestDecode:
    def test_round_trip_each_kind(self):
        frames = [
            WirePacket(txn="t00000001", wire=3, seq=7, payload=b"\x00\xffdata"),
            DeliveryReport(txn="t00000002", wire=3, seq=7, status=481),
            ControlMessage(Verb.PEER_DOWN, {"Ctid": "door-1"}, txn="t00000003"),
            SignalMessage(
                kind="response",
                status=200,
                reason="OK",
                from_id="house-01",
                to_id="m2m-is",
                call_id="c-0001",
                cseq=1,
                access=Access.INTERNET,
                body=offer(security=Security.SECURE, provider="health", role=Role.ASGW),
                txn="t00000004",
            ),
        ]
        for frame in frames:
            decoded, consumed = decode_stream(encode_frame(frame))
            assert decoded == [frame]
            assert consumed == len(encode_frame(frame))

    def test_concatenated_frames(self):
        f1 = ControlMessage(Verb.PING, {}, txn="t00000001")
        f2 = WirePacket(txn="t00000002", wire=1, seq=1, payload=b"abc")
        data = encode_frame(f1) + encode_frame(f2)
        frames, consumed = decode_stream(data)
        assert frames == [f1, f2]
        assert consumed == len(data)

    def test_partial_frame_not_consumed(self):
        data = encode_frame(ControlMessage(Verb.PING, {}, txn="t00000001"))
        frames, consumed = decode_stream(data[:-1])
        assert frames == []
        assert consumed == 0

    def test_trailing_partial_after_complete(self):
        f1 = ControlMessage(Verb.PONG, {}, txn="t00000001")
        encoded = encode_frame(f1)
        frames, consumed = decode_stream(encoded + b"MSBC CON")
        assert frames == [f1]
        assert consumed == len(encoded)

    def test_byte_at_a_time_matches_whole(self):
        frames = [
            WirePacket(txn="t00000001", wire=1, seq=1, payload=b"\r\n\r\nMSBC SEND x\r\n"),
            ControlMessage(Verb.PING, {"Token": "zz"}, txn="t00000002"),
        ]
        data = b"".join(encode_frame(f) for f in frames)
        parser = StreamParser()
        seen = []
        for i in range(len(data)):
            seen.extend(parser.feed(data[i : i + 1]))
        assert seen == frames

    @pytest.mark.parametrize(
        "frame",
        [
            DeliveryReport(txn="t00000001", wire=4, seq=3, status=480),
            SignalMessage(
                kind="request",
                method=Method.INVITE,
                from_id="house-01",
                to_id="m2m-is",
                call_id="c-0001",
                cseq=1,
                access=Access.RADIO,
                body=offer(role=Role.ASGW, provider="grocery"),
                txn="t00000002",
            ),
        ],
        ids=["report", "signal-invite"],
    )
    def test_byte_at_a_time_matches_whole_report_and_signal(self, frame):
        data = encode_frame(frame) * 2
        whole, consumed = decode_stream(data)
        parser = StreamParser()
        seen = []
        for i in range(len(data)):
            seen.extend(parser.feed(data[i : i + 1]))
        assert seen == whole == [frame, frame]
        assert parser.consumed == consumed == len(data)

    def test_binary_payload_with_terminator_bytes(self):
        payload = b"\r\n" * 10 + b"\x00\x01\x02" + b"MSBC REPORT t00000000\r\n\r\n"
        frame = WirePacket(txn="t00000001", wire=5, seq=2, payload=payload)
        decoded, _ = decode_stream(encode_frame(frame))
        assert decoded[0].payload == payload

    def test_unknown_extra_headers_ignored_on_send(self):
        raw = (
            b"MSBC SEND t00000001\r\n"
            b"Wire: 4\r\n"
            b"Seq: 1\r\n"
            b"Destination: evil-host\r\n"
            b"Length: 2\r\n"
            b"\r\n"
            b"ok\r\n"
        )
        frames, consumed = decode_stream(raw)
        assert frames == [WirePacket(txn="t00000001", wire=4, seq=1, payload=b"ok")]
        assert consumed == len(raw)

    def test_control_extra_headers_become_params(self):
        raw = (
            b"MSBC CONTROL t00000001\r\n"
            b"Wire: 0\r\n"
            b"Verb: PING\r\n"
            b"Token: a1\r\n"
            b"\r\n"
        )
        frames, _ = decode_stream(raw)
        assert frames[0].params == {"Token": "a1"}

    @pytest.mark.parametrize(
        "raw,reason_part",
        [
            (b"HTTP CONTROL t00000001\r\n\r\n", "start line"),
            (b"MSBC NOPE t00000001\r\n\r\n", "frame kind"),
            (b"MSBC CONTROL bad\r\n\r\n", "txn"),
            (b"MSBC CONTROL t00000001\r\nWire: 1\r\nVerb: PING\r\n\r\n", "service wire"),
            (b"MSBC CONTROL t00000001\r\nWire: 0\r\nVerb: NOPE\r\n\r\n", "verb"),
            (b"MSBC REPORT t00000001\r\nWire: 1\r\nSeq: 1\r\nStatus: 999\r\n\r\n", "status"),
            (b"MSBC SEND t00000001\r\nWire: 1\r\nSeq: 1\r\nLength: 01\r\n\r\n", "Length"),
            (b"MSBC SEND t00000001\r\nWire: 1\r\nSeq: 1\r\n\r\n", "Length"),
            (b"MSBC SEND t00000001\r\nWire: 1\r\nSeq: 1\r\nLength: 2\r\n\r\nabXY", "terminator"),
            (b"MSBC SEND t00000001\r\nWire: 1\r\nWire: 2\r\nSeq: 1\r\nLength: 0\r\n\r\n\r\n", "duplicate"),
            (b"MSBC CONTROL t00000001\r\nNoColon\r\n\r\n", "header"),
            (
                b"MSBC CONTROL t00000001\r\nWire: 0\r\nVerb: COMMISSIONED\r\nCtid: m-1\r\n"
                b"Wire: 4294967296\r\n\r\n",
                "Wire param",
            ),
            (
                b"MSBC CONTROL t00000001\r\nWire: 0\r\nVerb: AUTHORIZE\r\nCtid: m-1\r\n"
                b"Wire: 4294967296\r\n\r\n",
                "Wire param",
            ),
        ],
    )
    def test_malformed_input_rejected(self, raw, reason_part):
        with pytest.raises(ProtocolViolation) as err:
            decode_stream(raw)
        assert reason_part.lower() in err.value.reason.lower()

    def test_canonical_send_and_report_skip_the_general_path(self, monkeypatch):
        # encode_frame's SEND and REPORT layout is the codec's compiled
        # match; the general path's block check is never called for it.
        monkeypatch.setattr(codec, "_head", None)
        frames = [
            WirePacket(txn="t00000001", wire=4, seq=1, payload=b"\r\n\r\n"),
            DeliveryReport(txn="t00000001", wire=4, seq=1, status=200),
        ]
        data = b"".join(encode_frame(f) for f in frames)
        parser = StreamParser()
        assert [f for i in range(len(data)) for f in parser.feed(data[i : i + 1])] == frames

    def test_violation_offset_points_at_frame(self):
        good = encode_frame(ControlMessage(Verb.PING, {}, txn="t00000001"))
        with pytest.raises(ProtocolViolation) as err:
            decode_stream(good + b"JUNK JUNK JUNK\r\n\r\n")
        assert err.value.offset == len(good)

    def test_oversize_length_rejected_before_payload_arrives(self):
        raw = b"MSBC SEND t00000001\r\nWire: 1\r\nSeq: 1\r\nLength: 99999999\r\n\r\n"
        with pytest.raises(ProtocolViolation):
            decode_stream(raw)

    def test_overlong_header_line_refused_without_waiting(self):
        parser = StreamParser()
        assert parser.feed(b"MSBC SEND t00000001\r\n" + b"X" * 4096) == []
        with pytest.raises(ProtocolViolation) as err:
            parser.feed(b"X")  # 4097 bytes and still no CRLF
        assert "too long" in err.value.reason
        assert err.value.offset == len(b"MSBC SEND t00000001\r\n")

    def test_longest_header_line_split_at_its_cr(self):
        # A line of exactly MAX_LINE_BYTES is legal however TCP splits it,
        # also when one feed ends between its CR and its LF.
        line = b"X-Pad: " + b"a" * (MAX_LINE_BYTES - 7)
        stream = b"MSBC SEND t00000001\r\nWire: 1\r\nSeq: 1\r\nLength: 2\r\n" + line + b"\r\n\r\nhi\r\n"
        cut = stream.index(line) + len(line) + 1
        parser = StreamParser()
        assert parser.feed(stream[:cut]) == []
        assert parser.feed(stream[cut:]) == [WirePacket("t00000001", 1, 1, b"hi")]
        assert parser.consumed == len(stream)

    def test_too_many_headers_refused_without_waiting(self):
        start = b"MSBC CONTROL t00000001\r\nWire: 0\r\nVerb: PING\r\n"
        parser = StreamParser()
        params = b"".join(b"K%d: x\r\n" % i for i in range(62))
        assert parser.feed(start + params) == []  # 64 headers, no blank line
        with pytest.raises(ProtocolViolation) as err:
            parser.feed(b"K62: x\r\n")  # the 65th
        assert "too many headers" in err.value.reason
        assert err.value.offset == 0

    # 62 distinct header lines just under the line cap: a valid block of
    # about 250 KB, under both the line and the header-count caps.
    _LONG_HEAD = b"MSBC SEND t00000001\r\nWire: 1\r\nSeq: 1\r\nLength: 60000\r\n"
    _LONG_HEAD += b"".join(b"X-Pad-%02d: %b\r\n" % (i, b"a" * 4085) for i in range(59))

    @pytest.mark.parametrize(
        "stream,frames",
        [(_LONG_HEAD, 0), (_LONG_HEAD + b"\r\n" + b"p" * 60000 + b"\r\n", 1)],
        ids=["header-block-still-arriving", "payload-after-long-header-block"],
    )
    def test_trickled_frame_costs_linear_time(self, stream, frames):
        # Each feed must look only at the bytes it adds: re-reading the
        # frame from its start on every feed costs seconds of CPU on these streams.
        parser = StreamParser()
        got = []
        began = time.process_time()
        for i in range(0, len(stream), 128):
            got.extend(parser.feed(stream[i : i + 128]))
        assert time.process_time() - began < 0.5
        assert len(got) == frames
        assert parser.consumed + parser.buffered == len(stream)

    def test_signal_without_method_or_status(self):
        raw = (
            b"MSBC SIGNAL t00000001\r\n"
            b"From: a-1\r\nTo: b-1\r\nCall-ID: c-1\r\nCSeq: 1\r\n"
            b"Access-Type: radio\r\nLength: 0\r\n\r\n\r\n"
        )
        with pytest.raises(ProtocolViolation):
            decode_stream(raw)
