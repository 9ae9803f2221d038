"""Property suites for the codec: round trip, chunking equivalence, fuzz,
and agreement with the line-by-line reference parser."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_codec import ReferenceParser

from msbc.wire import (
    Access,
    ControlMessage,
    DeliveryReport,
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
from msbc.wire.codec import _CANONICAL, MAX_HEADER_COUNT, MAX_LINE_BYTES
from msbc.wire.types import MAX_FRAME_SIZE, _printable

token = st.text("ABCdefgh0129._-", min_size=1, max_size=12)
txn = st.text("abcdef0123456789", min_size=8, max_size=32)
ctid = st.text("abcdefgh0129._-", min_size=1, max_size=16)
wire_id = st.integers(min_value=0, max_value=0xFFFFFFFF)
seq = st.integers(min_value=1, max_value=2**64 - 1)

packets = st.builds(
    WirePacket,
    txn=txn,
    wire=wire_id,
    seq=seq,
    payload=st.binary(max_size=512),
)

reports = st.builds(
    DeliveryReport,
    txn=txn,
    wire=wire_id,
    seq=seq,
    status=st.sampled_from([200, 480, 481]),
)


@st.composite
def controls(draw):
    verb = draw(st.sampled_from(list(Verb)))
    params = draw(
        st.dictionaries(
            token.filter(lambda k: k not in ("Wire", "Verb", "Ctid")),
            st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=24),
            max_size=4,
        )
    )
    from msbc.wire.types import CTID_VERBS, WIRE_VERBS

    if verb in CTID_VERBS:
        params["Ctid"] = draw(ctid)
    if verb in WIRE_VERBS:
        params["Wire"] = str(draw(st.integers(min_value=0, max_value=99999)))
    return ControlMessage(verb=verb, params=params, txn=draw(txn))


@st.composite
def offers(draw):
    role = draw(st.sampled_from(list(Role)))
    return SessionOffer(
        security=draw(st.sampled_from(list(Security))),
        max_frame_size=draw(st.integers(min_value=64, max_value=1_048_576)),
        payload_endpoint=f"{draw(token)}:{draw(st.integers(1, 65535))}",
        role=role,
        provider=draw(token) if role is Role.ASGW else draw(st.none() | token),
    )


@st.composite
def signals(draw):
    common = dict(
        from_id=draw(ctid),
        to_id=draw(ctid),
        call_id=draw(ctid),
        cseq=draw(st.integers(min_value=1, max_value=2**31 - 1)),
        access=draw(st.sampled_from(list(Access))),
        txn=draw(txn),
    )
    if draw(st.booleans()):
        method = draw(st.sampled_from(list(Method)))
        body = draw(offers()) if method is Method.INVITE else None
        return SignalMessage(kind="request", method=method, body=body, **common)
    return SignalMessage(
        kind="response",
        status=draw(st.integers(min_value=100, max_value=699)),
        reason=draw(st.text("ABC abcdef", min_size=1, max_size=16)),
        body=draw(st.none() | offers()),
        **common,
    )


frames = st.one_of(packets, reports, controls(), signals())


@given(frames)
def test_round_trip_identity(frame):
    decoded, consumed = decode_stream(encode_frame(frame))
    assert decoded == [frame]
    assert consumed == len(encode_frame(frame))


@given(st.lists(frames, min_size=1, max_size=5), st.data())
@settings(max_examples=200)
def test_chunked_equals_whole(frame_list, data):
    stream = b"".join(encode_frame(f) for f in frame_list)
    whole, consumed = decode_stream(stream)
    assert consumed == len(stream)

    parser = StreamParser()
    collected = []
    pos = 0
    while pos < len(stream):
        size = data.draw(st.integers(min_value=1, max_value=len(stream) - pos))
        collected.extend(parser.feed(stream[pos : pos + size]))
        pos += size
    assert collected == whole == frame_list


@given(st.binary(max_size=300))
@settings(max_examples=500)
def test_random_bytes_never_crash(data):
    try:
        decode_stream(data)
    except ProtocolViolation:
        pass


@given(frames, st.binary(min_size=1, max_size=80))
@settings(max_examples=300)
def test_valid_prefix_then_garbage(frame, junk):
    good = encode_frame(frame)
    try:
        decoded, consumed = decode_stream(good + junk)
    except ProtocolViolation:
        decoded, consumed = decode_stream(good)
    assert decoded[:1] == [frame]
    assert consumed >= len(good)


def test_mutation_fuzz_no_hang():
    # Seeded corruption of real frames: flip, truncate, splice. The parser
    # must always return or raise, never loop or leak buffered state
    # past its caps.
    rng = random.Random(7)
    base = [
        encode_frame(WirePacket(txn="t0000000a", wire=3, seq=9, payload=b"x" * 40)),
        encode_frame(ControlMessage(Verb.AUTHORIZE, {"Ctid": "heart-007"}, txn="t0000000b")),
        encode_frame(DeliveryReport(txn="t0000000c", wire=1, seq=1, status=480)),
    ]
    for _ in range(2000):
        raw = bytearray(rng.choice(base))
        for _ in range(rng.randrange(1, 6)):
            op = rng.randrange(3)
            if op == 0 and raw:
                raw[rng.randrange(len(raw))] = rng.randrange(256)
            elif op == 1 and raw:
                del raw[rng.randrange(len(raw))]
            else:
                raw.insert(rng.randrange(len(raw) + 1), rng.randrange(256))
        try:
            decode_stream(bytes(raw))
        except ProtocolViolation:
            pass


# -- agreement with the reference parser ---------------------------------------
#
# tests/reference_codec.py is the parser as it was before the one-pass
# rewrite. On every input both must return the same frames, consume the
# same bytes and refuse the same inputs, at the same chunk, offset and
# reason.

differential = settings(derandomize=True, max_examples=100, deadline=None)


def _outcome(parser, chunks):
    frames = []
    for i, chunk in enumerate(chunks):
        try:
            frames.extend(parser.feed(chunk))
        except ProtocolViolation as exc:
            return frames, ("violation", i, exc.offset, exc.reason)
    return frames, ("ok", parser.consumed, parser.buffered)


def assert_agrees(chunks, max_payload=MAX_FRAME_SIZE):
    ours = _outcome(StreamParser(max_payload), chunks)
    assert ours == _outcome(ReferenceParser(max_payload), chunks)
    return ours


@st.composite
def chunked(draw, data):
    """``data`` cut into chunks at drawn points."""
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=6)))
    bounds = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


# Pieces of the grammar, so random input gets past the start line.
_soup = st.tuples(
    st.sampled_from(
        [b"", *(b"MSBC %s t00000001\r\n" % k for k in (b"SEND", b"REPORT", b"CONTROL", b"SIGNAL"))]
    ),
    st.lists(
        st.sampled_from(
            [
                b"\r\n", b"\r", b"\n", b"Wire: ", b"Seq: ", b"Length: ", b"Status: ", b"Verb: ",
                b"PING", b"Ctid: ", b"Method: INVITE", b"0", b"1", b"2", b"200", b"07", b": ",
                b" ", b"x", b"\x00", b"\xff",
            ]
        ),
        max_size=30,
    ).map(b"".join),
    st.sampled_from([b"", b"\r\n", b"\r\n\r\n", b"\r\n\r\nab\r\n"]),
).map(b"".join)


@given(st.data())
@differential
def test_random_bytes_agree_with_reference(data):
    raw = data.draw(st.one_of(st.binary(max_size=300), _soup))
    assert_agrees([raw])
    assert_agrees(data.draw(chunked(raw)))


# Header and offer values at and past each field's limits.
_values = [b"0", b"1", b"07", b"", b"63", b"99", b"404", b"480", b"700", b"999", b"1048577",
           b"4294967295", b"4294967296", b"18446744073709551615", b"18446744073709551616",
           b"NOPE", b"a b", b"ACK", b"BYE", b"PING", b"asgw", b"secure", b"host:0"]


@st.composite
def mutated(draw):
    """An encoded frame after header edits (a value replaced, a line dropped
    or repeated) or after the flips, deletions and insertions of
    test_mutation_fuzz_no_hang."""
    raw = encode_frame(draw(frames))
    edits = draw(st.integers(0, 2))
    for _ in range(edits):
        head, sep, rest = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        op = draw(st.sampled_from(["value", "value", "drop", "repeat"]))
        if op == "value":
            lines[i] = lines[i].partition(b": ")[0] + b": " + draw(st.sampled_from(_values))
        elif op == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        raw = b"\r\n".join(lines) + sep + rest
    raw = bytearray(raw)
    for _ in range(0 if edits else draw(st.integers(1, 5))):
        op = draw(st.integers(0, 2))
        byte = draw(st.integers(0, 255) | st.sampled_from(b"\r\n :0"))
        if op == 0 and raw:
            raw[draw(st.integers(0, len(raw) - 1))] = byte
        elif op == 1 and raw:
            del raw[draw(st.integers(0, len(raw) - 1))]
        else:
            raw.insert(draw(st.integers(0, len(raw))), byte)
    return bytes(raw)


def _single_edits(raw):
    """Every frame one header or offer line away from ``raw``: the line
    dropped, repeated, or its value replaced from _values. An offer edit
    rewrites the Length header to match the new body."""
    head, _, rest = raw.partition(b"\r\n\r\n")
    start, *headers = head.split(b"\r\n")

    def edits(lines):
        for i, line in enumerate(lines):
            yield lines[:i] + lines[i + 1 :]
            yield lines[:i] + [line] + lines[i:]
            for value in _values:
                yield lines[:i] + [line.partition(b": ")[0] + b": " + value] + lines[i + 1 :]

    def frame(header_lines, tail):
        return b"\r\n".join([start, *header_lines]) + b"\r\n\r\n" + tail

    for edited in edits(headers):
        yield frame(edited, rest)
    if start.startswith(b"MSBC SIGNAL") and rest != b"\r\n":
        for edited in edits(rest[:-2].split(b"\r\n")[:-1]):
            body = b"".join(line + b"\r\n" for line in edited)
            length = b"Length: %d" % len(body)
            fixed = [length if line.startswith(b"Length: ") else line for line in headers]
            yield frame(fixed, body + b"\r\n")


def test_every_single_edit_agrees_with_reference():
    caller = SessionOffer(Security.PLAIN, 16384, "127.0.0.1:5070", Role.ASGW, provider="grocery")
    dialog = dict(from_id="house-01", to_id="m2m-is", call_id="c-0001", cseq=1,
                  access=Access.RADIO, txn="t00000004")
    bases = [
        WirePacket(txn="t00000001", wire=3, seq=1, payload=b"ab"),
        DeliveryReport(txn="t00000002", wire=3, seq=1, status=200),
        ControlMessage(Verb.COMMISSIONED, {"Ctid": "meter-1", "Wire": "4"}, txn="t00000003"),
        SignalMessage(kind="request", method=Method.INVITE, body=caller, **dialog),
        SignalMessage(kind="response", status=200, reason="OK", body=caller, **dialog),
    ]
    refused = 0
    for base in bases:
        for raw in _single_edits(encode_frame(base)):
            refused += assert_agrees([raw])[1][0] == "violation"
    assert refused > 300  # most edits break a rule


@given(mutated(), st.data())
@differential
def test_mutated_frames_agree_with_reference(raw, data):
    assert_agrees([raw])
    assert_agrees(data.draw(chunked(raw)))


@given(st.lists(frames, min_size=1, max_size=4), st.data())
@differential
def test_chunked_streams_agree_with_reference(frame_list, data):
    stream = b"".join(encode_frame(f) for f in frame_list)
    got, end = assert_agrees(data.draw(chunked(stream)))
    assert got == frame_list
    assert end == ("ok", len(stream), 0)


@given(st.lists(mutated() | frames.map(encode_frame), min_size=1, max_size=3), st.data())
@differential
def test_trickled_streams_agree_with_reference(raws, data):
    # Small chunks make most feeds end inside a header block or a payload,
    # where the parser keeps what it learnt of the frame for the next feed.
    stream = b"".join(raws)
    sizes = data.draw(st.lists(st.integers(1, 16), min_size=1, max_size=8))
    chunks, at = [], 0
    while at < len(stream):
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(stream[at : at + size])
        at += size
    assert_agrees(chunks)


# SEND and REPORT blocks in the layout encode_frame writes take the codec's
# compiled match; every other layout takes the general path, which must
# read them alike.


@st.composite
def other_layouts(draw):
    """A SEND or REPORT and its bytes with the headers in another order or
    an unknown header added."""
    frame = draw(packets | reports)
    head, _, rest = encode_frame(frame).partition(b"\r\n\r\n")
    start, *headers = head.split(b"\r\n")
    layout = draw(st.permutations(headers))
    if layout == headers or draw(st.booleans()):
        extra = b"%b: %b" % (draw(token).encode(), draw(st.text("ab 9:-", max_size=8)).encode())
        layout.insert(draw(st.integers(0, len(layout))), extra)
    return frame, b"\r\n".join([start, *layout]) + b"\r\n\r\n" + rest


@given(other_layouts(), st.data())
@differential
def test_other_header_layouts_parse_like_the_canonical_one(case, data):
    frame, raw = case
    canonical = encode_frame(frame)
    assert _CANONICAL.match(canonical) and not _CANONICAL.match(raw)
    assert decode_stream(raw)[0] == decode_stream(canonical)[0] == [frame]
    got, end = assert_agrees(data.draw(chunked(raw)))
    assert got == [frame] and end == ("ok", len(raw), 0)


def _send(wire=b"1", seq=b"1", length=b"2", payload=b"ab\r\n"):
    """A SEND in encode_frame's layout, its fields as given."""
    head = b"MSBC SEND t00000001\r\nWire: %b\r\nSeq: %b\r\nLength: %b\r\n\r\n"
    return head % (wire, seq, length) + payload


# Beside the single edits above: each number at its limits with a payload
# still to come, and the payload's own edge cases.
_EDGES = [
    *(_send(wire=value) for value in (b"0", b"4294967295", b"4294967296", b"04")),
    *(_send(seq=value) for value in (b"18446744073709551615", b"18446744073709551616", b"0", b"01")),
    _send(length=b"64", payload=b"p" * 64 + b"\r\n"),
    _send(length=b"65", payload=b"p" * 65 + b"\r\n"),
    _send(length=b"02"),
    _send(length=b"0", payload=b"\r\n"),
    _send(payload=b"abXY"),  # no payload terminator
    _send(payload=b"ab\r"),  # still arriving
    _send(payload=b"\r\n\r\n") * 2,
]


@pytest.mark.parametrize("raw", _EDGES)
def test_canonical_layout_edges_agree_with_reference(raw):
    # max_payload 64 puts the Length cap in reach; byte-at-a-time feeds keep
    # a SEND's payload arriving after its block has matched.
    assert_agrees([raw], max_payload=64)
    assert_agrees([raw[i : i + 1] for i in range(len(raw))], max_payload=64)


@pytest.mark.parametrize("length", [MAX_FRAME_SIZE, MAX_FRAME_SIZE + 1])
def test_largest_payload_agrees_with_reference(length):
    assert_agrees([_send(length=b"%d" % length, payload=b"p" * length + b"\r\n")])


@given(st.text())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_printable_is_printable_ascii(value):
    assert _printable(value) == all(0x20 <= ord(ch) <= 0x7E for ch in value)


@st.composite
def capped_frames(draw):
    """A valid SEND or CONTROL with up to MAX_HEADER_COUNT header lines, a
    few of them MAX_LINE_BYTES long or nearly so."""
    count = draw(st.integers(MAX_HEADER_COUNT - 3, MAX_HEADER_COUNT))
    lengths = draw(st.lists(st.integers(MAX_LINE_BYTES - 2, MAX_LINE_BYTES), max_size=3))
    if draw(st.booleans()):
        # Wire and Verb come first; each param line "Pnn: value" is 6 + len(value)
        values = [("v" * (n - 6)) for n in lengths] + ["v"] * (count - 2 - len(lengths))
        params = {f"P{i:02d}": value for i, value in enumerate(values)}
        return encode_frame(ControlMessage(Verb.PING, params, txn=draw(txn)))
    # Wire, Seq and Length, then pad lines "X-Pad-nn: value" of 10 + len(value)
    payload = draw(st.binary(max_size=16).map(lambda b: b"\r\n" + b + b"\r"))
    pads = [b"a" * (n - 10) for n in lengths] + [b"a"] * (count - 3 - len(lengths))
    head = b"MSBC SEND %b\r\nWire: 1\r\nSeq: 1\r\nLength: %d\r\n" % (draw(txn).encode(), len(payload))
    head += b"".join(b"X-Pad-%02d: %b\r\n" % (i, pad) for i, pad in enumerate(pads))
    return head + b"\r\n" + payload + b"\r\n"


@given(st.lists(capped_frames(), min_size=1, max_size=2))
@settings(max_examples=15)
def test_every_split_at_a_line_end_parses_like_the_whole(raws):
    # No oracle: a stream cut in two just before, inside or just after any
    # CRLF (payload bytes included) yields the frames and the consumed count
    # of the whole stream.
    stream = b"".join(raws)
    whole = StreamParser()
    frames = whole.feed(stream)
    assert len(frames) == len(raws) and whole.consumed == len(stream)
    cuts = sorted({i + d for i in range(len(stream)) if stream[i] in b"\r\n" for d in (0, 1)})
    for cut in cuts:
        parser = StreamParser()
        got = parser.feed(stream[:cut]) + parser.feed(stream[cut:])
        assert (got, parser.consumed) == (frames, whole.consumed), cut
