"""Acceptance gates, one test per budget. Each prints a single verdict line
(visible with -rA or -s); the scenario-driven gates replay the files under
scenarios/ and then re-check the headline numbers from the report here, so a
stale scenario file cannot quietly weaken a budget."""

import random
import string
import time
from pathlib import Path

from msbc.harness import ScenarioRunner, parse_scenario
from msbc.interconnect import SubscriptionDirectory, lookup_provider
from msbc.session import SessionState, on_signal
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

import test_session as session_table

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_TOKEN_CHARS = string.ascii_letters + string.digits + "._-"


def _run(name: str, seed: int = 0):
    path = SCENARIOS / f"{name}.scn"
    runner = ScenarioRunner(parse_scenario(path.read_text(), name=path.stem), seed=seed)
    report = runner.run()
    assert report.ok, f"{name} failed: {report.failures}"
    return runner, report


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. wire lifecycle latency

def test_c1_add_remove_ct_cycles_under_budget():
    t0 = time.monotonic()
    _, report = _run("add_remove_ct")
    runtime = time.monotonic() - t0
    cycles = report.wire_cycle_ms
    _verdict(
        "1 add_remove_ct",
        cycles.count == 100 and cycles.median < 75.0 and runtime < 30.0,
        f"cycles={cycles.count} median={cycles.median:.2f}ms runtime={runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. transfer latency

def test_c2_transfer_round_trips_under_budget():
    _, report = _run("transfer")
    rtt = report.transfer_rtt_ms
    _verdict(
        "2 transfer",
        rtt.count == 1000
        and rtt.median < 50.0
        and report.packets_delivered == 1000
        and report.packets_lost == 0,
        f"n={rtt.count} median={rtt.median:.2f}ms lost={report.packets_lost}",
    )


# ---------------------------------------------------------------------------
# 3. clean shutdown

def test_c3_clean_shutdown_releases_every_wire():
    runner, report = _run("clean_shutdown")
    events = runner.server.broker.events
    ctids = ["meter.electric", "meter.gas", "meter.water", "light.porch", "light.garage"]
    released_per_ctid = {c: events.count("released", c) for c in ctids}
    orphans = len(runner.server.broker.sessions) + len(runner.server.broker.table.by_ctid)
    _verdict(
        "3 clean_shutdown",
        report.teardown_clean
        and all(n == 2 for n in released_per_ctid.values())  # both ends of each wire
        and events.count("peer_down") == 0
        and orphans == 0,
        f"released={released_per_ctid} orphans={orphans}",
    )


# ---------------------------------------------------------------------------
# 4. watchdog detection

def test_c4_watchdog_flags_a_dead_uplink_in_time():
    runner, report = _run("watchdog")
    # 200 ms interval, 3 misses: the broker's timer fires at 600 ms; 50 ms of
    # slack for scheduling
    budget_ms = 200.0 * 3 + 50.0
    detect = report.watchdog_detect_ms
    peer_down = runner.server.broker.events.count("peer_down")
    _verdict(
        "4 watchdog",
        detect is not None and detect <= budget_ms and peer_down == 3,
        f"detect={detect and round(detect, 1)}ms budget={budget_ms:.0f}ms peer_down={peer_down}",
    )


# ---------------------------------------------------------------------------
# 5. access switch

def test_c5_access_switch_is_invisible_and_secure():
    runner, report = _run("access_switch")
    events = runner.server.broker.events
    seen = {e.ctid for e in events.snapshot() if e.kind == "commissioned"}
    _verdict(
        "5 access_switch",
        seen == {"meter.electric", "meter.gas"}
        and events.count("rebound") == 2
        and events.count("peer_down") == 0
        and report.packets_delivered == 20
        and report.packets_lost == 0,
        f"ctids={sorted(seen)} rebound={events.count('rebound')} "
        f"delivered={report.packets_delivered}",
    )


# ---------------------------------------------------------------------------
# 6. provider migration

def test_c6_as_migration_buffers_and_flushes_exactly_once():
    runner, report = _run("as_migration")
    events = runner.server.broker.events
    dropped = events.count("buffer_dropped") + events.count("packet_dropped")
    _verdict(
        "6 as_migration",
        report.packets_sent == 50
        and report.packets_delivered == 50
        and report.packets_lost == 0
        and report.conservation_holds()
        and events.count("buffering") >= 1
        and events.count("buffer_flush") >= 1
        and dropped == 0,
        f"delivered={report.packets_delivered}/50 dropped={dropped}",
    )


# ---------------------------------------------------------------------------
# 7. codec robustness

def _random_txn(rng: random.Random) -> str:
    return "".join(rng.choices(_TOKEN_CHARS, k=rng.randrange(8, 33)))


def _random_token(rng: random.Random, max_len: int = 24) -> str:
    return "".join(rng.choices(_TOKEN_CHARS, k=rng.randrange(1, max_len)))


def _sample_frames(rng: random.Random, n: int) -> list:
    frames = []
    for _ in range(n):
        shape = rng.randrange(6)
        if shape == 0:
            frames.append(
                WirePacket(
                    txn=_random_txn(rng),
                    wire=rng.randrange(1, 1 << 32),
                    seq=rng.randrange(1, 1 << 32),
                    payload=rng.randbytes(rng.randrange(0, 300)),
                )
            )
        elif shape == 1:
            frames.append(
                DeliveryReport(
                    txn=_random_txn(rng),
                    wire=rng.randrange(1, 1 << 32),
                    seq=rng.randrange(1, 1 << 32),
                    status=rng.choice([200, 480, 481]),
                )
            )
        elif shape == 2:
            frames.append(
                ControlMessage(
                    verb=rng.choice(list(Verb)),
                    params={"Ctid": _random_token(rng), "Wire": str(rng.randrange(100))},
                    txn=_random_txn(rng),
                )
            )
        else:
            offer = SessionOffer(
                security=rng.choice([Security.PLAIN, Security.SECURE]),
                max_frame_size=rng.randrange(64, 65536),
                payload_endpoint=f"127.0.0.1:{rng.randrange(1, 65536)}",
                role=Role.LGW,
            )
            if shape == 3:
                frames.append(
                    SignalMessage(
                        kind="request",
                        from_id=_random_token(rng),
                        to_id=_random_token(rng),
                        call_id=_random_token(rng),
                        cseq=rng.randrange(1, 1000),
                        access=rng.choice(list(Access)),
                        method=rng.choice([Method.BYE, Method.ACK]),
                        txn=_random_txn(rng),
                    )
                )
            elif shape == 4:
                frames.append(
                    SignalMessage(
                        kind="response",
                        from_id=_random_token(rng),
                        to_id=_random_token(rng),
                        call_id=_random_token(rng),
                        cseq=rng.randrange(1, 1000),
                        access=rng.choice(list(Access)),
                        status=rng.choice([100, 200, 403, 481, 488, 603]),
                        reason="Because",
                        body=offer if rng.random() < 0.5 else None,
                        txn=_random_txn(rng),
                    )
                )
            else:
                frames.append(
                    SignalMessage(
                        kind="request",
                        from_id=_random_token(rng),
                        to_id=_random_token(rng),
                        call_id=_random_token(rng),
                        cseq=rng.randrange(1, 1000),
                        access=rng.choice(list(Access)),
                        method=Method.INVITE,
                        body=offer,
                        txn=_random_txn(rng),
                    )
                )
    return frames


def test_c7_codec_survives_garbage_and_roundtrips():
    rng = random.Random(0xC0DEC)
    pool = [encode_frame(f) for f in _sample_frames(rng, 64)]
    fuzz_n = 100_000
    for i in range(fuzz_n):
        if i % 2 == 0:
            buf = rng.randbytes(rng.randrange(0, 80))
        else:
            corrupted = bytearray(rng.choice(pool))
            for _ in range(rng.randrange(1, 5)):
                corrupted[rng.randrange(len(corrupted))] = rng.randrange(256)
            buf = bytes(corrupted)
        try:
            decode_stream(buf)
        except ProtocolViolation:
            pass  # the one permitted complaint; anything else fails the test

    roundtrip_n = 2000
    for frame in _sample_frames(rng, roundtrip_n):
        encoded = encode_frame(frame)
        frames, used = decode_stream(encoded)
        assert frames == [frame]
        assert used == len(encoded)
        # byte-at-a-time-ish delivery must parse identically
        parser = StreamParser()
        got = []
        i = 0
        while i < len(encoded):
            j = i + rng.randrange(1, 7)
            got.extend(parser.feed(encoded[i:j]))
            i = j
        assert got == [frame]
    _verdict("7 codec", True, f"fuzzed={fuzz_n} roundtripped={roundtrip_n}")


# ---------------------------------------------------------------------------
# 8. routing vs brute force

def _brute_force_route(rules: list[tuple[str, str]], ctid: str) -> str | None:
    for pattern, provider in rules:
        if not pattern.endswith("*") and pattern == ctid:
            return provider
    best = None
    for pattern, provider in rules:
        if pattern.endswith("*") and ctid.startswith(pattern[:-1]):
            if best is None or len(pattern) > len(best[0]):
                best = (pattern, provider)
    return best[1] if best else None


def _random_directory(rng: random.Random):
    segments = ["a", "b", "ab", "ba", "a.a", "b.c"]
    directory = SubscriptionDirectory()
    n_providers = rng.randrange(1, 5)
    for i in range(n_providers):
        directory.add_provider(f"p{i}", f"as-p{i}")
    rules: list[tuple[str, str]] = []
    for _ in range(rng.randrange(1, 9)):
        body = ".".join(rng.choices(segments, k=rng.randrange(1, 3)))
        pattern = rng.choice([body, body + ".*", body + "*", "*"])
        provider = f"p{rng.randrange(n_providers)}"
        directory.add_rule(pattern, provider)
        rules.append((pattern, provider))
    return directory, rules


def test_c8_routing_agrees_with_brute_force():
    rng = random.Random(0x807E)
    segments = ["a", "b", "ab", "ba", "a.a", "b.c", "x"]
    pairs = 0
    while pairs < 10_000:
        directory, rules = _random_directory(rng)
        for _ in range(50):
            if rng.random() < 0.3:  # aim at a known pattern to hit exact rules
                ctid = rng.choice(rules)[0].rstrip("*") or "a"
                ctid = ctid.rstrip(".") or "a"
            else:
                ctid = ".".join(rng.choices(segments, k=rng.randrange(1, 4)))
            assert lookup_provider(directory, ctid) == _brute_force_route(rules, ctid), (
                f"divergence for {ctid!r} over {rules}"
            )
            pairs += 1
    _verdict("8 routing", True, f"pairs={pairs}")


# ---------------------------------------------------------------------------
# 9. session machine totality

def test_c9_transition_table_is_total_and_closed_absorbs():
    fixtures, stimuli = session_table.FIXTURES, session_table.STIMULI
    every_pair = {(f, s) for f in fixtures for s in stimuli}
    assert set(session_table.TABLE) == every_pair

    for fixture, stimulus in sorted(every_pair):
        sess = session_table._fixture(fixture)
        new, actions = on_signal(sess, session_table._stimulus(sess, stimulus), now=100.0)
        want_state, want_actions = session_table.TABLE[(fixture, stimulus)]
        assert new.state is want_state, (fixture, stimulus)
        assert [session_table._encode(a) for a in actions] == want_actions, (fixture, stimulus)

    closed = session_table._fixture("closed")
    for stimulus in stimuli:
        after, _ = on_signal(closed, session_table._stimulus(closed, stimulus), now=1.0)
        assert after.state is SessionState.CLOSED
    _verdict("9 session_table", True, f"pairs={len(every_pair)} closed_absorbing=yes")
