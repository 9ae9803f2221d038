"""End-to-end socket checks for the broker server's event loop."""

import logging
import os
import signal
import socket
import ssl
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import msbc
from msbc import tls
from msbc.interconnect import BrokerServer, ServerConfig, parse_directory
from msbc.interconnect import server as server_module
from msbc.gateway.link import Link, LinkControl, client_tls_context
from msbc.loop import READ, WRITE, EventLoop
from msbc.session import SendSignal, make_invite, on_signal
from msbc.wire import (
    Access,
    ControlMessage,
    MAX_FRAME_SIZE,
    Role,
    Security,
    SessionOffer,
    StreamParser,
    TxnGenerator,
    Verb,
    encode_frame,
)

DIRECTORY = "provider metering subscriber=as-metering\nrule meter.* -> metering\n"


class Client:
    def __init__(self, endpoint, tls_context=None):
        host, port = endpoint.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=5)
        if tls_context is not None:
            self.sock = tls_context.wrap_socket(self.sock, server_hostname=host)
        self.parser = StreamParser(max_payload=MAX_FRAME_SIZE)
        self.txns = TxnGenerator()

    def send(self, frame):
        self.sock.sendall(encode_frame(frame))

    def recv_frame(self, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.sock.settimeout(max(0.05, deadline - time.monotonic()))
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                continue
            if not data:
                raise ConnectionError("eof")
            frames = self.parser.feed(data)
            if frames:
                return frames[0]
        raise TimeoutError("no frame")

    def close(self):
        self.sock.close()


def offer(role=Role.LGW, provider=None):
    return SessionOffer(
        security=Security.PLAIN,
        max_frame_size=16384,
        payload_endpoint="127.0.0.1:1",
        role=role,
        provider=provider,
    )


@pytest.fixture
def server():
    with BrokerServer(parse_directory(DIRECTORY), ServerConfig(keepalive_interval_ms=500)) as srv:
        yield srv


def establish(server, subscriber="home-gw", access=Access.RADIO):
    client = Client(server.signal_endpoint)
    sess, invite = make_invite(subscriber, Role.LGW, None, access, offer(), client.txns.next())
    client.send(invite)
    reply = client.recv_frame()
    sess, actions = on_signal(sess, reply, txn=client.txns.next())
    client.send(actions[0].msg)
    return client, sess


def test_invite_over_socket(server):
    client, sess = establish(server)
    assert sess.state.value == "Established"
    assert sess.negotiated.payload_endpoint == server.payload_endpoint
    event = server.events.wait_for(lambda e: e.kind == "session_established", timeout=5)
    assert event is not None
    client.close()
    closed = server.events.wait_for(lambda e: e.kind == "session_closed", timeout=5)
    assert closed is not None and closed.detail == "connection-lost"


def test_payload_attach_over_socket(server):
    client, sess = establish(server)
    payload = Client(server.payload_endpoint)
    payload.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=payload.txns.next()))
    pong = payload.recv_frame()
    assert pong.verb is Verb.PONG and pong.params["Call-ID"] == sess.call_id
    payload.close()
    client.close()


def test_tls_payload_listener(server):
    client, sess = establish(server, access=Access.INTERNET)
    assert sess.negotiated.security is Security.SECURE
    assert sess.negotiated.payload_endpoint == server.payload_tls_endpoint
    payload = Client(server.payload_tls_endpoint, tls_context=client_tls_context())
    payload.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=payload.txns.next()))
    assert payload.recv_frame().verb is Verb.PONG
    payload.close()
    client.close()


def test_broker_pings_idle_session(server):
    client, _ = establish(server)
    ping = client.recv_frame(timeout=3)
    assert isinstance(ping, ControlMessage) and ping.verb is Verb.PING
    client.close()


def test_server_survives_garbage(server):
    sock = socket.create_connection(
        tuple(server.signal_endpoint.rsplit(":", 1)[0:1]) + (int(server.signal_endpoint.rsplit(":", 1)[1]),),
        timeout=5,
    )
    sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
    time.sleep(0.2)
    sock.close()
    # Still serving afterwards.
    client, sess = establish(server)
    assert sess.state.value == "Established"
    client.close()


def ping_pong(client, timeout=2.0):
    client.send(ControlMessage(Verb.PING, {}, txn=client.txns.next()))
    deadline = time.monotonic() + timeout
    while True:
        frame = client.recv_frame(timeout=max(0.01, deadline - time.monotonic()))
        if frame.verb is Verb.PONG:
            return


def test_start_adds_one_thread_and_stop_joins_it_with_live_connections():
    before = set(threading.enumerate())
    server = BrokerServer(parse_directory(DIRECTORY))
    server.start()
    added = set(threading.enumerate()) - before
    assert len(added) == 1
    client, sess = establish(server)
    payload = Client(server.payload_endpoint)
    payload.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=payload.txns.next()))
    assert payload.recv_frame().verb is Verb.PONG
    server.stop()
    assert not added.pop().is_alive()
    for conn in (client, payload):
        with pytest.raises(ConnectionError):
            conn.recv_frame(timeout=2)
        conn.close()


def test_peer_that_never_reads_stalls_nobody_and_is_dropped():
    config = ServerConfig(keepalive_interval_ms=400, buffer_max_bytes=256 * 1024)
    with BrokerServer(parse_directory(DIRECTORY), config) as server:
        stuck, stuck_sess = establish(server, subscriber="stuck-gw")
        live, _ = establish(server, subscriber="live-gw")
        # Each PING echoes ~60 KB of parameters back in its PONG, which the
        # stuck client never reads. Its PINGs keep the session's watchdog
        # quiet, so only the unsent-byte cap can drop it.
        params = {f"Pad-{i}": "x" * 4000 for i in range(15)}
        dropped = None
        deadline = time.monotonic() + 15
        while dropped is None and time.monotonic() < deadline:
            try:
                stuck.send(ControlMessage(Verb.PING, params, txn=stuck.txns.next()))
            except OSError:
                pass  # the broker already hung up
            ping_pong(live)  # raises if the broker is stalled
            dropped = server.events.wait_for(
                lambda e: e.kind == "session_closed" and e.session == stuck_sess.call_id,
                timeout=0,
            )
        assert dropped is not None and dropped.detail == "connection-lost"
        ping_pong(live)
        stuck.close()
        live.close()


def test_a_quiet_peer_that_never_reads_is_dropped_by_its_unsent_byte_deadline(caplog):
    # Once it goes quiet nothing more is written to this payload connection,
    # so only its own deadline, one interval after its last progress, can
    # drop it before the session's watchdog does, three intervals on.
    config = ServerConfig(keepalive_interval_ms=400, buffer_max_bytes=256 * 1024)
    with BrokerServer(parse_directory(DIRECTORY), config) as server:
        client, sess = establish(server, subscriber="stuck-gw")
        payload = Client(server.payload_endpoint)
        payload.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=payload.txns.next()))
        params = {f"Pad-{i}": "x" * 4000 for i in range(15)}  # echoed in each PONG
        deadline = time.monotonic() + 15
        while not server._stalled and time.monotonic() < deadline:
            payload.send(ControlMessage(Verb.PING, params, txn=payload.txns.next()))
        assert server._stalled
        deadline = time.monotonic() + 5
        while "unsent bytes" not in caplog.text and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "unsent bytes" in caplog.text
        assert server.events.count("watchdog_expired") == 0
        client.close()
        payload.close()


def test_unknown_dialog_error_arrives_before_eof(server):
    payload = Client(server.payload_endpoint)
    payload.send(ControlMessage(Verb.PING, {"Call-ID": "c-nope"}, txn=payload.txns.next()))
    error = payload.recv_frame()
    assert error.verb is Verb.ERROR and error.params["Reason"] == "unknown-dialog"
    with pytest.raises(ConnectionError):
        payload.recv_frame()
    payload.close()


def test_stalled_tls_handshake_blocks_no_other_attach(server):
    host, port = server.payload_tls_endpoint.rsplit(":", 1)
    silent = socket.create_connection((host, int(port)), timeout=5)  # never says hello
    client, sess = establish(server, access=Access.INTERNET)
    payload = Client(server.payload_tls_endpoint, tls_context=client_tls_context())
    payload.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=payload.txns.next()))
    assert payload.recv_frame().verb is Verb.PONG
    # The broker sees a TLS connection only once its handshake completes.
    assert len(server.broker.conns) == 2
    for sock in (silent, payload, client):
        sock.close()


def bio_handshake(raw, tls_obj, incoming, outgoing):
    """Drive a memory-BIO TLS handshake over the plain socket ``raw``."""
    while True:
        try:
            tls_obj.do_handshake()
            break
        except ssl.SSLWantReadError:
            raw.sendall(outgoing.read())
            incoming.write(raw.recv(65536))
    raw.sendall(outgoing.read())


def send_split(raw, tls_obj, outgoing, data):
    """Send ``data`` as one TLS record in two TCP segments, so the reader
    wakes on half a record."""
    tls_obj.write(data)
    record = outgoing.read()
    raw.sendall(record[:8])
    time.sleep(0.05)
    raw.sendall(record[8:])


def test_the_broker_reads_a_tls_record_that_arrives_in_two_segments(server):
    host, port = server.payload_tls_endpoint.rsplit(":", 1)
    incoming, outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
    tls_obj = client_tls_context().wrap_bio(incoming, outgoing, server_hostname=host)
    with socket.create_connection((host, int(port)), timeout=5) as raw:
        bio_handshake(raw, tls_obj, incoming, outgoing)
        time.sleep(0.05)  # the broker ends its handshake before the record starts
        ping = ControlMessage(Verb.PING, {"Call-ID": "c-nope"}, txn=TxnGenerator().next())
        send_split(raw, tls_obj, outgoing, encode_frame(ping))
        parser, frames = StreamParser(max_payload=MAX_FRAME_SIZE), []
        while not frames:
            data = raw.recv(65536)
            assert data, "the broker dropped the connection on half a TLS record"
            incoming.write(data)
            try:
                frames = parser.feed(tls_obj.read(65536))
            except ssl.SSLWantReadError:
                pass
    assert frames[0].verb is Verb.ERROR and frames[0].params["Reason"] == "unknown-dialog"


def test_a_secure_link_reads_a_tls_record_that_arrives_in_two_segments():
    context = server_module._self_signed_context()
    payload = b"one record, two segments"
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def serve():
            raw, _ = listener.accept()
            with raw:
                incoming, outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
                tls_obj = context.wrap_bio(incoming, outgoing, server_side=True)
                bio_handshake(raw, tls_obj, incoming, outgoing)
                time.sleep(0.1)  # the loop is waiting when the record starts
                send_split(raw, tls_obj, outgoing, payload)
                raw.recv(1)  # until the link closes

        server_thread = threading.Thread(target=serve)
        server_thread.start()
        got = []
        loop = EventLoop("t", lambda: None, lambda now: None, lambda: None)
        endpoint = f"127.0.0.1:{listener.getsockname()[1]}"
        Link(endpoint, LinkControl(), loop, lambda link: got.append(link.read()), secure=True)
        loop.start()
        deadline = time.monotonic() + 5
        while b"".join(g for g in got if g) != payload and b"" not in got and time.monotonic() < deadline:
            time.sleep(0.01)
        loop.stop()  # closes the link
        server_thread.join(timeout=5)
    assert not server_thread.is_alive()
    assert b"" not in got, "the link was lost on half a TLS record"
    assert b"".join(g for g in got if g) == payload


def test_tls_receive_drains_what_tls_has_already_decrypted():
    class Decrypted:  # an SSLSocket holding a second record past the first read
        def __init__(self):
            self.chunks = [b"ab", b"cde"]

        def recv(self, size):
            return self.chunks.pop(0)

        def pending(self):
            return len(self.chunks[0]) if self.chunks else 0

    assert tls.receive(Decrypted()) == b"abcde"
    assert tls.waits_for(ssl.SSLWantReadError()) == READ
    assert tls.waits_for(ssl.SSLWantWriteError()) == WRITE


def free_port():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return sock.getsockname()[1]


def child_env():
    """The environment of a fresh interpreter that imports this checkout's msbc."""
    src = str(Path(msbc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=child_env(), capture_output=True, text=True, timeout=30,
    )


def test_a_failed_start_closes_what_it_opened():
    signal_port = free_port()
    with socket.create_server(("127.0.0.1", 0)) as taken:
        config = ServerConfig(signal_port=signal_port, payload_port=taken.getsockname()[1])
        server = BrokerServer(parse_directory(DIRECTORY), config)
        with pytest.raises(OSError):
            server.start()
    socket.create_server(("127.0.0.1", signal_port)).close()  # the listener is gone
    server.stop()  # and a stop after the failed start is harmless


def test_a_tls_context_that_cannot_be_made_drops_only_that_peer(server, monkeypatch, caplog):
    def no_toolkit():
        raise ImportError("no TLS toolkit")

    monkeypatch.setattr(server_module, "_self_signed_context", no_toolkit)
    with caplog.at_level(logging.ERROR, logger="msbc.interconnect"):
        with pytest.raises(OSError):  # the broker hangs up during the handshake
            Client(server.payload_tls_endpoint, tls_context=client_tls_context())
    assert any("no TLS context" in r.getMessage() for r in caplog.records)
    # plain traffic is unaffected
    client, sess = establish(server)
    payload = Client(server.payload_endpoint)
    payload.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=payload.txns.next()))
    assert payload.recv_frame().verb is Verb.PONG
    # and the next TLS peer gets a context once one can be made
    monkeypatch.undo()
    secure = Client(server.payload_tls_endpoint, tls_context=client_tls_context())
    secure.send(ControlMessage(Verb.PING, {"Call-ID": sess.call_id}, txn=secure.txns.next()))
    assert secure.recv_frame().verb is Verb.PONG
    for conn in (secure, payload, client):
        conn.close()


FOOTPRINT = textwrap.dedent(
    """
    import sys
    from msbc.gateway import DeliveryStatus, GatewayConfig, open_gateway
    from msbc.interconnect import BrokerServer, parse_directory
    from msbc.wire import Access, Role, Security

    with BrokerServer(parse_directory(sys.argv[1])) as srv:
        asgw = open_gateway(GatewayConfig("as-metering", Role.ASGW, srv.signal_endpoint, provider="metering"))
        home = open_gateway(GatewayConfig("home-gw", Role.LGW, srv.signal_endpoint, access=Access.RADIO))
        assert home.attach_device("meter.a").wait(5).attached
        assert home.transmit("meter.a", b"reading").wait(5) is DeliveryStatus.DELIVERED
        home.close()
        assert "cryptography" not in sys.modules, "a plain-only broker loaded the TLS toolkit"
        assert "ssl" not in sys.modules, "a plain-only broker or gateway loaded ssl"
        wifi = open_gateway(GatewayConfig("wifi-gw", Role.LGW, srv.signal_endpoint, access=Access.INTERNET))
        assert wifi.negotiated.security is Security.SECURE
        assert "cryptography" in sys.modules
        assert "ssl" in sys.modules
        wifi.close()
        asgw.close()
    """
)


def test_a_broker_serving_only_plain_peers_never_loads_the_tls_toolkit():
    # A fresh process: this one may already hold the toolkit.
    result = run_python(FOOTPRINT, DIRECTORY)
    assert result.returncode == 0, result.stderr


def test_importing_the_broker_the_gateway_and_the_cli_loads_no_tls_or_uuid_module():
    # Nor the dataclass machinery (with the inspect it pulls in), nor the
    # scenario harness, which only the msbc-harness command needs.
    result = run_python(
        "import sys; import msbc.interconnect, msbc.gateway, msbc.cli; "
        "print(sorted(m for m in ('ssl', 'cryptography', 'uuid', 'dataclasses', 'inspect', 'msbc.harness')"
        " if m in sys.modules))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


BROKER_MAIN = "import sys; from msbc.cli import broker_main; sys.exit(broker_main(sys.argv[1:]))"


def test_broker_cli_prints_its_endpoints_and_exits_cleanly_on_sigterm(tmp_path):
    directory = tmp_path / "directory"
    directory.write_text(DIRECTORY)
    proc = subprocess.Popen(
        [sys.executable, "-c", BROKER_MAIN, "--directory", str(directory), "--log-level", "warning"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("# signal=127.0.0.1:") and " payload=" in line and " payload_tls=" in line
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        proc.communicate()


def test_broker_cli_exits_2_when_a_port_is_taken(tmp_path):
    directory = tmp_path / "directory"
    directory.write_text(DIRECTORY)
    config = tmp_path / "broker.conf"
    with socket.create_server(("127.0.0.1", 0)) as taken:
        config.write_text(f"payload_port = {taken.getsockname()[1]}\n")
        result = run_python(BROKER_MAIN, "--directory", str(directory), "--config", str(config))
    assert result.returncode == 2
    assert result.stderr.startswith("cannot listen: ")
