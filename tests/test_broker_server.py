"""End-to-end socket checks for the broker server's event loop."""

import socket
import threading
import time

import pytest

from msbc.interconnect import BrokerServer, ServerConfig, parse_directory
from msbc.gateway.link import client_tls_context
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
    sess, actions = on_signal(sess, reply, 0.0, txn=client.txns.next())
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
