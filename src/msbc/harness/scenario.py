"""Line-oriented scenario runner.

A scenario file declares a routing directory (``provider``/``rule`` lines,
same syntax as the broker directory format), then drives brokers, gateways,
traffic, and faults through ``step`` lines:

    scenario transfer
    provider metering subscriber=as-metering
    rule meter.* -> metering
    step start_broker keepalive_interval_ms=200
    step start_gateway meters asgw as-metering provider=metering
    step start_gateway home lgw home-1
    step attach home meter.a
    repeat 10
      step transmit home meter.a 256
    end
    step expect_data meters meter.a 10
    step assert_metric transfer_rtt_ms median < 50

``repeat N`` / ``end`` blocks are flattened at parse time. Payload bytes
come from a seeded RNG, so two runs with the same seed drive identical
traffic; assertions are evaluated against the broker's serialized event log
and the runner's own delivery accounting.
"""

from __future__ import annotations

import random
import re
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from msbc.gateway import (
    AttachError,
    Delivery,
    DeliveryStatus,
    Gateway,
    GatewayConfig,
    GatewayState,
    Receiver,
    SessionRejected,
)
from msbc.harness.faults import inject_fault, resolve_target
from msbc.harness.metrics import Distribution, MetricsReport
from msbc.interconnect import BrokerServer, ServerConfig, parse_directory
from msbc.wire import Access, Role, Security

_DEFAULT_STEP_TIMEOUT = 10.0

_KWARG_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


def _now_ms() -> float:
    return time.monotonic() * 1000.0


@dataclass(frozen=True)
class Step:
    verb: str
    args: tuple[str, ...]
    kwargs: dict[str, str]
    line_no: int

    def __str__(self) -> str:
        parts = [self.verb, *self.args]
        parts.extend(f"{k}={v}" for k, v in self.kwargs.items())
        return f"line {self.line_no}: step " + " ".join(parts)


@dataclass
class Scenario:
    name: str
    directory_text: str = ""
    steps: list[Step] = field(default_factory=list)


class ScenarioFailed(AssertionError):
    def __init__(self, step: Step, expectation: str, log_excerpt: str = ""):
        message = f"{step}: {expectation}"
        if log_excerpt:
            message += "\nrecent broker events:\n" + log_excerpt
        super().__init__(message)
        self.step = step
        self.expectation = expectation


def parse_scenario(text: str, name: str = "unnamed") -> Scenario:
    scenario = Scenario(name=name)
    directory_lines: list[str] = []
    repeat_count: int | None = None
    repeat_body: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "scenario":
            if len(tokens) != 2:
                raise ValueError(f"line {line_no}: scenario takes exactly one name")
            scenario.name = tokens[1]
        elif head in ("provider", "rule"):
            directory_lines.append(line)
        elif head == "repeat":
            if repeat_count is not None:
                raise ValueError(f"line {line_no}: repeat blocks do not nest")
            if len(tokens) != 2 or not tokens[1].isdigit() or int(tokens[1]) < 1:
                raise ValueError(f"line {line_no}: repeat needs a positive count")
            repeat_count = int(tokens[1])
            repeat_body = []
        elif head == "end":
            if repeat_count is None:
                raise ValueError(f"line {line_no}: end without repeat")
            scenario.steps.extend(repeat_body * repeat_count)
            repeat_count = None
        elif head == "step":
            if len(tokens) < 2:
                raise ValueError(f"line {line_no}: step needs a verb")
            args = []
            kwargs: dict[str, str] = {}
            for token in tokens[2:]:
                # only name=value tokens are settings; "==" and "<=" are not
                if _KWARG_RE.match(token):
                    key, _, value = token.partition("=")
                    kwargs[key] = value
                else:
                    args.append(token)
            step = Step(tokens[1], tuple(args), kwargs, line_no)
            (repeat_body if repeat_count is not None else scenario.steps).append(step)
        else:
            raise ValueError(f"line {line_no}: unrecognized directive {head!r}")
    if repeat_count is not None:
        raise ValueError("unterminated repeat block")
    scenario.directory_text = "\n".join(directory_lines)
    return scenario


class RecordingReceiver(Receiver):
    """Receiver that records everything and lets the runner block on counts."""

    def __init__(self):
        self.cond = threading.Condition()
        self.by_ctid: dict[str, list[bytes]] = defaultdict(list)
        self.attached: list[str] = []
        self.detached: list[str] = []
        self.peer_down: list[str] = []
        self.states: list[GatewayState] = []

    def _record(self, target: list, value) -> None:
        with self.cond:
            target.append(value)
            self.cond.notify_all()

    def on_data(self, ctid, payload):
        with self.cond:
            self.by_ctid[ctid].append(payload)
            self.cond.notify_all()

    def on_attached(self, ctid):
        self._record(self.attached, ctid)

    def on_detached(self, ctid):
        self._record(self.detached, ctid)

    def on_peer_down(self, ctid):
        self._record(self.peer_down, ctid)

    def on_state(self, state):
        self._record(self.states, state)

    def payloads(self, ctid: str) -> list[bytes]:
        with self.cond:
            return list(self.by_ctid[ctid])

    def wait_data(self, ctid: str, count: int, timeout: float) -> bool:
        with self.cond:
            return self.cond.wait_for(lambda: len(self.by_ctid[ctid]) >= count, timeout)

    def wait_list(self, name: str, count: int, timeout: float) -> bool:
        target = getattr(self, name)
        with self.cond:
            return self.cond.wait_for(lambda: len(target) >= count, timeout)


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}

_ROLES = {"lgw": Role.LGW, "asgw": Role.ASGW}

_SERVER_FIELDS = {
    "host": str,
    "keepalive_interval_ms": float,
    "keepalive_misses": int,
    "buffer_max_packets": int,
    "buffer_max_bytes": int,
    "max_frame_size": int,
}

_GATEWAY_FIELDS = {
    "access": lambda v: Access(v),
    "provider": str,
    "max_frame_size": int,
    "keepalive_interval_ms": float,
    "keepalive_misses": int,
    "report_timeout_ms": float,
    "local_address": str,
}


class ScenarioRunner:
    """Executes one scenario against a private broker and gateways."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.report = MetricsReport(scenario=scenario.name)
        self.server: BrokerServer | None = None
        self.gateways: dict[str, Gateway] = {}
        self.receivers: dict[str, RecordingReceiver] = {}
        self.dead: set[str] = set()  # killed or stopped; skip at cleanup
        self.sent: dict[tuple[str, str], list[bytes]] = defaultdict(list)
        self.pending: list[Delivery] = []
        self.attach_start: dict[tuple[str, str], float] = {}
        self.attached: dict[str, set[str]] = defaultdict(set)
        self.kill_ms: float | None = None
        self.require_clean = False

    # -- public entry points -------------------------------------------------

    def run(self, raise_on_failure: bool = False) -> MetricsReport:
        try:
            for step in self.scenario.steps:
                try:
                    self._dispatch(step)
                except ScenarioFailed as failure:
                    self.report.failures.append(str(failure))
                    if raise_on_failure:
                        raise
                    break  # state is unreliable after a failed expectation
        finally:
            self._finalize()
        return self.report

    # -- step dispatch -------------------------------------------------------

    def _dispatch(self, step: Step) -> None:
        handler = getattr(self, f"_step_{step.verb}", None)
        if handler is None:
            raise ValueError(f"{step}: unknown verb {step.verb!r}")
        handler(step)

    def _fail(self, step: Step, expectation: str) -> ScenarioFailed:
        excerpt = ""
        if self.server is not None:
            lines = [e.format_line() for e in self.server.broker.events.snapshot()[-12:]]
            excerpt = "\n".join(lines)
        return ScenarioFailed(step, expectation, excerpt)

    def _timeout(self, step: Step) -> float:
        return float(step.kwargs.get("timeout", _DEFAULT_STEP_TIMEOUT))

    def _gateway(self, step: Step, name: str) -> Gateway:
        try:
            return resolve_target(self.gateways, name)
        except KeyError:
            raise self._fail(step, f"no gateway named {name!r}") from None

    def _events(self):
        assert self.server is not None, "start_broker must run first"
        return self.server.broker.events

    def _step_start_broker(self, step: Step) -> None:
        if self.server is not None:
            raise self._fail(step, "broker already started")
        kwargs = {}
        for key, value in step.kwargs.items():
            conv = _SERVER_FIELDS.get(key)
            if conv is None:
                raise self._fail(step, f"unknown broker setting {key!r}")
            kwargs[key] = conv(value)
        directory = parse_directory(self.scenario.directory_text)
        self.server = BrokerServer(directory, ServerConfig(**kwargs))
        self.server.start()

    def _step_start_gateway(self, step: Step) -> None:
        if self.server is None:
            raise self._fail(step, "start_broker must come first")
        if len(step.args) != 3:
            raise self._fail(step, "usage: start_gateway <name> <lgw|asgw> <subscriber>")
        name, role_word, subscriber = step.args
        if name in self.gateways:
            raise self._fail(step, f"gateway {name!r} already started")
        role = _ROLES.get(role_word)
        if role is None:
            raise self._fail(step, f"role must be lgw or asgw, not {role_word!r}")
        kwargs = {}
        for key, value in step.kwargs.items():
            if key == "timeout":
                continue
            conv = _GATEWAY_FIELDS.get(key)
            if conv is None:
                raise self._fail(step, f"unknown gateway setting {key!r}")
            kwargs[key] = conv(value)
        # gateways inherit the broker's keepalive cadence unless overridden
        kwargs.setdefault("keepalive_interval_ms", self.server.config.keepalive_interval_ms)
        kwargs.setdefault("keepalive_misses", self.server.config.keepalive_misses)
        config = GatewayConfig(subscriber, role, self.server.signal_endpoint, **kwargs)
        receiver = RecordingReceiver()
        gateway = Gateway(config, receiver)
        try:
            gateway.open(wait=True, timeout=self._timeout(step))
        except (SessionRejected, TimeoutError) as exc:
            gateway.abort()
            raise self._fail(step, f"gateway {name!r} failed to open: {exc}") from exc
        self.gateways[name] = gateway
        self.receivers[name] = receiver

    def _step_attach(self, step: Step) -> None:
        name, ctid = step.args
        gateway = self._gateway(step, name)
        start = _now_ms()
        try:
            attachment = gateway.attach_device(ctid).wait(self._timeout(step))
        except (AttachError, TimeoutError) as exc:
            raise self._fail(step, f"attach {ctid} failed: {exc}") from exc
        self.report.wire_setup_ms.add(_now_ms() - start)
        self.attach_start[(name, ctid)] = start
        self.attached[name].add(ctid)
        assert attachment.wire is not None

    def _step_detach(self, step: Step) -> None:
        name, ctid = step.args
        gateway = self._gateway(step, name)
        if not gateway.detach_device(ctid).wait(self._timeout(step)):
            raise self._fail(step, f"detach {ctid} not acknowledged")
        self.attached[name].discard(ctid)
        start = self.attach_start.pop((name, ctid), None)
        if start is not None:
            # full commission->release round trip for this wire
            self.report.wire_cycle_ms.add(_now_ms() - start)

    def _step_transmit(self, step: Step) -> None:
        name, ctid, size_word = step.args
        gateway = self._gateway(step, name)
        size = int(size_word)
        count = int(step.kwargs.get("count", "1"))
        gap_s = float(step.kwargs.get("gap_ms", "0")) / 1000.0
        sync = step.kwargs.get("mode", "sync") == "sync"
        timeout = self._timeout(step)
        for _ in range(count):
            payload = self.rng.randbytes(size)
            self.sent[(name, ctid)].append(payload)
            start = _now_ms()
            delivery = gateway.transmit(ctid, payload)
            self.report.packets_sent += 1
            if sync:
                try:
                    status = delivery.wait(timeout)
                except TimeoutError:
                    raise self._fail(step, f"no delivery report for {ctid} within {timeout}s")
                if status is DeliveryStatus.DELIVERED:
                    self.report.packets_delivered += 1
                    self.report.transfer_rtt_ms.add(_now_ms() - start)
                else:
                    self.report.packets_lost += 1
            else:
                self.pending.append(delivery)
            if gap_s:
                time.sleep(gap_s)

    def _step_expect_data(self, step: Step) -> None:
        name, ctid, count_word = step.args
        receiver = self.receivers.get(name)
        if receiver is None:
            raise self._fail(step, f"no gateway named {name!r}")
        count = int(count_word)
        if not receiver.wait_data(ctid, count, self._timeout(step)):
            have = len(receiver.payloads(ctid))
            raise self._fail(step, f"expected {count} payloads on {ctid}, saw {have}")

    def _step_expect_detached(self, step: Step) -> None:
        self._expect_list(step, "detached")

    def _step_expect_peer_down(self, step: Step) -> None:
        self._expect_list(step, "peer_down")

    def _expect_list(self, step: Step, kind: str) -> None:
        name, count_word = step.args
        receiver = self.receivers.get(name)
        if receiver is None:
            raise self._fail(step, f"no gateway named {name!r}")
        count = int(count_word)
        if not receiver.wait_list(kind, count, self._timeout(step)):
            have = len(getattr(receiver, kind))
            raise self._fail(step, f"expected {count} {kind} callbacks, saw {have}")

    def _step_expect_event(self, step: Step) -> None:
        (kind,) = step.args
        ctid = step.kwargs.get("ctid")
        count = int(step.kwargs.get("count", "1"))
        deadline = time.monotonic() + self._timeout(step)
        events = self._events()
        while events.count(kind, ctid) < count:
            if time.monotonic() >= deadline:
                raise self._fail(
                    step, f"expected {count} {kind} events, saw {events.count(kind, ctid)}"
                )
            time.sleep(0.01)
        if self.kill_ms is not None and self.report.watchdog_detect_ms is None:
            if kind in ("watchdog_expired", "peer_down"):
                for event in events.snapshot():
                    if event.kind == kind and event.ts_ms >= self.kill_ms:
                        self.report.watchdog_detect_ms = event.ts_ms - self.kill_ms
                        break

    def _step_kill_link(self, step: Step) -> None:
        (name,) = step.args
        inject_fault("kill_link", self._gateway(step, name))
        self.kill_ms = _now_ms()

    def _step_restore_link(self, step: Step) -> None:
        (name,) = step.args
        inject_fault("restore_link", self._gateway(step, name))

    def _step_kill_process(self, step: Step) -> None:
        (name,) = step.args
        inject_fault("kill_process", self._gateway(step, name))
        self.kill_ms = _now_ms()
        self.dead.add(name)

    def _step_switch_endpoint(self, step: Step) -> None:
        (name,) = step.args
        gateway = self._gateway(step, name)
        access = Access(step.kwargs["access"]) if "access" in step.kwargs else None
        local = step.kwargs.get("local_address")
        inject_fault("switch_endpoint", gateway, access=access, local_address=local)
        deadline = time.monotonic() + self._timeout(step)
        try:
            gateway.wait_until_open(self._timeout(step))
        except (SessionRejected, TimeoutError) as exc:
            raise self._fail(
                step,
                f"gateway {name!r} did not re-open: {exc} "
                f"(state={gateway.state.value} attachments={gateway.attachments()})",
            ) from exc
        # attachments re-form asynchronously after the new session opens
        want = self.attached[name]
        while not want <= set(gateway.attachments()):
            if time.monotonic() >= deadline:
                missing = sorted(want - set(gateway.attachments()))
                raise self._fail(step, f"devices not re-attached after switch: {missing}")
            time.sleep(0.005)

    def _step_stop_gateway(self, step: Step) -> None:
        (name,) = step.args
        gateway = self._gateway(step, name)
        gateway.close(timeout=self._timeout(step))
        self.dead.add(name)

    def _step_wait(self, step: Step) -> None:
        (seconds,) = step.args
        time.sleep(float(seconds))

    def _step_drain(self, step: Step) -> None:
        """Wait for outstanding async deliveries to resolve."""
        self._drain_pending(self._timeout(step))
        if self.pending:
            raise self._fail(step, f"{len(self.pending)} deliveries still unresolved")

    def _step_assert_metric(self, step: Step) -> None:
        if len(step.args) == 4:
            metric, stat, op_word, threshold_word = step.args
            try:
                value = self.report.distribution(metric).stat(stat)
            except KeyError as exc:
                raise self._fail(step, str(exc)) from exc
        elif len(step.args) == 3:
            metric, op_word, threshold_word = step.args
            scalar = getattr(self.report, metric, None)
            if not isinstance(scalar, (int, float)):
                raise self._fail(step, f"unknown scalar metric {metric!r}")
            value = float(scalar)
        else:
            raise self._fail(step, "usage: assert_metric <metric> [stat] <op> <value>")
        op = _OPS.get(op_word)
        if op is None:
            raise self._fail(step, f"unknown comparison {op_word!r}")
        if not op(value, float(threshold_word)):
            raise self._fail(step, f"{metric} is {value:.3f}, wanted {op_word} {threshold_word}")

    def _step_assert_ordered(self, step: Step) -> None:
        src, dst, ctid = step.args
        receiver = self.receivers.get(dst)
        if receiver is None:
            raise self._fail(step, f"no gateway named {dst!r}")
        want = self.sent.get((src, ctid), [])
        if "last" in step.kwargs:
            want = want[-int(step.kwargs["last"]) :]
        got = receiver.payloads(ctid)
        if want != got:
            raise self._fail(
                step,
                f"{ctid}: {dst} saw {len(got)} payloads, {src} sent {len(want)}"
                + ("" if len(got) != len(want) else "; same count but different order/content"),
            )

    def _step_assert_no_event(self, step: Step) -> None:
        (kind,) = step.args
        count = self._events().count(kind, step.kwargs.get("ctid"))
        if count:
            raise self._fail(step, f"expected no {kind} events, saw {count}")

    def _step_assert_secure(self, step: Step) -> None:
        (name,) = step.args
        gateway = self._gateway(step, name)
        negotiated = gateway.negotiated
        if negotiated is None or negotiated.security is not Security.SECURE:
            raise self._fail(step, f"gateway {name!r} channel is not secure")

    def _step_assert_conservation(self, step: Step) -> None:
        self._drain_pending(grace=0.0)
        if not self.report.conservation_holds():
            r = self.report
            raise self._fail(
                step,
                f"sent={r.packets_sent} != delivered={r.packets_delivered} "
                f"+ lost={r.packets_lost} + buffered={r.packets_buffered}",
            )

    def _step_assert_teardown_clean(self, step: Step) -> None:
        self.require_clean = True  # evaluated after all entities stop

    # -- finalization --------------------------------------------------------

    def _drain_pending(self, grace: float) -> None:
        deadline = time.monotonic() + grace
        still = []
        for delivery in self.pending:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                status = delivery.wait(remaining)
            except TimeoutError:
                still.append(delivery)
                continue
            if status is DeliveryStatus.DELIVERED:
                self.report.packets_delivered += 1
            else:
                self.report.packets_lost += 1
        self.pending = still
        self.report.packets_buffered = len(self.pending)

    def _finalize(self) -> None:
        self._drain_pending(grace=2.0 if self.pending else 0.0)
        for name, gateway in self.gateways.items():
            if name in self.dead or gateway.control.blackhole:
                gateway.abort()  # killed or dark: no point in a farewell
            else:
                gateway.close(timeout=5.0)
        if self.server is not None:
            self._wait_quiescent(timeout=3.0)
            self.server.stop()
            # the loop thread has ended: this read races nothing
            state = self.server.broker.teardown_state()
            self.report.teardown_clean = state["clean"]
            if self.require_clean and not state["clean"]:
                self.report.failures.append(
                    f"teardown left sessions {state['sessions']}, wires for {state['table']}"
                    f" and wires held by {state['holding_wires']}"
                )
        for gateway in self.gateways.values():
            gateway.abort()

    def _wait_quiescent(self, timeout: float) -> None:
        """Give the broker up to ``timeout`` to finish tearing down. These
        reads race its loop thread, so they only decide when to stop waiting."""
        assert self.server is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not self.server.broker.teardown_state()["clean"]:
            time.sleep(0.02)


def run_scenario(
    scenario: Scenario | str, seed: int = 0, raise_on_failure: bool = False
) -> MetricsReport:
    if isinstance(scenario, str):
        scenario = parse_scenario(scenario)
    return ScenarioRunner(scenario, seed=seed).run(raise_on_failure=raise_on_failure)


def run_scenario_file(
    path: str | Path, seed: int = 0, raise_on_failure: bool = False
) -> MetricsReport:
    path = Path(path)
    scenario = parse_scenario(path.read_text(), name=path.stem)
    return ScenarioRunner(scenario, seed=seed).run(raise_on_failure=raise_on_failure)
