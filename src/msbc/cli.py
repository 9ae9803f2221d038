"""Command-line entry points: broker daemon, directory admin, scenario harness."""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
import time
from pathlib import Path

from msbc.interconnect import (
    BrokerServer,
    EventLog,
    ParseError,
    ServerConfig,
    SubscriptionDirectory,
    load_directory,
    lookup_provider,
    save_directory,
)


def _load_server_config(path: str) -> ServerConfig:
    """Key=value lines, '#' comments; keys are ServerConfig's fields, each
    converted to the type of its default."""
    defaults = ServerConfig()
    fields = [name for cls in ServerConfig.__mro__ for name in getattr(cls, "__slots__", ())]
    converters = {name: type(getattr(defaults, name)) for name in fields}
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        conv = converters.get(key)
        if not sep or conv is None:
            raise SystemExit(f"{path}:{line_no}: unknown config line {line!r}")
        try:
            values[key] = conv(value)
        except ValueError:
            raise SystemExit(f"{path}:{line_no}: bad value for {key}: {value!r}") from None
    return ServerConfig(**values)


def broker_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="msbc-broker", description="Run the interconnect broker."
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--directory", required=True, help="provider/rule directory file")
    parser.add_argument("--log-level", default="info", help="debug|info|warning|error")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=args.log_level.upper(), format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    try:
        directory = load_directory(args.directory)
    except (OSError, ParseError) as exc:
        print(f"directory error: {exc}", file=sys.stderr)
        return 2
    config = _load_server_config(args.config) if args.config else ServerConfig()
    events = EventLog(sink=lambda event: print(event.format_line(), flush=True))
    server = BrokerServer(directory, config, events)

    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        # explicit handlers: a daemonized process may inherit SIGINT as ignored
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())

    try:
        server.start()
    except OSError as exc:
        print(f"cannot listen: {exc}", file=sys.stderr)
        return 2
    print(
        f"# signal={server.signal_endpoint} payload={server.payload_endpoint} "
        f"payload_tls={server.payload_tls_endpoint}",
        flush=True,
    )
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def admin_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="msbc-admin", description="Manage a broker directory file."
    )
    parser.add_argument("file", help="directory file to operate on")
    sub = parser.add_subparsers(dest="command", required=True)
    p_add = sub.add_parser("add-provider", help="register a provider")
    p_add.add_argument("provider_id")
    p_add.add_argument("subscriber")
    r_add = sub.add_parser("add-rule", help="route a ctid pattern to a provider")
    r_add.add_argument("pattern")
    r_add.add_argument("provider_id")
    sub.add_parser("list", help="print providers and rules")
    p_val = sub.add_parser("validate", help="parse and sanity-check the file")
    p_val.add_argument("--ctid", help="also show where this ctid would route")
    args = parser.parse_args(argv)

    path = Path(args.file)
    if args.command in ("add-provider", "add-rule") and not path.exists():
        directory = SubscriptionDirectory()
    else:
        try:
            directory = load_directory(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except ParseError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1

    try:
        if args.command == "add-provider":
            directory.add_provider(args.provider_id, args.subscriber)
            save_directory(directory, path)
        elif args.command == "add-rule":
            directory.add_rule(args.pattern, args.provider_id)
            save_directory(directory, path)
        elif args.command == "list":
            for record in directory.providers.values():
                print(f"provider {record.provider_id} subscriber={record.subscriber}")
            for rule in directory.rules:
                print(f"rule {rule.pattern} -> {rule.provider_id}")
        elif args.command == "validate":
            print(f"ok: {len(directory.providers)} providers, {len(directory.rules)} rules")
            if args.ctid:
                print(f"{args.ctid} -> {lookup_provider(directory, args.ctid) or '(no route)'}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def harness_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="msbc-harness", description="Scenario harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a .scn file")
    p_run.add_argument("--report", help="also write the report to this path")
    p_run.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    p_home = sub.add_parser("smart-home", help="run the smart-home topology")
    p_home.add_argument("--duration", type=float, default=10.0, help="traffic time in seconds")
    args = parser.parse_args(argv)
    # Loaded here, not at the top: the broker and admin commands never need it.
    from msbc.harness import run_scenario_file, simulate_smart_home

    if args.command == "run":
        report = run_scenario_file(args.scenario, seed=args.seed)
        text = report.format_report()
        print(text)
        if args.report:
            Path(args.report).write_text(text + "\n")
        return 0 if report.ok else 1

    # smart-home
    started = time.monotonic()
    with simulate_smart_home() as home:
        print(
            f"# topology up: {len(home.providers)} providers, "
            f"{home.commissioned_wires()} wires ({time.monotonic() - started:.2f}s)"
        )
        summary = home.run_traffic(args.duration)
        print(f"readings: {summary.readings_delivered}/{summary.readings_sent} delivered")
        print(f"commands: {summary.commands_delivered}/{summary.commands_sent} delivered")
        for provider, n in sorted(summary.per_provider.items()):
            print(f"  {provider}: {n} readings")
        clean = (
            summary.readings_delivered == summary.readings_sent
            and summary.commands_delivered == summary.commands_sent
        )
    return 0 if clean else 1
