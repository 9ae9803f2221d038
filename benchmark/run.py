"""Run one msbc benchmark workload and print its metrics.

    python3 benchmark/run.py --workload telemetry --seed 1 --seconds 20 --trace 0

The broker runs in its own process (broker_proc.py); this process drives the
gateways over loopback. Set-up (broker start with its TLS certificate,
gateways opened, standing devices attached) is repeated SETUPS times and its
median reported as ``setup_s``; the last set-up is then warmed up and
measured for ``--seconds``. Every output is checked by the oracle in
common.py and the broker must tear down cleanly, or the run is reported
incorrect with no metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points in both processes and prints the per-layer metrics.
The last stdout line is one JSON object; the lines above it are the full
human-readable report, and the same report is written to
``.bench_out/report-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUPS = 7


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json; every workload reports all of them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_program() -> bool:
    if not (SRC / "msbc" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'msbc'})", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import msbc

    if not Path(msbc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: msbc imported from {msbc.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import OUT_DIR, BrokerProcess, cpu_s, percentile
    from tracing import Tracer, install_driver, summarize
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    directory_file = OUT_DIR / f"{workload}-{seed}.dir"
    directory_file.write_text(cls(seed).directory_text(), encoding="ascii")
    tracer = None
    if trace:
        tracer = Tracer()
        install_driver(tracer)

    problems: list[str] = []
    setup_times: list[float] = []
    wl = broker = None
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            wl = cls(seed)
            t0 = time.perf_counter()
            broker = BrokerProcess(
                directory_file, trace=trace and last,
                spans=OUT_DIR / f"spans-{workload}-broker.csv",
            )
            wl.setup(broker)
            setup_times.append(time.perf_counter() - t0)
            if not last:
                wl.teardown()
                final = broker.stop()
                if not final["teardown"]["clean"]:
                    problems.append(f"set-up {i}: broker teardown not clean: {final['teardown']}")
                problems += wl.problems
                wl = broker = None

        wl.warmup()
        if wl.failed:
            problems.append(f"warm-up failed: {wl.problems[:3]}")
        broker.call("mark")
        if tracer is not None:
            tracer.mark()
        cpu0 = cpu_s()
        gated = wl.run(seconds)
        driver_cpu = cpu_s() - cpu0
        broker_window = broker.call("report")
        layers = None
        if tracer is not None:
            layers = summarize(
                broker_window, tracer.window(), wl.deliveries, driver_cpu, wl.lag_ms,
                wl.report_timeouts, metric_units("per_layer"),
            )
            tracer.write_spans(OUT_DIR / f"spans-{workload}-driver.csv")
        if hasattr(wl, "check"):
            problems += wl.check()
        wl.teardown()
        final = broker.stop()
        broker = None
    except Exception as exc:  # the program under test failed: report, do not crash
        traceback.print_exc()
        problems.append(f"run aborted: {type(exc).__name__}: {exc}")
        gated, layers, final = {}, None, None
    finally:
        if wl is not None:
            wl.abort_all()
        if broker is not None:
            broker.close()

    attempted, failed = wl.totals() if wl is not None else (1, 1)
    problems += wl.problems if wl is not None else []
    problems += wl.oracle.verdict() if wl is not None else []
    if final is not None and not final["teardown"]["clean"]:
        problems.append(f"broker teardown not clean: {final['teardown']}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "named": {},
        "metrics": {},
    }
    if problems:
        return report
    named = dict(wl.report)
    named["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    named["failed_ratio"] = (failed / max(attempted, 1), "1", attempted)
    named["broker_rss_mib"] = (final["peak_rss_mib"], "MiB", 1)
    named["broker_cpu_s"] = (broker_window["cpu_s"], "s", 1)
    named["broker_events"] = (final["events"], "count", 1)
    if wl.lag_ms:
        named["driver_lag_p99_ms"] = (percentile(wl.lag_ms, 99), "ms", len(wl.lag_ms))
    report["named"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()}
    values = dict(
        gated,
        setup_s=named["setup_s"][0],
        broker_cpu_ms_per_kop=broker_window["cpu_s"] * 1e6 / max(gated["ops"], 1),
        broker_rss_mib=final["peak_rss_mib"],
    )
    e2e = metric_units("end_to_end")
    report["e2e"] = {k: values[k] for k in e2e}
    if trace:
        report["metrics"] = layers
    else:
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in e2e.items()}
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one msbc benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    from common import OUT_DIR
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT_DIR / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"correct={report['correct']} attempted={report['attempted']} failed={report['failed']}")
    for problem in report["problems"]:
        print(f"#   problem: {problem}")
    for name, m in sorted(report["named"].items()):
        print(f"#   {name:<22} {m['value']:>14.4f} {m['unit']:<6} n={m['samples']}")
    if args.trace:
        for name, m in sorted(report["metrics"].items()):
            print(f"#   {name:<36} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
