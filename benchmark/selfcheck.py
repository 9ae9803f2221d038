"""Check the benchmark's layer map against a traced run of every workload.

    python3 benchmark/selfcheck.py --seed 1

For every workload it runs run.py untraced and traced, for BENCHMARK.json's
run_seconds each, then checks the predictions in layer_map.json: every
per-layer metric listed as ``nonzero_on`` a workload is non-zero there,
every one listed as ``zero_on`` is zero, and the untraced run's open-loop
generator kept its lateness p99 under ``driver_lag_limit_ms``. It prints the tracing overhead
(traced minus untraced op_p50_ms and ops_per_s) and exits 1 if a prediction
fails or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    return json.loads((OUT_DIR / f"report-{workload}-{seed}-trace{trace}.json").read_text())


def check(layer_map: dict, workload: str, traced: dict) -> list[str]:
    """Predictions of the layer map that the traced run breaks."""
    problems = []
    metrics = traced["metrics"]
    for name, spec in layer_map["per_layer"].items():
        if name not in metrics:
            problems.append(f"{name}: missing from the traced run")
            continue
        value = metrics[name]["value"]
        if workload in spec.get("nonzero_on", []) and value == 0:
            problems.append(f"{name}: predicted non-zero on {workload}, got 0")
        if workload in spec.get("zero_on", []) and value != 0:
            problems.append(f"{name}: predicted 0 on {workload}, got {value}")
    return problems


def check_generator(layer_map: dict, workload: str, plain: dict) -> list[str]:
    """The untraced run's open-loop sender must have kept to its schedule."""
    limit = layer_map["driver_lag_limit_ms"]
    lag = plain["named"].get("driver_lag_p99_ms")
    if lag is not None and lag["value"] > limit:
        return [f"driver_lag_p99_ms: {lag['value']:.3f} ms on {workload}, limit {limit} ms"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _run(workload, args.seed, seconds, 0)
        traced = _run(workload, args.seed, seconds, 1)
        problems = []
        for label, report in (("untraced", plain), ("traced", traced)):
            if not report["correct"]:
                problems.append(f"{label} run incorrect: {report['problems'][:3]}")
        if not problems:
            problems = check(layer_map, workload, traced) + check_generator(layer_map, workload, plain)
            for name in ("op_p50_ms", "ops_per_s"):
                a, b = plain["e2e"][name], traced["e2e"][name]
                print(f"{workload}: tracing overhead {name} {b - a:+.4f} "
                      f"({a:.4f} untraced, {b:.4f} traced)")
        for problem in problems:
            print(f"{workload}: FAIL {problem}")
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
