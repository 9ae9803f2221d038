"""Scenario DSL parsing, metrics math, runner behavior, and the CLI wrappers."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from msbc.cli import _load_server_config, admin_main, harness_main
from msbc.interconnect import BrokerConfig, ServerConfig
from msbc.harness import (
    Distribution,
    MetricsReport,
    ScenarioFailed,
    ScenarioRunner,
    parse_scenario,
    run_scenario,
)

# ---------------------------------------------------------------------------
# parsing

SAMPLE = """
# commentary is ignored
scenario demo
provider metering subscriber=as-metering
rule meter.* -> metering

step start_broker keepalive_interval_ms=250
step start_gateway meters asgw as-metering provider=metering
repeat 3
step transmit home meter.a 64
end
step assert_metric packets_lost == 0
"""


def test_parse_collects_name_directory_and_steps():
    scn = parse_scenario(SAMPLE)
    assert scn.name == "demo"
    assert "provider metering subscriber=as-metering" in scn.directory_text
    assert "rule meter.* -> metering" in scn.directory_text
    verbs = [s.verb for s in scn.steps]
    assert verbs == ["start_broker", "start_gateway"] + ["transmit"] * 3 + ["assert_metric"]


def test_kwargs_split_from_positionals():
    scn = parse_scenario("step transmit home meter.a 64 count=5 gap_ms=2\n")
    (step,) = scn.steps
    assert step.args == ("home", "meter.a", "64")
    assert step.kwargs == {"count": "5", "gap_ms": "2"}


def test_comparison_operators_stay_positional():
    # "==" and "<=" contain '=' but are not settings
    scn = parse_scenario("step assert_metric transfer_rtt_ms median <= 50\n")
    (step,) = scn.steps
    assert step.args == ("transfer_rtt_ms", "median", "<=", "50")
    assert step.kwargs == {}


def test_repeat_flattens_in_order():
    scn = parse_scenario("repeat 2\nstep wait 1\nstep drain\nend\n")
    assert [s.verb for s in scn.steps] == ["wait", "drain", "wait", "drain"]
    assert [s.line_no for s in scn.steps] == [2, 3, 2, 3]


def test_step_str_names_its_source_line():
    scn = parse_scenario("\n\nstep attach home meter.a\n")
    assert str(scn.steps[0]) == "line 3: step attach home meter.a"


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("repeat 2\nrepeat 2\n", "do not nest"),
        ("end\n", "end without repeat"),
        ("repeat 2\nstep wait 1\n", "unterminated"),
        ("repeat zero\n", "positive count"),
        ("repeat 0\n", "positive count"),
        ("bogus directive\n", "unrecognized"),
        ("step\n", "needs a verb"),
        ("scenario one two\n", "exactly one name"),
    ],
)
def test_parse_rejects_malformed_input(text, complaint):
    with pytest.raises(ValueError, match=complaint):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# distributions

def test_median_and_mean_match_statistics():
    d = Distribution([3.0, 1.0, 4.0, 1.0, 5.0])
    assert d.median == statistics.median(d.samples)
    assert d.mean == pytest.approx(statistics.fmean(d.samples))


def test_p95_on_a_known_ladder():
    d = Distribution([float(v) for v in range(1, 101)])
    assert d.p95 == 95.0
    assert d.minimum == 1.0
    assert d.maximum == 100.0


def test_empty_distribution_reads_zero():
    d = Distribution()
    assert (d.count, d.median, d.mean, d.p95) == (0, 0.0, 0.0, 0.0)
    assert d.summary() == "no samples"


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_p95_is_the_nearest_rank(samples):
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)
    d = Distribution(samples)
    assert d.p95 == ordered[rank]
    assert d.minimum <= d.median <= d.p95 <= d.maximum


def test_stat_lookup_guards_its_namespace():
    d = Distribution([2.0])
    assert d.stat("median") == 2.0
    with pytest.raises(KeyError):
        d.stat("harmonic")
    with pytest.raises(KeyError):
        d.stat("add")  # callables are not statistics
    with pytest.raises(KeyError):
        d.stat("samples")  # nor is the raw sample list


# ---------------------------------------------------------------------------
# reports

def test_conservation_balances_the_packet_ledger():
    r = MetricsReport(
        scenario="x", packets_sent=10, packets_delivered=7, packets_lost=2, packets_buffered=1
    )
    assert r.conservation_holds()
    r.packets_lost = 3
    assert not r.conservation_holds()


def test_report_ok_iff_no_failures():
    r = MetricsReport(scenario="x")
    assert r.ok
    r.failures.append("late")
    assert not r.ok
    assert "FAIL: late" in r.format_report()


def test_format_report_has_a_machine_tail():
    r = MetricsReport(scenario="x", packets_sent=4, packets_delivered=4)
    r.transfer_rtt_ms.add(1.5)
    tail = dict(
        line.split("=", 1) for line in r.format_report().splitlines() if "=" in line
    )
    assert tail["scenario"] == "x"
    assert tail["ok"] == "1"
    assert tail["packets_sent"] == "4"
    assert tail["transfer_rtt_ms_count"] == "1"
    assert tail["transfer_rtt_ms_median"] == "1.5"


def test_unknown_distribution_rejected():
    with pytest.raises(KeyError):
        MetricsReport(scenario="x").distribution("packets_sent")


# ---------------------------------------------------------------------------
# the runner

MINI = """
scenario mini
provider metering subscriber=as-metering
rule meter.* -> metering
step start_broker
step start_gateway meters asgw as-metering provider=metering
step start_gateway home lgw home-1
step attach home meter.a
step transmit home meter.a 32 count=3
step expect_data meters meter.a 3
step assert_metric packets_delivered == 3
step assert_teardown_clean
step stop_gateway home
step stop_gateway meters
"""

BAD = """
scenario bad
provider metering subscriber=as-metering
rule meter.* -> metering
step start_broker
step assert_metric packets_sent == 5
"""


def test_runner_passes_a_minimal_scenario():
    report = run_scenario(MINI, seed=3)
    assert report.ok
    assert report.packets_delivered == 3
    assert report.teardown_clean
    assert report.conservation_holds()


def test_empty_scenario_reports_clean():
    report = run_scenario("scenario noop\n")
    assert report.ok
    assert report.packets_sent == 0
    assert report.teardown_clean


def test_failure_recorded_not_raised_by_default():
    report = run_scenario(BAD)
    assert not report.ok
    assert "packets_sent" in report.failures[0]


def test_raise_on_failure_names_the_step_and_line():
    with pytest.raises(ScenarioFailed, match="line 6: step assert_metric"):
        run_scenario(BAD, raise_on_failure=True)


def _run_traced(seed: int):
    runner = ScenarioRunner(parse_scenario(MINI), seed=seed)
    report = runner.run()
    assert report.ok, report.failures
    events = [(e.kind, e.ctid, e.wire) for e in runner.server.broker.events.snapshot()]
    return dict(runner.sent), events


def test_same_seed_reproduces_traffic_and_events():
    sent1, events1 = _run_traced(seed=11)
    sent2, events2 = _run_traced(seed=11)
    assert sent1 == sent2  # payload bytes come from the seeded rng
    assert sorted(events1) == sorted(events2)
    # ordering within a kind is stable even when independent sockets race
    for kind in ("session_established", "commissioned", "released", "session_closed"):
        assert [e for e in events1 if e[0] == kind] == [e for e in events2 if e[0] == kind]


def test_different_seed_different_payloads():
    sent1, _ = _run_traced(seed=1)
    sent2, _ = _run_traced(seed=2)
    assert sent1 != sent2


# ---------------------------------------------------------------------------
# command-line front ends

def test_cli_run_writes_report_and_exits_zero(tmp_path, capsys):
    scn = tmp_path / "mini.scn"
    scn.write_text(MINI)
    out_path = tmp_path / "report.txt"
    assert harness_main(["run", str(scn), "--report", str(out_path), "--seed", "5"]) == 0
    text = out_path.read_text()
    assert "scenario mini: PASS" in text
    assert "ok=1" in text
    assert "scenario mini: PASS" in capsys.readouterr().out


def test_cli_run_exits_one_on_failure(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text(BAD)
    assert harness_main(["run", str(scn)]) == 1


def test_cli_empty_scenario_exits_zero(tmp_path):
    scn = tmp_path / "empty.scn"
    scn.write_text("")
    assert harness_main(["run", str(scn)]) == 0


def test_admin_roundtrip(tmp_path, capsys):
    f = tmp_path / "dir.txt"
    assert admin_main([str(f), "add-provider", "metering", "as-metering"]) == 0
    assert admin_main([str(f), "add-rule", "meter.*", "metering"]) == 0
    assert admin_main([str(f), "list"]) == 0
    out = capsys.readouterr().out
    assert "provider metering subscriber=as-metering" in out
    assert "rule meter.* -> metering" in out
    assert admin_main([str(f), "validate", "--ctid", "meter.gas"]) == 0
    assert "meter.gas -> metering" in capsys.readouterr().out


def test_admin_rejects_duplicates_and_garbage(tmp_path, capsys):
    f = tmp_path / "dir.txt"
    admin_main([str(f), "add-provider", "metering", "as-metering"])
    assert admin_main([str(f), "add-provider", "metering", "as-twice"]) == 1
    assert admin_main([str(f), "add-rule", "x.*", "ghost"]) == 1
    f.write_text("rule broken\n")
    assert admin_main([str(f), "validate"]) == 1
    capsys.readouterr()


def test_admin_missing_file(tmp_path):
    assert admin_main([str(tmp_path / "nope.txt"), "list"]) == 2


def test_broker_config_parser(tmp_path):
    cfg = tmp_path / "broker.cfg"
    cfg.write_text("# tuned down for the lab\nhost=0.0.0.0\nsignal_port=4750\nkeepalive_interval_ms=750\n")
    config = _load_server_config(str(cfg))
    assert config.host == "0.0.0.0"
    assert config.signal_port == 4750
    assert config.keepalive_interval_ms == 750.0
    assert config.payload_port == 0  # untouched fields keep their defaults


def test_broker_config_reads_every_setting_with_its_type(tmp_path):
    values = {
        "host": "10.0.0.7", "signal_port": 4750, "payload_port": 4751, "payload_tls_port": 4752,
        "keepalive_interval_ms": 750.0, "keepalive_misses": 5, "buffer_max_packets": 64,
        "buffer_max_bytes": 65536, "max_frame_size": 4096,
    }
    assert set(values) == set(ServerConfig.__slots__) | set(BrokerConfig.__slots__)
    cfg = tmp_path / "broker.cfg"
    cfg.write_text("".join(f"{key} = {value:g}\n" if isinstance(value, float) else f"{key} = {value}\n"
                           for key, value in values.items()))
    config = _load_server_config(str(cfg))
    for key, value in values.items():
        assert getattr(config, key) == value and type(getattr(config, key)) is type(value), key


@pytest.mark.parametrize("line", ["colour=blue", "signal_port=lots", "just words"])
def test_broker_config_rejects_bad_lines(tmp_path, line):
    cfg = tmp_path / "broker.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit):
        _load_server_config(str(cfg))
