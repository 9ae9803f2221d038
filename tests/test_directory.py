"""Directory parsing and provider lookup, checked against a brute-force
longest-prefix oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from msbc.interconnect.directory import (
    ParseError,
    SubscriptionDirectory,
    load_directory,
    lookup_provider,
    parse_directory,
    save_directory,
)

SAMPLE = """\
# smart home directory
provider metering subscriber=as-metering
provider lighting subscriber=as-lighting

rule meter.* -> metering
rule light.* -> lighting
rule meter.gas.007 -> lighting
"""


def brute_force_lookup(directory, ctid):
    """Independent reference: exact rule first, else the wildcard rule with
    the longest prefix of ctid; first declared wins ties."""
    for rule in directory.rules:
        if not rule.pattern.endswith("*") and rule.pattern == ctid:
            return rule.provider_id
    best, best_len = None, -1
    for rule in directory.rules:
        if rule.pattern.endswith("*"):
            prefix = rule.pattern[:-1]
            if ctid.startswith(prefix) and len(prefix) > best_len:
                best, best_len = rule.provider_id, len(prefix)
    return best


# -- parsing -----------------------------------------------------------------


def test_parse_sample():
    d = parse_directory(SAMPLE)
    assert set(d.providers) == {"metering", "lighting"}
    assert d.providers["metering"].subscriber == "as-metering"
    assert len(d.rules) == 3


def test_round_trip_through_file(tmp_path):
    d = parse_directory(SAMPLE)
    path = tmp_path / "directory.conf"
    save_directory(d, path)
    again = load_directory(path)
    assert again.providers == d.providers
    assert again.rules == d.rules


def test_rule_may_precede_provider():
    d = parse_directory("rule a.* -> p\nprovider p subscriber=s\n")
    assert lookup_provider(d, "a.1") == "p"


@pytest.mark.parametrize(
    "text,line",
    [
        ("bogus line\n", 1),
        ("provider p subscriber=s\nprovider p subscriber=t\n", 2),
        ("rule a.* -> nobody\n", 1),
        ("provider p subscriber=s\nrule bad pattern -> p\n", 2),
        ("provider p subscriber=s\nrule a..* p\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as info:
        parse_directory(text)
    assert info.value.line == line


def test_comments_and_blanks_ignored():
    d = parse_directory("\n# x\n  \nprovider p subscriber=s\n")
    assert set(d.providers) == {"p"}


# -- lookup ------------------------------------------------------------------


def test_exact_beats_wildcard():
    d = parse_directory(SAMPLE)
    assert lookup_provider(d, "meter.gas.007") == "lighting"
    assert lookup_provider(d, "meter.gas.008") == "metering"


def test_longest_prefix_wins():
    d = SubscriptionDirectory()
    d.add_provider("a", "as-a")
    d.add_provider("b", "as-b")
    d.add_rule("dev.*", "a")
    d.add_rule("dev.cam.*", "b")
    assert lookup_provider(d, "dev.cam.1") == "b"
    assert lookup_provider(d, "dev.lock.1") == "a"


def test_first_rule_wins_ties():
    d = SubscriptionDirectory()
    d.add_provider("a", "as-a")
    d.add_provider("b", "as-b")
    d.add_rule("dev.*", "a")
    d.add_rule("dev.*", "b")
    assert lookup_provider(d, "dev.9") == "a"


def test_no_match_is_none():
    d = parse_directory(SAMPLE)
    assert lookup_provider(d, "thermostat.1") is None


def test_catch_all_rule():
    d = SubscriptionDirectory()
    d.add_provider("misc", "as-misc")
    d.add_rule("*", "misc")
    assert lookup_provider(d, "anything.at.all") == "misc"


# -- oracle property ---------------------------------------------------------

_label = st.text(alphabet="abcdefg.", min_size=1, max_size=8)


@st.composite
def patterns(draw, directory):
    """A rule pattern: an exact id, a wildcard prefix, the catch-all ``*``,
    or a repeat of a pattern already declared."""
    choice = draw(st.sampled_from(["exact", "wildcard", "wildcard", "catch-all", "repeat"]))
    if choice == "repeat" and directory.rules:
        return draw(st.sampled_from(directory.rules)).pattern
    if choice == "catch-all":
        return "*"
    return draw(_label) + ("*" if choice == "wildcard" else "")


@st.composite
def ctids(draw, directory):
    """A device id: often one that extends a rule's prefix, or one cut short
    of it so that the wildcard prefix is longer than the id."""
    if directory.rules and draw(st.booleans()):
        prefix = draw(st.sampled_from(directory.rules)).pattern.rstrip("*")
        if prefix and draw(st.booleans()):
            return prefix[: draw(st.integers(1, len(prefix)))]
        return prefix + draw(_label)
    return draw(_label)


def _providers(n):
    d = SubscriptionDirectory()
    for i in range(n):
        d.add_provider(f"p{i}", f"as-p{i}")
    return d


@st.composite
def directories(draw):
    n = draw(st.integers(1, 5))
    d = _providers(n)
    for _ in range(draw(st.integers(0, 8))):
        d.add_rule(draw(patterns(d)), f"p{draw(st.integers(0, n - 1))}")
    return d


@given(directory=directories(), data=st.data())
def test_lookup_matches_brute_force(directory, data):
    ctid = data.draw(ctids(directory))
    assert lookup_provider(directory, ctid) == brute_force_lookup(directory, ctid)


@given(data=st.data())
def test_lookup_tracks_rules_added_between_lookups(data):
    n = data.draw(st.integers(1, 3))
    d = _providers(n)
    for _ in range(data.draw(st.integers(1, 16))):
        if data.draw(st.booleans()):
            d.add_rule(data.draw(patterns(d)), f"p{data.draw(st.integers(0, n - 1))}")
        else:
            ctid = data.draw(ctids(d))
            assert lookup_provider(d, ctid) == brute_force_lookup(d, ctid)


def test_lookup_over_a_large_zoned_directory():
    # The shape of a large deployment: one wildcard rule per zone, and
    # about as many exact rules for single devices inside the zones.
    rng = random.Random(7)
    d = _providers(2)
    devices = [f"zone.{rng.randrange(500):03d}.d{rng.randrange(100_000):05d}" for _ in range(1200)]
    rules = [(f"zone.{z:03d}.*", f"p{z % 2}") for z in range(500)]
    rules += [(ctid, f"p{rng.randrange(2)}") for ctid in devices[:500]]
    rng.shuffle(rules)
    for pattern, provider in rules:
        d.add_rule(pattern, provider)
    probes = devices + ["zone.1", "zone.999.d00001", "zone.", "other"]
    for ctid in probes:
        assert lookup_provider(d, ctid) == brute_force_lookup(d, ctid), ctid
    assert sum(lookup_provider(d, ctid) is not None for ctid in probes) == len(devices)
