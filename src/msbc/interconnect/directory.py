"""Subscription directory: which provider serves a device id.

The on-disk form is line oriented:

    # comment
    provider metering subscriber=as-metering
    rule meter.* -> metering
    rule meter.gas.007 -> metering-audit

A rule pattern is either a full device id (exact match) or a prefix ending
in ``*``. Lookup prefers an exact rule, then the wildcard rule with the
longest prefix; ties go to the rule declared first.

Lookup costs one dict probe for an exact rule, then one probe per distinct
wildcard prefix length in use (at most 65: prefixes are 0 to 64 characters),
longest first; it does not depend on the number of rules.
"""

from __future__ import annotations

import re
from pathlib import Path

from msbc.record import Record
from msbc.wire.types import is_token, validate_ctid

_PROVIDER_RE = re.compile(r"^provider\s+(\S+)\s+subscriber=(\S+)$")
_RULE_RE = re.compile(r"^rule\s+(\S+)\s+->\s+(\S+)$")


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ProviderRecord(Record):
    __slots__ = ("provider_id", "subscriber")

    def __init__(self, provider_id: str, subscriber: str):
        self.provider_id = provider_id
        self.subscriber = subscriber


class RoutingRule(Record):
    __slots__ = ("pattern", "provider_id")

    def __init__(self, pattern: str, provider_id: str):
        self.pattern = pattern
        self.provider_id = provider_id

    @property
    def is_wildcard(self) -> bool:
        return self.pattern.endswith("*")

    @property
    def prefix(self) -> str:
        return self.pattern[:-1] if self.is_wildcard else self.pattern


class SubscriptionDirectory:
    __slots__ = ("providers", "rules", "_exact", "_wildcard", "_prefix_lengths")

    def __init__(self):
        self.providers: dict[str, ProviderRecord] = {}
        self.rules: list[RoutingRule] = []
        # Indexes over ``rules``, kept by add_rule: the provider of the first
        # exact rule per device id, of the first wildcard rule per prefix, and
        # the distinct wildcard prefix lengths, longest first.
        self._exact: dict[str, str] = {}
        self._wildcard: dict[str, str] = {}
        self._prefix_lengths: tuple[int, ...] = ()

    def add_provider(self, provider_id: str, subscriber: str) -> None:
        if not is_token(provider_id) or not is_token(subscriber):
            raise ValueError("provider and subscriber must be simple tokens")
        if provider_id in self.providers:
            raise ValueError(f"duplicate provider {provider_id}")
        self.providers[provider_id] = ProviderRecord(provider_id, subscriber)

    def add_rule(self, pattern: str, provider_id: str) -> None:
        _check_pattern(pattern)
        if provider_id not in self.providers:
            raise ValueError(f"rule references unknown provider {provider_id}")
        rule = RoutingRule(pattern, provider_id)
        self.rules.append(rule)
        if not rule.is_wildcard:
            self._exact.setdefault(pattern, provider_id)
            return
        self._wildcard.setdefault(rule.prefix, provider_id)
        lengths = {*self._prefix_lengths, len(rule.prefix)}
        self._prefix_lengths = tuple(sorted(lengths, reverse=True))


def lookup_provider(directory: SubscriptionDirectory, ctid: str) -> str | None:
    """Resolve a device id to its provider, or None when no rule applies."""
    provider = directory._exact.get(ctid)
    if provider is not None:
        return provider
    wildcard = directory._wildcard
    for length in directory._prefix_lengths:
        if length <= len(ctid) and (provider := wildcard.get(ctid[:length])) is not None:
            return provider
    return None


def parse_directory(text: str) -> SubscriptionDirectory:
    directory = SubscriptionDirectory()
    pending_rules: list[tuple[int, str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _PROVIDER_RE.match(line):
            pid, sub = m.group(1), m.group(2)
            try:
                directory.add_provider(pid, sub)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
        elif m := _RULE_RE.match(line):
            pending_rules.append((line_no, m.group(1), m.group(2)))
        else:
            raise ParseError(line_no, f"unrecognized line: {line!r}")
    # Rules may reference providers declared later in the file.
    for line_no, pattern, pid in pending_rules:
        try:
            directory.add_rule(pattern, pid)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
    return directory


def load_directory(path: str | Path) -> SubscriptionDirectory:
    return parse_directory(Path(path).read_text(encoding="ascii"))


def save_directory(directory: SubscriptionDirectory, path: str | Path) -> None:
    lines = [f"provider {r.provider_id} subscriber={r.subscriber}" for r in directory.providers.values()]
    lines += [f"rule {r.pattern} -> {r.provider_id}" for r in directory.rules]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _check_pattern(pattern: str) -> None:
    if pattern.endswith("*"):
        prefix = pattern[:-1]
        if prefix and not is_token(prefix):
            raise ValueError(f"bad rule pattern {pattern!r}")
        if len(prefix) > 64:
            raise ValueError("pattern prefix too long")
    else:
        validate_ctid(pattern)
