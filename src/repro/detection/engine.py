"""Rule-matching engine over captured payloads.

Loads the shipped vetted ruleset by default, pre-indexes content prefixes
for cheap rejection, and memoizes verdicts per distinct payload — the
datasets contain the same payload bytes many times (the paper's analyses
repeatedly note *distinct* payload counts for this reason).

:meth:`RuleEngine.alerts` classifies one payload; :meth:`RuleEngine
.alerts_batch` classifies a whole list of them in one pass over their
concatenation, with the same results and the same memo.
"""

from __future__ import annotations

import importlib.resources
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from repro.detection.rules import Rule, parse_rules

__all__ = ["Alert", "RuleEngine", "load_default_rules"]

#: Distinct (payload, port) verdicts the engine memoizes at most.
_VERDICT_CACHE_CAP = 100_000


def load_default_rules() -> list[Rule]:
    """Parse the ruleset shipped with the package."""
    text = (
        importlib.resources.files("repro.detection")
        .joinpath("data/cloudwatching.rules")
        .read_text(encoding="utf-8")
    )
    return parse_rules(text)


@dataclass(frozen=True)
class Alert:
    """One rule firing on one payload."""

    sid: int
    msg: str
    classtype: str


class RuleEngine:
    """Evaluate payloads against a ruleset.

    >>> engine = RuleEngine()
    >>> engine.is_malicious(b"GET / HTTP/1.1\\r\\nUser-Agent: ${jndi:ldap://x}\\r\\n\\r\\n")
    True
    >>> engine.is_malicious(b"GET / HTTP/1.1\\r\\n\\r\\n")
    False
    """

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self._rules: list[Rule] = list(rules) if rules is not None else load_default_rules()
        self._verdict_cache: dict[tuple[bytes, Optional[int]], tuple[Alert, ...]] = {}
        # Flattened matcher table: one prebuilt Alert per rule plus its
        # match components, so the hot loop runs inline ``in``/``search``
        # checks instead of two method calls per (payload, rule).  Rules
        # with no contents and no pcres never fire (matches() contract).
        self._matchers: list[
            tuple[Alert, frozenset | None, tuple, tuple, tuple]
        ] = [
            (
                Alert(rule.sid, rule.msg, rule.classtype),
                rule.dst_ports,
                tuple(c.needle for c in rule.contents if not c.nocase),
                tuple(c.needle.lower() for c in rule.contents if c.nocase),
                rule.pcres,
            )
            for rule in self._rules
            if rule.contents or rule.pcres
        ]
        # When every rule applies to any port, verdicts are
        # port-independent: collapse the cache key so each distinct
        # payload is classified exactly once across all ports.
        self._port_blind = all(rule.dst_ports is None for rule in self._rules)

    @property
    def rules(self) -> list[Rule]:
        return list(self._rules)

    def alerts(self, payload: bytes, dst_port: Optional[int] = None) -> tuple[Alert, ...]:
        """All alerts the ruleset raises for one payload."""
        if not payload:
            return ()
        key = (payload, None if self._port_blind else dst_port)
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached
        fired = []
        lowered: Optional[bytes] = None
        for alert, ports, needles, nocase, pcres in self._matchers:
            if ports is not None and dst_port is not None and dst_port not in ports:
                continue
            ok = True
            for needle in needles:
                if needle not in payload:
                    ok = False
                    break
            if ok and nocase:
                if lowered is None:
                    lowered = payload.lower()
                for needle in nocase:
                    if needle not in lowered:
                        ok = False
                        break
            if ok:
                for pattern in pcres:
                    if pattern.search(payload) is None:
                        ok = False
                        break
            if ok:
                fired.append(alert)
        result = tuple(fired)
        # Bound the memo: distinct payloads are few, but be safe.
        if len(self._verdict_cache) < _VERDICT_CACHE_CAP:
            self._verdict_cache[key] = result
        return result

    def alerts_batch(self, payloads: Sequence[bytes]) -> list[tuple[Alert, ...]]:
        """``[self.alerts(p) for p in payloads]``, matched in one pass.

        Returns the same alert tuples (same objects, same rule order) and
        leaves the same verdict-cache entries, in the same order, as that
        loop would.  Port-scoped rules apply to every payload, as in
        ``alerts(p)``; ``alerts(p, port)`` is this result filtered by each
        fired rule's ``dst_ports``.
        """
        cache = self._verdict_cache
        distinct = dict.fromkeys(payloads)
        todo = [payload for payload in distinct if payload and (payload, None) not in cache]
        matched = self._match_distinct(todo)
        room = max(0, _VERDICT_CACHE_CAP - len(cache))
        cache.update(zip([(payload, None) for payload in todo[:room]], matched[:room]))
        verdicts = dict(zip(todo, matched))
        for payload in distinct:
            if payload not in verdicts:
                verdicts[payload] = cache[(payload, None)] if payload else ()
        return [verdicts[payload] for payload in payloads]

    def _match_distinct(self, payloads: list[bytes]) -> list[tuple[Alert, ...]]:
        """Alerts of distinct non-empty payloads, by content needle.

        The payloads are joined once; every needle is found in the join
        (case-folded needles in one lowered copy: ``bytes.lower`` maps
        byte by byte, so lowering the join equals joining the lowered
        payloads) and a hit counts only inside one payload.  A rule's
        candidates are the payloads holding all its contents, and only
        those run its pcres.
        """
        count = len(payloads)
        if not count:
            return []
        starts = list(accumulate(map(len, payloads), initial=0))
        joined = b"".join(payloads)
        lowered = joined.lower()

        def holders(needle: bytes, folded: bool) -> set[int]:
            """Payloads holding ``needle`` (in the lowered join when
            ``folded``); the search skips to the next payload after each
            hit."""
            find = (lowered if folded else joined).find
            size = len(needle)
            found: set[int] = set()
            at = find(needle)
            while 0 <= at < starts[-1]:
                index = bisect_right(starts, at) - 1
                end = starts[index + 1]
                # A hit running past its payload's end straddles into the
                # next; so would any later hit in the same payload.
                if at + size <= end:
                    found.add(index)
                at = find(needle, end)
            return found

        hits: dict[tuple[bytes, bool], set[int]] = {}
        fired: dict[int, list[Alert]] = {}
        for alert, _ports, needles, nocase, pcres in self._matchers:
            candidates: Optional[set[int]] = None
            for key in [(needle, False) for needle in needles] + [
                (needle, True) for needle in nocase
            ]:
                if key not in hits:
                    hits[key] = holders(*key)
                candidates = hits[key] if candidates is None else candidates & hits[key]
                if not candidates:
                    break
            rows: Iterable[int] = range(count) if candidates is None else sorted(candidates)
            for pattern in pcres:
                rows = [row for row in rows if pattern.search(payloads[row]) is not None]
            for row in rows:
                fired.setdefault(row, []).append(alert)
        results: list[tuple[Alert, ...]] = [()] * count
        for row, alerts in fired.items():
            results[row] = tuple(alerts)
        return results

    def is_malicious(self, payload: bytes, dst_port: Optional[int] = None) -> bool:
        """Does any vetted rule classify this payload as state-altering or
        authority-bypassing?"""
        return bool(self.alerts(payload, dst_port))
