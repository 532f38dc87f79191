"""The payload coder: the paper's payload rules, applied once per payload.

§3.3 compares payloads "after removing ephemeral values (i.e., Date,
Host, and Content-Length fields)"; §3.2 labels an event malicious when
it attempts a login or a vetted rule alerts on its payload.
:class:`PayloadCoder` is the one place that applies these rules.  It
interns raw payloads as codes in first-occurrence order and derives per
*distinct* payload the stripped form, the LZR fingerprint and the rule
alerts.  A derived column is extended only when read, over every payload
interned since, in one batch: a consumer that reads only stripped forms
never fingerprints or matches.

Each pipeline owns one coder: a dataset (the analysis coder), a
:class:`~repro.stream.bus.StreamBus` (handed to its frames) and a
canonical incident replay.  Codes mean nothing outside their coder, so
state that outlives a frame is keyed by value, never by code.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.detection.engine import Alert, RuleEngine
from repro.detection.fingerprint import fingerprint
from repro.scanners.payloads import strip_ephemeral_headers

__all__ = ["PayloadCoder", "intern_value"]


def intern_value(codes: dict, values: list, value) -> int:
    """``value``'s code in a ``(codes, values)`` table, appended when new."""
    code = codes.get(value)
    if code is None:
        code = codes[value] = len(values)
        values.append(value)
    return code


class _Growing:
    """A per-payload derived column in a capacity-doubling array: the
    coder extends it once per batch of new payloads, and every lookup
    reads it without copying."""

    def __init__(self, dtype) -> None:
        self._buffer = np.empty(1024, dtype=dtype)
        self.size = 0

    def extend(self, values: Sequence) -> None:
        size = self.size + len(values)
        if size > self._buffer.shape[0]:
            grown = np.empty(2 * size, dtype=self._buffer.dtype)
            grown[: self.size] = self._buffer[: self.size]
            self._buffer = grown
        self._buffer[self.size : size] = values
        self.size = size

    def view(self) -> np.ndarray:
        return self._buffer[: self.size]


class _AlertColumns:
    """Per-payload alert columns under one ruleset (alert code = rule
    position).  A payload's alert codes are the next ``count`` entries of
    ``flat``; ``anywhere`` flags payloads firing a rule with no port
    scope, ``scope_fired[k]`` those firing scoped rule ``k``:
    ``alerts(payload, port)`` is ``alerts(payload)`` minus the scoped
    alerts whose sorted ``scopes`` ports miss."""

    def __init__(self, rule_engine: RuleEngine) -> None:
        rules = rule_engine.rules
        self.engine = rule_engine
        self.code = {
            Alert(rule.sid, rule.msg, rule.classtype): code
            for code, rule in enumerate(rules)
        }
        self.family_values: list[str] = sorted({rule.classtype for rule in rules})
        family_code = {family: code for code, family in enumerate(self.family_values)}
        self.family_of_alert = np.array(
            [family_code[rule.classtype] for rule in rules], dtype=np.int64
        )
        self.scopes: list[tuple[int, np.ndarray]] = [
            (code, np.array(sorted(rule.dst_ports), dtype=np.int64))
            for code, rule in enumerate(rules)
            if rule.dst_ports is not None
        ]
        self.count = _Growing(np.int64)
        self.flat = _Growing(np.int64)
        self.anywhere = _Growing(bool)
        self.scope_fired = [_Growing(bool) for _scope in self.scopes]

    def extend(self, payloads: list) -> None:
        """Match ``payloads`` with one batch call to the rule engine."""
        fired = [
            [self.code[alert] for alert in alerts]
            for alerts in self.engine.alerts_batch(payloads)
        ]
        self.count.extend([len(codes) for codes in fired])
        self.flat.extend(list(chain.from_iterable(fired)))
        scoped = {code for code, _ports in self.scopes}
        self.anywhere.extend([not scoped.issuperset(codes) for codes in fired])
        for (code, _ports), column in zip(self.scopes, self.scope_fired):
            column.extend([code in codes for codes in fired])


class PayloadCoder:
    """Interns raw payloads and derives each distinct one once, under
    ``rule_engine`` (the shipped ruleset, built on first use, if None)."""

    def __init__(self, rule_engine: Optional[RuleEngine] = None) -> None:
        self._rule_engine = rule_engine
        self.payload_codes: dict = {}
        self.payload_values: list = []
        self.fp_codes: dict[Optional[str], int] = {}
        self.fp_values: list[Optional[str]] = []
        self.stripped_codes: dict[bytes, int] = {}
        self.stripped_values: list[bytes] = []
        # Per-payload derived columns (payload code -> int32 value code).
        self._fp = _Growing(np.int32)
        self._stripped = _Growing(np.int32)  # -1 for empty payloads
        self._alert_columns: Optional[_AlertColumns] = None

    def __len__(self) -> int:
        return len(self.payload_values)

    @property
    def rule_engine(self) -> RuleEngine:
        if self._rule_engine is None:
            self._rule_engine = RuleEngine()
        return self._rule_engine

    def code(self, payloads: list) -> np.ndarray:
        """Per-value int32 payload codes; unseen payloads are interned in
        first-occurrence order."""
        codes, values = self.payload_codes, self.payload_values
        for payload in dict.fromkeys(payloads):
            if payload not in codes:
                intern_value(codes, values, payload)
        return np.fromiter(
            map(codes.__getitem__, payloads), dtype=np.int32, count=len(payloads)
        )

    # -- derived columns, extended on read ------------------------------

    def fp_lookup(self) -> np.ndarray:
        """Fingerprint code (into :attr:`fp_values`) of every payload code."""
        codes, values = self.fp_codes, self.fp_values
        self._fp.extend([
            intern_value(codes, values, fingerprint(payload))
            for payload in self.payload_values[self._fp.size:]
        ])
        return self._fp.view()

    def stripped_lookup(self) -> np.ndarray:
        """Stripped-payload code (into :attr:`stripped_values`) of every
        payload code, -1 for the empty payload."""
        codes, values = self.stripped_codes, self.stripped_values
        self._stripped.extend([
            intern_value(codes, values, strip_ephemeral_headers(payload)) if payload else -1
            for payload in self.payload_values[self._stripped.size:]
        ])
        return self._stripped.view()

    def _alerts(self) -> _AlertColumns:
        """The alert columns, extended over the payloads interned since
        their last read."""
        if self._alert_columns is None:
            self._alert_columns = _AlertColumns(self.rule_engine)
        columns = self._alert_columns
        new = self.payload_values[columns.count.size:]
        if new:
            columns.extend(new)
        return columns

    @property
    def family_values(self) -> list[str]:
        """The ruleset's sorted Snort classtypes (alert family codes)."""
        return self._alerts().family_values

    # -- the §3.2 label ---------------------------------------------------

    def label(
        self, payload_codes: np.ndarray, ports: np.ndarray, login: np.ndarray
    ) -> np.ndarray:
        """Section 3.2 maliciousness of events given their payload codes,
        destination ports and attempted-login flags: a login attempt, or
        an alert from a rule that covers the event's port."""
        columns = self._alerts()
        flags = login | columns.anywhere.view()[payload_codes]
        for (_code, scope_ports), fired in zip(columns.scopes, columns.scope_fired):
            flags |= fired.view()[payload_codes] & np.isin(ports, scope_ports)
        return flags

    def alert_families(
        self, payload_codes: np.ndarray, ports: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(row, family code)`` of every alert ``alerts(payload, port)``
        raises on each (payload code, port) row.  Family codes index
        :attr:`family_values`."""
        columns = self._alerts()
        counts = columns.count.view()
        starts = (np.cumsum(counts) - counts)[payload_codes]
        sizes = counts[payload_codes]
        ends = np.cumsum(sizes)
        rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        # Output slot j of row r reads the payload's alert
        # starts[r] + (j - (ends[r] - sizes[r])).
        flat = np.repeat(starts - (ends - sizes), sizes) + np.arange(
            int(ends[-1]) if len(ends) else 0, dtype=np.int64
        )
        alerts = columns.flat.view()[flat]
        if columns.scopes:
            keep = np.ones(len(alerts), dtype=bool)
            alert_ports = ports[rows]
            for code, scope_ports in columns.scopes:
                keep &= (alerts != code) | np.isin(alert_ports, scope_ports)
            rows, alerts = rows[keep], alerts[keep]
        return rows, columns.family_of_alert[alerts]
