"""Declarative incident rules over the stream analyzer's online state.

Each rule is a small object with three obligations:

* ``observe(frame)`` — an optional per-frame hook for rules that need
  state the :class:`~repro.stream.analyzer.StreamAnalyzer` does not
  already keep (only the campaign rule uses it today);
* ``evaluate(analyzer, hour)`` — called once per sealed hour (subject
  to the rule's ``cadence``), returning zero or more :class:`Signal`s;
* a ``correlation key`` on every signal, so the incident store can fold
  repeated firings of the same underlying condition into one incident.

Rules read *only* event-time state (sketches, tumbling windows, leak
histograms) — never wall clocks — so a fixed seed produces an identical
signal sequence no matter how the run was executed or sharded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.stream.analyzer import CHARACTERISTICS, StreamAnalyzer
from repro.stream.bus import StreamFrame
from repro.stream.sketches import category_codes

__all__ = [
    "Signal",
    "IncidentRule",
    "VolumeSpikeRule",
    "NewHeavyHitterRule",
    "CampaignOnsetRule",
    "CredentialLeakRule",
    "default_rules",
]


@dataclass(frozen=True)
class Signal:
    """One rule firing: the unit the incident store correlates on."""

    #: Name of the rule that fired (``rule.name``).
    rule: str
    #: Correlation key — identical keys fold into one incident.
    key: str
    #: Sealed hour (event time) the evaluation ran at.
    hour: int
    severity: str
    summary: str
    #: ``(kind, value)`` pairs naming who/what triggered the signal —
    #: the runbook executor consumes these (``asn`` entries become
    #: blocklist entries, ``vantage`` entries name reweight targets...).
    offenders: tuple = ()
    #: JSON-safe supporting evidence, persisted into the audit log.
    details: dict = field(default_factory=dict)


class IncidentRule:
    """Base class: a named, severity-tagged, runbook-bound detector."""

    #: Stable rule identifier (also the default incident title prefix).
    name = "rule"
    #: Severity stamped on emitted signals: ``warning`` or ``critical``.
    severity = "warning"
    #: Which runbook the executor runs when this rule opens an incident
    #: (``block`` / ``rotate`` / ``reweight`` / ``None`` for observe-only).
    runbook: Optional[str] = None
    #: Evaluate every ``cadence`` sealed hours (always at the final one).
    cadence = 1
    #: The §3.3 sketches (:data:`~repro.stream.analyzer.CHARACTERISTICS`)
    #: ``evaluate`` reads from the analyzer; a post-hoc replay builds only
    #: the union of its rules' reads.  A rule that does not say reads all.
    reads: tuple[str, ...] = CHARACTERISTICS

    def observe(self, frame: StreamFrame) -> None:
        """Per-frame hook; default rules need no extra state."""

    def evaluate(self, analyzer: "StreamAnalyzer", hour: int) -> list[Signal]:
        raise NotImplementedError


class VolumeSpikeRule(IncidentRule):
    """Per-vantage hourly volume spiking over its own trailing baseline.

    The streaming twin of the batch spike detector
    (:func:`repro.stats.volume.count_spikes`), but evaluated hour by
    hour as each seals: the freshly sealed hour is compared against the
    mean + ``threshold_sigmas``·std of the vantage's prior history.
    """

    name = "volume-spike"
    severity = "warning"
    runbook = "reweight"
    reads = ("as",)

    def __init__(
        self,
        threshold_sigmas: float = 3.0,
        min_history: int = 6,
        min_events: float = 32.0,
    ) -> None:
        self.threshold_sigmas = float(threshold_sigmas)
        self.min_history = int(min_history)
        self.min_events = float(min_events)

    def evaluate(self, analyzer: "StreamAnalyzer", hour: int) -> list[Signal]:
        if hour < self.min_history:
            return []
        signals: list[Signal] = []
        # Only vantages with at least min_events in the sealed hour can
        # spike; the rest are ruled out in one test over the windows.
        for vantage_id in analyzer.windows.keys_at_least(hour, self.min_events):
            series = analyzer.windows.series(vantage_id)
            value = float(series[hour])
            history = series[:hour]
            mean = float(history.mean())
            std = float(history.std())
            threshold = mean + self.threshold_sigmas * max(std, 1.0)
            if value <= threshold:
                continue
            offenders = [("vantage", str(vantage_id))]
            top_as = analyzer.top("as", vantage_id, 1)
            if top_as:
                offenders.append(("asn", int(top_as[0])))
            signals.append(Signal(
                rule=self.name,
                key=f"spike:{vantage_id}",
                hour=hour,
                severity=self.severity,
                summary=(
                    f"{vantage_id}: {value:.0f} events in hour {hour} "
                    f"vs baseline {mean:.1f}±{std:.1f}"
                ),
                offenders=tuple(offenders),
                details={
                    "value": value,
                    "baseline_mean": round(mean, 4),
                    "baseline_std": round(std, 4),
                    "threshold_sigmas": self.threshold_sigmas,
                },
            ))
        return signals


class NewHeavyHitterRule(IncidentRule):
    """A source AS newly entering a vantage's Space-Saving top-k.

    After a warmup period (the sketch needs history before "new" means
    anything), an AS appearing in the per-vantage top-``k`` that has
    never been in that vantage's top-``k`` before raises a signal —
    provided it actually carries weight: the vantage must have seen
    ``min_vantage_events`` events and the AS must hold ``min_share`` of
    them, otherwise early top-k churn on sparse vantages would open an
    incident per shuffle.  The ever-seen set is bounded: it only grows
    by ``k`` per vantage per membership change.
    """

    name = "new-heavy-hitter"
    severity = "critical"
    runbook = "block"
    reads = ("as",)

    def __init__(
        self,
        k: int = 3,
        warmup_hours: int = 6,
        min_vantage_events: int = 256,
        min_share: float = 0.15,
    ) -> None:
        self.k = int(k)
        self.warmup_hours = int(warmup_hours)
        self.min_vantage_events = int(min_vantage_events)
        self.min_share = float(min_share)
        self._seen: dict[str, set] = {}

    def evaluate(self, analyzer: "StreamAnalyzer", hour: int) -> list[Signal]:
        contingency = analyzer.contingency.get("as")
        if contingency is None:
            return []
        signals: list[Signal] = []
        totals = analyzer.events_per_vantage
        # Sparser vantages are skipped: "heavy" means nothing there yet.
        for vantage_id in contingency.groups_at_least(totals, self.min_vantage_events):
            total = float(totals.get(vantage_id, 0))
            sketch = contingency.sketch(vantage_id)
            top = [int(asn) for asn in sketch.top(self.k)]
            known = self._seen.get(vantage_id)
            if known is None:
                known = self._seen[vantage_id] = set()
            fresh = [
                asn for asn in top
                if asn not in known and sketch.estimate(asn) >= self.min_share * total
            ]
            known.update(top)
            if hour < self.warmup_hours:
                continue  # warmup still records membership, silently
            for asn in fresh:
                share = sketch.estimate(asn) / total
                signals.append(Signal(
                    rule=self.name,
                    key=f"heavy:{vantage_id}:{asn}",
                    hour=hour,
                    severity=self.severity,
                    summary=(
                        f"AS{asn} entered {vantage_id}'s top-{self.k} "
                        f"sources at hour {hour} ({share:.0%} of traffic)"
                    ),
                    offenders=(("asn", asn), ("vantage", str(vantage_id))),
                    details={"k": self.k, "share": round(share, 4)},
                ))
        return signals


class CampaignOnsetRule(IncidentRule):
    """Coordinated campaign onset: one payload fingerprint, many vantages.

    ``observe`` accumulates per-fingerprint footprints (vantage set,
    source-AS set, event count, first-seen hour) over the stripped
    payload — the §3.3 normalization, read from the frame's
    :class:`~repro.detection.coder.PayloadCoder` — keyed by a digest of
    it, and the rule fires once per fingerprint when its footprint
    first spans ``min_vantages`` vantages with ``min_events`` events.
    "Onset" is literal: fingerprints already circulating during the
    first ``warmup_hours`` (the fleet's background scanning noise) are
    grandfathered and never signal.
    """

    name = "campaign-onset"
    severity = "critical"
    runbook = "block"
    reads = ()

    def __init__(
        self,
        min_vantages: int = 3,
        min_events: int = 24,
        warmup_hours: int = 6,
    ) -> None:
        self.min_vantages = int(min_vantages)
        self.min_events = int(min_events)
        self.warmup_hours = int(warmup_hours)
        # fingerprint digest -> [preview, vantage set, asn set, events, first hour]
        self._campaigns: dict[str, list] = {}
        self._signaled: set[str] = set()

    def observe(self, frame: StreamFrame) -> None:
        hits, payload_codes = frame.payload_codes()
        if not hits.size:
            return
        coder = frame.coder
        # Distinct stripped payloads in first-seen order, so each
        # footprint is created (and previewed) by its first occurrence.
        local, stripped = category_codes(coder.stripped_lookup()[payload_codes].tolist())
        _stripped, first = np.unique(local, return_index=True)
        digests = []
        for code, row in zip(stripped, first.tolist()):
            digest = hashlib.sha256(coder.stripped_values[code]).hexdigest()[:12]
            if digest not in self._campaigns:
                preview = coder.payload_values[payload_codes[row]].split(b"\r\n", 1)[0][:48]
                self._campaigns[digest] = [preview, set(), set(), 0, np.inf]
            digests.append(digest)
        digest_codes, digests = category_codes(digests)
        codes = digest_codes[local]
        stamps = np.asarray(frame.column("timestamps"), dtype=np.float64)[hits]
        first_seen = np.full(len(digests), np.inf)
        np.minimum.at(first_seen, codes, stamps)
        events = np.bincount(codes, minlength=len(digests))
        vantage_codes, vantage_ids = category_codes(frame.vantage_ids)
        vantages = vantage_codes[frame.chunk_index()[hits]]
        asn_values, asns = np.unique(
            np.asarray(frame.column("src_asn"), dtype=np.int64)[hits], return_inverse=True
        )
        footprints = [self._campaigns[digest] for digest in digests]
        for footprint, count, stamp in zip(footprints, events.tolist(), first_seen.tolist()):
            footprint[3] += count
            footprint[4] = min(footprint[4], stamp)
        # Distinct (digest, vantage) and (digest, AS) pairs, packed.
        for pair in np.unique(codes * len(vantage_ids) + vantages).tolist():
            code, vantage = divmod(pair, len(vantage_ids))
            footprints[code][1].add(str(vantage_ids[vantage]))
        for pair in np.unique(codes * len(asn_values) + asns.reshape(-1)).tolist():
            code, asn = divmod(pair, len(asn_values))
            footprints[code][2].add(int(asn_values[asn]))

    def evaluate(self, analyzer: "StreamAnalyzer", hour: int) -> list[Signal]:
        signals: list[Signal] = []
        for digest in sorted(self._campaigns):
            if digest in self._signaled:
                continue
            preview, vantage_ids, asns, events, first_seen = self._campaigns[digest]
            if first_seen < self.warmup_hours:
                self._signaled.add(digest)  # background noise: grandfather
                continue
            if len(vantage_ids) < self.min_vantages or events < self.min_events:
                continue
            self._signaled.add(digest)
            signals.append(Signal(
                rule=self.name,
                key=f"campaign:{digest}",
                hour=hour,
                severity=self.severity,
                summary=(
                    f"campaign {digest} ({preview.decode('utf-8', errors='replace')!r}) "
                    f"on {len(vantage_ids)} vantages, {events} events"
                ),
                offenders=tuple(("asn", asn) for asn in sorted(asns)),
                details={
                    "fingerprint": digest,
                    "vantages": sorted(vantage_ids),
                    "events": events,
                    "first_seen_hour": round(first_seen, 4),
                },
            ))
        return signals


class CredentialLeakRule(IncidentRule):
    """The Table 3 leak alarm, generalized into one rule among peers.

    Wraps :meth:`repro.stream.windows.StreamingLeakAlarm.evaluate`: a
    leaked group whose trailing per-IP series is stochastically greater
    than the control group's raises one incident per (service, group).
    The Mann–Whitney/KS pass is the priciest evaluation in the catalog,
    so it runs at a daily cadence rather than hourly.
    """

    name = "credential-leak"
    severity = "critical"
    runbook = "rotate"
    cadence = 24
    reads = ()

    def __init__(self, trailing_hours: Optional[int] = None, alpha: float = 0.05) -> None:
        self.trailing_hours = trailing_hours
        self.alpha = float(alpha)

    def evaluate(self, analyzer: "StreamAnalyzer", hour: int) -> list[Signal]:
        leak = analyzer.leak
        if leak is None:
            return []
        signals: list[Signal] = []
        for alarm in leak.evaluate(self.trailing_hours, self.alpha):
            if not alarm.stochastically_greater:
                continue
            signals.append(Signal(
                rule=self.name,
                key=f"leak:{alarm.service}:{alarm.group}",
                hour=hour,
                severity=self.severity,
                summary=(
                    f"{alarm.group} credentials leaked on {alarm.service}: "
                    f"{alarm.fold:.1f}x control (MWU p={alarm.mwu_p:.3f})"
                ),
                offenders=(("service", alarm.service), ("group", alarm.group)),
                details={
                    "fold": round(alarm.fold, 4),
                    "mwu_p": round(alarm.mwu_p, 6),
                    "ks_p": round(alarm.ks_p, 6),
                    "trailing_hours": alarm.trailing_hours,
                },
            ))
        return signals


def default_rules() -> tuple[IncidentRule, ...]:
    """The stock rule catalog, in evaluation order."""
    return (
        VolumeSpikeRule(),
        NewHeavyHitterRule(),
        CampaignOnsetRule(),
        CredentialLeakRule(),
    )
