"""Simulator calibration diagnostics.

These checks compare a finished simulation's *captured* data against its
own *configured* population — the one place in the repository allowed to
look at ground truth.  They exist for maintainers editing
:mod:`repro.scanners.population`: a failed check means a calibration knob
drifted, not that an analysis is wrong.

Usage::

    report = validate_calibration(result)
    for finding in report.findings:
        print(finding)
    assert report.ok
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.engine import SimulationResult
from repro.sim.events import NetworkKind

__all__ = ["CalibrationFinding", "CalibrationReport", "validate_calibration"]


@dataclass(frozen=True)
class CalibrationFinding:
    """One diagnostic result."""

    check: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        status = "ok " if self.ok else "FAIL"
        return f"[{status}] {self.check}: {self.detail}"


@dataclass
class CalibrationReport:
    findings: list[CalibrationFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(finding.ok for finding in self.findings)

    def add(self, check: str, ok: bool, detail: str) -> None:
        self.findings.append(CalibrationFinding(check, ok, detail))

    def failures(self) -> list[CalibrationFinding]:
        return [finding for finding in self.findings if not finding.ok]


def _ground_truth_sources(result: SimulationResult) -> tuple[set[int], set[int]]:
    """(malicious source IPs, telescope-avoiding source IPs) per config."""
    malicious: set[int] = set()
    avoiders: set[int] = set()
    for spec in result.population:
        sources = {int(ip) for ip in result.source_ips[spec.scanner_id]}
        if spec.malicious:
            malicious |= sources
        if spec.strategy.kind_weights.get(NetworkKind.TELESCOPE, 1.0) == 0.0:
            avoiders |= sources
    return malicious, avoiders


def validate_calibration(
    result: SimulationResult,
    min_events: int = 1000,
) -> CalibrationReport:
    """Run the calibration checks on one simulation."""
    report = CalibrationReport()
    total = result.total_events()
    report.add("volume", total >= min_events,
               f"{total} honeypot events (expected >= {min_events})")
    if total == 0:
        return report

    malicious_truth, avoider_truth = _ground_truth_sources(result)

    # --- telescope avoidance holds exactly ---
    telescope_sources: set[int] = set()
    if result.telescope is not None:
        for port in result.telescope.ports():
            telescope_sources |= result.telescope.sources_on_port(port)
        leaked_avoiders = telescope_sources & avoider_truth
        report.add(
            "telescope-avoidance",
            not leaked_avoiders,
            f"{len(leaked_avoiders)} configured avoiders leaked into the telescope",
        )

    # One pass over the rows feeds every row-level check below.
    from repro.detection.classify import MaliciousnessClassifier

    classifier = MaliciousnessClassifier()
    hours = result.window.hours
    kind_counts: Counter = Counter()
    out_of_window = bad_asn = checked = 0
    truth_hits = truth_total = benign_hits = benign_total = 0
    for event in result.events():
        kind_counts[event.network_kind] += 1
        if not 0.0 <= event.timestamp < hours:
            out_of_window += 1
        if checked < 2000:
            checked += 1
            system = result.registry.lookup(event.src_ip)
            if system is None or system.asn != event.src_asn:
                bad_asn += 1
        if event.src_ip in malicious_truth:
            truth_total += 1
            truth_hits += classifier.is_malicious(event)
        else:
            benign_total += 1
            benign_hits += classifier.is_malicious(event)

    # --- every network kind saw traffic ---
    for kind in (NetworkKind.CLOUD, NetworkKind.EDU):
        report.add(f"coverage-{kind.value}", kind_counts[kind] > 0,
                   f"{kind_counts[kind]} events")

    # --- timestamps inside the window ---
    report.add("timestamps", out_of_window == 0,
               f"{out_of_window} events outside [0, {hours})")

    # --- source attribution consistent with the registry ---
    report.add("as-attribution", bad_asn == 0,
               f"{bad_asn}/{checked} sampled events with inconsistent AS attribution")

    # --- malicious ground truth has malicious-looking traffic ---
    detection_rate = truth_hits / truth_total if truth_total else 0.0
    report.add(
        "malicious-detectability",
        detection_rate > 0.25,
        f"{detection_rate:.0%} of configured-malicious traffic is detectably "
        "malicious (logins or rule hits)",
    )

    # --- benign ground truth rarely triggers detection (false positives) ---
    false_rate = benign_hits / benign_total if benign_total else 0.0
    report.add(
        "benign-false-positives",
        false_rate < 0.15,
        f"{false_rate:.1%} of configured-benign traffic flagged malicious",
    )
    return report
