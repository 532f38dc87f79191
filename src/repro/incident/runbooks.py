"""Typed runbook actions with cause-incident provenance.

The executor is the fleet's hands: when the store opens an incident
whose rule names a runbook, the matching handler runs immediately (same
sealed hour) and every action it takes is appended to the audit log with
the incident id that caused it.  Three typed actions:

* ``block`` — emit an ASN blocklist entry, active from the *next* hour
  (the detection latency the closed-loop experiment measures);
* ``rotate`` — rotate a honeypot service fingerprint (recorded as a new
  fingerprint generation for the affected service);
* ``reweight`` — scale down a deployment region's weight (recorded per
  region, multiplicative).

Actions are idempotent per target: an ASN already blocked, a service
already rotated this hour, or a region already at the floor produces no
duplicate entry — re-firings correlate into the incident instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.incident.incidents import AuditLog, Incident, IncidentStore

__all__ = ["BlocklistEntry", "RunbookExecutor"]

#: A reweight multiplies a region's traffic weight by this factor ...
_REWEIGHT_FACTOR = 0.5
#: ... down to this floor, where the region is no longer reweighted.
_MIN_REGION_WEIGHT = 0.25


@dataclass(frozen=True)
class BlocklistEntry:
    """One auto-emitted block: an ASN and when the block takes effect."""

    asn: int
    #: Event-time hour the block activates (detection hour + 1: the
    #: entry cannot act on traffic already seen when it was emitted).
    active_from: float
    #: Cause-incident provenance.
    incident_id: str

    def as_dict(self) -> dict:
        return {
            "asn": self.asn,
            "active_from": self.active_from,
            "incident": self.incident_id,
        }


class RunbookExecutor:
    """Run the runbook an incident's rule names, with full provenance."""

    #: Runbook names; ``name`` runs :meth:`_run_<name>`.  Handlers are
    #: looked up per call: a table of bound methods would put every
    #: executor (its store, audit log and incidents) in a reference
    #: cycle that only a full collection frees.
    RUNBOOKS = ("block", "rotate", "reweight")

    def __init__(
        self,
        audit: AuditLog,
        store: IncidentStore,
        region_of: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        self.audit = audit
        self.store = store
        self.region_of = region_of or (lambda vantage_id: None)
        self.blocklist: list[BlocklistEntry] = []
        self._blocked_asns: set[int] = set()
        self.rotations: list[dict] = []
        self._fingerprint_generation: dict[str, int] = {}
        self.region_weights: dict[str, float] = {}

    def execute(self, incident: Incident, runbook: Optional[str], hour: int) -> int:
        """Run ``runbook`` for a newly opened incident; returns #actions."""
        if runbook not in self.RUNBOOKS:
            return 0
        actions = getattr(self, f"_run_{runbook}")(incident, hour)
        for action in actions:
            self.audit.append({
                "record": "action",
                "hour": hour,
                "incident": incident.incident_id,
                "runbook": runbook,
                **action,
            })
        self.store.acknowledge(incident, hour, runbook)
        return len(actions)

    def action_count(self) -> int:
        return len(self.audit.actions())

    def last_action(self) -> Optional[dict]:
        actions = self.audit.actions()
        return actions[-1] if actions else None

    # -- the runbooks ---------------------------------------------------

    def _run_block(self, incident: Incident, hour: int) -> list[dict]:
        actions = []
        for kind, value in incident.offenders:
            if kind != "asn":
                continue
            asn = int(value)
            if asn in self._blocked_asns:
                continue
            self._blocked_asns.add(asn)
            entry = BlocklistEntry(
                asn=asn, active_from=float(hour + 1),
                incident_id=incident.incident_id,
            )
            self.blocklist.append(entry)
            actions.append({
                "action": "block",
                "asn": asn,
                "active_from": entry.active_from,
            })
        return actions

    def _run_rotate(self, incident: Incident, hour: int) -> list[dict]:
        actions = []
        for kind, value in incident.offenders:
            if kind != "service":
                continue
            service = str(value)
            generation = self._fingerprint_generation.get(service, 0) + 1
            self._fingerprint_generation[service] = generation
            rotation = {
                "action": "rotate",
                "service": service,
                "fingerprint_generation": generation,
            }
            self.rotations.append({**rotation, "hour": hour})
            actions.append(rotation)
        return actions

    def _run_reweight(self, incident: Incident, hour: int) -> list[dict]:
        actions = []
        for kind, value in incident.offenders:
            if kind != "vantage":
                continue
            region = self.region_of(str(value)) or "unknown"
            weight = self.region_weights.get(region, 1.0)
            if weight <= _MIN_REGION_WEIGHT:
                continue
            weight = max(weight * _REWEIGHT_FACTOR, _MIN_REGION_WEIGHT)
            self.region_weights[region] = weight
            actions.append({
                "action": "reweight",
                "region": region,
                "vantage": str(value),
                "weight": round(weight, 6),
            })
        return actions
