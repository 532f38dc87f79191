"""Incident detection and automated response over the streaming layer.

The subsystem promotes the one-off streaming Table 3 leak alarm into a
general pipeline, in the signal-aggregator → incident-detector →
runbook-executor shape:

* :mod:`repro.incident.rules` — declarative rules evaluated over the
  :class:`~repro.stream.analyzer.StreamAnalyzer`'s sketches and tumbling
  windows at every sealed hour, each emitting correlated ``Signal``s;
* :mod:`repro.incident.incidents` — incident objects with a
  deterministic lifecycle (open → acknowledged → resolved), deduplicated
  by correlation key, persisted to an append-only NDJSON audit log;
* :mod:`repro.incident.runbooks` — typed response actions (emit a
  blocklist entry, rotate a honeypot fingerprint, reweight a deployment
  region), each recorded with cause-incident provenance;
* :mod:`repro.incident.enforce` — the closed loop's enforcement side: an
  :class:`ActiveBlocklist` the simulation engine applies mid-run;
* :mod:`repro.incident.pipeline` — the bus subscriber wiring it all
  together, plus the canonical dataset replay that makes detection
  bit-identical across shard counts.

Everything is event-time only — no wall clocks — so a fixed seed yields
a bit-identical audit log no matter how the run was sharded.
"""

from repro.incident.enforce import ActiveBlocklist
from repro.incident.incidents import AuditLog, Incident, IncidentStore
from repro.incident.pipeline import IncidentPipeline, detect_incidents
from repro.incident.rules import (
    CampaignOnsetRule,
    CredentialLeakRule,
    IncidentRule,
    NewHeavyHitterRule,
    Signal,
    VolumeSpikeRule,
    default_rules,
)
from repro.incident.runbooks import BlocklistEntry, RunbookExecutor

__all__ = [
    "ActiveBlocklist",
    "AuditLog",
    "BlocklistEntry",
    "CampaignOnsetRule",
    "CredentialLeakRule",
    "Incident",
    "IncidentPipeline",
    "IncidentRule",
    "IncidentStore",
    "NewHeavyHitterRule",
    "RunbookExecutor",
    "Signal",
    "VolumeSpikeRule",
    "default_rules",
    "detect_incidents",
]
