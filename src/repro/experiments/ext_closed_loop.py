"""X5: the closed loop — detect incidents, respond, measure the response.

The paper's blocklists (Section 8) are *static*: threat intelligence
gathered over a training window, applied afterwards.  The incident
subsystem closes the loop instead — rules watch the stream, runbooks
emit ASN blocklist entries the moment a campaign or fresh heavy hitter
is detected, and each entry activates the *next* hour.  This driver
quantifies what that buys:

* **auto arm** — the entries :func:`~repro.incident.pipeline.detect_incidents`
  emits, applied analytically over the merged dataset with
  :class:`~repro.incident.enforce.ActiveBlocklist` masks in one pass
  over its tables, so orchestrated runs reproduce the single-process
  numbers bit for bit;
* **static arm** — the paper-style baseline: malicious source IPs seen
  in the first half of the window, active from the halfway point.  The
  list round-trips through a blocklist *file* (the same parser external
  lists use), so the paper-static path and the closed loop share one
  code path end to end;
* **detection latency** — per emitted entry, activation hour minus the
  offending AS's first appearance anywhere in the dataset;
* **enforced re-simulation** — the same entries handed to the engine's
  post-draw enforcer; the re-run must land on *exactly*
  ``baseline - analytically_blocked`` events (the closed loop's
  self-check that mask and hook agree).
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

import numpy as np

from repro.experiments.base import ExperimentOutput, resolve_context
from repro.experiments.context import ExperimentContext
from repro.incident.enforce import ActiveBlocklist
from repro.incident.pipeline import detect_incidents
from repro.reporting.tables import render_table


def closed_loop_metrics(
    context: ExperimentContext, verify_resim: bool = True
) -> dict:
    """Detect, respond, and account the response (the X5/bench core).

    Returns a flat dict of deterministic metrics; every aggregate is a
    sum, minimum or union over the dataset's tables, so the values are
    identical for single-process and orchestrated datasets of the same
    seed.
    """
    dataset = context.dataset
    hours = float(dataset.window.hours)
    train_hours = hours / 2.0

    pipeline = detect_incidents(dataset)
    entries = tuple(pipeline.executor.blocklist)
    auto = ActiveBlocklist.from_entries(entries)
    auto_asns = tuple(sorted({entry.asn for entry in entries}))
    from repro.analysis.contingency_engine import dataset_coder

    coder = dataset_coder(dataset)
    tables = [table for table in dataset.tables.values() if len(table)]
    coder.intern(tables)
    total = auto_blocked = 0
    train_ips: set[int] = set()
    first_seen: dict[int, float] = {}
    for table in tables:
        stamps = np.asarray(table.timestamps, dtype=np.float64)
        asns = np.asarray(table.src_asn)
        ips = np.asarray(table.src_ip)
        total += len(table)
        auto_blocked += int(np.count_nonzero(auto.blocked_mask(stamps, asns, ips)))
        for asn in auto_asns:
            hits = stamps[asns == asn]
            if hits.size:
                seen = float(hits.min())
                if asn not in first_seen or seen < first_seen[asn]:
                    first_seen[asn] = seen
        # Static-arm training: malicious sources in the first half.
        trained = (stamps < train_hours) & coder.malicious(table)
        if trained.any():
            train_ips.update(np.unique(ips[trained]).tolist())

    # Static paper baseline: train-half malicious IPs, written to and
    # re-read from a blocklist file so both arms share the file parser.
    from repro.analysis.blocklists import load_blocklist_file, write_blocklist_file

    with tempfile.TemporaryDirectory(prefix="cloudwatching-x5-") as tmp:
        path = os.path.join(tmp, "static-blocklist.txt")
        write_blocklist_file(path, ips=train_ips)
        static_ips, static_asns = load_blocklist_file(path)
    static = ActiveBlocklist(
        ip_entries=[(ip, train_hours) for ip in static_ips],
        asn_entries=[(asn, train_hours) for asn in static_asns],
    )

    static_blocked = sum(
        int(np.count_nonzero(static.blocked_mask(
            np.asarray(table.timestamps, dtype=np.float64),
            np.asarray(table.src_asn),
            np.asarray(table.src_ip),
        )))
        for table in tables
    )

    latencies = sorted(
        entry.active_from - first_seen[entry.asn]
        for entry in entries
        if entry.asn in first_seen
    )
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0

    summary = pipeline.summary()
    metrics = {
        "incidents": summary["incidents"],
        "resolved": summary["resolved"],
        "actions": summary["actions"],
        "audit_records": summary["audit_records"],
        "audit_digest": pipeline.audit.digest(),
        "blocklist_entries": [entry.as_dict() for entry in entries],
        "total_events": total,
        "auto_blocked_events": auto_blocked,
        "auto_volume_reduction_pct":
            100.0 * auto_blocked / total if total else 0.0,
        "static_blocklist_size": len(static_ips) + len(static_asns),
        "static_blocked_events": static_blocked,
        "static_volume_reduction_pct":
            100.0 * static_blocked / total if total else 0.0,
        "mean_detection_latency_hours": mean_latency,
        "resim": None,
    }

    if verify_resim:
        from repro.scanners.population import PopulationConfig, build_population
        from repro.sim.engine import SimulationConfig, run_simulation

        config = context.config
        population = build_population(
            PopulationConfig(year=config.year, scale=config.scale)
        )
        enforced = run_simulation(
            context.deployment,
            population,
            SimulationConfig(seed=config.seed, window=config.window()),
            enforcer=auto,
        )
        enforced_total = sum(len(t) for t in enforced.tables().values())
        predicted = total - auto_blocked
        metrics["resim"] = {
            "baseline_events": total,
            "enforced_events": enforced_total,
            "predicted_events": predicted,
            "exact": enforced_total == predicted,
        }
        if enforced_total != predicted:
            raise AssertionError(
                "closed-loop self-check failed: enforced re-simulation "
                f"produced {enforced_total} events, analytic prediction "
                f"was {predicted}"
            )
    return metrics


def run(
    context: Optional[ExperimentContext] = None,
    verify_resim: bool = True,
) -> ExperimentOutput:
    context = resolve_context(context)
    metrics = closed_loop_metrics(context, verify_resim=verify_resim)
    rows = [
        (
            "none (baseline)",
            "-",
            0,
            "0.0%",
            "-",
        ),
        (
            "closed loop (auto)",
            f"{len(metrics['blocklist_entries'])} ASN entries",
            metrics["auto_blocked_events"],
            f"{metrics['auto_volume_reduction_pct']:.1f}%",
            f"{metrics['mean_detection_latency_hours']:.1f}h",
        ),
        (
            "static (paper-style)",
            f"{metrics['static_blocklist_size']} IP entries",
            metrics["static_blocked_events"],
            f"{metrics['static_volume_reduction_pct']:.1f}%",
            f"{context.dataset.window.hours / 2.0:.0f}h (train split)",
        ),
    ]
    text = render_table(
        ["Response", "Blocklist", "Blocked events", "Volume reduction",
         "Mean detection latency"],
        rows,
    )
    text += (
        f"\n{metrics['incidents']} incident(s), {metrics['actions']} runbook "
        f"action(s); audit log {metrics['audit_records']} record(s) "
        f"(digest {metrics['audit_digest'][:12]})."
    )
    if metrics["resim"] is not None:
        resim = metrics["resim"]
        text += (
            f"\nEnforced re-simulation: {resim['enforced_events']:,} events vs "
            f"analytic prediction {resim['predicted_events']:,} — "
            + ("exact." if resim["exact"] else "MISMATCH.")
        )
    return ExperimentOutput("X5", "Closed-loop incident response", text, metrics)
