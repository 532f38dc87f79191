"""Wiring: the bus-attached pipeline and the canonical dataset replay.

Two ways to run detection:

* **live** — :class:`IncidentPipeline` subscribes to the same
  :class:`~repro.stream.bus.StreamBus` as the analyzer (always *after*
  it, so each frame is sketched before rules see the hour advance) and
  evaluates rules as tumbling hours seal;
* **post-hoc** — :func:`detect_incidents` replays a merged
  :class:`~repro.analysis.dataset.AnalysisDataset` through a fresh
  analyzer + pipeline in **canonical order**: hour-major, vantage-minor
  (sorted ids), original row order within each (vantage, hour) cell.
  That analyzer sketches only the characteristics its rules read.

Both run one code path: frames cut right after every chunk at which an
hour seals (:meth:`IncidentPipeline.cuts`), so rules evaluate exactly
the state they would see were the chunks fed one at a time.

The canonical order is the determinism keystone: the orchestrator's
merged datasets are bit-identical across shard counts, and the replay
order is a pure function of the merged tables — so the audit log of a
1-shard, 2-shard and 4-shard run of the same seed is byte-identical.

The replay is cheap: one stable argsort of every row by (hour,
vantage) cell, one gather into canonical order per column something
reads (the stock rules never touch credentials), and every (vantage,
hour) cell is a chunk of the replay frame — a row range, never an
object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.detection.coder import PayloadCoder
from repro.incident.incidents import AuditLog, IncidentStore
from repro.incident.rules import IncidentRule, default_rules
from repro.incident.runbooks import RunbookExecutor
from repro.io.table import concat_runs, gather_plan
from repro.stats.volume import hour_bins
from repro.stream.bus import StreamFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataset import AnalysisDataset
    from repro.stream.analyzer import StreamAnalyzer

__all__ = ["IncidentPipeline", "canonical_frame", "detect_incidents"]

class IncidentPipeline:
    """Rules + store + executor behind one ``consume(frame)`` face."""

    def __init__(
        self,
        analyzer: "StreamAnalyzer",
        rules: Optional[tuple[IncidentRule, ...]] = None,
        quiet_hours: int = 12,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self.analyzer = analyzer
        self.rules = tuple(rules) if rules is not None else default_rules()
        self.audit = audit if audit is not None else AuditLog()
        self.store = IncidentStore(self.audit, quiet_hours=quiet_hours)
        #: vantage id -> region, learned from chunks (reweight targets).
        self.regions: dict[str, str] = {}
        self.executor = RunbookExecutor(self.audit, self.store, region_of=self.regions.get)
        self._evaluated_hours = 0
        self._finalized = False

    # -- ingest ---------------------------------------------------------

    def consume(self, frame: StreamFrame) -> None:
        """Bus-subscriber hook; must run after the analyzer's consume.

        ``frame`` must not run past one of :meth:`cuts`' chunks (the bus
        and :func:`detect_incidents` cut there).
        """
        for source in frame.sources:
            self.regions.setdefault(source.vantage_id, source.region)
        for rule in self.rules:
            rule.observe(frame)
        self._advance(self.analyzer.windows.sealed_hours())

    def cuts(self, frame: StreamFrame) -> np.ndarray:
        """Chunks of ``frame`` after which an hour seals and rules read
        the analyzer: a frame must end there."""
        return self.analyzer.windows.seal_points(frame.column("timestamps"), frame.offsets)

    def finalize(self) -> None:
        """End of stream: evaluate through the final (never-sealing) hour.

        The tumbling windows' last hour is right-closed, so the
        watermark alone can never seal it — the pipeline needs an
        explicit end-of-stream to evaluate the tail and resolve leftover
        incidents.  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        self._advance(self.analyzer.hours, final=True)
        self.store.resolve_all(max(self.analyzer.hours - 1, 0))

    # -- evaluation -----------------------------------------------------

    def _advance(self, through_hour: int, final: bool = False) -> None:
        while self._evaluated_hours < through_hour:
            hour = self._evaluated_hours
            last = final and hour == through_hour - 1
            self._evaluate(hour, last)
            self._evaluated_hours += 1

    def _evaluate(self, hour: int, last: bool) -> None:
        signals = []
        for rule in self.rules:
            if last or (hour + 1) % rule.cadence == 0:
                signals.extend(rule.evaluate(self.analyzer, hour))
        opened = self.store.ingest(signals, hour)
        for incident in opened:
            rule = self._rule_named(incident.rule)
            if rule is not None:
                self.executor.execute(incident, rule.runbook, hour)
        self.store.resolve_quiet(hour)

    def _rule_named(self, name: str) -> Optional[IncidentRule]:
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None

    # -- views ----------------------------------------------------------

    def summary(self) -> dict:
        """Counts + last action, the shape snapshots and CLIs print."""
        counts = self.store.counts()
        last = self.executor.last_action()
        last_text = None
        if last is not None:
            parts = [f"{last['action']}"]
            for key in ("asn", "service", "region"):
                if key in last:
                    prefix = "AS" if key == "asn" else ""
                    parts.append(f"{prefix}{last[key]}")
            last_text = " ".join(parts) + f" (hour {last['hour']}, {last['incident']})"
        return {
            "open": counts["open"],
            "acknowledged": counts["acknowledged"],
            "resolved": counts["resolved"],
            "incidents": len(self.store.history),
            "actions": self.executor.action_count(),
            "blocklist_entries": len(self.executor.blocklist),
            "audit_records": len(self.audit),
            "last_action": last_text,
        }


def canonical_frame(tables: dict, hours: int) -> StreamFrame:
    """Merged per-vantage tables as one frame in the canonical stream order.

    Hour-major, then vantage id (sorted), then original table row order
    — one stable argsort by (hour bin, vantage) preserves intra-cell row
    order, so the row sequence is a pure function of the merged tables.
    Each non-empty (vantage, hour) cell is one chunk of the frame.  The
    replay owns a fresh :class:`~repro.detection.coder.PayloadCoder`: it
    interns in canonical order, so it must not share the dataset's.  The
    tables' rows are addressed through one
    :func:`~repro.io.table.gather_plan` over all of their runs, so a
    column is one :func:`~repro.io.table.concat_runs` and one gather,
    whatever the number of tables.
    """
    hours = int(hours)
    sources = [tables[vantage_id] for vantage_id in sorted(tables) if len(tables[vantage_id])]
    if not sources:
        return StreamFrame.from_chunks([])
    column_sets, starts, stops = zip(*(run for table in sources for run in table.runs()))
    spans, index = gather_plan(column_sets, starts, stops)
    # The hourly windows' bins: rows outside ``[0, hours]`` are not replayed.
    bins = hour_bins(concat_runs(spans, "timestamps")[index], hours)
    table_of_row = np.repeat(np.arange(len(sources)), [len(table) for table in sources])
    rows = np.flatnonzero(bins >= 0)
    cells = bins[rows] * len(sources) + table_of_row[rows]
    order = np.argsort(cells, kind="stable")
    cell_ids, cell_lengths = np.unique(cells[order], return_counts=True)
    offsets = np.zeros(len(cell_lengths) + 1, dtype=np.int64)
    np.cumsum(cell_lengths, out=offsets[1:])
    replay = index[rows[order]]

    gathered: dict[str, np.ndarray] = {}

    def _resolve(name: str, first: int, stop: int) -> np.ndarray:
        column = gathered.get(name)
        if column is None:
            column = gathered[name] = concat_runs(spans, name)[replay]
        return column[offsets[first]:offsets[stop]]

    return StreamFrame([sources[table] for table in (cell_ids % len(sources)).tolist()],
                       offsets, _resolve, coder=PayloadCoder())


def detect_incidents(
    dataset: "AnalysisDataset",
    rules: Optional[tuple[IncidentRule, ...]] = None,
    quiet_hours: int = 12,
) -> IncidentPipeline:
    """Post-hoc detection over a merged dataset, canonically ordered.

    Returns the finalized pipeline; ``pipeline.audit`` is the complete
    (byte-stable) audit log and ``pipeline.executor.blocklist`` the
    auto-emitted entries the closed-loop experiment feeds back.

    ``pipeline.analyzer`` holds only what its rules read: the sketches
    named by the union of their ``reads`` (``as`` alone for the stock
    catalog), besides the windows, distinct-source counters and leak
    alarm every analyzer keeps.  Its snapshot therefore lacks the
    other characteristics a live analyzer shows.
    """
    from repro.stream.analyzer import CHARACTERISTICS, StreamAnalyzer

    rules = tuple(rules) if rules is not None else default_rules()
    hours = int(dataset.window.hours)
    analyzer = StreamAnalyzer(
        hours=hours,
        leak_experiment=dataset.leak_experiment,
        characteristics=tuple(
            name for name in CHARACTERISTICS if any(name in rule.reads for rule in rules)
        ),
    )
    pipeline = IncidentPipeline(analyzer, rules=rules, quiet_hours=quiet_hours)
    replay = canonical_frame(dataset.tables, hours)
    for frame in replay.split(pipeline.cuts(replay)):
        analyzer.consume(frame)
        pipeline.consume(frame)
    pipeline.finalize()
    return pipeline
