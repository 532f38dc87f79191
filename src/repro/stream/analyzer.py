"""The standard bus subscriber: online sketches + windows + alarms.

:class:`StreamAnalyzer` consumes :class:`~repro.stream.bus.StreamFrame`
objects (ordered runs of published chunks) and maintains, in bounded
memory:

* per-vantage Space-Saving sketches for each §3.3 characteristic
  (source AS, username, password, payload — payloads in the stripped
  form the frame's :class:`~repro.detection.coder.PayloadCoder` derives,
  the one the batch analyses count); all four by default, or the
  ``characteristics`` subset a consumer reads (a characteristic left
  out costs nothing per frame);
* per-vantage HyperLogLog distinct-source counters;
* per-vantage tumbling hourly volume windows feeding the existing spike
  detector;
* the streaming Table 3 leak alarm, when the fleet carries the Section
  4.3 experiment.

``snapshot()`` captures the current state as a renderable
:class:`StreamSnapshot`; ``chi_square(characteristic)`` re-evaluates the
§3.3 top-k-union comparison on demand without a rescan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.deployment.fleet import LeakExperiment
from repro.reporting.tables import render_table
from repro.stats.contingency import ChiSquareResult
from repro.stream.bus import BusStats, StreamFrame
from repro.stream.sketches import HyperLogLogBank, StreamingContingency, category_codes
from repro.stream.windows import LeakAlarm, StreamingLeakAlarm, TumblingWindows

__all__ = ["CHARACTERISTICS", "StreamAnalyzer", "StreamSnapshot"]

#: The §3.3 characteristics tracked per vantage point.
CHARACTERISTICS = ("as", "username", "password", "payload")

#: Busiest vantages a snapshot lists top categories for, and a rendered
#: snapshot's vantage table shows.
_TOP_CATEGORY_VANTAGES = 6
_RENDERED_VANTAGES = 8


@dataclass
class StreamSnapshot:
    """One rendered view of the stream's current state."""

    events: int
    chunks: int
    vantages: int
    sealed_hours: int
    watermark: float
    top_categories: dict[str, list[tuple[str, list]]]  # characteristic -> [(vantage, top)]
    vantage_rows: list[tuple]  # (vantage, events, rate/hr, distinct src, spikes)
    comparisons: dict[str, ChiSquareResult]
    leak_alarms: list[LeakAlarm] = field(default_factory=list)
    bus_stats: Optional[BusStats] = None
    state_bytes: int = 0
    #: Incident-pipeline summary (None when detection is not attached).
    incidents: Optional[dict] = None

    def render(self) -> str:
        """Plain-text snapshot (what `cloudwatching watch` prints)."""
        lines = [
            f"== stream snapshot: {self.events:,} events / {self.chunks:,} chunks "
            f"from {self.vantages} vantage(s), watermark {self.watermark:.2f}h "
            f"({self.sealed_hours} sealed hour(s)), state ~{self.state_bytes:,} B =="
        ]
        busiest = sorted(self.vantage_rows, key=lambda row: -row[1])[:_RENDERED_VANTAGES]
        if busiest:
            lines.append(render_table(
                ["vantage", "events", "events/hr", "~distinct src", "spikes"],
                [(vid, f"{events:,}", f"{rate:.1f}", f"{distinct:.0f}", spikes)
                 for vid, events, rate, distinct, spikes in busiest],
                title="per-vantage rates (busiest first)",
            ))
        for characteristic, rows in self.top_categories.items():
            if not rows:
                continue
            lines.append(render_table(
                ["vantage", f"top {characteristic}"],
                [(vid, ", ".join(_category_label(c) for c in top)) for vid, top in rows],
                title=f"top categories: {characteristic}",
            ))
        if self.comparisons:
            lines.append(render_table(
                ["characteristic", "phi", "p", "magnitude", "n"],
                [(name, f"{result.phi:.3f}", f"{result.p_value:.2e}",
                  str(result.magnitude), result.sample_size)
                 if result.valid else (name, "-", "-", "untestable", 0)
                 for name, result in self.comparisons.items()],
                title="§3.3 cross-vantage comparisons (top-3 union)",
            ))
        if self.leak_alarms:
            lines.append(render_table(
                ["service", "group", "fold/hr", "MWU p", "alarm", "spikes"],
                [(alarm.service, alarm.group, f"{alarm.fold:.1f}",
                  f"{alarm.mwu_p:.3f}",
                  "LEAK" if alarm.stochastically_greater else
                  ("spike" if alarm.distribution_differs else "-"),
                  f"{alarm.leaked_spikes}/{alarm.control_spikes}")
                 for alarm in self.leak_alarms],
                title="leak alarms (vs control)",
            ))
        if self.incidents is not None:
            inc = self.incidents
            line = (
                f"incidents: {inc['open']} open / "
                f"{inc['acknowledged']} acknowledged / "
                f"{inc['resolved']} resolved; "
                f"{inc['actions']} action(s), "
                f"{inc['blocklist_entries']} blocklist entr"
                + ("y" if inc["blocklist_entries"] == 1 else "ies")
            )
            if inc.get("last_action"):
                line += f"; last action: {inc['last_action']}"
            lines.append(line)
        if self.bus_stats is not None:
            stats = self.bus_stats
            lines.append(
                f"bus: {stats.published_events:,} published, "
                f"{stats.delivered_events:,} delivered, "
                f"{stats.dropped_events:,} dropped "
                f"({stats.dropped_chunks:,} chunk(s) rejected), "
                f"{stats.backpressure_flushes} backpressure flush(es), "
                f"high water {stats.queue_high_water:,} events"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-safe snapshot (the ``watch --format json`` shape)."""
        return {
            "events": int(self.events),
            "chunks": int(self.chunks),
            "vantages": int(self.vantages),
            "sealed_hours": int(self.sealed_hours),
            "watermark_hours": float(self.watermark),
            "state_bytes": int(self.state_bytes),
            "vantage_rows": [
                {
                    "vantage": vid,
                    "events": int(events),
                    "rate_per_hour": float(rate),
                    "distinct_sources": float(distinct),
                    "spikes": int(spikes),
                }
                for vid, events, rate, distinct, spikes in self.vantage_rows
            ],
            "top_categories": {
                name: [
                    {"vantage": vid,
                     "top": [_category_json(c) for c in top]}
                    for vid, top in rows
                ]
                for name, rows in self.top_categories.items()
            },
            "comparisons": {
                name: {
                    "phi": float(result.phi),
                    "p_value": float(result.p_value),
                    "sample_size": int(result.sample_size),
                    "valid": bool(result.valid),
                    "magnitude": str(result.magnitude) if result.valid else "untestable",
                }
                for name, result in self.comparisons.items()
            },
            "leak_alarms": [
                {
                    "service": alarm.service,
                    "group": alarm.group,
                    "fold": float(alarm.fold),
                    "mwu_p": float(alarm.mwu_p),
                    "stochastically_greater": bool(alarm.stochastically_greater),
                    "distribution_differs": bool(alarm.distribution_differs),
                    "leaked_spikes": int(alarm.leaked_spikes),
                    "control_spikes": int(alarm.control_spikes),
                }
                for alarm in self.leak_alarms
            ],
            "bus": self.bus_stats.as_dict() if self.bus_stats is not None else None,
            "incidents": self.incidents,
        }


def _category_label(category) -> str:
    if isinstance(category, bytes):
        text = category.split(b"\r\n", 1)[0].decode("utf-8", errors="replace")
        return text[:32] or "<binary>"
    return str(category)[:32]


def _category_json(category) -> Union[int, str, dict]:
    """One sketch category as a JSON-safe value (bytes survive base64d)."""
    import base64

    if isinstance(category, bytes):
        return {
            "base64": base64.b64encode(category).decode("ascii"),
            "text": _category_label(category),
        }
    if isinstance(category, (int, np.integer)):
        return int(category)
    return str(category)


def _sketch_frame(
    contingency: StreamingContingency,
    vantage_ids: list,
    chunks: np.ndarray,
    codes: np.ndarray,
    categories: list,
) -> None:
    """Space-Saving updates for one frame's ``(chunk, category)`` rows.

    Applied exactly as feeding the chunks one at a time would: chunk by
    chunk, each chunk's rows pre-aggregated and its categories applied
    in ``repr`` order (:meth:`SpaceSavingSketch.update_counts`) — once a
    sketch evicts, its contents depend on that order.
    """
    if not len(codes):
        return
    width = len(categories)
    by_repr = sorted(range(width), key=lambda code: repr(categories[code]))
    rank = np.empty(width, dtype=np.int64)
    rank[by_repr] = np.arange(width)
    packed, counts = np.unique(chunks * width + rank[codes], return_counts=True)
    current, sketch = -1, None
    for cell, count in zip(packed.tolist(), counts.tolist()):
        chunk, position = divmod(cell, width)
        if chunk != current:
            current, sketch = chunk, contingency.sketch(vantage_ids[chunk])
        sketch.update(categories[by_repr[position]], count)


class StreamAnalyzer:
    """Bounded-memory online view of a captured-event stream."""

    def __init__(
        self,
        hours: int,
        sketch_k: int = 64,
        leak_experiment: Optional[LeakExperiment] = None,
        characteristics: tuple[str, ...] = CHARACTERISTICS,
    ) -> None:
        unknown = [name for name in characteristics if name not in CHARACTERISTICS]
        if unknown:
            raise ValueError(
                f"unknown characteristic(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {CHARACTERISTICS}"
            )
        self.hours = int(hours)
        self.sketch_k = sketch_k
        self.characteristics = tuple(characteristics)
        self.contingency: dict[str, StreamingContingency] = {
            name: StreamingContingency(sketch_k) for name in self.characteristics
        }
        self.windows = TumblingWindows(self.hours)
        self.distinct_sources = HyperLogLogBank()
        self.events_per_vantage: Counter = Counter()
        self.leak: Optional[StreamingLeakAlarm] = (
            StreamingLeakAlarm(leak_experiment, self.hours)
            if leak_experiment is not None
            else None
        )
        self.events_consumed = 0
        self.chunks_consumed = 0

    # -- ingest --------------------------------------------------------

    def consume(self, frame: StreamFrame) -> None:
        """Ingest one frame."""
        if not len(frame):
            return
        vantage_ids = frame.vantage_ids
        self.chunks_consumed += frame.num_chunks
        self.events_consumed += len(frame)
        for vantage_id, length in zip(vantage_ids, frame.lengths.tolist()):
            self.events_per_vantage[vantage_id] += length

        # Per-vantage windows and distinct-source registers: one block
        # update each for the whole frame.
        chunks = frame.chunk_index()
        chunk_vantage, keys = category_codes(vantage_ids)
        rows = chunk_vantage[chunks]
        timestamps = frame.column("timestamps")
        self.windows.add_keyed(keys, rows, timestamps)
        self.distinct_sources.add_keyed(keys, rows, frame.column("src_ip"))

        if "as" in self.contingency:
            asns, codes = np.unique(frame.column("src_asn"), return_inverse=True)
            _sketch_frame(self.contingency["as"], vantage_ids, chunks,
                          codes.reshape(-1), [int(asn) for asn in asns.tolist()])
        if "payload" in self.contingency:
            self._sketch_payloads(frame, vantage_ids, chunks)
        if "username" in self.contingency or "password" in self.contingency:
            self._sketch_credentials(frame, vantage_ids, chunks)

        if self.leak is not None:
            self.leak.observe(
                frame.column("dst_ip"),
                frame.column("dst_port"),
                frame.column("src_asn"),
                timestamps,
            )
            # Event time advances even when no experiment traffic arrives.
            self.leak.windows.watermark = max(
                self.leak.windows.watermark, self.windows.watermark
            )

    def _sketch_payloads(self, frame: StreamFrame, vantage_ids: list,
                         chunks: np.ndarray) -> None:
        """Payload counts over the coder's stripped forms, re-coded to
        the frame's own categories."""
        hits, codes = frame.payload_codes()
        coder = frame.coder
        stripped, local = np.unique(coder.stripped_lookup()[codes], return_inverse=True)
        _sketch_frame(self.contingency["payload"], vantage_ids, chunks[hits],
                      local.reshape(-1),
                      [coder.stripped_values[code] for code in stripped.tolist()])

    def _sketch_credentials(self, frame: StreamFrame, vantage_ids: list,
                            chunks: np.ndarray) -> None:
        """Username and password counts, one per attempted pair."""
        credentials = frame.column("credentials")
        hits = np.flatnonzero(credentials.astype(bool))
        if not hits.size:
            return
        pair_chunks: list = []
        usernames: list = []
        passwords: list = []
        for chunk, pairs in zip(chunks[hits].tolist(), credentials[hits].tolist()):
            for username, password in pairs:
                pair_chunks.append(chunk)
                usernames.append(username)
                passwords.append(password)
        pair_chunks = np.asarray(pair_chunks, dtype=np.int64)
        for name, values in (("username", usernames), ("password", passwords)):
            if name in self.contingency:
                codes, categories = category_codes(values)
                _sketch_frame(self.contingency[name], vantage_ids, pair_chunks,
                              codes, categories)

    # -- on-demand analysis --------------------------------------------

    def chi_square(self, characteristic: str, k: int = 3) -> ChiSquareResult:
        """Re-evaluate one §3.3 comparison across vantages, right now."""
        return self.contingency[characteristic].chi_square(k)

    def top(self, characteristic: str, vantage_id: str, k: int = 3) -> list:
        return self.contingency[characteristic].top(vantage_id, k)

    def state_bytes(self) -> int:
        """Approximate resident bytes of all online state."""
        total = self.windows.state_bytes()
        total += sum(c.state_bytes() for c in self.contingency.values())
        total += sum(h.state_bytes() for h in self.distinct_sources.values())
        if self.leak is not None:
            total += self.leak.state_bytes()
        return total

    def snapshot(
        self,
        top_k: int = 3,
        bus_stats: Optional[BusStats] = None,
        trailing_hours: Optional[int] = None,
    ) -> StreamSnapshot:
        """Capture the current online state as a renderable snapshot."""
        busiest = [vid for vid, _count in self.events_per_vantage.most_common()]
        vantage_rows = [
            (
                vid,
                int(self.events_per_vantage[vid]),
                self.windows.rate_per_hour(vid),
                self.distinct_sources[vid].estimate() if vid in self.distinct_sources else 0.0,
                self.windows.spikes(vid),
            )
            for vid in busiest
        ]
        top_categories: dict[str, list[tuple[str, list]]] = {}
        for name in self.characteristics:
            contingency = self.contingency[name]
            rows = []
            for vid in busiest[:_TOP_CATEGORY_VANTAGES]:
                top = contingency.top(vid, top_k)
                if top:
                    rows.append((vid, top))
            top_categories[name] = rows
        comparisons = {
            name: self.contingency[name].chi_square(top_k)
            for name in self.characteristics
            if len(self.contingency[name]) >= 2
        }
        return StreamSnapshot(
            events=self.events_consumed,
            chunks=self.chunks_consumed,
            vantages=len(self.events_per_vantage),
            sealed_hours=self.windows.sealed_hours(),
            watermark=self.windows.watermark,
            top_categories=top_categories,
            vantage_rows=vantage_rows,
            comparisons=comparisons,
            leak_alarms=(
                self.leak.evaluate(trailing_hours) if self.leak is not None else []
            ),
            bus_stats=bus_stats,
            state_bytes=self.state_bytes(),
        )
