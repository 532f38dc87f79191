"""Bounded-memory streaming telemetry: bus, sketches, windows, watch.

The subsystem behind ``cloudwatching watch``: ingest captured events
from a running simulation, a live honeypot fleet, or an orchestrated
run's spill directory; maintain online sketches and tumbling windows in
bounded memory; and re-evaluate the paper's §3.3 comparisons and Table 3
leak tests on demand.
"""

from repro.stream.analyzer import CHARACTERISTICS, StreamAnalyzer, StreamSnapshot
from repro.stream.bus import BusStats, StreamBus, StreamFrame
from repro.stream.sketches import HyperLogLog, SpaceSavingSketch, StreamingContingency
from repro.stream.watch import (
    WatchOptions,
    watch_live,
    watch_run_dir,
    watch_simulation,
)
from repro.stream.windows import LeakAlarm, StreamingLeakAlarm, TumblingWindows

__all__ = [
    "CHARACTERISTICS",
    "StreamAnalyzer",
    "StreamSnapshot",
    "BusStats",
    "StreamBus",
    "StreamFrame",
    "HyperLogLog",
    "SpaceSavingSketch",
    "StreamingContingency",
    "WatchOptions",
    "watch_live",
    "watch_run_dir",
    "watch_simulation",
    "LeakAlarm",
    "StreamingLeakAlarm",
    "TumblingWindows",
]
