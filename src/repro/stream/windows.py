"""Windowed aggregation: tumbling hourly volumes, streaming spikes, and
the streaming Table 3 leak alarm.

* :class:`TumblingWindows` maintains per-key hourly event counts,
  binned by :func:`repro.stats.volume.hour_bins` as
  :func:`~repro.stats.volume.hourly_volumes` bins, so a fully drained
  stream reproduces the batch series bit-for-bit.  The sealed prefix
  (hours the watermark has passed) feeds the batch spike detector,
  :func:`repro.stats.volume.count_spikes`, unchanged.
* :class:`StreamingLeakAlarm` is the one implementation of the Section
  4.3 / Table 3 comparison: per-(service, leak-group) hourly volumes are
  maintained incrementally, crawler ASes excluded, and an on-demand
  :func:`~repro.stats.volume.compare_volumes` (one-sided Mann–Whitney U
  + KS) runs over the trailing window against the control group.
  Table 3 itself (:func:`repro.analysis.leak.leak_report`) is the
  full-window evaluation of two alarms drained over a dataset's tables
  (:func:`repro.analysis.leak.drain_leak_alarm`): one over every row,
  one over the malicious rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

import numpy as np

from repro.deployment.fleet import CRAWLER_ASES, LEAK_SERVICES, LeakExperiment
from repro.stats.volume import VolumeComparison, compare_volumes, count_spikes, hour_bins
from repro.stream.sketches import KeyedRows

__all__ = ["MAX_TRAILING_HOURS", "TumblingWindows", "LeakAlarm", "StreamingLeakAlarm"]

#: Largest trailing window (hours) a leak-alarm query may request (the
#: ``/alarms`` endpoint and ``watch --trailing-hours`` reject more).
MAX_TRAILING_HOURS = 24 * 365


class TumblingWindows:
    """Bounded per-key tumbling hourly counts with a shared watermark.

    Series are rows of shared ``hours``-wide blocks, so a frame touching
    many keys bins with one ``np.add.at`` per block.
    """

    def __init__(self, hours: int) -> None:
        if hours < 1:
            raise ValueError("hours must be >= 1")
        self.hours = int(hours)
        self._rows = KeyedRows(self.hours, np.float64)
        #: Largest timestamp observed (event time, fractional hours).
        self.watermark = 0.0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._rows.index

    def keys(self) -> list[Hashable]:
        return sorted(self._rows.index, key=repr)

    def keys_at_least(self, hour: int, minimum: float) -> list[Hashable]:
        """Keys whose count in ``hour`` is at least ``minimum``, in
        :meth:`keys` order: one test over every key's count, and only
        the keys that pass are sorted."""
        if not 0 <= hour < self.hours:
            return []
        keys = list(self._rows.index)
        passed = np.flatnonzero(self._rows.column(hour) >= minimum).tolist()
        return sorted((keys[row] for row in passed), key=repr)

    def add(self, key: Hashable, timestamps: np.ndarray) -> int:
        """Bin ``timestamps`` into ``key``'s hourly series; returns kept."""
        array = np.asarray(timestamps, dtype=np.float64)
        return self.add_keyed([key], np.zeros(array.size, dtype=np.int64), array)

    def add_keyed(self, keys: list, codes: np.ndarray, timestamps: np.ndarray) -> int:
        """Bin ``timestamps[i]`` into ``keys[codes[i]]``'s series; returns kept.

        A key gets a series once any row names it, even if every one of
        its timestamps falls outside the window.
        """
        array = np.asarray(timestamps, dtype=np.float64)
        if array.size == 0:
            return 0
        present = np.unique(codes)
        rows = np.zeros(len(keys), dtype=np.int64)
        rows[present] = self._rows.rows([keys[code] for code in present.tolist()])
        bins = hour_bins(array, self.hours)
        keep = bins >= 0
        if not keep.any():
            return 0
        self._rows.scatter(np.add, rows[np.asarray(codes)[keep]], bins[keep], 1.0)
        self.watermark = max(self.watermark, float(array[keep].max()))
        return int(np.count_nonzero(keep))

    def seal_points(self, timestamps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Runs after which :meth:`sealed_hours` would rise.

        ``offsets`` bounds consecutive non-empty runs of ``timestamps``
        (a frame's chunks); the answer is the indices of the runs whose
        addition, in order from the current state, seals a new hour.
        """
        if len(offsets) < 2:
            return np.empty(0, dtype=np.int64)
        stamps = np.asarray(timestamps, dtype=np.float64)
        kept = np.where(hour_bins(stamps, self.hours) >= 0, stamps, -np.inf)
        marks = np.maximum.accumulate(
            np.maximum(np.maximum.reduceat(kept, offsets[:-1]), self.watermark)
        )
        sealed = np.minimum(np.floor(marks), self.hours)
        before = np.concatenate(([self.sealed_hours()], sealed[:-1]))
        return np.flatnonzero(sealed > before)

    def series(self, key: Hashable) -> np.ndarray:
        """The key's full hourly series (zeros if never seen)."""
        series = self._rows.row(key)
        if series is None:
            return np.zeros(self.hours, dtype=np.float64)
        return series

    def sealed_hours(self) -> int:
        """Hours the watermark has fully passed (safe to analyze)."""
        return min(int(self.watermark), self.hours)

    def sealed_series(self, key: Hashable) -> np.ndarray:
        """The sealed prefix of the key's series."""
        return self.series(key)[: self.sealed_hours()]

    def spikes(self, key: Hashable, threshold_sigmas: float = 3.0) -> int:
        """Run the existing batch spike detector on the sealed prefix."""
        return count_spikes(self.sealed_series(key), threshold_sigmas)

    def rate_per_hour(self, key: Hashable) -> float:
        """Mean events/hour over the sealed prefix (0 before first seal)."""
        sealed = self.sealed_series(key)
        return float(sealed.mean()) if sealed.size else 0.0

    def state_bytes(self) -> int:
        return len(self._rows) * self.hours * 8


# -- streaming Table 3 ------------------------------------------------------

@dataclass(frozen=True)
class LeakAlarm:
    """One streaming Table 3 row: a service × leak-group comparison."""

    service: str
    group: str
    fold: float
    mwu_p: float
    ks_p: float
    stochastically_greater: bool
    distribution_differs: bool
    leaked_spikes: int
    control_spikes: int
    trailing_hours: int


class StreamingLeakAlarm:
    """Streaming leak detection over the Section 4.3 experiment layout.

    ``observe`` filters each frame down to experiment traffic (crawler
    ASes excluded) and updates per-(port, group) hourly histograms;
    ``evaluate`` compares each leaked group's trailing per-IP series
    against the control group's with the same tests Table 3 uses.
    """

    def __init__(self, experiment: LeakExperiment, hours: int) -> None:
        self.experiment = experiment
        self.hours = int(hours)
        self.windows = TumblingWindows(self.hours)
        # Group membership: control/previously IPs count on every leak
        # service port; each leaked group's IPs only on its own port.
        self._group_sizes: dict[tuple[int, str], int] = {}
        ip_groups: dict[int, str] = {}
        for ip in experiment.control_ips:
            ip_groups[int(ip)] = "control"
        for ip in experiment.previously_leaked_ips:
            ip_groups[int(ip)] = "previously"
        for _protocol, port in LEAK_SERVICES:
            self._group_sizes[(port, "control")] = len(experiment.control_ips)
            self._group_sizes[(port, "previously")] = len(experiment.previously_leaked_ips)
        leaked_port: dict[int, tuple[int, str]] = {}
        for group in experiment.leak_groups:
            self._group_sizes[(group.port, group.engine)] = len(group.ips)
            for ip in group.ips:
                leaked_port[int(ip)] = (group.port, group.engine)
        self._watch_ips = np.unique(np.fromiter(
            (int(ip) for ip in experiment.all_ips), dtype=np.int64
        ))
        self._ports = np.asarray([port for _p, port in LEAK_SERVICES], dtype=np.int64)
        # The same membership as lookup arrays over ``_watch_ips``, so a
        # frame resolves every row's (port, group) key without a loop.
        self._keys = list(self._group_sizes)
        code = {key: index for index, key in enumerate(self._keys)}
        names = ("control", "previously")
        self._group_key = np.asarray(
            [[code[(int(port), name)] for name in names] for port in self._ports],
            dtype=np.int64,
        )
        watched = self._watch_ips.tolist()
        self._ip_group = np.asarray(
            [names.index(ip_groups[ip]) if ip in ip_groups else -1
             for ip in watched], dtype=np.int64)
        self._leak_port = np.asarray(
            [leaked_port[ip][0] if ip in leaked_port else -1
             for ip in watched], dtype=np.int64)
        self._leak_key = np.asarray(
            [code[leaked_port[ip]] if ip in leaked_port else -1
             for ip in watched], dtype=np.int64)

    def observe(
        self,
        dst_ips: np.ndarray,
        dst_ports: np.ndarray,
        src_asns: np.ndarray,
        timestamps: np.ndarray,
    ) -> int:
        """Ingest rows (a frame, or a whole table); returns rows counted."""
        dst_ips = np.asarray(dst_ips, dtype=np.int64)
        mask = np.isin(dst_ips, self._watch_ips)
        if not mask.any():
            return 0
        slot = np.searchsorted(self._watch_ips, dst_ips[mask])
        ports = np.asarray(dst_ports, dtype=np.int64)[mask]
        port_pos = np.full(ports.size, -1, dtype=np.int64)
        for position, port in enumerate(self._ports.tolist()):
            port_pos[ports == port] = position
        group = self._ip_group[slot]
        # Control/previously IPs count on every leak service port; a
        # leaked group's IPs only on their own port.
        key = np.where(
            group >= 0,
            np.where(port_pos >= 0,
                     self._group_key[np.maximum(port_pos, 0), np.maximum(group, 0)], -1),
            np.where(self._leak_port[slot] == ports, self._leak_key[slot], -1),
        )
        key[np.isin(np.asarray(src_asns, dtype=np.int64)[mask], CRAWLER_ASES)] = -1
        counted = key >= 0
        stamps = np.asarray(timestamps, dtype=np.float64)[mask][counted]
        return self.windows.add_keyed(self._keys, key[counted], stamps)

    def per_ip_series(self, port: int, group: str) -> np.ndarray:
        """Average per-IP hourly series for one (port, group)."""
        size = self._group_sizes.get((port, group), 0)
        if size == 0:
            return np.zeros(self.hours, dtype=np.float64)
        return self.windows.series((port, group)) / float(size)

    def evaluate(
        self, trailing_hours: Optional[int] = None, alpha: float = 0.05
    ) -> list[LeakAlarm]:
        """Run the Table 3 tests on the trailing window, right now.

        ``trailing_hours=None`` compares the full observation window
        (Table 3's rows, :func:`repro.analysis.leak.leak_report`); a
        finite trailing window restricts both series to the last
        ``trailing_hours`` sealed hours, the live-alarm shape.
        """
        alarms: list[LeakAlarm] = []
        if trailing_hours is None:
            lo, hi = 0, self.hours
        else:
            hi = self.windows.sealed_hours()
            lo = max(0, hi - int(trailing_hours))
            if hi - lo < 2:  # nothing comparable yet
                return alarms
        for protocol, port in LEAK_SERVICES:
            control = self.per_ip_series(port, "control")[lo:hi]
            for group in ("censys", "shodan", "previously"):
                if (port, group) not in self._group_sizes:
                    continue
                leaked = self.per_ip_series(port, group)[lo:hi]
                comparison: VolumeComparison = compare_volumes(leaked, control)
                service = "HTTP/80" if protocol == "http" else f"{protocol.upper()}/{port}"
                alarms.append(LeakAlarm(
                    service=service,
                    group=group,
                    fold=comparison.fold,
                    mwu_p=comparison.mwu_p,
                    ks_p=comparison.ks_p,
                    stochastically_greater=comparison.stochastically_greater(alpha),
                    distribution_differs=comparison.distribution_differs(alpha),
                    leaked_spikes=count_spikes(leaked),
                    control_spikes=count_spikes(control),
                    trailing_hours=hi - lo,
                ))
        return alarms

    def state_bytes(self) -> int:
        return self.windows.state_bytes() + 64 * len(self._group_sizes)
