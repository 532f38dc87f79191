"""Post-compromise command analysis (Cowrie's raison d'être).

Once an interactive honeypot accepts a login, everything the intruder
types is evidence of intent: Mirai loaders probe for busybox, generic
loaders fetch droppers into /tmp, and human operators run reconnaissance.
This module summarizes the captured fake-shell sessions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.analysis.dataset import AnalysisDataset
from repro.sim.events import CapturedEvent

__all__ = ["CommandSummary", "command_summary", "classify_command", "COMMAND_CLASSES"]

#: Substring signatures for command intent classes, checked in order.
COMMAND_CLASSES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("botnet-loader", ("busybox", "MIRAI", "ECCHI")),
    ("dropper-fetch", ("wget ", "curl ", "tftp ")),
    ("execution", ("chmod ", "sh ", "./",)),
    ("reconnaissance", ("uname", "whoami", "id", "nproc", "cpuinfo", "os-release",
                        "free -m", "crontab", "last", "w")),
    ("shell-escape", ("enable", "system", "shell", "sh")),
)


def classify_command(command: str) -> str:
    """Classify one shell command into an intent class."""
    for label, needles in COMMAND_CLASSES:
        if any(needle in command for needle in needles):
            return label
    return "other"


@dataclass(frozen=True)
class CommandSummary:
    """Aggregated post-login activity for one dataset."""

    sessions_with_login_attempts: int
    sessions_logged_in: int
    total_commands: int
    top_commands: tuple[tuple[str, int], ...]
    class_counts: dict[str, int]

    @property
    def login_success_rate(self) -> float:
        if self.sessions_with_login_attempts == 0:
            return 0.0
        return self.sessions_logged_in / self.sessions_with_login_attempts


def _commands_map_shard(view) -> dict:
    """One shard's mergeable command aggregate: per-command counts plus
    the global first-sighting key ``(vantage position, shard, row, tuple
    position)``, which orders commands as a walk over the merged rows
    would first meet them.

    Sessions are counted column-wise; commands are tallied once per
    distinct command tuple, keyed at the tuple's first logged-in row.
    """
    from repro.analysis.contingency_engine import _sorted_view_tables

    attempts = 0
    logged_in = 0
    counts: dict[str, int] = {}
    first: dict[str, tuple[int, int, int, int]] = {}
    for vpos, table in _sorted_view_tables(view):
        has_cred = table.credentials.astype(bool)
        attempts += int(has_cred.sum())
        commands = table.commands
        rows = np.flatnonzero(has_cred & commands.astype(bool))
        if not rows.size:
            continue
        logged_in += int(rows.size)
        selected = commands[rows].tolist()
        # Reversed pairs: each tuple keeps the row of its first sighting.
        first_row = dict(zip(reversed(selected), reversed(rows.tolist())))
        for sequence, times in Counter(selected).items():
            for position, command in enumerate(sequence):
                counts[command] = counts.get(command, 0) + times
                key = (vpos, view.index, first_row[sequence], position)
                if command not in first or key < first[command]:
                    first[command] = key
    return {"attempts": attempts, "logged_in": logged_in, "counts": counts, "first": first}


def _commands_reduce(partials, top: int) -> CommandSummary:
    attempts = sum(partial["attempts"] for partial in partials)
    logged_in = sum(partial["logged_in"] for partial in partials)
    counts: dict[str, int] = {}
    first: dict[str, tuple[int, int, int, int]] = {}
    for partial in partials:
        for command, count in partial["counts"].items():
            counts[command] = counts.get(command, 0) + count
        for command, key in partial["first"].items():
            known = first.get(command)
            if known is None or key < known:
                first[command] = key
    commands: Counter = Counter()
    for command, _key in sorted(first.items(), key=lambda item: item[1]):
        commands[command] = counts[command]
    classes: Counter = Counter()
    for command, count in commands.items():
        classes[classify_command(command)] += count
    return CommandSummary(
        sessions_with_login_attempts=attempts,
        sessions_logged_in=logged_in,
        total_commands=sum(commands.values()),
        top_commands=tuple(commands.most_common(top)),
        class_counts=dict(classes),
    )


def command_summary(
    dataset_or_events: AnalysisDataset | Iterable[CapturedEvent],
    top: int = 10,
) -> CommandSummary:
    """Summarize captured shell sessions (of a dataset, or of row events,
    which are grouped per vantage into tables first)."""
    from repro.experiments.base import run_shard_wise

    dataset = dataset_or_events
    if not isinstance(dataset, AnalysisDataset):
        dataset = AnalysisDataset(events=dataset)
    return run_shard_wise(
        _commands_map_shard, lambda partials: _commands_reduce(partials, top), dataset
    )
