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


def command_summary(
    dataset_or_events: AnalysisDataset | Iterable[CapturedEvent],
    top: int = 10,
) -> CommandSummary:
    """Summarize captured shell sessions (of a dataset, or of row events,
    which are grouped per vantage into tables first).

    Sessions are counted column-wise.  Commands are tallied once per
    distinct command tuple of each table, in first-sighting order, so
    ties in the top list fall in the order a walk over the rows first
    meets each command.
    """
    dataset = dataset_or_events
    if not isinstance(dataset, AnalysisDataset):
        dataset = AnalysisDataset(events=dataset)
    attempts = 0
    logged_in = 0
    commands: Counter = Counter()
    for table in dataset.tables.values():
        if not len(table):
            continue
        has_cred = table.credentials.astype(bool)
        attempts += int(has_cred.sum())
        command_column = table.commands
        rows = np.flatnonzero(has_cred & command_column.astype(bool))
        if not rows.size:
            continue
        logged_in += int(rows.size)
        for sequence, times in Counter(command_column[rows].tolist()).items():
            for command in sequence:
                commands[command] += times
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
