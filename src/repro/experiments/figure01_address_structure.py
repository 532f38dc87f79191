"""Figure 1: address-structure preferences inside the telescope.

Panel (a): port 22 — preference for the first address of each /16.
Panel (b): port 445 — avoidance of any-255-octet addresses.
Panel (c): port 80 — milder 255-octet avoidance.
Panel (d): port 17128 — a campaign latched onto a handful of IPs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.structure import figure1_series, structure_profile
from repro.experiments.base import ExperimentOutput, resolve_context
from repro.experiments.context import ExperimentContext
from repro.reporting.tables import ascii_plot

PANELS: tuple[tuple[str, int], ...] = (
    ("(a) port 22", 22),
    ("(b) port 445", 445),
    ("(c) port 80", 80),
    ("(d) port 17128", 17128),
)

#: Addresses per point of each panel's rolling average.
ROLLING_WINDOW = 512


def run(context: Optional[ExperimentContext] = None) -> ExperimentOutput:
    context = resolve_context(context)
    telescope = context.result.telescope
    profiles = {}
    sections = []
    for title, port in PANELS:
        series = figure1_series(telescope, port, window=ROLLING_WINDOW)
        profile = structure_profile(telescope, port)
        profiles[port] = profile
        summary = (
            f"mean={profile.mean_scanners:.1f} any255x={profile.any_255_ratio} "
            f"trailing255x={profile.trailing_255_ratio} "
            f"slash16first_x={profile.slash16_first_ratio} "
            f"top-target conc={profile.top_target_concentration:.1f}"
        )
        sections.append(
            ascii_plot(series, title=f"{title}: rolling avg of unique scanners per IP")
            + "\n"
            + summary
        )
    return ExperimentOutput(
        "F1", "Address-structure preferences", "\n\n".join(sections), profiles
    )
