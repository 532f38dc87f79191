"""Markdown report generation for experiment outputs.

``cloudwatching run all --output report.md`` writes every regenerated
table/figure into one self-contained Markdown document with a table of
contents — the artifact to attach to a reproduction report or CI run.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:
    # Annotations only: importing the experiments here would close the
    # cycle incident -> stream -> reporting -> experiments -> incident.
    from repro.experiments.base import ExperimentOutput

__all__ = ["experiment_to_markdown", "write_markdown_report"]


def _anchor(title: str) -> str:
    """GitHub-style heading anchor."""
    slug = re.sub(r"[^a-z0-9 -]", "", title.lower())
    return slug.strip().replace(" ", "-")


def experiment_to_markdown(output: ExperimentOutput) -> str:
    """One experiment as a Markdown section (monospace body)."""
    heading = f"{output.experiment_id}: {output.title}"
    return f"## {heading}\n\n```text\n{output.text}\n```\n"


def write_markdown_report(
    outputs: Iterable[ExperimentOutput],
    path: Union[str, Path],
    title: str = "Cloud Watching — regenerated tables and figures",
) -> Path:
    """Write a combined report; returns the path written."""
    outputs = list(outputs)
    lines = [f"# {title}", ""]
    lines.append("Contents:")
    for output in outputs:
        heading = f"{output.experiment_id}: {output.title}"
        lines.append(f"- [{heading}](#{_anchor(heading)})")
    lines.append("")
    for output in outputs:
        lines.append(experiment_to_markdown(output))
    path = Path(path)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path
