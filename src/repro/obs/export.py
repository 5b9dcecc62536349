"""Exporters: JSON-lines event log and Prometheus-style text.

Two views of one registry:

* :func:`events_jsonl` / :func:`snapshot_jsonl` -- machine-readable
  JSON lines, with :func:`parse_jsonl` as the inverse (the round trip
  ``parse_jsonl(snapshot_jsonl(r)) == r.snapshot()`` holds exactly).
* :func:`prometheus_text` -- the scrape format, for eyeballing and for
  diffing against real monitoring tooling.

All output is deterministically ordered (metrics by name/labels,
events by log order) so exports are diff-able and golden-testable.
"""

from __future__ import annotations

import json
from typing import List

from .metrics import Histogram, MetricsRegistry


# -- JSON lines ------------------------------------------------------------

def snapshot_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per instrument, in deterministic order."""
    return "\n".join(
        json.dumps(entry, sort_keys=True) for entry in registry.snapshot()
    )


def events_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per recorded event, in log (time) order."""
    return "\n".join(
        json.dumps(event.to_dict(), sort_keys=True) for event in registry.events
    )


def parse_jsonl(text: str) -> List[dict]:
    """Inverse of the JSON-lines exporters: a list of plain dicts."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON on line {lineno}: {exc}") from exc
    return out


# -- Prometheus text -------------------------------------------------------

def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _label_str(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, _escape(str(v))) for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition-format snapshot of every instrument."""
    lines: List[str] = []
    typed: set[str] = set()
    for metric in registry.metrics():
        if metric.name not in typed:
            typed.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in metric.buckets():
                cumulative += count
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_label_str(metric.labels, {'le': _format_value(float(bound))})} "
                    f"{cumulative}"
                )
            lines.append(
                f"{metric.name}_bucket"
                f"{_label_str(metric.labels, {'le': '+Inf'})} {metric.count}"
            )
            lines.append(
                f"{metric.name}_sum{_label_str(metric.labels)} "
                f"{_format_value(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{_label_str(metric.labels)} {metric.count}"
            )
        else:
            lines.append(
                f"{metric.name}{_label_str(metric.labels)} "
                f"{_format_value(metric.value)}"
            )
    return "\n".join(lines)

