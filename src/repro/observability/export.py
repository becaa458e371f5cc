"""Exporters: metrics snapshots and the Prometheus text exposition.

A **metrics snapshot** is the registry's counters/gauges/histograms as
a plain dict, JSON file, or fixed-width text table (via
:func:`repro.reporting.render_table`).  Traces are spans; their Chrome
exporter is :func:`repro.observability.tracing.spans_to_chrome_trace`.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "metrics_snapshot",
    "render_metrics",
    "write_metrics_json",
    "prometheus_text",
]


# ---------------------------------------------------------------------------
# Metrics snapshots
# ---------------------------------------------------------------------------


def metrics_snapshot(registry: Optional[MetricsRegistry] = None
                     ) -> Dict[str, object]:
    """Point-in-time values of every metric in *registry* (default: the
    process-global registry)."""
    return (registry if registry is not None else get_registry()).snapshot()


def _format_value(value) -> str:
    if isinstance(value, dict):  # histogram
        mean = value.get("mean", 0.0) or 0.0
        vmax = value.get("max")
        vmax_s = f"{vmax:.6g}" if vmax is not None else "-"
        return (f"count={value.get('count', 0)} "
                f"sum={value.get('sum', 0.0):.6g} "
                f"mean={mean:.6g} max={vmax_s}")
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_metrics(snapshot: Optional[Dict[str, object]] = None,
                   registry: Optional[MetricsRegistry] = None,
                   title: str = "metrics snapshot") -> str:
    """Fixed-width text table of a snapshot (computed from *registry*
    when not given)."""
    from repro import reporting

    if snapshot is None:
        snapshot = metrics_snapshot(registry)
    header, rows = reporting.metrics_table(snapshot)
    return reporting.render_table(title, header, rows)


def write_metrics_json(path: str,
                       snapshot: Optional[Dict[str, object]] = None,
                       registry: Optional[MetricsRegistry] = None) -> str:
    """Dump a snapshot as JSON; returns *path*."""
    if snapshot is None:
        snapshot = metrics_snapshot(registry)
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: Characters legal in a Prometheus metric name; everything else in a
#: catalog name (the dots) maps to ``_``.  Label *mapping* is
#: documented in docs/observability.md: ``engine.tasks{family=fwd}``
#: exposes as ``repro_engine_tasks{family="fwd"}``.
_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_RENDERED_NAME = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _split_rendered(rendered: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Undo ``_render_name``: ``"a.b{k=v,k2=v2}"`` -> name + pairs."""
    match = _RENDERED_NAME.match(rendered)
    assert match is not None  # _render_name output always matches
    labels_part = match.group("labels")
    labels = []
    if labels_part:
        for item in labels_part.split(","):
            key, _, value = item.partition("=")
            labels.append((key, value))
    return match.group("name"), labels


def _prom_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_PROM_NAME_BAD.sub("_", k)}="{_escape_label(v)}"'
        for k, v in pairs)
    return f"{{{rendered}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
        .replace("\n", r"\n")


def _prom_number(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Render *registry* in the Prometheus text exposition format.

    Counters expose as ``<name>_total``, gauges as ``<name>``, and
    histograms as the standard cumulative ``_bucket``/``_sum``/
    ``_count`` triple with ``le`` labels.  Families sharing a catalog
    name but differing in labels merge under one TYPE header, as the
    format requires.
    """
    if registry is None:
        registry = get_registry()
    families: Dict[str, List[Tuple[List[Tuple[str, str]], object]]] = {}
    kinds: Dict[str, str] = {}
    for rendered, metric in sorted(registry.metrics().items()):
        name, labels = _split_rendered(rendered)
        if isinstance(metric, Counter):
            kinds[name] = "counter"
        elif isinstance(metric, Histogram):
            kinds[name] = "histogram"
        elif isinstance(metric, Gauge):
            kinds[name] = "gauge"
        else:  # pragma: no cover - no other metric kinds exist
            continue
        families.setdefault(name, []).append((labels, metric))
    lines: List[str] = []
    for name in sorted(families):
        kind = kinds[name]
        base = _prom_name(name)
        if kind == "counter":
            base += "_total"
        lines.append(f"# TYPE {base} {kind}")
        for labels, metric in families[name]:
            if kind == "histogram":
                snap = metric.snapshot()
                cumulative = 0
                bounds = [f"{b:g}" for b in metric.buckets] + ["+Inf"]
                for bound, count in zip(bounds,
                                        snap["buckets"].values()):
                    cumulative += count
                    bucket_labels = _prom_labels(
                        list(labels) + [("le", bound)])
                    lines.append(
                        f"{base}_bucket{bucket_labels} {cumulative}")
                suffix = _prom_labels(labels)
                lines.append(
                    f"{base}_sum{suffix} {_prom_number(snap['sum'])}")
                lines.append(f"{base}_count{suffix} {snap['count']}")
            else:
                lines.append(f"{base}{_prom_labels(labels)} "
                             f"{_prom_number(metric.value)}")
    return "\n".join(lines) + "\n" if lines else ""
