"""Render a captured trace file as a plain-text summary.

``repro report out.jsonl`` loads the JSONL trace written by
``--trace`` / ``REPRO_TRACE`` and prints: a wall-time attribution line,
span totals by name, per-job rows (with outcomes), hot compiled
blocks, the migration-stage latency breakdown, top counters, histogram
percentiles, the artifact-cache hit rate, migration counts by
direction, and static-verifier pass timings and findings — the
operational view of one experiment or verify run.

Two alternate renderings live here too: :func:`render_flamegraph_file`
(collapsed-stack body for ``--flamegraph``) and
:func:`render_critical_path` (the ``--critical-path`` table).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.reporting import format_table, percent
from .metrics import Histogram, parse_series
from .profile_attr import (
    attribution_summary, block_totals, critical_path, render_flamegraph)
from .trace import TraceData


def _fmt_seconds(value: float) -> str:
    return f"{value:.6f}" if value < 1.0 else f"{value:.3f}"


def _fmt_edge(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:g}"


def _span_summary(spans: List[Dict[str, Any]]) -> str:
    totals: Dict[str, Tuple[int, float, float]] = {}
    for span in spans:
        count, total, peak = totals.get(span["name"], (0, 0.0, 0.0))
        duration = float(span.get("dur", 0.0))
        totals[span["name"]] = (count + 1, total + duration,
                                max(peak, duration))
    rows = [(name, count, _fmt_seconds(total),
             _fmt_seconds(total / count), _fmt_seconds(peak))
            for name, (count, total, peak) in
            sorted(totals.items(), key=lambda kv: -kv[1][1])]
    return format_table(["span", "count", "total s", "mean s", "max s"],
                        rows, "Spans by name")


def _job_table(spans: List[Dict[str, Any]], top: int) -> str:
    jobs = [span for span in spans if span["name"] == "engine.job"]
    if not jobs:
        return ""
    jobs.sort(key=lambda span: -float(span.get("dur", 0.0)))
    rows = [(span["attrs"].get("key", "?"),
             span["attrs"].get("outcome", "?"),
             _fmt_seconds(float(span.get("dur", 0.0))))
            for span in jobs[:top]]
    title = f"Jobs (top {min(top, len(jobs))} of {len(jobs)} by duration)"
    return format_table(["job", "outcome", "seconds"], rows, title)


def _top_counters(counters: Dict[str, Any], top: int) -> str:
    if not counters:
        return ""
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return format_table(["counter", "value"], ranked,
                        f"Top counters ({len(ranked)} of {len(counters)})")


def _histogram_table(histograms: Dict[str, Any]) -> str:
    if not histograms:
        return ""
    rows = []
    for key in sorted(histograms):
        payload = histograms[key]
        histogram = Histogram(payload["edges"])
        histogram.merge_from(payload)
        rows.append((key, histogram.total, f"{histogram.mean:.3g}",
                     _fmt_edge(histogram.percentile(0.5)),
                     _fmt_edge(histogram.percentile(0.9)),
                     _fmt_edge(histogram.percentile(0.99))))
    return format_table(["histogram", "count", "mean", "p50", "p90", "p99"],
                        rows, "Histogram percentiles (bucket upper edges)")


def _cache_summary(counters: Dict[str, Any]) -> str:
    events: Dict[str, int] = {}
    for key, value in counters.items():
        name, labels = parse_series(key)
        if name == "cache.events":
            event = labels.get("event", "?")
            events[event] = events.get(event, 0) + value
    if not events:
        return ""
    hits = events.get("hits", 0)
    misses = events.get("misses", 0)
    lines = ["Artifact cache"]
    lines.append("  " + "  ".join(f"{event}={events[event]}"
                                  for event in sorted(events)))
    if hits + misses:
        lines.append(f"  hit rate: {percent(hits / (hits + misses))}")
    return "\n".join(lines)


def _verifier_summary(spans: List[Dict[str, Any]],
                      counters: Dict[str, Any]) -> str:
    """Static-verifier section: findings by rule/severity, pass timings."""
    findings: Dict[Tuple[str, str], int] = {}
    outcomes: Dict[str, int] = {}
    frame_stores: Dict[str, int] = {}
    for key, value in counters.items():
        name, labels = parse_series(key)
        if name == "verify.findings":
            rule = labels.get("rule", "?")
            severity = labels.get("severity", "?")
            findings[(rule, severity)] = \
                findings.get((rule, severity), 0) + value
        elif name == "verify.runs":
            outcome = labels.get("outcome", "?")
            outcomes[outcome] = outcomes.get(outcome, 0) + value
        elif name == "verify.frame_stores":
            outcome = labels.get("outcome", "?")
            frame_stores[outcome] = frame_stores.get(outcome, 0) + value
    passes: Dict[str, Tuple[int, float, int]] = {}
    for span in spans:
        if span["name"] != "verify.pass":
            continue
        attrs = span.get("attrs", {})
        pass_name = attrs.get("pass", "?")
        count, total, found = passes.get(pass_name, (0, 0.0, 0))
        passes[pass_name] = (count + 1,
                             total + float(span.get("dur", 0.0)),
                             found + int(attrs.get("findings", 0)))
    if not outcomes and not passes:
        return ""
    sections = []
    if passes:
        rows = [(name, count, _fmt_seconds(total), found)
                for name, (count, total, found) in sorted(passes.items())]
        sections.append(format_table(
            ["pass", "runs", "total s", "findings"], rows,
            "Static verifier passes"))
    if findings:
        rows = [(rule, severity, count) for (rule, severity), count
                in sorted(findings.items())]
        sections.append(format_table(
            ["rule", "severity", "count"], rows, "Verifier findings"))
    if frame_stores:
        proved = frame_stores.get("proved", 0)
        total = sum(frame_stores.values())
        line = "frame stores: " + "  ".join(
            f"{outcome}={count}"
            for outcome, count in sorted(frame_stores.items()))
        if total:
            line += f"  ({percent(proved / total)} proved in-frame)"
        sections.append(line)
    if outcomes:
        sections.append("verifier runs: " + "  ".join(
            f"{outcome}={count}"
            for outcome, count in sorted(outcomes.items())))
    return "\n\n".join(sections)


def _transpile_summary(counters: Dict[str, Any]) -> str:
    """Transpilation section: functions lifted, tier verdicts, and the
    gadget-surface comparison (original vs transpiled vs diversified)."""
    functions = 0
    verified: Dict[str, int] = {}
    fuzz: Dict[str, int] = {}
    surface: Dict[str, Dict[str, int]] = {}
    for key, value in counters.items():
        name, labels = parse_series(key)
        if name == "transpile.functions":
            functions += value
        elif name == "transpile.verified":
            tier = labels.get("tier", "?")
            verified[tier] = verified.get(tier, 0) + value
        elif name == "transpile.fuzz_cases":
            outcome = labels.get("outcome", "?")
            fuzz[outcome] = fuzz.get(outcome, 0) + value
        elif name == "transpile.gadget_surface":
            workload = labels.get("workload", "?")
            variant = labels.get("variant", "?")
            row = surface.setdefault(workload, {})
            row[variant] = row.get(variant, 0) + value
    if not functions and not verified and not surface:
        return ""
    sections = []
    line = f"transpile: {functions} function(s) lifted"
    if verified:
        line += "  verified: " + "  ".join(
            f"{tier}={count}" for tier, count in sorted(verified.items()))
    if fuzz:
        line += "  fuzz cases: " + "  ".join(
            f"{outcome}={count}" for outcome, count in sorted(fuzz.items()))
    sections.append(line)
    if surface:
        rows = [(workload,
                 row.get("original", 0),
                 row.get("transpiled", 0),
                 row.get("diversified", 0))
                for workload, row in sorted(surface.items())]
        sections.append(format_table(
            ["workload", "original", "transpiled", "diversified-immune"],
            rows, "Gadget surface (Galileo counts per binary variant)"))
    return "\n\n".join(sections)


def _migration_summary(counters: Dict[str, Any]) -> str:
    directions: Dict[Tuple[str, str], int] = {}
    by_kind: Dict[str, int] = {}
    for key, value in counters.items():
        name, labels = parse_series(key)
        if name == "migrations":
            direction = (labels.get("source", "?"), labels.get("target", "?"))
            directions[direction] = directions.get(direction, 0) + value
            kind = labels.get("kind", "?")
            by_kind[kind] = by_kind.get(kind, 0) + value
    if not directions:
        return ""
    rows = [(f"{source} → {target}", count)
            for (source, target), count in sorted(directions.items())]
    table = format_table(["direction", "migrations"], rows,
                         "Migrations by direction")
    kinds = "  ".join(f"{kind}={count}"
                      for kind, count in sorted(by_kind.items()))
    return f"{table}\nby kind: {kinds}"


def _attribution_line(trace: TraceData) -> str:
    """One line: how much root wall-time named descendants explain."""
    if not trace.spans:
        return ""
    summary = attribution_summary(trace)
    if summary["total"] <= 0:
        return ""
    return (f"Attribution: {percent(summary['attributed_share'])} of "
            f"{_fmt_seconds(summary['total'])}s root wall-time explained "
            f"by named child spans "
            f"(roots' own self time: {_fmt_seconds(summary['self'])}s)")


def _hot_blocks_table(metrics: Dict[str, Any], top: int) -> str:
    """Compiled-block profiler rows, hottest (by host seconds) first."""
    rows = block_totals(metrics)
    if not rows:
        return ""
    shown = [(f"{isa}@{block}", entries, steps, _fmt_seconds(seconds))
             for isa, block, entries, steps, seconds in rows[:top]]
    title = (f"Hot compiled blocks (top {len(shown)} of {len(rows)} "
             f"by host time)")
    return format_table(["block", "entries", "steps", "seconds"],
                        shown, title)


def _migration_stage_table(histograms: Dict[str, Any]) -> str:
    """Per-stage migration latency: the walk/relocate/transform/resume
    breakdown the magnified-view papers report."""
    rows = []
    order = {"walk": 0, "relocate": 1, "transform": 2, "resume": 3}
    staged = []
    for key in histograms:
        name, labels = parse_series(key)
        if name == "migration.stage_seconds" and "stage" in labels:
            staged.append((order.get(labels["stage"], 99), labels["stage"],
                           histograms[key]))
    if not staged:
        return ""
    total = sum(payload["sum"] for _, _, payload in staged) or 1.0
    for _, stage, payload in sorted(staged):
        histogram = Histogram(payload["edges"])
        histogram.merge_from(payload)
        rows.append((stage, histogram.total,
                     _fmt_seconds(histogram.sum),
                     percent(histogram.sum / total),
                     _fmt_edge(histogram.percentile(0.9))))
    return format_table(["stage", "count", "total s", "share", "p90"],
                        rows, "Migration latency by stage")


def render_critical_path(trace: TraceData) -> str:
    """The ``--critical-path`` rendering: heaviest chain, root down."""
    path = critical_path(trace)
    if not path:
        return "critical path: no spans in trace"
    rows = []
    for depth, row in enumerate(path):
        share = f"{row['share'] * 100.0:5.1f}%"
        rows.append(("  " * depth + row["name"],
                     _fmt_seconds(row["dur"]),
                     _fmt_seconds(row["self"]),
                     share))
    title = (f"Critical path ({len(path)} edges, "
             f"{_fmt_seconds(path[0]['dur'])}s root)")
    return format_table(["span", "dur s", "self s", "of parent"],
                        rows, title)


def render_flamegraph_file(trace: TraceData) -> str:
    """Collapsed-stack body for ``--flamegraph`` (speedscope-loadable)."""
    return render_flamegraph(trace)


def render_report(trace: TraceData, top: int = 15) -> str:
    """The full plain-text summary of one loaded trace file."""
    metrics = trace.metrics or {}
    counters = metrics.get("counters", {})
    label = f" — {trace.label}" if trace.label else ""
    sections = [
        f"Trace report{label} (schema {trace.schema}): "
        f"{len(trace.spans)} spans, {len(trace.events)} events, "
        f"{len(counters)} counter series",
        _attribution_line(trace),
        _span_summary(trace.spans) if trace.spans else "",
        _job_table(trace.spans, top),
        _hot_blocks_table(metrics, top),
        _migration_stage_table(metrics.get("histograms", {})),
        _top_counters(counters, top),
        _histogram_table(metrics.get("histograms", {})),
        _cache_summary(counters),
        _migration_summary(counters),
        _verifier_summary(trace.spans, counters),
        _transpile_summary(counters),
    ]
    return "\n\n".join(section for section in sections if section)
