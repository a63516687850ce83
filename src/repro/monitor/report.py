"""Post-run fleet-health reports from the alerts stream.

``repro monitor report`` turns a ``flashmark.alerts/v1`` JSONL file
(plus, optionally, the loadgen or chaos run manifest of the same run)
into a human-readable post-mortem: what fired, when, how bad, whether
it cleared, and where the SLO budgets ended up.  Markdown by default;
an ``.html``/``.htm`` output path gets a self-contained HTML page of
the same report (:func:`repro.analysis.tables.write_report`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["summarize_alert_records", "render_markdown", "render_html"]

_SEVERITY_ORDER = {"critical": 0, "warning": 1}


def summarize_alert_records(
    records: List[dict], manifest: Optional[dict] = None
) -> dict:
    """Digest alert transitions (+ optional run manifest) into the
    data the renderers share."""
    fired: List[dict] = []
    resolved: List[dict] = []
    snapshot: Optional[dict] = None
    for record in records:
        event = record.get("event")
        if event == "fired":
            fired.append(record.get("alert") or {})
        elif event == "resolved":
            resolved.append(record.get("alert") or {})
        elif event == "snapshot":
            snapshot = record.get("snapshot") or {}
    resolved_keys = {a.get("key") for a in resolved}
    unresolved = [
        a for a in fired if a.get("key") not in resolved_keys
    ]
    # The resolved record carries the full lifecycle (open + close
    # stamps); prefer it over the fired record for the same key.
    by_key: Dict[str, dict] = {}
    for alert in fired:
        by_key.setdefault(str(alert.get("key")), alert)
    for alert in resolved:
        by_key[str(alert.get("key"))] = alert
    alerts = sorted(
        by_key.values(),
        key=lambda a: (
            _SEVERITY_ORDER.get(str(a.get("severity")), 2),
            a.get("opened_unix_s") or 0.0,
        ),
    )
    drift = [a for a in alerts if a.get("source") == "drift"]
    slo = [a for a in alerts if a.get("source") == "slo"]
    load = None
    chaos = None
    if manifest:
        extra = manifest.get("extra") or manifest
        load = extra.get("load")
        chaos = extra.get("chaos")
    return {
        "fired": len(fired),
        "resolved": len(resolved),
        "unresolved": [dict(a) for a in unresolved],
        "alerts": alerts,
        "drift_alerts": drift,
        "slo_alerts": slo,
        "snapshot": snapshot,
        "manifest_kind": (manifest or {}).get("kind"),
        "load": load,
        "chaos": chaos,
    }


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _duration(alert: dict) -> str:
    opened = alert.get("opened_unix_s")
    closed = alert.get("resolved_unix_s")
    if opened is None or closed is None:
        return "still firing"
    return f"{max(0.0, closed - opened):.1f} s"


def render_markdown(summary: dict, *, title: str = "Fleet-health report") -> str:
    """The markdown post-run report."""
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        f"Alerts: **{summary['fired']} fired**, "
        f"{summary['resolved']} resolved, "
        f"{len(summary['unresolved'])} still firing."
    )
    if summary.get("manifest_kind"):
        lines.append(f"Run manifest kind: `{summary['manifest_kind']}`.")
    lines.append("")
    if summary["alerts"]:
        lines.append("## Alerts")
        lines.append("")
        lines.append(
            "| severity | source | alert | family | worst value | "
            "threshold | state | duration |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        for alert in summary["alerts"]:
            lines.append(
                "| {severity} | {source} | {name} | {family} | {value} | "
                "{threshold} | {state} | {duration} |".format(
                    severity=alert.get("severity", "-"),
                    source=alert.get("source", "-"),
                    name=alert.get("name", alert.get("key", "-")),
                    family=alert.get("family") or "fleet",
                    value=_fmt(alert.get("value")),
                    threshold=_fmt(alert.get("threshold")),
                    state=alert.get("state", "-"),
                    duration=_duration(alert),
                )
            )
        lines.append("")
    else:
        lines.append("No alerts fired — the fleet stayed healthy.")
        lines.append("")
    snapshot = summary.get("snapshot")
    if snapshot:
        lines.append("## Final monitor snapshot")
        lines.append("")
        lines.append(f"- status: **{snapshot.get('status', '-')}**")
        lines.append(f"- events observed: {snapshot.get('events', 0)}")
        slo = (snapshot.get("slo") or {}).get("objectives") or []
        if slo:
            lines.append("")
            lines.append("### SLO budget burn")
            lines.append("")
            lines.append("| objective | kind | value | threshold | firing |")
            lines.append("|---|---|---|---|---|")
            for status in slo:
                lines.append(
                    "| {name} | {kind} | {value} | {threshold} | {firing} |".format(
                        name=status.get("name", "-"),
                        kind=status.get("kind", "-"),
                        value=_fmt(status.get("value")),
                        threshold=_fmt(status.get("threshold")),
                        firing="yes" if status.get("firing") else "no",
                    )
                )
        families = snapshot.get("families") or {}
        if families:
            lines.append("")
            lines.append("### Families")
            lines.append("")
            lines.append(
                "| family | events | statistic mean | margin mean | "
                "drift alarms | verdict mix |"
            )
            lines.append("|---|---|---|---|---|---|")
            for name, fam in sorted(families.items()):
                stat = fam.get("statistic") or {}
                mix = fam.get("verdict_mix") or {}
                mix_str = ", ".join(
                    f"{k}:{v:.2f}" for k, v in sorted(mix.items())
                )
                drift = fam.get("drift") or {}
                alarms = sum(
                    (d or {}).get("alarms", 0) for d in drift.values()
                )
                lines.append(
                    "| {name} | {events} | {mean} | {margin} | "
                    "{alarms} | {mix} |".format(
                        name=name,
                        events=fam.get("events", 0),
                        mean=_fmt(stat.get("mean")),
                        margin=_fmt(fam.get("margin_mean")),
                        alarms=alarms,
                        mix=mix_str or "-",
                    )
                )
        lines.append("")
    load = summary.get("load")
    if load:
        lines.append("## Load run")
        lines.append("")
        latency = load.get("latency") or {}
        lines.append(
            f"- {load.get('completed', 0)}/{load.get('requests', 0)} "
            f"completed, {load.get('rejected', 0)} rejected, "
            f"{load.get('mismatches', 0)} verdict mismatch(es)"
        )
        if latency.get("count") or latency.get("n"):
            lines.append(
                f"- latency p50 {_fmt(latency.get('p50_ms'))} ms, "
                f"p95 {_fmt(latency.get('p95_ms'))} ms, "
                f"p99 {_fmt(latency.get('p99_ms'))} ms"
            )
        lines.append(
            f"- throughput {_fmt(load.get('throughput_rps'))} req/s"
        )
        lines.append("")
    chaos = summary.get("chaos")
    if chaos:
        lines.append("## Chaos soak")
        lines.append("")
        lines.append(
            f"- {len(chaos.get('injected', []))} fault(s) injected over "
            f"{chaos.get('requests', 0)} request(s); "
            f"invariants: {chaos.get('invariants')}"
        )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_html(summary: dict, *, title: str = "Fleet-health report") -> str:
    """A self-contained HTML page of the same report."""
    from ..analysis.tables import markdown_to_html

    return markdown_to_html(render_markdown(summary, title=title), title=title)


def load_manifest_file(path) -> dict:
    """Read a run-manifest JSON (loadgen / chaos) for the report."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
