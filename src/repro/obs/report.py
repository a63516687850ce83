"""The fleet dossier: one document merging tsdb, profiles and alerts.

``repro obs report`` renders what an operator wants on one page after a
soak: per-target availability and health, fleet-wide request rates and
verdict counts rolled up across shards, stage-latency quantiles
reconstructed from the scraped histogram buckets, the exemplars that
point at the slowest concrete traces (and their receipt ids), the
hottest profile frames, and the monitor's alert history.

Everything is defensive: a section whose inputs are missing (no
profile captured, no alerts log, a metric never scraped) renders as a
one-line note instead of failing, because a dossier for a degraded
fleet is exactly when you need the report to build.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

# The dossier's HTML page and its suffix rule are the shared ones.
from ..analysis.tables import markdown_to_html as render_obs_html
from ..analysis.tables import write_report as write_obs_report
from .profiler import ProfileData
from .tsdb import TimeSeriesStore

__all__ = ["build_obs_report", "render_obs_html", "write_obs_report"]

#: Histograms worth quantile tables, in display order.
_LATENCY_METRICS = (
    "flashmark_service_latency_s",
    "flashmark_fleet_latency_s",
    "flashmark_service_stage_engine_s",
    "flashmark_service_stage_queue_wait_s",
)

#: Counters worth fleet-wide rate rollups, in display order.
_RATE_METRICS = (
    "flashmark_service_requests",
    "flashmark_service_admitted",
    "flashmark_service_errors",
    "flashmark_fleet_requests",
    "flashmark_fleet_forwarded",
    "flashmark_fleet_evictions",
)


def _fmt(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return f"{value:.{digits}g}"


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _bucket_quantile(
    buckets: List[float], cumulative: List[int], q: float
) -> Optional[float]:
    """Upper-bound quantile from cumulative bucket counts."""
    if not cumulative or cumulative[-1] <= 0:
        return None
    target = q * cumulative[-1]
    for bound, cum in zip(buckets, cumulative):
        if cum >= target:
            return bound
    return buckets[-1] if buckets else None


def _histogram_increase(
    store: TimeSeriesStore,
    base: str,
    start: Optional[float],
    end: Optional[float],
) -> Optional[dict]:
    """Reconstruct one histogram's increase over the queried range,
    summed across targets, from its scraped ``_bucket`` series."""
    series = store.series(f"{base}_bucket", start, end)
    if not series:
        return None
    per_bound: Dict[float, float] = {}
    for key, points in series.items():
        le = dict(key).get("le", "")
        try:
            bound = (
                math.inf if le.lstrip("+") == "Inf" else float(le)
            )
        except ValueError:
            continue
        increase = max(0.0, points[-1].value - points[0].value)
        per_bound[bound] = per_bound.get(bound, 0.0) + increase
    if not per_bound:
        return None
    bounds = sorted(per_bound)
    finite = [b for b in bounds if math.isfinite(b)]
    cumulative = [int(per_bound[b]) for b in bounds]
    return {"buckets": finite, "cumulative": cumulative}


def build_obs_report(
    store: TimeSeriesStore,
    *,
    profile: Optional[ProfileData] = None,
    alerts: Optional[List[dict]] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
    top_n: int = 15,
    title: str = "Fleet observability report",
) -> str:
    """Render the dossier as markdown (see module docstring)."""
    stats = store.stats()
    lines: List[str] = [f"# {title}", ""]
    t_min = stats.get("t_min")
    t_max = stats.get("t_max")
    window = ""
    if t_min is not None and t_max is not None:
        window = (
            f"{time.strftime('%Y-%m-%d %H:%M:%S', time.gmtime(t_min))}"
            f" .. "
            f"{time.strftime('%Y-%m-%d %H:%M:%S', time.gmtime(t_max))}"
            f" UTC ({t_max - t_min:.0f}s)"
        )
    lines += [
        f"- store: `{stats['schema']}`, {stats['n_metrics']} metrics, "
        f"{stats['n_samples']} samples in {stats['n_segments']} "
        f"segment(s)",
        f"- span: {window or 'empty store'}",
        "",
    ]

    # -- availability ------------------------------------------------------
    lines += ["## Targets", ""]
    up = store.series("flashmark_up", start, end)
    if up:
        rows = []
        for key, points in sorted(up.items()):
            target = dict(key).get("target", "?")
            frac = sum(p.value for p in points) / len(points)
            status = store.query_instant(
                "flashmark_healthz_status_code",
                end,
                {"target": target},
            )
            code = next(iter(status.values())).value if status else None
            status_name = {0: "ok", 1: "degraded", 2: "alerting"}.get(
                int(code) if code is not None else -1, "unknown"
            )
            rows.append(
                [
                    f"`{target}`",
                    f"{100.0 * frac:.1f}%",
                    str(len(points)),
                    status_name,
                ]
            )
        lines += _table(
            ["target", "up", "scrapes", "last status"], rows
        )
    else:
        lines.append("_no scrape rounds recorded_")
    lines.append("")

    # -- fleet-wide rates --------------------------------------------------
    lines += ["## Fleet-wide rates", ""]
    rate_rows = []
    for metric in _RATE_METRICS:
        total = store.rollup(metric, start, end, rate=True)
        per_target = store.rollup(
            metric, start, end, by=("target",), agg="max", rate=True
        )
        if not total:
            continue
        hottest = (
            max(per_target.items(), key=lambda kv: kv[1])
            if per_target
            else ((("",),), 0.0)
        )
        rate_rows.append(
            [
                f"`{metric}`",
                f"{_fmt(total.get((), 0.0))}/s",
                f"`{hottest[0][0]}` ({_fmt(hottest[1])}/s)",
            ]
        )
    if rate_rows:
        lines += _table(
            ["metric", "fleet rate", "hottest target"], rate_rows
        )
    else:
        lines.append("_no counter series in range_")
    lines.append("")

    # -- latency quantiles -------------------------------------------------
    lines += ["## Stage latency (scraped buckets, range increase)", ""]
    lat_rows = []
    for base in _LATENCY_METRICS:
        hist = _histogram_increase(store, base, start, end)
        if hist is None:
            continue
        lat_rows.append(
            [
                f"`{base}`",
                str(hist["cumulative"][-1] if hist["cumulative"] else 0),
                _fmt(
                    _bucket_quantile(
                        hist["buckets"], hist["cumulative"], 0.50
                    )
                ),
                _fmt(
                    _bucket_quantile(
                        hist["buckets"], hist["cumulative"], 0.95
                    )
                ),
                _fmt(
                    _bucket_quantile(
                        hist["buckets"], hist["cumulative"], 0.99
                    )
                ),
            ]
        )
    if lat_rows:
        lines += _table(
            ["histogram", "n", "p50 ≤", "p95 ≤", "p99 ≤"], lat_rows
        )
    else:
        lines.append("_no stage histograms in range_")
    lines.append("")

    # -- exemplars ---------------------------------------------------------
    lines += ["## Slowest exemplars", ""]
    exemplar_rows = []
    for base in _LATENCY_METRICS:
        for entry in store.exemplars(f"{base}_bucket", start, end)[:5]:
            ex = entry["exemplar"]
            ex_labels = ex.get("labels") or {}
            exemplar_rows.append(
                [
                    f"`{base}`",
                    _fmt(ex.get("value")),
                    f"`{ex_labels.get('trace_id', '-')}`",
                    f"`{ex_labels.get('receipt_id', '-')}`",
                    f"`{entry['labels'].get('target', '-')}`",
                ]
            )
        if exemplar_rows:
            break  # one family of exemplars is enough for the dossier
    if exemplar_rows:
        lines += _table(
            ["histogram", "seconds", "trace id", "receipt id", "target"],
            exemplar_rows[:top_n],
        )
    else:
        lines.append("_no exemplars recorded_")
    lines.append("")

    # -- profile -----------------------------------------------------------
    lines += ["## Hottest frames (sampling profile)", ""]
    if profile is not None and profile.n_samples:
        lines.append(
            f"{profile.n_samples} samples at {profile.hz:g} Hz over "
            f"{profile.duration_s:.1f}s"
        )
        lines.append("")
        rows = [
            [
                f"`{row['frame']}`",
                str(row["self"]),
                str(row["cum"]),
                f"{100.0 * row['self_frac']:.1f}%",
            ]
            for row in profile.top(top_n)
        ]
        lines += _table(["frame", "self", "cum", "self %"], rows)
    else:
        lines.append("_no profile captured_")
    lines.append("")

    # -- alerts ------------------------------------------------------------
    lines += ["## Alert history", ""]
    if alerts:
        by_rule: Dict[Tuple[str, str], int] = {}
        for alert in alerts:
            key = (
                str(alert.get("rule", "?")),
                str(alert.get("severity", "?")),
            )
            by_rule[key] = by_rule.get(key, 0) + 1
        rows = [
            [f"`{rule}`", severity, str(count)]
            for (rule, severity), count in sorted(by_rule.items())
        ]
        lines += _table(["rule", "severity", "alerts"], rows)
    else:
        lines.append("_no alerts recorded_")
    lines.append("")
    return "\n".join(lines)
