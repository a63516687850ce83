"""Live terminal dashboard for ``repro monitor``.

Polls the server's ``monitor`` wire op and renders the snapshot as a
compact text dashboard: fleet status, firing alerts, SLO burn, and a
per-family row with verdict mix, decision-statistic level, and detector
state.  Pure text — works over ssh, logs cleanly into CI, and doubles
as the "screenshot" in the docs.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from ..service.endpoint import EndpointLike

__all__ = ["render_dashboard", "fetch_snapshot", "watch"]

_STATUS_BADGE = {"ok": "OK", "degraded": "DEGRADED", "alerting": "ALERTING"}


def _fmt(value, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _bar(fraction: float, width: int = 10) -> str:
    fraction = min(1.0, max(0.0, fraction))
    fill = int(round(fraction * width))
    return "#" * fill + "." * (width - fill)


def render_dashboard(snapshot: dict) -> str:
    """Render one monitor snapshot as a text dashboard."""
    status = snapshot.get("status", "ok")
    lines: List[str] = []
    lines.append(
        f"fleet health: [{_STATUS_BADGE.get(status, status.upper())}]  "
        f"events={snapshot.get('events', 0)}  "
        f"outcomes={json.dumps(snapshot.get('outcomes', {}), sort_keys=True)}"
    )
    fleet = snapshot.get("fleet") or {}
    if fleet:
        # Watching a FleetRouter: one extra line sizes the shard map.
        lines.append(
            f"fleet: {fleet.get('routable', 0)}/"
            f"{fleet.get('n_shards', 0)} shard(s) routable, "
            f"{fleet.get('evicted', 0)} evicted"
        )
        for shard in fleet.get("shards") or []:
            if shard.get("routable"):
                continue
            lines.append(
                f"  !! shard {shard.get('shard_id', '?')} "
                f"[{shard.get('state', '?')}] "
                f"{shard.get('last_error') or 'evicted'}"
            )
    alerts = snapshot.get("alerts") or {}
    firing = alerts.get("firing") or []
    lines.append(
        f"alerts: {len(firing)} firing  "
        f"({alerts.get('fired_total', 0)} fired / "
        f"{alerts.get('resolved_total', 0)} resolved this run)"
    )
    for alert in firing:
        lines.append(
            f"  !! [{alert.get('severity', '?'):8s}] "
            f"{alert.get('name', alert.get('key', '?'))} "
            f"value={_fmt(alert.get('value'))} "
            f"threshold={_fmt(alert.get('threshold'))} "
            f"family={alert.get('family') or 'fleet'}"
        )
    slo = snapshot.get("slo") or {}
    objectives = slo.get("objectives") or []
    if objectives:
        lines.append(f"slo [{slo.get('name', 'slo')}]:")
        for obj in objectives:
            mark = "FIRING" if obj.get("firing") else "ok    "
            lines.append(
                f"  {mark} {obj.get('name', '?'):<24s} "
                f"{obj.get('kind', ''):<12s} "
                f"value={_fmt(obj.get('value')):>8s} "
                f"threshold={_fmt(obj.get('threshold'))}"
            )
    families = snapshot.get("families") or {}
    if families:
        lines.append(
            f"{'family':<18s} {'events':>6s} {'auth':>10s} "
            f"{'stat':>7s} {'margin':>7s} {'ewma':>7s} "
            f"{'cusum':>7s} {'alarms':>6s}"
        )
        for name, fam in sorted(families.items()):
            mix = fam.get("verdict_mix") or {}
            auth = mix.get("authentic", 0.0)
            stat = (fam.get("statistic") or {}).get("mean")
            drift = fam.get("drift") or {}
            ewma = (drift.get("ewma") or {}).get("value")
            cusum = (drift.get("cusum") or {}).get("value")
            alarms = sum(
                (d or {}).get("alarms", 0) for d in drift.values()
            )
            lines.append(
                f"{name:<18s} {fam.get('events', 0):>6d} "
                f"{_bar(auth):>10s} {_fmt(stat):>7s} "
                f"{_fmt(fam.get('margin_mean')):>7s} {_fmt(ewma):>7s} "
                f"{_fmt(cusum):>7s} {alarms:>6d}"
            )
    else:
        lines.append("(no family traffic observed yet)")
    return "\n".join(lines)


async def fetch_snapshot(
    endpoint: EndpointLike, *, timeout: float = 10.0
) -> dict:
    """Query one ``monitor`` snapshot over the wire protocol.

    ``endpoint`` is anything :class:`~repro.service.Endpoint` accepts
    (an Endpoint, ``"host:port"``, a 2-tuple); a server *or* a fleet
    router answers it.  An error frame raises
    :class:`~repro.service.ServiceError` (a :class:`RuntimeError`).
    """
    from ..service.client import VerificationClient

    async with await VerificationClient.connect(endpoint) as client:
        return await asyncio.wait_for(client.monitor(), timeout=timeout)


async def watch(
    endpoint: EndpointLike,
    *,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    out=None,
) -> dict:
    """Poll the server and redraw the dashboard until interrupted.

    ``endpoint`` follows the same spec as :func:`fetch_snapshot`.
    ``iterations=None`` runs until Ctrl-C; a finite count makes the
    loop testable.  Returns the last snapshot rendered.
    """
    import sys

    stream = out if out is not None else sys.stdout
    snapshot: dict = {}
    n = 0
    while iterations is None or n < iterations:
        snapshot = await fetch_snapshot(endpoint)
        body = render_dashboard(snapshot)
        # ANSI home+clear keeps the dashboard in place on real
        # terminals; harmless noise in piped output.
        if out is None and stream.isatty():
            stream.write("\x1b[H\x1b[2J")
        stream.write(body + "\n")
        flush = getattr(stream, "flush", None)
        if flush is not None:
            flush()
        n += 1
        if iterations is not None and n >= iterations:
            break
        await asyncio.sleep(interval_s)
    return snapshot
