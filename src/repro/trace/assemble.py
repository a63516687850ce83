"""Assemble distributed traces from span-record streams.

Spans are recorded independently by the client, the server's event
loop, and engine pool workers; each lands in some JSONL sink as a
``{"type": "span", ..., "trace_id": ..., "span_id": ..., "parent_id":
...}`` record.  This module re-threads them: group records by
``trace_id``, link parent pointers into a tree, and emit one
``flashmark.trace/v1`` document per trace with the critical path and a
per-stage latency breakdown.

Two clocks appear in the records.  ``wall_s`` / ``t0_unix_s`` are host
wall-clock measurements — what a user actually waited — while
``device_us`` is simulated device-clock time charged by the operation
trace.  The document reports both and never mixes them: stage
breakdowns and the critical path are wall-clock (the serving question),
device totals ride along per span (the fidelity question).

Span names map onto pipeline stages::

    client.request      client   (send -> verdict, client-observed)
      server.request    server   (admission -> response write)
        server.queue_wait   queue_wait  (bounded queue residency)
        server.batch_wait   batch_wait  (micro-batch window + grouping)
        server.decode       decode      (npz chip blob decode)
        server.engine       engine      (verify_population call)
          verify.chip       engine_worker  (pool-worker verification)
        server.registry     registry    (history write incl. retries)

``engine`` and ``registry`` are group walls: one engine call and one
registry transaction serve a whole micro-batch group, and each request
of the group reports the full wall it waited on.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "TRACE_SCHEMA",
    "STAGE_OF_SPAN",
    "SERVER_STAGES",
    "read_span_records",
    "collect_traces",
    "assemble_trace",
    "assemble_traces",
    "format_trace",
    "format_critical_path",
]

TRACE_SCHEMA = "flashmark.trace/v1"

#: Span name -> pipeline stage label.
STAGE_OF_SPAN: Dict[str, str] = {
    "client.request": "client",
    "server.request": "server",
    "server.queue_wait": "queue_wait",
    "server.batch_wait": "batch_wait",
    "server.decode": "decode",
    "server.engine": "engine",
    "server.registry": "registry",
    "verify.chip": "engine_worker",
}

#: The stages whose wall times partition the server-side latency
#: (``engine_worker`` nests inside ``engine`` and would double count).
SERVER_STAGES = ("queue_wait", "batch_wait", "decode", "engine", "registry")


def read_span_records(paths: Sequence) -> List[dict]:
    """Load traced span records from JSONL sink files.

    Lines that are not span records, carry no trace id, or fail to
    parse are skipped — sinks interleave spans with other record types
    and may end mid-line after a crash.
    """
    records: List[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(rec, dict):
                    continue
                if rec.get("type", "span") != "span":
                    continue
                if rec.get("trace_id") and rec.get("span_id"):
                    records.append(rec)
    return records


def collect_traces(records: Iterable[dict]) -> Dict[str, List[dict]]:
    """Group span records by trace id (insertion-ordered)."""
    traces: Dict[str, List[dict]] = {}
    for rec in records:
        tid = rec.get("trace_id")
        if tid and rec.get("span_id"):
            traces.setdefault(tid, []).append(rec)
    return traces


def _dedup(spans: List[dict]) -> List[dict]:
    """Drop duplicate span ids (the same sink read twice)."""
    seen = set()
    out = []
    for rec in spans:
        sid = rec["span_id"]
        if sid in seen:
            continue
        seen.add(sid)
        out.append(rec)
    return out


def _end(rec: dict) -> float:
    return rec.get("t0_unix_s", 0.0) + rec.get("wall_s", 0.0)


def assemble_trace(trace_id: str, spans: List[dict]) -> dict:
    """One ``flashmark.trace/v1`` document from the spans of a trace."""
    spans = sorted(
        _dedup(spans), key=lambda r: (r.get("t0_unix_s", 0.0), r["span_id"])
    )
    by_id = {rec["span_id"]: rec for rec in spans}
    children: Dict[str, List[dict]] = {}
    roots: List[dict] = []
    orphans: List[str] = []
    for rec in spans:
        parent = rec.get("parent_id")
        if parent is None:
            roots.append(rec)
        elif parent in by_id:
            children.setdefault(parent, []).append(rec)
        else:
            # A parent pointer into a span nobody recorded: either a
            # sink is missing from the input or a stage span was lost.
            orphans.append(rec["span_id"])
            roots.append(rec)
    complete = len(orphans) == 0 and len(roots) == 1
    root = roots[0] if roots else None

    stages: Dict[str, dict] = {}
    for rec in spans:
        stage = STAGE_OF_SPAN.get(rec.get("name", ""))
        if stage is None:
            continue
        st = stages.setdefault(
            stage, {"wall_s": 0.0, "device_us": 0.0, "count": 0}
        )
        st["wall_s"] += rec.get("wall_s", 0.0)
        st["device_us"] += rec.get("device_us", 0.0)
        st["count"] += 1

    server_wall = stages.get("server", {}).get("wall_s")
    attributed = sum(
        stages[s]["wall_s"] for s in SERVER_STAGES if s in stages
    )
    unattributed = (
        max(0.0, server_wall - attributed)
        if server_wall is not None
        else None
    )

    return {
        "schema": TRACE_SCHEMA,
        "trace_id": trace_id,
        "n_spans": len(spans),
        "complete": complete,
        "orphans": orphans,
        "root": (
            {
                "name": root.get("name"),
                "span_id": root["span_id"],
                "wall_s": root.get("wall_s", 0.0),
                "t0_unix_s": root.get("t0_unix_s", 0.0),
            }
            if root is not None
            else None
        ),
        "wall_s": root.get("wall_s", 0.0) if root is not None else 0.0,
        "device_us": sum(r.get("device_us", 0.0) for r in spans),
        "stages": stages,
        "unattributed_s": unattributed,
        "critical_path": _critical_path(root, children),
        "spans": spans,
    }


def assemble_traces(records: Iterable[dict]) -> List[dict]:
    """Assemble every trace present in ``records``."""
    return [
        assemble_trace(tid, spans)
        for tid, spans in collect_traces(records).items()
    ]


def _critical_path(
    root: Optional[dict], children: Dict[str, List[dict]]
) -> List[dict]:
    """The chain from the root that dominates end-to-end latency.

    At each hop, descend into the child whose interval *ends last* —
    the span the parent was still waiting on when it closed.  Each
    entry carries ``self_s``: the hop's wall time not covered by its
    own children, i.e. where the time actually went.
    """
    path: List[dict] = []
    rec = root
    seen = set()
    while rec is not None and rec["span_id"] not in seen:
        seen.add(rec["span_id"])
        kids = children.get(rec["span_id"], [])
        child_wall = sum(k.get("wall_s", 0.0) for k in kids)
        path.append(
            {
                "name": rec.get("name"),
                "span_id": rec["span_id"],
                "stage": STAGE_OF_SPAN.get(rec.get("name", "")),
                "wall_s": rec.get("wall_s", 0.0),
                "device_us": rec.get("device_us", 0.0),
                "self_s": max(0.0, rec.get("wall_s", 0.0) - child_wall),
                "t0_unix_s": rec.get("t0_unix_s", 0.0),
            }
        )
        rec = max(kids, key=_end) if kids else None
    return path


# -- rendering -------------------------------------------------------------


def _fmt_ms(s: float) -> str:
    return f"{s * 1e3:.2f} ms"


def format_trace(doc: dict) -> str:
    """Render one trace document as an indented span tree."""
    lines = [
        f"trace {doc['trace_id']}  "
        f"({doc['n_spans']} span(s), {_fmt_ms(doc['wall_s'])}, "
        f"{'complete' if doc['complete'] else 'INCOMPLETE'})"
    ]
    if doc["orphans"]:
        lines.append(
            f"  ORPHAN span(s) with missing parents: "
            f"{', '.join(doc['orphans'])}"
        )
    by_id = {rec["span_id"]: rec for rec in doc["spans"]}
    children: Dict[str, List[dict]] = {}
    roots = []
    for rec in doc["spans"]:
        parent = rec.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(rec)
        else:
            roots.append(rec)

    def _walk(rec: dict, depth: int) -> None:
        device = rec.get("device_us", 0.0)
        extra = f", device {device / 1e3:.2f} ms" if device else ""
        lines.append(
            f"  {'  ' * depth}{rec.get('name')}  "
            f"{_fmt_ms(rec.get('wall_s', 0.0))}{extra}"
            f"  [{rec['span_id']}]"
        )
        for kid in sorted(
            children.get(rec["span_id"], []),
            key=lambda r: r.get("t0_unix_s", 0.0),
        ):
            _walk(kid, depth + 1)

    for rec in roots:
        _walk(rec, 0)
    return "\n".join(lines)


def format_critical_path(doc: dict) -> str:
    """Render the critical path + stage breakdown of one trace."""
    lines = [f"critical path of trace {doc['trace_id']}:"]
    for hop in doc["critical_path"]:
        stage = f" [{hop['stage']}]" if hop.get("stage") else ""
        lines.append(
            f"  {hop['name']:<20}{stage:<16} "
            f"wall {_fmt_ms(hop['wall_s']):>12}   "
            f"self {_fmt_ms(hop['self_s']):>12}"
        )
    stages = doc.get("stages") or {}
    if stages:
        lines.append("stage breakdown (wall clock):")
        for stage in ("client", "server", *SERVER_STAGES, "engine_worker"):
            st = stages.get(stage)
            if st is None:
                continue
            lines.append(
                f"  {stage:<14} {_fmt_ms(st['wall_s']):>12}  "
                f"(x{st['count']}"
                + (
                    f", device {st['device_us'] / 1e3:.2f} ms"
                    if st.get("device_us")
                    else ""
                )
                + ")"
            )
        server = stages.get("server")
        if server is not None and doc.get("unattributed_s") is not None:
            attributed = sum(
                stages[s]["wall_s"] for s in SERVER_STAGES if s in stages
            )
            pct = (
                100.0 * attributed / server["wall_s"]
                if server["wall_s"]
                else 100.0
            )
            lines.append(
                f"  stages cover {pct:.1f}% of server wall; "
                f"unattributed {_fmt_ms(doc['unattributed_s'])}"
            )
        client = stages.get("client")
        if client is not None and server is not None:
            lines.append(
                f"  client-observed {_fmt_ms(client['wall_s'])} = "
                f"server {_fmt_ms(server['wall_s'])} + wire/client "
                f"overhead {_fmt_ms(client['wall_s'] - server['wall_s'])}"
            )
    return "\n".join(lines)
