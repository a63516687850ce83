#!/usr/bin/env python3
"""One traced verification request, dissected.

A verify request crosses four execution contexts — client, server
event loop, engine pool worker, registry writer — and this demo shows
the distributed-tracing plumbing that stitches them back together:

1. publish a family and start the verification server with a
   span sink attached;
2. send one verify request carrying a fresh ``TraceContext`` (the wire
   ``trace`` field, W3C traceparent form);
3. assemble the server-side and client-side span records into one
   ``flashmark.trace/v1`` document;
4. render the span tree and the critical path, and export a
   flamegraph / Chrome trace for the viewers.

Run:  python examples/traced_request.py
"""

import asyncio
import tempfile
import time
from pathlib import Path

from repro import ServerConfig, VerificationServer, make_mcu
from repro.engine import calibrate_family
from repro.service import VerificationClient, WatermarkRegistry
from repro.telemetry import JsonlSink, Telemetry
from repro.trace import (
    TraceContext,
    assemble_traces,
    format_critical_path,
    format_trace,
    read_span_records,
    to_collapsed_stacks,
)
from repro.workloads.traffic import TrafficGenerator, TrafficSpec

FAMILY = "msp430-traced"


def publish(registry: WatermarkRegistry, spec: TrafficSpec) -> None:
    pop = spec.population
    print(f"[setup] calibrating family {FAMILY!r} ...")
    calibration = calibrate_family(
        lambda seed: make_mcu(seed=seed, n_segments=1),
        pop.n_pe,
        n_replicas=pop.format.n_replicas,
        n_chips=1,
        seed=77,
    ).calibration
    registry.publish_family(FAMILY, calibration, pop.format)


async def traced_verify(registry, spec, server_log: Path) -> TraceContext:
    """Serve one request end to end; return the client's root context."""
    server_tel = Telemetry(sink=JsonlSink(server_log))
    chip = TrafficGenerator(spec, seed=11).draw(1)[0].chip

    async with VerificationServer(
        registry, config=ServerConfig(port=0), telemetry=server_tel
    ) as server:
        root = TraceContext.new_root()
        print(f"[client] trace {root.trace_id}")
        async with await VerificationClient.connect(
            server.endpoint
        ) as client:
            t0 = time.perf_counter()
            t0_unix = time.time()
            result = await client.verify_chip(chip, FAMILY, trace=root)
            wall = time.perf_counter() - t0
        print(
            f"[client] verdict {result['verdict']!r} in {wall * 1e3:.1f} ms; "
            f"server echoed {result['trace']}"
        )
        # Record the client-observed span so the assembled tree has its
        # root.  (LoadClient does this automatically with trace=True.)
        server_tel.record_span(
            "client.request", wall, t0_unix_s=t0_unix, ctx=root
        )
    server_tel.sink.close()
    return root


def analyse(server_log: Path, out_dir: Path) -> None:
    docs = assemble_traces(read_span_records([server_log]))
    assert len(docs) == 1 and docs[0]["complete"], "trace must assemble"
    doc = docs[0]

    print()
    print(format_trace(doc))
    print()
    print(format_critical_path(doc))

    flame = out_dir / "flamegraph.txt"
    flame.write_text(to_collapsed_stacks(docs))
    print()
    print(f"[export] collapsed stacks -> {flame}")
    print("         (feed to flamegraph.pl or drop into speedscope.app;")
    print("          'repro trace export --chrome' writes the Perfetto form)")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        registry = WatermarkRegistry(tmp / "registry.db")
        spec = TrafficSpec()
        publish(registry, spec)
        asyncio.run(traced_verify(registry, spec, tmp / "spans.jsonl"))
        analyse(tmp / "spans.jsonl", tmp)
        registry.close()


if __name__ == "__main__":
    main()
