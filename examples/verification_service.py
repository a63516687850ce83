#!/usr/bin/env python3
"""The verification service, end to end in one process.

The paper's deployment is asymmetric: the manufacturer publishes
family parameters once, and every integrator verifies incoming chips
against them.  This demo plays all the roles:

1. **manufacturer** — calibrate the family and publish it into a
   registry (SQLite, hash-chained audit log);
2. **authority** — start the asyncio verification server on an
   ephemeral port;
3. **integrators** — replay a seeded mixed-provenance traffic stream
   (genuine / rebranded / recycled / fall-out / tampered chips)
   through a closed-loop load client and score the verdicts;
4. **auditor** — read back per-die history and re-verify the audit
   chain.

Run:  python examples/verification_service.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import LoadClient, ServerConfig, VerificationServer, make_mcu
from repro.analysis import format_table
from repro.engine import calibrate_family
from repro.service import VerificationClient, WatermarkRegistry
from repro.workloads.traffic import TrafficGenerator, TrafficSpec

FAMILY = "msp430-demo"
N_REQUESTS = 24
CONCURRENCY = 6


def publish(registry: WatermarkRegistry, spec: TrafficSpec) -> None:
    pop = spec.population
    print(f"[manufacturer] calibrating family {FAMILY!r} ...")
    calibration = calibrate_family(
        lambda seed: make_mcu(seed=seed, n_segments=1),
        pop.n_pe,
        n_replicas=pop.format.n_replicas,
        n_chips=2,
        seed=77,
    ).calibration
    record = registry.publish_family(
        FAMILY, calibration, pop.format
    )
    print(
        f"[manufacturer] published: t_PEW {record.calibration.t_pew_us:.1f} us, "
        f"{record.format.n_bits} bits x {record.format.n_replicas} replicas"
    )


async def run_service(registry: WatermarkRegistry, spec: TrafficSpec):
    config = ServerConfig(queue_depth=32, max_batch=8)
    async with VerificationServer(registry, config=config) as server:
        print(
            f"[authority] serving on {server.address[0]}:{server.port} "
            f"(queue {config.queue_depth}, batch {config.max_batch})"
        )

        print(
            f"[integrator] replaying {N_REQUESTS} chips of mixed "
            f"provenance at concurrency {CONCURRENCY} ..."
        )
        load = LoadClient(
            server.endpoint,
            FAMILY,
            traffic=TrafficGenerator(spec, seed=2020),
            client_id="station-1",
        )
        report = await load.run_closed_loop(
            N_REQUESTS, concurrency=CONCURRENCY
        )
        summary = report.latency_summary()
        print(
            f"[integrator] {report.completed}/{report.requests} verdicts, "
            f"{report.rejected} rejected, "
            f"{len(report.mismatches)} ground-truth mismatch(es)"
        )
        print(
            f"[integrator] latency p50 {summary['p50_ms']:.1f} ms, "
            f"p95 {summary['p95_ms']:.1f} ms, "
            f"p99 {summary['p99_ms']:.1f} ms; "
            f"throughput {report.throughput_rps:.1f} req/s"
        )
        print(
            format_table(
                ["verdict", "count"],
                sorted(report.verdicts.items()),
                title="served verdicts",
            )
        )

        async with await VerificationClient.connect(
            server.endpoint
        ) as client:
            stats = await client.stats()
            history = await client.history(limit=3)
        print(
            "[authority] counters: "
            + ", ".join(
                f"{k.split('.', 1)[1]}={v}"
                for k, v in sorted(stats["counters"].items())
                if k.startswith("service.verdict.")
                or k == "service.admitted"
            )
        )
        print("[auditor] latest history entries:")
        for entry in history:
            print(
                f"    #{entry['seq']:<3} die {entry['die_id']} -> "
                f"{entry['verdict']} (client {entry['client']})"
            )
    return report


def main() -> None:
    spec = TrafficSpec()
    with tempfile.TemporaryDirectory() as tmp:
        registry = WatermarkRegistry(Path(tmp) / "registry.db")
        try:
            publish(registry, spec)
            asyncio.run(run_service(registry, spec))
            n = registry.verify_audit_chain()
            print(f"[auditor] audit chain intact: {n} entries verified")
        finally:
            registry.close()


if __name__ == "__main__":
    main()
