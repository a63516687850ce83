"""The traced in-process replay: each layer's public function, one span each.

For the first items of the seeded traffic stream the replay calls, in
request order and serially, what a verify request costs on its way
through the program::

    verify_request + encode_frame -> decode_frame -> chip_from_b64
      -> verify_population (batch 1) -> record_verification
      -> audit_head + build_receipt -> history -> FleetMonitor.record

plus the fleet router's share (``decode_frame`` + ``encode_frame`` of
the relayed request, ``HashRing.candidates``).  The same chips are then
verified in chunks of 16 under a :class:`~repro.obs.SamplingProfiler`,
and a few dies run the manufacturer's path (``jobs_for`` -> ``make_mcu``
-> ``run_die_sort`` -> ``imprint_watermark``).  Spans stay in memory and
are written once, at exit, by the caller.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from statistics import median
from typing import Dict, List

import pool

#: Dies per batched verify call (the server's default ``max_batch``).
BATCH = 16


class Tracer:
    """In-memory spans: name, start, end, parent; one trace id per request."""

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)

    def new_trace(self) -> str:
        return os.urandom(16).hex()

    @contextmanager
    def span(self, name: str, trace_id: str, parent: str = None):
        span_id = f"{next(self._ids):016x}"
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent,
                    "name": name,
                    "start_s": start,
                    "end_s": time.perf_counter(),
                }
            )

    def self_times(self) -> Dict[str, List[float]]:
        """Self time [s] per span name: duration minus the part of the
        interval its children cover."""
        children: Dict[str, List[dict]] = {}
        for s in self.spans:
            if s["parent_id"] is not None:
                children.setdefault(s["parent_id"], []).append(s)
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            covered, edge = 0.0, s["start_s"]
            for c in sorted(children.get(s["span_id"], ()), key=lambda c: c["start_s"]):
                lo, hi = max(c["start_s"], edge), min(c["end_s"], s["end_s"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.setdefault(s["name"], []).append(s["end_s"] - s["start_s"] - covered)
        return out


#: Replayed layers on a station inspection's blocking path, in order.
STATION_LAYERS = (
    "service.protocol.encode",
    "service.protocol.frame_decode",
    "service.protocol.chip_decode",
    "engine.verify.batch1",
    "service.registry.record",
    "service.registry.audit_head",
    "receipts.sign",
    "service.registry.history",
    "monitor.record",
)


def replay(seed: int, n_items: int, n_dies: int, workdir: Path, tracer: Tracer) -> dict:
    """Run the replay; returns per-layer values ``{name: (value, n)}``
    plus ``"mismatches"`` (batch-1 vs batch-16 verdict disagreements)."""
    from repro.core.imprint import imprint_watermark
    from repro.core.payload import ChipStatus, WatermarkPayload
    from repro.core.watermark import Watermark
    from repro.device.mcu import make_mcu
    from repro.engine import verify_population
    from repro.engine.cache import calibration_to_dict
    from repro.fleet.hashing import HashRing, routing_key
    from repro.monitor import OUTCOME_OK, FleetMonitor, VerificationEvent
    from repro.obs import SamplingProfiler
    from repro.receipts import ReceiptSigner, build_receipt, params_hash
    from repro.service import WatermarkRegistry, protocol
    from repro.workloads.production import ProductionLine, run_die_sort

    calibration = pool.calibrate()
    verifier = pool.verifier(calibration)
    fmt = pool.family_format()
    registry = WatermarkRegistry(workdir / "replay-registry.db")
    registry.publish_family(pool.FAMILY, calibration, fmt)
    signer = ReceiptSigner(bytes.fromhex(pool.RECEIPT_KEY))
    phash = params_hash(
        pool.FAMILY, calibration.model, calibration_to_dict(calibration), asdict(fmt)
    )
    monitor = FleetMonitor()
    ring = HashRing(["shard-0", "shard-1"])

    items = list(itertools.islice(pool.traffic(seed), n_items))
    frame_bytes: List[int] = []
    device_us: List[float] = []
    served = []
    for index, item in enumerate(items):
        tid = tracer.new_trace()
        with tracer.span("replay.request", tid) as root:
            with tracer.span("service.protocol.encode", tid, root):
                line = protocol.encode_frame(
                    protocol.verify_request(
                        item.chip, pool.FAMILY, request_id=index, receipt=True
                    )
                )
            frame_bytes.append(len(line))
            with tracer.span("service.protocol.frame_decode", tid, root):
                req = protocol.decode_frame(line)
            with tracer.span("service.protocol.chip_decode", tid, root):
                chip = protocol.chip_from_b64(req["chip_b64"])
            with tracer.span("engine.verify.batch1", tid, root):
                result = verify_population([chip], verifier)
            report = result.results[0]
            device_us.append(result.manifest["device"]["now_us"])
            statistic = report.stressed_outliers / max(1, report.stressed_outlier_limit)
            served.append((report.verdict.value, statistic))
            die = f"0x{chip.die_id:012X}"
            with tracer.span("service.registry.record", tid, root):
                seq = registry.record_verification(
                    pool.FAMILY, chip.die_id, report.verdict.value,
                    ber=report.ber, reason=report.reason, client="replay",
                )
            with tracer.span("service.registry.audit_head", tid, root):
                head = registry.audit_head()
            with tracer.span("receipts.sign", tid, root):
                build_receipt(
                    signer, family=pool.FAMILY, die_id=die,
                    decision=report.verdict.value, statistic=statistic,
                    params_hash=phash, history_seq=seq, audit_head=head,
                )
            with tracer.span("service.registry.history", tid, root):
                registry.history(die, family_id=pool.FAMILY, limit=1)
            with tracer.span("monitor.record", tid, root):
                monitor.record(
                    VerificationEvent(
                        family=pool.FAMILY, outcome=OUTCOME_OK,
                        verdict=report.verdict.value, statistic=statistic,
                        registry_seq=seq, unix_s=time.time(),
                    )
                )
            with tracer.span("fleet.hashing.route", tid, root):
                ring.candidates(routing_key(pool.FAMILY, req["die_id"]))
            with tracer.span("fleet.router.relay", tid, root):
                protocol.encode_frame(protocol.decode_frame(line))
    registry.close()

    batched = []
    per_die_ms = []
    with SamplingProfiler(499.0) as profiler:
        for start in range(0, len(items), BATCH):
            chunk = [it.chip for it in items[start : start + BATCH]]
            t0 = time.perf_counter()
            result = verify_population(chunk, verifier)
            per_die_ms.append((time.perf_counter() - t0) * 1e3 / len(chunk))
            for report in result.results:
                batched.append(
                    (
                        report.verdict.value,
                        report.stressed_outliers / max(1, report.stressed_outlier_limit),
                    )
                )
    profile = profiler.data
    in_kernels = sum(
        n for stack, n in profile.samples.items() if "repro.phys.kernels:" in stack
    )
    mismatches = [
        f"replay item {i}: batch-1 {a}, batch-16 {b}"
        for i, (a, b) in enumerate(zip(served, batched))
        if a != b
    ]
    off_truth = sum(
        1 for it, (verdict, _) in zip(items, batched) if verdict not in it.expected_verdicts
    )

    line = ProductionLine()
    lot_seed = seed * 1000 + 999
    jobs = line.jobs_for(n_dies, seed=lot_seed)
    die_device_s = []
    serial_s = 0.0
    for job in jobs:
        tid = tracer.new_trace()
        t0 = time.perf_counter()
        with tracer.span("production.die", tid) as root:
            with tracer.span("device.make_mcu", tid, root):
                chip = make_mcu(seed=job.seed, params=job.params, n_segments=2)
            with tracer.span("workloads.production.die_sort", tid, root):
                sort = run_die_sort(chip, job.spec, segment=1)
            payload = WatermarkPayload(
                job.manufacturer, die_id=chip.die_id, speed_grade=job.speed_grade,
                status=ChipStatus.ACCEPT if sort.passed else ChipStatus.REJECT,
            )
            with tracer.span("core.imprint.imprint", tid, root):
                imprint_watermark(
                    chip.flash, 0, Watermark.from_payload(payload).balanced(),
                    job.n_pe, n_replicas=job.n_replicas, accelerated=True,
                )
        serial_s += time.perf_counter() - t0
        die_device_s.append(chip.trace.now_us / 1e6)
    t0 = time.perf_counter()
    line.run(n_dies, seed=lot_seed, workers=2)
    pooled_wall = time.perf_counter() - t0

    layer = tracer.self_times()

    def p50_ms(name: str, scale: float = 1e3):
        values = layer[name]
        return (median(values) * scale, len(values))

    out = {
        "service.protocol.encode_ms": p50_ms("service.protocol.encode"),
        "service.protocol.request_bytes": (sum(frame_bytes) / len(frame_bytes), len(frame_bytes)),
        "service.protocol.frame_decode_ms": p50_ms("service.protocol.frame_decode"),
        "service.protocol.chip_decode_ms": p50_ms("service.protocol.chip_decode"),
        "engine.verify_ms.batch1": p50_ms("engine.verify.batch1"),
        "engine.verify_ms_per_die.batch16": (median(per_die_ms), len(batched)),
        "phys.kernels.sample_share": (in_kernels / max(1, profile.n_samples), profile.n_samples),
        "service.registry.record_ms": p50_ms("service.registry.record"),
        "service.registry.history_ms": p50_ms("service.registry.history"),
        "service.registry.audit_head_ms": p50_ms("service.registry.audit_head"),
        "receipts.sign_ms": p50_ms("receipts.sign"),
        "monitor.record_us": p50_ms("monitor.record", 1e6),
        "fleet.hashing.route_us": p50_ms("fleet.hashing.route", 1e6),
        "fleet.router.relay_ms": p50_ms("fleet.router.relay"),
        "device.make_mcu_ms": p50_ms("device.make_mcu"),
        "workloads.production.die_sort_ms": p50_ms("workloads.production.die_sort"),
        "core.imprint.imprint_ms": p50_ms("core.imprint.imprint"),
        "engine.executor.pool_efficiency": (serial_s / (pooled_wall * 2), n_dies),
        "sim.imprint_device_s": (sum(die_device_s) / len(die_device_s), n_dies),
        "sim.verify_device_ms": (sum(device_us) / len(device_us) / 1e3, len(device_us)),
        "accuracy.ground_truth_mismatch": (off_truth, len(items)),
    }
    station_ms = sum(median(layer[name]) for name in STATION_LAYERS) * 1e3
    return {"layers": out, "station_layers_ms": station_ms, "mismatches": mismatches}
