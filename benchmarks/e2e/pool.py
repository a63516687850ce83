"""Seeded inputs and their reference verdicts.

A workload's inputs are a pure function of ``--seed``: traffic chips
come from two :class:`~repro.workloads.traffic.TrafficGenerator` streams
whose items interleave (stream ``k`` is seeded ``seed * 100_000 + k *
10_000``, so chip seeds never collide between streams), and production
lots come from ``ProductionLine.jobs_for``.  Two streams let the
encoding of a pre-encoded pool split across two worker processes
without the pool depending on the host's CPU count.

Every verify the bench sends is checked against a *reference*: the
``(verdict, statistic)`` that :func:`repro.engine.verify_population`
returns for an in-memory copy of the same chip.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

FAMILY = "e2e-msp430"
#: Fixed seed of the published family calibration (setup, not input).
CALIBRATION_SEED = 77
STREAMS = 2
#: Receipt-issuer secret the ``station`` server signs with.
RECEIPT_KEY = "5e" * 32


@dataclass
class Item:
    """One pre-encoded verify request with its expected outcome."""

    index: int
    die_id: str
    frame: bytes
    ref_verdict: str
    ref_statistic: float


def stream_seed(seed: int, stream: int) -> int:
    return seed * 100_000 + stream * 10_000


def traffic(seed: int) -> Iterator:
    """The seeded traffic stream: items of the two generators, interleaved."""
    from repro.workloads.traffic import TrafficGenerator

    gens = [TrafficGenerator(seed=stream_seed(seed, k)) for k in range(STREAMS)]
    while True:
        for gen in gens:
            yield gen.draw(1)[0]


def family_format():
    from repro.workloads.traffic import TrafficSpec

    return TrafficSpec().population.format


def calibrate():
    """The family calibration every registry in a run publishes."""
    from repro.device import McuFactory
    from repro.engine import calibrate_family
    from repro.workloads.traffic import TrafficSpec

    population = TrafficSpec().population
    return calibrate_family(
        McuFactory(n_segments=1),
        population.n_pe,
        n_replicas=population.n_replicas,
        n_chips=1,
        seed=CALIBRATION_SEED,
    ).calibration


def verifier(calibration):
    from repro.core.verifier import WatermarkVerifier

    return WatermarkVerifier(calibration, family_format())


def reference(chips: Sequence, calibration) -> List[Tuple[str, float]]:
    """``(verdict, statistic)`` per chip from a direct engine call."""
    from repro.engine import verify_population

    result = verify_population(list(chips), verifier(calibration))
    out = []
    for report in result.results:
        if report is None:
            raise RuntimeError("reference verification failed")
        out.append(
            (
                report.verdict.value,
                report.stressed_outliers / max(1, report.stressed_outlier_limit),
            )
        )
    return out


def encode(chip, request_id, receipt: bool = False) -> bytes:
    from repro.service import protocol

    return protocol.encode_frame(
        protocol.verify_request(
            chip, FAMILY, request_id=request_id, receipt=receipt
        )
    )


def _build_stream(args) -> List[Item]:
    seed, stream, count, calibration = args
    from repro.workloads.traffic import TrafficGenerator

    items = TrafficGenerator(seed=stream_seed(seed, stream)).draw(count)
    refs = reference([it.chip for it in items], calibration)
    out = []
    for j, (it, (verdict, statistic)) in enumerate(zip(items, refs)):
        index = j * STREAMS + stream
        out.append(
            Item(
                index=index,
                die_id=f"0x{it.chip.die_id:012X}",
                frame=encode(it.chip, index),
                ref_verdict=verdict,
                ref_statistic=statistic,
            )
        )
    return out


def build_pool(seed: int, n: int, calibration) -> List[Item]:
    """``n`` pre-encoded requests (ids = pool index) with references.

    Bench set-up, not a program metric: generation runs in one forked
    worker per stream and the result does not depend on the worker
    count.  Forked, not spawned: a spawn-context pool starts
    multiprocessing's resource-tracker helper, which nothing joins and
    which outlives the bench.
    """
    counts = [len(range(k, n, STREAMS)) for k in range(STREAMS)]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=STREAMS, mp_context=ctx) as ex:
        parts = list(
            ex.map(
                _build_stream,
                [(seed, k, counts[k], calibration) for k in range(STREAMS)],
            )
        )
    return sorted((it for part in parts for it in part), key=lambda it: it.index)


def check(item: Item, response: dict) -> Optional[str]:
    """None when a served verify matches its reference, else why not."""
    result = response.get("result") or {}
    got = (result.get("die_id"), result.get("verdict"), result.get("statistic"))
    want = (item.die_id, item.ref_verdict, item.ref_statistic)
    if got != want:
        return f"item {item.index}: served {got}, reference {want}"
    return None


def digest(values: Sequence[str]) -> str:
    """Short fingerprint of a workload's inputs (die ids in order)."""
    h = hashlib.sha256()
    for v in values:
        h.update(v.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
