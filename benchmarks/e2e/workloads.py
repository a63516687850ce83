"""The five workloads, each driving the real programs from outside.

``station``      closed loop, 1 connection, ``repro serve --receipt-key``:
                 manufacture (untimed) -> encode -> verify with a receipt
                 -> history, one inspection at a time.
``surge``        open loop at 40 rps over 2 connections, pre-encoded pool,
                 default ``repro serve``.
``saturate``     closed loop for ``--seconds``, 8 requests outstanding over
                 2 connections, a longer prefix of the same pool, default
                 ``repro serve``.
``fleet``        open loop at 40 rps, the same pool, through
                 ``repro fleet up --shards 2``.
``imprint-line`` ``ProductionLine().run(lot, seed, workers=2)`` lot after
                 lot; no service involved.

Every workload returns its end-to-end numbers as ``{metric: (value, n)}``
and, when traced, the in-situ per-layer numbers of its own servers.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import pool
from harness import (
    RESPONSE_TIMEOUT_S,
    Connection,
    Launched,
    cpu_seconds,
    histogram_mean,
    launch_fleet,
    launch_server,
    percentile,
    scrape,
    vm_hwm_mb,
    windowed_percentile,
)
from replay import Tracer

#: Open-loop arrival rate [req/s]: a third to a half of one server's
#: capacity as the shared host's speed drifts.  At 60 rps a slow spell
#: pushed the server to the knee: the p95 of ten runs spread 0.85 (IQR
#: over median), against 0.13 at 40 rps.
RATE = 40.0
#: Verifications/s ``saturate``'s pool is sized for: one server manages
#: 75-125 on the reference host, so the run ends on time, or a little
#: early when the host is fast, rather than on an empty pool.
CAPACITY = 100.0
#: Requests kept in flight by ``saturate``: enough to fill micro-batches.
OUTSTANDING = 8
#: Client connections; the reference host has 2 CPUs.
CONNECTIONS = 2
#: Dies per production lot (bounds the bench's memory to one lot).
LOT = 100
#: Dies of the first lot checked against a ``workers=1`` reference.
REF_DIES = 50
#: Fewest latency samples a run reports, so that at least ten lie
#: beyond its p95.
MIN_SAMPLES = 200
#: Dies whose ids fingerprint a run's inputs (``Outcome.inputs``); a
#: prefix, because time-bound loops consume different counts.
FINGERPRINT = 20
WIRE = "flashmark.wire/v1"


@dataclass(frozen=True)
class Sizes:
    """How much work one run does, from ``--seconds`` and ``--smoke``."""

    seconds: float
    smoke: bool = False

    @property
    def setups(self) -> int:
        return 1 if self.smoke else 3

    @property
    def open_n(self) -> int:
        return 20 if self.smoke else max(MIN_SAMPLES, round(RATE * self.seconds))

    @property
    def closed_n(self) -> int:
        return 20 if self.smoke else max(MIN_SAMPLES, round(CAPACITY * self.seconds))

    @property
    def station_cap(self) -> Optional[int]:
        return 20 if self.smoke else None

    @property
    def station_floor(self) -> int:
        return 0 if self.smoke else MIN_SAMPLES

    @property
    def lot(self) -> int:
        return REF_DIES if self.smoke else LOT

    @property
    def replay_items(self) -> int:
        return 8 if self.smoke else 100

    @property
    def replay_dies(self) -> int:
        return 4 if self.smoke else 50

    @property
    def station_pass(self) -> int:
        return 10 if self.smoke else 100


@dataclass
class Run:
    """State one bench invocation shares across its workloads."""

    seed: int
    sizes: Sizes
    trace: bool
    workdir: Path
    tracer: Tracer = field(default_factory=Tracer)
    _pool: Optional[List[pool.Item]] = None

    def pool(self, n: int) -> List[pool.Item]:
        """The first ``n`` pool items.  A smaller pool is a prefix of a
        larger one, so one build serves every later workload that needs
        no more."""
        if self._pool is None or len(self._pool) < n:
            self._pool = pool.build_pool(self.seed, n, pool.calibrate())
        return self._pool[:n]


@dataclass
class Outcome:
    metrics: Dict[str, tuple] = field(default_factory=dict)
    per_layer: Dict[str, tuple] = field(default_factory=dict)
    extra: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    inputs: str = ""


# -- set-up -------------------------------------------------------------------


def publish(path: Path, calibration, receipts: bool) -> None:
    from repro.service import WatermarkRegistry

    verify_key = algorithm = None
    if receipts:
        from repro.receipts import keypair_for

        algorithm, verify_key = keypair_for(bytes.fromhex(pool.RECEIPT_KEY), None)
    with WatermarkRegistry(path) as registry:
        registry.publish_family(
            pool.FAMILY,
            calibration,
            pool.family_format(),
            verify_key=verify_key,
            verify_algorithm=algorithm,
        )


def start_service(run: Run, name: str, setups: int, *, fleet=False, receipts=False):
    """Calibrate + publish + launch until the first pong, ``setups``
    times from scratch; returns the last process tree and the median
    set-up time."""
    times, launched = [], None
    try:
        for i in range(setups):
            if launched is not None:
                launched.close()
            workdir = run.workdir / f"{name}-{i}"
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            registry = workdir / "registry.db"
            publish(registry, pool.calibrate(), receipts)
            if fleet:
                launched = launch_fleet(workdir, registry)
            else:
                key = pool.RECEIPT_KEY if receipts else None
                launched = launch_server(workdir, registry, key)
            times.append(time.perf_counter() - t0)
    except BaseException:
        if launched is not None:
            launched.close()
        raise
    return launched, median(times)


def in_situ(launched: Launched, cpu0: float, lateness_s: List[float]) -> dict:
    """Per-layer numbers scraped from the servers a workload drove."""
    scrapes = [scrape(port) for port in launched.server_ports()]
    n = int(sum(s.get("flashmark_service_latency_s_count", 0) for s in scrapes))
    cpu = sum(cpu_seconds(pid) for pid in launched.server_pids()) - cpu0
    out = {
        f"service.server.{stage}_ms": (histogram_mean(scrapes, metric, 1e3), n)
        for stage, metric in (
            ("latency", "service_latency_s"),
            ("queue_wait", "service_stage_queue_wait_s"),
            ("batch_wait", "service_stage_batch_wait_s"),
            ("decode", "service_stage_decode_s"),
            ("engine", "service_stage_engine_s"),
            ("registry", "service_stage_registry_s"),
        )
    }
    out["service.server.batch_size"] = (histogram_mean(scrapes, "service_batch_size"), n)
    out["service.server.cpu_ms_per_request"] = (cpu * 1e3 / max(1, n), n)
    out["loadgen.late_p95_ms"] = (percentile(lateness_s, 95) * 1e3, len(lateness_s))
    return out


#: Units of the router-only numbers, which only ``fleet`` can measure
#: and so stay out of BENCHMARK.json's per-layer list.
EXTRA_UNITS = {"fleet.router.overhead_ms": "ms", "fleet.router.cpu_ms_per_request": "ms"}


def router_extra(launched: Launched, cpu0: float) -> dict:
    """Router-only numbers of a fleet run (document extras)."""
    router = scrape(launched.port)
    shards = [scrape(port) for port in launched.server_ports()]
    n = int(router.get("flashmark_fleet_latency_s_count", 0))
    overhead = histogram_mean([router], "fleet_latency_s", 1e3) - histogram_mean(
        shards, "service_latency_s", 1e3
    )
    cpu = cpu_seconds(launched.proc.pid) - cpu0
    return {
        "fleet.router.overhead_ms": (overhead, n),
        "fleet.router.cpu_ms_per_request": (cpu * 1e3 / max(1, n), n),
    }


# -- station ------------------------------------------------------------------


@dataclass
class Inspection:
    item: object
    verify: dict
    history: dict
    seconds: float
    late_s: float
    traced: bool


async def _inspect(port: int, run: Run, floor: int, cap, budget_s: float, alternate: bool):
    """Closed-loop inspections on one connection until ``budget_s`` of
    inspection time and ``floor`` inspections, at most ``cap``; every
    second one is traced when ``alternate`` (the untraced ones give the
    baseline)."""
    tracer = run.tracer
    conn = await Connection.open(port)
    traffic = pool.traffic(run.seed)
    done: List[Inspection] = []
    failed = 0
    busy = 0.0
    try:
        while (busy < budget_s or len(done) < floor) and (
            cap is None or len(done) + failed < cap
        ):
            item = next(traffic)
            i = len(done) + failed
            tid = tracer.new_trace() if alternate and i % 2 else None

            def span(name, parent=None):
                return tracer.span(name, tid, parent) if tid else nullcontext()

            t0 = time.perf_counter()
            try:
                with span("station.inspection") as root:
                    with span("client.encode", root):
                        frame = pool.encode(item.chip, i, receipt=True)
                    ready = time.perf_counter()
                    with span("client.verify", root):
                        fut = await conn.send(i, frame)
                        late = time.perf_counter() - ready
                        verify, _ = await asyncio.wait_for(fut, RESPONSE_TIMEOUT_S)
                    die = (verify.get("result") or {}).get("die_id")
                    query = {"v": WIRE, "id": f"h{i}", "op": "history",
                             "die_id": die, "family": pool.FAMILY, "limit": 1}
                    with span("client.history", root):
                        history, _ = await conn.call(f"h{i}", json.dumps(query).encode() + b"\n")
            except (OSError, asyncio.TimeoutError):
                failed += 1
                break
            seconds = time.perf_counter() - t0
            busy += seconds
            done.append(Inspection(item, verify, history, seconds, late, tid is not None))
    finally:
        await conn.close()
    return done, failed


def _check_station(done: List[Inspection]) -> List[str]:
    """Verdicts against a direct engine call, plus the history entry and
    the receipt each inspection got back."""
    if not done:
        return []
    refs = pool.reference([d.item.chip for d in done], pool.calibrate())
    problems = []
    for n, (d, (verdict, statistic)) in enumerate(zip(done, refs)):
        result = d.verify.get("result") or {}
        want = (f"0x{d.item.chip.die_id:012X}", verdict, statistic)
        got = (result.get("die_id"), result.get("verdict"), result.get("statistic"))
        if got != want:
            problems.append(f"inspection {n}: served {got}, reference {want}")
            continue
        latest = ((d.history.get("result") or {}).get("history") or [{}])[0]
        if (latest.get("verdict"), latest.get("seq")) != (verdict, result.get("history_seq")):
            problems.append(f"inspection {n}: history {latest} does not show the verdict")
        receipt = result.get("receipt") or {}
        if (receipt.get("decision"), receipt.get("history_seq")) != (verdict, result.get("history_seq")):
            problems.append(f"inspection {n}: receipt {receipt} does not match the verdict")
    return problems


def _ok(d: Inspection) -> bool:
    return bool(d.verify.get("ok") and d.history.get("ok"))


def _station_run(
    run: Run, name: str, floor: int, cap, budget_s: float, setups: int, alternate: bool
):
    launched, setup_s = start_service(run, name, setups, receipts=True)
    try:
        cpu0 = sum(cpu_seconds(pid) for pid in launched.server_pids())
        done, dropped = asyncio.run(
            _inspect(launched.port, run, floor, cap, budget_s, alternate)
        )
        rss = vm_hwm_mb(launched.proc.pid)
        late = [d.late_s for d in done]
        layers = in_situ(launched, cpu0, late) if run.trace else {}
    finally:
        launched.close()
    out = Outcome(attempted=len(done) + dropped)
    good = [d for d in done if _ok(d)]
    out.failed = out.attempted - len(good)
    out.mismatches = _check_station(good)
    out.inputs = pool.digest([f"0x{d.item.chip.die_id:012X}" for d in done[:FINGERPRINT]])
    plain = [d.seconds for d in good if not d.traced]
    out.metrics = {
        "setup_s": (setup_s, setups),
        "latency_p50_ms": (windowed_percentile(plain, 50) * 1e3, len(plain)),
        "latency_p95_ms": (windowed_percentile(plain, 95) * 1e3, len(plain)),
        "throughput_per_s": (len(good) / max(1e-9, sum(d.seconds for d in good)), len(good)),
        "peak_rss_mb": (rss, 1),
    }
    traced = [d.seconds for d in good if d.traced]
    if traced:
        layers["trace.overhead_ratio"] = (median(traced) / median(plain), len(traced))
    out.per_layer = layers
    return out


def station(run: Run) -> Outcome:
    s = run.sizes
    return _station_run(
        run, "station", s.station_floor, s.station_cap, s.seconds, s.setups,
        alternate=run.trace,
    )


def station_pass(run: Run) -> Outcome:
    """The short traced station pass other workloads add when traced."""
    s = run.sizes
    return _station_run(
        run, "station-pass", 0, s.station_pass, float("inf"), 1, alternate=True
    )


# -- pooled workloads ---------------------------------------------------------


@dataclass
class Sent:
    item: pool.Item
    due: float
    #: When the whole frame had been handed to the socket (0: never).
    sent: float = 0.0
    recv: float = 0.0
    response: Optional[dict] = None


async def _open_loop(port: int, items: List[pool.Item], rate: float) -> List[Sent]:
    """Request ``i`` is due at ``start + i / rate`` on connection
    ``i % CONNECTIONS``, whatever earlier requests are doing."""
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    start = time.perf_counter() + 0.05
    records = [Sent(it, start + i / rate) for i, it in enumerate(items)]
    futures: Dict[int, asyncio.Future] = {}

    async def sender(c: int) -> None:
        for i in range(c, len(records), CONNECTIONS):
            rec = records[i]
            delay = rec.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            try:
                futures[i] = await conns[c].send(rec.item.index, rec.item.frame)
            except OSError:
                return
            rec.sent = time.perf_counter()

    try:
        await asyncio.gather(*(sender(c) for c in range(CONNECTIONS)))
        await _collect(records, futures)
    finally:
        for conn in conns:
            await conn.close()
    return records


async def _closed_loop(
    port: int, items: List[pool.Item], outstanding: int, seconds: float
) -> List[Sent]:
    """``outstanding`` requests in flight, spread over the connections;
    each is due the moment its slot frees up, until ``seconds`` have
    passed or the items run out."""
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    records: List[Sent] = []
    queue = iter(items)
    deadline = time.perf_counter() + seconds

    async def slot(conn: Connection) -> None:
        for item in queue:
            if time.perf_counter() > deadline:
                return
            rec = Sent(item, time.perf_counter())
            records.append(rec)
            try:
                fut = await conn.send(rec.item.index, rec.item.frame)
                rec.sent = time.perf_counter()
                rec.response, rec.recv = await asyncio.wait_for(fut, RESPONSE_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError):
                return

    try:
        await asyncio.gather(*(slot(conns[k % CONNECTIONS]) for k in range(outstanding)))
    finally:
        for conn in conns:
            await conn.close()
    return records


async def _collect(records: List[Sent], futures: Dict[int, asyncio.Future]) -> None:
    for i, fut in futures.items():
        try:
            records[i].response, records[i].recv = await asyncio.wait_for(fut, RESPONSE_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError):
            pass


def _pooled(run: Run, name: str, n: int, drive, fleet: bool = False) -> Outcome:
    items = run.pool(n)
    launched, setup_s = start_service(run, name, run.sizes.setups, fleet=fleet)
    try:
        cpu0 = sum(cpu_seconds(pid) for pid in launched.server_pids())
        router_cpu0 = cpu_seconds(launched.proc.pid)
        records = asyncio.run(drive(launched.port, items))
        rss = sum(vm_hwm_mb(pid) for pid in launched.pids())
        late = [r.sent - r.due for r in records if r.sent]
        layers = in_situ(launched, cpu0, late) if run.trace else {}
        extra = router_extra(launched, router_cpu0) if run.trace and fleet else {}
    finally:
        launched.close()
    out = Outcome(attempted=len(records), per_layer=layers, extra=extra)
    good = [r for r in records if r.response is not None and r.response.get("ok")]
    out.failed = len(records) - len(good)
    out.mismatches = [m for m in (pool.check(r.item, r.response) for r in good) if m]
    out.inputs = pool.digest([it.die_id for it in items[:FINGERPRINT]])
    latency = [r.recv - r.due for r in good]
    first = min((r.due for r in records if r.sent), default=0.0)
    last = max((r.recv for r in good), default=first)
    out.metrics = {
        "setup_s": (setup_s, run.sizes.setups),
        "latency_p50_ms": (windowed_percentile(latency, 50) * 1e3, len(latency)),
        "latency_p95_ms": (windowed_percentile(latency, 95) * 1e3, len(latency)),
        "throughput_per_s": (len(good) / max(1e-9, last - first), len(good)),
        "peak_rss_mb": (rss, len(launched.pids())),
    }
    return out


def surge(run: Run) -> Outcome:
    return _pooled(
        run, "surge", run.sizes.open_n, lambda port, items: _open_loop(port, items, RATE)
    )


def saturate(run: Run) -> Outcome:
    return _pooled(
        run, "saturate", run.sizes.closed_n,
        lambda port, items: _closed_loop(port, items, OUTSTANDING, run.sizes.seconds),
    )


def fleet(run: Run) -> Outcome:
    return _pooled(
        run, "fleet", run.sizes.open_n,
        lambda port, items: _open_loop(port, items, RATE), fleet=True,
    )


# -- imprint-line -------------------------------------------------------------


def imprint_line(run: Run) -> Outcome:
    """Lots of dies through the engine's process pool until the run's
    time is used; the first lot is checked against ``workers=1``."""
    from repro.telemetry import Telemetry
    from repro.workloads.production import ProductionLine

    s = run.sizes
    line = ProductionLine()
    base = run.seed * 1000
    warm = []
    # A 2-die lot takes about 35 ms, so thrice the services' set-up
    # count costs little and steadies the median.
    for i in range(3 * s.setups):
        t0 = time.perf_counter()
        line.run(2, seed=base + 900 + i, workers=2)
        warm.append(time.perf_counter() - t0)

    die_s: List[float] = []
    die_ids: List[str] = []
    busy, dies, failed, lots = 0.0, 0, 0, 0
    first = None
    while busy < s.seconds and not (s.smoke and lots):
        tel = Telemetry()
        t0 = time.perf_counter()
        result = line.run(s.lot, seed=base + lots, workers=2, telemetry=tel)
        busy += time.perf_counter() - t0
        die_s += [sp.wall_s for sp in tel.spans if sp.name == "production.die"]
        dies += len(result.results)
        failed += sum(1 for p in result.results if p is None)
        die_ids += [f"0x{p.chip.die_id:012X}" for p in result.results if p is not None]
        if first is None:
            first = result.results[:REF_DIES]
        lots += 1

    ref = line.run(REF_DIES, seed=base, workers=1).results
    out = Outcome(attempted=dies, failed=failed)
    for k, (a, b) in enumerate(zip(first, ref)):
        if a is None or b is None:
            continue
        got = (a.die_sort, a.chip.die_id)
        if got != (b.die_sort, b.chip.die_id):
            out.mismatches.append(f"die {k}: {got} differs from the workers=1 reference")
    clock = sum(p.chip.trace.now_us for p in first if p is not None)
    ref_clock = sum(p.chip.trace.now_us for p in ref if p is not None)
    if clock != ref_clock:
        out.mismatches.append(f"device clock {clock} us differs from reference {ref_clock} us")
    out.inputs = pool.digest(die_ids[:FINGERPRINT])
    out.metrics = {
        "setup_s": (median(warm), len(warm)),
        "latency_p50_ms": (windowed_percentile(die_s, 50) * 1e3, len(die_s)),
        "latency_p95_ms": (windowed_percentile(die_s, 95) * 1e3, len(die_s)),
        "throughput_per_s": ((dies - failed) / max(1e-9, busy), dies - failed),
        "peak_rss_mb": (vm_hwm_mb(os.getpid()), 1),
    }
    return out


WORKLOADS = {
    "station": station,
    "surge": surge,
    "saturate": saturate,
    "fleet": fleet,
    "imprint-line": imprint_line,
}
