"""Service clients: a request/response client and a load generator.

:class:`VerificationClient` is the integrator's side of the wire
protocol — connect, stream chips, collect verdicts.

:class:`LoadClient` replays configurable traffic against a running
:class:`~repro.service.server.VerificationServer` and measures the
serving story the ROADMAP asks for: closed-loop (N workers, each
waiting for its verdict before sending the next chip — models N
inspection stations) or open-loop (fixed arrival rate regardless of
completions — models a flash-crowd) traffic, with a latency histogram
(p50/p95/p99), throughput, verdict-vs-ground-truth scoring, and a run
manifest.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..monitor.window import nearest_rank
from ..telemetry import Telemetry, build_manifest
from ..trace.context import TraceContext
from ..workloads.traffic import TrafficGenerator, TrafficItem
from . import protocol
from .endpoint import Endpoint, EndpointLike

__all__ = [
    "ServiceError",
    "VerificationClient",
    "LoadReport",
    "LoadClient",
]


class ServiceError(RuntimeError):
    """An error frame from the server.

    Carries the server-assigned ``request_id`` when the error frame
    echoed one, so a load run's failures correlate back to the request
    that drew them.
    """

    def __init__(
        self, code: int, reason: str, request_id: Any = None
    ):
        message = f"[{code}] {reason}"
        if request_id is not None:
            message += f" (request {request_id!r})"
        super().__init__(message)
        self.code = code
        self.reason = reason
        self.request_id = request_id


class VerificationClient:
    """One ``flashmark.wire/v1`` connection to a verification server
    (or the fleet router)."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._frames = protocol.FrameReader(reader)

    @classmethod
    async def connect(cls, endpoint: EndpointLike) -> "VerificationClient":
        """Open a connection to ``endpoint`` — an
        :class:`~repro.service.endpoint.Endpoint`, a ``"host:port"``
        string, or a ``(host, port)`` tuple."""
        endpoint = Endpoint.from_any(endpoint)
        reader, writer = await asyncio.open_connection(
            endpoint.host, endpoint.port, limit=protocol.MAX_FRAME_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "VerificationClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def request(self, req: dict) -> dict:
        """Send one frame and await its response frame.

        A request past :data:`~repro.service.protocol.MAX_FRAME_BYTES`
        raises :class:`~repro.service.protocol.FrameTooLarge` *before*
        any bytes hit the wire — the server would reject it anyway, so
        failing locally saves shipping megabytes to earn a ``400``.
        """
        chunks = protocol.frame_chunks(req)
        size = sum(len(chunk) for chunk in chunks)
        if size > protocol.MAX_FRAME_BYTES:
            raise protocol.FrameTooLarge(size)
        for chunk in chunks:  # a binary frame's body goes out uncopied
            self._writer.write(chunk)
        await self._writer.drain()
        line = await self._frames.read_frame()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_frame(line)

    async def call(self, req: dict) -> dict:
        """Like :meth:`request` but unwraps: returns the ``result``
        payload or raises :class:`ServiceError`."""
        resp = await self.request(req)
        if resp.get("ok"):
            return resp.get("result", {})
        err = resp.get("error") or {}
        raise ServiceError(
            int(err.get("code", protocol.INTERNAL_ERROR)),
            str(err.get("reason", "unknown error")),
            request_id=resp.get("id"),
        )

    async def verify_chip(
        self,
        chip,
        family: str,
        *,
        request_id: Any = None,
        client: Optional[str] = None,
        segment: int = 0,
        n_reads: int = 1,
        temperature_c: Optional[float] = None,
        trace: Optional[Any] = None,
        receipt: bool = False,
        pow_difficulty: Optional[int] = None,
    ) -> dict:
        """Verify one chip.  ``trace`` optionally carries distributed-
        trace context (a :class:`~repro.trace.context.TraceContext` or
        traceparent string) for the server to thread its spans under.

        ``receipt=True`` asks for a signed ``flashmark.receipt/v1`` in
        the result; ``pow_difficulty`` mints a hashcash ticket of that
        strength before sending (for servers running a PoW gate)."""
        if trace is not None and not isinstance(trace, str):
            trace = trace.to_traceparent()
        req = protocol.verify_request(
            chip,
            family,
            request_id=request_id,
            client=client,
            segment=segment,
            n_reads=n_reads,
            temperature_c=temperature_c,
            trace=trace,
            receipt=receipt,
        )
        if pow_difficulty is not None:
            if client is None:
                # Tickets bind to the server-side client id; without an
                # explicit one the server keys on the peer address,
                # which this side cannot predict.
                raise ValueError(
                    "pow_difficulty needs an explicit client id"
                )
            from ..receipts import mint_ticket

            req["pow"] = mint_ticket(client, req, pow_difficulty)
        return await self.call(req)

    async def ping(self) -> dict:
        return await self.call({"op": "ping"})

    async def stats(self) -> dict:
        return await self.call({"op": "stats"})

    async def families(self) -> List[dict]:
        return (await self.call({"op": "families"}))["families"]

    async def history(
        self, die_id: Optional[str] = None, *, limit: int = 20
    ) -> List[dict]:
        req: dict = {"op": "history", "limit": limit}
        if die_id is not None:
            req["die_id"] = die_id
        return (await self.call(req))["history"]

    async def monitor(self) -> dict:
        """The server's fleet-monitor snapshot (``monitor`` op)."""
        return await self.call({"op": "monitor"})


@dataclass
class LoadReport:
    """Everything one load run measured."""

    mode: str
    family: str
    requests: int
    #: Client-observed latency per completed request [s].
    latencies_s: List[float] = field(default_factory=list)
    #: Verdict string histogram over OK responses.
    verdicts: Dict[str, int] = field(default_factory=dict)
    #: Per-request verdict, keyed by traffic-item index — lets a caller
    #: compare the served verdicts one-to-one against a direct
    #: :func:`repro.engine.verify_population` run on the same chips.
    verdict_by_index: Dict[int, str] = field(default_factory=dict)
    #: Error-code histogram over rejected/errored requests.
    errors: Dict[int, int] = field(default_factory=dict)
    #: (index, got, expected) for verdicts outside the ground truth.
    mismatches: List[Tuple[int, str, Tuple[str, ...]]] = field(
        default_factory=list
    )
    #: Distributed-trace id per traffic-item index (tracing runs only);
    #: keys into the trace documents :mod:`repro.trace` assembles.
    trace_by_index: Dict[int, str] = field(default_factory=dict)
    #: Signed ``flashmark.receipt/v1`` documents, in completion order
    #: (receipt-requesting runs against a signing server only) —
    #: ``repro.receipts.write_receipts`` persists them for offline
    #: verification.
    receipts: List[dict] = field(default_factory=list)
    wall_s: float = 0.0
    concurrency: int = 1
    rate_hz: Optional[float] = None

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def rejected(self) -> int:
        return sum(self.errors.values())

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_summary(self) -> dict:
        """p50/p95/p99 (and friends) in milliseconds.

        Well-defined for any sample size: with no completions only the
        counts are reported; with one or two the percentiles degrade to
        the nearest real sample (never interpolated, never an error).
        ``n`` duplicates ``count`` under the name the monitor's window
        summaries use, so the two read alike in manifests.
        """
        lat = sorted(self.latencies_s)
        if not lat:
            return {"count": 0, "n": 0}
        return {
            "count": len(lat),
            "n": len(lat),
            "mean_ms": 1e3 * sum(lat) / len(lat),
            "min_ms": 1e3 * lat[0],
            "p50_ms": 1e3 * nearest_rank(lat, 50),
            "p95_ms": 1e3 * nearest_rank(lat, 95),
            "p99_ms": 1e3 * nearest_rank(lat, 99),
            "max_ms": 1e3 * lat[-1],
        }

    def to_dict(self) -> dict:
        """The manifest/JSON-artifact form of this report."""
        return {
            "mode": self.mode,
            "family": self.family,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors_by_code": {
                str(k): v for k, v in sorted(self.errors.items())
            },
            "verdicts": dict(sorted(self.verdicts.items())),
            "mismatches": len(self.mismatches),
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency_summary(),
            "concurrency": self.concurrency,
            "rate_hz": self.rate_hz,
            "traced": len(self.trace_by_index),
            "receipts": len(self.receipts),
        }


class LoadClient:
    """Replay traffic against a verification server and measure it.

    Parameters
    ----------
    endpoint:
        Where to send traffic — a lone server, a shard, or the fleet
        router, all addressed identically: an
        :class:`~repro.service.endpoint.Endpoint`, a ``"host:port"``
        string, or a ``(host, port)`` tuple.
    family:
        Published family id every request verifies against.
    traffic:
        A seeded :class:`~repro.workloads.TrafficGenerator`; the same
        generator state replayed against the engine directly yields the
        reference verdicts.
    client_id:
        Wire-protocol client id (the rate limiter keys on it).
    telemetry:
        Receives ``loadgen.*`` metrics and backs the run manifest.
    trace:
        When True, every request mints a fresh
        :class:`~repro.trace.context.TraceContext` root, sends it on
        the wire and records a ``client.request`` span against it —
        the client end of the distributed traces :mod:`repro.trace`
        assembles.  Trace ids land in ``LoadReport.trace_by_index``.
    receipts:
        When True, every request asks for a signed receipt; the
        documents a signing server returns land in
        ``LoadReport.receipts`` for offline verification.
    pow_difficulty:
        When set, a hashcash ticket of that strength is minted per
        request (matching a server's ``pow_difficulty`` gate).  Minting
        runs off the event loop — it is deliberate CPU spend.
    """

    def __init__(
        self,
        endpoint: EndpointLike,
        family: str,
        *,
        traffic: Optional[TrafficGenerator] = None,
        client_id: str = "loadgen",
        telemetry: Optional[Telemetry] = None,
        trace: bool = False,
        receipts: bool = False,
        pow_difficulty: Optional[int] = None,
    ):
        if not isinstance(family, str) or not family:
            raise TypeError(
                "LoadClient needs a non-empty family id, got "
                f"{family!r}"
            )
        self.endpoint = Endpoint.from_any(endpoint)
        self.family = family
        self.traffic = (
            traffic if traffic is not None else TrafficGenerator()
        )
        self.client_id = client_id
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry()
        )
        self.trace = trace
        self.receipts = receipts
        self.pow_difficulty = pow_difficulty

    # -- traffic ----------------------------------------------------------

    def draw_items(self, n: int) -> List[TrafficItem]:
        """Manufacture the next ``n`` chips of the traffic stream."""
        with self.telemetry.span("loadgen.manufacture", n=n):
            return self.traffic.draw(n)

    # -- closed loop ------------------------------------------------------

    async def run_closed_loop(
        self,
        n_requests: int,
        *,
        concurrency: int = 4,
        items: Optional[List[TrafficItem]] = None,
        segment: int = 0,
        n_reads: int = 1,
    ) -> LoadReport:
        """``concurrency`` workers, each sending its next chip only
        after the previous verdict arrived (incoming-inspection model).
        """
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if items is None:
            items = self.draw_items(n_requests)
        report = LoadReport(
            mode="closed",
            family=self.family,
            requests=len(items),
            concurrency=concurrency,
        )
        queue: "asyncio.Queue[TrafficItem]" = asyncio.Queue()
        for item in items:
            queue.put_nowait(item)
        loop = asyncio.get_running_loop()

        async def worker(worker_id: int) -> None:
            client = await VerificationClient.connect(self.endpoint)
            try:
                while True:
                    try:
                        item = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    await self._one_request(
                        client, item, report, loop, segment, n_reads
                    )
            finally:
                await client.close()

        t0 = loop.time()
        with self.telemetry.span(
            "loadgen.closed_loop",
            requests=len(items),
            concurrency=concurrency,
        ):
            await asyncio.gather(
                *(worker(i) for i in range(concurrency))
            )
        report.wall_s = loop.time() - t0
        self._observe(report)
        return report

    # -- open loop --------------------------------------------------------

    async def run_open_loop(
        self,
        n_requests: int,
        rate_hz: float,
        *,
        items: Optional[List[TrafficItem]] = None,
        segment: int = 0,
        n_reads: int = 1,
        connections: int = 4,
    ) -> LoadReport:
        """Fixed arrival rate, independent of completions.

        Sends are paced at ``rate_hz`` across a small connection pool;
        responses are collected as they come.  When the offered rate
        exceeds capacity the server's queue bound turns the excess into
        429 rejections — counted, never hung on.
        """
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if items is None:
            items = self.draw_items(n_requests)
        report = LoadReport(
            mode="open",
            family=self.family,
            requests=len(items),
            concurrency=connections,
            rate_hz=rate_hz,
        )
        loop = asyncio.get_running_loop()
        clients = [
            await VerificationClient.connect(self.endpoint)
            for _ in range(connections)
        ]
        locks = [asyncio.Lock() for _ in range(connections)]

        async def fire(i: int, item: TrafficItem) -> None:
            # One in-flight request per pooled connection at a time
            # (the wire protocol is request/response per stream).
            async with locks[i % connections]:
                await self._one_request(
                    clients[i % connections],
                    item,
                    report,
                    loop,
                    segment,
                    n_reads,
                )

        interval = 1.0 / rate_hz
        t0 = loop.time()
        tasks = []
        with self.telemetry.span(
            "loadgen.open_loop", requests=len(items), rate_hz=rate_hz
        ):
            for i, item in enumerate(items):
                target = t0 + i * interval
                delay = target - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(loop.create_task(fire(i, item)))
            await asyncio.gather(*tasks)
        report.wall_s = loop.time() - t0
        for client in clients:
            await client.close()
        self._observe(report)
        return report

    # -- internals --------------------------------------------------------

    async def _one_request(
        self,
        client: VerificationClient,
        item: TrafficItem,
        report: LoadReport,
        loop,
        segment: int,
        n_reads: int,
    ) -> None:
        root = TraceContext.new_root() if self.trace else None
        req = protocol.verify_request(
            item.chip,
            self.family,
            request_id=item.index,
            client=self.client_id,
            segment=segment,
            n_reads=n_reads,
            trace=root.to_traceparent() if root is not None else None,
            receipt=self.receipts,
        )
        if self.pow_difficulty is not None:
            from ..receipts import mint_ticket

            # Minting is the whole point of the gate — CPU spend per
            # request — so it runs in the executor, off the loop.
            req["pow"] = await loop.run_in_executor(
                None,
                lambda: mint_ticket(
                    self.client_id, req, self.pow_difficulty
                ),
            )
        t0_unix = time.time()
        t0 = loop.time()
        try:
            result = await client.call(req)
        except ServiceError as exc:
            report.errors[exc.code] = report.errors.get(exc.code, 0) + 1
            self.telemetry.count(f"loadgen.error.{exc.code}")
            if root is not None:
                report.trace_by_index[item.index] = root.trace_id
                self.telemetry.record_span(
                    "client.request",
                    loop.time() - t0,
                    t0_unix_s=t0_unix,
                    ctx=root,
                    attrs={"index": item.index},
                    error=str(exc.code),
                )
            return
        latency = loop.time() - t0
        if root is not None:
            report.trace_by_index[item.index] = root.trace_id
            self.telemetry.record_span(
                "client.request",
                latency,
                t0_unix_s=t0_unix,
                ctx=root,
                attrs={"index": item.index},
            )
        report.latencies_s.append(latency)
        if "receipt" in result:
            report.receipts.append(result["receipt"])
            self.telemetry.count("loadgen.receipts")
        verdict = result["verdict"]
        report.verdicts[verdict] = report.verdicts.get(verdict, 0) + 1
        report.verdict_by_index[item.index] = verdict
        if verdict not in item.expected_verdicts:
            report.mismatches.append(
                (item.index, verdict, item.expected_verdicts)
            )
        self.telemetry.count("loadgen.responses")
        self.telemetry.observe("loadgen.latency_s", latency)

    def _observe(self, report: LoadReport) -> None:
        summary = report.latency_summary()
        if summary.get("count"):
            self.telemetry.gauge(
                "loadgen.p50_ms", summary["p50_ms"]
            )
            self.telemetry.gauge(
                "loadgen.p95_ms", summary["p95_ms"]
            )
            self.telemetry.gauge(
                "loadgen.p99_ms", summary["p99_ms"]
            )
        self.telemetry.gauge(
            "loadgen.throughput_rps", report.throughput_rps
        )

    def build_manifest(self, report: LoadReport) -> dict:
        """Run manifest (``kind="loadgen"``) with the load block."""
        return build_manifest(
            self.telemetry,
            kind="loadgen",
            parameters={
                "endpoint": str(self.endpoint),
                "host": self.endpoint.host,
                "port": self.endpoint.port,
                "family": self.family,
                "mode": report.mode,
                "requests": report.requests,
                "concurrency": report.concurrency,
                "rate_hz": report.rate_hz,
                "traffic_seed": self.traffic.seed,
                "traffic_mix": dict(self.traffic.spec.mix),
                "trace": self.trace,
                "receipts": self.receipts,
                "pow_difficulty": self.pow_difficulty,
            },
            seeds={"traffic_seed": self.traffic.seed},
            extra={"load": report.to_dict()},
        )
