"""VerificationServer: the online watermark verification authority.

A long-running asyncio service that turns one-shot library verification
into the supply-chain deployment of Section V: integrators connect,
stream chips in (``flashmark.wire/v1`` frames), and get verdicts back,
while the server records history into the
:class:`~repro.service.registry.WatermarkRegistry`.

Throughput architecture::

    connections ──> admission ──> bounded queue ──> micro-batcher
                    (rate limit,    (backpressure:     (drains up to
                     400/404        queue full ->       max_batch, groups
                     checks)        429, never hangs)   compatible requests,
                                                        one engine call)
                                          │
                                          v       one executor job per group
                       engine.verify_population(workers=N)
                                          │
                                          v
                       registry.record_verifications (one transaction)

Admission control is synchronous with the reader loop, so a client that
floods past the queue bound gets an immediate 429-style rejection frame
per excess request — the queue never grows beyond ``queue_depth`` and
accepted requests are never dropped.  The micro-batcher amortizes the
engine's fan-out across concurrent clients: requests against the same
family/segment settings that arrive within ``batch_window_s`` of each
other share one :func:`~repro.engine.verify_population` call, and
their verdicts one registry transaction, written in the same executor
job before any of them is answered.

The port itself — socket, per-connection frame loop, the plain HTTP
``GET /healthz`` / ``GET /metrics`` sidecar sniffed from the first
line, and the latency / span / monitor-event bookkeeping when a request
finishes — is the :class:`~repro.service.frontend.WireFrontEnd` the
fleet router shares; this module adds the server's own work on top:
admission, micro-batching, registry history and receipts.

Distributed tracing: a verify request may carry a ``trace`` field
(traceparent form, see :mod:`repro.trace.context`).  With tracing
enabled the server records one ``server.request`` span per request plus
stage spans (``server.queue_wait`` / ``server.batch_wait`` /
``server.decode`` / ``server.engine`` / ``server.registry``) against the
request's context, and threads a per-request child context into the
engine so pool-worker ``verify.chip`` spans land in the same trace.
Requests without the field get a server-minted root, so every request
is traceable; stage wall times also feed ``service.stage.*_s``
histograms either way.
"""

from __future__ import annotations

import asyncio
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.signature import SignatureScheme
from ..core.verifier import WatermarkVerifier
from ..engine import verify_population
from ..engine.cache import calibration_to_dict
from ..faults import InjectedFault, fault_point
from ..receipts import PowGate, ReceiptSigner, build_receipt
from ..receipts import params_hash as receipt_params_hash
from ..telemetry import Telemetry
from ..trace.context import TraceContext, parse_traceparent
from . import protocol
from .frontend import LATENCY_BUCKETS, WireFrontEnd
from .health import HealthReport
from .registry import RegistryError, WatermarkRegistry

__all__ = ["ServerConfig", "VerificationServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of a :class:`VerificationServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Bound on queued-but-unbatched requests; admission past this is
    #: rejected with a 429-style frame.
    queue_depth: int = 64
    #: Most requests one engine call may absorb.
    max_batch: int = 16
    #: How long the batcher lingers for companions after the first
    #: request of a batch arrives.
    batch_window_s: float = 0.002
    #: Worker processes per engine call (1 = inline, deterministic
    #: either way).
    workers: int = 1
    #: Token-bucket size per client id (None disables rate limiting).
    rate_capacity: Optional[float] = None
    #: Token refill rate per second per client.
    rate_refill_per_s: float = 50.0
    #: Record each verification into the registry history.
    record_history: bool = True
    #: Record distributed-trace spans for verify requests (the wire
    #: ``trace`` field is honored either way; off skips span recording
    #: entirely for zero per-request overhead).
    tracing: bool = True
    #: Feed per-request outcome events to a fleet monitor
    #: (:class:`~repro.monitor.FleetMonitor`): drift detection, SLO
    #: burn alerting, the ``monitor`` wire op and ``monitor.*`` gauges.
    monitoring: bool = True
    #: Hashcash proof-of-work difficulty (leading zero bits) every
    #: verify request's ``pow`` ticket must clear.  0 disables the gate
    #: entirely — no 428s, byte-identical admission to pre-PoW servers.
    pow_difficulty: int = 0
    #: Accepted-ticket digests remembered for exactly-once spending.
    pow_replay_cache: int = 4096
    #: Continuous-profiling sample rate in Hz (0 disables).  Non-zero
    #: starts a :class:`~repro.obs.SamplingProfiler` on the event-loop
    #: thread for the server's lifetime and passes the same rate into
    #: every engine call, so worker stacks land in the merged profile
    #: too; the aggregate rides ``telemetry.snapshot()["profile"]``.
    profile_hz: float = 0.0


class _TokenBucket:
    """Per-client token bucket (monotonic-clock refill)."""

    __slots__ = ("capacity", "refill_per_s", "tokens", "stamp")

    def __init__(self, capacity: float, refill_per_s: float, now: float):
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self.tokens = capacity
        self.stamp = now

    def allow(self, now: float) -> bool:
        self.tokens = min(
            self.capacity,
            self.tokens + (now - self.stamp) * self.refill_per_s,
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class _Pending:
    """One admitted verify request waiting for its batch.

    Carries the still-encoded chip, the raw body of a binary frame.  It
    is decoded in the batch executor thread, where a corrupt body fails
    only its own request and decoding cannot stall admission on the
    event loop.
    """

    request_id: Any
    body: Optional[bytes]
    family: str
    segment: int
    n_reads: int
    temperature_c: Optional[float]
    client: str
    enqueued_at: float
    future: "asyncio.Future[dict]" = field(repr=False, default=None)
    #: This request's trace context (``server.request`` identity);
    #: None when tracing is disabled.
    trace: Optional[TraceContext] = None
    #: Unix-clock admission stamp (span start times; monotonic
    #: ``enqueued_at`` stays the latency authority).
    enqueued_unix: float = 0.0
    #: When the batcher dequeued this request (monotonic + unix).
    picked_at: Optional[float] = None
    picked_unix: float = 0.0
    #: The request asked for a signed receipt (``"receipt": true``).
    want_receipt: bool = False

    @property
    def batch_key(self) -> Tuple:
        return (self.family, self.segment, self.n_reads, self.temperature_c)


def _trace_exemplar(pending: _Pending) -> Optional[Dict[str, str]]:
    """Histogram exemplar labels for one request (None untraced)."""
    if pending.trace is None:
        return None
    return {"trace_id": pending.trace.trace_id}


class VerificationServer(WireFrontEnd):
    """Serve watermark verification over asyncio streams.

    Parameters
    ----------
    registry:
        The published-family store; also receives verification
        history, one transaction per micro-batch group.
    config:
        Queueing/batching/rate-limit tunables.
    telemetry:
        Receives ``service.*`` counters, latency histograms and
        absorbed per-batch verification spans.  A fresh enabled context
        by default.
    sign_keys:
        ``family_id -> key bytes`` for families published with a
        signing-key fingerprint; the key is checked against the
        registry fingerprint before use.  Families whose key the server
        does not hold still verify, with ``signature_checked: false``
        in each result.
    monitor:
        A pre-configured :class:`~repro.monitor.FleetMonitor` (e.g. one
        wired to an alerts log).  With ``config.monitoring`` on and no
        monitor given, the server builds a default one sharing its
        telemetry; ``config.monitoring=False`` disables the event feed
        entirely.
    receipt_signer:
        A :class:`~repro.receipts.ReceiptSigner` holding the issuer's
        private key.  With one attached, verify requests carrying
        ``"receipt": true`` get a signed ``flashmark.receipt/v1``
        document in the result, anchored on the request's own
        ``verification.record`` audit entry.
        Without one, such requests still get their verdict — just no
        receipt (``service.receipts.unavailable`` counts the degrade).
    """

    _role = "server"
    _ns = "service"

    def __init__(
        self,
        registry: WatermarkRegistry,
        *,
        config: Optional[ServerConfig] = None,
        telemetry: Optional[Telemetry] = None,
        sign_keys: Optional[Dict[str, bytes]] = None,
        monitor=None,
        receipt_signer: Optional[ReceiptSigner] = None,
    ):
        super().__init__(
            config if config is not None else ServerConfig(),
            telemetry,
            monitor,
        )
        self.registry = registry
        self.sign_keys = dict(sign_keys or {})
        self.receipt_signer = receipt_signer
        self._pow_gate = (
            PowGate(
                self.config.pow_difficulty,
                replay_cache=self.config.pow_replay_cache,
            )
            if self.config.pow_difficulty > 0
            else None
        )
        self._params_hashes: Dict[str, str] = {}
        self._verifiers: Dict[str, Tuple[WatermarkVerifier, bool]] = {}
        self._buckets: Dict[str, _TokenBucket] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._max_queue_depth = 0
        self._profiler = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the micro-batcher."""
        await super().start()
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._batcher = self._loop.create_task(self._batch_loop())
        if self.config.profile_hz > 0:
            # Imported lazily: the profiler is opt-in and repro.obs
            # must stay independent of the service import graph.
            from ..obs.profiler import SamplingProfiler

            self._profiler = SamplingProfiler(
                self.config.profile_hz
            ).start()
        self.telemetry.count("service.starts")

    async def stop(self) -> None:
        """Stop accepting, cancel the batcher, fail queued requests."""
        await super().stop()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._queue is not None:
            while not self._queue.empty():
                pending: _Pending = self._queue.get_nowait()
                if not pending.future.done():
                    pending.future.set_result(
                        protocol.error_response(
                            pending.request_id,
                            protocol.INTERNAL_ERROR,
                            "server shutting down",
                        )
                    )
        if self._profiler is not None:
            profiler, self._profiler = self._profiler, None
            self.telemetry.merge_profile(profiler.stop().to_dict())

    @property
    def address(self) -> Tuple[str, int]:
        return (self.config.host, self.port)

    # -- verifier construction -------------------------------------------

    def _verifier_for(self, family: str) -> Tuple[WatermarkVerifier, bool]:
        """The cached verifier for a family + whether signatures are
        actually checked."""
        cached = self._verifiers.get(family)
        if cached is not None:
            return cached
        record = self.registry.get_family(family)
        scheme = None
        checked = False
        if record.sign_key_fingerprint is not None:
            key = self.sign_keys.get(family)
            if key is not None:
                if (
                    WatermarkRegistry.fingerprint(key)
                    != record.sign_key_fingerprint
                ):
                    raise RegistryError(
                        f"signing key for family {family!r} does not "
                        "match the published fingerprint"
                    )
                scheme = SignatureScheme(key)
                checked = True
        verifier = WatermarkVerifier(
            record.calibration, record.format, signature_scheme=scheme
        )
        self._verifiers[family] = (verifier, checked)
        return verifier, checked

    # -- connection handling ----------------------------------------------

    def _inject_read(self, line: bytes) -> Optional[bytes]:
        try:
            # Injection point: payload kinds hand the parser a damaged
            # frame, "drop" severs the connection mid-stream, "error"
            # models a transport read failure.
            action = fault_point("service.read")
        except InjectedFault:
            self.telemetry.count("service.read_aborts")
            return None
        if action is None:
            return line
        if action.kind == "drop":
            self.telemetry.count("service.read_aborts")
            return None
        return action.apply_bytes(line).strip()

    def _inject_write(self, writer) -> Optional[float]:
        try:
            # Injection point: "hang" models a slow-draining client
            # socket, "error"/"drop" a client that vanished while a
            # response was in flight.
            action = fault_point("service.write")
            dropped = action is not None and action.kind == "drop"
        except InjectedFault:
            dropped = True
        if dropped:
            self.telemetry.count("service.write_aborts")
            writer.close()
            return None
        if action is not None and action.kind == "hang":
            return action.hang_s
        return 0.0

    def _accept_verify(self, req: dict, writer, write_lock):
        """Admission runs synchronously with the reader loop, so a
        rejection (and its 429 ordering) is decided before the next
        frame is read."""
        outcome = self._admit(req, writer)
        if isinstance(outcome, dict):  # rejected at admission
            self._record_event(
                outcome, family=req.get("family"), client=req.get("client")
            )
            return outcome
        return self._finish_verify(outcome, writer, write_lock)

    async def _handle_query(self, op, request_id, req: dict) -> dict:
        """Non-verify operations, answered inline (nothing awaits)."""
        try:
            if op == "ping":
                return protocol.ok_response(request_id, {"pong": True})
            if op == "stats":
                return protocol.ok_response(request_id, self.stats())
            if op == "families":
                return protocol.ok_response(
                    request_id,
                    {
                        "families": [
                            {
                                "family_id": fam.family_id,
                                "model": fam.model,
                                "t_pew_us": fam.calibration.t_pew_us,
                                "signed": fam.sign_key_fingerprint
                                is not None,
                            }
                            for fam in self.registry.families()
                        ]
                    },
                )
            if op == "history":
                records = self.registry.history(
                    req.get("die_id"),
                    family_id=req.get("family"),
                    limit=int(req.get("limit", 20)),
                )
                return protocol.ok_response(
                    request_id,
                    {
                        "history": [
                            {
                                "seq": r.seq,
                                "family": r.family_id,
                                "die_id": r.die_id,
                                "verdict": r.verdict,
                                "ber": r.ber,
                                "client": r.client,
                                "created_unix_s": r.created_unix_s,
                            }
                            for r in records
                        ]
                    },
                )
            if op == "monitor":
                if self.monitor is None:
                    return protocol.error_response(
                        request_id,
                        protocol.BAD_REQUEST,
                        "monitoring is disabled on this server",
                    )
                return protocol.ok_response(
                    request_id, self.monitor.snapshot()
                )
            return protocol.error_response(
                request_id, protocol.BAD_REQUEST, f"unknown op {op!r}"
            )
        except (RegistryError, ValueError) as exc:
            return protocol.error_response(
                request_id, protocol.BAD_REQUEST, str(exc)
            )

    # -- admission --------------------------------------------------------

    def _client_id(self, req: dict, writer) -> str:
        client = req.get("client")
        if isinstance(client, str) and client:
            return client
        peer = writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "anonymous"

    def _admit(self, req: dict, writer):
        """Admission control: returns a queued :class:`_Pending`, or an
        error-response dict (rate limited, overloaded, malformed)."""
        request_id = req.get("id")
        client = self._client_id(req, writer)
        now = self._loop.time()
        if self._pow_gate is not None:
            # The PoW gate runs *before* the token bucket so the two
            # rejection codes stay unambiguous: 428 always means "your
            # ticket is bad — mint and retry", 429 always means "your
            # ticket (if any) was fine but you must back off".  An
            # accepted ticket is spent even if the bucket then rejects:
            # admission work was done for it.
            accepted, reason = self._pow_gate.evaluate(client, req)
            if not accepted:
                self.telemetry.count(f"service.pow.rejected.{reason}")
                return protocol.error_response(
                    request_id,
                    protocol.POW_REQUIRED,
                    f"proof-of-work ticket {reason} "
                    f"(difficulty {self._pow_gate.difficulty})",
                )
            self.telemetry.count("service.pow.accepted")
        if self.config.rate_capacity is not None:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = _TokenBucket(
                    self.config.rate_capacity,
                    self.config.rate_refill_per_s,
                    now,
                )
            if not bucket.allow(now):
                self.telemetry.count("service.rejected.rate")
                return protocol.error_response(
                    request_id,
                    protocol.TOO_MANY_REQUESTS,
                    f"rate limit exceeded for client {client!r}",
                )
        family = req.get("family")
        if not isinstance(family, str) or not family:
            self.telemetry.count("service.rejected.bad_request")
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                "verify request is missing 'family'",
            )
        try:
            self._verifier_for(family)
        except RegistryError as exc:
            self.telemetry.count("service.rejected.unknown_family")
            return protocol.error_response(
                request_id, protocol.NOT_FOUND, str(exc)
            )
        body = req.get("chip_b64")
        if not isinstance(body, bytes) or not body:
            self.telemetry.count("service.rejected.bad_request")
            return protocol.error_response(
                request_id,
                protocol.BAD_REQUEST,
                "verify request must be a binary frame carrying "
                "'chip_b64'",
            )
        trace = None
        if self.config.tracing:
            # A request-carried context becomes the parent of this
            # server's spans; absent or malformed, mint a root so the
            # request is traceable anyway.  Never a 400: the field is
            # advisory metadata.
            parsed = parse_traceparent(req.get("trace"))
            trace = (
                parsed.child() if parsed is not None
                else TraceContext.new_root()
            )
        pending = _Pending(
            request_id=request_id,
            body=body,
            family=family,
            segment=int(req.get("segment", 0)),
            n_reads=int(req.get("n_reads", 1)),
            temperature_c=(
                float(req["temperature_c"])
                if req.get("temperature_c") is not None
                else None
            ),
            client=client,
            enqueued_at=now,
            future=self._loop.create_future(),
            trace=trace,
            enqueued_unix=time.time(),
            want_receipt=bool(req.get("receipt")),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.telemetry.count("service.rejected.overload")
            return protocol.error_response(
                request_id,
                protocol.TOO_MANY_REQUESTS,
                f"server overloaded: queue of "
                f"{self.config.queue_depth} requests is full",
            )
        self._max_queue_depth = max(
            self._max_queue_depth, self._queue.qsize()
        )
        self.telemetry.count("service.admitted")
        return pending

    async def _finish_verify(
        self, pending: _Pending, writer, write_lock
    ) -> None:
        response = await pending.future
        self._finish_request(
            response,
            self._loop.time() - pending.enqueued_at,
            ctx=pending.trace,
            t0_unix=pending.enqueued_unix,
            family=pending.family,
            client=pending.client,
            attrs={"client": pending.client, "family": pending.family},
        )
        await self._write_frame(writer, write_lock, response)

    # -- micro-batching ---------------------------------------------------

    async def _batch_loop(self) -> None:
        """Drain the queue into grouped engine calls, forever."""
        while True:
            first: _Pending = await self._queue.get()
            self._mark_picked(first)
            batch = [first]
            deadline = self._loop.time() + self.config.batch_window_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    pending = await asyncio.wait_for(
                        self._queue.get(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
                self._mark_picked(pending)
                batch.append(pending)
            self.telemetry.count("service.batches")
            self.telemetry.observe(
                "service.batch_size",
                len(batch),
                buckets=(1, 2, 4, 8, 16, 32, 64),
            )
            groups: Dict[Tuple, List[_Pending]] = {}
            for pending in batch:
                groups.setdefault(pending.batch_key, []).append(pending)
            for group in groups.values():
                try:
                    await self._run_group(group)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    # The batcher must never die: an escaped exception
                    # here would orphan every future request on the
                    # queue.  Fail this group and keep draining.
                    self._fail_group(group, exc)

    def _fail_group(self, group: List[_Pending], exc: Exception) -> None:
        """Answer every still-open request of a group with ``500``."""
        self.telemetry.count("service.errors", len(group))
        for pending in group:
            if not pending.future.done():
                pending.future.set_result(
                    protocol.error_response(
                        pending.request_id,
                        protocol.INTERNAL_ERROR,
                        f"verification failed: {exc}",
                    )
                )

    def _mark_picked(self, pending: _Pending) -> None:
        """Stamp batcher pickup on a request as it is dequeued and close
        its ``queue_wait`` stage (admission -> dequeue); the window
        linger that follows belongs to ``batch_wait``."""
        pending.picked_at = now = self._loop.time()
        pending.picked_unix = time.time()
        wait = now - pending.enqueued_at
        self.telemetry.observe(
            "service.stage.queue_wait_s",
            wait,
            buckets=LATENCY_BUCKETS,
            exemplar=_trace_exemplar(pending),
        )
        if pending.trace is not None:
            self.telemetry.record_span(
                "server.queue_wait",
                wait,
                t0_unix_s=pending.enqueued_unix,
                ctx=pending.trace.child(),
            )

    async def _run_group(self, group: List[_Pending]) -> None:
        """One engine call for a same-settings group of requests."""
        head = group[0]
        verifier, signature_checked = self._verifier_for(head.family)
        batch_tel = Telemetry()
        work_started = self._loop.time()
        for pending in group:
            # batch_wait: dequeue -> this group's work starting (window
            # linger + any same-batch groups that ran first).
            if pending.picked_at is None:
                continue
            wait = work_started - pending.picked_at
            self.telemetry.observe(
                "service.stage.batch_wait_s",
                wait,
                buckets=LATENCY_BUCKETS,
                exemplar=_trace_exemplar(pending),
            )
            if pending.trace is not None:
                self.telemetry.record_span(
                    "server.batch_wait",
                    wait,
                    t0_unix_s=pending.picked_unix,
                    ctx=pending.trace.child(),
                )
        # Engine contexts are minted on the event loop so their ids are
        # known before the executor runs; the worker re-parents its
        # verify.chip span under the matching one.
        engine_ctxs = [
            p.trace.child() if p.trace is not None else None for p in group
        ]

        def _work():
            # Decode chips here, in the executor thread, off the event
            # loop.  A corrupt body fails only its own request, never
            # the group.
            chips, errors = [], {}
            decode_meta: List[Tuple[float, float]] = []
            for i, pending in enumerate(group):
                t0_unix = time.time()
                t0 = time.perf_counter()
                try:
                    chips.append(protocol.chip_from_b64(pending.body))
                except protocol.ProtocolError as exc:
                    chips.append(None)
                    errors[i] = str(exc)
                pending.body = None  # the chip now holds the state
                decode_meta.append((t0_unix, time.perf_counter() - t0))
            # Group index -> index into the engine's results (decodable
            # chips only).
            jobs = {}
            good, good_tps = [], []
            for i, chip in enumerate(chips):
                if chip is not None:
                    jobs[i] = len(good)
                    good.append(chip)
                    good_tps.append(
                        engine_ctxs[i].to_traceparent()
                        if engine_ctxs[i] is not None
                        else None
                    )
            engine_t0_unix = time.time()
            engine_t0 = time.perf_counter()
            result = (
                verify_population(
                    good,
                    verifier,
                    segment=head.segment,
                    n_reads=head.n_reads,
                    temperature_c=head.temperature_c,
                    workers=self.config.workers,
                    telemetry=batch_tel,
                    trace_contexts=good_tps,
                    profile_hz=self.config.profile_hz,
                )
                if good
                else None
            )
            engine_wall = time.perf_counter() - engine_t0
            reports = {i: result.results[j] for i, j in jobs.items()}
            # History for the whole group is written here, in the same
            # executor job, so the event loop never blocks on SQLite.
            recorded = [
                i for i, report in reports.items() if report is not None
            ]
            registry_meta = None
            if self.config.record_history and recorded:
                registry_meta = self._record_group(
                    [
                        {
                            "family_id": head.family,
                            "die_id": chips[i].die_id,
                            "verdict": reports[i].verdict.value,
                            "ber": reports[i].ber,
                            "reason": reports[i].reason,
                            "client": group[i].client,
                        }
                        for i in recorded
                    ]
                )
            return (
                chips,
                errors,
                jobs,
                reports,
                result,
                decode_meta,
                (engine_t0_unix, engine_wall),
                recorded,
                registry_meta,
            )

        try:
            (
                chips,
                decode_errors,
                jobs,
                reports,
                result,
                decode_meta,
                engine_meta,
                recorded,
                registry_meta,
            ) = await self._loop.run_in_executor(None, _work)
        except Exception as exc:  # engine-level failure: fail the group
            self._fail_group(group, exc)
            return
        self.telemetry.absorb(
            batch_tel.snapshot(), prefix="service.batch"
        )
        engine_t0_unix, engine_wall = engine_meta
        for i, pending in enumerate(group):
            t0_unix, decode_wall = decode_meta[i]
            self.telemetry.observe(
                "service.stage.decode_s",
                decode_wall,
                buckets=LATENCY_BUCKETS,
                exemplar=_trace_exemplar(pending),
            )
            if pending.trace is not None:
                self.telemetry.record_span(
                    "server.decode",
                    decode_wall,
                    t0_unix_s=t0_unix,
                    ctx=pending.trace.child(),
                    error=("ProtocolError" if i in decode_errors else None),
                )
            if i not in decode_errors:
                # The engine wall is shared by the whole group — each
                # request's engine stage reports the call it waited on.
                self.telemetry.observe(
                    "service.stage.engine_s",
                    engine_wall,
                    buckets=LATENCY_BUCKETS,
                    exemplar=_trace_exemplar(pending),
                )
                if engine_ctxs[i] is not None:
                    self.telemetry.record_span(
                        "server.engine",
                        engine_wall,
                        t0_unix_s=engine_t0_unix,
                        ctx=engine_ctxs[i],
                        attrs={
                            "group_size": len(group),
                            "workers": self.config.workers,
                        },
                    )
        # Group index -> (history seq, own audit entry hash); empty when
        # history is off or the registry stayed degraded.
        anchors: Dict[int, Tuple[int, str]] = {}
        if registry_meta is not None:
            written, retries, reg_t0_unix, reg_wall = registry_meta
            if retries:
                self.telemetry.count("service.registry_retries", retries)
            if written is None:
                self.telemetry.count("service.errors.registry")
            else:
                anchors = dict(zip(recorded, written))
            for i in recorded:
                pending = group[i]
                # Like the engine wall, the registry wall is the group's
                # shared transaction.
                self.telemetry.observe(
                    "service.stage.registry_s",
                    reg_wall,
                    buckets=LATENCY_BUCKETS,
                    exemplar=_trace_exemplar(pending),
                )
                if pending.trace is not None:
                    seq = anchors[i][0] if i in anchors else None
                    self.telemetry.record_span(
                        "server.registry",
                        reg_wall,
                        t0_unix_s=reg_t0_unix,
                        ctx=pending.trace.child(),
                        attrs={"seq": seq},
                        error=None if seq is not None else "RegistryError",
                    )
        failures = (
            {f.index: f for f in result.failures} if result else {}
        )
        for i, pending in enumerate(group):
            if i in decode_errors:
                self.telemetry.count("service.rejected.bad_request")
                if not pending.future.done():
                    pending.future.set_result(
                        protocol.error_response(
                            pending.request_id,
                            protocol.BAD_REQUEST,
                            decode_errors[i],
                        )
                    )
                continue
            if pending.future.done():
                continue
            chip = chips[i]
            report = reports[i]
            if report is None:
                failure = failures.get(jobs[i])
                detail = (
                    failure.error.strip().splitlines()[-1]
                    if failure is not None
                    else "job failed"
                )
                self.telemetry.count("service.errors")
                pending.future.set_result(
                    protocol.error_response(
                        pending.request_id,
                        protocol.INTERNAL_ERROR,
                        detail,
                    )
                )
                continue
            payload = None
            if report.payload is not None:
                payload = {
                    "manufacturer": report.payload.manufacturer,
                    "die_id": f"0x{report.payload.die_id:012X}",
                    "speed_grade": report.payload.speed_grade,
                    "status": report.payload.status.name,
                }
            seq, audit_entry = anchors.get(i, (None, None))
            self.telemetry.count(
                f"service.verdict.{report.verdict.value}"
            )
            response_body = {
                "family": head.family,
                "die_id": f"0x{chip.die_id:012X}",
                "verdict": report.verdict.value,
                "ber": report.ber,
                # Normalized decision statistic: raw stressed outliers
                # over the calibrated limit.  Unlike ``ber`` (None when
                # no expected watermark is pinned) this is always
                # available, so fleet monitors can watch wear drift.
                "statistic": report.stressed_outliers
                / max(1, report.stressed_outlier_limit),
                "reason": report.reason,
                "payload": payload,
                "signature_checked": signature_checked,
                "history_seq": seq,
            }
            if pending.trace is not None:
                # Echo the request's trace identity so clients that sent
                # no context can still find their trace.
                response_body["trace"] = pending.trace.to_traceparent()
            if pending.want_receipt:
                receipt = self._issue_receipt(response_body, audit_entry)
                if receipt is not None:
                    response_body["receipt"] = receipt
            pending.future.set_result(
                protocol.ok_response(pending.request_id, response_body)
            )

    def _params_hash_for(self, family: str) -> str:
        """The receipt ``params_hash`` of a family (cached — published
        parameters are immutable for a server's lifetime)."""
        cached = self._params_hashes.get(family)
        if cached is None:
            from dataclasses import asdict

            record = self.registry.get_family(family)
            cached = self._params_hashes[family] = receipt_params_hash(
                record.family_id,
                record.model,
                calibration_to_dict(record.calibration),
                asdict(record.format),
            )
        return cached

    def _issue_receipt(
        self, body: dict, audit_entry: Optional[str]
    ) -> Optional[dict]:
        """Sign one verify result into a receipt, or degrade to None.

        ``audit_head`` is ``audit_entry``, the hash of the receipt's own
        ``verification.record`` entry, so a receipt is the same whether
        its verdict was recorded alone or in a group.  With history
        unrecorded (``audit_entry`` None) it falls back to the current
        chain head.  With no signer configured the verdict is served
        receipt-less — a missing key must never fail a verification
        (``docs/robustness.md``).
        """
        if self.receipt_signer is None:
            self.telemetry.count("service.receipts.unavailable")
            return None
        try:
            receipt = build_receipt(
                self.receipt_signer,
                family=body["family"],
                die_id=body["die_id"],
                decision=body["verdict"],
                statistic=body["statistic"],
                params_hash=self._params_hash_for(body["family"]),
                history_seq=body["history_seq"],
                audit_head=(
                    audit_entry
                    if audit_entry is not None
                    else self.registry.audit_head()
                ),
            )
        except (RegistryError, sqlite3.OperationalError):
            # A registry too degraded to surface its audit head cannot
            # anchor a receipt; the verdict still stands.
            self.telemetry.count("service.receipts.unavailable")
            return None
        self.telemetry.count("service.receipts.issued")
        return receipt

    def _record_group(self, records: List[dict]):
        """Record one group's verdicts in one registry transaction,
        riding out transient failures (``sqlite3.OperationalError:
        database is locked``).  Runs in the group's executor job.

        Retries the whole transaction with backoff; after the attempts
        are exhausted the verdicts are still served, just unrecorded
        (``history_seq: null``) — a degraded registry must never fail a
        verification the engine already completed.  Returns
        ``(written, retries, t0_unix, wall_s)``: ``written`` is
        :meth:`~WatermarkRegistry.record_verifications`' ``(seq,
        entry_hash)`` list, or None when degraded.  Counters are left to
        the event loop, which owns the telemetry.
        """
        t0_unix = time.time()
        t0 = time.perf_counter()
        written = None
        retries = 0
        delay = 0.005
        for attempt in range(3):
            try:
                written = self.registry.record_verifications(records)
                break
            except sqlite3.OperationalError:
                if attempt == 2:
                    break
                retries += 1
                time.sleep(delay)
                delay *= 4
        return written, retries, t0_unix, time.perf_counter() - t0

    # -- HTTP sidecar -----------------------------------------------------

    def health_report(self) -> HealthReport:
        """The ``/healthz`` payload as the shared
        :class:`~repro.service.health.HealthReport` model.

        The fleet router builds the same model for its own ``/healthz``
        and parses this one when probing shards — one schema, both
        roles.  With a monitor attached, ``status`` reflects the fleet:
        ok / degraded / alerting; liveness is still "we answered at
        all".
        """
        return self._health(
            queue_depth=self._queue.qsize(),
            registry=self.registry.counts(),
        )

    def _live_gauges(self) -> dict:
        return {
            "service.queue_depth": self._queue.qsize(),
            "service.max_queue_depth": self._max_queue_depth,
            "service.open_connections": self._open_connections,
        }

    # -- stats / manifest -------------------------------------------------

    def stats(self) -> dict:
        """Service counters for the ``stats`` op and the run manifest."""
        counters = self.telemetry.registry.snapshot()["counters"]
        service = {
            k: v for k, v in counters.items() if k.startswith("service.")
        }
        return {
            "wire_schema": protocol.WIRE_SCHEMA,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "max_queue_depth": self._max_queue_depth,
            "open_connections": self._open_connections,
            "monitoring": self.monitor is not None,
            "pow_difficulty": self.config.pow_difficulty,
            "receipts": self.receipt_signer is not None,
            "counters": service,
            "registry": self.registry.counts(),
        }
