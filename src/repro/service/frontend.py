"""The wire front end shared by the verification server and the fleet router.

A :class:`~repro.service.server.VerificationServer` and a
:class:`~repro.fleet.router.FleetRouter` look the same from outside: one
TCP port speaking ``flashmark.wire/v1`` frames, which also answers plain
HTTP ``GET /healthz`` and ``GET /metrics`` (told apart by sniffing the
first line).  :class:`WireFrontEnd` is that port, written once:

* binding and closing the socket (frames capped at
  :data:`~repro.service.protocol.MAX_FRAME_BYTES`), ``port`` /
  ``endpoint`` and ``async with``;
* the per-connection loop: an oversized frame answers ``400`` and the
  connection lives on, bad JSON answers ``400``, verify ops run as
  tasks that are gathered at EOF, and open connections are counted;
* the write-locked frame writer;
* the HTTP sidecar (``/healthz`` JSON, ``/metrics`` Prometheus text,
  ``404`` otherwise) and :func:`http_get`, the client that probes and
  scrapes it;
* finishing a verify request: the ``<ns>.latency_s`` histogram with its
  trace/receipt exemplar, the ``<role>.request`` span, and one
  :class:`~repro.monitor.VerificationEvent` whose outcome follows
  :func:`~repro.monitor.events.outcome_for`;
* the run manifest.

A role sets two names — ``_role`` (``server`` / ``router``: span names,
``/healthz`` role, error messages) and ``_ns`` (``service`` / ``fleet``:
counter namespace, manifest kind) — and adds only its own work.  The
server adds admission, micro-batching, the registry, receipts, the
``service.read`` / ``service.write`` fault points and its queue gauges;
the router adds routing, shard probing, upstream pooling, per-shard
labeled series and the fleet block in ``/healthz``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional, Sequence, Tuple

from ..telemetry import Telemetry, build_manifest
from ..telemetry.prometheus import render_prometheus
from . import protocol
from .endpoint import Endpoint
from .health import HealthReport, engine_counters

__all__ = ["WireFrontEnd", "http_get"]


async def http_get(
    endpoint: Endpoint, path: str, timeout_s: Optional[float] = None
) -> Tuple[int, str]:
    """One ``GET`` against a front end's HTTP sidecar.

    Sends ``Connection: close`` and reads to EOF; returns
    ``(status, body)``.  ``timeout_s`` bounds the connect and the read
    each (None: unbounded, for callers that bound the whole exchange).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(endpoint.host, endpoint.port), timeout_s
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {endpoint.host}:{endpoint.port}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) > 1 else 0
    return status, body.decode("utf-8", "replace")


class WireFrontEnd:
    """One ``flashmark.wire/v1`` + HTTP port; subclass per role.

    A role implements:

    * ``_accept_verify(req, writer, write_lock)`` — the coroutine that
      serves a verify frame (run as a task), or a response dict to
      answer at once;
    * ``async _handle_query(op, request_id, req)`` — every other op;
    * ``health_report()`` (``/healthz``, usually via :meth:`_health`),
      ``stats()`` (``stats`` op, manifest) and ``_live_gauges()``
      (extra ``/metrics`` gauges);

    and may override the fault seams :meth:`_inject_read` /
    :meth:`_inject_write`.
    """

    #: ``server`` / ``router``: span prefix, ``/healthz`` role, errors.
    _role: str
    #: ``service`` / ``fleet``: counter namespace and manifest kind.
    _ns: str
    #: Buckets of ``<ns>.latency_s`` (None: the registry default).
    _latency_buckets: Optional[Sequence[float]] = None

    def __init__(self, config, telemetry: Optional[Telemetry], monitor):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.monitor = None
        if self.config.monitoring:
            if monitor is None:
                # Imported lazily: repro/__init__ imports .service, so a
                # module-scope import of repro.monitor here would cycle.
                from ..monitor import FleetMonitor

                monitor = FleetMonitor(telemetry=self.telemetry)
            self.monitor = monitor
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at: Optional[float] = None
        self._open_connections = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (a role then starts its background work)."""
        if self._server is not None:
            raise RuntimeError(f"{self._role} already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_stream,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self._started_at = self._loop.time()

    async def stop(self) -> None:
        """Stop accepting connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError(f"{self._role} not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def endpoint(self) -> Endpoint:
        """The bound address as an :class:`Endpoint` — the value every
        client entry point accepts directly."""
        return Endpoint(self.config.host, self.port)

    # -- connection handling ----------------------------------------------

    async def _read_frame(self, frames, writer, write_lock) -> bytes:
        """One guarded frame read: the size cap is enforced while
        reading, and an oversized frame answers ``400`` instead of
        killing the connection (the reader drains it, so framing
        survives).  Returns ``b"\\n"`` after a rejected frame so the
        caller's loop keeps serving."""
        try:
            return await frames.read_frame()
        except protocol.FrameTooLarge as exc:
            await self._reject(writer, write_lock, "oversized", exc)
            return b"\n"

    async def _reject(self, writer, write_lock, why: str, exc) -> None:
        """Answer an unreadable frame with ``400`` (no request id)."""
        self.telemetry.count(f"{self._ns}.rejected.{why}")
        await self._write_frame(
            writer,
            write_lock,
            protocol.error_response(None, protocol.BAD_REQUEST, str(exc)),
        )

    async def _handle_stream(self, reader, writer) -> None:
        self._open_connections += 1
        self.telemetry.count(f"{self._ns}.connections")
        write_lock = asyncio.Lock()
        tasks: set = set()
        frames = protocol.FrameReader(reader)
        try:
            first = await self._read_frame(frames, writer, write_lock)
            if first.split(b" ", 1)[0] in (b"GET", b"HEAD"):
                await self._handle_http(first, frames, writer)
                return
            line = first
            while line:
                stripped = line.strip()
                if stripped:
                    severed = await self._dispatch_line(
                        stripped, writer, write_lock, tasks
                    )
                    if severed:
                        break
                line = await self._read_frame(frames, writer, write_lock)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_line(
        self, line: bytes, writer, write_lock, tasks: set
    ) -> bool:
        """Handle one frame; returns True when the connection must be
        severed (injected transport fault)."""
        line = self._inject_read(line)
        if line is None:
            return True
        if not line:
            return False
        try:
            req = protocol.decode_frame(line)
        except protocol.ProtocolError as exc:
            await self._reject(writer, write_lock, "bad_request", exc)
            return False
        self.telemetry.count(f"{self._ns}.requests")
        op = req.get("op")
        if op == "verify":
            work = self._accept_verify(req, writer, write_lock)
            if isinstance(work, dict):  # answered at once
                await self._write_frame(writer, write_lock, work)
                return False
            task = self._loop.create_task(work)
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            return False
        response = await self._handle_query(op, req.get("id"), req)
        await self._write_frame(writer, write_lock, response)
        return False

    def _inject_read(self, line: bytes) -> Optional[bytes]:
        """Fault seam on each frame read: the frame to handle, or None
        to sever the connection."""
        return line

    def _inject_write(self, writer) -> Optional[float]:
        """Fault seam on each frame write: seconds to stall first, or
        None when the write was aborted."""
        return 0.0

    async def _write_frame(self, writer, write_lock, obj: dict) -> None:
        async with write_lock:
            stall = self._inject_write(writer)
            if stall is None:
                return
            if stall:
                await asyncio.sleep(stall)
            writer.write(protocol.encode_frame(obj))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- finishing a request ----------------------------------------------

    def _finish_request(
        self,
        response: dict,
        latency: float,
        *,
        ctx,
        t0_unix: float,
        family,
        client,
        attrs: dict,
        labels: Optional[dict] = None,
    ) -> None:
        """Book one answered verify request: the latency histogram, the
        monitor event and (traced) the ``<role>.request`` span.

        ``labels`` ride on the exemplar between the trace id and the
        receipt id.
        """
        exemplar = None
        if ctx is not None:
            # The slowest observation per bucket keeps a pointer to its
            # concrete trace (and signed receipt, when one was issued),
            # so a p99 bucket in /metrics resolves to a real request.
            exemplar = {"trace_id": ctx.trace_id}
            if labels:
                exemplar.update(labels)
            receipt = (response.get("result") or {}).get("receipt")
            if isinstance(receipt, dict) and receipt.get("sig"):
                exemplar["receipt_id"] = str(receipt["sig"])[:16]
        self.telemetry.observe(
            f"{self._ns}.latency_s",
            latency,
            buckets=self._latency_buckets,
            exemplar=exemplar,
        )
        self._record_event(
            response, family=family, client=client, latency_s=latency
        )
        if ctx is not None:
            error = None
            if not response.get("ok", False):
                error = str(
                    (response.get("error") or {}).get("code", "error")
                )
            self.telemetry.record_span(
                f"{self._role}.request",
                latency,
                t0_unix_s=t0_unix,
                ctx=ctx,
                attrs=attrs,
                error=error,
            )

    def _record_event(
        self, response: dict, *, family, client, latency_s=None
    ) -> None:
        """Feed one response to the fleet monitor."""
        if self.monitor is None:
            return
        from ..monitor.events import (
            OUTCOME_OK,
            VerificationEvent,
            outcome_for,
        )

        ok = response.get("ok", False)
        code = None if ok else (response.get("error") or {}).get("code")
        result = response.get("result") or {}  # absent on errors
        self.monitor.record(
            VerificationEvent(
                family=family if isinstance(family, str) else "",
                outcome=OUTCOME_OK if ok else outcome_for(code),
                verdict=result.get("verdict"),
                statistic=result.get("statistic"),
                latency_s=latency_s,
                registry_seq=result.get("history_seq"),
                error_code=code,
                client=client if isinstance(client, str) else None,
                unix_s=time.time(),
            )
        )

    # -- HTTP sidecar -----------------------------------------------------

    async def _handle_http(self, first_line, frames, writer) -> None:
        try:
            while True:  # drain headers
                header = await frames.read_frame()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = first_line.decode("latin-1").split()
            path = parts[1] if len(parts) > 1 else "/"
            if path == "/healthz":
                body = json.dumps(
                    self.health_report().to_dict()
                ).encode()
                content_type = "application/json"
                status = "200 OK"
            elif path == "/metrics":
                body = self._render_metrics().encode()
                content_type = "text/plain; version=0.0.4"
                status = "200 OK"
            else:
                body = b"not found\n"
                content_type = "text/plain"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _render_metrics(self) -> str:
        """Prometheus text exposition of the telemetry registry.

        Everything the registry holds is exposed — the role's counters
        and histograms, but also absorbed engine counters, fault
        injection counters (``faults.injected.*``) and
        ``telemetry.sink.rotations`` — normalized through
        :func:`repro.telemetry.prometheus.metric_name`, followed by the
        role's live gauges and the monitor's.
        """
        gauges = self._live_gauges()
        if self.monitor is not None:
            gauges.update(self.monitor.gauges())
        return render_prometheus(
            self.telemetry.registry.snapshot(), extra_gauges=gauges
        )

    def _health(
        self, *, queue_depth: int, registry: dict, status=None, fleet=None
    ) -> HealthReport:
        """A :class:`HealthReport` for this role; ``status`` defaults to
        the monitor's (``ok`` without one)."""
        from .. import __version__

        if status is None:
            status = (
                self.monitor.status() if self.monitor is not None else "ok"
            )
        counters = self.telemetry.registry.snapshot()["counters"]
        return HealthReport(
            status=status,
            version=__version__,
            role=self._role,
            uptime_s=(
                self._loop.time() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            queue_depth=queue_depth,
            registry=registry,
            engine=engine_counters(counters),
            monitor=(
                self.monitor.healthz_block()
                if self.monitor is not None
                else None
            ),
            fleet=fleet,
        )

    # -- manifest ---------------------------------------------------------

    def build_manifest(self) -> dict:
        """Run manifest of this session (``kind`` is the counter
        namespace: ``service`` or ``fleet``)."""
        from dataclasses import asdict

        return build_manifest(
            self.telemetry,
            kind=self._ns,
            parameters=asdict(self.config),
            seeds={},
            extra={self._ns: self.stats()},
        )
