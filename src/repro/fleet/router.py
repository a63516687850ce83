"""FleetRouter: one wire endpoint in front of N verification shards.

The router speaks ``flashmark.wire/v1`` on both sides: downstream it
*is* a server's front end — the same
:class:`~repro.service.frontend.WireFrontEnd` owns its socket, frame
loop, error frames, HTTP ``/healthz`` + ``/metrics`` sidecar and
request bookkeeping, so the two cannot drift — and upstream it is an
ordinary client of each shard.  This module adds only the router's own
work: routing, shard probing, upstream pooling, the per-shard labeled
series and the fleet block in ``/healthz``.

A verify request is consistent-hashed on ``(family, die_id)`` from its
header (:mod:`repro.fleet.hashing`) to its owner shard.  The router
rewrites only the header's ``trace`` and relays the body — a binary
frame's raw chip bytes — upstream as the object the frame reader cut:
it never decodes, copies or re-encodes it (a JSON request of an earlier
client is relayed as a JSON line).  A verify request without
``die_id`` answers ``400``.  If the owner is
evicted or the forward fails, the request walks the ring to the next
healthy shard — bounded by ``retry_shards`` — and only then surfaces a
``503``.

Health-based eviction: a background probe fetches each shard's
``/healthz`` (the shared :class:`~repro.service.health.HealthReport`
schema) every ``probe_interval_s``.  A shard is *evicted* after
``evict_after`` consecutive failures — unreachable, un-parseable, a
growing ``engine.hung_skips`` counter (a wedged worker pool answers
HTTP fine while serving nothing), or ``status: alerting`` when
``evict_on_alerting`` is set — and *readmitted* after ``readmit_after``
consecutive healthy probes.  Forward failures feed the same counters,
so a crashed shard stops receiving traffic at the next request, not
the next probe tick.

Observability rides through: a request-carried traceparent is
re-parented onto a ``router.request`` span whose child context is
forwarded upstream, so one distributed trace covers client → router →
shard → engine worker.  Relayed outcomes feed the router's own
:class:`~repro.monitor.FleetMonitor`, making ``repro monitor watch``
against the router a whole-fleet dashboard.

Chaos seams: ``fault_point("fleet.shard_kill")`` fires on the verify
forward path (kind ``drop`` hard-kills the owner shard mid-traffic,
``error`` injects a routing fault) and
``fault_point("fleet.shard_rejoin")`` fires on each probe tick (kind
``drop`` restarts a killed shard, ``error`` aborts the probe round) —
the harness :mod:`repro.fleet.soak` arms them to prove the fleet
degrades but never wedges.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import operator
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..faults import InjectedFault, fault_point
from ..telemetry import Telemetry
from ..telemetry.prometheus import render_labeled
from ..trace.context import TraceContext, parse_traceparent
from ..service import protocol
from ..service.client import VerificationClient
from ..service.frontend import WireFrontEnd, http_get
from ..service.health import HealthReport
from .hashing import DEFAULT_REPLICAS, HashRing, routing_key

__all__ = ["RouterConfig", "FleetRouter"]

#: What a failed exchange with a shard raises (the shard, not the
#: request, is at fault: count it against the shard's health).
_FORWARD_ERRORS = (
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    protocol.ProtocolError,
)


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of a :class:`FleetRouter`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``router.port``).
    port: int = 0
    #: Virtual nodes per shard on the hash ring.
    ring_replicas: int = DEFAULT_REPLICAS
    #: Seconds between health-probe rounds.
    probe_interval_s: float = 0.5
    #: Run the background probe task.  The chaos soak turns this off
    #: and drives :meth:`FleetRouter.probe_once` itself, so the
    #: ``fleet.shard_rejoin`` seam advances deterministically with the
    #: request stream instead of a wall-clock timer.
    auto_probe: bool = True
    #: Consecutive probe/forward failures before eviction.
    evict_after: int = 2
    #: Consecutive healthy probes before readmission.
    readmit_after: int = 2
    #: Treat a shard whose monitor went ``alerting`` as failing.
    evict_on_alerting: bool = False
    #: Additional ring-walk shards tried after the owner fails; the
    #: request 503s only once 1 + retry_shards attempts are exhausted.
    retry_shards: int = 1
    #: Pooled upstream connections kept per shard.
    connections_per_shard: int = 8
    #: Upstream dial / per-forward / probe timeouts [s].
    dial_timeout_s: float = 5.0
    forward_timeout_s: float = 30.0
    probe_timeout_s: float = 3.0
    #: Record ``router.request`` spans and propagate child contexts.
    tracing: bool = True
    #: Feed relayed outcomes to a fleet monitor (the ``monitor`` op).
    monitoring: bool = True


class _ShardLink:
    """The router's view of one shard: health counters + connection pool."""

    __slots__ = (
        "shard_id",
        "consecutive_failures",
        "consecutive_successes",
        "evicted",
        "evictions",
        "readmissions",
        "last_status",
        "last_error",
        "last_engine",
        "last_registry",
        "pool",
    )

    def __init__(self, shard_id: str):
        self.shard_id = shard_id
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.evicted = False
        self.evictions = 0
        self.readmissions = 0
        self.last_status: Optional[str] = None
        self.last_error: Optional[str] = None
        self.last_engine: Dict[str, float] = {}
        self.last_registry: Dict[str, int] = {}
        self.pool: List = []  # (VerificationClient, Endpoint) stack

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "evicted": self.evicted,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_successes": self.consecutive_successes,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "last_status": self.last_status,
            "last_error": self.last_error,
        }


class FleetRouter(WireFrontEnd):
    """Route ``flashmark.wire/v1`` traffic across a shard set.

    Parameters
    ----------
    shards:
        A shard manager/set from :mod:`repro.fleet.shards` — anything
        with ``shard_ids()`` / ``endpoint()`` / ``alive()`` (and, for
        the chaos seams, ``kill()`` / ``rejoin()``).
    config:
        Routing, eviction and timeout tunables.
    telemetry:
        Receives ``fleet.*`` counters and ``router.request`` spans.
    monitor:
        A pre-built :class:`~repro.monitor.FleetMonitor`; with
        ``config.monitoring`` on and none given, a default one is
        built sharing the router's telemetry.
    """

    _role = "router"
    _ns = "fleet"

    def __init__(
        self,
        shards,
        *,
        config: Optional[RouterConfig] = None,
        telemetry: Optional[Telemetry] = None,
        monitor=None,
    ):
        super().__init__(
            config if config is not None else RouterConfig(),
            telemetry,
            monitor,
        )
        self.shards = shards
        self.ring = HashRing(
            shards.shard_ids(), replicas=self.config.ring_replicas
        )
        self._links: Dict[str, _ShardLink] = {
            shard_id: _ShardLink(shard_id)
            for shard_id in shards.shard_ids()
        }
        self._prober: Optional[asyncio.Task] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.config.auto_probe:
            self._prober = self._loop.create_task(self._probe_loop())
        self.telemetry.count("fleet.router_starts")

    async def stop(self) -> None:
        await super().stop()
        if self._prober is not None:
            self._prober.cancel()
            try:
                await self._prober
            except asyncio.CancelledError:
                pass
            self._prober = None
        for link in self._links.values():
            while link.pool:
                client, _ = link.pool.pop()
                await client.close()

    # -- shard health -----------------------------------------------------

    def routable(self, shard_id: str) -> bool:
        """Whether the router will currently send traffic to a shard."""
        link = self._links[shard_id]
        return (
            not link.evicted
            and self.shards.alive(shard_id)
            and self.shards.endpoint(shard_id) is not None
        )

    def _note_failure(self, shard_id: str, error: str) -> None:
        link = self._links[shard_id]
        link.consecutive_failures += 1
        link.consecutive_successes = 0
        link.last_error = error
        if (
            not link.evicted
            and link.consecutive_failures >= self.config.evict_after
        ):
            link.evicted = True
            link.evictions += 1
            self.telemetry.count("fleet.evictions")
            self.telemetry.count(f"fleet.evictions.{shard_id}")

    def _note_success(self, shard_id: str) -> None:
        link = self._links[shard_id]
        link.consecutive_successes += 1
        link.consecutive_failures = 0
        link.last_error = None
        if (
            link.evicted
            and link.consecutive_successes >= self.config.readmit_after
        ):
            link.evicted = False
            link.readmissions += 1
            self.telemetry.count("fleet.readmissions")
            self.telemetry.count(f"fleet.readmissions.{shard_id}")

    async def probe_once(self) -> None:
        """Run one health-probe round now (the ``auto_probe=False``
        driving mode)."""
        await self._probe_round()

    async def _probe_loop(self) -> None:
        while True:
            try:
                await self._probe_round()
            except asyncio.CancelledError:
                raise
            except Exception:
                # The prober must never die; a broken round is one
                # missed health sample, not a dead fleet.
                self.telemetry.count("fleet.probe_rounds_failed")
            await asyncio.sleep(self.config.probe_interval_s)

    async def _probe_round(self) -> None:
        # Chaos seam: "drop" restarts the first down shard (the rejoin
        # half of the kill/rejoin cycle), "error" aborts this round —
        # readmission is delayed, surfaced as a counted probe abort.
        try:
            action = fault_point("fleet.shard_rejoin")
        except InjectedFault:
            self.telemetry.count("fleet.probe_aborts")
            return
        if action is not None and action.kind == "drop":
            await self._chaos_rejoin()
        self.telemetry.count("fleet.probe_rounds")
        await asyncio.gather(
            *(self._probe_shard(s) for s in self.shards.shard_ids())
        )

    async def _probe_shard(self, shard_id: str) -> None:
        endpoint = self.shards.endpoint(shard_id)
        if endpoint is None or not self.shards.alive(shard_id):
            self._note_failure(shard_id, "shard process down")
            self._links[shard_id].last_status = None
            return
        try:
            status, body = await asyncio.wait_for(
                http_get(endpoint, "/healthz"),
                timeout=self.config.probe_timeout_s,
            )
            if status != 200:
                raise ValueError(f"healthz answered {status}")
            report = HealthReport.from_dict(json.loads(body))
        except (
            OSError,
            asyncio.TimeoutError,
            ValueError,
            ConnectionError,
        ) as exc:
            self._note_failure(shard_id, f"healthz probe failed: {exc}")
            return
        link = self._links[shard_id]
        link.last_status = report.status
        link.last_registry = dict(report.registry)
        hung_now = sum(
            v
            for k, v in report.engine.items()
            if k.endswith("hung_skips")
        )
        hung_before = sum(
            v
            for k, v in link.last_engine.items()
            if k.endswith("hung_skips")
        )
        link.last_engine = dict(report.engine)
        if hung_now > hung_before:
            self._note_failure(
                shard_id,
                f"engine hung_skips grew to {hung_now:g} "
                "(wedged worker pool)",
            )
            return
        if report.status == "alerting" and self.config.evict_on_alerting:
            self._note_failure(shard_id, "shard monitor is alerting")
            return
        self._note_success(shard_id)

    async def _chaos_kill(self, shard_id: str) -> None:
        """Hard-kill a shard through its manager (chaos seam)."""
        self.telemetry.count("fleet.chaos_kills")
        result = self.shards.kill(shard_id)
        if inspect.isawaitable(result):
            await result

    async def _chaos_rejoin(self) -> None:
        """Restart the first down shard, if any (chaos seam)."""
        for shard_id in self.shards.shard_ids():
            if not self.shards.alive(shard_id):
                self.telemetry.count("fleet.chaos_rejoins")
                result = self.shards.rejoin(shard_id)
                if inspect.isawaitable(result):
                    await result
                return

    # -- upstream connection pool -----------------------------------------

    async def _lease(self, shard_id: str):
        endpoint = self.shards.endpoint(shard_id)
        if endpoint is None:
            raise ConnectionError(f"shard {shard_id} has no endpoint")
        link = self._links[shard_id]
        while link.pool:
            client, pooled_endpoint = link.pool.pop()
            if pooled_endpoint == endpoint:
                return client, endpoint
            await client.close()  # stale: shard rejoined elsewhere
        client = await asyncio.wait_for(
            VerificationClient.connect(endpoint),
            timeout=self.config.dial_timeout_s,
        )
        return client, endpoint

    async def _release(self, shard_id: str, client, endpoint) -> None:
        link = self._links[shard_id]
        if len(link.pool) < self.config.connections_per_shard:
            link.pool.append((client, endpoint))
        else:
            await client.close()

    async def _forward(self, shard_id: str, req: dict) -> dict:
        """One request/response exchange with a shard; the connection
        returns to the pool only on success."""
        client, endpoint = await self._lease(shard_id)
        try:
            resp = await asyncio.wait_for(
                client.request(req),
                timeout=self.config.forward_timeout_s,
            )
        except BaseException:
            await client.close()
            raise
        await self._release(shard_id, client, endpoint)
        return resp

    # -- verify routing ----------------------------------------------------

    async def _accept_verify(self, req: dict, writer, write_lock) -> None:
        """Route one verify request and relay the shard's answer."""
        t0 = self._loop.time()
        t0_unix = time.time()
        ctx = None
        # A shallow copy: only the header's trace changes, and the body
        # bytes go upstream as the very object the frame reader cut.
        upstream = dict(req)
        if self.config.tracing:
            parsed = parse_traceparent(req.get("trace"))
            ctx = (
                parsed.child() if parsed is not None
                else TraceContext.new_root()
            )
            upstream["trace"] = ctx.to_traceparent()
        response, shard_id = await self._route_verify(
            upstream, req.get("id")
        )
        self._finish_request(
            response,
            self._loop.time() - t0,
            ctx=ctx,
            t0_unix=t0_unix,
            family=req.get("family"),
            client=req.get("client"),
            attrs={"shard": shard_id, "family": req.get("family")},
            # The exemplar also names the shard that served the relay.
            labels={"shard": str(shard_id)} if shard_id else None,
        )
        await self._write_frame(writer, write_lock, response)

    async def _route_verify(self, req: dict, request_id: Any):
        """Pick the owner shard, forward with bounded ring-walk retry;
        returns ``(response, shard_id_or_None)``."""
        family, die_id = req.get("family"), req.get("die_id")
        for name, value in (("family", family), ("die_id", die_id)):
            if not isinstance(value, str) or not value:
                self.telemetry.count("fleet.rejected.bad_request")
                return (
                    protocol.error_response(
                        request_id,
                        protocol.BAD_REQUEST,
                        f"verify request is missing {name!r}",
                    ),
                    None,
                )
        candidates = self.ring.candidates(routing_key(family, die_id))
        # Chaos seam: "drop" hard-kills the request's owner shard just
        # before the forward — the crash-mid-traffic scenario; "error"
        # injects a routing failure, surfaced as a typed 503.
        try:
            action = fault_point("fleet.shard_kill")
        except InjectedFault as exc:
            self.telemetry.count("fleet.injected_route_errors")
            return (
                protocol.error_response(
                    request_id,
                    protocol.SERVICE_UNAVAILABLE,
                    f"injected routing fault: {exc}",
                ),
                None,
            )
        if action is not None and action.kind == "drop":
            victim = next(
                (s for s in candidates if self.routable(s)),
                candidates[0],
            )
            await self._chaos_kill(victim)
        attempts = [s for s in candidates if self.routable(s)]
        attempts = attempts[: 1 + max(0, self.config.retry_shards)]
        last_error: Optional[str] = None
        for n, shard_id in enumerate(attempts):
            try:
                response = await self._forward(shard_id, req)
            except _FORWARD_ERRORS as exc:
                last_error = f"{shard_id}: {exc or type(exc).__name__}"
                self.telemetry.count("fleet.forward_failures")
                self._note_failure(shard_id, str(exc) or repr(exc))
                continue
            self._note_success(shard_id)
            self.telemetry.count("fleet.forwarded")
            if n > 0:
                self.telemetry.count("fleet.rerouted")
            return response, shard_id
        self.telemetry.count("fleet.rejected.unavailable")
        detail = (
            f"no healthy shard for family {family!r} "
            f"({len(attempts)} of {len(candidates)} tried"
            + (f"; last error: {last_error}" if last_error else "")
            + ")"
        )
        return (
            protocol.error_response(
                request_id, protocol.SERVICE_UNAVAILABLE, detail
            ),
            None,
        )

    # -- queries -----------------------------------------------------------

    async def _handle_query(self, op, request_id, req: dict) -> dict:
        if op == "ping":
            return protocol.ok_response(
                request_id, {"pong": True, "role": "router"}
            )
        if op == "topology":
            return protocol.ok_response(request_id, self.topology())
        if op == "stats":
            return protocol.ok_response(request_id, self.stats())
        if op == "monitor":
            if self.monitor is None:
                return protocol.error_response(
                    request_id,
                    protocol.BAD_REQUEST,
                    "monitoring is disabled on this router",
                )
            snapshot = self.monitor.snapshot()
            snapshot["fleet"] = self._fleet_block()
            return protocol.ok_response(request_id, snapshot)
        if op == "families":
            return await self._relay_query(request_id, req)
        if op == "history":
            return await self._merged_history(request_id, req)
        return protocol.error_response(
            request_id, protocol.BAD_REQUEST, f"unknown op {op!r}"
        )

    async def _relay_query(self, request_id, req: dict) -> dict:
        """Forward a query to the first routable shard."""
        for shard_id in self.shards.shard_ids():
            if not self.routable(shard_id):
                continue
            try:
                return await self._forward(shard_id, req)
            except _FORWARD_ERRORS as exc:
                self._note_failure(shard_id, str(exc) or repr(exc))
        return protocol.error_response(
            request_id,
            protocol.SERVICE_UNAVAILABLE,
            "no healthy shard to answer the query",
        )

    async def _merged_history(self, request_id, req: dict) -> dict:
        """Fan a history query out to every routable shard and merge
        newest-first — each die's records live on one shard, so the
        union is the fleet's history."""
        limit = int(req.get("limit", 20))
        merged: List[dict] = []
        answered = 0
        for shard_id in self.shards.shard_ids():
            if not self.routable(shard_id):
                continue
            try:
                resp = await self._forward(shard_id, req)
            except _FORWARD_ERRORS as exc:
                self._note_failure(shard_id, str(exc) or repr(exc))
                continue
            if not resp.get("ok", False):
                return resp
            answered += 1
            for record in (resp.get("result") or {}).get("history", []):
                record = dict(record)
                record["shard"] = shard_id
                merged.append(record)
        if answered == 0:
            return protocol.error_response(
                request_id,
                protocol.SERVICE_UNAVAILABLE,
                "no healthy shard to answer the query",
            )
        merged.sort(
            key=lambda r: (r.get("created_unix_s", 0), r.get("seq", 0)),
            reverse=True,
        )
        return protocol.ok_response(
            request_id, {"history": merged[:limit]}
        )

    # -- introspection -----------------------------------------------------

    def _fleet_block(self) -> dict:
        shards = []
        for info in self.shards.infos():
            entry = info.to_dict()
            entry.update(self._links[info.shard_id].to_dict())
            entry["routable"] = self.routable(info.shard_id)
            shards.append(entry)
        return {
            "shards": shards,
            "n_shards": len(shards),
            "routable": sum(1 for s in shards if s["routable"]),
            "evicted": sum(1 for s in shards if s["evicted"]),
            "ring_replicas": self.ring.replicas,
        }

    def topology(self) -> dict:
        """The shard map the ``topology`` wire op serves."""
        return {
            "role": "router",
            "wire_schema": protocol.WIRE_SCHEMA,
            "endpoint": (
                str(self.endpoint) if self._server is not None else None
            ),
            **self._fleet_block(),
        }

    def stats(self) -> dict:
        counters = self.telemetry.registry.snapshot()["counters"]
        fleet = {
            k: v for k, v in counters.items() if k.startswith("fleet.")
        }
        return {
            "wire_schema": protocol.WIRE_SCHEMA,
            "role": "router",
            "open_connections": self._open_connections,
            "monitoring": self.monitor is not None,
            "counters": fleet,
            "fleet": self._fleet_block(),
        }

    def health_report(self) -> HealthReport:
        """The router's ``/healthz`` in the shared schema.

        ``status`` degrades with the shard map: no routable shard is
        ``alerting`` (the fleet serves nothing), a partial fleet is
        ``degraded``; otherwise the router's own monitor status (or
        ``ok``).  The registry block sizes the whole fleet from what
        each shard last reported: ``families`` is the largest count
        (every shard holds every family), while ``verifications`` and
        ``audit_entries`` sum the rows each shard stores.
        """
        fleet = self._fleet_block()
        status = None  # the monitor's, or ok
        if fleet["routable"] == 0:
            status = "alerting"
        elif fleet["routable"] < fleet["n_shards"]:
            status = "degraded"
        totals: Dict[str, int] = {}
        for link in self._links.values():
            for key, value in link.last_registry.items():
                merge = max if key == "families" else operator.add
                totals[key] = merge(totals.get(key, 0), int(value))
        return self._health(
            queue_depth=0, registry=totals, status=status, fleet=fleet
        )

    # -- HTTP sidecar ------------------------------------------------------

    def _live_gauges(self) -> dict:
        return {
            "fleet.open_connections": self._open_connections,
            "fleet.routable_shards": self._fleet_block()["routable"],
        }

    def _render_metrics(self) -> str:
        text = super()._render_metrics()
        # Per-shard lifecycle counters, labeled — the scraped form a
        # fleet dashboard can ``sum by (shard)``.
        for name, attr in (
            ("fleet.evictions.total", "evictions"),
            ("fleet.readmissions.total", "readmissions"),
        ):
            text += "".join(
                line + "\n"
                for line in render_labeled(
                    name,
                    [
                        ({"shard": link.shard_id}, getattr(link, attr))
                        for link in self._links.values()
                    ],
                )
            )
        return text
