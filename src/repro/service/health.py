"""Shared ``/healthz`` schema (``flashmark.health/v1``).

Both the single :class:`~repro.service.server.VerificationServer` and
the fleet router answer HTTP ``GET /healthz`` on their wire port.
Before the fleet, the payload was an ad-hoc dict built inline by the
server; the router's eviction probe and ``repro monitor watch`` would
each have needed their own parser for their own shape.
:class:`HealthReport` is the one model both sides build and both
consumers parse.

Payload::

    {"schema": "flashmark.health/v1",
     "role": "server" | "router",
     "status": "ok" | "degraded" | "alerting",
     "version": "2.0.0",
     "uptime_s": 12.3,
     "queue_depth": 0,
     "registry": {"families": 1, "verifications": 40, "audit_entries": 41},
     "engine": {"service.errors": 0, ...},        # engine-health counters
     "monitor": {...},                            # FleetMonitor block
     "fleet": {"shards": [...], ...}}             # router only
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "HEALTH_SCHEMA",
    "ENGINE_COUNTER_PREFIXES",
    "HealthReport",
    "engine_counters",
]

HEALTH_SCHEMA = "flashmark.health/v1"

#: Telemetry counters that make up the ``engine`` health block: the
#: signals that say the verification *pipeline* (not the socket) is
#: sick.  ``engine.hung_skips`` marks a wedged worker pool,
#: ``service.errors*`` failed verifications, ``service.registry_retries``
#: a struggling history store.  The router's eviction policy watches
#: these deltas alongside reachability.
ENGINE_COUNTER_PREFIXES = (
    "service.errors",
    "service.registry_retries",
    "service.batch.engine.",
    "engine.hung_skips",
)

#: Statuses that still count as servable for routing purposes.
_SERVABLE = ("ok", "degraded")


@dataclass
class HealthReport:
    """One parsed (or to-be-served) ``/healthz`` payload."""

    status: str = "ok"
    version: str = ""
    role: str = "server"
    uptime_s: float = 0.0
    queue_depth: int = 0
    #: Registry row counts (families / verifications / audit_entries).
    registry: Dict[str, int] = field(default_factory=dict)
    #: Engine-health counters (see :data:`ENGINE_COUNTER_PREFIXES`).
    engine: Dict[str, float] = field(default_factory=dict)
    #: Fleet-monitor block (:meth:`repro.monitor.FleetMonitor
    #: .healthz_block`), when monitoring is on.
    monitor: Optional[dict] = None
    #: Router-only: shard map summary.
    fleet: Optional[dict] = None

    @property
    def servable(self) -> bool:
        """Whether a router may keep routing to this endpoint.

        ``degraded`` still serves (alerts cleared but windows warm);
        ``alerting`` is a policy decision left to the caller.
        """
        return self.status in _SERVABLE

    def to_dict(self) -> dict:
        payload: dict = {
            "schema": HEALTH_SCHEMA,
            "role": self.role,
            "status": self.status,
            "version": self.version,
            "uptime_s": round(float(self.uptime_s), 3),
            "queue_depth": int(self.queue_depth),
            "registry": dict(self.registry),
            "engine": dict(self.engine),
        }
        if self.monitor is not None:
            payload["monitor"] = self.monitor
        if self.fleet is not None:
            payload["fleet"] = self.fleet
        return payload

    @classmethod
    def from_dict(cls, raw: dict) -> "HealthReport":
        """Parse a payload; raises ``ValueError`` when it is not an
        object or lacks the ``registry`` object."""
        if not isinstance(raw, dict):
            raise ValueError(f"healthz payload is not an object: {raw!r}")
        registry = raw.get("registry")
        if not isinstance(registry, dict):
            raise ValueError("healthz payload has no 'registry' object")
        engine = raw.get("engine")
        return cls(
            status=str(raw.get("status", "ok")),
            version=str(raw.get("version", "")),
            role=str(raw.get("role", "server")),
            uptime_s=float(raw.get("uptime_s", 0.0)),
            queue_depth=int(raw.get("queue_depth", 0)),
            registry={str(k): int(v) for k, v in registry.items()},
            engine=(
                {str(k): float(v) for k, v in engine.items()}
                if isinstance(engine, dict)
                else {}
            ),
            monitor=(
                raw.get("monitor")
                if isinstance(raw.get("monitor"), dict)
                else None
            ),
            fleet=(
                raw.get("fleet")
                if isinstance(raw.get("fleet"), dict)
                else None
            ),
        )


def engine_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """Filter a telemetry counter snapshot down to the engine-health
    block served in ``/healthz``."""
    picked: Dict[str, float] = {}
    for name, value in counters.items():
        for prefix in ENGINE_COUNTER_PREFIXES:
            if name == prefix.rstrip(".") or name.startswith(prefix):
                picked[name] = value
                break
    return picked
