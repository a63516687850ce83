"""repro.fleet — horizontal scale-out of the verification service.

One :class:`FleetRouter` fronts N :class:`~repro.service.server.VerificationServer`
shards, each over its own SQLite registry.  Requests consistent-hash
on ``(family, die)`` (:class:`HashRing`), so every die's verification
history accumulates on exactly one shard; the router health-probes
each shard's ``/healthz`` (the shared
:class:`~repro.service.health.HealthReport` schema) and evicts /
readmits shards as they fail and recover, re-routing around the hole
with a bounded ring walk before answering ``503``.
:func:`reconcile_fleet` stitches the independent per-shard audit
chains back into one tamper-evident ``flashmark.fleet-audit/v1`` view.

Quick start::

    import asyncio, tempfile
    from repro.fleet import (
        FleetRouter, InProcessShardManager, RouterConfig,
    )
    from repro.service import LoadClient, WatermarkRegistry

    async def main():
        registry = WatermarkRegistry("registry.db")
        with tempfile.TemporaryDirectory() as tmp:
            async with InProcessShardManager(registry, 4, tmp) as shards:
                async with FleetRouter(shards) as router:
                    load = LoadClient(router.endpoint, "msp430")
                    print(await load.run_closed_loop(100, concurrency=8))

    asyncio.run(main())

``python -m repro fleet up|soak|topology`` wraps the same objects for
the shell (subprocess shards via :class:`ProcessShardManager`); the
parity/chaos harness lives in :func:`run_fleet_soak`.  See
``docs/service.md`` for the topology, eviction lifecycle and audit
reconcile semantics.
"""

from .hashing import DEFAULT_REPLICAS, HashRing, routing_key
from .reconcile import (
    FLEET_AUDIT_SCHEMA,
    check_fleet_anchors,
    fleet_digest,
    reconcile_fleet,
    write_fleet_audit,
)
from .router import FleetRouter, RouterConfig
from .shards import (
    FleetError,
    InProcessShardManager,
    ProcessShardManager,
    ShardInfo,
    StaticShardSet,
    replicate_families,
    shard_id_for,
)

__all__ = [
    "DEFAULT_REPLICAS",
    "FLEET_AUDIT_SCHEMA",
    "FleetError",
    "FleetRouter",
    "FleetSoakReport",
    "HashRing",
    "InProcessShardManager",
    "ProcessShardManager",
    "RouterConfig",
    "ShardInfo",
    "StaticShardSet",
    "check_fleet_anchors",
    "fleet_coverage_plan",
    "fleet_digest",
    "reconcile_fleet",
    "replicate_families",
    "routing_key",
    "run_fleet_soak",
    "shard_id_for",
    "write_fleet_audit",
]

#: The soak harness, imported on first use: it builds on the chaos soak
#: of :mod:`repro.faults.soak`, which no serving or engine-worker
#: process needs.
_SOAK_NAMES = ("FleetSoakReport", "fleet_coverage_plan", "run_fleet_soak")


def __getattr__(name: str):
    if name not in _SOAK_NAMES:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from . import soak

    return getattr(soak, name)
