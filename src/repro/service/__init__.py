"""repro.service — the online watermark verification authority.

The serving layer over the batch engine: a manufacturer publishes
family parameters into a persistent :class:`WatermarkRegistry`
(SQLite, ``flashmark.registry/v1``, hash-chained audit log), a
:class:`VerificationServer` answers ``flashmark.wire/v1`` verify
requests, binary frames carrying raw chip bytes (bounded queue,
429-style backpressure, per-client token buckets, micro-batching into
:func:`repro.engine.verify_population`),
and a :class:`LoadClient` replays open- or closed-loop traffic to
measure p50/p95/p99 latency and throughput.

Quick start::

    import asyncio
    from repro.service import (
        WatermarkRegistry, VerificationServer, ServerConfig, LoadClient,
    )

    async def main():
        registry = WatermarkRegistry("registry.db")
        # ... registry.publish_family("msp430", calibration, fmt) ...
        async with VerificationServer(registry) as server:
            load = LoadClient(server.endpoint, "msp430")
            report = await load.run_closed_loop(100, concurrency=8)
            print(report.latency_summary())

    asyncio.run(main())

Every client surface addresses a server, a shard, or the fleet router
(:mod:`repro.fleet`) through one :class:`Endpoint` spec — an
``"host:port"`` string parses to the same value object.

``python -m repro serve`` / ``registry`` / ``loadgen`` wrap the same
objects for the shell; see ``docs/service.md`` for the wire protocol
and capacity-planning notes.
"""

from .client import (
    LoadClient,
    LoadReport,
    ServiceError,
    VerificationClient,
)
from .endpoint import Endpoint, EndpointLike
from .health import HEALTH_SCHEMA, HealthReport, engine_counters
from .protocol import (
    MAX_FRAME_BYTES,
    POW_REQUIRED,
    WIRE_SCHEMA,
    FrameReader,
    FrameTooLarge,
    ProtocolError,
    decode_frame,
    encode_frame,
    verify_request,
)
from .registry import (
    REGISTRY_SCHEMA,
    FamilyRecord,
    RegistryError,
    VerificationRecord,
    WatermarkRegistry,
)
from .server import ServerConfig, VerificationServer

__all__ = [
    "REGISTRY_SCHEMA",
    "WIRE_SCHEMA",
    "HEALTH_SCHEMA",
    "MAX_FRAME_BYTES",
    "POW_REQUIRED",
    "Endpoint",
    "EndpointLike",
    "HealthReport",
    "engine_counters",
    "RegistryError",
    "ProtocolError",
    "FrameReader",
    "FrameTooLarge",
    "ServiceError",
    "FamilyRecord",
    "VerificationRecord",
    "WatermarkRegistry",
    "ServerConfig",
    "VerificationServer",
    "VerificationClient",
    "LoadClient",
    "LoadReport",
    "encode_frame",
    "decode_frame",
    "verify_request",
]
