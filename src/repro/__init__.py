"""Flashmark: watermarking of NOR flash memories for counterfeit detection.

A simulator-backed reproduction of the DAC 2020 paper by Poudel, Ray and
Milenkovic.  The package layers as follows (bottom up):

* :mod:`repro.phys` — floating-gate cell physics: threshold-voltage
  dynamics, permanent oxide wear, process variation, noise;
* :mod:`repro.device` — simulated flash devices: the MSP430-style
  embedded NOR module (controller + register file), a stand-alone SPI
  NOR chip and an SLC NAND variant, all with datasheet timing;
* :mod:`repro.characterize` — the Section III partial-erase
  characterisation procedures;
* :mod:`repro.core` — Flashmark itself: watermark payloads, imprinting,
  extraction, replication/decoding, calibration and verification;
* :mod:`repro.engine` — the parallel batch engine: chip-granular
  fan-out (:class:`BatchExecutor`), memoized family calibrations
  (:class:`CalibrationCache`) and the batch APIs
  (:func:`calibrate_family`, :func:`verify_population`,
  :meth:`repro.workloads.ProductionLine.run`);
* :mod:`repro.attacks` — counterfeiter tampering models;
* :mod:`repro.baselines` — metadata / ECID / PUF / recycled-detection
  alternatives;
* :mod:`repro.workloads` and :mod:`repro.analysis` — experiment inputs
  and statistics;
* :mod:`repro.service` — the online deployment: a persistent
  published-family registry (SQLite), an asyncio verification server
  with bounded-queue backpressure and micro-batching, and a load
  generator measuring latency percentiles and throughput;
* :mod:`repro.faults` — seeded deterministic fault injection: declarative
  :class:`FaultPlan` schedules armed over named points in persistence,
  engine and service, plus the chaos soak harness behind
  ``python -m repro chaos`` (see ``docs/robustness.md``);
* :mod:`repro.monitor` — fleet-health monitoring over the service's
  verification-outcome stream: EWMA/CUSUM drift detection on the
  decision statistic, declarative SLOs (``flashmark.slo/v1``) with
  burn-rate alerting, the ``flashmark.alerts/v1`` stream, and the
  ``repro monitor`` dashboard/report (see ``docs/observability.md``);
* :mod:`repro.fleet` — horizontal scale-out: a consistent-hashing
  :class:`FleetRouter` over N shard servers with health-based
  eviction/readmission, per-shard registries reconciled into a
  ``flashmark.fleet-audit/v1`` view, and the parity/chaos soak behind
  ``python -m repro fleet`` (see ``docs/service.md``);
* :mod:`repro.receipts` — publicly verifiable verdicts: every verify
  can carry a signed ``flashmark.receipt/v1`` anchored in the
  registry's hash-chained audit log, checkable offline with
  ``python -m repro receipt verify``, plus hashcash proof-of-work
  tickets metering anonymous access (see ``docs/service.md``).

Quickstart::

    from repro import (FlashmarkSession, WatermarkPayload, ChipStatus,
                       make_mcu)

    chip = make_mcu(seed=7, n_segments=1)
    session = FlashmarkSession(chip)
    payload = WatermarkPayload("TCMK", die_id=chip.die_id,
                               speed_grade=3, status=ChipStatus.ACCEPT)
    session.imprint_payload(payload, n_pe=40_000, n_replicas=7)
    report = session.verify()
    assert report.verdict.name == "AUTHENTIC"
"""

from .core import (
    AsymmetricDecoder,
    ChipStatus,
    DecodedWatermark,
    ErrorAsymmetry,
    FamilyCalibration,
    FlashmarkSession,
    ImprintReport,
    ReplicaLayout,
    VerificationReport,
    Verdict,
    Watermark,
    WatermarkFormat,
    WatermarkPayload,
    WatermarkVerifier,
    extract_segment,
    extract_watermark,
    imprint_watermark,
)
from .device import (
    FlashController,
    McuFactory,
    Microcontroller,
    NandFlash,
    SpiNorFlash,
    make_mcu,
)

# The batch engine is the published calibration entry point:
# `repro.calibrate_family` returns a CalibrationResult whose
# `.calibration` is the FamilyCalibration.
from .engine import (
    BatchExecutor,
    BatchResult,
    CalibrationCache,
    CalibrationResult,
    JobFailure,
    VerificationResult,
    calibrate_family,
    verify_population,
)
from .faults import FaultInjector, FaultPlan, FaultSpec
from .fleet import (
    FleetRouter,
    HashRing,
    InProcessShardManager,
    ProcessShardManager,
    RouterConfig,
    reconcile_fleet,
)
from .monitor import (
    CUSUMDetector,
    EWMADetector,
    FleetMonitor,
    MonitorConfig,
    SLOSpec,
)
from .phys import PhysicalParams
from .receipts import (
    PowGate,
    ReceiptSigner,
    build_receipt,
    mint_ticket,
    verify_receipt,
    verify_receipts_offline,
)
from .service import (
    Endpoint,
    HealthReport,
    LoadClient,
    LoadReport,
    ServerConfig,
    VerificationServer,
    WatermarkRegistry,
)
from .telemetry import Telemetry
from .trace import TraceContext

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # high-level workflow
    "FlashmarkSession",
    "Watermark",
    "WatermarkPayload",
    "ChipStatus",
    "WatermarkFormat",
    "WatermarkVerifier",
    "VerificationReport",
    "Verdict",
    # procedures
    "imprint_watermark",
    "extract_segment",
    "extract_watermark",
    "calibrate_family",
    "FamilyCalibration",
    "ImprintReport",
    "DecodedWatermark",
    "ReplicaLayout",
    "AsymmetricDecoder",
    "ErrorAsymmetry",
    # batch engine
    "BatchExecutor",
    "BatchResult",
    "JobFailure",
    "CalibrationCache",
    "CalibrationResult",
    "VerificationResult",
    "verify_population",
    # devices
    "make_mcu",
    "McuFactory",
    "Microcontroller",
    "FlashController",
    "SpiNorFlash",
    "NandFlash",
    "PhysicalParams",
    # observability
    "Telemetry",
    "TraceContext",
    # verification service
    "WatermarkRegistry",
    "VerificationServer",
    "ServerConfig",
    "Endpoint",
    "HealthReport",
    "LoadClient",
    "LoadReport",
    # fleet
    "FleetRouter",
    "RouterConfig",
    "HashRing",
    "ProcessShardManager",
    "InProcessShardManager",
    "reconcile_fleet",
    # receipts + proof-of-work
    "ReceiptSigner",
    "PowGate",
    "build_receipt",
    "verify_receipt",
    "verify_receipts_offline",
    "mint_ticket",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    # fleet-health monitoring
    "FleetMonitor",
    "MonitorConfig",
    "EWMADetector",
    "CUSUMDetector",
    "SLOSpec",
]
