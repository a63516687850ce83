"""The chaos soak: replay a fault plan against the live stack.

One soak run stands up a real :class:`~repro.service.server.VerificationServer`
over a published registry, arms a :class:`~repro.faults.FaultInjector`,
and streams seeded :class:`~repro.workloads.traffic.TrafficGenerator`
chips through a :class:`~repro.service.client.VerificationClient` —
device persistence, batch engine and wire service all under fire in one
process.  The resulting :class:`ChaosReport` checks the invariants of
``docs/robustness.md``:

* **bounded** — the run finishes inside its deadline and no single
  request outlives its per-request timeout;
* **surfaced** — every injected fault is reconciled against a typed
  observation: an error response, a local
  :class:`~repro.service.protocol.FrameTooLarge`, a reconnect, or a
  counted retry (``engine.retries`` / ``service.registry_retries``);
* **no divergence** — every OK verdict matches the traffic item's
  ground truth (up to the documented false-rejection fallout);
* **reproducible** — the same seed replays the identical injection
  sequence and ``faults.injected.*`` counters (asserted by running the
  soak twice; see ``tests/faults/``).

:func:`coverage_plan` builds the canonical schedule firing **every**
fault kind at least once across all three layers, with deterministic
occurrence placement and seed-drawn fault parameters.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..telemetry import Telemetry
from .injector import FaultInjector, InjectedFault
from .plan import FaultPlan, FaultSpec

__all__ = ["coverage_plan", "ChaosReport", "run_chaos_soak"]

#: Verdict mismatches of this shape are the documented false-rejection
#: fallout (a marginal genuine die failing single-read extraction), not
#: a fault-induced divergence.
_FALSE_REJECT = ("counterfeit", ("authentic",))


def coverage_plan(seed: int = 0) -> FaultPlan:
    """The canonical all-kinds schedule for a sequential soak.

    Occurrence placement is fixed — it encodes how a sequential
    single-connection request stream advances each injection point, so
    every spec is guaranteed to fire within the first ~8 requests:

    ========  =========================  ==============================
    request   spec                       surfaces as
    ========  =========================  ==============================
    2         chip_to_bytes truncate     400 (undecodable chip blob)
    3         chip_to_bytes oversize     client-local FrameTooLarge
    4         service.read garbage       400 (frame is not valid JSON)
    5         service.read drop          severed connection + reconnect
    6         chip_from_bytes corrupt    400 (chip magic destroyed)
    7         service.registry error     counted retry, verdict still OK
    7         service.write hang         delayed (bounded) response
    8         engine.job error           counted engine retry, OK
    ========  =========================  ==============================

    The seed draws only the fault *parameters* (truncation fraction,
    corruption width, stall length, ...) — same seed, same plan, same
    injection sequence.
    """
    rng = np.random.default_rng(seed)
    keep = round(float(rng.uniform(0.3, 0.7)), 3)
    n_corrupt = int(rng.integers(4, 13))
    stall = round(float(rng.uniform(0.02, 0.06)), 3)
    specs = (
        FaultSpec("device.chip_to_bytes", "truncate", at=2,
                  params={"keep_fraction": keep}),
        FaultSpec("device.chip_to_bytes", "oversize", at=3),
        FaultSpec("service.read", "garbage", at=3),
        FaultSpec("service.read", "drop", at=4),
        # offset 0 destroys the chip-bytes magic, so the decode failure
        # is deterministic rather than left to a CRC check.
        FaultSpec("device.chip_from_bytes", "corrupt", at=3,
                  params={"offset": 0, "n_bytes": n_corrupt}),
        FaultSpec("service.registry", "error", at=2,
                  params={"exception": "sqlite3.OperationalError",
                          "message": "database is locked"}),
        FaultSpec("service.write", "hang", at=5,
                  params={"seconds": stall}),
        FaultSpec("engine.job", "error", at=3,
                  params={"exception": "ValueError",
                          "message": "injected job failure"}),
    )
    return FaultPlan(specs=specs, seed=seed)


@dataclass
class ChaosReport:
    """Everything one chaos soak observed, plus its invariant verdicts."""

    seed: Optional[int]
    plan: FaultPlan
    requests: int
    deadline_s: float
    #: ``(point, kind, occurrence)`` firing sequence, in order.
    injected: List[Tuple[str, str, int]] = field(default_factory=list)
    #: ``faults.injected.*`` counter snapshot.
    counters: Dict[str, int] = field(default_factory=dict)
    #: index -> verdict for OK responses.
    verdicts: Dict[int, str] = field(default_factory=dict)
    #: error-code histogram over error responses.
    errors: Dict[int, int] = field(default_factory=dict)
    #: requests rejected client-side (FrameTooLarge before send).
    local_rejects: int = 0
    #: connections the soak had to re-open (drops, aborts).
    reconnects: int = 0
    #: requests that hit the per-request timeout (invariant breach).
    request_timeouts: int = 0
    #: requests whose send path raised an injected encode error.
    encode_errors: int = 0
    #: (index, got, expected) verdicts outside the ground truth.
    divergences: List[Tuple[int, str, Tuple[str, ...]]] = field(
        default_factory=list
    )
    wall_s: float = 0.0
    #: True when a fleet monitor rode along (adds two invariants).
    monitored: bool = False
    #: Alert keys that fired / resolved during the soak, in order.
    alerts_fired: List[str] = field(default_factory=list)
    alerts_resolved: List[str] = field(default_factory=list)
    #: Alert keys still firing when the soak ended.
    alerts_firing_at_end: List[str] = field(default_factory=list)
    #: Monitor rollup (``ok``/``degraded``/``alerting``) at soak end.
    monitor_status: Optional[str] = None

    @property
    def completed(self) -> int:
        return len(self.verdicts)

    def retry_evidence(self) -> int:
        """Counted retries that absorbed injected faults.

        Engine retries inside the server surface under the absorbed
        ``service.batch`` prefix; direct engine runs count them bare.
        """
        return (
            self.counters.get("engine.retries", 0)
            + self.counters.get("service.batch.engine.retries", 0)
            + self.counters.get("service.registry_retries", 0)
        )

    def surfaced_evidence(self) -> int:
        """Typed observations available to account for injections."""
        return (
            sum(self.errors.values())
            + self.local_rejects
            + self.reconnects
            + self.encode_errors
            + self.retry_evidence()
            + self.counters.get("service.rejected.oversized", 0)
            + self.counters.get("service.errors.registry", 0)
        )

    #: Points whose occurrence counter advances once per request no
    #: matter what happened earlier in the pipeline: the client-side
    #: serialize and the server-side frame read.  Two faults scheduled
    #: at the same occurrence of these points poison the *same*
    #: request, which still fails with a single typed error.
    _LOCKSTEP_POINTS = frozenset(
        {"device.chip_to_bytes", "service.read"}
    )

    def _colliding_injections(self) -> int:
        """Injections sharing a request with an earlier one (the
        request's one typed error accounts for all of them)."""
        occurrences = [
            occ
            for point, _, occ in self.injected
            if point in self._LOCKSTEP_POINTS
        ]
        return len(occurrences) - len(set(occurrences))

    def invariants(self) -> Dict[str, bool]:
        """The soak contract of ``docs/robustness.md``, per clause."""
        n_injected = len(self.injected)
        n_hangs = sum(1 for _, kind, _ in self.injected if kind == "hang")
        benign = self.counters.get("faults.injected.device.save_chip", 0)
        collisions = self._colliding_injections()
        out = {
            "finished_before_deadline": self.wall_s <= self.deadline_s,
            "no_request_timed_out": self.request_timeouts == 0,
            # hang faults surface only as (bounded) latency; save_chip
            # faults fire outside the request path entirely; colliding
            # faults share their request's single typed error.
            "every_fault_surfaced": (
                n_injected - n_hangs - benign - collisions
                <= self.surfaced_evidence()
            ),
            "no_verdict_divergence": all(
                (got, expected) == _FALSE_REJECT
                for _, got, expected in self.divergences
            ),
        }
        if self.monitored:
            # The alerting contract: injected faults must burn the
            # error-budget SLO into a *fired* alert, and once the fault
            # schedule is exhausted the clean request tail must let
            # every alert resolve again.
            out["faults_tripped_alert"] = bool(self.alerts_fired)
            out["alerts_cleared_after_recovery"] = (
                not self.alerts_firing_at_end
            )
        return out

    @property
    def passed(self) -> bool:
        return all(self.invariants().values())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "plan": self.plan.to_dict(),
            "requests": self.requests,
            "completed": self.completed,
            "errors_by_code": {
                str(k): v for k, v in sorted(self.errors.items())
            },
            "local_rejects": self.local_rejects,
            "reconnects": self.reconnects,
            "request_timeouts": self.request_timeouts,
            "encode_errors": self.encode_errors,
            "injected": [list(t) for t in self.injected],
            "fault_counters": dict(sorted(self.counters.items())),
            "divergences": [
                {"index": i, "got": got, "expected": list(expected)}
                for i, got, expected in self.divergences
            ],
            "wall_s": self.wall_s,
            "deadline_s": self.deadline_s,
            "monitored": self.monitored,
            "alerts_fired": list(self.alerts_fired),
            "alerts_resolved": list(self.alerts_resolved),
            "alerts_firing_at_end": list(self.alerts_firing_at_end),
            "monitor_status": self.monitor_status,
            "invariants": self.invariants(),
            "passed": self.passed,
        }


def run_chaos_soak(
    registry,
    family: str,
    items,
    plan: FaultPlan,
    *,
    telemetry: Optional[Telemetry] = None,
    deadline_s: float = 60.0,
    request_timeout_s: float = 10.0,
    workers: int = 1,
    monitor: bool = False,
    alert_sink=None,
) -> ChaosReport:
    """Replay ``items`` through a live server with ``plan`` armed.

    Requests go over one connection, strictly sequentially — each item
    waits for its verdict (or its failure) before the next is sent, so
    every injection point advances deterministically and the same plan
    always meets the same occurrence numbers.  A severed connection is
    re-opened and the dropped request is *not* retried (it counts as
    that fault's surface).

    With ``monitor=True`` a :class:`~repro.monitor.FleetMonitor` (in
    its tight :func:`~repro.monitor.soak_config`) rides along and two
    alerting invariants join the contract: the injected faults must
    burn an SLO alert into existence, and the clean tail of the run
    must let every alert resolve.  Give the run enough trailing clean
    requests (~24 total with the coverage plan) for the second clause.
    ``alert_sink`` optionally receives the ``flashmark.alerts/v1``
    stream.
    """
    tel = telemetry if telemetry is not None else Telemetry()
    report = ChaosReport(
        seed=plan.seed,
        plan=plan,
        requests=len(items),
        deadline_s=deadline_s,
        monitored=monitor,
    )

    async def _soak() -> None:
        # Imported here: repro.faults must stay importable by the layers
        # it instruments, so the soak pulls the service in lazily.
        from ..service import (
            ServerConfig,
            ServiceError,
            VerificationClient,
            VerificationServer,
            protocol,
        )

        loop = asyncio.get_running_loop()
        fleet_monitor = None
        if monitor:
            from ..monitor import FleetMonitor, soak_config

            fleet_monitor = FleetMonitor(
                soak_config(), telemetry=tel, alert_sink=alert_sink
            )
        # Without the ride-along monitor the server runs unmonitored,
        # keeping the classic soak's behavior (and counters) unchanged.
        config = ServerConfig(workers=workers, monitoring=monitor)
        server = VerificationServer(
            registry, config=config, telemetry=tel, monitor=fleet_monitor
        )
        t0 = loop.time()
        async with server:
            client = await VerificationClient.connect(server.endpoint)
            try:
                with FaultInjector(plan, telemetry=tel) as chaos:
                    for item in items:
                        try:
                            req = protocol.verify_request(
                                item.chip,
                                family,
                                request_id=item.index,
                                client="chaos",
                            )
                        except InjectedFault:
                            report.encode_errors += 1
                            continue
                        try:
                            result = await asyncio.wait_for(
                                client.call(req),
                                timeout=request_timeout_s,
                            )
                        except protocol.FrameTooLarge:
                            report.local_rejects += 1
                            continue
                        except ServiceError as exc:
                            report.errors[exc.code] = (
                                report.errors.get(exc.code, 0) + 1
                            )
                            continue
                        except asyncio.TimeoutError:
                            report.request_timeouts += 1
                        except (ConnectionError, OSError):
                            pass  # reconnect below
                        else:
                            verdict = result["verdict"]
                            report.verdicts[item.index] = verdict
                            if verdict not in item.expected_verdicts:
                                report.divergences.append(
                                    (
                                        item.index,
                                        verdict,
                                        tuple(item.expected_verdicts),
                                    )
                                )
                            continue
                        # Dropped or wedged connection: open a new one,
                        # do not retry the lost request.
                        report.reconnects += 1
                        await client.close()
                        client = await VerificationClient.connect(
                            server.endpoint
                        )
                    report.injected = chaos.sequence()
            finally:
                await client.close()
            if fleet_monitor is not None:
                alerts = fleet_monitor.alerts
                report.alerts_fired = [
                    a.key for a in alerts.history
                ] + [a.key for a in alerts.firing()]
                report.alerts_resolved = [a.key for a in alerts.history]
                report.alerts_firing_at_end = [
                    a.key for a in alerts.firing()
                ]
                report.monitor_status = fleet_monitor.status()
                # Close the alert stream with a summary record so
                # 'repro monitor report' sees the end-of-soak state.
                fleet_monitor.alerts.emit_snapshot(
                    fleet_monitor.snapshot()
                )
        report.wall_s = loop.time() - t0

    asyncio.run(_soak())
    counters = tel.registry.snapshot()["counters"]
    report.counters = {
        name: value
        for name, value in counters.items()
        if name.startswith("faults.")
        or name.endswith("engine.retries")
        or name
        in (
            "service.registry_retries",
            "service.errors.registry",
            "service.rejected.oversized",
            "service.read_aborts",
            "service.write_aborts",
        )
    }
    return report
