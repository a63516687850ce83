"""The fleet soak: parity and chaos for a routed shard topology.

Two modes, one harness:

**Parity** (no fault plan): the same seeded traffic is replayed twice —
through a single :class:`~repro.service.server.VerificationServer`, and
through a :class:`~repro.fleet.router.FleetRouter` over N in-process
shards.  The contract is the one CI gates on: *zero drops* (every
request gets a typed answer) and *verdict identity* (each request's
``(verdict, statistic)`` through the fleet equals the direct server's,
bit for bit — consistent hashing plus deterministic extraction leave
nowhere for a difference to hide).

**Chaos** (a fault plan with the ``fleet.*`` points armed): traffic is
sequential and the router's probe rounds are driven one-per-request
(``auto_probe=False``), so the ``fleet.shard_kill`` seam advances with
verify requests and the ``fleet.shard_rejoin`` seam advances in
lockstep — the same plan meets the same fleet state on every replay.
The invariants extend ``docs/robustness.md`` to the fleet layer:

* **bounded** — the run beats its deadline, no request outlives its
  timeout, and a killed shard costs at most ``retry_shards`` re-route
  attempts before a clean ``503``;
* **surfaced** — every injection reconciles against a typed
  observation (a ``503``, a ``fleet.chaos_kills`` /
  ``fleet.chaos_rejoins`` / ``fleet.probe_aborts`` /
  ``fleet.injected_route_errors`` count, a reconnect);
* **no divergence** — every OK verdict matches ground truth (modulo
  the documented false-reject fallout) *and* matches the direct
  baseline when one was run;
* **recovered** — after the schedule is exhausted the killed shard is
  back and routable (eviction → rejoin → readmission completed);
* **reproducible** — same seed, same injection sequence (asserted by
  running the soak twice; see ``tests/fleet/``).

Either way the run ends with an audit reconcile
(:func:`~repro.fleet.reconcile.reconcile_fleet`): every shard chain
must verify and every shard must serve the same family set.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from ..faults import FaultInjector, FaultPlan, FaultSpec
from ..faults.soak import SoakReport
from ..telemetry import Telemetry
from .reconcile import reconcile_fleet

__all__ = ["fleet_coverage_plan", "FleetSoakReport", "run_fleet_soak"]


def fleet_coverage_plan(seed: int = 0) -> FaultPlan:
    """The canonical fleet-layer schedule (both points, both kinds).

    Occurrence placement assumes the chaos driving mode: request *k*
    advances ``fleet.shard_kill`` to occurrence *k*, and the probe
    round after it advances ``fleet.shard_rejoin`` to occurrence *k*.

    ========  ==========================  ===========================
    request   spec                        surfaces as
    ========  ==========================  ===========================
    2         shard_rejoin error (probe)  counted probe abort
    4         shard_kill drop             owner killed; re-routed
    5..6      (probes see the corpse)     2 failures -> eviction
    7         shard_rejoin drop (probe)   shard restarted
    8..9      (probes see it healthy)     2 successes -> readmission
    11        shard_kill error            injected routing fault, 503
    ========  ==========================  ===========================

    Give the run >= 14 requests so the tail re-proves clean serving
    after recovery.  The seed shapes nothing here (the schedule is
    fully fixed); it is recorded so replays label themselves.
    """
    specs = (
        FaultSpec("fleet.shard_rejoin", "error", at=2),
        FaultSpec("fleet.shard_kill", "drop", at=4),
        FaultSpec("fleet.shard_rejoin", "drop", at=7),
        FaultSpec("fleet.shard_kill", "error", at=11,
                  params={"message": "injected fleet routing fault"}),
    )
    return FaultPlan(specs=specs, seed=seed)


@dataclass(kw_only=True)
class FleetSoakReport(SoakReport):
    """Everything one fleet soak observed, plus its invariant verdicts."""

    n_shards: int
    chaos: bool
    #: index -> decision statistic through the fleet.
    statistics: Dict[int, float] = field(default_factory=dict)
    #: Direct single-server baseline (empty when not run).
    baseline_verdicts: Dict[int, str] = field(default_factory=dict)
    baseline_statistics: Dict[int, float] = field(default_factory=dict)
    #: requests lost without a typed answer (connection-level).
    drops: int = 0
    #: All shards routable when the soak ended.
    recovered: bool = True
    #: Router topology at soak end.
    topology: dict = field(default_factory=dict)
    #: ``flashmark.fleet-audit/v1`` reconcile of the shard registries.
    fleet_audit: dict = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return self.completed + sum(self.errors.values())

    def surfaced_evidence(self) -> int:
        """Typed observations available to account for injections."""
        c = self.counters
        return (
            sum(self.errors.values())
            + self.drops
            + c.get("fleet.chaos_kills", 0)
            + c.get("fleet.chaos_rejoins", 0)
            + c.get("fleet.probe_aborts", 0)
            + c.get("fleet.injected_route_errors", 0)
        )

    def invariants(self) -> Dict[str, bool]:
        out = self._clauses(
            zero_drops=self.drops == 0 and self.answered == self.requests
        )
        out["audit_chains_ok"] = bool(self.fleet_audit.get("chains_ok"))
        out["families_consistent"] = bool(
            (self.fleet_audit.get("families") or {}).get("consistent")
        )
        if self.baseline_verdicts:
            out["verdict_parity"] = all(
                self.baseline_verdicts.get(i) == v
                and self.baseline_statistics.get(i)
                == self.statistics.get(i)
                for i, v in self.verdicts.items()
            )
            if not self.chaos:
                # A clean fleet must answer everything OK, like the
                # direct server does.
                out["verdict_parity"] = (
                    out["verdict_parity"]
                    and set(self.verdicts) == set(self.baseline_verdicts)
                )
        if self.chaos:
            out["every_fault_surfaced"] = (
                len(self.injected) <= self.surfaced_evidence()
            )
            out["fleet_recovered"] = self.recovered
        return out

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "requests": self.requests,
            "completed": self.completed,
            "answered": self.answered,
            "chaos": self.chaos,
            "seed": self.seed,
            "plan": self.plan.to_dict() if self.plan else None,
            "errors_by_code": {
                str(k): v for k, v in sorted(self.errors.items())
            },
            "drops": self.drops,
            "request_timeouts": self.request_timeouts,
            "injected": [list(t) for t in self.injected],
            "counters": dict(sorted(self.counters.items())),
            "divergences": [
                {"index": i, "got": got, "expected": list(expected)}
                for i, got, expected in self.divergences
            ],
            "baseline_compared": len(self.baseline_verdicts),
            "recovered": self.recovered,
            "wall_s": self.wall_s,
            "deadline_s": self.deadline_s,
            "topology": self.topology,
            "fleet_audit": self.fleet_audit,
            "invariants": self.invariants(),
            "passed": self.passed,
        }


def run_fleet_soak(
    registry,
    family: str,
    items,
    *,
    n_shards: int = 4,
    plan: Optional[FaultPlan] = None,
    baseline: bool = True,
    concurrency: int = 8,
    workers: int = 1,
    telemetry: Optional[Telemetry] = None,
    deadline_s: float = 300.0,
    request_timeout_s: float = 30.0,
    directory: Optional[Union[str, Path]] = None,
) -> FleetSoakReport:
    """Replay ``items`` through a routed fleet (and optionally through
    one direct server for the parity baseline).

    ``registry`` is the source of published families; each shard gets
    its own replicated registry under ``directory`` (a temp dir when
    None).  With ``plan`` given the run switches to chaos mode:
    sequential traffic, request-driven probe rounds, the plan armed
    around the whole fleet leg.
    """
    tel = telemetry if telemetry is not None else Telemetry()
    chaos_mode = plan is not None
    items = list(items)
    report = FleetSoakReport(
        n_shards=n_shards,
        requests=len(items),
        deadline_s=deadline_s,
        chaos=chaos_mode,
        seed=plan.seed if plan is not None else None,
        plan=plan,
    )

    async def _replay_direct() -> None:
        from ..service import ServerConfig, VerificationServer

        server = VerificationServer(
            registry, config=ServerConfig(workers=workers)
        )
        async with server:
            await _pump(
                server.endpoint,
                report.baseline_verdicts,
                report.baseline_statistics,
                None,
                None,
            )

    async def _pump(
        endpoint, verdicts, statistics, errors, probe
    ) -> None:
        """Drive ``items`` against ``endpoint``; sequential when a
        probe hook is given (chaos), else ``concurrency`` workers."""
        from ..service import ServiceError, VerificationClient, protocol

        queue: "asyncio.Queue" = asyncio.Queue()
        for item in items:
            queue.put_nowait(item)

        async def _worker() -> None:
            client = await VerificationClient.connect(endpoint)
            try:
                while True:
                    try:
                        item = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    req = protocol.verify_request(
                        item.chip,
                        family,
                        request_id=item.index,
                        client="fleet-soak",
                    )
                    for attempt in (1, 2):
                        try:
                            result = await asyncio.wait_for(
                                client.call(req),
                                timeout=request_timeout_s,
                            )
                        except ServiceError as exc:
                            if errors is None:
                                raise
                            errors[exc.code] = (
                                errors.get(exc.code, 0) + 1
                            )
                            break
                        except asyncio.TimeoutError:
                            report.request_timeouts += 1
                            break
                        except (ConnectionError, OSError):
                            # One reconnect, one resend; past that the
                            # request counts as dropped.
                            await client.close()
                            if attempt == 2:
                                report.drops += 1
                                break
                            client = (
                                await VerificationClient.connect(
                                    endpoint
                                )
                            )
                            continue
                        else:
                            report.record_verdict(
                                item, result["verdict"], verdicts
                            )
                            statistics[item.index] = result[
                                "statistic"
                            ]
                            break
                    if probe is not None:
                        await probe()
            finally:
                await client.close()

        n_workers = 1 if probe is not None else max(1, concurrency)
        await asyncio.gather(*(_worker() for _ in range(n_workers)))

    async def _soak() -> None:
        from .router import FleetRouter, RouterConfig
        from .shards import InProcessShardManager

        loop = asyncio.get_running_loop()
        t0 = loop.time()
        if baseline:
            await _replay_direct()
        with tempfile.TemporaryDirectory(
            prefix="repro-fleet-"
        ) if directory is None else _noop_cm(directory) as workdir:
            manager = InProcessShardManager(
                registry,
                n_shards,
                workdir,
                workers=workers,
            )
            async with manager:
                router = FleetRouter(
                    manager,
                    config=RouterConfig(
                        auto_probe=not chaos_mode,
                        probe_interval_s=0.2,
                        monitoring=False,
                    ),
                    telemetry=tel,
                )
                async with router:
                    if chaos_mode:
                        with FaultInjector(
                            plan, telemetry=tel
                        ) as chaos:
                            await _pump(
                                router.endpoint,
                                report.verdicts,
                                report.statistics,
                                report.errors,
                                router.probe_once,
                            )
                            report.injected = chaos.sequence()
                        # Post-schedule recovery: keep probing until
                        # eviction/readmission settles (an operator's
                        # `rejoin` for anything the schedule left
                        # dead would go here; the coverage plan never
                        # does).
                        settle_until = loop.time() + min(
                            30.0, deadline_s
                        )
                        while loop.time() < settle_until:
                            for shard_id in manager.shard_ids():
                                if not manager.alive(shard_id):
                                    await manager.rejoin(shard_id)
                            await router.probe_once()
                            if all(
                                router.routable(s)
                                for s in manager.shard_ids()
                            ):
                                break
                            await asyncio.sleep(0.05)
                        report.recovered = all(
                            router.routable(s)
                            for s in manager.shard_ids()
                        )
                    else:
                        await _pump(
                            router.endpoint,
                            report.verdicts,
                            report.statistics,
                            report.errors,
                            None,
                        )
                        report.recovered = all(
                            router.routable(s)
                            for s in manager.shard_ids()
                        )
                    report.topology = router.topology()
                paths = {
                    info.shard_id: info.registry_path
                    for info in manager.infos()
                }
            # Registries are closed now; reconcile re-opens the files.
            report.fleet_audit = reconcile_fleet(
                paths, timeline_limit=200
            )
        report.wall_s = loop.time() - t0
        snapshot = tel.registry.snapshot()["counters"]
        report.counters = {
            name: int(value)
            for name, value in snapshot.items()
            if name.startswith(("fleet.", "faults."))
        }

    asyncio.run(_soak())
    return report


class _noop_cm:
    """Context manager handing back a caller-owned directory."""

    def __init__(self, path):
        self.path = Path(path)

    def __enter__(self):
        self.path.mkdir(parents=True, exist_ok=True)
        return str(self.path)

    def __exit__(self, exc_type, exc, tb):
        return None
