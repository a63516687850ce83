"""Asyncio metrics scraper: poll a fleet's ``/metrics`` + ``/healthz``.

One :class:`MetricsScraper` owns a set of :class:`ScrapeTarget` s (the
router and every shard), polls each on an interval, parses the
Prometheus text back into typed samples (:mod:`repro.obs.parse`), and
appends them to a :class:`~repro.obs.tsdb.TimeSeriesStore` with the
target name merged in as a ``target`` label — that label is what makes
cross-shard rollups (``sum by ()``) possible downstream.

Alongside the exposition, every round also records synthesized
liveness series per target:

* ``flashmark_up`` — 1 if the target answered ``/metrics``, else 0
  (the Prometheus convention);
* ``flashmark_healthz_status_code`` — ok=0 / degraded=1 / alerting=2
  (unreachable or unknown=3);
* ``flashmark_healthz_queue_depth`` — the reported queue depth;
* ``flashmark_scrape_duration_s`` — how long the scrape took.

A failed target never fails the round: errors are counted, stored as
``flashmark_up 0``, and the loop moves on — exactly the posture the
router takes toward a sick shard.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..service.endpoint import Endpoint
from ..service.frontend import http_get
from .parse import parse_prometheus_text
from .tsdb import TimeSeriesStore

__all__ = ["ScrapeTarget", "MetricsScraper", "fleet_targets"]

_STATUS_CODES = {"ok": 0, "degraded": 1, "alerting": 2}


@dataclass(frozen=True)
class ScrapeTarget:
    """One endpoint the scraper polls, under a stable ``target`` name."""

    name: str
    endpoint: Endpoint

    @classmethod
    def from_any(cls, name: str, endpoint) -> "ScrapeTarget":
        return cls(name=name, endpoint=Endpoint.from_any(endpoint))


def fleet_targets(shards=None, router=None) -> List[ScrapeTarget]:
    """Build the scrape set for a fleet: the router plus every live
    shard.

    ``shards`` is any shard manager (``infos()`` surface); ``router``
    is a :class:`~repro.fleet.router.FleetRouter`, an
    :class:`~repro.service.endpoint.Endpoint`, or anything
    ``Endpoint.from_any`` takes.  Shards that are down (no endpoint)
    are skipped — they re-enter the set on the next call after a
    rejoin.
    """
    targets: List[ScrapeTarget] = []
    if router is not None:
        endpoint = getattr(router, "endpoint", router)
        targets.append(ScrapeTarget.from_any("router", endpoint))
    if shards is not None:
        for info in shards.infos():
            if info.endpoint is not None:
                targets.append(
                    ScrapeTarget(info.shard_id, info.endpoint)
                )
    return targets


class MetricsScraper:
    """Poll every target's ``/metrics`` + ``/healthz`` into the tsdb."""

    def __init__(
        self,
        targets: Iterable[ScrapeTarget],
        store: TimeSeriesStore,
        *,
        interval_s: float = 1.0,
        timeout_s: float = 5.0,
    ):
        self.targets = list(targets)
        if not self.targets:
            raise ValueError("scraper needs at least one target")
        self.store = store
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = float(interval_s)
        self.timeout_s = float(timeout_s)
        self.rounds = 0
        self.errors = 0

    # -- one round ---------------------------------------------------------

    async def scrape_once(self, *, t: Optional[float] = None) -> dict:
        """Scrape every target once (concurrently); flush the store.

        Returns a round summary:
        ``{"t", "targets": {name: {"ok", "n_samples", "status"}}}``.
        """
        t = float(t) if t is not None else time.time()
        results = await asyncio.gather(
            *(self._scrape_target(target, t) for target in self.targets)
        )
        self.store.flush()
        self.rounds += 1
        summary = {
            "t": t,
            "targets": {
                target.name: result
                for target, result in zip(self.targets, results)
            },
        }
        summary["ok"] = all(
            r["ok"] for r in summary["targets"].values()
        )
        return summary

    async def _scrape_target(
        self, target: ScrapeTarget, t: float
    ) -> dict:
        labels = {"target": target.name}
        t0 = time.perf_counter()
        ok = False
        n_samples = 0
        status = "unreachable"
        try:
            code, body = await http_get(
                target.endpoint, "/metrics", self.timeout_s
            )
            if code == 200:
                parsed = parse_prometheus_text(body)
                n_samples = self.store.append_samples(
                    parsed.samples, t=t, labels=labels
                )
                ok = True
        except (OSError, asyncio.TimeoutError, ValueError):
            pass
        try:
            code, body = await http_get(
                target.endpoint, "/healthz", self.timeout_s
            )
            payload = json.loads(body) if code == 200 else {}
            status = payload.get("status", "unknown")
            queue_depth = payload.get("queue_depth")
            if queue_depth is not None:
                self.store.append(
                    "flashmark_healthz_queue_depth",
                    float(queue_depth),
                    t=t,
                    labels=labels,
                )
        except (OSError, asyncio.TimeoutError, ValueError):
            pass
        if not ok:
            self.errors += 1
        self.store.append(
            "flashmark_up", 1.0 if ok else 0.0, t=t, labels=labels
        )
        self.store.append(
            "flashmark_healthz_status_code",
            float(_STATUS_CODES.get(status, 3)),
            t=t,
            labels=labels,
        )
        self.store.append(
            "flashmark_scrape_duration_s",
            time.perf_counter() - t0,
            t=t,
            labels=labels,
        )
        return {"ok": ok, "n_samples": n_samples, "status": status}

    # -- the loop ----------------------------------------------------------

    async def run(
        self,
        *,
        duration_s: Optional[float] = None,
        rounds: Optional[int] = None,
        stop_event: Optional[asyncio.Event] = None,
    ) -> dict:
        """Scrape on the interval until a bound trips.

        Stops after ``rounds`` rounds, after ``duration_s`` seconds,
        or when ``stop_event`` is set — whichever comes first (at
        least one round always runs).  Returns
        ``{"rounds", "errors", "targets"}``.
        """
        t0 = time.monotonic()
        done = 0
        while True:
            await self.scrape_once()
            done += 1
            if rounds is not None and done >= rounds:
                break
            if (
                duration_s is not None
                and time.monotonic() - t0 >= duration_s
            ):
                break
            if stop_event is not None:
                try:
                    await asyncio.wait_for(
                        stop_event.wait(), self.interval_s
                    )
                    break
                except asyncio.TimeoutError:
                    pass
            else:
                await asyncio.sleep(self.interval_s)
        return {
            "rounds": done,
            "errors": self.errors,
            "targets": [target.name for target in self.targets],
        }
