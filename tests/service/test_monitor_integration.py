"""End-to-end fleet-monitoring tests against a live server.

The tentpole acceptance scenarios:

* a seeded **wear-drift** traffic stream (gradual extra P/E on the
  watermarked chips) must trip the EWMA/CUSUM drift detectors and
  surface through every exhaust: firing alerts, the ``monitor`` wire
  op, ``/healthz`` and ``/metrics``;
* a **stationary** authentic-only stream of the same length must
  produce zero alerts;
* ``monitoring=False`` fully disconnects the subsystem.
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.monitor import FleetMonitor, MonitorConfig
from repro.service import (
    ServerConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
)
from repro.workloads.traffic import (
    TrafficGenerator,
    TrafficSpec,
    WearDriftSpec,
)
from tests.service.conftest import FAMILY

#: Short warmup so the drift baseline freezes on the pre-ramp samples.
MONITOR_CONFIG = MonitorConfig(warmup=12, clear_after=4, window=64)


def run_with_monitor(registry, items, monitor, **config_kwargs):
    """Replay ``items`` through a monitored server; returns the final
    healthz/metrics bodies fetched over the HTTP sidecar."""

    async def _run():
        config = ServerConfig(**config_kwargs)
        server = VerificationServer(
            registry, config=config, monitor=monitor
        )
        async with server:
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                for item in items:
                    try:
                        await client.verify_chip(
                            item.chip, FAMILY, request_id=item.index
                        )
                    except ServiceError:
                        pass  # monitored as an error outcome
                snapshot = await client.call({"op": "monitor"})
            host, port = server.address

            def fetch(path):
                try:
                    with urllib.request.urlopen(
                        f"http://{host}:{port}{path}", timeout=10
                    ) as resp:
                        return resp.status, resp.read().decode()
                except urllib.error.HTTPError as err:
                    return err.code, err.read().decode()

            loop = asyncio.get_running_loop()
            health = await loop.run_in_executor(None, fetch, "/healthz")
            metrics = await loop.run_in_executor(None, fetch, "/metrics")
            return snapshot, health, metrics

    return asyncio.run(_run())


def drift_items(n=64):
    spec = TrafficSpec(
        mix={"genuine": 1.0},
        wear_drift=WearDriftSpec(
            start_index=16, ramp_items=40, max_extra_pe=600
        ),
    )
    return TrafficGenerator(spec, seed=5).draw(n)


def stationary_items(n=48):
    return TrafficGenerator(
        TrafficSpec(mix={"genuine": 1.0}), seed=5
    ).draw(n)


class TestWearDriftDetection:
    def test_drift_surfaces_everywhere(self, registry):
        """The acceptance scenario: seeded fleet wear trips the drift
        detectors within the ramp and shows up in the monitor op,
        /healthz and /metrics."""
        monitor = FleetMonitor(MONITOR_CONFIG)
        snapshot, (hs, hbody), (ms, mbody) = run_with_monitor(
            registry, drift_items(), monitor
        )

        # Detectors: the statistic stream left its frozen baseline.
        fam = monitor.families[FAMILY]
        assert fam.ewma.alarms, "EWMA never alarmed on the wear ramp"
        assert fam.ewma.alarms[0].direction == "up"
        assert fam.drift_alarm_count() >= 2
        # The decision statistic visibly degraded from ~0.5 toward 1.
        assert fam.statistic.mean > 0.6
        assert fam.margin_mean < 0.4

        # Alerts: at least one drift alert is firing at stream end.
        keys = {a.key for a in monitor.alerts.firing()}
        assert any(k.startswith("drift:") for k in keys), keys
        assert monitor.status() in ("degraded", "alerting")

        # Wire op: full snapshot over NDJSON.
        assert snapshot["status"] == monitor.status()
        assert snapshot["families"][FAMILY]["drift"]["ewma"]["alarms"] >= 1

        # /healthz: status reflects the monitor, with version + block.
        assert hs == 200
        health = json.loads(hbody)
        assert health["status"] == monitor.status()
        assert "version" in health
        assert health["monitor"]["alerts"]["firing"]
        assert health["monitor"]["families"][FAMILY]["drift_alarms"] >= 2

        # /metrics: monitor gauges and the queue-depth satellite.
        assert ms == 200
        assert "flashmark_monitor_status_code" in mbody
        assert "flashmark_monitor_events_total 64.0" in mbody
        assert "flashmark_service_max_queue_depth" in mbody

    def test_registry_seq_tracked(self, registry):
        monitor = FleetMonitor(MONITOR_CONFIG)
        run_with_monitor(registry, drift_items(8), monitor)
        fam = monitor.families[FAMILY]
        # Each verify appends a history record; the monitor tracks the
        # latest registry sequence it saw.
        assert fam.registry_seq is not None and fam.registry_seq >= 8


class TestStationaryBaseline:
    def test_zero_alerts_on_healthy_fleet(self, registry):
        """The negative control: identical traffic without the wear
        ramp must not alert."""
        monitor = FleetMonitor(MONITOR_CONFIG)
        snapshot, (hs, hbody), _ = run_with_monitor(
            registry, stationary_items(), monitor
        )
        assert monitor.alerts.fired_total == 0
        assert monitor.status() == "ok"
        assert snapshot["status"] == "ok"
        fam = monitor.families[FAMILY]
        assert not fam.ewma.alarms and not fam.cusum.alarms
        # Unworn genuine chips keep a healthy margin.
        assert fam.margin_mean > 0.2
        health = json.loads(hbody)
        assert health["status"] == "ok"
        assert health["monitor"]["alerts"]["fired_total"] == 0


class TestMonitoringDisabled:
    def test_monitor_op_400_and_healthz_plain(self, registry):
        async def _run():
            config = ServerConfig(monitoring=False)
            server = VerificationServer(registry, config=config)
            async with server:
                async with await VerificationClient.connect(
                    server.endpoint
                ) as client:
                    with pytest.raises(ServiceError) as err:
                        await client.call({"op": "monitor"})
                    stats = await client.stats()
                host, port = server.address

                def fetch():
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/healthz", timeout=10
                    ) as resp:
                        return json.loads(resp.read().decode())

                loop = asyncio.get_running_loop()
                health = await loop.run_in_executor(None, fetch)
            return err.value, stats, health

        err, stats, health = asyncio.run(_run())
        assert err.code == 400
        assert "monitoring is disabled" in err.reason
        assert stats["monitoring"] is False
        assert server_has_no_monitor_block(health)


def server_has_no_monitor_block(health):
    return "monitor" not in health and health["status"] == "ok"


class _RecordingMonitor(FleetMonitor):
    """A fleet monitor that also keeps every event it was fed."""

    def __init__(self):
        super().__init__()
        self.events = []

    def record(self, event):
        self.events.append(event)
        super().record(event)


class TestOutcomeRule:
    def test_pow_428_is_a_drop(self, registry, traffic_spec):
        """A request without a proof-of-work ticket is shed load, not a
        failure: 428 books as ``rejected``, like a 429."""
        chip = TrafficGenerator(traffic_spec, seed=31).draw(1)[0].chip
        monitor = _RecordingMonitor()

        async def _run():
            server = VerificationServer(
                registry,
                config=ServerConfig(pow_difficulty=8),
                monitor=monitor,
            )
            async with server:
                async with await VerificationClient.connect(
                    server.endpoint
                ) as client:
                    with pytest.raises(ServiceError) as err:
                        await client.verify_chip(
                            chip, FAMILY, client="station-1"
                        )
            return err.value

        err = asyncio.run(_run())
        assert err.code == 428
        (event,) = monitor.events
        assert event.outcome == "rejected"
        assert event.error_code == 428
        assert event.is_dropped and not event.is_server_error
        assert event.family == FAMILY
