"""End-to-end tests for the fleet router tier.

Covers the wire contract shared with a direct server (same error
frames either way), the router-only ops, the parity soak (byte-equal
verdicts vs a single server) and the chaos soak (kill / rejoin
schedule is bounded, surfaced, recovered, and reproducible).
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.fleet import (
    FleetRouter,
    InProcessShardManager,
    RouterConfig,
    fleet_coverage_plan,
    run_fleet_soak,
)
from repro.monitor import FleetMonitor
from repro.monitor.dashboard import fetch_snapshot
from repro.service import (
    HealthReport,
    ServerConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
    protocol,
)
from tests.fleet.conftest import FAMILY


def run(coro):
    return asyncio.run(coro)


async def _with_fleet(registry, workdir, fn, *, n_shards=2, config=None):
    """Run ``fn(router)`` against a router over in-process shards."""
    cfg = config or RouterConfig(monitoring=False)
    async with InProcessShardManager(
        registry, n_shards, str(workdir)
    ) as shards:
        async with FleetRouter(shards, config=cfg) as router:
            return await fn(router)


def fleet(registry, tmp_path, fn, **kwargs):
    return run(_with_fleet(registry, tmp_path / "fleet", fn, **kwargs))


async def _with_server(registry, fn):
    async with VerificationServer(
        registry, config=ServerConfig()
    ) as server:
        return await fn(server)


@pytest.fixture(params=["direct", "fleet"])
def endpoint_runner(request, registry, tmp_path):
    """Run ``fn(endpoint)`` against either a lone server or a routed
    fleet — the wire error contract must be identical through both."""

    def runner(fn):
        if request.param == "direct":
            return run(
                _with_server(registry, lambda s: fn(s.endpoint))
            )
        return fleet(
            registry, tmp_path, lambda r: fn(r.endpoint)
        )

    return runner


@pytest.fixture(params=["direct", "fleet"])
def front_runner(request, registry, tmp_path):
    """Run ``fn(front)`` against the lone server or the fleet router
    object itself (for its counters), as ``endpoint_runner`` does."""

    def runner(fn):
        if request.param == "direct":
            return run(_with_server(registry, fn))
        return fleet(registry, tmp_path, fn)

    return runner


def _http(endpoint, path):
    """``GET path`` -> ``(status, content type, body)`` (blocking)."""
    url = f"http://{endpoint.host}:{endpoint.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return (
                resp.status,
                resp.headers["Content-Type"],
                resp.read().decode(),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers["Content-Type"], err.read().decode()


async def _http_async(endpoint, path):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, _http, endpoint, path)


class TestSharedWireContract:
    """Satellite: the router speaks the exact server error dialect."""

    def test_unknown_op_same_reason(self, endpoint_runner):
        async def fn(endpoint):
            async with await VerificationClient.connect(
                endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call({"op": "frobnicate"})
            return err.value

        err = endpoint_runner(fn)
        assert err.code == 400
        assert err.reason == "unknown op 'frobnicate'"

    def test_garbage_line_rejected(self, endpoint_runner):
        async def fn(endpoint):
            reader, writer = await asyncio.open_connection(
                endpoint.host, endpoint.port
            )
            writer.write(b"{not json\n")
            await writer.drain()
            frame = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return frame

        frame = endpoint_runner(fn)
        assert frame["ok"] is False
        assert frame["error"]["code"] == 400

    def test_oversized_frame_400_and_connection_survives(
        self, endpoint_runner
    ):
        async def fn(endpoint):
            reader, writer = await asyncio.open_connection(
                endpoint.host, endpoint.port
            )
            writer.write(
                b"x" * (protocol.MAX_FRAME_BYTES + 10) + b"\n"
            )
            await writer.drain()
            rejection = json.loads(await reader.readline())
            writer.write(b'{"op":"ping"}\n')
            await writer.drain()
            pong = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return rejection, pong

        rejection, pong = endpoint_runner(fn)
        assert rejection["ok"] is False
        assert rejection["error"]["code"] == 400
        assert "cap" in rejection["error"]["reason"]
        assert pong["result"]["pong"] is True

    def test_malformed_trace_still_serves(
        self, endpoint_runner, draw_items
    ):
        item = draw_items(1, seed=91)[0]

        async def fn(endpoint):
            async with await VerificationClient.connect(
                endpoint
            ) as client:
                req = protocol.verify_request(
                    item.chip, FAMILY, request_id=1
                )
                req["trace"] = "not-a-traceparent"
                return await client.call(req)

        result = endpoint_runner(fn)
        assert result["verdict"] in item.expected_verdicts
        assert result["family"] == FAMILY

    def test_missing_family_same_reason(self, endpoint_runner):
        async def fn(endpoint):
            async with await VerificationClient.connect(
                endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call({"op": "verify", "chip_b64": "x"})
            return err.value

        err = endpoint_runner(fn)
        assert err.code == 400
        assert err.reason == "verify request is missing 'family'"

    def test_healthz_is_a_health_report(self, front_runner):
        async def fn(front):
            got = await _http_async(front.endpoint, "/healthz")
            return isinstance(front, FleetRouter), got

        is_router, (status, content_type, body) = front_runner(fn)
        assert status == 200
        assert content_type == "application/json"
        report = HealthReport.from_dict(json.loads(body))
        assert report.role == ("router" if is_router else "server")
        assert (report.fleet is not None) == is_router

    def test_metrics_is_prometheus_text(self, front_runner):
        async def fn(front):
            got = await _http_async(front.endpoint, "/metrics")
            return isinstance(front, FleetRouter), got

        is_router, (status, content_type, body) = front_runner(fn)
        assert status == 200
        assert content_type == "text/plain; version=0.0.4"
        ns = "fleet" if is_router else "service"
        assert f"# TYPE flashmark_{ns}_open_connections gauge" in body

    def test_unknown_path_404(self, front_runner):
        async def fn(front):
            return await _http_async(front.endpoint, "/nope")

        status, _, body = front_runner(fn)
        assert status == 404
        assert body == "not found\n"

    def test_oversized_frame_counted(self, front_runner):
        async def fn(front):
            reader, writer = await asyncio.open_connection(
                front.endpoint.host, front.endpoint.port
            )
            writer.write(
                b"x" * (protocol.MAX_FRAME_BYTES + 10) + b"\n"
            )
            await writer.drain()
            await reader.readline()
            writer.close()
            await writer.wait_closed()
            counters = front.telemetry.registry.snapshot()["counters"]
            return isinstance(front, FleetRouter), counters

        is_router, counters = front_runner(fn)
        ns = "fleet" if is_router else "service"
        assert counters[f"{ns}.rejected.oversized"] == 1


class TestRouterOps:
    def test_ping_identifies_role(self, registry, tmp_path):
        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                return await client.ping()

        pong = fleet(registry, tmp_path, fn)
        assert pong == {"pong": True, "role": "router"}

    def test_topology_op(self, registry, tmp_path):
        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                return await client.call({"op": "topology"})

        topo = fleet(registry, tmp_path, fn, n_shards=3)
        assert topo["n_shards"] == 3
        assert topo["routable"] == 3
        assert topo["evicted"] == 0
        assert len(topo["shards"]) == 3
        assert all(s["routable"] for s in topo["shards"])

    def test_families_relayed_from_shard(self, registry, tmp_path):
        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                return await client.families()

        families = fleet(registry, tmp_path, fn)
        assert [f["family_id"] for f in families] == [FAMILY]

    def test_monitor_op_rejected_when_disabled(
        self, registry, tmp_path
    ):
        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call({"op": "monitor"})
            return err.value

        err = fleet(registry, tmp_path, fn)
        assert err.code == 400
        assert "monitoring is disabled" in err.reason

    def test_fetch_snapshot_raises_the_error_reason(
        self, registry, tmp_path
    ):
        async def fn(router):
            with pytest.raises(ServiceError) as err:
                await fetch_snapshot(router.endpoint)
            return err.value

        err = fleet(registry, tmp_path, fn)
        assert err.code == 400
        assert err.reason == "monitoring is disabled on this router"

    def test_verify_result_identical_to_direct(
        self, registry, tmp_path, draw_items
    ):
        """Satellite: a verdict through the fleet is byte-identical to
        the direct server's (transport metadata aside)."""
        item = draw_items(1, seed=92)[0]

        async def ask(endpoint):
            async with await VerificationClient.connect(
                endpoint
            ) as client:
                return await client.verify_chip(
                    item.chip, FAMILY, request_id=7
                )

        direct = run(_with_server(registry, lambda s: ask(s.endpoint)))
        routed = fleet(
            registry, tmp_path, lambda r: ask(r.endpoint)
        )
        transport_keys = {"trace", "history_seq"}
        strip = lambda d: json.dumps(
            {k: v for k, v in d.items() if k not in transport_keys},
            sort_keys=True,
        )
        assert strip(routed) == strip(direct)


class TestRouterHealth:
    def test_healthz_registry_counts_are_fleet_wide(
        self, registry, tmp_path, draw_items
    ):
        """Families are replicated to every shard, so two shards over
        one family report one; verifications sum the stored rows."""
        items = draw_items(3, seed=99)

        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                for i, item in enumerate(items):
                    await client.verify_chip(item.chip, FAMILY, request_id=i)
            await router.probe_once()
            return router.health_report()

        report = fleet(registry, tmp_path, fn, n_shards=2)
        assert report.registry["families"] == 1
        assert report.registry["verifications"] == len(items)


class _RecordingMonitor(FleetMonitor):
    """A fleet monitor that also keeps every event it was fed."""

    def __init__(self):
        super().__init__()
        self.events = []

    def record(self, event):
        self.events.append(event)
        super().record(event)


class TestRouterOutcomes:
    """The router books relayed outcomes by the servers' rule: 428 and
    429 are drops, anything else (its own 503 too) is an error."""

    @staticmethod
    def _relay_one(
        registry, tmp_path, item, *, kill_all, pow_difficulty=0
    ):
        monitor = _RecordingMonitor()

        async def _run():
            async with InProcessShardManager(
                registry,
                1,
                str(tmp_path / "fleet"),
                pow_difficulty=pow_difficulty,
            ) as shards:
                async with FleetRouter(
                    shards,
                    config=RouterConfig(auto_probe=False),
                    monitor=monitor,
                ) as router:
                    if kill_all:
                        await shards.kill("shard-0")
                    async with await VerificationClient.connect(
                        router.endpoint
                    ) as client:
                        with pytest.raises(ServiceError) as err:
                            await client.verify_chip(
                                item.chip, FAMILY, client="station-1"
                            )
            return err.value

        err = run(_run())
        (event,) = monitor.events
        return err, event

    def test_relayed_pow_428_is_a_drop(
        self, registry, tmp_path, draw_items
    ):
        err, event = self._relay_one(
            registry,
            tmp_path,
            draw_items(1, seed=96)[0],
            kill_all=False,
            pow_difficulty=8,
        )
        assert err.code == 428
        assert event.outcome == "rejected"
        assert event.is_dropped and not event.is_server_error

    def test_no_healthy_shard_503_burns_availability(
        self, registry, tmp_path, draw_items
    ):
        err, event = self._relay_one(
            registry, tmp_path, draw_items(1, seed=97)[0], kill_all=True
        )
        assert err.code == 503
        assert "no healthy shard" in err.reason
        assert event.outcome == "error"
        assert event.error_code == 503
        assert event.is_server_error and not event.is_dropped


class TestMetricsExposition:
    """Satellite: the router's ``/metrics`` exposes per-shard eviction
    and readmission counters, and traced verifies leave exemplars on
    the fleet latency histogram."""

    @staticmethod
    def _fetch_metrics(endpoint):
        import urllib.request

        with urllib.request.urlopen(
            f"http://{endpoint.host}:{endpoint.port}/metrics",
            timeout=10,
        ) as resp:
            return resp.status, resp.read().decode()

    def test_per_shard_eviction_series(
        self, registry, tmp_path, draw_items
    ):
        item = draw_items(1, seed=95)[0]

        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                await client.verify_chip(
                    item.chip,
                    FAMILY,
                    request_id=1,
                    trace="00-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
                )
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, self._fetch_metrics, router.endpoint
            )

        status, text = fleet(registry, tmp_path, fn, n_shards=2)
        assert status == 200
        lines = text.splitlines()
        assert (
            "# TYPE flashmark_fleet_evictions_total counter" in lines
        )
        assert (
            "# TYPE flashmark_fleet_readmissions_total counter"
            in lines
        )
        for shard in ("shard-0", "shard-1"):
            assert (
                f'flashmark_fleet_evictions_total{{shard="{shard}"}} 0'
                in lines
            )
            assert (
                f"flashmark_fleet_readmissions_total"
                f'{{shard="{shard}"}} 0' in lines
            )
        # ordinary registry metrics still render alongside
        assert any(
            line.startswith("flashmark_fleet_requests ")
            for line in lines
        )
        # the traced verify left an exemplar on a latency bucket
        exemplar_lines = [
            line
            for line in lines
            if line.startswith("flashmark_fleet_latency_s_bucket")
            and "# {" in line
        ]
        assert exemplar_lines
        assert any('trace_id="' + "ab" * 16 in l for l in exemplar_lines)
        assert any('shard="shard-' in l for l in exemplar_lines)

    def test_relay_latency_lands_in_a_fine_bucket(
        self, registry, tmp_path, draw_items
    ):
        """The router's latency histogram uses the service buckets, so
        a relayed verify is counted at ``le="0.1"``, not only at 1 s."""
        items = draw_items(3, seed=98)

        async def fn(router):
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                for i, item in enumerate(items):
                    await client.verify_chip(item.chip, FAMILY, request_id=i)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, self._fetch_metrics, router.endpoint
            )

        _, text = fleet(registry, tmp_path, fn, n_shards=2)
        fine = [
            line
            for line in text.splitlines()
            if line.startswith('flashmark_fleet_latency_s_bucket{le="0.1"}')
        ]
        assert len(fine) == 1
        assert int(float(fine[0].split()[1])) >= 1


class TestParitySoak:
    def test_small_parity_soak_passes(self, registry, draw_items):
        report = run_fleet_soak(
            registry,
            FAMILY,
            draw_items(10, seed=93),
            n_shards=2,
            concurrency=4,
            deadline_s=120.0,
        )
        invariants = report.invariants()
        assert report.passed, invariants
        assert invariants["verdict_parity"] is True
        assert report.answered == report.requests == 10
        assert report.drops == 0
        # Both shards saw traffic recorded in the reconciled audit.
        assert report.fleet_audit["chains_ok"] is True
        assert (
            report.fleet_audit["totals"]["verifications"]
            == report.completed
        )


class TestChaosSoak:
    def _run(self, registry, items):
        return run_fleet_soak(
            registry,
            FAMILY,
            items,
            n_shards=3,
            plan=fleet_coverage_plan(seed=5),
            baseline=False,
            deadline_s=180.0,
        )

    def test_chaos_soak_bounded_surfaced_recovered(
        self, registry, draw_items
    ):
        report = self._run(registry, draw_items(14, seed=94))
        invariants = report.invariants()
        assert report.passed, invariants
        assert invariants["fleet_recovered"] is True
        assert invariants["every_fault_surfaced"] is True
        # The schedule fired completely, in its planned order.
        assert report.injected == [
            ("fleet.shard_rejoin", "error", 2),
            ("fleet.shard_kill", "drop", 4),
            ("fleet.shard_rejoin", "drop", 7),
            ("fleet.shard_kill", "error", 11),
        ]
        counters = report.counters
        assert counters.get("fleet.chaos_kills") == 1
        assert counters.get("fleet.chaos_rejoins") == 1
        assert counters.get("fleet.probe_aborts") == 1
        assert counters.get("fleet.injected_route_errors") == 1
        # The injected routing error surfaced as exactly one 503.
        assert report.errors.get(protocol.SERVICE_UNAVAILABLE) == 1
        # Eviction and readmission both completed for the killed shard.
        assert sum(
            v
            for k, v in counters.items()
            if k.startswith("fleet.evictions.")
        ) == 1
        assert sum(
            v
            for k, v in counters.items()
            if k.startswith("fleet.readmissions.")
        ) == 1

    def test_chaos_soak_is_reproducible(self, registry, draw_items):
        first = self._run(registry, draw_items(14, seed=94))
        second = self._run(registry, draw_items(14, seed=94))
        assert first.injected == second.injected
        assert first.verdicts == second.verdicts
        assert first.statistics == second.statistics
        assert first.errors == second.errors
