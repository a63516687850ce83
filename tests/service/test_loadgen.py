"""Tests for the load generator and its report."""

import asyncio

import pytest

from repro.monitor.window import nearest_rank as percentile
from repro.service import (
    LoadClient,
    LoadReport,
    ServerConfig,
    VerificationServer,
)
from repro.workloads.traffic import TrafficGenerator
from tests.service.conftest import FAMILY


class TestPercentile:
    """The nearest-rank percentile the load report's latency quantiles use."""

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 1) == 1.0

    def test_empty(self):
        import math

        assert math.isnan(percentile([], 50))

    def test_q_clamped_to_range(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -5) == 1.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 150) == 3.0

    def test_tiny_samples_return_real_elements(self):
        # n=1: every q degrades to the single sample.
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0
        # n=2: p50 is the lower sample, the tail the upper one.
        assert percentile([1.0, 9.0], 50) == 1.0
        assert percentile([1.0, 9.0], 95) == 9.0
        assert percentile([1.0, 9.0], 99) == 9.0


class TestLoadReport:
    def test_derived_quantities(self):
        report = LoadReport(
            mode="closed",
            family="f",
            requests=4,
            latencies_s=[0.010, 0.020, 0.030],
            errors={429: 1},
            wall_s=0.5,
        )
        assert report.completed == 3
        assert report.rejected == 1
        assert report.throughput_rps == pytest.approx(6.0)
        summary = report.latency_summary()
        assert summary["count"] == 3
        assert summary["p50_ms"] == pytest.approx(20.0)
        assert summary["max_ms"] == pytest.approx(30.0)
        d = report.to_dict()
        assert d["errors_by_code"] == {"429": 1}
        assert d["throughput_rps"] == pytest.approx(6.0)

    def test_empty_latency_summary(self):
        assert LoadReport(
            mode="open", family="f", requests=0
        ).latency_summary() == {"count": 0, "n": 0}

    def test_summary_fields_and_tiny_samples(self):
        summary = LoadReport(
            mode="open", family="f", requests=1, latencies_s=[0.004]
        ).latency_summary()
        # n duplicates count (the monitor windows' field name) and
        # every percentile degrades to the lone sample.
        assert summary["n"] == summary["count"] == 1
        assert summary["min_ms"] == pytest.approx(4.0)
        assert summary["p50_ms"] == pytest.approx(4.0)
        assert summary["p99_ms"] == pytest.approx(4.0)
        assert summary["max_ms"] == pytest.approx(4.0)

        two = LoadReport(
            mode="open", family="f", requests=2,
            latencies_s=[0.010, 0.002],
        ).latency_summary()
        assert two["min_ms"] == pytest.approx(2.0)
        assert two["p50_ms"] == pytest.approx(2.0)
        assert two["p95_ms"] == pytest.approx(10.0)
        assert two["mean_ms"] == pytest.approx(6.0)


class TestOpenLoop:
    def test_open_loop_run(self, registry, traffic_spec):
        gen = TrafficGenerator(traffic_spec, seed=90)

        async def fn():
            async with VerificationServer(
                registry, config=ServerConfig()
            ) as server:
                load = LoadClient(
                    server.endpoint, FAMILY, traffic=gen
                )
                return await load.run_open_loop(
                    10, rate_hz=40.0, connections=4
                )

        report = asyncio.run(fn())
        assert report.mode == "open"
        assert report.rate_hz == 40.0
        assert report.completed + report.rejected == 10
        assert report.completed > 0
        assert report.wall_s > 0

    def test_bad_rate_rejected(self, registry):
        load = LoadClient("127.0.0.1:1", FAMILY)
        with pytest.raises(ValueError, match="rate_hz"):
            asyncio.run(load.run_open_loop(1, rate_hz=0.0))

    def test_bad_concurrency_rejected(self):
        load = LoadClient("127.0.0.1:1", FAMILY)
        with pytest.raises(ValueError, match="concurrency"):
            asyncio.run(load.run_closed_loop(1, concurrency=0))


class TestManifest:
    def test_loadgen_manifest_shape(self, registry, traffic_spec):
        gen = TrafficGenerator(traffic_spec, seed=91)

        async def fn():
            async with VerificationServer(
                registry, config=ServerConfig()
            ) as server:
                load = LoadClient(
                    server.endpoint, FAMILY, traffic=gen
                )
                report = await load.run_closed_loop(6, concurrency=3)
                return load.build_manifest(report)

        manifest = asyncio.run(fn())
        assert manifest["kind"] == "loadgen"
        assert manifest["parameters"]["family"] == FAMILY
        assert manifest["seeds"]["traffic_seed"] == 91
        load_block = manifest["load"]
        assert load_block["completed"] == 6
        assert load_block["latency"]["count"] == 6
        assert "p99_ms" in load_block["latency"]
        # The telemetry gauges mirror the report.
        gauges = manifest["metrics"]["gauges"]
        assert gauges["loadgen.p95_ms"] == pytest.approx(
            load_block["latency"]["p95_ms"]
        )
        assert gauges["loadgen.throughput_rps"] == pytest.approx(
            load_block["throughput_rps"]
        )
