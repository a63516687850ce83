"""End-to-end distributed-tracing tests for the verification service.

The full propagation chain under test: a client mints a root context,
carries it in the wire ``trace`` field, the server threads it through
queue -> micro-batch -> engine pool worker -> registry write, and the
assembler re-threads the spans from both sides into one complete tree.
"""

import asyncio

import pytest

from repro.service import (
    LoadClient,
    ServerConfig,
    VerificationClient,
    VerificationServer,
)
from repro.telemetry import ListSink, Telemetry
from repro.trace import SERVER_STAGES, TraceContext, assemble_traces
from repro.workloads.traffic import TrafficGenerator
from tests.service.conftest import FAMILY


def run(coro):
    return asyncio.run(coro)


def _spans(*sinks):
    return [
        rec
        for sink in sinks
        for rec in sink.records
        if rec.get("type") == "span"
    ]


async def _serve_traced(registry, fn, **config_kwargs):
    sink = ListSink()
    tel = Telemetry(sink=sink)
    async with VerificationServer(
        registry,
        config=ServerConfig(**config_kwargs),
        telemetry=tel,
    ) as server:
        result = await fn(server)
    return result, sink


class TestSingleRequest:
    def test_trace_threads_client_to_registry(self, registry, traffic_spec):
        chip = TrafficGenerator(traffic_spec, seed=11).draw(1)[0].chip
        root = TraceContext.new_root()

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                return await client.verify_chip(chip, FAMILY, trace=root)

        (result, server_sink) = run(_serve_traced(registry, fn, port=0))
        assert result["verdict"] in ("authentic", "counterfeit")
        # server echoes its own context under our trace
        assert result["trace"].split("-")[1] == root.trace_id

        records = _spans(server_sink)
        # the client span was never recorded (no client telemetry
        # here), so add it by hand to close the tree at the root
        records.append(
            {
                "name": "client.request",
                "trace_id": root.trace_id,
                "span_id": root.span_id,
                "parent_id": None,
                "t0_unix_s": 0.0,
                "wall_s": 1.0,
            }
        )
        docs = assemble_traces(records)
        assert len(docs) == 1
        doc = docs[0]
        assert doc["complete"], doc["orphans"]
        assert {"server", "queue_wait", "batch_wait", "decode",
                "engine", "engine_worker", "registry"} <= set(doc["stages"])

    def test_request_without_trace_field_still_served(self, registry,
                                                      traffic_spec):
        """Backward compat: the ``trace`` field is optional."""
        chip = TrafficGenerator(traffic_spec, seed=12).draw(1)[0].chip

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                return await client.verify_chip(chip, FAMILY)

        (result, server_sink) = run(_serve_traced(registry, fn, port=0))
        assert result["verdict"] in ("authentic", "counterfeit")
        # server mints its own root; spans still form one trace
        records = _spans(server_sink)
        assert records
        docs = assemble_traces(records)
        assert len(docs) == 1
        assert docs[0]["root"]["name"] == "server.request"
        assert docs[0]["complete"]

    def test_malformed_trace_degrades_to_fresh_root(self, registry,
                                                    traffic_spec):
        """A damaged traceparent must not 400 the request."""
        chip = TrafficGenerator(traffic_spec, seed=13).draw(1)[0].chip

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                return await client.verify_chip(
                    chip, FAMILY, trace="completely-bogus"
                )

        (result, server_sink) = run(_serve_traced(registry, fn, port=0))
        assert result["verdict"] in ("authentic", "counterfeit")
        docs = assemble_traces(_spans(server_sink))
        assert len(docs) == 1
        assert docs[0]["complete"]
        assert docs[0]["trace_id"] != "completely-bogus"

    def test_tracing_disabled_records_no_spans(self, registry,
                                               traffic_spec):
        chip = TrafficGenerator(traffic_spec, seed=14).draw(1)[0].chip
        root = TraceContext.new_root()

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                return await client.verify_chip(chip, FAMILY, trace=root)

        (result, server_sink) = run(
            _serve_traced(registry, fn, port=0, tracing=False)
        )
        assert result["verdict"] in ("authentic", "counterfeit")
        assert "trace" not in result
        traced = [r for r in _spans(server_sink) if r.get("trace_id")]
        assert traced == []


class TestTracedLoad:
    @pytest.fixture
    def traced_run(self, registry, traffic_spec):
        client_sink = ListSink()

        async def fn(server):
            load = LoadClient(
                server.endpoint,
                FAMILY,
                traffic=TrafficGenerator(traffic_spec, seed=21),
                telemetry=Telemetry(sink=client_sink),
                trace=True,
            )
            return await load.run_closed_loop(8, concurrency=3)

        (report, server_sink) = run(_serve_traced(registry, fn, port=0))
        docs = assemble_traces(_spans(server_sink, client_sink))
        return report, docs

    def test_every_request_yields_complete_trace(self, traced_run):
        report, docs = traced_run
        assert report.completed == report.requests == 8
        assert len(report.trace_by_index) == 8
        by_id = {d["trace_id"]: d for d in docs}
        for tid in report.trace_by_index.values():
            doc = by_id[tid]
            assert doc["complete"], doc["orphans"]
            assert doc["root"]["name"] == "client.request"
            assert {"client", "server", "engine",
                    "engine_worker", "registry"} <= set(doc["stages"])

    def test_zero_orphans_across_run(self, traced_run):
        _, docs = traced_run
        assert sum(len(d["orphans"]) for d in docs) == 0

    def test_stage_breakdown_reconciles_with_client_latency(
        self, traced_run
    ):
        """Server stages partition server wall; client wall covers it."""
        _, docs = traced_run
        for doc in docs:
            stages = doc["stages"]
            server_wall = stages["server"]["wall_s"]
            attributed = sum(
                stages[s]["wall_s"] for s in SERVER_STAGES if s in stages
            )
            assert attributed <= server_wall + 1e-6
            assert doc["unattributed_s"] >= 0
            # client-observed latency bounds the server-side wall
            # (wire + loop-scheduling overhead rides on top)
            assert stages["client"]["wall_s"] >= server_wall - 1e-6

    def test_worker_spans_carry_device_time(self, traced_run):
        _, docs = traced_run
        for doc in docs:
            assert doc["stages"]["engine_worker"]["device_us"] > 0

    def test_stage_histograms_observed(self, registry, traffic_spec):
        sink = ListSink()

        async def fn(server):
            load = LoadClient(
                server.endpoint,
                FAMILY,
                traffic=TrafficGenerator(traffic_spec, seed=22),
            )
            await load.run_closed_loop(4, concurrency=2)
            return server.telemetry.registry.snapshot()

        (snapshot, _) = run(_serve_traced(registry, fn, port=0))
        hists = snapshot["histograms"]
        for stage in ("queue_wait", "decode", "engine", "registry"):
            name = f"service.stage.{stage}_s"
            assert name in hists, sorted(hists)
            assert hists[name]["count"] >= 4


class TestStageBoundaries:
    def test_batch_linger_is_booked_as_batch_wait(
        self, registry, traffic_spec
    ):
        """``queue_wait`` ends when the batcher dequeues a request; the
        ``batch_window_s`` linger for companions that follows is
        ``batch_wait``."""
        chip = TrafficGenerator(traffic_spec, seed=15).draw(1)[0].chip

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                await client.verify_chip(chip, FAMILY)
            return server.telemetry.registry.snapshot()["histograms"]

        (hists, _) = run(
            _serve_traced(registry, fn, port=0, batch_window_s=0.2)
        )
        batch_wait = hists["service.stage.batch_wait_s"]
        queue_wait = hists["service.stage.queue_wait_s"]
        assert batch_wait["count"] == queue_wait["count"] == 1
        # The window closes on the event-loop clock; allow its timer
        # resolution, nothing more.
        assert batch_wait["sum"] >= 0.2 - 1e-3
        assert queue_wait["sum"] < 0.05
