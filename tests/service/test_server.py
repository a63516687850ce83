"""Tests for the asyncio verification server.

Includes the subsystem's acceptance test: a seeded closed-loop load run
of 500 requests that must complete with zero drops and verdicts
one-to-one identical to direct :func:`repro.engine.verify_population`
calls on the same chips.
"""

import asyncio
import base64
import json
import struct
import urllib.error
import urllib.request

import pytest

from repro.core import WatermarkVerifier
from repro.device import chip_to_bytes, make_mcu
from repro.engine import verify_population
from repro.service import protocol
from repro.service import (
    LoadClient,
    ServerConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
)
from repro.workloads.traffic import TrafficGenerator, TrafficSpec
from tests.service.conftest import (
    FAMILY,
    report_key,
    result_key,
    tiny_chip,
    whole_die_request,
)


def run(coro):
    return asyncio.run(coro)


async def _with_server(registry, config, fn):
    async with VerificationServer(registry, config=config) as server:
        return await fn(server)


def serve(registry, fn, **config_kwargs):
    """Run ``fn(server)`` against a fresh server on an ephemeral port."""
    return run(
        _with_server(registry, ServerConfig(**config_kwargs), fn)
    )


class TestOps:
    def test_ping_stats_families(self, registry):
        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                pong = await client.ping()
                stats = await client.stats()
                families = await client.families()
            return pong, stats, families

        pong, stats, families = serve(registry, fn)
        assert pong == {"pong": True}
        assert stats["wire_schema"] == "flashmark.wire/v1"
        assert stats["registry"]["families"] == 1
        assert [f["family_id"] for f in families] == [FAMILY]

    def test_unknown_op_rejected(self, registry):
        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call({"op": "frobnicate"})
            return err.value

        assert serve(registry, fn).code == 400

    def test_garbage_line_rejected(self, registry):
        async def fn(server):
            reader, writer = await asyncio.open_connection(
                *server.address
            )
            writer.write(b"{this is not json\n")
            await writer.drain()
            frame = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return frame

        frame = serve(registry, fn)
        assert frame["ok"] is False
        assert frame["error"]["code"] == 400


class TestVerify:
    def test_single_genuine_chip(self, registry, traffic_spec):
        item = TrafficGenerator(traffic_spec, seed=60).draw(1)[0]

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                result = await client.verify_chip(
                    item.chip, FAMILY, request_id=1, client="lab"
                )
                history = await client.history(result["die_id"])
            return result, history

        result, history = serve(registry, fn)
        assert result["verdict"] in item.expected_verdicts
        assert result["die_id"] == f"0x{item.chip.die_id:012X}"
        assert result["family"] == FAMILY
        assert result["signature_checked"] is False
        assert result["history_seq"] == history[0]["seq"]
        assert history[0]["verdict"] == result["verdict"]
        assert history[0]["client"] == "lab"

    def test_unknown_family_404(self, registry, traffic_spec):
        item = TrafficGenerator(traffic_spec, seed=61).draw(1)[0]

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.verify_chip(item.chip, "no-such-family")
            return err.value

        assert serve(registry, fn).code == 404

    def test_missing_family_400(self, registry):
        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call(
                        {"op": "verify", "chip_b64": "aGk="}
                    )
            return err.value

        assert serve(registry, fn).code == 400

    def test_corrupt_chip_blob_400_and_connection_survives(
        self, registry
    ):
        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call(
                        {
                            "op": "verify",
                            "family": FAMILY,
                            "chip_b64": b"not a chip",
                        }
                    )
                pong = await client.ping()
            return err.value, pong

        err, pong = serve(registry, fn)
        assert err.code == 400
        assert "undecodable" in err.reason
        assert pong == {"pong": True}

    def test_unverifiable_die_fails_typed_and_batch_mates_served(
        self, registry
    ):
        """A 1-segment die asked for ``segment: 1`` fails with the serial
        controller's error line, while the 2-segment dies sharing its
        micro-batch are verified."""
        chips = [
            make_mcu(seed=300, n_segments=2),
            make_mcu(seed=301, n_segments=1),
            make_mcu(seed=302, n_segments=2),
        ]

        async def fn(server):
            async def one(k):
                # Staggered arrivals fix the order inside the batch:
                # the bad die lands between its two batch mates.
                await asyncio.sleep(0.05 * k)
                async with await VerificationClient.connect(
                    server.endpoint
                ) as client:
                    try:
                        return await client.verify_chip(
                            chips[k], FAMILY, request_id=k, segment=1
                        )
                    except ServiceError as exc:
                        return exc

            return await asyncio.gather(*(one(k) for k in range(3)))

        first, bad, last = serve(registry, fn, batch_window_s=0.5)
        assert isinstance(bad, ServiceError)
        assert bad.code == protocol.INTERNAL_ERROR
        assert "FlashAddressError" in bad.reason
        for served in (first, last):
            assert not isinstance(served, ServiceError), served
            assert served["die_id"] in (
                f"0x{chips[0].die_id:012X}",
                f"0x{chips[2].die_id:012X}",
            )


class TestWireForms:
    """A request ships one segment as a binary frame; a binary frame
    carrying the whole die with ``"segment": k`` verifies the same.
    Both verify exactly as the engine does."""

    def test_segment_and_whole_die_forms_match_direct(
        self, registry, traffic_spec, family_calibration
    ):
        items = TrafficGenerator(traffic_spec, seed=80).draw(3)
        cases = [(item.chip, s) for item in items for s in (0, 1)]

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                binary = [
                    await client.verify_chip(chip, FAMILY, segment=s)
                    for chip, s in cases
                ]
                whole_die = [
                    await client.call(
                        whole_die_request(chip, FAMILY, segment=s)
                    )
                    for chip, s in cases
                ]
            return binary, whole_die

        binary, whole_die = serve(registry, fn)
        verifier = WatermarkVerifier(
            family_calibration, traffic_spec.population.format
        )
        for (chip, s), a, b in zip(cases, binary, whole_die):
            (report,) = verify_population([chip], verifier, segment=s).results
            assert result_key(a) == result_key(b) == report_key(chip, report)

    def test_json_verify_request_400_and_connection_survives(
        self, registry
    ):
        """A verify request sent as a JSON line, its chip as base64
        text, is refused; the connection still pongs."""
        chip = make_mcu(seed=312, n_segments=1)
        req = protocol.verify_request(chip, FAMILY)
        req["chip_b64"] = base64.b64encode(req["chip_b64"]).decode()

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call(req)
                return err.value, await client.ping()

        err, pong = serve(registry, fn)
        assert err.code == protocol.BAD_REQUEST
        assert "binary frame" in err.reason
        assert pong == {"pong": True}

    def test_large_die_verifies_over_the_wire(
        self, registry, traffic_spec, family_calibration
    ):
        """A 128-segment die used to need a ~26 MB frame, over the
        16 MB cap; one segment of it travels in ~0.24 MB."""
        chip = make_mcu(seed=310, n_segments=128)
        assert len(chip_to_bytes(chip)) > protocol.MAX_FRAME_BYTES
        frame = protocol.encode_frame(
            protocol.verify_request(chip, FAMILY, segment=77)
        )
        assert len(frame) < 240_000

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                return await client.verify_chip(chip, FAMILY, segment=77)

        result = serve(registry, fn)
        verifier = WatermarkVerifier(
            family_calibration, traffic_spec.population.format
        )
        (report,) = verify_population([chip], verifier, segment=77).results
        assert result_key(result) == report_key(chip, report)

    def test_bit_flipped_blob_400_and_connection_survives(self, registry):
        chip = make_mcu(seed=311, n_segments=2)
        req = protocol.verify_request(chip, FAMILY, segment=1)
        raw = bytearray(req["chip_b64"])
        raw[len(raw) // 2] ^= 0x10  # inside a cell array
        req["chip_b64"] = bytes(raw)

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.call(req)
                pong = await client.ping()
            return err.value, pong

        err, pong = serve(registry, fn)
        assert err.code == protocol.BAD_REQUEST
        assert "undecodable chip blob" in err.reason
        assert pong == {"pong": True}

    def test_every_body_byte_flip_400_then_pong(self, registry):
        """Flip each byte of a binary frame's body in turn: every such
        frame fails alone with 400, and the connection still pongs."""
        req = protocol.verify_request(tiny_chip(5), FAMILY)
        body = req["chip_b64"]
        frames = []
        for offset in range(len(body)):
            damaged = bytearray(body)
            damaged[offset] ^= 0x01
            frames.append(
                protocol.encode_frame(
                    dict(req, id=offset, chip_b64=bytes(damaged))
                )
            )

        async def fn(server):
            reader, writer = await asyncio.open_connection(
                *server.address, limit=protocol.MAX_FRAME_BYTES
            )
            writer.write(b"".join(frames))
            writer.write(protocol.encode_frame({"op": "ping", "id": "p"}))
            await writer.drain()
            replies = [
                json.loads(await reader.readline())
                for _ in range(len(frames) + 1)
            ]
            writer.close()
            await writer.wait_closed()
            return replies

        replies = serve(
            registry, fn, queue_depth=len(frames) + 1, batch_window_s=0.0
        )
        pong = [r for r in replies if r["id"] == "p"]
        assert pong == [protocol.ok_response("p", {"pong": True})]
        errors = {r["id"]: r for r in replies if r["id"] != "p"}
        assert sorted(errors) == list(range(len(body)))
        for reply in errors.values():
            assert reply["error"]["code"] == protocol.BAD_REQUEST
            assert "undecodable chip blob" in reply["error"]["reason"]

    def test_declared_length_over_cap_400_connection_lives(
        self, registry
    ):
        """A binary frame declaring more than the cap is discarded, all
        of its declared bytes, without buffering them; the next frame
        on the connection is served."""
        header = b"{}"
        body_len = protocol.MAX_FRAME_BYTES
        prefix = struct.pack(
            "<4sII", protocol.FRAME_MAGIC, len(header), body_len
        )

        async def fn(server):
            reader, writer = await asyncio.open_connection(
                *server.address
            )
            writer.write(prefix + header + bytes(body_len))
            writer.write(protocol.encode_frame({"op": "ping", "id": 2}))
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            counters = server.telemetry.registry.snapshot()["counters"]
            return first, second, counters

        first, second, counters = serve(registry, fn)
        assert first["error"]["code"] == protocol.BAD_REQUEST
        assert "exceeds" in first["error"]["reason"]
        assert second == protocol.ok_response(2, {"pong": True})
        assert counters["service.rejected.oversized"] == 1

    def test_frame_truncated_at_eof_neither_hangs_nor_crashes(
        self, registry
    ):
        frame = protocol.encode_frame(
            protocol.verify_request(make_mcu(seed=312, n_segments=1), FAMILY)
        )

        async def fn(server):
            replies = []
            for cut in (3, 10, len(frame) // 2, len(frame) - 1):
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                writer.write(frame[:cut])
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                replies.append(
                    [json.loads(line) for line in raw.splitlines()]
                )
                writer.close()
                await writer.wait_closed()
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                pong = await client.ping()
            return replies, pong

        replies, pong = serve(registry, fn)
        for reply in replies:
            assert [r["error"]["code"] for r in reply] == [
                protocol.BAD_REQUEST
            ]
        assert pong == {"pong": True}


class TestBackpressure:
    def test_queue_overflow_rejects_instead_of_hanging(
        self, registry, traffic_spec
    ):
        """Past the queue bound, excess requests get immediate 429s."""
        items = TrafficGenerator(traffic_spec, seed=62).draw(8)

        async def fn(server):
            async def one(item):
                async with await VerificationClient.connect(
                    server.endpoint
                ) as client:
                    try:
                        result = await asyncio.wait_for(
                            client.verify_chip(
                                item.chip, FAMILY, request_id=item.index
                            ),
                            timeout=30.0,
                        )
                        return ("ok", result["verdict"])
                    except ServiceError as exc:
                        return ("error", exc.code)

            return await asyncio.gather(*(one(i) for i in items))

        # queue_depth=1 and a slow batcher window: with 8 concurrent
        # one-shot clients, most must be turned away at admission.
        outcomes = serve(
            registry,
            fn,
            queue_depth=1,
            max_batch=1,
            batch_window_s=0.5,
        )
        rejected = [o for o in outcomes if o[0] == "error"]
        served = [o for o in outcomes if o[0] == "ok"]
        assert served, "at least one request must be admitted"
        assert rejected, "overflow must produce 429 rejections"
        assert all(code == 429 for _, code in rejected)

    def test_rate_limit_429(self, registry, traffic_spec):
        item = TrafficGenerator(traffic_spec, seed=63).draw(1)[0]

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                first = await client.verify_chip(
                    item.chip, FAMILY, client="greedy"
                )
                with pytest.raises(ServiceError) as err:
                    await client.verify_chip(
                        item.chip, FAMILY, client="greedy"
                    )
            return first, err.value

        first, err = serve(
            registry,
            fn,
            rate_capacity=1.0,
            rate_refill_per_s=0.001,
        )
        assert first["verdict"]
        assert err.code == 429
        assert "rate limit" in err.reason


class TestHttpSidecar:
    def test_healthz_and_metrics(self, registry, traffic_spec):
        item = TrafficGenerator(traffic_spec, seed=64).draw(1)[0]

        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                await client.verify_chip(item.chip, FAMILY)
            host, port = server.address

            def fetch(path):
                try:
                    with urllib.request.urlopen(
                        f"http://{host}:{port}{path}", timeout=10
                    ) as resp:
                        return resp.status, resp.read().decode()
                except urllib.error.HTTPError as err:
                    return err.code, ""

            loop = asyncio.get_running_loop()
            health = await loop.run_in_executor(
                None, fetch, "/healthz"
            )
            metrics = await loop.run_in_executor(
                None, fetch, "/metrics"
            )
            missing = await loop.run_in_executor(None, fetch, "/nope")
            return health, metrics, missing

        (hs, hbody), (ms, mbody), (ns, _) = serve(registry, fn)
        assert hs == 200
        health = json.loads(hbody)
        assert health["status"] == "ok"
        assert health["registry"]["families"] == 1
        assert ms == 200
        assert "flashmark_service_requests 1" in mbody
        assert "flashmark_service_latency_s_bucket" in mbody
        assert ns == 404


class TestAcceptance:
    """The PR's acceptance run: 500 closed-loop requests, no drops,
    verdicts identical to the direct engine path."""

    def test_closed_loop_500_requests(
        self, registry, traffic_spec, family_calibration
    ):
        gen = TrafficGenerator(traffic_spec, seed=4242)
        items = gen.draw(500)

        async def fn(server):
            load = LoadClient(
                server.endpoint, FAMILY, traffic=gen
            )
            report = await load.run_closed_loop(
                len(items), concurrency=16, items=items
            )
            manifest = load.build_manifest(report)
            stats = server.stats()
            return report, manifest, stats

        # Closed-loop concurrency below queue_depth: the server must
        # never drop a request.
        report, manifest, stats = serve(
            registry, fn, queue_depth=64, max_batch=16
        )

        assert report.requests == 500
        assert report.completed == 500
        assert report.rejected == 0
        assert report.errors == {}
        # Marginal genuine dies can fail single-read extraction (the
        # false-rejection fallout the paper accepts); it must stay a
        # rare event, and every mismatch must be of that one shape.
        assert len(report.mismatches) <= 5  # <= 1% of the run
        assert all(
            got == "counterfeit" and expected == ("authentic",)
            for _, got, expected in report.mismatches
        )

        # Verdict-for-verdict identical to the direct engine path —
        # including the marginal chips: the service must not add or
        # remove any fallout.
        verifier = WatermarkVerifier(
            family_calibration, traffic_spec.population.format
        )
        reference = verify_population(
            [i.chip for i in items], verifier, segment=0, n_reads=1
        )
        assert not reference.failures
        for item, expected in zip(items, reference.results):
            assert (
                report.verdict_by_index[item.index]
                == expected.verdict.value
            )

        # Latency percentiles and throughput land in the manifest.
        load_block = manifest["load"]
        assert load_block["completed"] == 500
        latency = load_block["latency"]
        assert latency["count"] == 500
        assert (
            0
            < latency["p50_ms"]
            <= latency["p95_ms"]
            <= latency["p99_ms"]
            <= latency["max_ms"]
        )
        assert load_block["throughput_rps"] > 0
        assert manifest["kind"] == "loadgen"
        assert manifest["seeds"]["traffic_seed"] == 4242

        # And the server side agrees on the accounting.
        counters = stats["counters"]
        assert counters["service.admitted"] == 500
        assert stats["max_queue_depth"] <= 64
        assert (
            sum(
                v
                for k, v in counters.items()
                if k.startswith("service.verdict.")
            )
            == 500
        )


class TestOversizedFrames:
    """The frame cap is enforced at read time: an oversized frame earns
    a 400 response and the connection keeps serving (it used to
    overflow the asyncio stream limit and die)."""

    def test_oversized_frame_answers_400_and_survives(self, registry):
        async def fn(server):
            reader, writer = await asyncio.open_connection(
                *server.address
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
            stats = server.stats()
            return rejection, pong, stats

        rejection, pong, stats = serve(registry, fn)
        assert rejection["ok"] is False
        assert rejection["error"]["code"] == 400
        assert "cap" in rejection["error"]["reason"]
        assert pong["result"] == {"pong": True}
        assert stats["counters"]["service.rejected.oversized"] == 1

    def test_client_rejects_oversized_request_before_send(self, registry):
        async def fn(server):
            async with await VerificationClient.connect(
                server.endpoint
            ) as client:
                too_big = {
                    "op": "verify",
                    "family": FAMILY,
                    "chip_b64": "A" * (protocol.MAX_FRAME_BYTES + 1),
                }
                with pytest.raises(protocol.FrameTooLarge):
                    await client.request(too_big)
                # Nothing hit the wire; the connection still works.
                return await client.ping()

        assert serve(registry, fn) == {"pong": True}
