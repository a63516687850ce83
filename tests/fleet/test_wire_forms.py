"""Both binary verify forms through the router — one segment, and the
whole die with ``"segment": k`` — must return what a direct engine call
returns.  The router relays a binary frame's body bytes untouched, and
a verify request sent as a JSON line is refused."""

import asyncio
import base64
import hashlib

import pytest

from repro.core import WatermarkVerifier
from repro.engine import verify_population
from repro.fleet import FleetRouter, InProcessShardManager, RouterConfig
from repro.receipts import mint_ticket
from repro.service import (
    ServiceError,
    VerificationClient,
    VerificationServer,
    protocol,
)
from tests.fleet.conftest import FAMILY
from tests.service.conftest import (
    report_key,
    result_key,
    whole_die_request,
)


async def _with_router(registry, workdir, fn, **shard_kwargs):
    async with InProcessShardManager(
        registry, 2, str(workdir), **shard_kwargs
    ) as shards:
        async with FleetRouter(
            shards, config=RouterConfig(monitoring=False)
        ) as router:
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                return await fn(client)


def test_segment_and_whole_die_forms_match_direct(
    registry, tmp_path, draw_items, traffic_spec, family_calibration
):
    cases = [(item.chip, s) for item in draw_items(3, seed=92) for s in (0, 1)]

    async def fn(client):
        return [
            [await client.call(form(chip, s)) for chip, s in cases]
            for form in (
                lambda chip, s: protocol.verify_request(
                    chip, FAMILY, segment=s
                ),
                lambda chip, s: whole_die_request(chip, FAMILY, segment=s),
            )
        ]

    binary, whole_die = asyncio.run(
        _with_router(registry, tmp_path / "fleet", fn)
    )
    verifier = WatermarkVerifier(
        family_calibration, traffic_spec.population.format
    )
    for (chip, s), a, b in zip(cases, binary, whole_die):
        (report,) = verify_population([chip], verifier, segment=s).results
        assert result_key(a) == result_key(b) == report_key(chip, report)


def test_router_relays_body_bytes_unchanged(
    registry, tmp_path, draw_items, monkeypatch
):
    """The SHA-256 of the body a shard receives is the client's."""
    seen = []
    accept = VerificationServer._accept_verify

    def spy(self, req, writer, write_lock):
        body = req["chip_b64"]
        seen.append((type(body), hashlib.sha256(body).hexdigest()))
        return accept(self, req, writer, write_lock)

    monkeypatch.setattr(VerificationServer, "_accept_verify", spy)
    reqs = [
        protocol.verify_request(item.chip, FAMILY, request_id=i)
        for i, item in enumerate(draw_items(3, seed=93))
    ]

    async def fn(client):
        return [await client.call(req) for req in reqs]

    asyncio.run(_with_router(registry, tmp_path / "fleet", fn))
    assert seen == [
        (bytes, hashlib.sha256(req["chip_b64"]).hexdigest()) for req in reqs
    ]


def test_missing_die_id_answers_400(registry, tmp_path, draw_items):
    """The router routes on the header alone: a verify request without
    ``die_id`` is refused, never hashed on its body."""
    req = protocol.verify_request(draw_items(1, seed=94)[0].chip, FAMILY)
    del req["die_id"]

    async def fn(client):
        with pytest.raises(ServiceError) as err:
            await client.call(req)
        return err.value, await client.ping()

    err, pong = asyncio.run(_with_router(registry, tmp_path / "fleet", fn))
    assert err.code == protocol.BAD_REQUEST
    assert err.reason == "verify request is missing 'die_id'"
    assert pong == {"pong": True, "role": "router"}


def test_json_verify_request_answers_400(registry, tmp_path, draw_items):
    """A verify request sent as a JSON line, its chip as base64 text,
    is refused through the router too; the connection still pongs."""
    req = protocol.verify_request(draw_items(1, seed=95)[0].chip, FAMILY)
    req["chip_b64"] = base64.b64encode(req["chip_b64"]).decode()

    async def fn(client):
        with pytest.raises(ServiceError) as err:
            await client.call(req)
        return err.value, await client.ping()

    err, pong = asyncio.run(_with_router(registry, tmp_path / "fleet", fn))
    assert err.code == protocol.BAD_REQUEST
    assert "binary frame" in err.reason
    assert pong == {"pong": True, "role": "router"}


def test_pow_ticket_for_a_binary_request_spends_once(
    registry, tmp_path, draw_items
):
    """A ticket binds the header and the raw body: accepted once through
    the router, ``replayed`` on resend, and worthless for another body."""
    first, other = (item.chip for item in draw_items(2, seed=96))
    req = protocol.verify_request(first, FAMILY, request_id=1, client="lab")
    req["pow"] = mint_ticket("lab", req, 8)
    swapped = protocol.verify_request(
        other, FAMILY, request_id=1, client="lab"
    )
    swapped["die_id"] = req["die_id"]  # same owner shard
    swapped["pow"] = req["pow"]

    async def fn(client):
        served = await client.call(req)
        outcomes = []
        for again in (req, swapped):
            with pytest.raises(ServiceError) as err:
                await client.call(again)
            outcomes.append(err.value)
        return served, outcomes

    served, (replayed, foreign) = asyncio.run(
        _with_router(registry, tmp_path / "fleet", fn, pow_difficulty=8)
    )
    assert served["die_id"] == req["die_id"]
    assert replayed.code == foreign.code == protocol.POW_REQUIRED
    assert "replayed" in replayed.reason
    assert "weak" in foreign.reason
