"""Both verify request forms through the router: the one-segment stored
blob clients send now, and the whole-die compressed blob of earlier
clients, must return what a direct engine call returns."""

import asyncio

from repro.core import WatermarkVerifier
from repro.engine import verify_population
from repro.fleet import FleetRouter, InProcessShardManager, RouterConfig
from repro.service import VerificationClient
from tests.fleet.conftest import FAMILY
from tests.service.conftest import (
    report_key,
    result_key,
    whole_die_request,
)


async def _through_router(registry, workdir, cases):
    async with InProcessShardManager(registry, 2, str(workdir)) as shards:
        async with FleetRouter(
            shards, config=RouterConfig(monitoring=False)
        ) as router:
            async with await VerificationClient.connect(
                router.endpoint
            ) as client:
                new = [
                    await client.verify_chip(chip, FAMILY, segment=s)
                    for chip, s in cases
                ]
                old = [
                    await client.call(
                        whole_die_request(chip, FAMILY, segment=s)
                    )
                    for chip, s in cases
                ]
    return new, old


def test_segment_and_whole_die_forms_match_direct(
    registry, tmp_path, draw_items, traffic_spec, family_calibration
):
    cases = [(item.chip, s) for item in draw_items(3, seed=92) for s in (0, 1)]
    new, old = asyncio.run(
        _through_router(registry, tmp_path / "fleet", cases)
    )
    verifier = WatermarkVerifier(
        family_calibration, traffic_spec.population.format
    )
    for (chip, s), a, b in zip(cases, new, old):
        (report,) = verify_population([chip], verifier, segment=s).results
        assert result_key(a) == result_key(b) == report_key(chip, report)
