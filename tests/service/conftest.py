"""Shared fixtures for the verification-service tests.

``traffic_spec`` and ``family_calibration`` come from the top-level
conftest (session scoped — the calibration sweep runs once).
"""

from __future__ import annotations

import base64
import io

import numpy as np
import pytest

from repro.device import save_chip
from repro.service import WatermarkRegistry, protocol

FAMILY = "msp430-test"


def _b64_npz(chip, *, segment=None, compressed=False) -> str:
    """Base64 of a ``.npz`` chip blob, as the JSON form carries it."""
    buf = io.BytesIO()
    save_chip(chip, buf, segment=segment)
    if compressed:
        with np.load(io.BytesIO(buf.getvalue())) as stored:
            arrays = dict(stored)
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
    return base64.b64encode(buf.getvalue()).decode("ascii")


def segment_json_request(chip, family, *, segment):
    """A verify request in the JSON form of the previous release: the
    die cut to ``segment`` as a stored ``.npz``, base64 in a JSON line,
    indexed as segment 0."""
    req = protocol.verify_request(chip, family, segment=segment)
    cut = segment if 0 <= segment < chip.geometry.n_segments else None
    req["chip_b64"] = _b64_npz(chip, segment=cut)
    return req


def whole_die_request(chip, family, *, segment):
    """A verify request in the JSON form earlier clients sent: the
    whole die as ``np.savez_compressed``, indexed by ``segment``."""
    req = protocol.verify_request(chip, family)
    req["chip_b64"] = _b64_npz(chip, compressed=True)
    req["segment"] = segment
    return req


def tiny_chip(seed: int = 0):
    """A die of one 2-byte segment (16 cells): a chip-bytes body of a
    couple of KB, small enough to flip every byte of it."""
    from repro.device import FlashGeometry, Microcontroller
    from repro.device.mcu import SUPPORTED_MODELS
    from repro.phys.constants import PhysicalParams

    model = "MSP430F5438"
    return Microcontroller(
        model=model,
        geometry=FlashGeometry(
            segment_bytes=2, segments_per_bank=1, n_banks=1
        ),
        timing=SUPPORTED_MODELS[model][1],
        params=PhysicalParams(),
        seed=seed,
    )


def result_key(result: dict) -> tuple:
    """The verdict-bearing fields of a served verify result."""
    return tuple(
        result[k]
        for k in ("die_id", "verdict", "statistic", "ber", "reason", "payload")
    )


def report_key(chip, report) -> tuple:
    """:func:`result_key` of a direct ``verify_population`` report."""
    payload = None
    if report.payload is not None:
        payload = {
            "manufacturer": report.payload.manufacturer,
            "die_id": f"0x{report.payload.die_id:012X}",
            "speed_grade": report.payload.speed_grade,
            "status": report.payload.status.name,
        }
    return (
        f"0x{chip.die_id:012X}",
        report.verdict.value,
        report.stressed_outliers / max(1, report.stressed_outlier_limit),
        report.ber,
        report.reason,
        payload,
    )


@pytest.fixture
def registry(tmp_path, family_calibration, traffic_spec):
    """A fresh on-disk registry with the test family published."""
    reg = WatermarkRegistry(tmp_path / "registry.db")
    reg.publish_family(
        FAMILY, family_calibration, traffic_spec.population.format
    )
    yield reg
    reg.close()
