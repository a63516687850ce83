"""Shared fixtures for the verification-service tests.

``traffic_spec`` and ``family_calibration`` come from the top-level
conftest (session scoped — the calibration sweep runs once).
"""

from __future__ import annotations

import base64
import io

import numpy as np
import pytest

from repro.device import chip_to_bytes
from repro.service import WatermarkRegistry, protocol

FAMILY = "msp430-test"


def whole_die_request(chip, family, *, segment):
    """A verify request in the form earlier clients sent: the whole die
    as ``np.savez_compressed``, indexed by ``segment``."""
    req = protocol.verify_request(chip, family)
    with np.load(io.BytesIO(chip_to_bytes(chip))) as stored:
        arrays = dict(stored)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    req["chip_b64"] = base64.b64encode(buf.getvalue()).decode("ascii")
    req["segment"] = segment
    return req


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
