"""Batch API: parallel/serial equivalence and manifests.

Every parity test drives the same seeds through the inline path
(``workers=1``) and a real pool (``REPRO_ENGINE_TEST_WORKERS``, default
2) and asserts bit-identical outputs — the engine's core guarantee.
Imprint stress is kept small so the suite stays fast; determinism does
not depend on N_PE.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import Watermark
from repro.core.calibration import FamilyCalibration
from repro.core.imprint import imprint_watermark
from repro.core.verifier import WatermarkFormat
from repro.device import McuFactory, make_mcu
from repro.engine import (
    CalibrationError,
    CalibrationResult,
    VerificationResult,
    calibrate_family,
    verify_population,
)
from repro.telemetry import Telemetry
from repro.workloads import ProductionLine, ProductionResult

WORKERS = int(os.environ.get("REPRO_ENGINE_TEST_WORKERS", "2"))

N_PE = 4000
GRID = tuple(np.arange(16.0, 36.0, 4.0))
FACTORY = McuFactory(model="MSP430F5438", n_segments=1)


@dataclass(frozen=True)
class FailingFactory:
    """A picklable chip factory that refuses certain seeds."""

    fail_seed: int

    def __call__(self, seed: int):
        if seed == self.fail_seed:
            raise RuntimeError(f"no die for seed {seed}")
        return make_mcu(seed=seed, n_segments=1)


class TestCalibrationBatch:
    def test_parallel_matches_serial(self):
        serial = calibrate_family(
            FACTORY, N_PE, n_replicas=7, n_chips=3, t_grid_us=GRID,
            workers=1,
        )
        parallel = calibrate_family(
            FACTORY, N_PE, n_replicas=7, n_chips=3, t_grid_us=GRID,
            workers=WORKERS,
        )
        assert serial.calibration == parallel.calibration
        for a, b in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(a.ber, b.ber)
            assert a.trace.now_us == b.trace.now_us
            assert a.seed == b.seed

    def test_result_shape(self):
        result = calibrate_family(FACTORY, N_PE, t_grid_us=GRID)
        assert isinstance(result, CalibrationResult)
        assert isinstance(result.calibration, FamilyCalibration)
        assert result.failures == []
        assert not result.cache_hit
        assert result.manifest["kind"] == "calibration"

    def test_manifest_reconciles_device_clock(self):
        result = calibrate_family(
            FACTORY, N_PE, n_chips=2, t_grid_us=GRID
        )
        merged_us = result.manifest["device"]["now_us"]
        assert merged_us == pytest.approx(
            sum(s.trace.now_us for s in result.results)
        )
        assert result.manifest["seeds"]["chip_seeds"] == [1000, 1001]

    def test_worker_spans_absorbed_under_sweep(self):
        tel = Telemetry()
        calibrate_family(
            FACTORY, N_PE, n_chips=2, t_grid_us=GRID,
            workers=WORKERS, telemetry=tel,
        )
        stats = tel.span_stats()
        assert stats["calibration.sweep"]["count"] == 1
        assert stats["calibration.sweep/calibration.chip"]["count"] == 2
        chip_device = stats["calibration.sweep/calibration.chip"]["device_us"]
        assert chip_device > 0

    def test_validation_precedes_work(self):
        with pytest.raises(ValueError, match="operating_point"):
            calibrate_family(FACTORY, N_PE, operating_point="left")
        with pytest.raises(ValueError, match="n_chips"):
            calibrate_family(FACTORY, N_PE, n_chips=0)

    def test_failed_chip_raises_calibration_error(self):
        factory = FailingFactory(fail_seed=1001)
        with pytest.raises(CalibrationError, match="chip 1"):
            calibrate_family(
                factory, N_PE, n_chips=2, t_grid_us=GRID, retries=0
            )

    def test_cache_hit_skips_sweep(self, tmp_path):
        from repro.engine import CalibrationCache

        cache = CalibrationCache(tmp_path / "cal.json")
        first = calibrate_family(
            FACTORY, N_PE, t_grid_us=GRID, cache=cache
        )
        second = calibrate_family(
            FACTORY, N_PE, t_grid_us=GRID, cache=cache
        )
        assert not first.cache_hit
        assert second.cache_hit
        assert second.results == []
        assert second.calibration == first.calibration
        assert second.cache_key == first.cache_key
        # A different setting misses.
        third = calibrate_family(
            FACTORY, N_PE, t_grid_us=GRID, cache=cache, seed=1234
        )
        assert not third.cache_hit


class TestProductionBatch:
    def test_parallel_matches_serial(self):
        line = ProductionLine(n_pe=N_PE)
        serial = line.run(4, seed=9, workers=1)
        parallel = line.run(4, seed=9, workers=WORKERS)
        assert serial.ok and parallel.ok
        for a, b in zip(serial.batch, parallel.batch):
            assert a.chip.die_id == b.chip.die_id
            assert a.die_sort == b.die_sort
            assert a.payload == b.payload
            assert a.chip.trace.now_us == b.chip.trace.now_us

    def test_result_shape_and_manifest(self):
        line = ProductionLine(n_pe=N_PE)
        result = line.run(2, seed=3)
        assert isinstance(result, ProductionResult)
        assert len(result.results) == 2
        assert result.manifest["kind"] == "production_batch"
        assert result.manifest["device"]["now_us"] == pytest.approx(
            sum(p.chip.trace.now_us for p in result.batch)
        )
        assert 0.0 <= result.yield_fraction <= 1.0

    def test_span_structure_matches_serial_layout(self):
        line = ProductionLine(n_pe=N_PE)
        tel = Telemetry()
        line.run(3, seed=9, workers=WORKERS, telemetry=tel)
        stats = tel.span_stats()
        assert stats["production.batch"]["count"] == 1
        assert stats["production.batch/production.die"]["count"] == 3
        counters = tel.registry.snapshot()["counters"]
        assert counters["production.dies"] == 3
        assert (
            counters.get("production.accepted", 0)
            + counters.get("production.rejected", 0)
            == 3
        )


class TestVerifyPopulation:
    @pytest.fixture(scope="class")
    def fleet(self):
        calibration = calibrate_family(
            FACTORY, N_PE, n_replicas=7, t_grid_us=GRID
        ).calibration
        watermark = Watermark.ascii_uppercase(
            4, np.random.default_rng(5)
        ).balanced()
        fmt = WatermarkFormat(n_bits=32, n_replicas=7, balanced=True)
        chips = []
        for s in range(3):
            chip = make_mcu(seed=s, n_segments=1)
            imprint_watermark(
                chip.flash, 0, watermark, N_PE,
                n_replicas=7, accelerated=True,
            )
            chips.append(chip)
        return calibration, fmt, chips

    def test_parallel_matches_serial(self, fleet):
        calibration, fmt, chips = fleet
        serial = verify_population(
            chips, calibration=calibration, format=fmt, workers=1
        )
        parallel = verify_population(
            chips, calibration=calibration, format=fmt, workers=WORKERS
        )
        assert serial.verdicts == parallel.verdicts
        assert [r.ber for r in serial.results] == [
            r.ber for r in parallel.results
        ]
        assert serial.manifest["device"]["now_us"] == pytest.approx(
            parallel.manifest["device"]["now_us"]
        )

    def test_inputs_not_mutated(self, fleet):
        calibration, fmt, chips = fleet
        before = [c.trace.now_us for c in chips]
        verify_population(chips, calibration=calibration, format=fmt)
        assert [c.trace.now_us for c in chips] == before

    def test_result_shape(self, fleet):
        calibration, fmt, chips = fleet
        result = verify_population(
            chips, calibration=calibration, format=fmt, seed=0
        )
        assert isinstance(result, VerificationResult)
        assert len(result.results) == len(chips)
        assert result.manifest["kind"] == "verification_batch"
        assert sum(result.verdict_counts.values()) == len(chips)
        assert len(result.manifest["chips"]) == len(chips)

    def test_requires_verifier_or_calibration(self, fleet):
        _, _, chips = fleet
        with pytest.raises(ValueError, match="verifier"):
            verify_population(chips)

    def test_absorbed_spans(self, fleet):
        calibration, fmt, chips = fleet
        tel = Telemetry()
        verify_population(
            chips, calibration=calibration, format=fmt,
            workers=WORKERS, telemetry=tel,
        )
        stats = tel.span_stats()
        assert stats["verify.population"]["count"] == 1
        assert stats["verify.population/verify.chip"]["count"] == len(chips)
