"""Tests for the die-sort production line."""

import dataclasses

import pytest

from repro.core import ChipStatus, Verdict, WatermarkVerifier
from repro.engine import calibrate_family
from repro.device import make_mcu
from repro.phys import PhysicalParams
from repro.telemetry import Telemetry
from repro.workloads import (
    DieSortSpec,
    ProductionLine,
    PopulationSpec,
    ChipKind,
    batch_manifest,
    run_die_sort,
)


class TestDieSort:
    def test_nominal_die_passes(self):
        chip = make_mcu(seed=77, n_segments=1)
        result = run_die_sort(chip)
        assert result.passed
        assert result.full_erase_us is not None
        assert result.full_erase_us < 60.0

    def test_slow_erase_die_fails(self):
        base = PhysicalParams()
        slow = base.with_overrides(
            cell=dataclasses.replace(
                base.cell, erase_tau_us=base.cell.erase_tau_us * 3.0
            )
        )
        chip = make_mcu(seed=78, params=slow, n_segments=1)
        result = run_die_sort(chip)
        assert not result.passed
        assert "full-erase" in result.reason

    def test_noisy_die_fails(self):
        base = PhysicalParams()
        noisy = base.with_overrides(
            noise=dataclasses.replace(
                base.noise, read_sigma_v=base.noise.read_sigma_v * 5.0
            )
        )
        chip = make_mcu(seed=79, params=noisy, n_segments=1)
        result = run_die_sort(chip)
        assert not result.passed
        assert "unstable" in result.reason

    def test_spec_is_tunable(self):
        chip = make_mcu(seed=80, n_segments=1)
        strict = DieSortSpec(max_full_erase_us=5.0)
        assert not run_die_sort(chip, strict).passed


class TestProductionLine:
    @pytest.fixture(scope="class")
    def batch(self):
        line = ProductionLine(outlier_fraction=0.4, n_pe=40_000)
        return line.run(8, seed=9).batch

    def test_status_matches_die_sort(self, batch):
        for produced in batch:
            expected = (
                ChipStatus.ACCEPT
                if produced.die_sort.passed
                else ChipStatus.REJECT
            )
            assert produced.payload.status is expected

    def test_some_of_each(self, batch):
        outcomes = {p.die_sort.passed for p in batch}
        assert outcomes == {True, False}

    def test_yield_fraction(self, batch):
        y = ProductionLine.yield_fraction(batch)
        assert 0.0 < y < 1.0
        assert y == sum(p.die_sort.passed for p in batch) / len(batch)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ProductionLine.yield_fraction([])

    def test_batch_manifest_aggregates_sockets(self):
        telemetry = Telemetry()
        line = ProductionLine(outlier_fraction=0.4, n_pe=10_000)
        batch = line.run(4, seed=9, telemetry=telemetry).batch
        manifest = batch_manifest(batch, telemetry=telemetry, line=line)

        assert manifest["kind"] == "production_batch"
        assert manifest["parameters"]["n_chips"] == 4
        assert manifest["parameters"]["n_pe"] == 10_000
        assert len(manifest["dies"]) == 4
        assert manifest["accepted"] + manifest["rejected"] == 4
        assert manifest["yield"] == ProductionLine.yield_fraction(batch)
        # The merged batch trace sums every socket's device clock.
        total_us = sum(p.chip.trace.now_us for p in batch)
        assert manifest["device"]["now_us"] == pytest.approx(total_us)
        # Spans and counters recorded one entry per die.
        stats = manifest["span_stats"]
        assert stats["production.batch/production.die"]["count"] == 4
        assert manifest["metrics"]["counters"]["production.dies"] == 4

    def test_batch_manifest_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            batch_manifest([])

    def test_produce_without_telemetry_unchanged(self):
        # The ambient default is disabled telemetry: no spans recorded.
        line = ProductionLine(outlier_fraction=0.0, n_pe=5_000)
        batch = line.run(1, seed=3).batch
        assert len(batch) == 1
        manifest = batch_manifest(batch)
        assert manifest["stages"] == []
        assert manifest["device"]["now_us"] > 0

    def test_fallout_chips_fail_verification(self, batch):
        """The full story: a physically inferior die leaves the line
        REJECT-marked, and even resold it cannot verify as ACCEPT."""
        spec = PopulationSpec(counts={ChipKind.GENUINE: 1})
        calibration = calibrate_family(
            lambda seed: make_mcu(seed=seed, n_segments=1),
            n_pe=40_000,
            n_replicas=7,
        ).calibration
        verifier = WatermarkVerifier(calibration, spec.format)
        rejects = [p for p in batch if not p.die_sort.passed]
        accepts = [p for p in batch if p.die_sort.passed]
        for produced in rejects:
            report = verifier.verify(produced.chip.flash)
            assert report.verdict is not Verdict.AUTHENTIC
        # And at least one accepted die verifies cleanly.
        report = verifier.verify(accepts[0].chip.flash)
        assert report.verdict is Verdict.AUTHENTIC
