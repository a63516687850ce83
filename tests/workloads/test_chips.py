"""Tests for the supply-chain chip population generator."""

import pytest

from repro.core import ChipStatus, Verdict, WatermarkVerifier
from repro.engine import calibrate_family
from repro.device import make_mcu
from repro.workloads import (
    ChipKind,
    PopulationSpec,
    generate_population,
    make_chip_sample,
)


@pytest.fixture(scope="module")
def spec():
    return PopulationSpec(
        counts={
            ChipKind.GENUINE: 2,
            ChipKind.FALLOUT: 1,
            ChipKind.RECYCLED: 1,
            ChipKind.REBRANDED: 1,
        }
    )


@pytest.fixture(scope="module")
def population(spec):
    return generate_population(spec, seed=5)


class TestPopulation:
    def test_total_count(self, spec, population):
        assert len(population) == spec.total == 5

    def test_all_kinds_present(self, population):
        kinds = {sample.kind for sample in population}
        assert kinds == set(ChipKind)

    def test_rebranded_has_no_genuine_payload(self, population):
        rebranded = [
            s for s in population if s.kind is ChipKind.REBRANDED
        ][0]
        assert rebranded.payload is None

    def test_fallout_payload_is_reject(self, population):
        fallout = [s for s in population if s.kind is ChipKind.FALLOUT][0]
        assert fallout.payload.status is ChipStatus.REJECT

    def test_genuine_payload_is_accept(self, population):
        genuine = [s for s in population if s.kind is ChipKind.GENUINE][0]
        assert genuine.payload.status is ChipStatus.ACCEPT

    def test_recycled_is_digitally_blank(self, population):
        recycled = [s for s in population if s.kind is ChipKind.RECYCLED][0]
        assert recycled.chip.flash.read_segment_bits(0).all()


class TestPopulationVerification:
    def test_verifier_classifies_population(self, spec, population):
        """End-to-end supply-chain screening: every genuine chip passes,
        every fall-out/rebranded chip fails."""
        calibration = calibrate_family(
            lambda seed: make_mcu(seed=seed, n_segments=1),
            n_pe=spec.n_pe,
            n_replicas=spec.n_replicas,
        ).calibration
        verifier = WatermarkVerifier(calibration, spec.format)
        for sample in population:
            report = verifier.verify(sample.chip.flash)
            if sample.kind in (ChipKind.GENUINE, ChipKind.RECYCLED):
                assert report.verdict is Verdict.AUTHENTIC, (
                    sample.kind,
                    report.reason,
                )
            else:
                assert report.verdict is not Verdict.AUTHENTIC, sample.kind
