"""Pinned outcomes of the flash cell model.

The die model, the batched population, the MLC die and the NAND and
SPI NOR front ends all reach the same cell operations (erase pulse,
program, majority read).  Tests that compare one front end with
another cannot see a change that every front end shares, so this file
pins sha256 digests of what the serial path produces over a grid of
seeds, wear, temperature, read counts and noise:

* raw extracted bits, decoded bits, verdict and reason;
* wear counters and the device clock;
* one production-line die's die-sort result;
* NAND, SPI NOR and MLC read-backs.

Only discrete outputs are pinned.  Threshold voltages are floats whose
last bits differ between numpy releases; the outputs here are bits,
integer-valued wear counters and clocks summed from timing constants,
which do not.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.core import Watermark
from repro.core.calibration import FamilyCalibration
from repro.core.decoder import ErrorAsymmetry
from repro.core.imprint import imprint_watermark
from repro.core.verifier import WatermarkFormat, WatermarkVerifier
from repro.device import (
    ChipPopulation,
    MlcNorFlash,
    NandFlash,
    SpiNorFlash,
    make_mcu,
)
from repro.phys import NoiseParams, PhysicalParams
from repro.workloads import ProductionLine
from repro.workloads.production import run_die_job

NOISY = PhysicalParams()
QUIET = PhysicalParams().with_overrides(
    noise=NoiseParams(
        read_sigma_v=0.0, erase_jitter_sigma=0.0, program_sigma_v=0.0
    )
)

N_PE = 4000
FORMAT = WatermarkFormat(n_bits=32, n_replicas=7, balanced=True)
WATERMARK = Watermark.ascii_uppercase(4, np.random.default_rng(5)).balanced()


def _verifier(t_pew_us: float, n_pe: int) -> WatermarkVerifier:
    """A verifier with a fixed, hand-set published window."""
    return WatermarkVerifier(
        FamilyCalibration(
            model="MSP430F5438",
            t_pew_us=t_pew_us,
            window_lo_us=t_pew_us - 2.0,
            window_hi_us=t_pew_us + 2.0,
            n_pe=n_pe,
            n_replicas=7,
            expected_ber=0.0,
            asymmetry=ErrorAsymmetry(
                p_bad_reads_good=0.05, p_good_reads_bad=0.05
            ),
            window_tolerance=1.5,
        ),
        FORMAT,
    )


#: 22 us parks a 4,000-cycle die mid-transition (~70 % of cells read
#: erased), where a changed erase or read draws first flips bits.
VERIFIER = _verifier(22.0, N_PE)

#: seed x (fresh, 4,000-cycle imprint) x temperature x n_reads x noise.
GRID = list(
    itertools.product(
        (11, 12), (False, True), (25.0, 85.0), (1, 7), (True, False)
    )
)

#: ``(seed, worn, temperature_c, n_reads, noisy)`` -> sha256 hex digest.
VERIFY_PINS = {
    (11, False, 25.0, 1, True):
        "4da696a40ac0d606b28091bbf3656e47f0940f50958ed494b759e4fd9118171c",
    (11, False, 25.0, 1, False):
        "a4ebc2e3b83e25d7fae180a37bee27a58c2cd52b98764a3dbd8552c550c467fd",
    (11, False, 25.0, 7, True):
        "d0139726e68455095294ca3d71006baedf893300dc2b006e24fc0e1e2544067c",
    (11, False, 25.0, 7, False):
        "f27bc311f077561ce51c455668e93ed51c236c1538aa9d291aadfdd6a217c50f",
    (11, False, 85.0, 1, True):
        "07c44da3e11871f393e81d93da65697c1b3fc1b6c88f5e14fb3788bfc7121828",
    (11, False, 85.0, 1, False):
        "f4fdf483e60f4255bf57c646d705cd327576d6feccdf583f524c611c295f1dcc",
    (11, False, 85.0, 7, True):
        "ac7c25b39cdc98bb5437c2289c891f85570991bb82789a2a0666fe1077babe12",
    (11, False, 85.0, 7, False):
        "fc2d995d04c9ba49df0bc7e1e60181a0453e694d8016dfce5185a7b8abe6b1bf",
    (11, True, 25.0, 1, True):
        "ab2ca4f3afeb8f10ae23d16cc3e951a8ae1b125f6c46ad5ae96d452338b73659",
    (11, True, 25.0, 1, False):
        "8baca8d86089dd2422eda05c337b3ef65f3bc69b17d947197e035e080751616d",
    (11, True, 25.0, 7, True):
        "81257693c5fbe3bde3c4aa53dc10f4010310d96958551c792f678333ca9ac6a0",
    (11, True, 25.0, 7, False):
        "4478b24c499ae240f17c40d9a8e5f62a74fa0a9a9ecf2e8050f13c29dbb964aa",
    (11, True, 85.0, 1, True):
        "a306df4c7b79eef29df768fbae12217bea145d3e6b9370cc94c16955daeaf6ef",
    (11, True, 85.0, 1, False):
        "28ddfe0b6dc3cbd32abdd3eeed7ed2899d9925e2d3eb2e7f99963f1f9fd833b0",
    (11, True, 85.0, 7, True):
        "d3810fd7d702be7500db3b46a788cb491ef703c67ed033f3c0af5bcb114ca936",
    (11, True, 85.0, 7, False):
        "9491b7afeaf4e1d2a7bd5684412f55a17da288210aef67aa7e21792f13626673",
    (12, False, 25.0, 1, True):
        "520ee96852bb59325cb3867484e3e9a4b2d42674f058b3f998272cd79776fc4b",
    (12, False, 25.0, 1, False):
        "df5c24303e747ccdb544b6dcd24226a96646c0988349769c493a036b0d182f41",
    (12, False, 25.0, 7, True):
        "a89ca80f92a532273c5ca4be997be8ccbaefaf5e7bc486c8c3d490797c14903c",
    (12, False, 25.0, 7, False):
        "2ea0c3fa0f62051fd774886945d7c626404da929da6284c2fcd341d5c903b1dd",
    (12, False, 85.0, 1, True):
        "d62638d41487fe3b9f29f4b827e72772b55a1721c01c646dd25e8509764bd4c0",
    (12, False, 85.0, 1, False):
        "f19af141b6c02816034f94b33a1a2a1b6d4ab5e4f07dfb718e6662257416904d",
    (12, False, 85.0, 7, True):
        "9f911575cf5c5894253750ac8dfae95b8adf38a095c1f941c562d24141de9097",
    (12, False, 85.0, 7, False):
        "f633f6ee54440dd20dae87708f45b05daffdead7db738fd0461b7e610d25949d",
    (12, True, 25.0, 1, True):
        "fa0ef64eba947cd608619b0a8396cb3ed55df492e804dcb83cc255cecb393ba9",
    (12, True, 25.0, 1, False):
        "4f51e87a9f68c20957adb4c817b48a6ce9a144681a2e521c04cd0ab4024494e6",
    (12, True, 25.0, 7, True):
        "0ac2482aaf526b5c75f0697f8a1c7e8cdd94335e75f10b997e8e98a6ae56c8cf",
    (12, True, 25.0, 7, False):
        "0335537ec36894ba277f4ada3e22b573c5c3062cd54b768a7fa81acffa6ca1e6",
    (12, True, 85.0, 1, True):
        "38694cd85a5913a69fcc940e6c02654e5751a6c858a336adf1d0ed0bac5abd16",
    (12, True, 85.0, 1, False):
        "8e66a8098b6348ed6038dcc7775dda58e5be1d43f0c77a100879f60b3f8ec37d",
    (12, True, 85.0, 7, True):
        "32747026d9b0f3ff95175a167efbb1e48d25eda3ccdbf79c97f181317a374a47",
    (12, True, 85.0, 7, False):
        "8e44b0db16a0e1d5f3195b7f383f76ee3ef6cbc610b34de8a78f90aecd2b9c20",
}

DEVICE_PINS = {
    "authentic":
        "4d64395a1e2470ec212ac39f86e4764785c1c2445b5098d5471bdb2090ed3769",
    "die_sort":
        "7303f007390abbd055deea84b41a486504b729de8d891d1d3b138faef4881b05",
    "nand":
        "0a640b6b6c4f0193ec872d2db7767959bfdca9529b5167007c4d36b660b6ceca",
    "spi_nor":
        "85619b3564fa65b13109dd17b8e0882b8249ce2c28d010fb616a051a61b8fa17",
    "mlc":
        "ce05d148cd42144707fec09815e5e5f439b61a9787fcacdee63a728503c0a1ba",
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _verify_case(seed, worn, temperature_c, n_reads, noisy):
    params = NOISY if noisy else QUIET
    chip = make_mcu(seed=seed, params=params, n_segments=1)
    if worn:
        imprint_watermark(chip.flash, 0, WATERMARK, N_PE, n_replicas=7)
    chip.set_temperature(temperature_c)
    t_pew = VERIFIER.scaled_window_us(chip.params.cell, temperature_c)
    batched = ChipPopulation.from_chips([chip], 0).extract_readout(
        t_pew, n_reads=n_reads
    )
    report = VERIFIER.verify(
        chip.flash, n_reads=n_reads, temperature_c=temperature_c
    )
    return _digest(
        report.decoded.extraction.raw_bits,
        batched.raw_bits,
        report.bits,
        report.verdict.name,
        report.reason,
        chip.array.program_cycles,
        chip.array.erase_only_cycles,
        chip.trace.now_us,
        batched.duration_us,
    )


def _authentic_case():
    chip = make_mcu(seed=13, n_segments=1)
    imprint_watermark(chip.flash, 0, WATERMARK, 40_000, n_replicas=7)
    report = _verifier(24.0, 40_000).verify(chip.flash, n_reads=3)
    return _digest(
        report.decoded.extraction.raw_bits,
        report.bits,
        report.verdict.name,
        report.reason,
        chip.array.program_cycles,
        chip.array.erase_only_cycles,
        chip.trace.now_us,
    )


def _die_sort_case():
    job = ProductionLine(outlier_fraction=0.5).jobs_for(1, seed=4)[0]
    produced = run_die_job(job).produced
    chip = produced.chip
    return _digest(
        produced.die_sort.passed,
        produced.die_sort.full_erase_us,
        produced.die_sort.unstable_cells,
        produced.die_sort.reason,
        chip.array.program_cycles,
        chip.array.erase_only_cycles,
        chip.flash.read_segment_bits(0, n_reads=3),
    )


def _nand_case():
    nand = NandFlash(seed=4)
    data = bytes(range(256)) * (nand.page_bytes // 256)
    for page in range(nand.pages_per_block):
        nand.program_page(0, page, b"\x00" * nand.page_bytes)
    nand.program_page(1, 2, data)
    nand.erase_block(0)
    nand.wait_us(23.0)
    nand.reset()
    pages = [nand.read_page(0, p, n_reads=3) for p in range(4)]
    return _digest(
        b"".join(pages),
        nand.read_page(1, 2),
        nand.array.program_cycles,
        nand.array.erase_only_cycles,
        nand.trace.now_us,
    )


def _spi_nor_case():
    chip = SpiNorFlash(seed=3)
    chip.write_enable()
    chip.page_program(0, b"\x00" * 256)
    chip.write_enable()
    chip.page_program(0x100, bytes(range(256)))
    chip.write_enable()
    chip.sector_erase(0)
    chip.wait_us(20.0)
    chip.erase_suspend()
    return _digest(
        chip.read(0, 512, n_reads=5),
        chip.array.program_cycles,
        chip.array.erase_only_cycles,
        chip.trace.now_us,
    )


def _mlc_case():
    mlc = MlcNorFlash(seed=6)
    pattern = (np.arange(mlc.cells_per_segment) % 3 == 0).astype(np.uint8)
    mlc.imprint_flashmark(0, pattern, N_PE)
    marked = mlc.extract_flashmark_bits(0, 30.0)
    levels = np.random.default_rng(8).integers(0, 4, mlc.cells_per_segment)
    mlc.erase_segment(1)
    mlc.program_levels(1, levels)
    read = mlc.read_levels(1)
    return _digest(
        marked,
        read.levels,
        read.lsb,
        read.msb,
        mlc.array.program_cycles,
        mlc.array.erase_only_cycles,
        mlc.trace.now_us,
    )


@pytest.mark.parametrize("case", GRID, ids=lambda c: "-".join(map(str, c)))
def test_verify_outcome_pinned(case):
    assert _verify_case(*case) == VERIFY_PINS[case]


@pytest.mark.parametrize(
    "name, run",
    [
        ("authentic", _authentic_case),
        ("die_sort", _die_sort_case),
        ("nand", _nand_case),
        ("spi_nor", _spi_nor_case),
        ("mlc", _mlc_case),
    ],
)
def test_device_outcome_pinned(name, run):
    assert run() == DEVICE_PINS[name]
