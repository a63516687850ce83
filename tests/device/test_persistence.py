"""Tests for chip save/load round trips."""

import io
import zipfile

import numpy as np
import pytest

from repro.core import WatermarkVerifier
from repro.device import (
    ChipPersistenceError,
    chip_from_bytes,
    chip_to_bytes,
    load_chip,
    make_mcu,
    save_chip,
)
from repro.engine import verify_population
from repro.workloads.traffic import TrafficGenerator

#: Every per-cell array a chip file holds.
CELL_ARRAYS = (
    "vth",
    "program_cycles",
    "erase_only_cycles",
    "programmed_since_erase",
    "tau0_us",
    "wear_susceptibility",
    "vth_programmed",
    "vth_erased",
)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "chip.npz"


class TestRoundTrip:
    def test_identity_preserved(self, quiet_mcu, path):
        save_chip(quiet_mcu, path)
        loaded = load_chip(path)
        assert loaded.die_id == quiet_mcu.die_id
        assert loaded.model == quiet_mcu.model
        assert loaded.geometry.n_segments == quiet_mcu.geometry.n_segments

    def test_state_preserved(self, quiet_mcu, path):
        quiet_mcu.flash.program_segment_bits(
            0, (np.arange(4096) % 2).astype(np.uint8)
        )
        quiet_mcu.flash.bulk_pe_cycles(
            1, np.zeros(4096, dtype=np.uint8), 5_000
        )
        save_chip(quiet_mcu, path)
        loaded = load_chip(path)
        np.testing.assert_array_equal(loaded.array.vth, quiet_mcu.array.vth)
        np.testing.assert_array_equal(
            loaded.array.program_cycles, quiet_mcu.array.program_cycles
        )
        np.testing.assert_array_equal(
            loaded.flash.read_segment_bits(0),
            quiet_mcu.flash.read_segment_bits(0),
        )

    def test_params_preserved(self, quiet_mcu, path):
        save_chip(quiet_mcu, path)
        loaded = load_chip(path)
        assert loaded.params == quiet_mcu.params
        assert loaded.params.noise.read_sigma_v == 0.0

    def test_clock_preserved(self, quiet_mcu, path):
        quiet_mcu.flash.erase_segment(0)
        save_chip(quiet_mcu, path)
        loaded = load_chip(path)
        assert loaded.trace.now_us == quiet_mcu.trace.now_us

    def test_rng_stream_continues(self, path):
        """The loaded chip's noise stream continues where it left off."""
        chip = make_mcu(seed=5, n_segments=1)
        chip.flash.program_segment_bits(0, np.zeros(4096, dtype=np.uint8))
        save_chip(chip, path)
        loaded = load_chip(path)
        # Same next operation -> identical noisy outcome.
        chip.flash.partial_erase_segment(0, 22.0)
        loaded.flash.partial_erase_segment(0, 22.0)
        np.testing.assert_array_equal(
            chip.array.vth, loaded.array.vth
        )

    def test_loaded_chip_fully_operational(self, quiet_mcu, path):
        save_chip(quiet_mcu, path)
        loaded = load_chip(path)
        loaded.flash.erase_segment(0)
        loaded.flash.program_word(0x10, 0xBEEF)
        assert loaded.flash.read_word(0x10) == 0xBEEF
        loaded.regs.read_register("FCTL3")  # register facade wired

    def test_version_check(self, quiet_mcu, path, tmp_path):
        import json

        save_chip(quiet_mcu, path)
        with np.load(path) as data:
            payload = dict(data)
        meta = json.loads(bytes(payload["meta"]).decode())
        meta["version"] = 999
        payload["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **payload)
        with pytest.raises(ValueError, match="version"):
            load_chip(bad)


def _cells(chip, name):
    source = chip.array if hasattr(chip.array, name) else chip.array.static
    return getattr(source, name)


def _same_die(a, b) -> bool:
    return (
        (a.model, a.seed, a.die_id, a.geometry, a.params)
        == (b.model, b.seed, b.die_id, b.geometry, b.params)
        and a.trace.now_us == b.trace.now_us
        and a.trace.energy_uj == b.trace.energy_uj
        and a.array.temperature_c == b.array.temperature_c
        and a.rng.bit_generator.state == b.rng.bit_generator.state
        and all(
            np.array_equal(_cells(a, n), _cells(b, n)) for n in CELL_ARRAYS
        )
    )


def _member_data_spans(blob: bytes) -> list:
    """``(start, stop)`` of every zip member's stored bytes."""
    spans = []
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        for info in archive.infolist():
            at = info.header_offset
            start = (
                at
                + 30
                + int.from_bytes(blob[at + 26 : at + 28], "little")
                + int.from_bytes(blob[at + 28 : at + 30], "little")
            )
            spans.append((start, start + info.compress_size))
    return spans


class TestSegmentCut:
    def test_cut_is_a_one_segment_die(self, mcu):
        mcu.flash.bulk_pe_cycles(1, np.zeros(4096, dtype=np.uint8), 3_000)
        cut = chip_from_bytes(chip_to_bytes(mcu, segment=1))
        assert cut.geometry == make_mcu(n_segments=1).geometry
        cells = mcu.geometry.segment_bit_slice(1)
        for name in CELL_ARRAYS:
            np.testing.assert_array_equal(
                _cells(cut, name), _cells(mcu, name)[cells]
            )
        assert (cut.die_id, cut.seed, cut.params) == (
            mcu.die_id, mcu.seed, mcu.params,
        )
        assert cut.trace.now_us == mcu.trace.now_us
        assert cut.rng.bit_generator.state == mcu.rng.bit_generator.state

    def test_missing_segment_rejected(self, mcu):
        with pytest.raises(ValueError, match="segment"):
            chip_to_bytes(mcu, segment=2)

    def test_files_are_stored_without_zlib(self, mcu, path):
        save_chip(mcu, path)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED
            }
        assert _same_die(load_chip(path), mcu)


def _npz_bytes(chip, **kwargs) -> bytes:
    buf = io.BytesIO()
    save_chip(chip, buf, **kwargs)
    return buf.getvalue()


class TestCorruption:
    """Stored members carry CRC-32: a damaged ``.npz`` chip file fails
    typed."""

    @pytest.fixture(scope="class")
    def blob(self):
        return _npz_bytes(make_mcu(seed=9, n_segments=2), segment=1)

    def test_bit_flips_at_evenly_spaced_offsets(self, blob):
        spans = _member_data_spans(blob)
        clean = load_chip(io.BytesIO(blob))
        raised = 0
        for offset in np.linspace(0, len(blob) - 1, 64).astype(int):
            damaged = bytearray(blob)
            damaged[offset] ^= 0x01
            try:
                decoded = load_chip(io.BytesIO(damaged))
            except ChipPersistenceError:
                raised += 1
                continue
            # Only zip bookkeeping the reader ignores (times, attribute
            # bytes, the archive comment length) may flip unnoticed,
            # and then the die is unchanged.
            assert not any(a <= offset < b for a, b in spans), offset
            assert _same_die(decoded, clean), offset
        assert raised >= 60

    def test_no_header_flip_changes_the_die(self, blob):
        """Every byte outside the members' stored data is zip header:
        a flip there fails typed or decodes the very same die."""
        spans = _member_data_spans(blob)
        clean = load_chip(io.BytesIO(blob))
        edges = [0] + [x for span in spans for x in span] + [len(blob)]
        for start, stop in zip(edges[::2], edges[1::2]):
            for offset in range(start, stop):
                damaged = bytearray(blob)
                damaged[offset] ^= 0x01
                try:
                    decoded = load_chip(io.BytesIO(damaged))
                except ChipPersistenceError:
                    continue
                assert _same_die(decoded, clean), offset


class TestCompressedFiles:
    def test_compressed_layout_of_earlier_releases_loads(
        self, path, traffic_spec, family_calibration
    ):
        """Files written with ``np.savez_compressed`` still load and
        verify exactly as the die they hold."""
        chip = TrafficGenerator(traffic_spec, seed=71).draw(1)[0].chip
        with np.load(io.BytesIO(_npz_bytes(chip))) as stored:
            np.savez_compressed(path, **dict(stored))
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        loaded = load_chip(path)
        assert _same_die(loaded, chip)
        verifier = WatermarkVerifier(
            family_calibration, traffic_spec.population.format
        )
        a, b = (verify_population([c], verifier) for c in (chip, loaded))
        (ra,), (rb,) = a.results, b.results
        assert ra.verdict == rb.verdict
        assert ra.stressed_outliers == rb.stressed_outliers
        np.testing.assert_array_equal(ra.bits, rb.bits)
        assert a.manifest["device"]["now_us"] == b.manifest["device"]["now_us"]


class TestRawForm:
    """``chip_to_bytes`` writes the raw form: the same die as the file,
    and every damaged byte fails its CRC-32 typed."""

    def test_same_die_as_the_file(self, mcu):
        mcu.flash.bulk_pe_cycles(1, np.zeros(4096, dtype=np.uint8), 2_000)
        for segment in (None, 0, 1):
            raw = chip_to_bytes(mcu, segment=segment)
            assert raw.startswith(b"\x93FMCHIP")
            stored = io.BytesIO(_npz_bytes(mcu, segment=segment))
            from_file = load_chip(stored)
            assert _same_die(chip_from_bytes(raw), from_file)

    def test_npz_blob_is_not_chip_bytes(self, mcu):
        """Chip bytes are the raw form only; ``.npz`` is a file format
        that :func:`load_chip` reads."""
        with pytest.raises(ChipPersistenceError, match="magic"):
            chip_from_bytes(_npz_bytes(mcu, segment=0))

    def test_arrays_are_writable_copies(self, mcu):
        raw = bytearray(chip_to_bytes(mcu, segment=0))
        chip = chip_from_bytes(raw)
        for name in CELL_ARRAYS:
            cells = _cells(chip, name)
            assert cells.flags.writeable and cells.flags.owndata
        before = bytes(raw)
        chip.flash.erase_segment(0)
        assert bytes(raw) == before

    def test_every_single_byte_flip_fails_typed(self):
        from tests.service.conftest import tiny_chip

        blob = chip_to_bytes(tiny_chip(seed=9))
        for offset in range(len(blob)):
            damaged = bytearray(blob)
            damaged[offset] ^= 0x01
            with pytest.raises(ChipPersistenceError):
                chip_from_bytes(bytes(damaged))

    def test_cell_count_must_match_the_geometry(self):
        """A well-formed blob whose arrays disagree with its geometry
        (CRC intact) still fails typed."""
        import json
        import struct
        import zlib

        blob = chip_to_bytes(make_mcu(seed=9, n_segments=1))
        (header_len,) = struct.unpack_from("<I", blob, 7)
        header = json.loads(blob[11 : 11 + header_len])
        header["meta"]["geometry"]["segments_per_bank"] = 2
        head = json.dumps(header).encode()
        body = blob[:7] + struct.pack("<I", len(head)) + head
        body += blob[11 + header_len : -4]
        forged = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(ChipPersistenceError, match="cells"):
            chip_from_bytes(forged)

    def test_truncation_fails_typed(self):
        blob = chip_to_bytes(make_mcu(seed=9, n_segments=1))
        for keep in (0, 5, 12, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ChipPersistenceError):
                chip_from_bytes(blob[:keep])
