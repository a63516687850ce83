"""Tests for the NDJSON wire protocol."""

import asyncio
import base64
import struct

import numpy as np
import pytest

from repro.device import chip_from_bytes, chip_to_bytes, make_mcu
from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    chip_from_request,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    verify_request,
)


class TestFrames:
    def test_roundtrip(self):
        frame = encode_frame({"op": "ping", "id": 3})
        assert frame.endswith(b"\n")
        assert decode_frame(frame) == {"op": "ping", "id": 3}

    def test_single_line(self):
        assert encode_frame({"a": "b"}).count(b"\n") == 1

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2]")

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b" " * (MAX_FRAME_BYTES + 1))


def _read_frames(data: bytes, max_bytes: int, n_reads: int) -> list:
    """Feed ``data`` through a FrameReader; each entry is the frame
    bytes or the :class:`~repro.service.protocol.FrameTooLarge` it
    raised.  (StreamReader needs a running loop, so everything happens
    inside one coroutine.)"""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = protocol.FrameReader(reader, max_bytes=max_bytes)
        out = []
        for _ in range(n_reads):
            try:
                out.append(await frames.read_frame())
            except protocol.FrameTooLarge as exc:
                out.append(exc)
        return out

    return asyncio.run(go())


class TestFrameReader:
    """The cap is enforced *while* reading, and an oversized frame is
    drained so the connection stays framed."""

    def test_reads_frames_then_eof(self):
        assert _read_frames(b"one\ntwo\n", 64, 3) == [
            b"one\n",
            b"two\n",
            b"",
        ]

    def test_unterminated_tail_returned_once(self):
        assert _read_frames(b"one\ntail", 64, 3) == [
            b"one\n",
            b"tail",
            b"",
        ]

    def test_oversized_frame_raises_typed_error(self):
        (err,) = _read_frames(b"A" * 200 + b"\n", 64, 1)
        assert isinstance(err, protocol.FrameTooLarge)
        assert isinstance(err, ProtocolError)
        assert err.n_bytes >= 64
        assert err.max_bytes == 64

    def test_next_frame_survives_an_oversized_one(self):
        err, after, eof = _read_frames(b"A" * 200 + b"\nafter\n", 64, 3)
        # Framing survives: the offender is consumed through its
        # newline and the following frame reads normally.
        assert isinstance(err, protocol.FrameTooLarge)
        assert after == b"after\n"
        assert eof == b""

    def test_oversized_terminated_within_buffer(self):
        # The newline is already buffered when the cap check runs.
        err, ok = _read_frames(b"B" * 100 + b"\nok\n", 64, 2)
        assert isinstance(err, protocol.FrameTooLarge)
        assert ok == b"ok\n"

    def test_frame_at_exact_cap_passes(self):
        line = b"C" * 63 + b"\n"  # 64 bytes with the newline
        assert _read_frames(line + b"next\n", 64, 2) == [
            line,
            b"next\n",
        ]


class TestVerifyRequest:
    def test_chip_roundtrip(self):
        chip = make_mcu(seed=5, n_segments=2)
        req = decode_frame(
            encode_frame(verify_request(chip, "fam", request_id=9))
        )
        assert req["op"] == "verify"
        assert req["family"] == "fam"
        assert req["id"] == 9
        restored = chip_from_request(req)
        assert restored.die_id == chip.die_id
        np.testing.assert_array_equal(
            restored.flash.read_segment_bits(0),
            chip.flash.read_segment_bits(0),
        )

    def test_optional_fields(self):
        chip = make_mcu(seed=5, n_segments=1)
        req = verify_request(
            chip, "fam", client="lab", temperature_c=85.0, n_reads=3
        )
        assert req["client"] == "lab"
        assert req["temperature_c"] == 85.0
        assert req["n_reads"] == 3
        bare = verify_request(chip, "fam")
        assert "client" not in bare and "temperature_c" not in bare

    def test_ships_only_the_verified_segment(self, traffic_spec):
        """The body is the die cut to the requested segment, in the raw
        chip-bytes form, and the request indexes it as segment 0."""
        from repro.workloads.traffic import TrafficGenerator

        for item in TrafficGenerator(traffic_spec, seed=70).draw(2):
            chip = item.chip
            assert chip.geometry.n_segments == 2
            for segment in (0, 1):
                req = verify_request(chip, "fam", segment=segment)
                assert req["segment"] == 0
                raw = req["chip_b64"]
                assert isinstance(raw, bytes)
                assert raw.startswith(b"\x93FMCHIP")
                frame = encode_frame(req)
                assert frame.startswith(protocol.FRAME_MAGIC)
                assert decode_frame(frame) == req
                shipped = chip_from_bytes(raw)
                assert shipped.geometry.n_segments == 1
                assert shipped.die_id == chip.die_id
                assert shipped.trace.now_us == chip.trace.now_us
                assert (
                    shipped.rng.bit_generator.state
                    == chip.rng.bit_generator.state
                )
                cells = chip.geometry.segment_bit_slice(segment)
                np.testing.assert_array_equal(
                    shipped.array.vth, chip.array.vth[cells]
                )
                np.testing.assert_array_equal(
                    shipped.array.static.tau0_us,
                    chip.array.static.tau0_us[cells],
                )

    def test_frame_size_independent_of_die_size(self):
        small = make_mcu(seed=11, n_segments=1)
        large = make_mcu(seed=11, n_segments=4)
        frames = [
            encode_frame(verify_request(chip, "fam", segment=0))
            for chip in (small, large)
        ]
        assert len(frames[0]) == len(frames[1])
        assert len(frames[0]) < 240_000

    def test_missing_segment_ships_whole_die(self):
        """No such segment: the whole die travels with the index
        unchanged, so the server fails it as the controller would."""
        chip = make_mcu(seed=12, n_segments=2)
        for segment in (2, -1):
            req = verify_request(chip, "fam", segment=segment)
            assert req["segment"] == segment
            assert chip_from_request(req).geometry.n_segments == 2

    def test_missing_blob_rejected(self):
        with pytest.raises(ProtocolError, match="chip_b64"):
            chip_from_request({"op": "verify", "family": "fam"})

    def test_corrupt_blob_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            chip_from_request({"op": "verify", "chip_b64": b"not a chip"})

    def test_text_blob_rejected(self):
        """Only a binary frame's raw bytes decode; base64 text does
        not."""
        blob = base64.b64encode(chip_to_bytes(make_mcu(n_segments=1)))
        with pytest.raises(ProtocolError, match="binary frame"):
            protocol.chip_from_b64(blob.decode("ascii"))

    def test_no_base64_written(self):
        req = verify_request(make_mcu(seed=6, n_segments=1), "fam")
        assert isinstance(req["chip_b64"], bytes)
        assert b"chip_b64" not in encode_frame(req)


class TestAcceptedForms:
    """Both binary forms of a verify request — one segment, or the
    whole die with ``"segment": k`` — decode to the same die, and verify
    to the same report and device clock."""

    def test_forms_decode_to_the_same_die(
        self, traffic_spec, family_calibration
    ):
        from repro.core import WatermarkVerifier
        from repro.engine import verify_population
        from repro.workloads.traffic import TrafficGenerator
        from tests.service.conftest import whole_die_request

        verifier = WatermarkVerifier(
            family_calibration, traffic_spec.population.format
        )
        chip = TrafficGenerator(traffic_spec, seed=72).draw(1)[0].chip
        for segment in (0, 1):
            forms = [
                verify_request(chip, "fam", segment=segment),
                whole_die_request(chip, "fam", segment=segment),
            ]
            outcomes = []
            for req in forms:
                wire = decode_frame(encode_frame(req))
                result = verify_population(
                    [chip_from_request(wire)],
                    verifier,
                    segment=wire["segment"],
                )
                (report,) = result.results
                outcomes.append(
                    (
                        report.verdict,
                        report.stressed_outliers,
                        report.ber,
                        report.reason,
                        report.bits.tobytes(),
                        result.manifest["device"]["now_us"],
                    )
                )
            assert outcomes[0] == outcomes[1]


def _binary_frame(header: bytes, body: bytes) -> bytes:
    return (
        struct.pack("<4sII", protocol.FRAME_MAGIC, len(header), len(body))
        + header
        + body
    )


class TestBinaryFrames:
    def test_decoded_arrays_are_writable(self):
        chip = make_mcu(seed=7, n_segments=1)
        req = decode_frame(encode_frame(verify_request(chip, "fam")))
        restored = chip_from_request(req)
        assert restored.array.vth.flags.writeable
        assert restored.array.static.tau0_us.flags.writeable
        restored.flash.erase_segment(0)  # the engine mutates the die

    def test_reader_cuts_binary_and_json_frames(self):
        frame = _binary_frame(b'{"op":"ping"}', b"\n\n body \n")
        assert _read_frames(
            frame + b'{"op":"stats"}\n' + frame, 1024, 4
        ) == [frame, b'{"op":"stats"}\n', frame, b""]

    def test_declared_size_over_cap_discards_exactly_that(self):
        big = _binary_frame(b"{}", b"\n" * 200)
        err, after, eof = _read_frames(big + b"after\n", 64, 3)
        assert isinstance(err, protocol.FrameTooLarge)
        assert err.n_bytes == len(big)
        assert after == b"after\n"
        assert eof == b""

    def test_frame_cut_by_eof_handed_back_once(self):
        frame = _binary_frame(b"{}", b"x" * 100)
        cut, eof = _read_frames(frame[:50], 1024, 2)
        assert cut == frame[:50] and eof == b""
        with pytest.raises(ProtocolError, match="declares"):
            decode_frame(cut)

    def test_header_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(_binary_frame(b"[1]", b""))
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(_binary_frame(b"{nope", b""))

    def test_lead_byte_without_magic_is_a_json_line(self):
        assert _read_frames(b"\xf8garbage\n", 1024, 1) == [
            b"\xf8garbage\n"
        ]
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"\xf8garbage\n")


class TestResponses:
    def test_ok_shape(self):
        resp = ok_response(4, {"verdict": "authentic"})
        assert resp == {
            "id": 4,
            "ok": True,
            "result": {"verdict": "authentic"},
        }

    def test_error_shape(self):
        resp = error_response(None, protocol.TOO_MANY_REQUESTS, "busy")
        assert resp["ok"] is False
        assert resp["error"] == {"code": 429, "reason": "busy"}
