"""The service wire protocol: newline-delimited JSON frames.

One request or response per line (``flashmark.wire/v1``).  Chips travel
inside verify requests as base64 of their ``.npz`` state
(:func:`repro.device.chip_to_bytes`), so the server verifies exactly
the die the client holds — the same challenge–response shape SIGNED
uses for its interrogation flow.  Like the paper's ExtractFlashmark,
the server reads only the watermark segment, so
:func:`verify_request` ships only that segment: the die cut to one
segment, stored without compression.  ``segment`` indexes the die *as
shipped*, so such a request says ``"segment": 0``.  Servers decode any
die the same way, so a whole-die blob (compressed or not) with
``"segment": k`` verifies identically.

Requests::

    {"v": "flashmark.wire/v1", "id": 7, "op": "verify",
     "client": "lab-3", "family": "msp430-default",
     "chip_b64": "...", "segment": 0, "n_reads": 1,
     "trace": "00-<32 hex>-<16 hex>-01"}

``trace`` is optional distributed-trace context in W3C-traceparent
form (see :mod:`repro.trace.context`); absent or malformed, the server
serves the request identically and starts its own root trace.

    {"op": "ping"} · {"op": "stats"} · {"op": "families"}
    {"op": "history", "die_id": "0x00000000002A"} · {"op": "monitor"}
    {"op": "topology"}                      # fleet router only

Verify requests also carry ``die_id`` (the chip's die id in hex) next
to the blob: the fleet router consistent-hashes ``(family, die)`` to
pick a shard, and the field lets it route without decoding megabytes
of chip state.  Servers ignore it — the authoritative die id is always
read from the decoded chip.

Verify requests may also carry two optional receipt-era fields, both
ignored by pre-receipt servers and absent from pre-receipt clients
(the wire schema is unchanged — ``flashmark.wire/v1``):

* ``"receipt": true`` asks the server to attach a signed
  ``flashmark.receipt/v1`` document to the result (only present when
  the server holds an issuer key — see :mod:`repro.receipts`);
* ``"pow": {"nonce": 12345, "difficulty": 12}`` is a hashcash ticket;
  servers running with a PoW difficulty > 0 reject verify requests
  whose ticket is missing, weak, or replayed with ``428``.

Responses::

    {"id": 7, "ok": true, "result": {"verdict": "authentic", ...}}
    {"id": 7, "ok": false, "error": {"code": 429, "reason": "..."}}

Error codes follow HTTP idiom: 400 malformed request, 404 unknown
family, 428 proof-of-work required (missing/weak/replayed ticket —
mint and retry, distinct from 429's "back off"), 429 backpressure
(queue full) or rate limit, 500 internal, 503 no healthy shard (fleet
router only).
"""

from __future__ import annotations

import base64
import json
from typing import Any, Optional

from ..device.mcu import Microcontroller
from ..device.persistence import chip_from_bytes, chip_to_bytes

__all__ = [
    "WIRE_SCHEMA",
    "MAX_FRAME_BYTES",
    "OK",
    "BAD_REQUEST",
    "NOT_FOUND",
    "POW_REQUIRED",
    "TOO_MANY_REQUESTS",
    "INTERNAL_ERROR",
    "SERVICE_UNAVAILABLE",
    "ProtocolError",
    "FrameTooLarge",
    "FrameReader",
    "encode_frame",
    "decode_frame",
    "verify_request",
    "chip_from_b64",
    "chip_from_request",
    "ok_response",
    "error_response",
]

WIRE_SCHEMA = "flashmark.wire/v1"

#: Upper bound on one frame.  A verify frame carrying one 512-byte
#: segment is about 316 KB whatever the die's size (a whole 2-segment
#: die, compressed, was 406 KB; a whole 512-segment die 103 MB), so
#: this leaves generous headroom without letting a rogue client buffer
#: unbounded garbage.
MAX_FRAME_BYTES = 16 * 1024 * 1024

OK = 200
BAD_REQUEST = 400
NOT_FOUND = 404
#: The verify request needs a (fresh, sufficiently hard) hashcash
#: ticket in its ``pow`` field.  Deliberately distinct from 429: a 428
#: client should mint and retry now, a 429 client should back off.
POW_REQUIRED = 428
TOO_MANY_REQUESTS = 429
INTERNAL_ERROR = 500
#: The fleet router exhausted its healthy shards for a request (all
#: evicted, or the bounded re-route retries failed).
SERVICE_UNAVAILABLE = 503


class ProtocolError(ValueError):
    """A frame violates the wire schema."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded :data:`MAX_FRAME_BYTES` on the read path."""

    def __init__(self, n_bytes: int, max_bytes: int = MAX_FRAME_BYTES):
        super().__init__(
            f"frame of >= {n_bytes} bytes exceeds the "
            f"{max_bytes}-byte cap"
        )
        self.n_bytes = n_bytes
        self.max_bytes = max_bytes


class FrameReader:
    """Read newline-delimited frames with the size cap enforced *while*
    reading, not after.

    ``asyncio.StreamReader.readline`` only fails once its internal
    buffer limit overflows, surfacing as a bare ``ValueError`` /
    ``LimitOverrunError`` and leaving the stream unusable — an
    oversized frame used to kill the connection instead of producing a
    ``400``.  This wrapper buffers at most ``max_bytes`` plus one read
    chunk, raises a typed :class:`FrameTooLarge` as soon as the cap is
    crossed, and *drains* the offending frame through its terminating
    newline so the connection stays framed and can answer the next
    request normally.
    """

    _CHUNK = 65536

    def __init__(self, reader, *, max_bytes: int = MAX_FRAME_BYTES):
        self._reader = reader
        self._buf = bytearray()
        self.max_bytes = max_bytes

    async def read_frame(self) -> bytes:
        """The next frame (including its newline), or ``b""`` at EOF.

        Raises :class:`FrameTooLarge` for a frame past the cap; the
        oversized bytes are consumed, so the caller may keep reading.
        """
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[: nl + 1])
                del self._buf[: nl + 1]
                if len(line) > self.max_bytes:
                    raise FrameTooLarge(len(line), self.max_bytes)
                return line
            if len(self._buf) > self.max_bytes:
                dropped = await self._drain_oversized()
                raise FrameTooLarge(dropped, self.max_bytes)
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                # EOF: hand back any unterminated tail once.
                tail = bytes(self._buf)
                self._buf.clear()
                return tail
            self._buf += chunk

    async def _drain_oversized(self) -> int:
        """Discard up to and including the frame's newline; keep any
        bytes after it (they begin the next frame)."""
        dropped = len(self._buf)
        self._buf.clear()
        while True:
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                return dropped
            nl = chunk.find(b"\n")
            if nl >= 0:
                self._buf += chunk[nl + 1 :]
                return dropped + nl + 1
            dropped += len(chunk)


def encode_frame(obj: dict) -> bytes:
    """Serialize one message to its wire line."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


# -- request construction --------------------------------------------------


def verify_request(
    chip: Microcontroller,
    family: str,
    *,
    request_id: Any = None,
    client: Optional[str] = None,
    segment: int = 0,
    n_reads: int = 1,
    temperature_c: Optional[float] = None,
    trace: Optional[str] = None,
    receipt: bool = False,
    pow_ticket: Optional[dict] = None,
) -> dict:
    """Build a verify request carrying the state of one chip segment.

    The blob is the die cut to ``segment`` (see
    :func:`repro.device.chip_to_bytes`), and the request names it as
    ``"segment": 0``, its index in the die as shipped.  A ``segment``
    the die does not have ships the whole die with the index unchanged,
    so the server answers with the serial controller's
    ``FlashAddressError``.

    ``trace`` is an optional traceparent string; servers thread their
    stage spans under it so the request assembles into one distributed
    trace (:mod:`repro.trace`).

    The chip's die id rides along in ``die_id`` so the fleet router can
    consistent-hash ``(family, die)`` without decoding the blob.

    ``receipt=True`` asks for a signed receipt in the result;
    ``pow_ticket`` attaches a hashcash ticket (``{"nonce": n, ...}``,
    see :func:`repro.receipts.mint_ticket`).  Both fields are simply
    absent when unused, keeping the request byte-identical to the
    pre-receipt wire form.
    """
    segment = int(segment)
    if 0 <= segment < chip.geometry.n_segments:
        blob, segment = chip_to_bytes(chip, segment=segment), 0
    else:
        blob = chip_to_bytes(chip)
    req = {
        "v": WIRE_SCHEMA,
        "op": "verify",
        "family": family,
        "die_id": f"0x{chip.die_id:012X}",
        "chip_b64": base64.b64encode(blob).decode("ascii"),
        "segment": segment,
        "n_reads": int(n_reads),
    }
    if request_id is not None:
        req["id"] = request_id
    if client is not None:
        req["client"] = client
    if temperature_c is not None:
        req["temperature_c"] = float(temperature_c)
    if trace is not None:
        req["trace"] = str(trace)
    if receipt:
        req["receipt"] = True
    if pow_ticket is not None:
        req["pow"] = dict(pow_ticket)
    return req


def chip_from_b64(blob: str) -> Microcontroller:
    """Decode a base64 chip blob (CPU-bound — call off the event loop)."""
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
        return chip_from_bytes(raw)
    except Exception as exc:  # corrupt base64 or npz
        raise ProtocolError(f"undecodable chip blob: {exc}") from exc


def chip_from_request(req: dict) -> Microcontroller:
    """Decode the chip blob of a verify request."""
    blob = req.get("chip_b64")
    if not isinstance(blob, str) or not blob:
        raise ProtocolError("verify request is missing 'chip_b64'")
    return chip_from_b64(blob)


# -- responses -------------------------------------------------------------


def ok_response(request_id: Any, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: int, reason: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": int(code), "reason": reason},
    }
