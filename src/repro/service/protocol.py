"""The service wire protocol: ``flashmark.wire/v1`` frames.

Two frame forms share one stream.  Every query, every response, and
verify requests of earlier clients are newline-delimited JSON lines.
A verify request is a **binary frame**: a small JSON header followed by
the chip's raw bytes, so neither side base64s, JSON-escapes or parses
the chip state::

    frame       := json-line | binary
    json-line   := UTF-8 JSON object, b"\n"
    binary      := MAGIC header-len body-len header body
    MAGIC       := b"\xf8FMW"   (4 bytes; 0xF8 never occurs in UTF-8,
                                 so no JSON line or HTTP method starts so)
    header-len  := uint32, little-endian
    body-len    := uint32, little-endian
    header      := UTF-8 JSON object (the request without its chip)
    body        := repro.device.chip_to_bytes(...) output

:class:`FrameReader` is the one place frames are cut: it sniffs the
magic, and enforces :data:`MAX_FRAME_BYTES` on a binary frame's
*declared* size before buffering any of it.

Chips travel as :func:`repro.device.chip_to_bytes` output, so the
server verifies exactly the die the client holds — the same
challenge–response shape SIGNED uses for its interrogation flow, where
the device's response travels as raw bits to be judged.  Like the
paper's ExtractFlashmark, the server reads only the watermark segment,
so :func:`verify_request` ships only that segment: the die cut to one
segment.  ``segment`` indexes the die *as shipped*, so such a request
says ``"segment": 0``.  Servers decode any die the same way, so a
whole-die blob with ``"segment": k`` verifies identically.

A verify request, as :func:`verify_request` builds it and
:func:`decode_frame` returns it (the header's fields plus the body)::

    {"v": "flashmark.wire/v1", "id": 7, "op": "verify",
     "client": "lab-3", "family": "msp430-default",
     "die_id": "0x00000000002A", "segment": 0, "n_reads": 1,
     "trace": "00-<32 hex>-<16 hex>-01",
     "chip_b64": b"\x93FMCHIP..."}

The body sits under ``chip_b64`` as ``bytes``.  The key keeps the name
of the JSON form, in which it holds the base64 of a ``.npz`` chip blob:
servers still read that form until v2.0, and :func:`chip_from_b64`
decodes either (``str`` base64, or raw ``bytes``).  :func:`encode_frame`
writes a binary frame when ``chip_b64`` is bytes and a JSON line when
it is a ``str``.

``trace`` is optional distributed-trace context in W3C-traceparent
form (see :mod:`repro.trace.context`); absent or malformed, the server
serves the request identically and starts its own root trace.

    {"op": "ping"} · {"op": "stats"} · {"op": "families"}
    {"op": "history", "die_id": "0x00000000002A"} · {"op": "monitor"}
    {"op": "topology"}                      # fleet router only

``die_id`` (the chip's die id in hex) lets the fleet router
consistent-hash ``(family, die)`` to pick a shard from the header
alone, relaying the body untouched; the router answers ``400`` to a
verify request without it.  Servers ignore it — the authoritative die
id is always read from the decoded chip.

Verify requests may also carry two optional receipt-era fields, both
ignored by pre-receipt servers and absent from pre-receipt clients
(the wire schema is unchanged — ``flashmark.wire/v1``):

* ``"receipt": true`` asks the server to attach a signed
  ``flashmark.receipt/v1`` document to the result (only present when
  the server holds an issuer key — see :mod:`repro.receipts`);
* ``"pow": {"nonce": 12345, "difficulty": 12}`` is a hashcash ticket;
  servers running with a PoW difficulty > 0 reject verify requests
  whose ticket is missing, weak, or replayed with ``428``.

Responses (always JSON lines)::

    {"id": 7, "ok": true, "result": {"verdict": "authentic", ...}}
    {"id": 7, "ok": false, "error": {"code": 429, "reason": "..."}}

Error codes follow HTTP idiom: 400 malformed request, 404 unknown
family, 428 proof-of-work required (missing/weak/replayed ticket —
mint and retry, distinct from 429's "back off"), 429 backpressure
(queue full) or rate limit, 500 internal, 503 no healthy shard (fleet
router only).
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
from typing import Any, Optional, Tuple

from ..device.mcu import Microcontroller
from ..device.persistence import chip_from_bytes, chip_to_bytes

__all__ = [
    "WIRE_SCHEMA",
    "MAX_FRAME_BYTES",
    "FRAME_MAGIC",
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
    "frame_chunks",
    "encode_frame",
    "decode_frame",
    "verify_request",
    "chip_from_b64",
    "chip_from_request",
    "ok_response",
    "error_response",
]

WIRE_SCHEMA = "flashmark.wire/v1"

#: Upper bound on one frame.  A binary verify frame carrying one
#: 512-byte segment is about 235 KB whatever the die's size (the JSON
#: form of the same segment is 316 KB; a whole 512-segment die 103 MB),
#: so this leaves generous headroom without letting a rogue client
#: buffer unbounded garbage.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First bytes of a binary frame (module docstring).
FRAME_MAGIC = b"\xf8FMW"
#: magic, header length, body length.
_PREFIX = struct.Struct("<4sII")

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
    """Cut a stream into frames, with the size cap enforced *while*
    reading, not after.

    The first bytes of each frame pick its form.  A binary frame
    declares its size up front: past the cap, the reader discards
    exactly the declared bytes, unbuffered, and raises
    :class:`FrameTooLarge`.  A JSON line is buffered to at most
    ``max_bytes`` plus one read chunk; past the cap the reader raises
    :class:`FrameTooLarge` and *drains* the line through its newline.
    Either way the connection stays framed and can answer the next
    request normally — ``asyncio.StreamReader.readline`` alone would
    fail with a bare ``LimitOverrunError`` and leave the stream
    unusable.
    """

    _CHUNK = 65536

    def __init__(self, reader, *, max_bytes: int = MAX_FRAME_BYTES):
        self._reader = reader
        self._buf = bytearray()
        self.max_bytes = max_bytes

    async def read_frame(self) -> bytes:
        """The next frame (a JSON line including its newline, or a
        whole binary frame), or ``b""`` at EOF.  A frame cut short by
        EOF is handed back once, as read.

        Raises :class:`FrameTooLarge` for a frame past the cap; the
        oversized bytes are consumed, so the caller may keep reading.
        """
        while True:
            head = bytes(self._buf[: len(FRAME_MAGIC)])
            if head == FRAME_MAGIC:
                if len(self._buf) >= _PREFIX.size:
                    return await self._read_binary()
            elif not (head and FRAME_MAGIC.startswith(head)):
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

    async def _read_binary(self) -> bytes:
        _, header_len, body_len = _PREFIX.unpack_from(self._buf)
        size = _PREFIX.size + header_len + body_len
        if size > self.max_bytes:
            await self._discard(size)
            raise FrameTooLarge(size, self.max_bytes)
        if len(self._buf) >= size:
            frame = bytes(self._buf[:size])
            del self._buf[:size]
            return frame
        try:
            rest = await self._reader.readexactly(size - len(self._buf))
        except asyncio.IncompleteReadError as exc:
            rest = exc.partial
        frame = bytes(self._buf) + rest
        self._buf.clear()
        return frame

    async def _discard(self, n: int) -> None:
        """Drop the next ``n`` bytes of the stream (or up to EOF)."""
        buffered = min(n, len(self._buf))
        del self._buf[:buffered]
        n -= buffered
        while n > 0:
            chunk = await self._reader.read(min(n, self._CHUNK))
            if not chunk:
                return
            n -= len(chunk)

    async def _drain_oversized(self) -> int:
        """Discard up to and including the line's newline; keep any
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


def frame_chunks(obj: dict) -> Tuple[bytes, ...]:
    """One message's wire bytes, in pieces a writer sends in order:
    ``(line,)`` for a JSON line, or ``(prefix + header, body)`` for a
    binary frame — the body object itself, never copied."""
    body = obj.get("chip_b64")
    if not isinstance(body, bytes):
        return (
            json.dumps(obj, separators=(",", ":")).encode("utf-8")
            + b"\n",
        )
    header = json.dumps(
        {k: v for k, v in obj.items() if k != "chip_b64"},
        separators=(",", ":"),
    ).encode("utf-8")
    prefix = _PREFIX.pack(FRAME_MAGIC, len(header), len(body))
    return (prefix + header, body)


def encode_frame(obj: dict) -> bytes:
    """Serialize one message: a binary frame when ``chip_b64`` holds
    bytes, else a JSON line."""
    return b"".join(frame_chunks(obj))


def decode_frame(frame: bytes) -> dict:
    """Parse one frame of either form; raises :class:`ProtocolError`
    on garbage.  A binary frame's body comes back as ``bytes`` under
    ``chip_b64``."""
    if len(frame) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    if frame[: len(FRAME_MAGIC)] == FRAME_MAGIC:
        return _decode_binary(frame)
    try:
        obj = json.loads(frame.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


def _decode_binary(frame: bytes) -> dict:
    if len(frame) < _PREFIX.size:
        raise ProtocolError("binary frame truncated in its prefix")
    _, header_len, body_len = _PREFIX.unpack_from(frame)
    end = _PREFIX.size + header_len
    if len(frame) != end + body_len:
        raise ProtocolError(
            f"binary frame of {len(frame)} bytes declares "
            f"{end + body_len}"
        )
    try:
        obj = json.loads(frame[_PREFIX.size : end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            f"binary frame header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(obj, dict):
        raise ProtocolError("binary frame header must be a JSON object")
    obj["chip_b64"] = frame[end:]
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

    The body (``chip_b64``, raw bytes) is the die cut to ``segment``
    (see :func:`repro.device.chip_to_bytes`), and the request names it
    as ``"segment": 0``, its index in the die as shipped.  A
    ``segment`` the die does not have ships the whole die with the
    index unchanged, so the server answers with the serial controller's
    ``FlashAddressError``.  :func:`encode_frame` turns the request into
    a binary frame.

    ``trace`` is an optional traceparent string; servers thread their
    stage spans under it so the request assembles into one distributed
    trace (:mod:`repro.trace`).

    The chip's die id rides along in ``die_id`` so the fleet router can
    consistent-hash ``(family, die)`` without decoding the body.

    ``receipt=True`` asks for a signed receipt in the result;
    ``pow_ticket`` attaches a hashcash ticket (``{"nonce": n, ...}``,
    see :func:`repro.receipts.mint_ticket`).  Both fields are simply
    absent when unused.
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
        "chip_b64": blob,
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


def chip_from_b64(blob) -> Microcontroller:
    """Decode a verify request's chip (CPU-bound — call off the event
    loop): raw ``bytes`` from a binary frame, or the base64 ``str`` of
    the JSON form."""
    try:
        if isinstance(blob, str):
            blob = base64.b64decode(blob.encode("ascii"), validate=True)
        return chip_from_bytes(blob)
    except Exception as exc:  # corrupt base64 or chip state
        raise ProtocolError(f"undecodable chip blob: {exc}") from exc


def chip_from_request(req: dict) -> Microcontroller:
    """Decode the chip of a verify request."""
    blob = req.get("chip_b64")
    if not isinstance(blob, (str, bytes)) or not blob:
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
