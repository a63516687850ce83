"""Chip persistence: save and reload a simulated die's full state.

One chip state — identity metadata, the physics parameters, the RNG
state, and eight per-cell arrays (threshold voltages, wear counters and
the manufacture-time static lot) — travels in two containers:

* **Chip files** (:func:`save_chip` / :func:`load_chip`, the CLI's
  ``chip.npz``) are stored (uncompressed) ``.npz`` archives.  Five of
  the eight per-cell arrays are float64 and barely compress, so the
  writer skips zlib: a file is about 1.5x the size of a compressed one,
  and a whole 512-segment die saves in 0.14 s instead of 7.0 s (2-vCPU
  Xeon, numpy 2.4).  Each zip member carries its CRC-32, and the loader
  reads the compressed files of earlier releases too.
* **Chip bytes** (:func:`chip_to_bytes` / :func:`chip_from_bytes`, what
  the service wire protocol ships) are a flat raw form that decodes
  with ``np.frombuffer``, no zip container to walk::

      chip-bytes := MAGIC  header-len  header  cells  crc
      MAGIC      := b"\\x93FMCHIP"                    (7 bytes)
      header-len := uint32, little-endian
      header     := UTF-8 JSON {"meta": {...}, "arrays":
                        [[name, dtype, count], ...]}
      cells      := each array of the table, in table order, as raw
                    little-endian bytes (``count`` items of ``dtype``)
      crc        := uint32 little-endian CRC-32 of every byte before it

  ``meta`` is the file's metadata plus ``rng_state``.  Any damaged
  byte — magic, lengths, header, cells or the CRC itself — fails the
  check.  :func:`chip_from_bytes` reads only this form.

A writer may also cut the die to one segment (``segment=``): the
result is a one-segment die, shaped like ``make_mcu(n_segments=1)``,
holding that segment's cells and the whole die's RNG state, clock,
temperature and parameters.  That is all verification reads, and what
the service wire protocol ships.

Both containers are versioned; loading checks it.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..faults import fault_point
from ..phys.constants import (
    CellParams,
    NoiseParams,
    PhysicalParams,
    WearParams,
)
from ..phys.variation import StaticCellLot
from .array import NorFlashArray
from .controller import FlashController
from .geometry import FlashGeometry
from .mcu import SUPPORTED_MODELS, Microcontroller
from .registers import FlashRegisterFile
from .timing import MSP430F5438_TIMING
from .tracing import OperationTrace

__all__ = [
    "save_chip",
    "load_chip",
    "chip_to_bytes",
    "chip_from_bytes",
    "ChipPersistenceError",
    "CHIP_FILE_VERSION",
]

CHIP_FILE_VERSION = 1

#: Leading bytes of the raw chip form.
_RAW_MAGIC = b"\x93FMCHIP"
_U32 = struct.Struct("<I")

#: The per-cell arrays of a chip state, in the raw form's order.
_ARRAY_CELLS = (
    "vth",
    "program_cycles",
    "erase_only_cycles",
    "programmed_since_erase",
)
_STATIC_CELLS = (
    "tau0_us",
    "wear_susceptibility",
    "vth_programmed",
    "vth_erased",
)


class ChipPersistenceError(ValueError):
    """A chip file/blob is truncated, corrupt, or of a foreign version.

    Every decode failure — a short read, a damaged ``.npz`` archive or
    raw form, missing arrays, unparseable metadata — surfaces as this
    one type, so callers (the CLI, the service wire protocol) can map
    "bad chip state" to a clean client-facing error instead of leaking
    ``zipfile``/``json``/``KeyError`` internals.
    """


def _params_to_json(params: PhysicalParams) -> str:
    return json.dumps(
        {
            "cell": vars(params.cell),
            "wear": vars(params.wear),
            "noise": vars(params.noise),
        }
    )


def _params_from_json(blob: str) -> PhysicalParams:
    raw = json.loads(blob)
    return PhysicalParams(
        cell=CellParams(**raw["cell"]),
        wear=WearParams(**raw["wear"]),
        noise=NoiseParams(**raw["noise"]),
    )


def _chip_state(
    chip: Microcontroller, segment: Optional[int]
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a chip, whole or cut to one segment: the
    one gathering of chip state both containers write.  ``meta`` holds
    the RNG state under ``rng_state``; ``arrays`` the eight per-cell
    arrays (views, not copies)."""
    geometry = chip.geometry
    cells = slice(None)
    if segment is not None:
        cells = geometry.segment_bit_slice(segment)
        geometry = FlashGeometry(
            bits_per_word=geometry.bits_per_word,
            segment_bytes=geometry.segment_bytes,
            segments_per_bank=1,
            n_banks=1,
        )
    meta = {
        "version": CHIP_FILE_VERSION,
        "model": chip.model,
        "seed": chip.seed,
        "die_id": chip.die_id,
        "clock_us": chip.trace.now_us,
        "energy_uj": chip.trace.energy_uj,
        "temperature_c": chip.array.temperature_c,
        "geometry": {
            "bits_per_word": geometry.bits_per_word,
            "segment_bytes": geometry.segment_bytes,
            "segments_per_bank": geometry.segments_per_bank,
            "n_banks": geometry.n_banks,
        },
        "params": _params_to_json(chip.params),
        "rng_state": chip.rng.bit_generator.state,
    }
    arrays = {
        name: getattr(chip.array, name)[cells] for name in _ARRAY_CELLS
    }
    arrays.update(
        (name, getattr(chip.array.static, name)[cells])
        for name in _STATIC_CELLS
    )
    return meta, arrays


def _chip_from_state(
    meta: dict, arrays: Dict[str, np.ndarray]
) -> Microcontroller:
    """Build a :class:`Microcontroller` from ``(meta, arrays)`` — the
    one construction both containers' readers share.  ``arrays`` must
    be the chip's own (writable) copies: the engine mutates them."""
    if meta.get("version") != CHIP_FILE_VERSION:
        raise ChipPersistenceError(
            f"unsupported chip file version {meta.get('version')!r}"
        )
    params = _params_from_json(meta["params"])
    geometry = FlashGeometry(**meta["geometry"])
    for name in _ARRAY_CELLS + _STATIC_CELLS:
        if arrays[name].shape != (geometry.total_bits,):
            raise ChipPersistenceError(
                f"array {name!r} holds {arrays[name].size} cells, "
                f"the geometry {geometry.total_bits}"
            )

    chip = object.__new__(Microcontroller)
    chip.model = meta["model"]
    chip.seed = meta["seed"]
    chip.params = params
    chip.die_id = meta["die_id"]
    chip.rng = np.random.default_rng()
    chip.rng.bit_generator.state = meta["rng_state"]
    chip.trace = OperationTrace()
    chip.trace.now_us = float(meta["clock_us"])
    chip.trace.energy_uj = float(meta["energy_uj"])

    array = object.__new__(NorFlashArray)
    array.geometry = geometry
    array.params = params
    array.rng = chip.rng
    array.static = StaticCellLot(
        **{name: arrays[name] for name in _STATIC_CELLS}
    )
    for name in _ARRAY_CELLS:
        setattr(array, name, arrays[name])
    array.temperature_c = float(
        meta.get("temperature_c", params.cell.nominal_temperature_c)
    )
    chip.array = array

    timing = MSP430F5438_TIMING
    if chip.model in SUPPORTED_MODELS:
        timing = SUPPORTED_MODELS[chip.model][1]
    chip.flash = FlashController(array, timing, chip.trace)
    chip.regs = FlashRegisterFile(chip.flash)
    return chip


def _wrap_decode(decode, source) -> Microcontroller:
    """Run a reader; every failure but a missing file surfaces as
    :class:`ChipPersistenceError`."""
    try:
        return decode(source)
    except (ChipPersistenceError, FileNotFoundError):
        raise
    except Exception as exc:
        raise ChipPersistenceError(
            f"corrupt or truncated chip state: {exc}"
        ) from exc


# -- chip files (.npz) -----------------------------------------------------


def save_chip(
    chip: Microcontroller,
    path: Union[str, Path, io.IOBase],
    *,
    segment: Optional[int] = None,
) -> None:
    """Write a chip's state to ``path`` (.npz, stored).

    ``path`` may also be a binary file-like object.

    ``segment=None`` writes the whole die.  An index writes the die cut
    to that one segment, which reloads as a one-segment die whose
    segment 0 is this die's segment ``segment``; a segment the die does
    not have raises ``ValueError``.
    """
    meta, cells = _chip_state(chip, segment)
    rng_state = meta.pop("rng_state")
    target = Path(path) if isinstance(path, (str, Path)) else path
    arrays = dict(
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **cells,
        rng_state=np.frombuffer(
            json.dumps(rng_state).encode(), dtype=np.uint8
        ),
    )
    # Injection point: a scheduled "error" models a failed write (raises
    # from fault_point); truncate/corrupt model a partial write that the
    # next load must reject with a typed ChipPersistenceError.
    action = fault_point("device.save_chip")
    if action is not None:
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        data = action.apply_bytes(buf.getvalue())
        if isinstance(target, Path):
            target.write_bytes(data)
        else:
            target.write(data)
        return
    np.savez(target, **arrays)


def load_chip(path: Union[str, Path, io.IOBase]) -> Microcontroller:
    """Reload a chip saved with :func:`save_chip`.

    Raises :class:`ChipPersistenceError` when the file is truncated,
    corrupt, missing arrays, or of an unsupported version — never a raw
    ``zipfile``/``json`` exception.
    """
    source = Path(path) if isinstance(path, (str, Path)) else path
    return _wrap_decode(_load_chip_raw, source)


def _load_chip_raw(source) -> Microcontroller:
    with np.load(source) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        meta["rng_state"] = json.loads(bytes(data["rng_state"]).decode())
        arrays = {
            name: data[name].copy()
            for name in _ARRAY_CELLS + _STATIC_CELLS
        }
    return _chip_from_state(meta, arrays)


# -- chip bytes (raw form) -------------------------------------------------


def chip_to_bytes(
    chip: Microcontroller, *, segment: Optional[int] = None
) -> bytes:
    """Serialize a chip to its raw byte form (module docstring).

    ``segment`` as in :func:`save_chip`: the service wire protocol
    ships one segment of a chip as these bytes, the body of its binary
    verify frame.
    """
    meta, arrays = _chip_state(chip, segment)
    cells = [
        np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<"))
        for a in arrays.values()
    ]
    header = json.dumps(
        {
            "meta": meta,
            "arrays": [
                [name, a.dtype.str, a.size]
                for name, a in zip(arrays, cells)
            ],
        },
        separators=(",", ":"),
    ).encode()
    parts = [_RAW_MAGIC, _U32.pack(len(header)), header]
    parts += [memoryview(a).cast("B") for a in cells]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_U32.pack(crc))
    data = b"".join(parts)
    # Injection point: "error" models a read-back failure, the payload
    # kinds hand downstream consumers a damaged blob.
    action = fault_point("device.chip_to_bytes")
    if action is not None:
        data = action.apply_bytes(data)
    return data


def chip_from_bytes(data) -> Microcontroller:
    """Inverse of :func:`chip_to_bytes` (any bytes-like ``data``).

    The chip owns copies of its arrays, never views of ``data``.
    Raises :class:`ChipPersistenceError` on a damaged blob, or on one
    that does not start with the raw form's magic (a ``.npz`` file's
    bytes among them: :func:`load_chip` reads those).
    """
    action = fault_point("device.chip_from_bytes")
    if action is not None:
        data = action.apply_bytes(data)
    if bytes(data[: len(_RAW_MAGIC)]) != _RAW_MAGIC:
        raise ChipPersistenceError("not chip bytes: wrong magic")
    return _wrap_decode(_chip_from_raw, memoryview(data))


def _chip_from_raw(view: memoryview) -> Microcontroller:
    body = view[:-_U32.size]
    if len(body) <= len(_RAW_MAGIC) + _U32.size:
        raise ChipPersistenceError("truncated chip bytes")
    (crc,) = _U32.unpack(view[-_U32.size :])
    if zlib.crc32(body) != crc:
        raise ChipPersistenceError("chip bytes fail their CRC-32 check")
    offset = len(_RAW_MAGIC)
    (header_len,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    header = json.loads(bytes(body[offset : offset + header_len]))
    offset += header_len
    arrays = {}
    for name, dtype, count in header["arrays"]:
        dtype = np.dtype(dtype)
        arrays[name] = np.frombuffer(
            body, dtype=dtype, count=count, offset=offset
        ).astype(dtype.newbyteorder("="))
        offset += dtype.itemsize * count
    if offset != len(body):
        raise ChipPersistenceError(
            f"chip bytes hold {len(body) - offset} bytes past the arrays"
        )
    return _chip_from_state(header["meta"], arrays)
