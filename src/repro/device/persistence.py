"""Chip persistence: save and reload a simulated die's full state.

A chip file is a stored (uncompressed) ``.npz`` holding the evolving
state (threshold voltages, wear counters), the manufacture-time static
lot, the physics parameters, and identity metadata.  Reloading
reproduces the die exactly, so a "chip" can travel between processes —
e.g. a manufacturer script imprints and ships a file, an integrator
script verifies it (see ``python -m repro``).

Five of the eight per-cell arrays are float64 and barely compress, so
the writer skips zlib: a file is about 1.5x the size of a compressed
one, and a whole 512-segment die saves in 0.14 s instead of 7.0 s
(2-vCPU Xeon, numpy 2.4).  Each zip member still carries its CRC-32,
and the loader reads the compressed files of earlier releases too.

A writer may also cut the die to one segment (``segment=``): the
result is a one-segment die, shaped like ``make_mcu(n_segments=1)``,
holding that segment's cells and the whole die's RNG state, clock,
temperature and parameters.  That is all verification reads, and what
the service wire protocol ships.

The file format is versioned; loading checks it.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Optional, Union

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


class ChipPersistenceError(ValueError):
    """A chip file/blob is truncated, corrupt, or of a foreign version.

    Every decode failure — a short read, a damaged ``.npz`` archive,
    missing arrays, unparseable metadata — surfaces as this one type,
    so callers (the CLI, the service wire protocol) can map "bad chip
    state" to a clean client-facing error instead of leaking
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


def save_chip(
    chip: Microcontroller,
    path: Union[str, Path, io.IOBase],
    *,
    segment: Optional[int] = None,
) -> None:
    """Write a chip's state to ``path`` (.npz, stored).

    ``path`` may also be a binary file-like object — the wire protocol
    of :mod:`repro.service` streams chips through :class:`io.BytesIO`.

    ``segment=None`` writes the whole die.  An index writes the die cut
    to that one segment, which reloads as a one-segment die whose
    segment 0 is this die's segment ``segment``; a segment the die does
    not have raises ``ValueError``.
    """
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
    }
    target = Path(path) if isinstance(path, (str, Path)) else path
    arrays = dict(
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        vth=chip.array.vth[cells],
        program_cycles=chip.array.program_cycles[cells],
        erase_only_cycles=chip.array.erase_only_cycles[cells],
        programmed_since_erase=chip.array.programmed_since_erase[cells],
        tau0_us=chip.array.static.tau0_us[cells],
        wear_susceptibility=chip.array.static.wear_susceptibility[cells],
        vth_programmed=chip.array.static.vth_programmed[cells],
        vth_erased=chip.array.static.vth_erased[cells],
        rng_state=np.frombuffer(
            json.dumps(chip.rng.bit_generator.state).encode(),
            dtype=np.uint8,
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
    try:
        return _load_chip_raw(source)
    except ChipPersistenceError:
        raise
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ChipPersistenceError(
            f"corrupt or truncated chip state: {exc}"
        ) from exc


def _load_chip_raw(source) -> Microcontroller:
    with np.load(source) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != CHIP_FILE_VERSION:
            raise ChipPersistenceError(
                f"unsupported chip file version {meta.get('version')!r}"
            )
        params = _params_from_json(meta["params"])
        geometry = FlashGeometry(**meta["geometry"])

        chip = object.__new__(Microcontroller)
        chip.model = meta["model"]
        chip.seed = meta["seed"]
        chip.params = params
        chip.die_id = meta["die_id"]
        chip.rng = np.random.default_rng()
        chip.rng.bit_generator.state = json.loads(
            bytes(data["rng_state"]).decode()
        )
        chip.trace = OperationTrace()
        chip.trace.now_us = float(meta["clock_us"])
        chip.trace.energy_uj = float(meta["energy_uj"])

        array = object.__new__(NorFlashArray)
        array.geometry = geometry
        array.params = params
        array.rng = chip.rng
        array.static = StaticCellLot(
            tau0_us=data["tau0_us"].copy(),
            wear_susceptibility=data["wear_susceptibility"].copy(),
            vth_programmed=data["vth_programmed"].copy(),
            vth_erased=data["vth_erased"].copy(),
        )
        array.vth = data["vth"].copy()
        array.program_cycles = data["program_cycles"].copy()
        array.erase_only_cycles = data["erase_only_cycles"].copy()
        array.programmed_since_erase = data["programmed_since_erase"].copy()
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


def chip_to_bytes(
    chip: Microcontroller, *, segment: Optional[int] = None
) -> bytes:
    """Serialize a chip to the ``.npz`` byte stream.

    The in-memory twin of :func:`save_chip` (``segment`` as there): the
    service wire protocol ships one segment of a chip as these bytes
    (base64-wrapped inside JSON frames).
    """
    buf = io.BytesIO()
    save_chip(chip, buf, segment=segment)
    data = buf.getvalue()
    # Injection point: "error" models a read-back failure, the payload
    # kinds hand downstream consumers a damaged blob.
    action = fault_point("device.chip_to_bytes")
    if action is not None:
        data = action.apply_bytes(data)
    return data


def chip_from_bytes(data: bytes) -> Microcontroller:
    """Inverse of :func:`chip_to_bytes`.

    Raises :class:`ChipPersistenceError` on a damaged blob.
    """
    action = fault_point("device.chip_from_bytes")
    if action is not None:
        data = action.apply_bytes(data)
    return load_chip(io.BytesIO(data))
