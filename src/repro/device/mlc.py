"""Multi-level cell (MLC) flash variant.

Section II: "A flash memory cell typically keeps one bit of information
(single-level cells or SLCs), though multi-level cells (MLCs) are used
in high-density flash memories that can store multiple bits in a single
cell."  This module adds a 2-bit MLC device on the same cell physics:
four threshold-voltage levels, Gray-coded so a single-level misread
corrupts only one of the two bits, three read references.

Flashmark ports to MLC naturally: imprinting stresses cells exactly as
on SLC (full program/erase cycles), and extraction partial-erases from
the *highest* level, so the level-3 transient crosses all three read
references in wear-dependent order.  The included
:meth:`MlcNorFlash.extract_flashmark_bits` uses the lowest reference —
the last one a discharging cell crosses — which gives the widest timing
contrast.

Like the NAND variant, geometry is scaled down to keep simulator state
modest; per-cell physics is identical to the calibrated SLC model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..phys.constants import PhysicalParams
from ..phys.kernels import program_targets
from .array import NorFlashArray
from .errors import FlashCommandError
from .geometry import FlashGeometry
from .timing import MSP430F5438_TIMING, TimingProfile
from .tracing import OperationTrace

__all__ = ["MlcNorFlash", "MLC_GEOMETRY", "MLC_LEVELS_V", "MLC_READ_REFS_V"]

#: Small MLC array: cells are addressed directly (one "byte" of the
#: underlying geometry = 8 cells = 16 stored bits).
MLC_GEOMETRY = FlashGeometry(
    bits_per_word=8, segment_bytes=512, segments_per_bank=8, n_banks=1
)

#: Target threshold voltage per level, level 0 = fully erased [V].
MLC_LEVELS_V: Tuple[float, ...] = (1.5, 3.7, 4.5, 5.2)
#: Read references separating the four levels [V].
MLC_READ_REFS_V: Tuple[float, ...] = (3.2, 4.1, 4.85)

#: Gray code: level index -> (lsb, msb); adjacent levels differ by 1 bit.
_GRAY = ((1, 1), (1, 0), (0, 0), (0, 1))


@dataclass(frozen=True)
class _LevelRead:
    """Per-cell level decision plus decoded bit pair."""

    levels: np.ndarray
    lsb: np.ndarray
    msb: np.ndarray


class MlcNorFlash:
    """A 2-bit-per-cell NOR flash on the calibrated cell physics.

    The device reuses :class:`NorFlashArray` for wear accounting and the
    erased floor, but drives threshold voltages to one of four levels.
    """

    def __init__(
        self,
        seed: int = 0,
        params: Optional[PhysicalParams] = None,
        geometry: FlashGeometry = MLC_GEOMETRY,
        timing: TimingProfile = MSP430F5438_TIMING,
    ):
        self.rng = np.random.default_rng(seed)
        self.params = params if params is not None else PhysicalParams()
        self.trace = OperationTrace()
        self.array = NorFlashArray(geometry, self.params, self.rng)
        self.timing = timing

    @property
    def geometry(self) -> FlashGeometry:
        return self.array.geometry

    @property
    def cells_per_segment(self) -> int:
        return self.geometry.bits_per_segment

    # -- operations ---------------------------------------------------

    def erase_segment(self, segment: int) -> None:
        """Full erase: every cell returns to level 0."""
        sl = self.geometry.segment_bit_slice(segment)
        self.array.erase_pulse(sl, self.timing.t_erase_us)
        self.trace.charge(
            "mlc_erase",
            self.timing.t_cmd_overhead_us + self.timing.t_erase_us,
            energy_uj=self.timing.e_erase_uj,
        )

    def program_levels(self, segment: int, levels: np.ndarray) -> None:
        """Program each cell of the segment to a level (0..3).

        Level 0 leaves the cell untouched (programming only raises
        thresholds); levels 1..3 use incremental-step placement with the
        same wear drift and program noise as the SLC model.
        """
        levels = np.asarray(levels)
        n = self.cells_per_segment
        if levels.shape != (n,):
            raise FlashCommandError(
                f"expected {n} levels, got shape {levels.shape}"
            )
        if levels.min() < 0 or levels.max() > 3:
            raise FlashCommandError("MLC levels must be 0..3")
        sl = self.geometry.segment_bit_slice(segment)
        charged = (levels > 0)[None, :]
        if np.any(charged):
            cells = self.array.view(sl)
            level = np.asarray(MLC_LEVELS_V)[levels][None, :]
            placed = program_targets(cells, charged, level=level)
            cells.vth[charged] = np.maximum(cells.vth[charged], placed)
        # MLC programs at ~half the SLC speed per cell (program-verify
        # staircase); coarse but representative.
        self.trace.charge(
            "mlc_program",
            self.timing.t_cmd_overhead_us
            + 2.0
            * self.timing.segment_program_time_us(
                self.geometry.words_per_segment
            ),
            energy_uj=self.geometry.words_per_segment
            * self.timing.e_program_word_uj
            * 2.0,
        )

    def partial_erase(self, segment: int, t_pe_us: float) -> None:
        """Initiate an erase and abort after ``t_pe_us`` (EMEX-style)."""
        if t_pe_us < 0:
            raise ValueError("partial erase time must be non-negative")
        sl = self.geometry.segment_bit_slice(segment)
        self.array.erase_pulse(sl, t_pe_us)
        self.trace.charge(
            "mlc_partial_erase",
            self.timing.t_cmd_overhead_us
            + t_pe_us
            + self.timing.t_abort_overhead_us,
        )

    def read_levels(self, segment: int) -> _LevelRead:
        """Sense each cell against the three references; Gray-decode."""
        sl = self.geometry.segment_bit_slice(segment)
        sigma = self.params.noise.read_sigma_v
        vth = self.array.vth[sl]
        sensed = (
            vth + self.rng.normal(0.0, sigma, size=vth.size)
            if sigma > 0
            else vth
        )
        levels = np.zeros(vth.size, dtype=np.int64)
        for ref in MLC_READ_REFS_V:
            levels += sensed >= ref
        gray = np.asarray(_GRAY, dtype=np.uint8)
        lsb = gray[levels, 0]
        msb = gray[levels, 1]
        self.trace.charge(
            "mlc_read",
            3 * self.timing.segment_read_time_us(
                self.geometry.words_per_segment
            ),
        )
        return _LevelRead(levels=levels, lsb=lsb, msb=msb)

    # -- Flashmark on MLC ------------------------------------------------

    def imprint_flashmark(
        self, segment: int, pattern_bits: np.ndarray, n_pe: int
    ) -> None:
        """Imprint a watermark by cycling pattern-0 cells to level 3.

        Uses the exact bulk fast path of the SLC model — the wear physics
        does not care how many levels the cell stores.
        """
        pattern_bits = np.asarray(pattern_bits, dtype=np.uint8)
        sl = self.geometry.segment_bit_slice(segment)
        self.array.bulk_stress(sl, pattern_bits, n_pe)
        per_cycle = (
            self.timing.t_erase_us
            + 2.0
            * self.timing.segment_program_time_us(
                self.geometry.words_per_segment
            )
        )
        self.trace.charge(
            "mlc_imprint", n_pe * per_cycle, count=n_pe,
            energy_uj=n_pe * self.timing.e_erase_uj,
        )

    def extract_flashmark_bits(
        self, segment: int, t_pew_us: float
    ) -> np.ndarray:
        """One extraction round; returns per-cell bits (1 = good/fresh).

        Erase, program every cell to the top level, partial erase, and
        sense against the *lowest* reference — the last one a
        discharging cell crosses, i.e. the largest wear contrast.
        """
        self.erase_segment(segment)
        self.program_levels(
            segment, np.full(self.cells_per_segment, 3, dtype=np.int64)
        )
        self.partial_erase(segment, t_pew_us)
        read = self.read_levels(segment)
        return (read.levels == 0).astype(np.uint8)
