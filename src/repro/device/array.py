"""NOR flash cell array: the physics state of a simulated die.

This module holds, for every cell of a die, the evolving physical state
(threshold voltage, wear counters) plus the static manufacture-time
parameters, and exposes the three primitive flash operations — program,
erase pulse (full or aborted), read — on flat bit-index slices.

The operations themselves live in the cell model,
:mod:`repro.phys.kernels`, written once over ``(n_dies, n_cells)``
views.  A die is a population of one: :meth:`NorFlashArray.view` hands
the kernels ``[None, sl]`` views of its 1-D arrays and its generator,
so the writes land here and the die draws its noise in the kernels'
documented order.  The die's state stays in its own 1-D arrays, the
form persistence and the wire format store.

The array knows nothing about command timing, registers or protection;
that is the :class:`~repro.device.controller.FlashController`'s job.
Slices are flat bit-index slices produced by
:meth:`~repro.device.geometry.FlashGeometry.segment_bit_slice` and
friends; bit values use the flash convention (1 = erased/conducting,
0 = programmed/non-conducting).
"""

from __future__ import annotations

import copy as _copy
from typing import Optional

import numpy as np

from ..phys import kernels
from ..phys.constants import PhysicalParams
from ..phys.erase import crossing_time_us
from ..phys.program import apply_program_transient
from ..phys.variation import StaticCellLot, sample_static_cells
from ..phys.wear import effective_cycles
from .geometry import FlashGeometry

__all__ = ["NorFlashArray"]


class NorFlashArray:
    """Physics state of every cell in a simulated NOR flash die.

    Parameters
    ----------
    geometry:
        Array dimensions.
    params:
        Physical model parameters.
    rng:
        Random generator used for the manufacture-time draw and for all
        per-operation noise.  Two arrays built with generators seeded
        identically are indistinguishable.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        params: PhysicalParams,
        rng: np.random.Generator,
    ):
        self.geometry = geometry
        self.params = params
        self.rng = rng
        n = geometry.total_bits
        self.static: StaticCellLot = sample_static_cells(n, params, rng)
        #: Current threshold voltage per cell [V]; dies ship erased.
        self.vth: np.ndarray = self.static.vth_erased.copy()
        #: Completed program operations per cell.
        self.program_cycles: np.ndarray = np.zeros(n, dtype=np.float64)
        #: Erase pulses seen while the cell held no programmed charge.
        self.erase_only_cycles: np.ndarray = np.zeros(n, dtype=np.float64)
        #: True if the cell was programmed since the last erase pulse.
        self.programmed_since_erase: np.ndarray = np.zeros(n, dtype=bool)
        #: Junction temperature [deg C]; erase transients speed up when
        #: hot (see ``CellParams.erase_temp_coefficient_per_k``).
        self.temperature_c: float = params.cell.nominal_temperature_c

    # -- derived quantities -------------------------------------------

    def n_effective(self, sl: slice) -> np.ndarray:
        """Effective stress-cycle count for the cells in ``sl``."""
        return effective_cycles(
            self.program_cycles[sl],
            self.erase_only_cycles[sl],
            self.params.wear,
        )

    def current_tau_us(self, sl: slice) -> np.ndarray:
        """Wear- and temperature-adjusted erase time constant [us].

        Jitter-free; hot dies erase faster (tau shrinks) along an
        Arrhenius-like law around the calibration temperature.
        """
        return kernels.tau_us(self.view(sl))[0]

    def erase_crossing_times_us(self, sl: slice) -> np.ndarray:
        """Partial-erase time at which each cell would read erased [us].

        Computed from the *current* threshold voltage with the jitter-free
        time constant; cells already reading erased return 0.
        """
        return crossing_time_us(
            self.vth[sl],
            self.params.cell.v_ref,
            self.current_tau_us(sl),
            self.params.cell.erase_slope_v_per_decade,
        )

    def view(self, sl: slice) -> kernels.CellViews:
        """The cells of ``sl`` as a population of one.

        ``[None, sl]`` views of this die's arrays and its generator, the
        form every :mod:`repro.phys.kernels` operation acts on; their
        writes land in this die's state.
        """
        static = self.static
        return kernels.CellViews(
            params=self.params,
            rngs=(self.rng,),
            temperature_c=(self.temperature_c,),
            vth=self.vth[None, sl],
            program_cycles=self.program_cycles[None, sl],
            erase_only_cycles=self.erase_only_cycles[None, sl],
            programmed_since_erase=self.programmed_since_erase[None, sl],
            tau0_us=static.tau0_us[None, sl],
            susceptibility=static.wear_susceptibility[None, sl],
            vth_programmed=static.vth_programmed[None, sl],
            vth_erased=static.vth_erased[None, sl],
        )

    @staticmethod
    def _to_program(sl: slice, pattern: np.ndarray) -> np.ndarray:
        """The cells of ``sl`` that ``pattern`` programs (its 0 bits)."""
        pattern = np.asarray(pattern)
        n = sl.stop - sl.start
        if pattern.shape != (n,):
            raise ValueError(
                f"pattern length {pattern.shape} does not match slice ({n},)"
            )
        return pattern == 0

    # -- primitive operations -------------------------------------------

    def program_bits(self, sl: slice, pattern: np.ndarray) -> None:
        """Program the cells of ``sl`` whose ``pattern`` bit is 0.

        Flash programming only moves bits from 1 to 0: pattern-1 cells
        are left untouched (whatever their current state), pattern-0
        cells are charged to their programmed level.
        """
        mask = self._to_program(sl, pattern)[None, :]
        if not np.any(mask):
            return
        cells = self.view(sl)
        cells.vth[mask] = kernels.program_targets(cells, mask)

    def partial_program_bits(
        self, sl: slice, pattern: np.ndarray, t_us: float
    ) -> None:
        """Program pattern-0 cells with a pulse of only ``t_us`` [us].

        Shorter pulses than the nominal full program time leave cells
        partially charged — the sweeping-partial-program sensing knob of
        the FFD recycled-chip detector ([6]) and of flash TRNGs ([15]).
        Wear is charged fractionally (``t / t_full`` of a program
        cycle); programming never lowers a threshold voltage.
        """
        if t_us < 0:
            raise ValueError("program duration must be non-negative")
        mask = self._to_program(sl, pattern)[None, :]
        if not np.any(mask) or t_us == 0:
            return
        cell = self.params.cell
        cells = self.view(sl)
        target = kernels.program_targets(
            cells, mask, bump=min(1.0, t_us / cell.program_t_full_us)
        )
        cells.vth[mask] = apply_program_transient(
            cells.vth[mask],
            target,
            t_us,
            cell.program_t_full_us,
            cell.program_tau_us,
        )

    def erase_pulse(self, sl: slice, t_us: float) -> None:
        """Apply the erase voltage to all cells of ``sl`` for ``t_us``.

        A full erase uses the nominal erase time (long enough for every
        cell to reach its erased floor); Flashmark's partial erase aborts
        after a few tens of microseconds, freezing the transient.
        """
        kernels.erase_pulse(self.view(sl), t_us)

    def read_bits(self, sl: slice, n_reads: int = 1) -> np.ndarray:
        """Sense the cells of ``sl``; returns uint8 bits (1 = erased).

        With ``n_reads > 1`` (odd), each cell's value is the majority
        vote over independent reads — the AnalyzeSegment behaviour of the
        paper's Fig. 3.
        """
        return kernels.majority_read(self.view(sl), n_reads)[0]

    # -- bulk fast path ---------------------------------------------------

    def bulk_stress(
        self, sl: slice, pattern: np.ndarray, n_cycles: int
    ) -> None:
        """Apply ``n_cycles`` iterations of [full erase; program pattern].

        Exactly equivalent (in wear counters and, with noise disabled, in
        final threshold voltages) to calling :meth:`erase_pulse` +
        :meth:`program_bits` in a loop, but O(cells) instead of
        O(cells x cycles).  This is what makes 100 K-cycle imprints and
        multi-point sweeps tractable; ``ImprintFlashmark`` uses it unless
        asked to simulate cycle by cycle.

        The loop ends, like the paper's Fig. 7, with the pattern
        programmed into the segment.
        """
        if n_cycles < 0:
            raise ValueError("n_cycles must be non-negative")
        if n_cycles == 0:
            return
        programmed_bits = self._to_program(sl, pattern)  # "bad" cells
        erased_bits = ~programmed_bits  # untouched, "good" cells

        # Wear accounting, matching the loop semantics exactly:
        # cycle 1's erase charges an erase-only cycle to every cell that
        # was not programmed on entry; afterwards, pattern-0 cells are
        # always programmed when the erase hits, pattern-1 cells never are.
        eo = self.erase_only_cycles[sl]
        eo[~self.programmed_since_erase[sl]] += 1.0
        eo[erased_bits] += float(n_cycles - 1)

        # Final state: pattern programmed (last loop operation), with
        # the program cycles of all n_cycles charged at once.
        cells = self.view(sl)
        mask = programmed_bits[None, :]
        cells.vth[mask] = kernels.program_targets(
            cells, mask, bump=float(n_cycles)
        )
        erased = erased_bits[None, :]
        cells.vth[erased] = cells.vth_erased[erased]
        cells.programmed_since_erase[erased] = False

    # -- lifecycle -------------------------------------------------------

    def copy(self, rng: Optional[np.random.Generator] = None) -> "NorFlashArray":
        """Deep copy of the die (state and static parameters).

        Useful for what-if experiments: fork a die, run two different
        procedures, compare.  Pass ``rng`` to decorrelate the copies'
        future noise; by default the copy gets an independent generator
        spawned from this one's bit stream.
        """
        clone = _copy.copy(self)
        clone.temperature_c = self.temperature_c
        clone.vth = self.vth.copy()
        clone.program_cycles = self.program_cycles.copy()
        clone.erase_only_cycles = self.erase_only_cycles.copy()
        clone.programmed_since_erase = self.programmed_since_erase.copy()
        clone.rng = rng if rng is not None else np.random.default_rng(
            self.rng.integers(0, 2**63)
        )
        return clone
