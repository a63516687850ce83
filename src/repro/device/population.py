"""ChipPopulation: the batched physics state of many dies at once.

Counterfeit screening is a population decision — the integrator
verifies a whole shipment, not one chip.  :class:`ChipPopulation`
stacks the watermark segment of N dies into ``(n_dies, n_cells)``
matrices (static variation, threshold voltages, wear counters) and
replays the extraction sequence — full erase, program, partial erase,
majority read — through the cell model, :mod:`repro.phys.kernels`, so
one call verifies hundreds of dies in a handful of numpy dispatches.

Equivalence
-----------
A population readout is **bit-identical** to running the serial
controller sequence (:func:`repro.core.extract.extract_segment`) on
each die alone, because the serial die model runs the very same cell
operations on a population of one.  What the population adds is:

1. *Per-die generators.*  Every die keeps its own
   ``numpy.random.Generator``, cloned from the chip's, so the input
   chip's stream is never advanced.  The kernels draw row *i*'s noise
   from generator *i* only, in the serial order and shapes their
   docstring documents.
2. *Stacked state.*  Each die's segment slice is copied in, so the
   input chips are never mutated.

Dies are batchable together only when they share the same physics
(:class:`~repro.phys.constants.PhysicalParams`), segment geometry and
timing profile — :meth:`batch_key` is the grouping key the engine uses;
mixed shipments (e.g. rebranded parts with inferior oxide) simply split
into one population per physics group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..phys import kernels
from .mcu import Microcontroller
from .tracing import OperationTrace

__all__ = ["ChipPopulation", "PopulationReadout"]


@dataclass(frozen=True)
class PopulationReadout:
    """Raw result of one batched extraction pass."""

    #: ``(n_dies, n_cells)`` uint8 read-back (1 = sensed erased).
    raw_bits: np.ndarray
    #: Device time one die's extraction charges [us] (identical for all
    #: dies of a population: same timing profile, same geometry).
    duration_us: float


def _clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator positioned at ``rng``'s current state.

    The new bit generator is seeded with ``0`` only to skip the OS
    entropy pull a default-constructed one performs; its state is
    overwritten immediately after, so the clone replays exactly the
    stream ``rng`` would produce.
    """
    clone = np.random.Generator(type(rng.bit_generator)(0))
    clone.bit_generator.state = rng.bit_generator.state
    return clone


class ChipPopulation:
    """Stacked per-segment physics state of N same-family dies.

    Build with :meth:`from_chips`; the input chips are **never
    mutated** — all evolving state (threshold voltages, wear counters,
    RNG streams) is copied, which is also why building a population is
    far cheaper than a ``deepcopy`` of whole microcontrollers.
    """

    def __init__(
        self,
        *,
        params,
        timing,
        words_per_segment: int,
        vth: np.ndarray,
        tau0_us: np.ndarray,
        susceptibility: np.ndarray,
        vth_programmed: np.ndarray,
        vth_erased: np.ndarray,
        program_cycles: np.ndarray,
        erase_only_cycles: np.ndarray,
        programmed_since_erase: np.ndarray,
        temperature_c: np.ndarray,
        rngs: List[np.random.Generator],
    ):
        self.params = params
        self.timing = timing
        self.words_per_segment = words_per_segment
        self.vth = vth
        self.tau0_us = tau0_us
        self.susceptibility = susceptibility
        self.vth_programmed = vth_programmed
        self.vth_erased = vth_erased
        self.program_cycles = program_cycles
        self.erase_only_cycles = erase_only_cycles
        self.programmed_since_erase = programmed_since_erase
        self.temperature_c = temperature_c
        self.rngs = rngs

    # -- construction -----------------------------------------------------

    @staticmethod
    def batch_key(chip: Microcontroller, segment: int) -> Tuple:
        """Hashable key; dies with equal keys can share one population.

        Raises what the serial controller's first extraction command
        raises for a die it cannot verify:
        :class:`~repro.device.FlashLockedError` when the flash is
        locked, then :class:`~repro.device.FlashAddressError` when
        ``segment`` does not exist.  Such a die never enters a
        population.
        """
        chip.flash._require_unlocked()
        sl = chip.flash._segment_slice(segment)
        return (
            chip.params,
            chip.flash.timing,
            sl.stop - sl.start,
            chip.geometry.words_per_segment,
        )

    @classmethod
    def from_chips(
        cls, chips: Sequence[Microcontroller], segment: int
    ) -> "ChipPopulation":
        """Stack one flash segment of every chip into a population.

        Every chip must share the same physics parameters, segment
        geometry and timing profile (see :meth:`batch_key`).
        """
        if not chips:
            raise ValueError("cannot build a population from zero chips")
        head = chips[0]
        key = cls.batch_key(head, segment)
        for chip in chips[1:]:
            if cls.batch_key(chip, segment) != key:
                raise ValueError(
                    "population chips must share physics parameters, "
                    "segment geometry and timing; group by batch_key() "
                    "first"
                )
        slices = [c.geometry.segment_bit_slice(segment) for c in chips]
        return cls(
            params=head.params,
            timing=head.flash.timing,
            words_per_segment=head.geometry.words_per_segment,
            vth=np.stack(
                [c.array.vth[sl] for c, sl in zip(chips, slices)]
            ),
            tau0_us=np.stack(
                [c.array.static.tau0_us[sl] for c, sl in zip(chips, slices)]
            ),
            susceptibility=np.stack(
                [
                    c.array.static.wear_susceptibility[sl]
                    for c, sl in zip(chips, slices)
                ]
            ),
            vth_programmed=np.stack(
                [
                    c.array.static.vth_programmed[sl]
                    for c, sl in zip(chips, slices)
                ]
            ),
            vth_erased=np.stack(
                [
                    c.array.static.vth_erased[sl]
                    for c, sl in zip(chips, slices)
                ]
            ),
            program_cycles=np.stack(
                [c.array.program_cycles[sl] for c, sl in zip(chips, slices)]
            ),
            erase_only_cycles=np.stack(
                [
                    c.array.erase_only_cycles[sl]
                    for c, sl in zip(chips, slices)
                ]
            ),
            programmed_since_erase=np.stack(
                [
                    c.array.programmed_since_erase[sl]
                    for c, sl in zip(chips, slices)
                ]
            ),
            temperature_c=np.array(
                [c.array.temperature_c for c in chips], dtype=np.float64
            ),
            rngs=[_clone_rng(c.rng) for c in chips],
        )

    def clone(self) -> "ChipPopulation":
        """An independent copy (evolving state and RNG streams deep).

        Static arrays are copied too — a population is only the segment
        slice of each die, so the copy is cheap; extraction on a clone
        leaves the original reusable (idempotent retries).
        """
        return ChipPopulation(
            params=self.params,
            timing=self.timing,
            words_per_segment=self.words_per_segment,
            vth=self.vth.copy(),
            tau0_us=self.tau0_us.copy(),
            susceptibility=self.susceptibility.copy(),
            vth_programmed=self.vth_programmed.copy(),
            vth_erased=self.vth_erased.copy(),
            program_cycles=self.program_cycles.copy(),
            erase_only_cycles=self.erase_only_cycles.copy(),
            programmed_since_erase=self.programmed_since_erase.copy(),
            temperature_c=self.temperature_c.copy(),
            rngs=[_clone_rng(rng) for rng in self.rngs],
        )

    @property
    def n_dies(self) -> int:
        return self.vth.shape[0]

    @property
    def n_cells(self) -> int:
        return self.vth.shape[1]

    # -- primitive operations ---------------------------------------------
    #
    # A population carries every CellViews field under the same name,
    # so it is passed to the cell operations as is.

    def current_tau_us(self) -> np.ndarray:
        """Wear- and temperature-adjusted erase time constants, 2-D."""
        return kernels.tau_us(self)

    def erase_pulse(self, t_us: float) -> None:
        """Apply the erase voltage to every cell of every die for ``t_us``."""
        kernels.erase_pulse(self, t_us)

    def program_all(self) -> None:
        """Program every cell of every die (the all-zeros pattern)."""
        self.vth = kernels.program_targets(self)

    def read_bits(self, n_reads: int = 1) -> np.ndarray:
        """Sense every cell; ``(n_dies, n_cells)`` uint8 (1 = erased)."""
        return kernels.majority_read(self, n_reads)

    # -- the extraction fast path -----------------------------------------

    def extract_readout(
        self, t_pew_us: float, n_reads: int = 1
    ) -> PopulationReadout:
        """One ExtractFlashmark round (Fig. 8) over the whole population.

        Full erase, program all, partial erase for ``t_pew_us``, then
        majority read — the exact controller sequence of
        :func:`repro.core.extract.extract_segment`, with every step one
        2-D kernel dispatch.
        """
        if t_pew_us < 0:
            raise ValueError("t_pew_us must be non-negative")
        self.erase_pulse(self.timing.t_erase_us)
        self.program_all()
        self.erase_pulse(t_pew_us)
        raw = self.read_bits(n_reads=n_reads)
        return PopulationReadout(
            raw_bits=raw,
            duration_us=self.extraction_duration_us(t_pew_us, n_reads),
        )

    def _extraction_steps(
        self, t_pew_us: float, n_reads: int
    ) -> Tuple[Tuple[str, float, float], ...]:
        """``(operation, duration [us], energy [uJ])`` of each step.

        The same names, durations and energies, in the same order, as
        the serial controller's four ``trace.charge`` calls.
        """
        timing = self.timing
        n_words = self.words_per_segment
        return (
            (
                "erase_segment",
                timing.t_cmd_overhead_us + timing.t_erase_us,
                timing.e_erase_uj,
            ),
            (
                "program_segment",
                timing.t_cmd_overhead_us
                + timing.segment_program_time_us(n_words, block=True),
                n_words * timing.e_program_word_uj,
            ),
            (
                "partial_erase",
                timing.t_cmd_overhead_us
                + t_pew_us
                + timing.t_abort_overhead_us,
                timing.e_erase_uj * min(1.0, t_pew_us / timing.t_erase_us),
            ),
            (
                "read_segment",
                timing.segment_read_time_us(n_words, n_reads=n_reads),
                n_reads * n_words * timing.e_read_word_uj,
            ),
        )

    def extraction_duration_us(
        self, t_pew_us: float, n_reads: int
    ) -> float:
        """Device time one die's extraction charges [us].

        Summed from ``0.0`` over the serial controller's charges in
        their order, so the value is bit-identical to the per-die device
        clock.
        """
        total = 0.0
        for _, duration_us, _ in self._extraction_steps(t_pew_us, n_reads):
            total += duration_us
        return total

    def charge_extraction(
        self,
        trace: OperationTrace,
        t_pew_us: float,
        n_reads: int,
        address: int = 0,
    ) -> None:
        """Charge one die's extraction onto ``trace``.

        Same operation names, durations and energy the serial
        :class:`~repro.device.controller.FlashController` charges, so
        merged manifests reconcile device clocks identically on either
        path.  Pass the die's segment base as ``address`` to keep even
        ``keep_events`` traces identical.
        """
        for op, duration_us, energy_uj in self._extraction_steps(
            t_pew_us, n_reads
        ):
            trace.charge(
                op, duration_us, address=address, energy_uj=energy_uj
            )
