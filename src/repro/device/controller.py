"""Flash memory controller: the digital interface Flashmark drives.

The controller exposes exactly the command surface the paper uses on the
MSP430 flash module:

* word program and block-write (1 -> 0 only);
* segment erase and bank mass erase;
* **partial erase** — initiate a segment erase, wait ``t_PE``
  microseconds, then issue the emergency-exit abort;
* **erase-until-clean** — the premature erase exit that cuts imprint
  time ~3.5x in Section V: poll-verify and stop as soon as every cell
  reads erased;
* word/segment reads with optional N-read majority voting.

Every operation charges datasheet timing (and energy) against the
device's :class:`~repro.device.tracing.OperationTrace`, so experiments
read imprint/extract wall times straight off the device clock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..compat import trapezoid
from .array import NorFlashArray
from .errors import FlashAddressError, FlashLockedError
from .geometry import FlashGeometry
from .pack import bits_to_word, bits_to_words, word_to_bits, words_to_bits
from .timing import TimingProfile
from .tracing import OperationTrace

__all__ = ["FlashController"]


class FlashController:
    """Digital command interface over a :class:`NorFlashArray`.

    Parameters
    ----------
    array:
        The cell-physics array the controller drives.
    timing:
        Datasheet timing profile used for the device clock.
    trace:
        Operation trace; a fresh one is created if not supplied.
    """

    def __init__(
        self,
        array: NorFlashArray,
        timing: TimingProfile,
        trace: Optional[OperationTrace] = None,
    ):
        self.array = array
        self.timing = timing
        self.trace = trace if trace is not None else OperationTrace()
        #: Software write/erase protection (the LOCK bit of FCTL3).
        self.locked = False
        #: Optional telemetry context (see :meth:`attach_telemetry`).
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> "FlashController":
        """Bind a :class:`~repro.telemetry.Telemetry` context.

        Points the telemetry's span accounting at this controller's
        :class:`OperationTrace` and enables the controller's own metric
        hooks (erase-convergence and bulk-cycle histograms).  The hooks
        are guarded by a ``None`` check, so an unattached controller
        pays nothing.
        """
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_trace(self.trace)
        return self

    @property
    def geometry(self) -> FlashGeometry:
        return self.array.geometry

    # -- guards ----------------------------------------------------------

    def _require_unlocked(self) -> None:
        if self.locked:
            raise FlashLockedError(
                "program/erase issued while flash is locked (LOCK=1)"
            )

    def _segment_slice(self, segment: int) -> slice:
        try:
            return self.geometry.segment_bit_slice(segment)
        except ValueError as exc:
            raise FlashAddressError(str(exc)) from None

    # -- program ----------------------------------------------------------

    def program_word(self, address: int, value: int) -> None:
        """Program one word; only 1 -> 0 transitions take effect."""
        self._require_unlocked()
        try:
            sl = self.geometry.word_bit_slice(address)
        except ValueError as exc:
            raise FlashAddressError(str(exc)) from None
        bits = word_to_bits(value, self.geometry.bits_per_word)
        self.array.program_bits(sl, bits)
        self.trace.charge(
            "program_word",
            self.timing.t_cmd_overhead_us + self.timing.t_program_word_us,
            address=address,
            energy_uj=self.timing.e_program_word_uj,
        )

    def program_segment_words(
        self, segment: int, words: np.ndarray, block: bool = True
    ) -> None:
        """Program a whole segment's words (block-write mode by default)."""
        self._require_unlocked()
        sl = self._segment_slice(segment)
        words = np.asarray(words)
        if words.shape != (self.geometry.words_per_segment,):
            raise ValueError(
                f"expected {self.geometry.words_per_segment} words, "
                f"got shape {words.shape}"
            )
        bits = words_to_bits(words, self.geometry.bits_per_word)
        self.array.program_bits(sl, bits)
        n_words = int(words.size)
        self.trace.charge(
            "program_segment",
            self.timing.t_cmd_overhead_us
            + self.timing.segment_program_time_us(n_words, block=block),
            address=self.geometry.segment_base(segment),
            energy_uj=n_words * self.timing.e_program_word_uj,
        )

    def program_segment_bits(
        self, segment: int, bits: np.ndarray, block: bool = True
    ) -> None:
        """Program a whole segment from a flat bit pattern (1 = leave erased)."""
        self._require_unlocked()
        sl = self._segment_slice(segment)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.geometry.bits_per_segment,):
            raise ValueError(
                f"expected {self.geometry.bits_per_segment} bits, "
                f"got shape {bits.shape}"
            )
        self.array.program_bits(sl, bits)
        n_words = self.geometry.words_per_segment
        self.trace.charge(
            "program_segment",
            self.timing.t_cmd_overhead_us
            + self.timing.segment_program_time_us(n_words, block=block),
            address=self.geometry.segment_base(segment),
            energy_uj=n_words * self.timing.e_program_word_uj,
        )

    def partial_program_segment(
        self, segment: int, bits: np.ndarray, t_pp_us: float
    ) -> None:
        """Program a segment pattern with an aborted (partial) pulse.

        The partial-program counterpart of
        :meth:`partial_erase_segment`: the programming voltage is
        removed after ``t_pp_us`` instead of the nominal T_PROG, leaving
        pattern-0 cells partially charged.  Used by the FFD-style
        recycled detector and the flash TRNG baselines.
        """
        self._require_unlocked()
        if t_pp_us < 0:
            raise ValueError("partial program time must be non-negative")
        sl = self._segment_slice(segment)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.geometry.bits_per_segment,):
            raise ValueError(
                f"expected {self.geometry.bits_per_segment} bits, "
                f"got shape {bits.shape}"
            )
        self.array.partial_program_bits(sl, bits, t_pp_us)
        self.trace.charge(
            "partial_program",
            self.timing.t_cmd_overhead_us
            + t_pp_us
            + self.timing.t_abort_overhead_us,
            address=self.geometry.segment_base(segment),
            energy_uj=self.geometry.words_per_segment
            * self.timing.e_program_word_uj
            * min(1.0, t_pp_us / self.timing.t_program_word_us),
        )

    # -- erase -------------------------------------------------------------

    def erase_segment(self, segment: int) -> None:
        """Full segment erase (nominal T_ERASE; all cells reach floor)."""
        self._require_unlocked()
        sl = self._segment_slice(segment)
        self.array.erase_pulse(sl, self.timing.t_erase_us)
        self.trace.charge(
            "erase_segment",
            self.timing.t_cmd_overhead_us + self.timing.t_erase_us,
            address=self.geometry.segment_base(segment),
            energy_uj=self.timing.e_erase_uj,
        )

    def mass_erase_bank(self, bank: int) -> None:
        """Erase every segment of ``bank`` in one operation."""
        self._require_unlocked()
        segments = self.geometry.bank_segments(bank)
        first = self.geometry.segment_bit_slice(segments[0])
        last = self.geometry.segment_bit_slice(segments[-1])
        sl = slice(first.start, last.stop)
        self.array.erase_pulse(sl, self.timing.t_erase_us)
        self.trace.charge(
            "mass_erase",
            self.timing.t_cmd_overhead_us + self.timing.t_erase_us,
            address=self.geometry.segment_base(segments[0]),
            energy_uj=self.timing.e_erase_uj * len(segments),
        )

    def partial_erase_segment(self, segment: int, t_pe_us: float) -> None:
        """Initiate a segment erase and abort it after ``t_pe_us``.

        This is the paper's core sensing primitive (Fig. 3 / Fig. 8): the
        emergency-exit command freezes every cell mid-transient, leaving
        the wear-dependent pattern readable through normal reads.
        """
        self._require_unlocked()
        if t_pe_us < 0:
            raise ValueError("partial erase time must be non-negative")
        sl = self._segment_slice(segment)
        self.array.erase_pulse(sl, t_pe_us)
        self.trace.charge(
            "partial_erase",
            self.timing.t_cmd_overhead_us
            + t_pe_us
            + self.timing.t_abort_overhead_us,
            address=self.geometry.segment_base(segment),
            energy_uj=self.timing.e_erase_uj
            * min(1.0, t_pe_us / self.timing.t_erase_us),
        )

    def erase_segment_until_clean(
        self,
        segment: int,
        margin: float = 2.0,
        max_pulses: int = 8,
    ) -> float:
        """Accelerated erase: stop as soon as every cell reads erased.

        Applies an erase pulse sized ``margin`` times the slowest cell's
        predicted crossing time, then verifies with a read; repeats (up to
        ``max_pulses``) if any cell still reads programmed.  Returns the
        total erase time spent [us] — typically hundreds of microseconds
        instead of the 25 ms nominal erase, which is where the paper's
        ~3.5x imprint speed-up comes from.
        """
        self._require_unlocked()
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        sl = self._segment_slice(segment)
        total_t = 0.0
        for _ in range(max_pulses):
            crossings = self.array.erase_crossing_times_us(sl)
            t_pulse = max(float(crossings.max()) * margin, 10.0)
            self.array.erase_pulse(sl, t_pulse)
            total_t += t_pulse
            verify = self.array.read_bits(sl, n_reads=1)
            self.trace.charge(
                "erase_verify_read",
                self.timing.segment_read_time_us(
                    self.geometry.words_per_segment
                ),
                address=self.geometry.segment_base(segment),
            )
            if verify.all():
                break
        self.trace.charge(
            "erase_until_clean",
            self.timing.t_cmd_overhead_us
            + total_t
            + self.timing.t_abort_overhead_us,
            address=self.geometry.segment_base(segment),
            energy_uj=self.timing.e_erase_uj
            * min(1.0, total_t / self.timing.t_erase_us),
        )
        if self.telemetry is not None:
            self.telemetry.observe("device.erase_until_clean_us", total_t)
        return total_t

    # -- read ---------------------------------------------------------------

    def read_word(self, address: int, n_reads: int = 1) -> int:
        """Read one word (majority vote over ``n_reads`` if > 1)."""
        try:
            sl = self.geometry.word_bit_slice(address)
        except ValueError as exc:
            raise FlashAddressError(str(exc)) from None
        bits = self.array.read_bits(sl, n_reads=n_reads)
        self.trace.charge(
            "read_word",
            n_reads * self.timing.t_read_word_us,
            address=address,
            energy_uj=n_reads * self.timing.e_read_word_uj,
        )
        return bits_to_word(bits)

    def read_segment_bits(self, segment: int, n_reads: int = 1) -> np.ndarray:
        """Read all bits of a segment (flat uint8 vector, 1 = erased)."""
        sl = self._segment_slice(segment)
        bits = self.array.read_bits(sl, n_reads=n_reads)
        n_words = self.geometry.words_per_segment
        self.trace.charge(
            "read_segment",
            self.timing.segment_read_time_us(n_words, n_reads=n_reads),
            address=self.geometry.segment_base(segment),
            energy_uj=n_reads * n_words * self.timing.e_read_word_uj,
        )
        return bits

    def read_segment_words(self, segment: int, n_reads: int = 1) -> np.ndarray:
        """Read a segment as a vector of word values."""
        bits = self.read_segment_bits(segment, n_reads=n_reads)
        return bits_to_words(bits, self.geometry.bits_per_word)

    # -- bulk fast path -------------------------------------------------------

    def bulk_pe_cycles(
        self,
        segment: int,
        pattern_bits: np.ndarray,
        n_cycles: int,
        accelerated: bool = False,
    ) -> None:
        """Charge ``n_cycles`` [erase; program pattern] cycles in one call.

        Physically exact (delegates to :meth:`NorFlashArray.bulk_stress`)
        and charges the same device time the explicit loop would:
        ``n_cycles * (T_ERASE + block-write)`` for the baseline, or the
        integrated premature-exit erase times when ``accelerated``.
        """
        self._require_unlocked()
        if n_cycles < 0:
            raise ValueError("n_cycles must be non-negative")
        if n_cycles == 0:
            return
        sl = self._segment_slice(segment)
        pattern_bits = np.asarray(pattern_bits, dtype=np.uint8)
        if accelerated:
            erase_time_us = self._accelerated_erase_time_us(
                sl, pattern_bits, n_cycles
            )
            per_cycle_overhead = self.timing.segment_read_time_us(
                self.geometry.words_per_segment
            )
            erase_time_us += n_cycles * per_cycle_overhead
        else:
            erase_time_us = n_cycles * self.timing.t_erase_us
        self.array.bulk_stress(sl, pattern_bits, n_cycles)
        program_time = self.timing.segment_program_time_us(
            self.geometry.words_per_segment, block=True
        )
        total = n_cycles * (
            2 * self.timing.t_cmd_overhead_us + program_time
        ) + erase_time_us
        self.trace.charge(
            "bulk_pe_cycles",
            total,
            address=self.geometry.segment_base(segment),
            energy_uj=n_cycles
            * (
                self.timing.e_erase_uj
                * (erase_time_us / n_cycles / self.timing.t_erase_us if accelerated else 1.0)
                + self.geometry.words_per_segment
                * self.timing.e_program_word_uj
            ),
            count=n_cycles,
        )
        if self.telemetry is not None:
            self.telemetry.count("device.bulk_pe_cycles", n_cycles)
            self.telemetry.observe("device.bulk_pe_batch", float(n_cycles))

    def _accelerated_erase_time_us(
        self, sl: slice, pattern_bits: np.ndarray, n_cycles: int
    ) -> float:
        """Total erase time of ``n_cycles`` premature-exit erases [us].

        The slowest cell's crossing time grows as wear accumulates, so
        the per-cycle erase time is integrated over the cycle count on a
        logarithmic grid (the growth law is smooth and monotone).
        """
        from ..phys.erase import crossing_time_us as _crossing
        from ..phys.wear import tau_wear_multiplier as _mult

        cellp = self.array.params.cell
        wearp = self.array.params.wear
        stressed = np.asarray(pattern_bits) == 0
        if not np.any(stressed):
            # Nothing is ever programmed; each erase costs the fresh
            # crossing time of the slowest cell plus margin.
            crossings = self.array.erase_crossing_times_us(sl)
            return float(n_cycles * max(2.0 * crossings.max(), 10.0))
        idx = np.flatnonzero(stressed) + sl.start
        tau0 = self.array.static.tau0_us[idx]
        suscept = self.array.static.wear_susceptibility[idx]
        vth_p = self.array.static.vth_programmed[idx]
        base_pc = self.array.program_cycles[idx]
        base_eo = self.array.erase_only_cycles[idx]

        grid = np.sort(
            np.concatenate(
                [
                    np.array([1.0]),
                    np.geomspace(1.0, float(n_cycles), num=64),
                    np.array([float(n_cycles)]),
                ]
            )
        )
        # Drop repeats by hand rather than with np.unique: numpy >= 2.3
        # imports numpy.ma on the first np.unique call, which every
        # forked engine worker would pay again on each imprint.
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        from ..phys.wear import effective_cycles as _effective
        from ..phys.wear import programmed_level_shift as _shift

        t_max = np.empty_like(grid)
        for i, k in enumerate(grid):
            n_eff = _effective(base_pc + k, base_eo + 1.0, wearp)
            tau = tau0 * _mult(n_eff, suscept, wearp)
            crossings = _crossing(
                vth_p + _shift(n_eff, wearp, suscept),
                cellp.v_ref,
                tau,
                cellp.erase_slope_v_per_decade,
            )
            t_max[i] = 2.0 * crossings.max()  # margin factor 2
        # Integrate per-cycle cost over cycles via the trapezoid rule.
        return float(trapezoid(t_max, grid))
