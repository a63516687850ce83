"""The flash cell model: every cell operation, written once.

Flashmark's imprint (repeated P/E stress) and extract (full erase,
program, aborted partial erase, majority read; the paper's Figs. 3, 7
and 8) act on one physical cell.  This module is the only place those
operations are written:

* :func:`tau_us` — erase time constant from wear and temperature;
* :func:`erase_pulse` — one (full or aborted) erase pulse with
  per-pulse jitter and erase-only wear;
* :func:`program_targets` — the wear bump, wear-shifted programmed
  level and program noise of the cells a program operation charges;
* :func:`majority_read` — an N-read majority vote with read disturb.

Each operation acts on :class:`CellViews`: ``(n_dies, n_cells)`` views
of the evolving state and static parameters of one or more dies, with
one :class:`numpy.random.Generator` per row.  Every simulator is a
front end over them.  :class:`~repro.device.ChipPopulation` stacks the
watermark segment of N dies and passes itself (it carries the same
fields).  :class:`~repro.device.NorFlashArray` passes one die as a
population of one: ``[None, sl]`` views of its 1-D state and its own
generator, so writes land in the die's arrays.  The MLC, NAND and SPI
NOR dies reach the operations through the die model.

Noise and draw order
--------------------
Three noise processes matter for Flashmark:

* **erase jitter** — the erase transient's time constant varies a
  little from pulse to pulse (trap occupancy fluctuations), which blurs
  the partial-erase transition: multiplicative, lognormal;
* **program noise** — each program operation lands the threshold
  voltage slightly off its per-cell target: additive, Gaussian;
* **read noise** — random telegraph noise plus sense-amplifier noise
  make a cell near the read reference flip between 0 and 1 from read
  to read, which is why the characterisation algorithm (Fig. 3) reads
  N times and majority-votes: additive, Gaussian.

Row *i* draws only from ``rngs[i]``, one call per operation, in the
order the operations run on that die:

================  =================================================
operation         draw (skipped when its sigma is not positive)
================  =================================================
erase_pulse       ``lognormal(0, erase_jitter_sigma, n_cells)``
program_targets   ``normal(0, program_sigma_v, k)``, ``k`` = the
                  row's charged cells (no draw when ``k`` is 0)
majority_read     ``normal(0, read_sigma_v, (n_reads, n_cells))``
================  =================================================

Stacking dies therefore cannot leak draws from one die to another, and
the per-element expressions do not depend on the row count: a row of a
population's result is bit-identical to the same operation run on that
die alone.  ``tests/phys/test_kernels.py`` checks each operation
against the scalar :class:`~repro.phys.cell.FloatingGateCell`;
``tests/device/test_cell_model_pins.py`` pins the serial outcomes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .constants import PhysicalParams
from .erase import apply_erase_transient
from .wear import (
    effective_cycles,
    programmed_level_shift,
    tau_wear_multiplier,
)

__all__ = [
    "CellViews",
    "tau_us",
    "erase_pulse",
    "program_targets",
    "majority_read",
]


class CellViews(NamedTuple):
    """``(n_dies, n_cells)`` views of the cells an operation acts on.

    Operations write evolving state in place, so views into a larger
    array update its owner.
    """

    params: PhysicalParams
    #: One generator per row.
    rngs: Sequence[np.random.Generator]
    #: Junction temperature per row [deg C].
    temperature_c: Sequence[float]
    #: Current threshold voltage [V].
    vth: np.ndarray
    #: Completed program operations (fractional for partial programs).
    program_cycles: np.ndarray
    #: Erase pulses seen while the cell held no programmed charge.
    erase_only_cycles: np.ndarray
    #: True if the cell was programmed since the last erase pulse.
    programmed_since_erase: np.ndarray
    #: Fresh erase time constant [us].
    tau0_us: np.ndarray
    #: Per-cell trap susceptibility ``w_i``.
    susceptibility: np.ndarray
    #: Fresh programmed level [V].
    vth_programmed: np.ndarray
    #: Erased floor [V].
    vth_erased: np.ndarray


def tau_us(cells: CellViews) -> np.ndarray:
    """Wear- and temperature-adjusted erase time constant [us].

    Jitter-free; hot dies erase faster (tau shrinks) along an
    Arrhenius-like law around the calibration temperature.
    """
    wear = cells.params.wear
    mult = tau_wear_multiplier(
        effective_cycles(
            cells.program_cycles, cells.erase_only_cycles, wear
        ),
        cells.susceptibility,
        wear,
    )
    cell = cells.params.cell
    temp_factor = np.exp(
        -cell.erase_temp_coefficient_per_k
        * (np.asarray(cells.temperature_c, dtype=np.float64)
           - cell.nominal_temperature_c)
    )
    return cells.tau0_us * mult * temp_factor[:, None]


def erase_pulse(cells: CellViews, t_us: float) -> None:
    """Apply the erase voltage to every cell for ``t_us``.

    A full erase uses the nominal erase time (long enough for every
    cell to reach its erased floor); Flashmark's partial erase aborts
    after a few tens of microseconds, freezing the transient.
    """
    tau = tau_us(cells)
    sigma = cells.params.noise.erase_jitter_sigma
    if sigma > 0.0:
        for row, rng in zip(tau, cells.rngs):
            row *= rng.lognormal(0.0, sigma, size=row.size)
    cells.vth[...] = apply_erase_transient(
        cells.vth,
        t_us,
        tau,
        cells.vth_erased,
        cells.params.cell.erase_slope_v_per_decade,
    )
    # Erase-only damage applies to cells that held no programmed charge
    # (far lower tunnelling current when the gate is empty).
    erase_only = cells.erase_only_cycles
    erase_only += ~cells.programmed_since_erase
    cells.programmed_since_erase[...] = False


def program_targets(
    cells: CellViews,
    mask=Ellipsis,
    bump: float = 1.0,
    level: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Charge the ``mask`` cells; return where each one programs to [V].

    Adds ``bump`` to their program cycles (1 for a program operation, a
    fraction for a partial one, ``n`` for ``n`` stress cycles) and marks
    them programmed.  The target is ``level`` (default: each cell's
    fresh programmed level) plus the wear shift of the updated counters
    plus program noise.  ``mask`` is a boolean ``(n_dies, n_cells)``
    array, giving the targets flat in row-major order, or ``...`` for
    every cell, giving them ``(n_dies, n_cells)``.  The caller lands
    them: a program sets ``vth`` to them, a partial program moves part
    of the way, an MLC placement keeps the higher of the two.
    """
    cells.program_cycles[mask] += bump
    cells.programmed_since_erase[mask] = True
    wear = cells.params.wear
    shift = programmed_level_shift(
        effective_cycles(
            cells.program_cycles[mask], cells.erase_only_cycles[mask], wear
        ),
        wear,
        cells.susceptibility[mask],
    )
    if level is None:
        level = cells.vth_programmed
    sigma = cells.params.noise.program_sigma_v
    noise = 0.0
    if sigma > 0.0:
        if mask is Ellipsis:
            counts = [cells.vth.shape[1]] * len(cells.rngs)
        else:
            counts = np.count_nonzero(mask, axis=1)
        draws = [
            rng.normal(0.0, sigma, size=k)
            for rng, k in zip(cells.rngs, counts)
            if k
        ]
        if draws:
            noise = np.concatenate(draws).reshape(shift.shape)
    return level[mask] + shift + noise


def majority_read(cells: CellViews, n_reads: int = 1) -> np.ndarray:
    """Sense every cell; ``(n_dies, n_cells)`` uint8 bits (1 = erased).

    With ``n_reads > 1`` (odd), each cell's value is the majority vote
    over independent reads — the AnalyzeSegment behaviour of the
    paper's Fig. 3.
    """
    if n_reads < 1 or n_reads % 2 == 0:
        raise ValueError("n_reads must be a positive odd number")
    vth = cells.vth
    v_ref = cells.params.cell.v_ref
    sigma = cells.params.noise.read_sigma_v
    if sigma > 0.0:
        ones = np.stack(
            [
                np.count_nonzero(
                    row + rng.normal(0.0, sigma, size=(n_reads, row.size))
                    < v_ref,
                    axis=0,
                )
                for row, rng in zip(vth, cells.rngs)
            ]
        )
        bits = (ones > n_reads // 2).astype(np.uint8)
    else:
        bits = (vth < v_ref).astype(np.uint8)
    disturb = cells.params.noise.read_disturb_v_per_read
    if disturb > 0.0:
        # Weak programming of the sensed cells: thresholds creep up,
        # bounded by the programmed target level.
        vth[...] = np.minimum(vth + disturb * n_reads, cells.vth_programmed)
    return bits
