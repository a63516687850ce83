"""A single floating-gate cell, simulated one operation at a time.

:class:`FloatingGateCell` is the scalar, didactic counterpart of the
cell model in :mod:`repro.phys.kernels`: the same physics written
independently, one cell, one operation and one scalar draw at a time.
It exists as the reference the cell model is tested against, for
documentation examples and for single-cell studies (e.g. plotting one
cell's erase transient at different wear levels); no simulator runs
it.
"""

from __future__ import annotations

import numpy as np

from .constants import PhysicalParams
from .erase import apply_erase_transient, crossing_time_us
from .variation import sample_static_cells
from .wear import effective_cycles, programmed_level_shift, tau_wear_multiplier

__all__ = ["FloatingGateCell"]


class FloatingGateCell:
    """One floating-gate flash cell with explicit state.

    Parameters
    ----------
    params:
        Physical parameter set.
    rng:
        Random generator; drives both the manufacture-time draw of the
        cell's static parameters and all per-operation noise.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.phys import FloatingGateCell, PhysicalParams
    >>> cell = FloatingGateCell(PhysicalParams(), np.random.default_rng(7))
    >>> cell.read()
    1
    >>> cell.program()
    >>> cell.read()
    0
    >>> cell.erase_full()
    >>> cell.read()
    1
    """

    def __init__(self, params: PhysicalParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        lot = sample_static_cells(1, params, rng)
        self._tau0_us = float(lot.tau0_us[0])
        self._susceptibility = float(lot.wear_susceptibility[0])
        self._vth_programmed = float(lot.vth_programmed[0])
        self._vth_erased = float(lot.vth_erased[0])
        #: Current threshold voltage [V]; cells leave the fab erased.
        self.vth = self._vth_erased
        #: Completed program operations on this cell.
        self.program_cycles = 0
        #: Erase pulses seen while the cell was not programmed.
        self.erase_only_cycles = 0
        self._programmed_since_erase = False

    # -- derived state -------------------------------------------------

    @property
    def n_effective(self) -> float:
        """Effective stress-cycle count (program + scaled erase-only)."""
        return float(
            effective_cycles(
                np.float64(self.program_cycles),
                np.float64(self.erase_only_cycles),
                self.params.wear,
            )
        )

    @property
    def tau_us(self) -> float:
        """Current (wear-adjusted, jitter-free) erase time constant [us]."""
        mult = tau_wear_multiplier(
            np.float64(self.n_effective),
            np.float64(self._susceptibility),
            self.params.wear,
        )
        return self._tau0_us * float(mult)

    def erase_crossing_time_us(self) -> float:
        """Partial-erase time at which this cell would start reading 1."""
        return float(
            crossing_time_us(
                np.float64(self.vth),
                self.params.cell.v_ref,
                np.float64(self.tau_us),
                self.params.cell.erase_slope_v_per_decade,
            )
        )

    # -- operations ----------------------------------------------------

    def program(self) -> None:
        """Charge the floating gate (source-side hot-carrier injection).

        The wear shift counts the program being applied, as the cell
        model (:func:`repro.phys.kernels.program_targets`) does.
        """
        self.program_cycles += 1
        shift = float(
            programmed_level_shift(
                np.float64(self.n_effective),
                self.params.wear,
                np.float64(self._susceptibility),
            )
        )
        noise = self.rng.normal(0.0, self.params.noise.program_sigma_v)
        self.vth = self._vth_programmed + shift + noise
        self._programmed_since_erase = True

    def erase_partial(self, t_us: float) -> None:
        """Apply the erase voltage for ``t_us`` microseconds, then abort."""
        jitter = self.rng.lognormal(0.0, self.params.noise.erase_jitter_sigma)
        self.vth = float(
            apply_erase_transient(
                np.float64(self.vth),
                np.float64(t_us),
                np.float64(self.tau_us * jitter),
                np.float64(self._vth_erased),
                self.params.cell.erase_slope_v_per_decade,
            )
        )
        if not self._programmed_since_erase:
            self.erase_only_cycles += 1
        self._programmed_since_erase = False

    def erase_full(self, t_erase_us: float = 24_000.0) -> None:
        """Run a complete erase operation (nominal ~24 ms)."""
        self.erase_partial(t_erase_us)

    def read(self) -> int:
        """Sense the cell once: 1 = erased/conducting, 0 = programmed."""
        sensed = self.vth + self.rng.normal(
            0.0, self.params.noise.read_sigma_v
        )
        return 1 if sensed < self.params.cell.v_ref else 0

    def read_majority(self, n_reads: int = 3) -> int:
        """Majority vote over ``n_reads`` independent reads (odd N)."""
        if n_reads < 1 or n_reads % 2 == 0:
            raise ValueError("n_reads must be a positive odd number")
        ones = sum(self.read() for _ in range(n_reads))
        return 1 if ones > n_reads // 2 else 0
