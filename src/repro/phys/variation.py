"""Process-variation model: static per-cell parameters fixed at manufacture.

Semiconductor manufacturing induces significant cell-to-cell variation
(Section IV of the paper).  Every cell in a simulated die draws, once, a
set of static parameters: its erase time constant, its wear
susceptibility, its programmed threshold-voltage target and its erased
floor.  These never change afterwards; only the wear state and the
threshold voltage evolve with use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalParams

__all__ = ["StaticCellLot", "sample_static_cells"]


@dataclass(frozen=True)
class StaticCellLot:
    """Static (manufacture-time) parameters for a set of flash cells.

    All fields are 1-D ``float64`` arrays of equal length, one entry per
    cell in array order.
    """

    #: Base erase time constant per cell [us] (process-varied).
    tau0_us: np.ndarray
    #: Wear susceptibility w_i (lognormal, median 1).
    wear_susceptibility: np.ndarray
    #: Programmed threshold-voltage target per cell [V].
    vth_programmed: np.ndarray
    #: Fully erased threshold-voltage floor per cell [V].
    vth_erased: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.tau0_us)
        for name in ("wear_susceptibility", "vth_programmed", "vth_erased"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"static cell field {name!r} has length "
                    f"{len(getattr(self, name))}, expected {n}"
                )

    def __len__(self) -> int:
        return len(self.tau0_us)


def sample_static_cells(
    n_cells: int,
    params: PhysicalParams,
    rng: np.random.Generator,
) -> StaticCellLot:
    """Draw the static parameters for ``n_cells`` cells.

    The erase time constant and the wear susceptibility are lognormal
    (multiplicative physics), the threshold-voltage targets are Gaussian.

    Parameters
    ----------
    n_cells:
        Number of cells to sample.
    params:
        Physical parameter set; see :class:`~repro.phys.constants.PhysicalParams`.
    rng:
        Source of randomness.  Reusing a seeded generator makes a die
        reproducible.
    """
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    cell = params.cell
    wear = params.wear

    tau0 = cell.erase_tau_us * rng.lognormal(
        mean=0.0, sigma=cell.tau_process_sigma, size=n_cells
    )
    z = rng.normal(0.0, 1.0, size=n_cells)
    if wear.susceptibility_correlation_cells > 0.0:
        from scipy import ndimage

        # Smooth the latent Gaussian field, then restore unit variance:
        # neighbouring cells share oxide quality but the marginal
        # susceptibility distribution stays the calibrated lognormal.
        z = ndimage.gaussian_filter1d(
            z, sigma=wear.susceptibility_correlation_cells, mode="wrap"
        )
        std = z.std()
        if std > 0:
            z = z / std
    susceptibility = np.exp(wear.susceptibility_sigma * z)
    vth_programmed = rng.normal(
        cell.vth_programmed_mean, cell.vth_programmed_sigma, size=n_cells
    )
    vth_erased = rng.normal(
        cell.vth_erased_mean, cell.vth_erased_sigma, size=n_cells
    )
    # Keep the two distributions on the correct side of the read reference:
    # manufacturing screens out cells whose levels would not separate.
    vth_programmed = np.maximum(vth_programmed, cell.v_ref + 0.8)
    vth_erased = np.minimum(vth_erased, cell.v_ref - 0.8)
    return StaticCellLot(
        tau0_us=tau0,
        wear_susceptibility=susceptibility,
        vth_programmed=vth_programmed,
        vth_erased=vth_erased,
    )
