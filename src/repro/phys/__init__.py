"""Floating-gate flash cell physics.

This package is the bottom layer of the Flashmark reproduction: it models
the analog behaviour of NOR flash cells that the paper's technique
exploits — threshold-voltage dynamics under program/erase, permanent
oxide wear from cycling, process variation, noise, and retention loss.

:mod:`repro.phys.kernels` is the cell model every simulator runs: each
flash cell operation (erase pulse, program, majority read), written once
over ``(n_dies, n_cells)`` views, with its per-operation noise draws.
:class:`FloatingGateCell` is an independent scalar statement of the same
physics for a single cell, kept as the reference the kernels are tested
against.
"""

from .cell import FloatingGateCell
from .constants import CellParams, NoiseParams, PhysicalParams, WearParams
from .erase import (
    apply_erase_transient,
    crossing_time_us,
    erase_delta_v,
    time_to_reach_us,
)
from .program import apply_program_transient, program_progress
from .retention import RetentionParams, retention_loss_v
from .variation import StaticCellLot, sample_static_cells
from .wear import effective_cycles, programmed_level_shift, tau_wear_multiplier

__all__ = [
    "CellParams",
    "WearParams",
    "NoiseParams",
    "PhysicalParams",
    "FloatingGateCell",
    "StaticCellLot",
    "sample_static_cells",
    "erase_delta_v",
    "apply_erase_transient",
    "crossing_time_us",
    "time_to_reach_us",
    "program_progress",
    "apply_program_transient",
    "effective_cycles",
    "tau_wear_multiplier",
    "programmed_level_shift",
    "RetentionParams",
    "retention_loss_v",
]
