"""Device-family calibration: finding and publishing t_PEW.

Section IV: "As an input parameter we use the partial erase time that
brings the flash segment containing the watermark into the state that
maximizes likelihood of extracting signatures.  This time (or rather a
time window) is determined by the manufacturer using the
characterization process ... for each family of devices and can be
publicly communicated to system integrators."

The calibration process imprints a known watermark on sample chips,
sweeps the partial-erase time, and locates the window minimising the
decoded bit error rate.  The result — window, recommended N_PE, replica
format and measured channel asymmetry — is exactly the data sheet a
manufacturer would publish.

This module holds the per-chip unit of work
(:func:`run_calibration_sweep`, picklable so the batch engine can fan
sample chips across worker processes) and the window-selection math;
the batch-facing orchestration lives in
:func:`repro.engine.calibrate_family`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..device.mcu import Microcontroller
from ..device.tracing import OperationTrace
from ..telemetry import Telemetry
from .bits import bit_error_rate
from .decoder import ErrorAsymmetry, measure_asymmetry
from .extract import extract_watermark
from .imprint import imprint_watermark
from .watermark import Watermark

__all__ = [
    "FamilyCalibration",
    "CalibrationSweepJob",
    "ChipSweep",
    "run_calibration_sweep",
    "select_window",
]


@dataclass(frozen=True)
class FamilyCalibration:
    """Published extraction parameters for one device family."""

    #: Device model the calibration applies to.
    model: str
    #: Recommended partial-erase time [us].
    t_pew_us: float
    #: Usable window around it [us] (BER within ``window_tolerance`` of
    #: the optimum).
    window_lo_us: float
    window_hi_us: float
    #: Imprint stress the calibration assumed.
    n_pe: int
    #: Replica count of the calibrated format.
    n_replicas: int
    #: Decoded BER measured at t_pew_us on the calibration chip.
    expected_ber: float
    #: Raw (pre-vote) channel error rates at t_pew_us.
    asymmetry: ErrorAsymmetry
    #: BER tolerance factor defining the window.
    window_tolerance: float
    #: Operating-point policy that chose ``t_pew_us`` ("min" or "safe").
    operating_point: str = "safe"

    @property
    def window_width_us(self) -> float:
        return self.window_hi_us - self.window_lo_us


@dataclass(frozen=True)
class CalibrationSweepJob:
    """One sample chip's calibration sweep, as a picklable payload.

    The job carries its own seed and every input the sweep needs, so a
    worker process (or an inline fallback, or a retry) reproduces the
    same chip and the same BER curve bit for bit.
    """

    #: Position of this sample in the calibration set (chip 0 also
    #: measures the channel asymmetry, matching the original serial
    #: procedure).
    index: int
    #: Die seed passed to the factory.
    seed: int
    #: Picklable ``seed -> Microcontroller`` factory (e.g.
    #: :class:`~repro.device.mcu.McuFactory`).
    factory: Callable[[int], Microcontroller]
    #: Calibration pattern to imprint.
    watermark: Watermark
    n_pe: int
    n_replicas: int
    #: Candidate partial-erase times [us].
    t_grid_us: Tuple[float, ...]
    n_reads: int = 1
    segment: int = 0
    #: Measure per-grid-point channel asymmetry (chip 0 only).
    want_asymmetry: bool = False


@dataclass
class ChipSweep:
    """One chip's measured BER curve (a calibration job's result)."""

    index: int
    seed: int
    model: str
    #: Decoded BER at each grid point.
    ber: np.ndarray
    #: Channel asymmetry at each grid point (None unless requested).
    asymmetry: Optional[List[ErrorAsymmetry]]
    #: The sample chip's device trace (merged into the batch manifest).
    trace: OperationTrace
    #: Worker-side telemetry snapshot (spans + metrics) for absorption.
    telemetry: dict = field(default_factory=dict)


def run_calibration_sweep(job: CalibrationSweepJob) -> ChipSweep:
    """Run one sample chip's imprint + partial-erase sweep.

    Module-level and driven entirely by the job payload, so the batch
    engine can run it in a worker process; the chip's own seeded rng
    makes the result independent of where it executes.
    """
    tel = Telemetry()
    chip = job.factory(job.seed)
    tel.bind_trace(chip.trace)
    grid = np.asarray(job.t_grid_us, dtype=np.float64)
    ber = np.zeros(grid.size)
    asym: Optional[List[ErrorAsymmetry]] = [] if job.want_asymmetry else None
    with tel.span("calibration.chip", index=job.index, seed=job.seed):
        report = imprint_watermark(
            chip.flash,
            job.segment,
            job.watermark,
            job.n_pe,
            n_replicas=job.n_replicas,
            telemetry=tel,
        )
        for i, t in enumerate(grid):
            decoded = extract_watermark(
                chip.flash,
                job.segment,
                report.layout,
                float(t),
                n_reads=job.n_reads,
                telemetry=tel,
            )
            ber[i] = bit_error_rate(job.watermark.bits, decoded.bits)
            if asym is not None:
                expected_matrix = np.tile(
                    job.watermark.bits, (job.n_replicas, 1)
                )
                asym.append(
                    measure_asymmetry(
                        expected_matrix, decoded.replica_matrix
                    )
                )
    return ChipSweep(
        index=job.index,
        seed=job.seed,
        model=chip.model,
        ber=ber,
        asymmetry=asym,
        trace=chip.trace,
        telemetry=tel.snapshot(),
    )


def select_window(
    ber: np.ndarray,
    t_grid_us: np.ndarray,
    window_tolerance: float,
    operating_point: str,
) -> Tuple[int, int, int]:
    """Locate the usable window on an averaged BER curve.

    Returns ``(op_idx, lo_idx, hi_idx)`` — the published operating
    point and the window edges, as grid indices.  The window includes
    every time with ``BER <= min_BER + tolerance * (max_BER - min_BER)``
    (the "time window" phrasing of Section IV); ``"safe"`` publishes the
    midpoint between the minimum and the window's right edge, which is
    what the paper does in Fig. 10 (t_PEW = 28 us at 50 K, past the
    Fig. 9 optimum).
    """
    best_idx = int(np.argmin(ber))
    threshold = ber[best_idx] + window_tolerance * (
        ber.max() - ber[best_idx]
    )
    ok = ber <= threshold
    lo_idx = best_idx
    while lo_idx > 0 and ok[lo_idx - 1]:
        lo_idx -= 1
    hi_idx = best_idx
    while hi_idx < t_grid_us.size - 1 and ok[hi_idx + 1]:
        hi_idx += 1
    if operating_point == "safe":
        op_idx = (best_idx + hi_idx) // 2
    else:
        op_idx = best_idx
    return op_idx, lo_idx, hi_idx


def default_t_grid_us(n_pe: int) -> np.ndarray:
    """Default sweep grid; the optimum shifts right with stress (Fig. 9)."""
    hi = 80.0 + 40.0 * max(0.0, (n_pe - 40_000) / 20_000.0)
    return np.arange(16.0, hi, 1.0)
