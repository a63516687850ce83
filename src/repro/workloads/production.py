"""A die-sort production line: physics-based accept/reject marking.

Section IV: "The proposed imprinting of watermarks into a NOR flash
memory is performed by chip manufacturers during the die-sort testing
phase."  This module closes that loop: dies come off a simulated line
with varying process quality, a purely digital parametric test sorts
them, and every die leaves with the *matching* status imprinted — so
downstream experiments get fall-out chips that are genuinely inferior,
not just arbitrarily labelled.

Die-to-die variation: each die draws quality multipliers (erase speed,
oxide wear rate, read noise) around the family nominal; a configurable
fraction of dies are outliers.

Die sockets are independent, so :meth:`ProductionLine.run` fans dies
across the batch engine: the line pre-draws every die's process corner
and speed grade from the batch seed (in the exact order the original
serial loop consumed them), packs each die into a picklable
:class:`DieJob`, and lets :class:`~repro.engine.BatchExecutor` place
them — any worker count produces bit-identical batches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.imprint import imprint_watermark
from ..core.payload import ChipStatus, WatermarkPayload
from ..core.watermark import Watermark
from ..device.mcu import Microcontroller, make_mcu
from ..device.tracing import OperationTrace
from ..engine.executor import BatchExecutor, BatchResult
from ..phys.constants import PhysicalParams
from ..telemetry import Telemetry, build_manifest
from ..telemetry import current as current_telemetry

__all__ = [
    "DieSortSpec",
    "DieSortResult",
    "ProducedChip",
    "DieJob",
    "DieOutcome",
    "run_die_job",
    "ProductionResult",
    "ProductionLine",
    "batch_manifest",
]


@dataclass(frozen=True)
class DieSortSpec:
    """Parametric limits applied at die sort (all digitally measurable)."""

    #: Latest acceptable fresh full-erase partial-erase time [us].
    max_full_erase_us: float = 60.0
    #: Maximum cells flickering across repeated reads of a segment
    #: parked mid-transition (read-noise screen).  A nominal die shows
    #: ~1.9 K of 4096 cells near the reference flickering; a noisy
    #: corner shows ~3.5 K+.
    max_unstable_cells: int = 2600
    #: Reads used for the stability screen.
    stability_reads: int = 9
    #: Partial-erase time parking the population mid-transition for the
    #: stability screen [us].
    stability_probe_us: float = 21.0
    #: Partial-erase probe grid for the transition screen [us].
    probe_grid_us: tuple = tuple(np.arange(10.0, 90.0, 2.0))


@dataclass(frozen=True)
class DieSortResult:
    """Measurements and outcome of one die-sort test."""

    passed: bool
    full_erase_us: Optional[float]
    unstable_cells: int
    reason: str


@dataclass
class ProducedChip:
    """A chip leaving the line, with its imprinted provenance."""

    chip: Microcontroller
    die_sort: DieSortResult
    payload: WatermarkPayload


@dataclass(frozen=True)
class DieJob:
    """One die's production, as a picklable payload.

    The parent line pre-draws everything the serial loop used to take
    from the shared batch rng — the die's process corner and its speed
    grade — so a worker (or an inline fallback, or a retry) needs no
    shared state and the batch is deterministic under any scheduling.
    """

    #: Position of the die in the batch.
    index: int
    #: Die seed (``batch_seed * 100_003 + index``, as the serial loop).
    seed: int
    #: Pre-drawn process corner for this die.
    params: PhysicalParams
    #: Pre-drawn speed grade (0..7).
    speed_grade: int
    manufacturer: str
    n_pe: int
    n_replicas: int
    spec: DieSortSpec = field(default_factory=DieSortSpec)


@dataclass
class DieOutcome:
    """Worker-side result of one :class:`DieJob`."""

    produced: ProducedChip
    #: Worker telemetry snapshot (spans + metrics) for absorption.
    telemetry: dict = field(default_factory=dict)


def run_die_job(job: DieJob) -> DieOutcome:
    """Manufacture, die-sort and watermark one die (pool-runnable).

    Records its own ``production.die`` span and accept/reject counters
    into a fresh telemetry context bound to the die's trace; the parent
    batch absorbs the snapshot under its ``production.batch`` span.
    """
    tel = Telemetry()
    chip = make_mcu(seed=job.seed, params=job.params, n_segments=2)
    tel.bind_trace(chip.trace)
    with tel.span("production.die", index=job.index) as sp:
        result = run_die_sort(chip, job.spec, segment=1)
        status = ChipStatus.ACCEPT if result.passed else ChipStatus.REJECT
        payload = WatermarkPayload(
            job.manufacturer,
            die_id=chip.die_id,
            speed_grade=job.speed_grade,
            status=status,
        )
        imprint_watermark(
            chip.flash,
            0,
            Watermark.from_payload(payload).balanced(),
            job.n_pe,
            n_replicas=job.n_replicas,
            accelerated=True,
            telemetry=tel,
        )
        sp.set("passed", result.passed)
        sp.set("die_id", f"0x{chip.die_id:012X}")
        sp.set("reason", result.reason)
        # Each die has its own fresh trace, so its clock is the die's
        # total tester-occupancy time.
        sp.set("die_device_us", chip.trace.now_us)
    tel.count("production.dies")
    tel.count(
        "production.accepted" if result.passed else "production.rejected"
    )
    tel.observe("production.die_test_us", chip.trace.now_us)
    return DieOutcome(
        produced=ProducedChip(chip=chip, die_sort=result, payload=payload),
        telemetry=tel.snapshot(),
    )


@dataclass
class ProductionResult(BatchResult):
    """Batch result of :meth:`ProductionLine.run`.

    ``results`` holds one :class:`ProducedChip` per die (``None`` where
    a die's job failed every attempt); ``manifest`` is the merged
    production-batch run manifest.
    """

    @property
    def batch(self) -> List[ProducedChip]:
        """The successfully produced chips, in die order."""
        return [p for p in self.results if p is not None]

    @property
    def yield_fraction(self) -> float:
        """Fraction of produced dies that passed die sort."""
        return ProductionLine.yield_fraction(self.batch)


def run_die_sort(
    chip: Microcontroller, spec: DieSortSpec = DieSortSpec(), segment: int = 0
) -> DieSortResult:
    """Run the digital parametric test on one die.

    Two screens, both through the standard interface only:

    * **transition screen** — erase/program, then partial-erase probes:
      the die fails if any cell still reads programmed past the limit;
    * **stability screen** — park the segment mid-transition with a
      partial erase and read it ``stability_reads`` times; cells that
      do not read identically every time count as unstable.
    """
    flash = chip.flash
    n_bits = chip.geometry.bits_per_segment
    zeros = np.zeros(n_bits, dtype=np.uint8)

    # Stability screen: park the population on the read reference with
    # a partial erase, where sense noise is actually visible, then count
    # cells that do not read identically across repeats.
    flash.erase_segment(segment)
    flash.program_segment_bits(segment, zeros)
    flash.partial_erase_segment(segment, spec.stability_probe_us)
    reads = np.stack(
        [flash.read_segment_bits(segment) for _ in range(spec.stability_reads)]
    )
    ones = reads.sum(axis=0)
    unstable = int(
        np.count_nonzero((ones > 0) & (ones < spec.stability_reads))
    )
    if unstable > spec.max_unstable_cells:
        return DieSortResult(
            passed=False,
            full_erase_us=None,
            unstable_cells=unstable,
            reason=f"{unstable} unstable cells exceed "
            f"{spec.max_unstable_cells}",
        )

    # Transition screen.
    full_erase: Optional[float] = None
    for t in spec.probe_grid_us:
        flash.erase_segment(segment)
        flash.program_segment_bits(segment, zeros)
        flash.partial_erase_segment(segment, float(t))
        if flash.read_segment_bits(segment, n_reads=3).all():
            full_erase = float(t)
            break
    if full_erase is None or full_erase > spec.max_full_erase_us:
        return DieSortResult(
            passed=False,
            full_erase_us=full_erase,
            unstable_cells=unstable,
            reason=(
                f"fresh full-erase time "
                f"{full_erase if full_erase is not None else '>grid'} us "
                f"exceeds {spec.max_full_erase_us} us"
            ),
        )
    return DieSortResult(
        passed=True,
        full_erase_us=full_erase,
        unstable_cells=unstable,
        reason="within spec",
    )


@dataclass
class ProductionLine:
    """Manufactures dies with process spread and imprints their status.

    Parameters
    ----------
    manufacturer:
        Four-character id imprinted into every die.
    outlier_fraction:
        Fraction of dies drawn from a degraded process corner (slow
        erase and/or noisy reads); these should fail die sort.
    n_pe / n_replicas:
        Flashmark imprint parameters used for the status mark.
    """

    manufacturer: str = "TCMK"
    outlier_fraction: float = 0.25
    n_pe: int = 40_000
    n_replicas: int = 7
    spec: DieSortSpec = field(default_factory=DieSortSpec)

    def _die_params(self, rng: np.random.Generator) -> PhysicalParams:
        base = PhysicalParams()
        if rng.random() >= self.outlier_fraction:
            return base
        # A degraded corner: slow, spread-out erase and noisy sensing.
        which = rng.integers(0, 2)
        if which == 0:
            cell = dataclasses.replace(
                base.cell,
                erase_tau_us=base.cell.erase_tau_us
                * float(rng.uniform(2.2, 3.5)),
                tau_process_sigma=base.cell.tau_process_sigma * 3.0,
            )
            return base.with_overrides(cell=cell)
        noise = dataclasses.replace(
            base.noise,
            read_sigma_v=base.noise.read_sigma_v
            * float(rng.uniform(4.0, 7.0)),
        )
        return base.with_overrides(noise=noise)

    def jobs_for(self, n_chips: int, seed: int = 0) -> List[DieJob]:
        """Pre-draw one batch's die jobs from the batch seed.

        The batch rng is consumed in the exact order the original
        serial loop did (each die's process corner, then its speed
        grade), so a batch's dies are identical whichever executor —
        or worker count — runs them.
        """
        rng = np.random.default_rng(seed)
        jobs: List[DieJob] = []
        for i in range(n_chips):
            params = self._die_params(rng)
            jobs.append(
                DieJob(
                    index=i,
                    seed=seed * 100_003 + i,
                    params=params,
                    speed_grade=int(rng.integers(0, 8)),
                    manufacturer=self.manufacturer,
                    n_pe=self.n_pe,
                    n_replicas=self.n_replicas,
                    spec=self.spec,
                )
            )
        return jobs

    def run(
        self,
        n_chips: int,
        *,
        seed: int = 0,
        workers: int = 1,
        telemetry=None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        chunk_size: Optional[int] = None,
    ) -> ProductionResult:
        """Manufacture, die-sort and watermark ``n_chips`` dies.

        Dies fan across ``workers`` processes through the batch engine;
        with the same ``seed``, any worker count — including the inline
        ``workers=1`` path — produces bit-identical chips.

        With a live ``telemetry`` context the batch emits one
        ``production.batch`` span wrapping a (worker-recorded, then
        absorbed) ``production.die`` span per die, plus accept/reject
        counters; ``.manifest`` is the merged production-batch run
        manifest (:func:`batch_manifest`).
        """
        tel = telemetry if telemetry is not None else current_telemetry()
        jobs = self.jobs_for(n_chips, seed)
        executor = BatchExecutor(
            workers,
            chunk_size=chunk_size,
            timeout_s=timeout_s,
            retries=retries,
        )
        with tel.span(
            "production.batch", n_chips=n_chips, seed=seed, workers=workers
        ) as batch_span:
            batch = executor.map(run_die_job, jobs, telemetry=tel)
            prefix = getattr(batch_span, "path", None)
            for outcome in batch.successes():
                tel.absorb(outcome.telemetry, prefix=prefix)
            produced: List[Optional[ProducedChip]] = [
                o.produced if o is not None else None for o in batch.results
            ]
            chips = [p for p in produced if p is not None]
            if chips:
                batch_span.set("yield", self.yield_fraction(chips))
        result = ProductionResult(
            results=produced,
            failures=batch.failures,
            workers=batch.workers,
            wall_s=batch.wall_s,
        )
        if chips:
            result.manifest = batch_manifest(chips, telemetry=tel, line=self)
        return result

    @staticmethod
    def yield_fraction(batch: List[ProducedChip]) -> float:
        """Fraction of a produced batch that passed die sort."""
        if not batch:
            raise ValueError("empty batch")
        return sum(p.die_sort.passed for p in batch) / len(batch)


def batch_manifest(
    batch: List[ProducedChip], telemetry=None, line: Optional[ProductionLine] = None
) -> dict:
    """Run manifest for one produced batch.

    Merges the per-socket device traces (each die tester runs its own
    clock) into one aggregate trace via
    :meth:`~repro.device.tracing.OperationTrace.merge`, and folds in the
    batch telemetry spans/counters recorded by
    :meth:`ProductionLine.run`.
    """
    if not batch:
        raise ValueError("empty batch")
    tel = telemetry if telemetry is not None else current_telemetry()
    merged = OperationTrace()
    for produced in batch:
        merged.merge(produced.chip.trace)
    parameters: dict = {"n_chips": len(batch)}
    if line is not None:
        parameters.update(
            manufacturer=line.manufacturer,
            outlier_fraction=line.outlier_fraction,
            n_pe=line.n_pe,
            n_replicas=line.n_replicas,
        )
    accepted = sum(p.die_sort.passed for p in batch)
    dies = [
        {
            "die_id": f"0x{p.chip.die_id:012X}",
            "passed": p.die_sort.passed,
            "reason": p.die_sort.reason,
            "status": p.payload.status.name,
            "device_us": p.chip.trace.now_us,
        }
        for p in batch
    ]
    return build_manifest(
        tel,
        kind="production_batch",
        parameters=parameters,
        seeds={"chip_seeds": [p.chip.seed for p in batch]},
        trace=merged,
        extra={
            "yield": accepted / len(batch),
            "accepted": accepted,
            "rejected": len(batch) - accepted,
            "dies": dies,
        },
    )
