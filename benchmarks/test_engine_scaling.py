"""Batch-engine scaling: serial vs parallel production and calibration.

Not a paper figure — an engineering benchmark for the batch engine
itself: the die-sort production workload and the family-calibration
sweep are chip-granular and embarrassingly parallel, so wall time
should drop near-linearly with workers while every output stays
bit-identical to the serial run (the engine's determinism guarantee).

The speedup assertion only engages when the host actually has >= 4
CPUs; on smaller runners the benchmark still verifies bit-identical
results and reports the measured ratio.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.device import McuFactory
from repro.engine import calibrate_family
from repro.engine.executor import default_workers
from repro.workloads import ProductionLine

from conftest import run_once

N_PE = 4000
N_DIES = 8
GRID = tuple(np.arange(16.0, 40.0, 2.0))
PARALLEL_WORKERS = max(2, min(4, default_workers()))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@pytest.mark.benchmark(group="engine-scaling")
def test_production_scaling(benchmark, report):
    line = ProductionLine(n_pe=N_PE)

    serial, serial_s = _timed(lambda: line.run(N_DIES, seed=9, workers=1))

    def parallel_run():
        return line.run(N_DIES, seed=9, workers=PARALLEL_WORKERS)

    parallel, parallel_s = _timed(lambda: run_once(benchmark, parallel_run))

    # Determinism first: the speedup is worthless if outputs drift.
    assert serial.ok and parallel.ok
    for a, b in zip(serial.batch, parallel.batch):
        assert a.chip.die_id == b.chip.die_id
        assert a.die_sort == b.die_sort
        assert a.chip.trace.now_us == b.chip.trace.now_us

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["workers"] = parallel.workers
    benchmark.extra_info["speedup"] = speedup
    report(
        f"engine scaling: {N_DIES}-die production batch",
        f"serial    {serial_s:8.2f} s\n"
        f"parallel  {parallel_s:8.2f} s  ({parallel.workers} workers)\n"
        f"speedup   {speedup:8.2f} x",
    )
    if default_workers() >= 4 and parallel.workers >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {parallel.workers} workers, "
            f"got {speedup:.2f}x"
        )


@pytest.mark.benchmark(group="engine-scaling")
def test_calibration_scaling(benchmark, report):
    factory = McuFactory(model="MSP430F5438", n_segments=1)
    kwargs = dict(n_replicas=7, n_chips=4, t_grid_us=GRID)

    serial, serial_s = _timed(
        lambda: calibrate_family(factory, N_PE, workers=1, **kwargs)
    )

    def parallel_run():
        return calibrate_family(
            factory, N_PE, workers=PARALLEL_WORKERS, **kwargs
        )

    parallel, parallel_s = _timed(lambda: run_once(benchmark, parallel_run))

    assert serial.calibration == parallel.calibration
    for a, b in zip(serial.results, parallel.results):
        np.testing.assert_array_equal(a.ber, b.ber)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["workers"] = parallel.workers
    benchmark.extra_info["speedup"] = speedup
    report(
        "engine scaling: 4-chip family calibration sweep",
        f"serial    {serial_s:8.2f} s\n"
        f"parallel  {parallel_s:8.2f} s  ({parallel.workers} workers)\n"
        f"speedup   {speedup:8.2f} x",
    )
    if default_workers() >= 4 and parallel.workers >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {parallel.workers} workers, "
            f"got {speedup:.2f}x"
        )
