"""Tests for the pair-win and interquartile arithmetic of
``tools/bench_ab.py`` on hand-written result documents."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}
#: Base p50s 40..49 ms: median 44.5, quartiles 41.75 and 47.25
#: (``statistics.quantiles``, exclusive method), so the IQR is 5.5.
BASE_P50 = [float(x) for x in range(40, 50)]


def _docs(p50s, throughputs=None, workload="station"):
    throughputs = throughputs or [20.0] * len(p50s)
    return [
        {"workloads": {workload: {"metrics": {
            "latency_p50_ms": {"value": p},
            "throughput_per_s": {"value": t},
        }}}}
        for p, t in zip(p50s, throughputs)
    ]


def _row(base, head, metric="latency_p50_ms"):
    rows = bench_ab.pair_rows(base, head, SPEC)
    (row,) = [r for r in rows if r["metric"] == metric]
    return row


def test_nine_of_ten_beyond_iqr_holds():
    row = _row(_docs(BASE_P50), _docs([17.0] * 9 + [50.0]))
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert row["base_median"] == 44.5
    assert row["head_median"] == 17.0
    assert row["gain"] == 27.5
    assert row["base_iqr"] == pytest.approx(5.5)
    assert row["holds"]


def test_eight_of_ten_does_not_hold():
    row = _row(_docs(BASE_P50), _docs([17.0] * 8 + [50.0, 50.0]))
    assert row["wins"] == 8
    assert not row["holds"]


def test_gain_within_the_base_iqr_does_not_hold():
    row = _row(_docs(BASE_P50), _docs([x - 1.0 for x in BASE_P50]))
    assert row["wins"] == 10
    assert row["gain"] == pytest.approx(1.0)
    assert not row["holds"]


def test_ties_are_not_wins():
    row = _row(_docs(BASE_P50), _docs(BASE_P50))
    assert row["wins"] == 0
    assert row["gain"] == 0.0


def test_higher_is_better_metric():
    base = _docs(BASE_P50, throughputs=[20.0 + x for x in range(10)])
    head = _docs(BASE_P50, throughputs=[50.0 + x for x in range(10)])
    row = _row(base, head, metric="throughput_per_s")
    assert row["wins"] == 10
    assert row["gain"] == 30.0
    assert row["holds"]
    # Swapped, every pair is lost and the gain is negative.
    row = _row(head, base, metric="throughput_per_s")
    assert row["wins"] == 0
    assert row["gain"] == -30.0
    assert not row["holds"]


def test_workload_missing_from_head_is_skipped():
    rows = bench_ab.pair_rows(_docs(BASE_P50), _docs(BASE_P50, workload="surge"), SPEC)
    assert rows == []
