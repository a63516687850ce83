"""Smoke test of the end-to-end benchmark (``run.py --smoke``).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

About 20 requests and 50 dies per workload, so the whole file takes
well under two minutes on a 2-CPU host.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HOST_KEYS = {"nproc", "cpu_model", "python", "numpy"}


def smoke(tmp_path: Path, *args: str):
    """Run ``run.py --smoke``; returns (document, last stdout line)."""
    out = tmp_path / f"doc{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(out.read_text()), json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("untraced"), "--seed", "3")


def test_document_schema(untraced):
    doc, last = untraced
    assert doc["schema"] == "flashmark.e2e/v1"
    assert set(doc["host"]) == HOST_KEYS
    assert doc["correct"] is True and doc["mismatches"] == []
    assert list(doc["workloads"]) == ["imprint-line", "station", "saturate", "surge", "fleet"]
    for entry in doc["workloads"].values():
        assert entry["attempted"] > 0 and entry["failed"] == 0
        assert entry["inputs"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_every_end_to_end_metric_with_unit(untraced):
    doc, last = untraced
    for name in WORKLOADS:
        rows = doc["workloads"][name]["metrics"]
        for m in SPEC["end_to_end"]:
            assert rows[m["name"]]["unit"] == m["unit"]
            assert rows[m["name"]]["value"] > 0
            assert last["metrics"][f"{name}.{m['name']}"]["unit"] == m["unit"]


def test_every_per_layer_metric_when_traced(tmp_path):
    doc, last = smoke(tmp_path, "--seed", "3", "--trace", "1",
                      "--workload", "saturate", "--workload", "imprint-line")
    for name in ("saturate", "imprint-line"):
        rows = doc["workloads"][name]["per_layer"]
        for m in SPEC["per_layer"]:
            assert rows[m["name"]]["unit"] == m["unit"], m["name"]
    assert set(last["metrics"]) == {
        f"{w}.{m['name']}" for w in ("saturate", "imprint-line") for m in SPEC["per_layer"]
    }
    spans = next(tmp_path.glob("*.spans.jsonl")).read_text().splitlines()
    assert {"trace_id", "span_id", "parent_id", "name", "start_s", "end_s"} <= set(json.loads(spans[0]))


def test_other_seed_changes_inputs_not_names(untraced, tmp_path):
    doc, _ = untraced
    other, _ = smoke(tmp_path, "--seed", "4")
    for name in WORKLOADS:
        a, b = doc["workloads"][name], other["workloads"][name]
        assert a["inputs"] != b["inputs"]
        assert set(a["metrics"]) == set(b["metrics"])


def test_tampered_reference_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import pool
    import run

    honest = pool.reference

    def tampered(chips, calibration):
        refs = honest(chips, calibration)
        verdict, statistic = refs[0]
        refs[0] = ("tampered" if verdict != "tampered" else "authentic", statistic)
        return refs

    monkeypatch.setattr(pool, "reference", tampered)
    out = tmp_path / "tampered.json"
    code = run.main(["--smoke", "--workload", "station", "--seed", "3", "--out", str(out)])
    assert code != 0
    doc = json.loads(out.read_text())
    assert doc["correct"] is False and doc["mismatches"]
