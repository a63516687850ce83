"""End-to-end request-path benchmark for the Flashmark service stack.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1                       # all workloads
    python3 benchmarks/e2e/run.py --workload surge --seed 1 --seconds 6
    python3 benchmarks/e2e/run.py --workload saturate --seed 1 --trace 1

Every metric is printed as ``workload metric value unit (n=...)``; the
full result document goes to ``--out`` (default under
``.bench_build/e2e/``) and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` its per-layer ones.  The run exits non-zero when any
served verdict differs from a direct engine call on the same chip.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

from harness import ROOT, SRC, WORK, host_shape

SCHEMA = "flashmark.e2e/v1"
#: Default workload seed; README.md names the hold-out seed.
DEFAULT_SEED = 1
#: ``imprint-line`` first: its memory metric is the bench process's own.
#: ``saturate`` before ``surge`` and ``fleet``: it needs the largest
#: pool, and theirs are prefixes of it.
ORDER = ("imprint-line", "station", "saturate", "surge", "fleet")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=ORDER,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer run (replay + in-situ stage scrape + spans)")
    p.add_argument("--out", type=Path, help="result document path")
    p.add_argument("--smoke", action="store_true",
                   help="about 20 requests and 50 dies per workload")
    return p.parse_args(argv)


def trace_layers(out, replayed, station_src) -> dict:
    """One workload's per-layer metrics: the replay, the stage scrape
    of its own servers (the station pass's for ``imprint-line``, which
    has none) and the station-defined trace figures."""
    layers = dict(replayed["layers"])
    layers.update(out.per_layer or station_src.per_layer)
    layers["trace.overhead_ratio"] = station_src.per_layer["trace.overhead_ratio"]
    p50, n = station_src.metrics["latency_p50_ms"]
    layers["trace.unattributed_ms"] = (p50 - replayed["station_layers_ms"], n)
    return layers


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks that stop the servers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import replay
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = [w for w in ORDER if w in (args.workload or ORDER)]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = args.out or WORK / (
        f"result-{names[0] if len(names) == 1 else 'all'}-seed{args.seed}"
        f"{'-traced' if args.trace else ''}.json"
    )
    run = workloads.Run(
        args.seed, workloads.Sizes(seconds, args.smoke), bool(args.trace), workdir
    )
    doc = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "host": host_shape(),
        "workloads": {},
    }
    mismatches = []
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = workloads.WORKLOADS[name](run)
        if run.trace:
            replayed = replay.replay(
                args.seed, run.sizes.replay_items, run.sizes.replay_dies,
                workdir, run.tracer,
            )
            mismatches += replayed["mismatches"]
            station_src = outcomes.get("station")
            if station_src is None:
                station_src = workloads.station_pass(run)
                mismatches += [f"station pass: {m}" for m in station_src.mismatches]
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, out in outcomes.items():
        mismatches += [f"{name}: {m}" for m in out.mismatches]
        entry = {
            "attempted": out.attempted,
            "failed": out.failed,
            "inputs": out.inputs,
            "metrics": _table(out.metrics, units),
        }
        if run.trace:
            entry["per_layer"] = _table(trace_layers(out, replayed, station_src), units)
            entry["extra"] = _table(out.extra, workloads.EXTRA_UNITS)
        doc["workloads"][name] = entry
        for metric, row in {**entry["metrics"], **entry.get("per_layer", {}),
                            **entry.get("extra", {})}.items():
            print(f"{name} {metric} {row['value']:.6g} {row['unit']} (n={row['n']})")

    doc["mismatches"] = mismatches
    doc["correct"] = not mismatches
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    if run.trace:
        spans_path = out_path.with_suffix(".spans.jsonl")
        spans_path.write_text("".join(json.dumps(span) + "\n" for span in run.tracer.spans))
        print(f"spans -> {spans_path}")
    print(f"document -> {out_path}")
    for m in mismatches[:20]:
        print(f"MISMATCH {m}", file=sys.stderr)

    section = "per_layer" if run.trace else "metrics"
    metrics = {}
    for name, entry in doc["workloads"].items():
        for metric in wanted:
            row = entry[section].get(metric)
            if row is None or not math.isfinite(row["value"]):
                print(f"error: {name} did not measure {metric}", file=sys.stderr)
                return 1
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": row["value"], "unit": row["unit"]}
    attempted = sum(e["attempted"] for e in doc["workloads"].values())
    failed = sum(e["failed"] for e in doc["workloads"].values())
    correct = doc["correct"] and failed < attempted
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _table(values: dict, units: dict) -> dict:
    return {
        name: {"value": value, "unit": units.get(name, ""), "n": n}
        for name, (value, n) in values.items()
    }


if __name__ == "__main__":
    sys.exit(main())
