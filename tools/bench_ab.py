#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark: a base revision against
the working tree.

Usage (from the repository root)::

    python3 tools/bench_ab.py --base HEAD~1 --pairs 10 --seed 1
    python3 tools/bench_ab.py --base main --pairs 4 --seed 7 --workload station

The base revision's committed files are exported with ``git archive``
into ``<workdir>/base-<sha>/`` (default workdir ``.bench_build/ab``),
so the base runs its own ``benchmarks/e2e/run.py`` against its own
``src/``.  The head is this checkout, uncommitted edits included.  The
runs alternate, base first in odd pairs and head first in even ones,
so that a slow phase of a shared host lands on both sides.  Every
result document is kept under ``<workdir>/runs/``.

Afterwards the script calls ``benchmarks/e2e/compare.py`` on the two
sets, then prints, per workload and end-to-end metric, the pairs the
head won and the base's interquartile distance.  A claimed gain holds
when the head won at least 9 in 10 pairs and its median beats the
base median by more than that distance; ``compare.py`` judges only
regressions.  The exit code is ``compare.py``'s.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = Path("benchmarks") / "e2e"

_spec = importlib.util.spec_from_file_location("e2e_compare", ROOT / E2E / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

#: Share of pairs the head must win for a claimed gain to hold.
WIN_SHARE = 0.9


def export_revision(rev: str, workdir: Path) -> Path:
    """The committed tree of ``rev``, unpacked once under ``workdir``."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tree = workdir / f"base-{sha[:12]}"
    if not (tree / E2E / "run.py").is_file():
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:
                tar.extractall(tree)
    return tree


def run_once(tree: Path, out: Path, args) -> int:
    cmd = [sys.executable, str(tree / E2E / "run.py"), "--seed", str(args.seed),
           "--out", str(out)]
    for w in args.workload or ():
        cmd += ["--workload", w]
    return subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL).returncode


def pair_rows(base_docs, head_docs, spec):
    """Per workload and end-to-end metric: pairs won and the claim test.

    Pair ``i`` is ``base_docs[i]`` against ``head_docs[i]``.  The gain
    is the median improvement in the metric's better direction; the
    claim holds when at least ``WIN_SHARE`` of the pairs were won and
    the gain exceeds the base's interquartile distance ``q3 - q1``.
    """
    rows = []
    for workload in base_docs[0]["workloads"]:
        for m in spec["end_to_end"]:
            pairs = [
                (b["workloads"][workload]["metrics"][m["name"]]["value"],
                 h["workloads"][workload]["metrics"][m["name"]]["value"])
                for b, h in zip(base_docs, head_docs)
                if m["name"] in b["workloads"].get(workload, {}).get("metrics", {})
                and m["name"] in h["workloads"].get(workload, {}).get("metrics", {})
            ]
            if not pairs:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            base_med, q1, q3, _ = compare.summary([x for x, _ in pairs])
            head_med = compare.summary([y for _, y in pairs])[0]
            gain = sign * (base_med - head_med)
            iqr = q3 - q1
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "wins": wins, "pairs": len(pairs),
                "base_median": base_med, "head_median": head_med,
                "gain": gain, "base_iqr": iqr,
                "holds": wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > iqr,
            })
    return rows


def print_pairs(rows) -> None:
    print(f"{'workload':13s} {'metric':32s} {'won':>6s} {'base':>10s} "
          f"{'head':>10s} {'gain':>10s} {'base IQR':>10s}  claim")
    for r in rows:
        print(f"{r['workload']:13s} {r['metric'] + ' [' + r['unit'] + ']':32s} "
              f"{r['wins']:>3d}/{r['pairs']:<2d} {r['base_median']:>10.4g} "
              f"{r['head_median']:>10.4g} {r['gain']:>+10.4g} {r['base_iqr']:>10.4g}  "
              f"{'holds' if r['holds'] else '-'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10, help="alternating run pairs")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="repeatable; default all")
    p.add_argument("--workdir", type=Path, default=ROOT / ".bench_build" / "ab")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    sides = {"base": export_revision(args.base, args.workdir), "head": ROOT}
    runs = args.workdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"seed{args.seed}"
    paths = {"base": [], "head": []}
    for i in range(1, args.pairs + 1):
        order = ("base", "head") if i % 2 else ("head", "base")
        for side in order:
            out = runs / f"{side}-{tag}-{i:02d}.json"
            out.unlink(missing_ok=True)
            code = run_once(sides[side], out, args)
            print(f"pair {i}/{args.pairs} {side}: exit {code} -> {out}", flush=True)
            if not out.is_file():
                print(f"error: {side} run {i} wrote no result document", file=sys.stderr)
                return 2
            paths[side].append(out)

    code = subprocess.run(
        [sys.executable, str(ROOT / E2E / "compare.py"),
         "--base", *map(str, paths["base"]), "--head", *map(str, paths["head"])],
        cwd=ROOT,
    ).returncode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print()
    print_pairs(pair_rows(compare.load(paths["base"]), compare.load(paths["head"]), spec))
    return code


if __name__ == "__main__":
    sys.exit(main())
