"""Compare two sets of ``run.py`` result documents.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base parent/*.json --head change/*.json
    python3 benchmarks/e2e/compare.py --self-check --base a/*.json --head b/*.json

For every workload and end-to-end metric it prints each side's median
and quartiles and judges the head against BENCHMARK.json's bound:
``ok`` (not worse by more than the bound), ``regressed``, or
``unresolved`` when either side's spread (interquartile range over the
median) exceeds the bound, unless every head run beats every base run
(``better``).  Per-layer medians are listed when both sides are traced.

``--self-check`` is the same-commit agreement test: both sets come from
one commit, so every end-to-end median must agree within the bound in
both directions, and the inputs and exact counts (``sim.*``,
``accuracy.ground_truth_mismatch``, ``service.protocol.request_bytes``)
must be identical for runs of the same seed.

Documents from different host shapes (``nproc``, CPU model, Python,
numpy) are refused.  Exit codes: 0 agreement / no regression, 1
regression or failed self-check, 2 refused input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Per-layer numbers that are counts, identical for identical inputs.
EXACT = ("sim.imprint_device_s", "sim.verify_device_ms",
         "accuracy.ground_truth_mismatch", "service.protocol.request_bytes")


def load(paths):
    docs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != "flashmark.e2e/v1":
            raise ValueError(f"{path}: not a flashmark.e2e/v1 document")
        docs.append(doc)
    return docs


def summary(values):
    """``(median, q1, q3, spread)``; spread is the IQR over the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def values(docs, workload, metric, section="metrics"):
    """One metric across documents: end-to-end numbers from untraced
    runs, per-layer numbers from traced ones."""
    traced = section == "per_layer"
    return [
        d["workloads"][workload][section][metric]["value"]
        for d in docs
        if d["trace"] == traced
        and metric in d["workloads"].get(workload, {}).get(section, {})
    ]


def compare(base, head, spec, self_check):
    """Rows of the comparison plus the list of failed checks."""
    rows, failures = [], []
    workloads = [w for w in base[0]["workloads"] if all(w in d["workloads"] for d in base + head)]
    for w in workloads:
        for m in spec["end_to_end"]:
            b, h = values(base, w, m["name"]), values(head, w, m["name"])
            if not b or not h:
                continue
            bs, hs = summary(b), summary(h)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (hs[0] - bs[0]) / abs(bs[0])
            bound = m["bound"]
            if self_check:
                ok = abs(worse) <= bound
                verdict = "agree" if ok else "DISAGREE"
            elif max(bs[3], hs[3]) > bound:
                ok = True
                all_better = all(sign * (y - x) < 0 for x in b for y in h)
                verdict = "better" if all_better else "unresolved"
            else:
                ok = worse <= bound
                verdict = "ok" if ok else "REGRESSED"
            if not ok:
                failures.append(f"{w} {m['name']}: {verdict}")
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "base": bs, "head": hs, "worse": worse, "bound": bound,
                         "verdict": verdict})
        for m in spec["per_layer"]:
            b, h = values(base, w, m["name"], "per_layer"), values(head, w, m["name"], "per_layer")
            if b and h:
                bs, hs = summary(b), summary(h)
                rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                             "base": bs, "head": hs, "worse": None, "bound": None,
                             "verdict": "layer"})
    if self_check:
        failures += exact_mismatches(base, head, workloads)
    return rows, failures


def exact_mismatches(base, head, workloads):
    """Runs of the same seed must agree on inputs and exact counts."""
    problems = []
    for w in workloads:
        for b in base:
            for h in head:
                if b["seed"] != h["seed"] or b["smoke"] != h["smoke"]:
                    continue
                eb, eh = b["workloads"][w], h["workloads"][w]
                if eb["inputs"] != eh["inputs"]:
                    problems.append(f"{w} seed {b['seed']}: inputs differ")
                for name in EXACT:
                    x, y = eb.get("per_layer", {}).get(name), eh.get("per_layer", {}).get(name)
                    if x is not None and y is not None and x["value"] != y["value"]:
                        problems.append(f"{w} seed {b['seed']}: {name} {x['value']} != {y['value']}")
    return sorted(set(problems))


def to_json(base, head, rows) -> str:
    """The comparison as JSON text, one table row per line."""
    def side(docs):
        return {"seeds": sorted({d["seed"] for d in docs}),
                "runs": sum(not d["trace"] for d in docs),
                "traced_runs": sum(d["trace"] for d in docs)}

    keys = ("median", "q1", "q3", "spread")
    lines = [
        json.dumps({**r, "base": dict(zip(keys, r["base"])), "head": dict(zip(keys, r["head"]))})
        for r in rows
    ]
    head_doc = json.dumps({"host": base[0]["host"], "base": side(base), "head": side(head)})
    return head_doc[:-1] + ', "rows": [\n' + ",\n".join(lines) + "\n]}\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True, help="result documents (parent)")
    p.add_argument("--head", nargs="+", required=True, help="result documents (change)")
    p.add_argument("--self-check", action="store_true",
                   help="both sets are the same commit: require agreement")
    p.add_argument("--json", type=Path, help="also write the comparison here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        base, head = load(args.base), load(args.head)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shapes = {json.dumps(d["host"], sort_keys=True) for d in base + head}
    if len(shapes) != 1:
        print("error: refusing to compare different host shapes:", file=sys.stderr)
        for shape in sorted(shapes):
            print(f"  {shape}", file=sys.stderr)
        return 2

    rows, failures = compare(base, head, spec, args.self_check)
    print(f"{'workload':13s} {'metric':34s} {'base median [q1, q3]':>30s} "
          f"{'head median [q1, q3]':>30s} {'worse':>7s} {'bound':>6s}  verdict")
    for r in rows:
        fmt = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"  # noqa: E731
        worse = "" if r["worse"] is None else f"{r['worse']:+.1%}"
        bound = "" if r["bound"] is None else f"{r['bound']:.0%}"
        print(f"{r['workload']:13s} {r['metric'] + ' [' + r['unit'] + ']':34s} "
              f"{fmt(r['base']):>30s} {fmt(r['head']):>30s} {worse:>7s} {bound:>6s}  {r['verdict']}")
    for f in failures:
        print(f"FAIL {f}")
    if args.self_check:
        print("self-check: " + ("FAIL" if failures else "PASS"))
    else:
        print("regression" if failures else "no regression beyond the bounds")
    if args.json:
        args.json.write_text(to_json(base, head, rows))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
