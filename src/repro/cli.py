"""Command-line interface: Flashmark operations on chip files.

The CLI plays both supply-chain roles on persisted chip state
(:mod:`repro.device.persistence`):

.. code-block:: console

    # manufacturer
    $ python -m repro make chip.npz --seed 7
    $ python -m repro imprint chip.npz --manufacturer TCMK --status ACCEPT
    $ python -m repro produce --count 16 --workers 4 --out-dir dies/
    $ python -m repro calibrate --workers 4 --cache calibrations.json
    # counterfeiter
    $ python -m repro wipe chip.npz
    # integrator
    $ python -m repro verify chip.npz
    $ python -m repro characterize chip.npz --segment 0
    $ python -m repro info chip.npz
    # verification service
    $ python -m repro registry publish --registry reg.db --family msp430
    $ python -m repro serve --registry reg.db --port 7433
    $ python -m repro verify chip.npz --registry reg.db --family msp430
    $ python -m repro loadgen --port 7433 --family msp430 --requests 200
    $ python -m repro chaos --seed 7 --requests 12 --manifest chaos.json
    # observability
    $ python -m repro imprint chip.npz --manifest run.json
    $ python -m repro telemetry summarize run.json
    $ python -m repro telemetry diff before.json after.json
    $ python -m repro telemetry --selftest
    # distributed tracing + perf baseline
    $ python -m repro serve --registry reg.db --trace-log server.jsonl
    $ python -m repro loadgen --port 7433 --family msp430 \
          --trace --trace-log client.jsonl
    $ python -m repro trace critical-path server.jsonl client.jsonl
    $ python -m repro trace export server.jsonl client.jsonl \
          --flame flame.txt --chrome chrome.json
    $ python -m repro bench --quick --out BENCH_perf.json
    # fleet-health monitoring
    $ python -m repro serve --registry reg.db --alerts-log alerts.jsonl
    $ python -m repro loadgen --port 7433 --family msp430 --wear-drift
    $ python -m repro monitor watch --port 7433
    $ python -m repro monitor report alerts.jsonl -o report.html
    $ python -m repro chaos --seed 7 --requests 24 --monitor
    # fleet: router + N shard processes
    $ python -m repro fleet up --registry reg.db --shards 4 --port 7500
    $ python -m repro loadgen --endpoint 127.0.0.1:7500 \
          --family msp430 --requests 400
    $ python -m repro monitor watch --endpoint 127.0.0.1:7500
    $ python -m repro fleet topology --endpoint 127.0.0.1:7500
    $ python -m repro fleet soak --shards 4 --requests 40 --chaos
    # signed receipts + PoW-metered open access
    $ python -m repro registry publish --registry reg.db \
          --family msp430 --receipt-key <hex secret>
    $ python -m repro serve --registry reg.db \
          --receipt-key <hex secret> --pow-difficulty 12
    $ python -m repro loadgen --port 7433 --family msp430 \
          --receipts-out receipts.jsonl --pow-difficulty 12
    $ python -m repro receipt verify receipts.jsonl --registry reg.db
    $ python -m repro registry audit --registry reg.db --check
    # fleet observability: tsdb scraping, profiles, exemplars
    $ python -m repro fleet up --registry reg.db --shards 4 \
          --port 7500 --obs obsdata/
    $ python -m repro obs record --store obsdata/ \
          --target router=127.0.0.1:7500 --rounds 30
    $ python -m repro obs query --store obsdata/ \
          --metric flashmark_service_requests --rate --by target
    $ python -m repro serve --registry reg.db --profile-out prof.json
    $ python -m repro obs top --profile prof.json --flame flame.txt
    $ python -m repro obs report --store obsdata/ \
          --profile prof.json --out dossier.html
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .analysis import format_table
from .characterize import (
    WearEstimator,
    characterize_segment,
    default_t_pe_grid,
)
from .core import (
    ChipStatus,
    FlashmarkSession,
    WatermarkFormat,
    WatermarkPayload,
    WatermarkVerifier,
)
from .core.screening import detect_watermark_presence
from .device import McuFactory, age_chip, make_mcu
from .device.persistence import load_chip, save_chip
from .engine import CacheError, CalibrationCache, calibrate_family
from .telemetry import (
    Telemetry,
    build_manifest,
    diff_manifests,
    load_manifest,
    save_manifest,
    summarize_manifest,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flashmark NOR-flash watermarking (DAC 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", help="manufacture a chip file")
    p.add_argument("chip", help="output chip file (.npz)")
    p.add_argument("--model", default="MSP430F5438")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--segments", type=int, default=1, help="flash segments to simulate"
    )

    p = sub.add_parser("imprint", help="imprint a watermark payload")
    p.add_argument("chip")
    p.add_argument("--manufacturer", default="TCMK")
    p.add_argument(
        "--status", choices=[s.name for s in ChipStatus], default="ACCEPT"
    )
    p.add_argument("--speed-grade", type=int, default=3)
    p.add_argument("--n-pe", type=int, default=40_000)
    p.add_argument("--replicas", type=int, default=7)
    p.add_argument("--segment", type=int, default=0)
    p.add_argument(
        "--sign-key",
        help="hex-encoded manufacturer key; adds a keyed signature tag",
    )
    p.add_argument(
        "--manifest",
        help="write the run manifest (JSON) to this path",
    )

    p = sub.add_parser(
        "produce", help="run a die-sort production batch (batch engine)"
    )
    p.add_argument("--count", type=int, default=8, help="dies to produce")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (same seed -> identical batch at any count)",
    )
    p.add_argument("--manufacturer", default="TCMK")
    p.add_argument("--n-pe", type=int, default=40_000)
    p.add_argument("--replicas", type=int, default=7)
    p.add_argument(
        "--outlier-fraction",
        type=float,
        default=0.25,
        help="fraction of dies drawn from a degraded process corner",
    )
    p.add_argument(
        "--out-dir", help="save each produced chip here as die_<i>.npz"
    )
    p.add_argument(
        "--manifest", help="write the batch run manifest (JSON) to this path"
    )

    p = sub.add_parser(
        "calibrate",
        help="derive the family t_PEW window (batch engine + cache)",
    )
    p.add_argument("--model", default="MSP430F5438")
    p.add_argument("--n-pe", type=int, default=40_000)
    p.add_argument("--replicas", type=int, default=7)
    p.add_argument(
        "--chips", type=int, default=1, help="sample chips to average"
    )
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument(
        "--workers", type=int, default=1, help="worker processes for the sweep"
    )
    p.add_argument(
        "--cache",
        help="calibration cache JSON; hit skips the sweep entirely",
    )
    p.add_argument(
        "--manifest", help="write the run manifest (JSON) to this path"
    )

    p = sub.add_parser("wipe", help="erase a segment digitally")
    p.add_argument("chip")
    p.add_argument("--segment", type=int, default=0)

    p = sub.add_parser("verify", help="extract + verify the watermark")
    p.add_argument("chip")
    p.add_argument("--segment", type=int, default=0)
    p.add_argument("--n-pe", type=int, default=40_000)
    p.add_argument("--replicas", type=int, default=7)
    p.add_argument(
        "--sign-key",
        help="hex-encoded manufacturer key the watermark was signed with",
    )
    p.add_argument(
        "--temperature",
        type=float,
        default=None,
        help="die temperature [C]; compensates the extraction window",
    )
    p.add_argument(
        "--registry",
        help="verify against a family published in this registry "
        "instead of re-deriving the calibration",
    )
    p.add_argument(
        "--family",
        help="family id in the registry (requires --registry)",
    )
    p.add_argument(
        "--manifest",
        help="write the run manifest (JSON) to this path",
    )

    p = sub.add_parser("characterize", help="partial-erase sweep (Fig. 3)")
    p.add_argument("chip")
    p.add_argument("--segment", type=int, default=0)
    p.add_argument("--reads", type=int, default=3)

    p = sub.add_parser("info", help="print chip metadata")
    p.add_argument("chip")

    p = sub.add_parser("age", help="advance unpowered shelf time")
    p.add_argument("chip")
    p.add_argument("--years", type=float, default=1.0)

    p = sub.add_parser(
        "detect", help="blind-probe for a watermark (no format needed)"
    )
    p.add_argument("chip")
    p.add_argument("--segment", type=int, default=0)

    p = sub.add_parser(
        "estimate-wear", help="estimate prior P/E cycles of a segment"
    )
    p.add_argument("chip")
    p.add_argument("--segment", type=int, default=0)

    p = sub.add_parser("temp", help="set the die junction temperature")
    p.add_argument("chip")
    p.add_argument("celsius", type=float)

    p = sub.add_parser(
        "telemetry", help="summarize / diff run manifests, or --selftest"
    )
    p.add_argument(
        "action",
        nargs="?",
        choices=["summarize", "diff"],
        help="summarize one manifest or diff two",
    )
    p.add_argument(
        "manifests", nargs="*", help="manifest JSON file(s)"
    )
    p.add_argument(
        "--selftest",
        action="store_true",
        help="run a small imprint/verify session and check that its "
        "manifest reconciles with the device clock",
    )

    p = sub.add_parser(
        "registry",
        help="manage the published-family registry (SQLite)",
    )
    p.add_argument(
        "action", choices=["init", "publish", "history", "audit"]
    )
    p.add_argument(
        "--registry", required=True, help="registry database file"
    )
    p.add_argument(
        "--family", help="family id (publish/history filter)"
    )
    p.add_argument("--model", default="MSP430F5438")
    p.add_argument("--n-pe", type=int, default=40_000)
    p.add_argument("--replicas", type=int, default=7)
    p.add_argument(
        "--chips", type=int, default=1, help="sample chips to average"
    )
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument(
        "--workers", type=int, default=1, help="calibration sweep workers"
    )
    p.add_argument(
        "--cache", help="calibration cache JSON used by publish"
    )
    p.add_argument(
        "--sign-key",
        help="hex manufacturer key; publishes its fingerprint",
    )
    p.add_argument(
        "--replace",
        action="store_true",
        help="allow re-publishing an existing family",
    )
    p.add_argument(
        "--receipt-key",
        help="hex receipt-issuer secret; publish derives and stores "
        "the public verifying key next to the family",
    )
    p.add_argument(
        "--receipt-algorithm",
        choices=["ed25519", "hmac-sha256"],
        default=None,
        help="receipt signature algorithm (default: ed25519 when "
        "available, else hmac-sha256)",
    )
    p.add_argument("--die", help="die id filter for history")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument(
        "--check",
        action="store_true",
        help="audit: exit 3 (instead of 1) when the hash chain is "
        "broken — CI-gate idiom shared with 'repro trace --check'",
    )

    p = sub.add_parser(
        "serve",
        help="run the watermark verification service (wire frames + HTTP)",
    )
    p.add_argument(
        "--registry", required=True, help="registry database file"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port and prints it)",
    )
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument(
        "--workers", type=int, default=1, help="engine workers per batch"
    )
    p.add_argument(
        "--rate-capacity",
        type=float,
        default=None,
        help="per-client token-bucket size (default: no rate limit)",
    )
    p.add_argument(
        "--rate-refill",
        type=float,
        default=50.0,
        help="per-client token refill per second",
    )
    p.add_argument(
        "--sign-key",
        help="hex signing key, checked against family fingerprints",
    )
    p.add_argument(
        "--manifest",
        help="write the service run manifest here on shutdown",
    )
    p.add_argument(
        "--trace-log",
        help="append span records (JSONL) here — the server half of "
        "'repro trace' input",
    )
    p.add_argument(
        "--trace-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the trace log once it would exceed N bytes",
    )
    p.add_argument(
        "--trace-log-max-files",
        type=int,
        default=1,
        metavar="N",
        help="rotated trace-log generations to keep "
        "(.1 newest .. .N oldest; with --trace-log-max-bytes)",
    )
    p.add_argument(
        "--profile-hz",
        type=float,
        default=0.0,
        metavar="HZ",
        help="continuous-profiling sample rate for the server loop "
        "and engine workers (0: off)",
    )
    p.add_argument(
        "--profile-out",
        metavar="JSON",
        help="write the merged flashmark.profile/v1 dump here on "
        "shutdown (implies --profile-hz 99 unless set)",
    )
    p.add_argument(
        "--no-tracing",
        action="store_true",
        help="skip per-request trace spans entirely",
    )
    p.add_argument(
        "--alerts-log",
        help="append flashmark.alerts/v1 transitions (JSONL) here — "
        "the input of 'repro monitor report'",
    )
    p.add_argument(
        "--slo",
        help="flashmark.slo/v1 JSON spec (default: built-in SLOs)",
    )
    p.add_argument(
        "--no-monitor",
        action="store_true",
        help="disable the fleet-health monitor entirely",
    )
    p.add_argument(
        "--port-file",
        help="write the bound port (one line) here once listening — "
        "how supervisors such as 'repro fleet up' discover an "
        "ephemeral-port shard",
    )
    p.add_argument(
        "--receipt-key",
        help="hex receipt-issuer secret; verify responses asking for "
        "a receipt get one signed with this key",
    )
    p.add_argument(
        "--receipt-algorithm",
        choices=["ed25519", "hmac-sha256"],
        default=None,
        help="receipt signature algorithm (default: ed25519 when "
        "available, else hmac-sha256)",
    )
    p.add_argument(
        "--pow-difficulty",
        type=int,
        default=0,
        metavar="BITS",
        help="require hashcash tickets with this many leading zero "
        "bits on verify requests (0: disabled)",
    )

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection soak of the full stack",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--requests", type=int, default=12, help="traffic items to replay"
    )
    p.add_argument(
        "--plan", help="replay a saved fault-plan JSON instead of "
        "the seeded coverage plan"
    )
    p.add_argument(
        "--save-plan", help="write the effective fault plan (JSON) here"
    )
    p.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="sample N random faults over all points instead of the "
        "coverage plan",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        help="whole-soak wall-clock bound [s] (invariant)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-request bound [s] (invariant)",
    )
    p.add_argument(
        "--manifest", help="write the chaos run manifest (JSON) here"
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="attach a fleet monitor to the soak server and check that "
        "faults trip an alert which clears after recovery",
    )
    p.add_argument(
        "--alerts-log",
        help="append the soak's alert transitions (JSONL) here "
        "(implies --monitor)",
    )

    p = sub.add_parser(
        "loadgen",
        help="replay verification traffic and measure latency",
    )
    p.add_argument(
        "--endpoint",
        help="target 'host:port' (a server or a fleet router); "
        "preferred over --host/--port",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--family", required=True)
    p.add_argument("--requests", type=int, default=100)
    p.add_argument(
        "--mode", choices=["closed", "open"], default="closed"
    )
    p.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop workers"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="open-loop arrival rate [req/s]",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--manifest", help="write the loadgen manifest (JSON) here"
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="send a fresh trace context with every request and record "
        "client.request spans",
    )
    p.add_argument(
        "--trace-log",
        help="append client span records (JSONL) here — the client "
        "half of 'repro trace' input",
    )
    p.add_argument(
        "--wear-drift",
        action="store_true",
        help="age the watermarked chips linearly along the stream "
        "(fleet wear drift the server-side monitor should detect)",
    )
    p.add_argument(
        "--wear-start",
        type=int,
        default=16,
        metavar="N",
        help="stream index the wear ramp starts at",
    )
    p.add_argument(
        "--wear-ramp",
        type=int,
        default=48,
        metavar="N",
        help="items over which wear ramps to its ceiling",
    )
    p.add_argument(
        "--wear-max-pe",
        type=int,
        default=600,
        metavar="N",
        help="extra accelerated P/E cycles at full ramp",
    )
    p.add_argument(
        "--genuine-only",
        action="store_true",
        help="all-genuine traffic mix (clean drift-detection baseline)",
    )
    p.add_argument(
        "--receipts",
        action="store_true",
        help="ask for a signed receipt with every verify",
    )
    p.add_argument(
        "--receipts-out",
        metavar="JSONL",
        help="write collected receipts here (implies --receipts) — "
        "the input of 'repro receipt verify'",
    )
    p.add_argument(
        "--pow-difficulty",
        type=int,
        default=None,
        metavar="BITS",
        help="mint a hashcash ticket of this difficulty per request "
        "(matching a server's --pow-difficulty gate)",
    )

    p = sub.add_parser(
        "monitor",
        help="fleet-health: live dashboard / post-run report",
    )
    p.add_argument(
        "action",
        choices=["watch", "report"],
        help="watch: poll a live server's monitor snapshot; "
        "report: digest an alerts JSONL into markdown/HTML",
    )
    p.add_argument(
        "alerts",
        nargs="?",
        help="flashmark.alerts/v1 JSONL file (report)",
    )
    p.add_argument(
        "--endpoint",
        help="target 'host:port' (watch; a server or a fleet router); "
        "preferred over --host/--port",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=None, help="server port (watch)"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between dashboard refreshes (watch)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N refreshes (watch; default: until Ctrl-C)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (same as --iterations 1)",
    )
    p.add_argument(
        "--manifest",
        help="loadgen/chaos run manifest folded into the report",
    )
    p.add_argument(
        "-o",
        "--out",
        help="write the report here ('.html' selects HTML, anything "
        "else markdown; default: markdown on stdout)",
    )
    p.add_argument(
        "--title", default="Fleet-health report", help="report title"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 3 unless at least one drift alert fired and a final "
        "SLO snapshot is present (CI gate)",
    )

    p = sub.add_parser(
        "fleet",
        help="shard fleet: run a router topology, soak it, inspect it",
    )
    p.add_argument(
        "action",
        choices=["up", "soak", "topology"],
        help="up: spawn N shard processes behind a router; "
        "soak: parity/chaos harness over an in-process fleet; "
        "topology: query a live router's shard map",
    )
    p.add_argument(
        "--registry", help="source registry with published families (up)"
    )
    p.add_argument(
        "--shards", type=int, default=4, help="shard count (up/soak)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="router port (up; 0 binds an ephemeral port and prints it)",
    )
    p.add_argument(
        "--endpoint", help="router 'host:port' to query (topology)"
    )
    p.add_argument(
        "--dir",
        help="shard working directory — registries, port files, logs "
        "(up; default: a temp dir)",
    )
    p.add_argument(
        "--workers", type=int, default=1, help="engine workers per shard"
    )
    p.add_argument(
        "--requests", type=int, default=100, help="traffic items (soak)"
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed-loop soak workers (parity mode)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--chaos",
        action="store_true",
        help="arm the fleet coverage fault plan "
        "(shard_kill/shard_rejoin) during the soak",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the direct single-server parity baseline (soak)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=300.0,
        help="whole-soak wall-clock bound [s] (invariant)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request bound [s] (invariant)",
    )
    p.add_argument(
        "--audit-out",
        help="write the flashmark.fleet-audit/v1 reconcile JSON here "
        "(soak; up writes it on shutdown)",
    )
    p.add_argument(
        "--report", help="write the full soak report JSON here (soak)"
    )
    p.add_argument(
        "--receipt-key",
        help="hex receipt-issuer secret shared by every shard (up)",
    )
    p.add_argument(
        "--pow-difficulty",
        type=int,
        default=0,
        metavar="BITS",
        help="hashcash difficulty each shard enforces (up; 0: off)",
    )
    p.add_argument(
        "--obs",
        metavar="DIR",
        help="scrape the router + every shard into a "
        "flashmark.tsdb/v1 store at DIR while the fleet runs (up)",
    )
    p.add_argument(
        "--obs-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="scrape interval for --obs [s]",
    )

    p = sub.add_parser(
        "trace",
        help="assemble span logs into distributed traces and analyse",
    )
    p.add_argument(
        "action",
        choices=["show", "critical-path", "export"],
        help="show: span trees; critical-path: per-stage breakdown; "
        "export: flamegraph / Chrome trace files",
    )
    p.add_argument(
        "logs", nargs="+", help="span JSONL files (server + client)"
    )
    p.add_argument(
        "--trace-id", help="restrict to trace ids with this prefix"
    )
    p.add_argument(
        "--limit",
        type=int,
        default=5,
        help="most traces to render (show / critical-path)",
    )
    p.add_argument(
        "--flame",
        help="write collapsed-stack lines here (flamegraph.pl input)",
    )
    p.add_argument(
        "--chrome",
        help="write Chrome trace_event JSON here (chrome://tracing)",
    )
    p.add_argument(
        "--json",
        dest="json_out",
        help="write the assembled flashmark.trace/v1 documents here",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 3 unless every assembled trace is complete "
        "(zero orphan spans)",
    )

    p = sub.add_parser(
        "bench",
        help="run the performance-baseline suite and export "
        "BENCH_perf.json",
    )
    p.add_argument(
        "--out",
        default="BENCH_perf.json",
        help="output path (flashmark.bench/v1 JSON)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller repetition counts (CI-friendly)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the engine-scaling section "
        "(default: up to 4, bounded by CPUs)",
    )
    p.add_argument(
        "--gate",
        metavar="BASELINE",
        default=None,
        help="regression-gate the run against a committed "
        "flashmark.bench/v1 baseline JSON; exit 4 on regression",
    )

    p = sub.add_parser(
        "receipt",
        help="verify / inspect signed verdict receipts offline",
    )
    p.add_argument(
        "action",
        choices=["verify", "show"],
        help="verify: check signatures + audit-chain anchors with "
        "zero network access; show: tabulate a receipts file",
    )
    p.add_argument(
        "receipts", help="flashmark.receipt/v1 JSONL file"
    )
    p.add_argument(
        "--registry",
        help="registry snapshot: supplies verifying keys, published "
        "params and the audit chain to anchor against",
    )
    p.add_argument(
        "--fleet-audit",
        help="flashmark.fleet-audit/v1 JSON: anchor each receipt "
        "against its shard's merged timeline",
    )
    p.add_argument(
        "--key",
        help="hex verifying key, used for every family without a "
        "registry entry (ed25519 public key, or the hmac secret)",
    )
    p.add_argument(
        "--algorithm",
        choices=["ed25519", "hmac-sha256"],
        default="ed25519",
        help="algorithm --key belongs to (default: ed25519)",
    )
    p.add_argument(
        "--report", help="write the receipt-check report JSON here"
    )

    p = sub.add_parser(
        "pow",
        help="mint hashcash tickets for PoW-gated verify endpoints",
    )
    p.add_argument("action", choices=["mint"])
    p.add_argument(
        "body",
        nargs="?",
        help="request-body JSON file the ticket binds to "
        "(default: an empty body)",
    )
    p.add_argument(
        "--client", required=True, help="client id the ticket binds to"
    )
    p.add_argument(
        "--difficulty",
        type=int,
        required=True,
        metavar="BITS",
        help="leading zero bits the server demands",
    )

    p = sub.add_parser(
        "obs",
        help="fleet observability: scrape, query, profile, report",
    )
    p.add_argument(
        "action",
        choices=["record", "query", "top", "report"],
        help="record: scrape endpoints into a tsdb; "
        "query: range/instant/rate queries over a tsdb; "
        "top: hottest frames of a flashmark.profile/v1 dump; "
        "report: render the fleet dossier (markdown/HTML)",
    )
    p.add_argument(
        "--store", help="flashmark.tsdb/v1 directory (record/query/report)"
    )
    p.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="NAME=HOST:PORT",
        help="endpoint to scrape, repeatable (record); bare HOST:PORT "
        "names itself",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, help="scrape interval [s]"
    )
    p.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="stop after N scrape rounds (record)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after S seconds (record)",
    )
    p.add_argument("--metric", help="metric to query (query)")
    p.add_argument(
        "--rate",
        action="store_true",
        help="per-second counter rate instead of raw values (query)",
    )
    p.add_argument(
        "--by",
        default=None,
        metavar="LABEL[,LABEL]",
        help="rollup grouping labels, e.g. 'target' (query)",
    )
    p.add_argument(
        "--agg",
        choices=["sum", "max"],
        default="sum",
        help="rollup aggregation across series (query)",
    )
    p.add_argument(
        "--start",
        type=float,
        default=None,
        help="range start (unix seconds; default: everything)",
    )
    p.add_argument(
        "--end",
        type=float,
        default=None,
        help="range end (unix seconds)",
    )
    p.add_argument(
        "--exemplars",
        action="store_true",
        help="print the slowest exemplars of --metric instead of "
        "values (query)",
    )
    p.add_argument(
        "--profile", help="flashmark.profile/v1 JSON dump (top/report)"
    )
    p.add_argument(
        "--limit", type=int, default=15, help="rows to print (top/query)"
    )
    p.add_argument(
        "--flame",
        help="write the profile as collapsed stacks here (top)",
    )
    p.add_argument(
        "--chrome",
        help="write the profile as Chrome trace JSON here (top)",
    )
    p.add_argument(
        "--alerts-log",
        help="flashmark.alerts/v1 JSONL for the dossier (report)",
    )
    p.add_argument(
        "--out",
        help="write the dossier here — .html/.htm renders HTML "
        "(report; default: stdout markdown)",
    )
    p.add_argument(
        "--compact",
        action="store_true",
        help="compact the store after recording (record)",
    )
    p.add_argument(
        "--retention-windows",
        type=int,
        default=0,
        metavar="N",
        help="windows kept by --compact (0: keep everything)",
    )
    return parser


def _cmd_make(args) -> int:
    chip = make_mcu(
        model=args.model, seed=args.seed, n_segments=args.segments
    )
    save_chip(chip, args.chip)
    print(f"manufactured {chip!r} -> {args.chip}")
    return 0


def _cmd_imprint(args) -> int:
    chip = load_chip(args.chip)
    session = FlashmarkSession(chip, segment=args.segment)
    payload = WatermarkPayload(
        manufacturer=args.manufacturer,
        die_id=chip.die_id,
        speed_grade=args.speed_grade,
        status=ChipStatus[args.status],
    )
    sign_key = bytes.fromhex(args.sign_key) if args.sign_key else None
    report = session.imprint_payload(
        payload,
        n_pe=args.n_pe,
        n_replicas=args.replicas,
        sign_key=sign_key,
    )
    save_chip(chip, args.chip)
    print(
        f"imprinted {payload.manufacturer}/{payload.status.name} "
        f"(die 0x{payload.die_id:012X}) with {report.n_pe} cycles in "
        f"{report.duration_s:.0f} s of device time"
    )
    if args.manifest:
        session.write_manifest(args.manifest)
        print(f"run manifest -> {args.manifest}")
    return 0


def _fail(context: str, exc: Exception) -> int:
    """Uniform CLI error reporting: one line on stderr, exit code 1."""
    print(f"{context}: {exc}", file=sys.stderr)
    return 1


def _cmd_wipe(args) -> int:
    chip = load_chip(args.chip)
    chip.flash.erase_segment(args.segment)
    save_chip(chip, args.chip)
    print(f"segment {args.segment} digitally erased (all 0xFFFF)")
    return 0


def _cmd_produce(args) -> int:
    from pathlib import Path

    from .workloads import ProductionLine

    if args.count < 1:
        return _fail("produce", ValueError("--count must be >= 1"))
    line = ProductionLine(
        manufacturer=args.manufacturer,
        outlier_fraction=args.outlier_fraction,
        n_pe=args.n_pe,
        n_replicas=args.replicas,
    )
    telemetry = Telemetry()
    result = line.run(
        args.count,
        seed=args.seed,
        workers=args.workers,
        telemetry=telemetry,
    )
    rows = [
        [
            i,
            f"0x{p.chip.die_id:012X}",
            "pass" if p.die_sort.passed else "FAIL",
            p.die_sort.reason,
        ]
        for i, p in enumerate(result.results)
        if p is not None
    ]
    print(
        format_table(
            ["die", "die id", "sort", "reason"],
            rows,
            title=f"production batch (seed {args.seed}, "
            f"{result.workers} worker(s))",
        )
    )
    batch = result.batch
    if batch:
        print(f"yield: {result.yield_fraction:.0%} of {len(batch)} die(s)")
    for failure in result.failures:
        print(
            f"die {failure.index} failed after {failure.attempts} "
            f"attempt(s): {failure.error.strip().splitlines()[-1]}",
            file=sys.stderr,
        )
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, p in enumerate(result.results):
            if p is not None:
                save_chip(p.chip, out / f"die_{i:03d}.npz")
        print(f"saved {len(batch)} chip file(s) -> {out}")
    if args.manifest and result.manifest is not None:
        save_manifest(result.manifest, args.manifest)
        print(f"run manifest -> {args.manifest}")
    return 0 if result.ok else 1


def _cmd_calibrate(args) -> int:
    cache = None
    if args.cache:
        try:
            cache = CalibrationCache(args.cache)
        except CacheError as exc:
            return _fail("calibrate", exc)
    telemetry = Telemetry()
    try:
        result = calibrate_family(
            McuFactory(model=args.model, n_segments=1),
            args.n_pe,
            n_replicas=args.replicas,
            n_chips=args.chips,
            seed=args.seed,
            workers=args.workers,
            cache=cache,
            telemetry=telemetry,
        )
    except ValueError as exc:
        return _fail("calibrate", exc)
    cal = result.calibration
    source = "cache hit" if result.cache_hit else (
        f"swept {args.chips} chip(s) on {result.workers} worker(s)"
    )
    print(f"family calibration ({source}):")
    print(f"  model:        {cal.model}")
    print(f"  t_PEW:        {cal.t_pew_us:.1f} us")
    print(
        f"  window:       {cal.window_lo_us:.1f}..{cal.window_hi_us:.1f} us"
    )
    print(f"  N_PE:         {cal.n_pe}")
    print(f"  replicas:     {cal.n_replicas}")
    print(f"  expected BER: {cal.expected_ber:.4f}")
    if cache is not None:
        stats = cache.stats()
        print(
            f"cache: {stats['entries']} entry(ies), "
            f"{stats['hits']} hit(s), {stats['misses']} miss(es) "
            f"at {stats['path']}"
        )
    if args.manifest:
        save_manifest(result.manifest, args.manifest)
        print(f"run manifest -> {args.manifest}")
    return 0


def _published_format(
    n_replicas: int, tag_bits: int = 0
) -> WatermarkFormat:
    """The published watermark format for a payload-carrying family.

    The width comes from :meth:`WatermarkPayload.bit_length` — the
    packed record layout itself — so it holds for any manufacturer id,
    not just 4-character ones.
    """
    return WatermarkFormat(
        n_bits=WatermarkPayload.bit_length() + tag_bits,
        n_replicas=n_replicas,
        balanced=True,
        structured=True,
    )


def _published_verifier(
    chip, n_pe: int, n_replicas: int, sign_key: Optional[bytes] = None
) -> WatermarkVerifier:
    """Derive the published family parameters for the chip's model."""
    from .core import SignatureScheme

    calibration = calibrate_family(
        McuFactory(model=chip.model, params=chip.params, n_segments=1),
        n_pe,
        n_replicas=n_replicas,
    ).calibration
    scheme = SignatureScheme(sign_key) if sign_key else None
    fmt = _published_format(
        n_replicas, tag_bits=scheme.tag_bits if scheme else 0
    )
    return WatermarkVerifier(calibration, fmt, signature_scheme=scheme)


def _registry_verifier(
    registry_path: str, family: str, sign_key: Optional[bytes] = None
) -> WatermarkVerifier:
    """Build the verifier from a family published in a registry."""
    from .core import SignatureScheme
    from .service import RegistryError, WatermarkRegistry

    with WatermarkRegistry(registry_path, create=False) as registry:
        record = registry.get_family(family)
        scheme = None
        if sign_key is not None:
            if record.sign_key_fingerprint is None:
                raise RegistryError(
                    f"family {family!r} was published unsigned"
                )
            if (
                WatermarkRegistry.fingerprint(sign_key)
                != record.sign_key_fingerprint
            ):
                raise RegistryError(
                    f"signing key does not match the fingerprint "
                    f"published for family {family!r}"
                )
            scheme = SignatureScheme(sign_key)
        return WatermarkVerifier(
            record.calibration, record.format, signature_scheme=scheme
        )


def _cmd_verify(args) -> int:
    if bool(args.registry) != bool(args.family):
        return _fail(
            "verify",
            ValueError("--registry and --family go together"),
        )
    chip = load_chip(args.chip)
    sign_key = bytes.fromhex(args.sign_key) if args.sign_key else None
    telemetry = Telemetry()
    chip.flash.attach_telemetry(telemetry)
    with telemetry.span("calibration", n_pe=args.n_pe):
        if args.registry:
            from .service import RegistryError

            try:
                verifier = _registry_verifier(
                    args.registry, args.family, sign_key=sign_key
                )
            except RegistryError as exc:
                return _fail("verify", exc)
        else:
            verifier = _published_verifier(
                chip, args.n_pe, args.replicas, sign_key=sign_key
            )
    with telemetry.span("verify", segment=args.segment) as sp:
        report = verifier.verify(
            chip.flash,
            args.segment,
            temperature_c=args.temperature,
            telemetry=telemetry,
        )
        sp.set("verdict", report.verdict.value)
    save_chip(chip, args.chip)  # extraction wears/rewrites the segment
    if args.manifest:
        if report.ber is not None:
            telemetry.gauge("verify.ber", report.ber)
        save_manifest(
            build_manifest(
                telemetry,
                kind="verify",
                parameters={
                    "n_pe": args.n_pe,
                    "n_replicas": args.replicas,
                    "segment": args.segment,
                    "temperature_c": args.temperature,
                    "registry": args.registry,
                    "family": args.family,
                },
                seeds={"chip_seed": chip.seed},
                trace=chip.trace,
                verdict=report.verdict.value,
            ),
            args.manifest,
        )
        print(f"run manifest -> {args.manifest}")
    print(f"verdict: {report.verdict.value}")
    print(f"reason:  {report.reason}")
    if report.payload is not None:
        p = report.payload
        print(
            f"payload: manufacturer={p.manufacturer} "
            f"die=0x{p.die_id:012X} grade={p.speed_grade} "
            f"status={p.status.name}"
        )
    return 0 if report.verdict.value == "authentic" else 2


def _cmd_characterize(args) -> int:
    chip = load_chip(args.chip)
    curve = characterize_segment(
        chip.flash,
        args.segment,
        default_t_pe_grid(),
        n_reads=args.reads,
    )
    save_chip(chip, args.chip)
    rows = [
        [p.t_pe_us, p.cells_0, p.cells_1] for p in curve.points[::5]
    ]
    print(
        format_table(
            ["t_PE [us]", "cells_0", "cells_1"],
            rows,
            title=f"segment {args.segment} characterisation",
        )
    )
    print(f"transition onset:  {curve.transition_onset_us()} us")
    print(f"full-erase time:   {curve.full_erase_time_us()} us")
    return 0


def _cmd_info(args) -> int:
    chip = load_chip(args.chip)
    sl = slice(0, chip.geometry.total_bits)
    n_eff = chip.array.n_effective(sl)
    print(f"{chip!r}")
    print(f"die id:        0x{chip.die_id:012X}")
    print(f"segments:      {chip.geometry.n_segments}")
    print(f"device clock:  {chip.trace.now_s:.1f} s")
    print(f"max cell wear: {n_eff.max():.0f} effective P/E cycles")
    print(f"worn cells:    {int((n_eff > 1000).sum())} above 1K cycles")
    return 0


def _cmd_age(args) -> int:
    chip = load_chip(args.chip)
    if args.years < 0:
        print("years must be non-negative", file=sys.stderr)
        return 1
    age_chip(chip, args.years * 365.0 * 24.0)
    save_chip(chip, args.chip)
    print(f"aged {args.years} year(s) of shelf time")
    return 0


def _cmd_detect(args) -> int:
    chip = load_chip(args.chip)
    result = detect_watermark_presence(chip, segment=args.segment)
    save_chip(chip, args.chip)  # the probe rewrites the segment
    print(
        f"watermark present: {'yes' if result.has_watermark else 'no'} "
        f"({result.stressed_cells} stressed cells, "
        f"p={result.p_value:.2e})"
    )
    return 0 if result.has_watermark else 2


def _cmd_estimate_wear(args) -> int:
    chip = load_chip(args.chip)
    estimator = WearEstimator()
    print("building reference curves on sibling golden dies ...")
    estimator.build_references(
        lambda seed: make_mcu(
            model=chip.model, seed=seed, params=chip.params, n_segments=1
        )
    )
    estimate = estimator.estimate(chip, segment=args.segment)
    save_chip(chip, args.chip)
    print(
        f"estimated prior stress: ~{estimate.estimated_kcycles:.1f} K "
        f"P/E cycles (bracket {estimate.bracket})"
    )
    return 0


def _cmd_temp(args) -> int:
    chip = load_chip(args.chip)
    chip.set_temperature(args.celsius)
    save_chip(chip, args.chip)
    print(f"junction temperature set to {args.celsius} C")
    return 0


def _telemetry_selftest() -> int:
    """End-to-end smoke check of the telemetry layer.

    Imprints and verifies a default chip with a live telemetry context,
    then asserts that the manifest's stage device times reconcile with
    the chip's operation-trace clock.
    """
    chip = make_mcu(seed=11, n_segments=1)
    session = FlashmarkSession(chip, telemetry=Telemetry())
    payload = WatermarkPayload(
        manufacturer="TCMK",
        die_id=chip.die_id,
        speed_grade=3,
        status=ChipStatus.ACCEPT,
    )
    session.imprint_payload(payload, n_pe=40_000, n_replicas=7)
    report = session.verify()
    manifest = session.run_manifest()
    print(summarize_manifest(manifest))
    stage_us = sum(s["device_us"] for s in manifest["stages"])
    clock_us = chip.trace.now_us
    drift = abs(stage_us - clock_us)
    tolerance = 1e-6 * max(clock_us, 1.0)
    checks = {
        "verdict is authentic": report.verdict.value == "authentic",
        "stages present": {"imprint", "calibration", "verify"}
        <= {s["name"] for s in manifest["stages"]},
        "extract span recorded": any(
            "extract" in p for p in manifest["span_stats"]
        ),
        f"stage/clock drift {drift:.3g} us within {tolerance:.3g} us":
            drift <= tolerance,
    }
    ok = all(checks.values())
    for label, passed in checks.items():
        print(f"  [{'ok' if passed else 'FAIL'}] {label}")
    print(f"telemetry selftest: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_telemetry(args) -> int:
    if args.selftest:
        return _telemetry_selftest()
    if args.action == "summarize":
        if len(args.manifests) != 1:
            print(
                "telemetry summarize takes exactly one manifest",
                file=sys.stderr,
            )
            return 1
        try:
            manifest = load_manifest(args.manifests[0])
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            return _fail("telemetry", exc)
        print(summarize_manifest(manifest))
        return 0
    if args.action == "diff":
        if len(args.manifests) != 2:
            print(
                "telemetry diff takes exactly two manifests",
                file=sys.stderr,
            )
            return 1
        try:
            a = load_manifest(args.manifests[0])
            b = load_manifest(args.manifests[1])
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            return _fail("telemetry", exc)
        print(diff_manifests(a, b))
        return 0
    print(
        "usage: repro telemetry summarize <manifest> | "
        "diff <a> <b> | --selftest",
        file=sys.stderr,
    )
    return 1


def _cmd_registry(args) -> int:
    from .service import RegistryError, WatermarkRegistry

    try:
        if args.action == "init":
            with WatermarkRegistry(args.registry) as registry:
                counts = registry.counts()
            print(f"registry ready at {args.registry}")
            print(
                f"  families: {counts['families']}, "
                f"verifications: {counts['verifications']}"
            )
            return 0
        if args.action == "publish":
            if not args.family:
                raise RegistryError("publish requires --family")
            cache = CalibrationCache(args.cache) if args.cache else None
            sign_key = (
                bytes.fromhex(args.sign_key) if args.sign_key else None
            )
            result = calibrate_family(
                McuFactory(model=args.model, n_segments=1),
                args.n_pe,
                n_replicas=args.replicas,
                n_chips=args.chips,
                seed=args.seed,
                workers=args.workers,
                cache=cache,
            )
            from .core import SignatureScheme

            tag_bits = (
                SignatureScheme(sign_key).tag_bits if sign_key else 0
            )
            fmt = _published_format(args.replicas, tag_bits=tag_bits)
            verify_key = verify_algorithm = None
            if args.receipt_key:
                from .receipts import keypair_for

                verify_algorithm, verify_key = keypair_for(
                    bytes.fromhex(args.receipt_key),
                    args.receipt_algorithm,
                )
            with WatermarkRegistry(args.registry) as registry:
                record = registry.publish_family(
                    args.family,
                    result.calibration,
                    fmt,
                    sign_key=sign_key,
                    replace=args.replace,
                    verify_key=verify_key,
                    verify_algorithm=verify_algorithm,
                )
            cal = record.calibration
            print(
                f"published family {record.family_id!r} "
                f"({'cache hit' if result.cache_hit else 'fresh sweep'})"
            )
            print(f"  model:  {cal.model}")
            print(f"  t_PEW:  {cal.t_pew_us:.1f} us")
            print(f"  format: {record.format.n_bits} bits "
                  f"x {record.format.n_replicas} replicas")
            if record.sign_key_fingerprint:
                print(
                    "  key fp: "
                    f"{record.sign_key_fingerprint[:16]}..."
                )
            if record.verify_key is not None:
                print(
                    f"  receipts: {record.verify_algorithm}, verify "
                    f"key {record.verify_key.hex()[:16]}..."
                )
            return 0
        with WatermarkRegistry(args.registry, create=False) as registry:
            if args.action == "history":
                records = registry.history(
                    args.die, family_id=args.family, limit=args.limit
                )
                rows = [
                    [
                        r.seq,
                        r.family_id,
                        r.die_id,
                        r.verdict,
                        "-" if r.ber is None else f"{r.ber:.4f}",
                        r.client or "-",
                    ]
                    for r in records
                ]
                print(
                    format_table(
                        ["seq", "family", "die id", "verdict", "ber",
                         "client"],
                        rows,
                        title=f"verification history ({args.registry})",
                    )
                )
                return 0
            # audit
            try:
                n = registry.verify_audit_chain()
            except RegistryError as exc:
                if args.check:
                    # CI-gate idiom: 3 means "the artifact failed the
                    # check", distinct from 1's usage/IO errors.
                    print(f"CHECK FAILED: {exc}", file=sys.stderr)
                    return 3
                raise
            for entry in registry.audit_entries():
                print(
                    f"  #{entry['seq']:<4} {entry['actor']:<14} "
                    f"{entry['action']:<22} {entry['detail']}"
                )
            print(f"audit chain intact: {n} entr(ies) verified")
            return 0
    except (RegistryError, CacheError, ValueError) as exc:
        return _fail("registry", exc)


def _cmd_serve(args) -> int:
    import asyncio

    from .service import (
        RegistryError,
        ServerConfig,
        VerificationServer,
        WatermarkRegistry,
    )

    try:
        registry = WatermarkRegistry(args.registry, create=False)
    except RegistryError as exc:
        return _fail("serve", exc)
    families = registry.families()
    if not families:
        return _fail(
            "serve",
            RegistryError(
                "registry has no published families; run "
                "'repro registry publish' first"
            ),
        )
    profile_hz = args.profile_hz
    if args.profile_out and not profile_hz:
        profile_hz = 99.0
    config = ServerConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        workers=args.workers,
        rate_capacity=args.rate_capacity,
        rate_refill_per_s=args.rate_refill,
        tracing=not args.no_tracing,
        monitoring=not args.no_monitor,
        pow_difficulty=args.pow_difficulty,
        profile_hz=profile_hz,
    )
    receipt_signer = None
    if args.receipt_key:
        from .receipts import ReceiptKeyError, ReceiptSigner

        try:
            receipt_signer = ReceiptSigner(
                bytes.fromhex(args.receipt_key),
                algorithm=args.receipt_algorithm,
            )
        except (ValueError, ReceiptKeyError) as exc:
            registry.close()
            return _fail("serve", exc)
    sink = None
    if args.trace_log:
        from .telemetry import JsonlSink

        sink = JsonlSink(
            args.trace_log,
            max_bytes=args.trace_log_max_bytes,
            max_files=args.trace_log_max_files,
        )
    telemetry = Telemetry(sink=sink)
    monitor = None
    alerts_fh = None
    if not args.no_monitor:
        from .monitor import FleetMonitor, MonitorConfig, load_slo

        slo = None
        if args.slo:
            try:
                slo = load_slo(args.slo)
            except (OSError, ValueError, KeyError) as exc:
                registry.close()
                return _fail("serve", exc)
        if args.alerts_log:
            alerts_fh = open(args.alerts_log, "a", encoding="utf-8")
        monitor = FleetMonitor(
            MonitorConfig(slo=slo),
            telemetry=telemetry,
            alert_sink=alerts_fh,
        )
    elif args.slo or args.alerts_log:
        registry.close()
        return _fail(
            "serve",
            ValueError("--slo/--alerts-log conflict with --no-monitor"),
        )
    sign_keys = {}
    if args.sign_key:
        key = bytes.fromhex(args.sign_key)
        fp = WatermarkRegistry.fingerprint(key)
        sign_keys = {
            f.family_id: key
            for f in families
            if f.sign_key_fingerprint == fp
        }

    async def _serve() -> None:
        import signal

        server = VerificationServer(
            registry,
            config=config,
            sign_keys=sign_keys,
            telemetry=telemetry,
            monitor=monitor,
            receipt_signer=receipt_signer,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Graceful shutdown on the signals supervisors actually send
        # (SIGTERM from systemd/CI, SIGINT from a terminal), so the
        # manifest and the final alert-stream snapshot still get
        # written.  Platforms without signal support fall back to the
        # KeyboardInterrupt path below.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        async with server:
            if args.port_file:
                # Written atomically-enough (tiny single write) once
                # the socket is bound: supervisors poll this file to
                # learn an ephemeral port.
                with open(args.port_file, "w", encoding="utf-8") as fh:
                    fh.write(f"{server.port}\n")
            print(
                f"serving {len(families)} family(ies) on "
                f"{args.host}:{server.port} "
                f"(queue {config.queue_depth}, batch {config.max_batch})"
            )
            for record in families:
                print(
                    f"  {record.family_id}: {record.model}, "
                    f"t_PEW {record.calibration.t_pew_us:.1f} us"
                )
            if receipt_signer is not None:
                print(
                    f"  receipts: {receipt_signer.algorithm} "
                    f"(key id {receipt_signer.key_id[:16]}...)"
                )
            if args.pow_difficulty > 0:
                print(f"  pow gate: {args.pow_difficulty} bit(s)")
            sys.stdout.flush()
            try:
                await stop.wait()  # until SIGINT/SIGTERM
            finally:
                if args.manifest:
                    save_manifest(server.build_manifest(), args.manifest)
                    print(f"run manifest -> {args.manifest}")
                if monitor is not None and alerts_fh is not None:
                    # A final snapshot record gives 'repro monitor
                    # report' the end-of-run SLO burn and family state.
                    monitor.alerts.emit_snapshot(monitor.snapshot())
                    print(f"alert stream -> {args.alerts_log}")
        if args.profile_out:
            # The server-loop profiler merges into telemetry during
            # stop(), so the dump is only complete here, after the
            # context has exited.
            profile = telemetry.snapshot().get("profile")
            if profile is not None:
                with open(
                    args.profile_out, "w", encoding="utf-8"
                ) as fh:
                    json.dump(profile, fh, indent=1)
                    fh.write("\n")
                print(
                    f"profile ({profile['n_samples']} samples) -> "
                    f"{args.profile_out}"
                )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; server stopped")
    finally:
        registry.close()
        if sink is not None:
            sink.close()
        if alerts_fh is not None:
            alerts_fh.close()
    return 0


def _cmd_chaos(args) -> int:
    import tempfile
    from pathlib import Path

    from .faults import FaultPlan, all_points, sample_plan
    from .faults.soak import coverage_plan, run_chaos_soak
    from .service import WatermarkRegistry
    from .workloads.traffic import TrafficGenerator

    if args.requests < 1:
        return _fail("chaos", ValueError("--requests must be >= 1"))
    if args.plan:
        try:
            plan = FaultPlan.load(args.plan)
        except (OSError, ValueError, KeyError) as exc:
            return _fail("chaos", exc)
    elif args.sample is not None:
        plan = sample_plan(args.seed, all_points(), n_faults=args.sample)
    else:
        plan = coverage_plan(args.seed)
    if args.save_plan:
        plan.save(args.save_plan)
        print(f"fault plan -> {args.save_plan}")
    traffic = TrafficGenerator(seed=args.seed)
    pop = traffic.spec.population
    telemetry = Telemetry()
    print(
        f"chaos soak: {len(plan)} scheduled fault(s), "
        f"{args.requests} request(s), seed {args.seed}"
    )
    print("calibrating the soak family ...")
    calibration = calibrate_family(
        McuFactory(n_segments=1),
        pop.n_pe,
        n_replicas=pop.format.n_replicas,
        n_chips=1,
        seed=77,
    ).calibration
    family = "chaos-family"
    monitored = bool(args.monitor or args.alerts_log)
    alerts_fh = (
        open(args.alerts_log, "a", encoding="utf-8")
        if args.alerts_log
        else None
    )
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            with WatermarkRegistry(Path(tmp) / "registry.db") as registry:
                registry.publish_family(family, calibration, pop.format)
                report = run_chaos_soak(
                    registry,
                    family,
                    traffic.draw(args.requests),
                    plan,
                    telemetry=telemetry,
                    deadline_s=args.deadline,
                    request_timeout_s=args.timeout,
                    monitor=monitored,
                    alert_sink=alerts_fh,
                )
    finally:
        if alerts_fh is not None:
            alerts_fh.close()
    print(
        f"injected {len(report.injected)}/{len(plan)} scheduled fault(s) "
        f"in {report.wall_s:.2f} s:"
    )
    for point, kind, occurrence in report.injected:
        print(f"  {point} [{kind}] at occurrence {occurrence}")
    print(
        f"responses: {report.completed} ok, "
        f"{sum(report.errors.values())} error(s), "
        f"{report.local_rejects} local reject(s), "
        f"{report.reconnects} reconnect(s), "
        f"{report.retry_evidence()} counted retr(ies)"
    )
    for code, count in sorted(report.errors.items()):
        print(f"  {count} response(s) with error code {code}")
    if report.monitored:
        print(
            f"monitor: status {report.monitor_status}, "
            f"alert(s) fired {sorted(set(report.alerts_fired))}, "
            f"resolved {sorted(set(report.alerts_resolved))}, "
            f"still firing {sorted(report.alerts_firing_at_end)}"
        )
        if args.alerts_log:
            print(f"alert stream -> {args.alerts_log}")
    for label, passed in report.invariants().items():
        print(f"  [{'ok' if passed else 'FAIL'}] {label}")
    if args.manifest:
        save_manifest(
            build_manifest(
                telemetry,
                kind="chaos",
                parameters={
                    "requests": args.requests,
                    "deadline_s": args.deadline,
                    "request_timeout_s": args.timeout,
                    "plan_specs": len(plan),
                },
                seeds={"seed": args.seed, "plan_seed": plan.seed},
                extra={"chaos": report.to_dict()},
            ),
            args.manifest,
        )
        print(f"run manifest -> {args.manifest}")
    print(f"chaos soak: {'OK' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def _cmd_loadgen(args) -> int:
    import asyncio

    from .service import LoadClient, ServiceError

    sink = None
    if args.trace_log:
        from .telemetry import JsonlSink

        sink = JsonlSink(args.trace_log)
    from .workloads.traffic import (
        TrafficGenerator,
        TrafficSpec,
        WearDriftSpec,
    )

    spec = None
    if args.wear_drift or args.genuine_only:
        try:
            drift = (
                WearDriftSpec(
                    start_index=args.wear_start,
                    ramp_items=args.wear_ramp,
                    max_extra_pe=args.wear_max_pe,
                )
                if args.wear_drift
                else None
            )
            kwargs = {"wear_drift": drift}
            if args.genuine_only:
                kwargs["mix"] = {"genuine": 1.0}
            spec = TrafficSpec(**kwargs)
        except ValueError as exc:
            return _fail("loadgen", exc)
        if args.wear_drift:
            print(
                f"wear drift: +{args.wear_max_pe} P/E over "
                f"{args.wear_ramp} item(s) from index {args.wear_start}"
            )

    from .service import Endpoint

    if args.endpoint:
        try:
            endpoint = Endpoint.parse(args.endpoint)
        except ValueError as exc:
            return _fail("loadgen", exc)
    elif args.port is not None:
        endpoint = Endpoint(args.host, args.port)
    else:
        return _fail(
            "loadgen",
            ValueError("give --endpoint host:port (or --port)"),
        )
    load = LoadClient(
        endpoint,
        args.family,
        traffic=TrafficGenerator(spec, seed=args.seed),
        telemetry=Telemetry(sink=sink),
        trace=bool(args.trace or args.trace_log),
        receipts=bool(args.receipts or args.receipts_out),
        pow_difficulty=args.pow_difficulty,
    )

    async def _run():
        if args.mode == "closed":
            return await load.run_closed_loop(
                args.requests, concurrency=args.concurrency
            )
        return await load.run_open_loop(
            args.requests, args.rate, connections=args.concurrency
        )

    try:
        report = asyncio.run(_run())
    except (ConnectionError, OSError, ServiceError) as exc:
        return _fail("loadgen", exc)
    finally:
        if sink is not None:
            sink.close()
    summary = report.latency_summary()
    print(
        f"{report.mode}-loop load: {report.completed}/{report.requests} "
        f"completed, {report.rejected} rejected, "
        f"{len(report.mismatches)} verdict mismatch(es)"
    )
    if summary.get("count"):
        print(
            f"latency: p50 {summary['p50_ms']:.1f} ms, "
            f"p95 {summary['p95_ms']:.1f} ms, "
            f"p99 {summary['p99_ms']:.1f} ms "
            f"(mean {summary['mean_ms']:.1f} ms)"
        )
    print(f"throughput: {report.throughput_rps:.1f} req/s")
    for code, count in sorted(report.errors.items()):
        print(f"  {count} response(s) with error code {code}")
    if load.trace:
        print(f"traced: {len(report.trace_by_index)} request(s)")
        if args.trace_log:
            print(f"client spans -> {args.trace_log}")
    if load.receipts:
        print(f"receipts: {len(report.receipts)} collected")
        if args.receipts_out:
            from .receipts import write_receipts

            write_receipts(report.receipts, args.receipts_out)
            print(f"receipts -> {args.receipts_out}")
    if args.manifest:
        save_manifest(load.build_manifest(report), args.manifest)
        print(f"run manifest -> {args.manifest}")
    return 0 if report.completed == report.requests else 2


def _cmd_monitor(args) -> int:
    if args.action == "watch":
        import asyncio

        from .monitor import watch
        from .service import Endpoint

        if args.endpoint:
            try:
                target = Endpoint.parse(args.endpoint)
            except ValueError as exc:
                return _fail("monitor", exc)
        elif args.port is not None:
            target = Endpoint(args.host, args.port)
        else:
            return _fail(
                "monitor",
                ValueError(
                    "watch requires --endpoint host:port (or --port)"
                ),
            )
        iterations = 1 if args.once else args.iterations
        try:
            asyncio.run(
                watch(
                    target,
                    interval_s=args.interval,
                    iterations=iterations,
                )
            )
        except KeyboardInterrupt:
            print()
        except (ConnectionError, OSError, RuntimeError) as exc:
            return _fail("monitor", exc)
        return 0
    # report
    from .monitor import (
        load_manifest_file,
        read_alert_records,
        render_html,
        render_markdown,
        summarize_alert_records,
    )

    if not args.alerts:
        return _fail(
            "monitor", ValueError("report takes an alerts JSONL file")
        )
    try:
        records = read_alert_records(args.alerts)
        manifest = (
            load_manifest_file(args.manifest) if args.manifest else None
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail("monitor", exc)
    summary = summarize_alert_records(records, manifest)
    if args.out:
        render = render_html if args.out.endswith(".html") else (
            render_markdown
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render(summary, title=args.title))
        print(f"report -> {args.out}")
        print(
            f"alerts: {summary['fired']} fired, "
            f"{summary['resolved']} resolved, "
            f"{len(summary['unresolved'])} unresolved"
        )
    else:
        print(render_markdown(summary, title=args.title))
    if args.check:
        drift_fired = bool(summary.get("drift_alerts"))
        slo_reported = bool(
            summary.get("slo_alerts")
            or (summary.get("snapshot") or {}).get("slo")
        )
        if not (drift_fired and slo_reported):
            print(
                f"CHECK FAILED: drift alerts fired={drift_fired}, "
                f"slo burn reported={slo_reported}",
                file=sys.stderr,
            )
            return 3
        print("check: drift alert fired and SLO burn reported")
    return 0


def _cmd_trace(args) -> int:
    from .trace import (
        assemble_traces,
        dump_chrome_trace,
        format_critical_path,
        format_trace,
        read_span_records,
        to_collapsed_stacks,
    )

    try:
        records = read_span_records(args.logs)
    except OSError as exc:
        return _fail("trace", exc)
    docs = assemble_traces(records)
    if args.trace_id:
        docs = [
            d for d in docs if d["trace_id"].startswith(args.trace_id)
        ]
    if not docs:
        print("no traces found in the given span log(s)")
        return 1
    complete = sum(1 for d in docs if d["complete"])
    orphans = sum(len(d["orphans"]) for d in docs)
    print(
        f"{len(docs)} trace(s) assembled from "
        f"{sum(d['n_spans'] for d in docs)} span(s): "
        f"{complete} complete, {orphans} orphan span(s)"
    )
    if args.action == "show":
        for doc in docs[: args.limit]:
            print()
            print(format_trace(doc))
    elif args.action == "critical-path":
        for doc in docs[: args.limit]:
            print()
            print(format_critical_path(doc))
    else:  # export
        if not (args.flame or args.chrome or args.json_out):
            return _fail(
                "trace",
                ValueError(
                    "export needs --flame, --chrome and/or --json"
                ),
            )
        if args.flame:
            with open(args.flame, "w", encoding="utf-8") as fh:
                fh.write(to_collapsed_stacks(docs))
            print(f"collapsed stacks -> {args.flame}")
        if args.chrome:
            dump_chrome_trace(docs, args.chrome)
            print(f"chrome trace -> {args.chrome}")
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(docs, fh, indent=1)
                fh.write("\n")
            print(f"trace documents -> {args.json_out}")
    if args.check and (complete != len(docs) or orphans):
        print(
            f"CHECK FAILED: {len(docs) - complete} incomplete trace(s), "
            f"{orphans} orphan span(s)"
        )
        return 3
    return 0


def _cmd_bench(args) -> int:
    from .bench import check_bench, run_bench

    doc = run_bench(quick=args.quick, workers=args.workers)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for op in doc["ops"]:
        print(
            f"  {op['name']:<28} p50 {op['p50_ms']:8.2f} ms   "
            f"p95 {op['p95_ms']:8.2f} ms   "
            f"{op['throughput_per_s']:10.1f} /s"
        )
    scaling = doc.get("engine_scaling")
    if scaling:
        print(
            f"  engine scaling: serial {scaling['serial_s']:.2f} s, "
            f"parallel(x{scaling['workers']}) "
            f"{scaling['parallel_s']:.2f} s "
            f"-> speedup {scaling['speedup']:.2f}x"
        )
    verify = doc.get("verify_population")
    if verify:
        print(
            f"  verify population ({verify['n_dies']} dies): "
            f"batched {verify['batched_s']:.2f} s, verdicts "
            + (
                "identical to the serial reference"
                if verify["verdicts_identical"]
                else "DIFFERENT from the serial reference"
            )
        )
    print(f"bench baseline -> {args.out}")
    if args.gate is not None:
        with open(args.gate, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = check_bench(doc, baseline)
        if problems:
            for problem in problems:
                print(f"bench gate FAIL: {problem}", file=sys.stderr)
            return 4
        print(f"bench gate OK against {args.gate}")
    return 0


def _cmd_receipt(args) -> int:
    from .receipts import read_receipts

    try:
        receipts = read_receipts(args.receipts)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail("receipt", exc)
    if args.action == "show":
        rows = [
            [
                r.get("family", "?"),
                r.get("die_id", "?"),
                r.get("decision", "?"),
                (
                    f"{r['statistic']:.4f}"
                    if isinstance(r.get("statistic"), (int, float))
                    else "-"
                ),
                "-" if r.get("history_seq") is None else r["history_seq"],
                r.get("algorithm", "?"),
                str(r.get("key_id", ""))[:12],
            ]
            for r in receipts
        ]
        print(
            format_table(
                ["family", "die id", "decision", "stat", "seq",
                 "algorithm", "key id"],
                rows,
                title=f"receipts ({args.receipts})",
            )
        )
        return 0

    # verify — entirely offline: keys and chains come from the given
    # snapshot/artifact files, never from the issuing service.
    keys = {}
    params_hashes = None
    audit_entries = None
    timeline = None
    if args.registry:
        from dataclasses import asdict

        from .engine.cache import calibration_to_dict
        from .receipts import params_hash
        from .service import RegistryError, WatermarkRegistry

        try:
            with WatermarkRegistry(
                args.registry, create=False
            ) as registry:
                params_hashes = {}
                for record in registry.families():
                    if record.verify_key is not None:
                        keys[record.family_id] = (
                            record.verify_algorithm,
                            record.verify_key,
                        )
                    params_hashes[record.family_id] = params_hash(
                        record.family_id,
                        record.model,
                        calibration_to_dict(record.calibration),
                        asdict(record.format),
                    )
                audit_entries = registry.audit_entries()
        except RegistryError as exc:
            return _fail("receipt", exc)
    if args.fleet_audit:
        try:
            with open(args.fleet_audit, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _fail("receipt", exc)
        timeline = doc.get("timeline") or []
    if args.key:
        try:
            fallback = (args.algorithm, bytes.fromhex(args.key))
        except ValueError as exc:
            return _fail("receipt", exc)
        for r in receipts:
            family = r.get("family") if isinstance(r, dict) else None
            if family and family not in keys:
                keys[family] = fallback
    if not keys:
        return _fail(
            "receipt",
            ValueError(
                "verify needs keys: --registry with published verify "
                "keys, and/or an explicit --key"
            ),
        )

    from .receipts import verify_receipts_offline

    report = verify_receipts_offline(
        receipts,
        keys=keys,
        audit_entries=audit_entries,
        params_hashes=params_hashes,
    )
    anchor_failures = []
    if timeline is not None:
        from .fleet import check_fleet_anchors

        block = check_fleet_anchors(receipts, timeline)
        report["fleet_anchor"] = block
        report["anchored"] = True
        anchor_failures = block["failures"]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"receipt-check report -> {args.report}")
    print(
        f"receipts: {report['ok']}/{report['checked']} verified "
        f"({'anchored' if report['anchored'] else 'signature only'})"
    )
    for failure in report["failures"]:
        print(
            f"  FAIL #{failure['index']} {failure['die_id'] or '?'}: "
            f"{failure['error']}",
            file=sys.stderr,
        )
    for failure in anchor_failures:
        print(
            f"  FAIL #{failure['index']} {failure['die_id'] or '?'}: "
            f"{'; '.join(failure['errors'])}",
            file=sys.stderr,
        )
    if report["failures"] or anchor_failures:
        print(
            f"CHECK FAILED: "
            f"{len(report['failures']) + len(anchor_failures)} "
            "receipt(s) failed verification",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_pow(args) -> int:
    from .receipts import mint_ticket

    body = {}
    if args.body:
        try:
            with open(args.body, encoding="utf-8") as fh:
                body = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _fail("pow", exc)
        if not isinstance(body, dict):
            return _fail(
                "pow", ValueError("body must be a JSON object")
            )
    if args.difficulty < 0:
        return _fail("pow", ValueError("--difficulty must be >= 0"))
    ticket = mint_ticket(args.client, body, args.difficulty)
    print(json.dumps(ticket, sort_keys=True))
    return 0


def _print_topology(topo: dict) -> None:
    print(
        f"fleet topology: {topo.get('routable', 0)}/"
        f"{topo.get('n_shards', 0)} shard(s) routable, "
        f"{topo.get('evicted', 0)} evicted "
        f"(ring x{topo.get('ring_replicas', '?')})"
    )
    for shard in topo.get("shards", []):
        flags = []
        if not shard.get("routable"):
            flags.append("UNROUTABLE")
        if shard.get("evicted"):
            flags.append("evicted")
        print(
            f"  {shard.get('shard_id', '?'):<10s} "
            f"{shard.get('endpoint') or '-':<22s} "
            f"state={shard.get('state', '?'):<5s} "
            f"evictions={shard.get('evictions', 0)} "
            f"readmissions={shard.get('readmissions', 0)}"
            + (f"  [{' '.join(flags)}]" if flags else "")
        )


def _cmd_fleet(args) -> int:
    import asyncio

    if args.action == "topology":
        from .service import ServiceError, VerificationClient, protocol

        if not args.endpoint:
            return _fail(
                "fleet", ValueError("topology requires --endpoint")
            )

        async def _query() -> dict:
            client = await VerificationClient.connect(args.endpoint)
            try:
                return await client.call(
                    {
                        "v": protocol.WIRE_SCHEMA,
                        "id": 1,
                        "op": "topology",
                    }
                )
            finally:
                await client.close()

        try:
            topo = asyncio.run(_query())
        except (ConnectionError, OSError, ServiceError, ValueError) as exc:
            return _fail("fleet", exc)
        _print_topology(topo)
        return 0

    if args.action == "soak":
        import tempfile
        from pathlib import Path

        from .fleet import fleet_coverage_plan, run_fleet_soak
        from .service import WatermarkRegistry
        from .workloads.traffic import TrafficGenerator

        if args.requests < 1:
            return _fail("fleet", ValueError("--requests must be >= 1"))
        traffic = TrafficGenerator(seed=args.seed)
        pop = traffic.spec.population
        plan = fleet_coverage_plan(args.seed) if args.chaos else None
        mode = "chaos" if args.chaos else "parity"
        print(
            f"fleet {mode} soak: {args.shards} shard(s), "
            f"{args.requests} request(s), seed {args.seed}"
            + (f", {len(plan)} scheduled fault(s)" if plan else "")
        )
        print("calibrating the soak family ...")
        calibration = calibrate_family(
            McuFactory(n_segments=1),
            pop.n_pe,
            n_replicas=pop.format.n_replicas,
            n_chips=1,
            seed=77,
        ).calibration
        family = "fleet-family"
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
            with WatermarkRegistry(Path(tmp) / "registry.db") as registry:
                registry.publish_family(family, calibration, pop.format)
                report = run_fleet_soak(
                    registry,
                    family,
                    traffic.draw(args.requests),
                    n_shards=args.shards,
                    plan=plan,
                    baseline=not args.no_baseline,
                    concurrency=args.concurrency,
                    workers=args.workers,
                    telemetry=Telemetry(),
                    deadline_s=args.deadline,
                    request_timeout_s=args.timeout,
                )
        print(
            f"fleet answered {report.answered}/{report.requests} "
            f"({report.completed} OK, "
            f"{sum(report.errors.values())} typed error(s), "
            f"{report.drops} drop(s)) in {report.wall_s:.1f}s"
        )
        if report.baseline_verdicts:
            print(
                f"parity baseline: {len(report.baseline_verdicts)} "
                "direct verdict(s) compared"
            )
        for code, count in sorted(report.errors.items()):
            print(f"  {count} response(s) with error code {code}")
        if report.injected:
            print(f"injected {len(report.injected)} fault(s):")
            for point, kind, at in report.injected:
                print(f"  {point} {kind} @ occurrence {at}")
        for label, passed in report.invariants().items():
            print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        if args.audit_out:
            from .fleet import write_fleet_audit

            write_fleet_audit(report.fleet_audit, args.audit_out)
            print(f"fleet audit -> {args.audit_out}")
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"soak report -> {args.report}")
        print(f"fleet soak: {'OK' if report.passed else 'FAILED'}")
        return 0 if report.passed else 1

    # up
    import signal
    import tempfile

    from .fleet import (
        FleetError,
        FleetRouter,
        ProcessShardManager,
        RouterConfig,
        reconcile_fleet,
        write_fleet_audit,
    )
    from .service import RegistryError, WatermarkRegistry

    if not args.registry:
        return _fail("fleet", ValueError("up requires --registry"))
    if args.shards < 1:
        return _fail("fleet", ValueError("--shards must be >= 1"))
    try:
        registry = WatermarkRegistry(args.registry, create=False)
    except RegistryError as exc:
        return _fail("fleet", exc)
    if not registry.families():
        registry.close()
        return _fail(
            "fleet",
            RegistryError(
                "registry has no published families; run "
                "'repro registry publish' first"
            ),
        )

    receipt_key = (
        bytes.fromhex(args.receipt_key) if args.receipt_key else None
    )

    async def _up(workdir: str) -> None:
        manager = ProcessShardManager(
            registry,
            args.shards,
            workdir,
            host=args.host,
            workers=args.workers,
            receipt_key=receipt_key,
            pow_difficulty=args.pow_difficulty,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        print(
            f"starting {args.shards} shard process(es) under "
            f"{workdir} ..."
        )
        with manager:
            router = FleetRouter(
                manager,
                config=RouterConfig(host=args.host, port=args.port),
                telemetry=Telemetry(),
            )
            async with router:
                print(f"fleet router on {router.endpoint}")
                _print_topology(router.topology())
                scrape_task = None
                if args.obs:
                    from .obs import (
                        MetricsScraper,
                        TimeSeriesStore,
                        fleet_targets,
                    )

                    scraper = MetricsScraper(
                        fleet_targets(shards=manager, router=router),
                        TimeSeriesStore(args.obs),
                        interval_s=args.obs_interval,
                    )
                    scrape_task = loop.create_task(
                        scraper.run(stop_event=stop)
                    )
                    print(
                        f"scraping {len(scraper.targets)} target(s) "
                        f"every {args.obs_interval:g}s -> {args.obs}"
                    )
                sys.stdout.flush()
                try:
                    await stop.wait()  # until SIGINT/SIGTERM
                finally:
                    if scrape_task is not None:
                        stop.set()  # also reached on exceptions
                        summary = await scrape_task
                        print(
                            f"obs: {summary['rounds']} scrape "
                            f"round(s), {summary['errors']} "
                            f"error(s) -> {args.obs}"
                        )
                    paths = {
                        info.shard_id: info.registry_path
                        for info in manager.infos()
                    }
        # Shards are down; their registries are free to reconcile.
        if args.audit_out:
            audit = reconcile_fleet(paths, timeline_limit=200)
            write_fleet_audit(audit, args.audit_out)
            print(
                f"fleet audit ({audit['fleet_digest'][:16]}...) -> "
                f"{args.audit_out}"
            )

    try:
        if args.dir:
            asyncio.run(_up(args.dir))
        else:
            with tempfile.TemporaryDirectory(
                prefix="repro-fleet-"
            ) as tmp:
                asyncio.run(_up(tmp))
    except KeyboardInterrupt:
        print("interrupted; fleet stopped")
    except FleetError as exc:
        return _fail("fleet", exc)
    finally:
        registry.close()
    return 0


def _cmd_obs(args) -> int:
    from .obs import ProfileData, TimeSeriesStore

    def _load_profile(path):
        with open(path, "r", encoding="utf-8") as fh:
            return ProfileData.from_dict(json.load(fh))

    if args.action == "record":
        import asyncio

        from .obs import MetricsScraper, ScrapeTarget

        if not args.store:
            return _fail("obs", ValueError("record requires --store"))
        if not args.target:
            return _fail(
                "obs",
                ValueError("record requires at least one --target"),
            )
        targets = []
        for spec in args.target:
            name, sep, endpoint = spec.partition("=")
            if not sep:
                name, endpoint = spec, spec
            try:
                targets.append(ScrapeTarget.from_any(name, endpoint))
            except (ValueError, KeyError) as exc:
                return _fail("obs", exc)
        rounds = args.rounds
        if rounds is None and args.duration is None:
            rounds = 1
        with TimeSeriesStore(args.store) as store:
            scraper = MetricsScraper(
                targets, store, interval_s=args.interval
            )
            try:
                summary = asyncio.run(
                    scraper.run(
                        rounds=rounds, duration_s=args.duration
                    )
                )
            except KeyboardInterrupt:
                summary = {
                    "rounds": scraper.rounds,
                    "errors": scraper.errors,
                }
                print("interrupted; store is consistent")
            print(
                f"recorded {summary['rounds']} round(s) from "
                f"{len(targets)} target(s), "
                f"{summary['errors']} scrape error(s)"
            )
            if args.compact:
                result = store.compact(
                    retention_windows=args.retention_windows
                )
                print(
                    f"compacted {result['compacted']} segment(s), "
                    f"dropped {result['dropped']}"
                )
            stats = store.stats()
        print(
            f"store {args.store}: {stats['n_metrics']} metric(s), "
            f"{stats['n_samples']} sample(s)"
        )
        return 0

    if args.action == "query":
        if not args.store:
            return _fail("obs", ValueError("query requires --store"))
        try:
            store = TimeSeriesStore(args.store)
        except (OSError, ValueError) as exc:
            return _fail("obs", exc)
        with store:
            if not args.metric:
                for metric in store.metrics():
                    print(metric)
                return 0
            if args.exemplars:
                entries = store.exemplars(
                    args.metric, args.start, args.end
                )[: args.limit]
                for entry in entries:
                    ex = entry["exemplar"]
                    ex_labels = ex.get("labels") or {}
                    tags = " ".join(
                        f"{k}={v}" for k, v in sorted(ex_labels.items())
                    )
                    print(
                        f"{ex.get('value')} target="
                        f"{entry['labels'].get('target', '-')} {tags}"
                    )
                if not entries:
                    print("(no exemplars in range)")
                return 0
            if args.by is not None:
                by = tuple(
                    part for part in args.by.split(",") if part
                )
                out = store.rollup(
                    args.metric,
                    args.start,
                    args.end,
                    by=by,
                    agg=args.agg,
                    rate=args.rate,
                )
                unit = "/s" if args.rate else ""
                for group in sorted(out):
                    label = (
                        ",".join(group) if group else f"{args.agg}()"
                    )
                    print(f"{label}\t{out[group]:g}{unit}")
                if not out:
                    print("(no series in range)")
                return 0
            if args.rate:
                rates = store.rate(args.metric, args.start, args.end)
                for key in sorted(rates):
                    tags = ",".join(f"{k}={v}" for k, v in key)
                    print(f"{{{tags}}}\t{rates[key]:g}/s")
                if not rates:
                    print("(no series in range)")
                return 0
            latest = store.query_instant(args.metric, args.end)
            for key in sorted(latest):
                point = latest[key]
                tags = ",".join(f"{k}={v}" for k, v in key)
                print(f"{{{tags}}}\t{point.value:g}\t@{point.t:.3f}")
            if not latest:
                print("(no series in range)")
        return 0

    if args.action == "top":
        if not args.profile:
            return _fail("obs", ValueError("top requires --profile"))
        try:
            profile = _load_profile(args.profile)
        except (OSError, ValueError, KeyError) as exc:
            return _fail("obs", exc)
        print(
            f"{profile.n_samples} sample(s) at {profile.hz:g} Hz over "
            f"{profile.duration_s:.1f}s"
        )
        rows = [
            [
                row["frame"],
                str(row["self"]),
                str(row["cum"]),
                f"{100.0 * row['self_frac']:.1f}%",
            ]
            for row in profile.top(args.limit)
        ]
        print(
            format_table(["frame", "self", "cum", "self %"], rows)
        )
        if args.flame:
            with open(args.flame, "w", encoding="utf-8") as fh:
                fh.write(profile.to_collapsed())
            print(f"collapsed stacks -> {args.flame}")
        if args.chrome:
            from .trace.export import dump_chrome_trace

            dump_chrome_trace([profile.to_trace_doc()], args.chrome)
            print(f"chrome trace -> {args.chrome}")
        return 0

    # report
    from .obs import build_obs_report, write_obs_report

    if not args.store:
        return _fail("obs", ValueError("report requires --store"))
    profile = None
    if args.profile:
        try:
            profile = _load_profile(args.profile)
        except (OSError, ValueError, KeyError) as exc:
            return _fail("obs", exc)
    alerts = None
    if args.alerts_log:
        from .monitor import read_alert_records

        try:
            alerts = read_alert_records(args.alerts_log)
        except (OSError, ValueError) as exc:
            return _fail("obs", exc)
    try:
        store = TimeSeriesStore(args.store)
    except (OSError, ValueError) as exc:
        return _fail("obs", exc)
    with store:
        markdown = build_obs_report(
            store,
            profile=profile,
            alerts=alerts,
            start=args.start,
            end=args.end,
            top_n=args.limit,
        )
    if args.out:
        write_obs_report(
            args.out, markdown, title="Fleet observability report"
        )
        print(f"fleet dossier -> {args.out}")
    else:
        print(markdown, end="")
    return 0


_COMMANDS = {
    "make": _cmd_make,
    "imprint": _cmd_imprint,
    "produce": _cmd_produce,
    "calibrate": _cmd_calibrate,
    "wipe": _cmd_wipe,
    "verify": _cmd_verify,
    "characterize": _cmd_characterize,
    "info": _cmd_info,
    "age": _cmd_age,
    "detect": _cmd_detect,
    "estimate-wear": _cmd_estimate_wear,
    "temp": _cmd_temp,
    "telemetry": _cmd_telemetry,
    "registry": _cmd_registry,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "loadgen": _cmd_loadgen,
    "monitor": _cmd_monitor,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "receipt": _cmd_receipt,
    "pow": _cmd_pow,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
