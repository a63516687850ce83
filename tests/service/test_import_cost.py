"""The serving path never imports scipy.

A ``repro serve`` process or fleet shard decodes verify frames and runs
ExtractFlashmark through the engine; none of that needs a statistics
library.  scipy is imported only inside the functions that compute with
it (correlated-wear die manufacture and the offline screening and
analysis helpers), so the import of the server stack and a full verify
stay free of it.  This test runs that path in a fresh interpreter and
fails if any module pulls scipy back in at import time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import WatermarkVerifier
from repro.engine import verify_population
from repro.service import protocol
from repro.workloads.traffic import TrafficGenerator

from tests.service.conftest import FAMILY

SRC = Path(__file__).resolve().parents[2] / "src"

SERVING_PATH = """
import json, sys

import repro
import repro.cli
import repro.fleet.router
import repro.service.server
from repro import WatermarkVerifier
from repro.engine import verify_population
from repro.service import WatermarkRegistry, protocol

registry_path, frame_path, family = sys.argv[1:4]
with open(frame_path, "rb") as fh:
    req = protocol.decode_frame(fh.read())
chip = protocol.chip_from_b64(req["chip_b64"])
registry = WatermarkRegistry(registry_path, create=False)
record = registry.get_family(family)
registry.close()
verifier = WatermarkVerifier(record.calibration, record.format)
result = verify_population([chip], verifier)
print(json.dumps({
    "verdicts": result.verdicts,
    "scipy": sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
    ),
}))
"""


def test_serving_path_never_imports_scipy(registry, traffic_spec, tmp_path):
    item = TrafficGenerator(traffic_spec, seed=16).draw(1)[0]
    frame = tmp_path / "verify.ndjson"
    frame.write_bytes(
        protocol.encode_frame(protocol.verify_request(item.chip, FAMILY))
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SERVING_PATH,
         str(registry.path), str(frame), FAMILY],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    record = registry.get_family(FAMILY)
    direct = verify_population(
        [item.chip], WatermarkVerifier(record.calibration, record.format)
    )
    assert out["verdicts"] == direct.verdicts
    assert out["scipy"] == []
