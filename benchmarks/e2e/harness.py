"""Process, wire and /proc plumbing shared by the end-to-end workloads.

Everything here talks to the program from outside: servers are started
as ``python -m repro serve`` / ``python -m repro fleet up`` processes,
requests travel as ``flashmark.wire/v1`` lines over TCP, stage timings
come from each process's ``/metrics`` text and memory/CPU from
``/proc``.  Nothing in this module imports :mod:`repro`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import platform
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored).
WORK = ROOT / ".bench_build" / "e2e"

LAUNCH_TIMEOUT_S = 60.0
RESPONSE_TIMEOUT_S = 60.0

_ROUTER_LINE = re.compile(r"fleet router on (\S+):(\d+)")


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted values."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: Consecutive slices a run's latencies are cut into (about a second
#: each at the default run length) for :func:`windowed_percentile`.
WINDOWS = 6


def windowed_percentile(values: Sequence[float], q: float) -> float:
    """Median over ``WINDOWS`` consecutive equal slices of ``values``
    (in time order) of each slice's nearest-rank percentile.

    The shared host has contended spells about a second long; one lifts
    a whole run's tail percentile, but only one slice's here.
    """
    n = len(values)
    if n < WINDOWS:
        return percentile(values, q)
    return median(
        percentile(values[k * n // WINDOWS : (k + 1) * n // WINDOWS], q)
        for k in range(WINDOWS)
    )


# -- host ---------------------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_shape() -> dict:
    """The facts two result documents must share to be comparable."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- /proc --------------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process [MB]."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has used [s]."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state); utime/stime are fields 14/15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


# -- /metrics -----------------------------------------------------------------


def scrape(port: int) -> Dict[str, float]:
    """Unlabelled samples of one process's Prometheus ``/metrics``."""
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=10) as resp:
        text = resp.read().decode("utf-8")
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            out[name] = float(value.split()[0])
        except (ValueError, IndexError):
            continue
    return out


def histogram_mean(
    samples: Sequence[Dict[str, float]], name: str, scale: float = 1.0
) -> float:
    """Mean of a histogram summed over several scraped processes."""
    total = sum(s.get(f"flashmark_{name}_sum", 0.0) for s in samples)
    count = sum(s.get(f"flashmark_{name}_count", 0.0) for s in samples)
    return total / count * scale if count else math.nan


# -- launching the program ----------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) if not existing else str(SRC) + os.pathsep + existing
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def wire_call(port: int, op: str) -> dict:
    """One synchronous query on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        request = {"v": "flashmark.wire/v1", "id": 0, "op": op}
        sock.sendall(json.dumps(request).encode() + b"\n")
        return json.loads(sock.makefile("rb").readline())


def ping(port: int, deadline: float) -> None:
    """Block until the endpoint answers a ``ping`` frame."""
    while True:
        try:
            if wire_call(port, "ping").get("ok"):
                return
        except (OSError, ValueError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"no pong from port {port}")
        time.sleep(0.01)


class Launched:
    """A program process tree started by the bench (server or fleet)."""

    def __init__(self, proc: subprocess.Popen, log: Path):
        self.proc = proc
        self.log = log
        self.port: Optional[int] = None
        #: Shard ``(pid, port)`` pairs behind a fleet router.
        self.shards: List[tuple] = []

    def _fail(self, why: str) -> RuntimeError:
        tail = self.log.read_text(errors="replace")[-2000:]
        return RuntimeError(f"{why}; log tail:\n{tail}")

    def wait_port(self, find, deadline: float) -> None:
        """Wait for the port and the first pong; on any way out but
        success (an interrupt included) the tree is closed."""
        try:
            self._wait_port(find, deadline)
        except BaseException:
            self.close()
            raise

    def _wait_port(self, find, deadline: float) -> None:
        while self.port is None:
            if self.proc.poll() is not None:
                raise self._fail(f"exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise self._fail("never reported its port")
            self.port = find()
            if self.port is None:
                time.sleep(0.01)
        try:
            ping(self.port, deadline)
        except RuntimeError as exc:
            raise self._fail(str(exc)) from None

    def pids(self) -> List[int]:
        return [self.proc.pid] + [pid for pid, _ in self.shards]

    def server_pids(self) -> List[int]:
        """Pids of the verification servers (the shards of a fleet)."""
        return [pid for pid, _ in self.shards] or [self.proc.pid]

    def server_ports(self) -> List[int]:
        return [port for _, port in self.shards] or [self.port]

    def close(self) -> None:
        """SIGTERM the tree and wait for every process in it to end.

        Safe to call twice.  The tree is its own process group, so fleet
        shards are found and stopped even when the router died before
        it could stop them, or before the bench learned their pids.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        _end_group(self.proc.pid)


def _end_group(pgid: int) -> None:
    """SIGTERM what is left of a process group, SIGKILL it after a grace
    period, and wait until none of it remains."""
    deadline = time.monotonic() + 10
    sig = signal.SIGTERM
    while True:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline + 5:
            raise RuntimeError(f"process group {pgid} outlived SIGKILL")
        sig = signal.SIGKILL if time.monotonic() > deadline else 0
        time.sleep(0.02)


def _spawn(args: List[str], log: Path) -> subprocess.Popen:
    with open(log, "w", encoding="utf-8") as fh:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=fh,
            stderr=subprocess.STDOUT,
            env=_child_env(),
            cwd=ROOT,
            start_new_session=True,
        )


def launch_server(
    workdir: Path, registry: Path, receipt_key: Optional[str] = None
) -> Launched:
    """``repro serve`` with shipped defaults (+ ``--receipt-key``)."""
    port_file = workdir / "serve.port"
    args = [
        "serve",
        "--registry", str(registry),
        "--port", "0",
        "--port-file", str(port_file),
    ]
    if receipt_key is not None:
        args += ["--receipt-key", receipt_key]
    launched = Launched(_spawn(args, workdir / "serve.log"), workdir / "serve.log")

    def find() -> Optional[int]:
        try:
            text = port_file.read_text().strip()
        except FileNotFoundError:
            return None
        return int(text) if text else None

    launched.wait_port(find, time.monotonic() + LAUNCH_TIMEOUT_S)
    return launched


def launch_fleet(workdir: Path, registry: Path, shards: int = 2) -> Launched:
    """``repro fleet up`` with shipped defaults; the router port comes
    from its ``fleet router on host:port`` line."""
    log = workdir / "fleet.log"
    launched = Launched(
        _spawn(
            [
                "fleet", "up",
                "--registry", str(registry),
                "--shards", str(shards),
                "--dir", str(workdir / "shards"),
            ],
            log,
        ),
        log,
    )

    def find() -> Optional[int]:
        match = _ROUTER_LINE.search(log.read_text(errors="replace"))
        return int(match.group(2)) if match else None

    launched.wait_port(find, time.monotonic() + LAUNCH_TIMEOUT_S)
    try:
        launched.shards = [
            (int(s["pid"]), int(s["endpoint"].rsplit(":", 1)[1]))
            for s in wire_call(launched.port, "topology")["result"]["shards"]
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        launched.close()
        raise launched._fail(f"no usable topology: {exc!r}") from None
    except BaseException:
        launched.close()
        raise
    return launched


# -- pipelined client ---------------------------------------------------------


class Connection:
    """One TCP connection with requests pipelined and matched by ``id``."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._waiting: Dict[object, asyncio.Future] = {}
        self._drain_lock = asyncio.Lock()
        self._pump = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22
        )
        return cls(reader, writer)

    async def send(self, request_id, frame: bytes) -> asyncio.Future:
        """Write one frame; the future resolves to ``(response, t_recv)``."""
        fut = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = fut
        self._writer.write(frame)
        async with self._drain_lock:
            await self._writer.drain()
        return fut

    async def call(self, request_id, frame: bytes):
        fut = await self.send(request_id, frame)
        return await asyncio.wait_for(fut, RESPONSE_TIMEOUT_S)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                t_recv = time.perf_counter()
                response = json.loads(line)
                fut = self._waiting.pop(response.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((response, t_recv))
        finally:
            dropped = ConnectionError("connection closed by the server")
            for fut in self._waiting.values():
                if not fut.done():
                    fut.set_exception(dropped)
            self._waiting.clear()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._pump.cancel()
        try:
            await self._pump
        except asyncio.CancelledError:
            pass
