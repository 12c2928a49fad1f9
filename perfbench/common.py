"""Shared arithmetic, process metering and provenance for the benchmark.

Everything here is program-agnostic: percentiles with the
ten-samples-beyond rule, open-loop latency from due time, a process-tree
meter built on ``wait4`` (CPU and peak RSS of a child *and* every
descendant it waited for, so pool workers count), and the fingerprint
stamped on every result set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for run artifacts; listed in the root ``.gitignore``.
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the run has too few samples to speak for it.
MIN_TAIL_SAMPLES = 10


def program_env() -> dict[str, str]:
    """Environment for a child that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics -----------------------------------------------------------------


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def lower_quartile(values: list[float]) -> float:
    """First quartile of ``values`` (inclusive method: never below the
    smallest sample).

    For many short passes of the same work: a burst from another tenant
    of a shared host only ever adds time, and one that covers half a run
    moves its median, while the faster quarter of the passes still
    estimates the program's own cost.
    """
    if not values:
        raise ValueError("quartile of no samples")
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[0])


def percentile(values: list[float], q: float) -> float | None:
    """The ``q``-th percentile (nearest rank), or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if not 0 < q < 100:
        raise ValueError("q must be in (0, 100)")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)  # 1-based nearest rank
    if rank < 1 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return float(sorted(values)[rank - 1])


def tail(values: list[float], quantiles=(99.9, 99, 95, 90, 50)) -> tuple[float, float]:
    """The highest of ``quantiles`` that has enough samples beyond it, as
    ``(q, value)``."""
    for q in quantiles:
        value = percentile(values, q)
        if value is not None:
            return q, value
    raise ValueError(f"{len(values)} samples carry no percentile")


def due_time_latencies(
    due: list[float], done: list[float]
) -> list[float]:
    """Open-loop latency of each request, timed from when it was *due*.

    A stall delays the send of every request queued behind it; timing
    from the actual send would hide that wait, timing from the due time
    charges it to each request it delayed.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


def generator_lateness(
    due: list[float], ready: list[float], sent: list[float]
) -> list[float]:
    """How late the generator itself sent each request.

    A request can go out at ``max(due, ready)`` — ``ready`` being when a
    connection became free for it. Anything past that is the generator's
    own delay (scheduling, GC), not the server's.
    """
    return [s - max(d, r) for d, r, s in zip(due, ready, sent)]


# -- process metering -------------------------------------------------------------


@dataclass
class Metered:
    """Outcome of one metered child process tree."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _rusage_of(status: int, usage, start: float) -> Metered:
    return Metered(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=time.perf_counter() - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # Linux reports ru_maxrss in KiB. For a reaped child it is the
        # largest peak of the child and every descendant it waited for.
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def process_cpu_s(pid: int) -> float:
    """User plus sys time so far of a running process, all its threads
    included (``/proc/PID/stat``; clock-tick resolution)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name: utime and stime are
    # the 12th and 13th of them.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_metered(
    proc: subprocess.Popen, start: float, timeout_s: float, group: bool = False
) -> Metered:
    """Reap ``proc`` with ``wait4`` and return its tree's usage.

    Kills the child if it outlives ``timeout_s``; with ``group`` (the
    child leads its own session) every process it started goes too.
    """
    timer = threading.Timer(timeout_s, _kill_group if group else (lambda _pid: proc.kill()), (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if group:
        # Orphans of a killed or crashed child: stop them and wait until
        # the group is empty.
        _kill_group(proc.pid)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return _rusage_of(status, usage, start)


def run_metered(
    cmd: list[str],
    *,
    stdout_path: Path | None = None,
    timeout_s: float = 170.0,
    env: dict[str, str] | None = None,
) -> Metered:
    """Run ``cmd`` to completion in its own session and meter its whole
    process tree."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT if stdout_path else subprocess.DEVNULL,
            env=env or program_env(), start_new_session=True,
        )
        return wait_metered(proc, start, timeout_s, group=True)
    finally:
        if stdout_path:
            out.close()


# -- provenance ---------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _files_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path + bytes), sorted.

    Identifies the program version even where the checkout is not a git
    repository.
    """
    return _files_digest(SRC.rglob("*.py"))


def bench_digest() -> str:
    """SHA-256 over the benchmark's own code and ``BENCHMARK.json``: a
    change to how a metric is computed changes the fingerprint too."""
    here = Path(__file__).resolve().parent
    return _files_digest([*here.rglob("*.py"), ROOT / "BENCHMARK.json"])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, params: dict) -> dict:
    """Fingerprint of one result set; sets with different fingerprints
    are never compared."""
    import numpy

    # Only trust git when the checkout itself is the repository root; a
    # checkout nested inside some other work tree must not borrow its sha.
    top = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    dirty = None
    if sha is not None:
        dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json"))
    stamp = {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "bench_sha256": bench_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "params": params,
    }
    stamp["fingerprint"] = hashlib.sha256(
        json.dumps(
            {k: stamp[k] for k in ("source_sha256", "bench_sha256", "cpu_model", "nproc", "python", "numpy", "workload", "params")},
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    return stamp


def python() -> str:
    return sys.executable or "python3"
