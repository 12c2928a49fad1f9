"""The benchmark's three workloads, each run as its own process by run.py.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 --out FILE

Writes one JSON object to ``FILE``: the metrics, the attempted and
failed operation counts, and the per-workload samples behind them.

* ``all-small`` — ``repro-experiments all --preset small --jobs 2``, the
  whole reproduction over the process pool with the in-memory day
  cache, on three worlds. An operation is one experiment.
* ``serve-mixed`` — ``repro-serve --preset small --jobs 1`` on a copied,
  pre-filled disk tier, driven by open-loop segments (fixed rate, timed
  from each request's due time), each followed by a closed pass over
  warm keys. An operation is one request.
* ``topo-10k`` — one observation day on a 10k-AS internet-scale topology
  with blocked visibility, from the IXP vantage. An operation is one
  vantage-day.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import fmean

import common
from common import Metered, lower_quartile, median, percentile, python, run_metered

HERE = Path(__file__).resolve().parent


# -- shared -------------------------------------------------------------------------


def reference_check(kind: str, seed: int, params: dict, value) -> bool:
    """Whether ``value`` equals what earlier runs of this program version
    recorded for the same seed and params (the first run records it)."""
    key = hashlib.sha256(
        json.dumps([common.source_digest(), kind, seed, params], sort_keys=True).encode()
    ).hexdigest()[:24]
    path = common.WORK / "reference" / f"{kind}-{key}.json"
    if path.exists():
        return json.loads(path.read_text()) == value
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value))
    return True


def trace_dir(name: str) -> Path:
    path = common.WORK / "spans" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def traced_layers(spans: Path) -> dict[str, float]:
    import tracer

    merged = tracer.merge(tracer.load(spans))
    metrics = tracer.layer_metrics(merged)
    metrics["trace.processes"] = float(len(merged["pids"]))
    # Values only some workloads can see (program counters read for the
    # cross-check, the load generator's view); zero where bypassed.
    for name in ("synth.flows_program", "transport.bytes_program",
                 "transport.busy_frac_program", "serve.dedup_frac",
                 "serve.dedup_frac_program", "serve.tier_mem_frac_program",
                 "serve.tier_disk_frac_program", "serve.tier_compute_frac_program",
                 "serve.first_byte_ms"):
        metrics[name] = 0.0
    return metrics


# -- all-small -------------------------------------------------------------------------

ALL_SMALL = {"preset": "small", "jobs": 2, "experiments": "all", "worlds": 3}
#: Fig 4 series whose reflector-side drop the paper calls significant.
REFLECTOR_SERIES = ("memcached_to@ixp", "memcached_to@tier2", "ntp_to@tier2", "dns_to@tier2")


def _fig_checks(stdout: str) -> dict[str, bool]:
    """Fig 4 reflector-side wt30/wt40 significant; Fig 5 victim-side null."""
    fig4, fig5 = {}, {}
    section = None
    for line in stdout.splitlines():
        if line.startswith("=== "):
            section = line.split(":", 1)[0][4:]
            continue
        cells = line.split()
        if section == "fig4" and len(cells) == 5 and cells[0] in REFLECTOR_SERIES:
            fig4[cells[0]] = cells[1] == "True" and cells[3] == "True"
        if section == "fig5" and line.startswith(("wt30 significant", "wt40 significant")):
            fig5[cells[0]] = cells[2] == "False" and cells[-1] == "False"
    return {
        "fig4_reflector_drop_significant": len(fig4) == len(REFLECTOR_SERIES) and all(fig4.values()),
        "fig5_victim_null": fig5.get("wt30") is True and fig5.get("wt40") is True,
    }


def _runner_cmd(seed: int, ledger: Path) -> list[str]:
    return [
        "-m", "repro.experiments.runner", ALL_SMALL["experiments"],
        "--preset", ALL_SMALL["preset"], "--jobs", str(ALL_SMALL["jobs"]),
        "--seed", str(seed), "--ledger", str(ledger), "--log-level", "warning",
    ]


def _all_small_round(seed: int, work: Path, prefix: list[str], extra: list[str]) -> dict:
    ledger = work / "ledger.jsonl"
    ledger.unlink(missing_ok=True)
    out = work / "stdout.txt"
    metered = run_metered([python(), *prefix, *_runner_cmd(seed, ledger), *extra], stdout_path=out)
    stdout = out.read_text(errors="replace")
    record = json.loads(ledger.read_text().splitlines()[-1]) if ledger.exists() else {}
    return {"metered": metered, "stdout": stdout, "record": record}


def world_seeds(seed: int, n: int) -> list[int]:
    """``seed`` itself plus ``n - 1`` scenario seeds derived from it."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1, 2**31) for _ in range(n - 1)]


def all_small(seed: int, seconds: float, trace: bool) -> dict:
    work = common.WORK / "all-small"
    work.mkdir(parents=True, exist_ok=True)
    # Set-up: interpreter start plus the runner's imports.
    setup = [
        run_metered([python(), "-c", "import repro.experiments.runner"]).wall_s
        for _ in range(3)
    ]
    # Cost varies from one random world to the next; each run measures
    # several worlds so its medians vary less with the seed.
    worlds = world_seeds(seed, ALL_SMALL["worlds"])
    rounds: list[dict] = []
    start = time.perf_counter()
    while len(rounds) < len(worlds) or (not trace and time.perf_counter() - start < seconds):
        world = worlds[len(rounds) % len(worlds)]
        rounds.append(_all_small_round(world, work, [], []) | {"world": world})
        if trace:
            break  # one untraced reference round, on the run's own seed
    traced = None
    if trace:
        spans = trace_dir("all-small")
        metrics_out = work / "metrics.json"
        traced = _all_small_round(
            seed, work, [str(HERE / "tracer.py"), str(spans)], ["--metrics-out", str(metrics_out)]
        ) | {"world": seed}
        traced["spans"] = spans
        traced["program"] = json.loads(metrics_out.read_text())["total"]["counters"]

    attempted = failed = 0
    digests: dict[int, set] = {}
    paper_calls = []
    for r in [*rounds, *([traced] if traced else [])]:
        experiments = r["record"].get("experiments", [])
        n = len(experiments) or 1
        attempted += n
        if r["metered"].returncode != 0 or not experiments:
            failed += n
            continue
        paper_calls.append({"world": r["world"], **_fig_checks(r["stdout"])})
        digests.setdefault(r["world"], set()).add(r["record"]["counter_digest"])
    for world, seen in digests.items():
        # The digest covers every experiment of the run.
        if len(seen) != 1 or not reference_check("all-small-digest", world, ALL_SMALL, sorted(seen)[0]):
            failed = attempted

    walls = [r["metered"].wall_s for r in rounds]
    result = {
        "attempted": attempted,
        "failed": failed,
        "params": ALL_SMALL,
        "samples": {
            "setup_s": setup,
            "wall_s": walls,
            "cpu_s": [r["metered"].cpu_s for r in rounds],
            "worlds": [r["world"] for r in rounds],
            "experiment_wall_s": [r["record"].get("experiment_wall_s") for r in rounds],
            "counter_digest": {w: sorted(d) for w, d in digests.items()},
            "paper_calls": paper_calls,
        },
        # The paper's calls are reported, not counted as failed
        # operations: the Fig 5 null does not hold in every random world
        # at the small preset (see CHANGES.md).
        "notes": [
            f"world {c['world']}: "
            + ", ".join(f"{name} {'held' if ok else 'NOT held'}" for name, ok in c.items() if name != "world")
            for c in paper_calls
        ],
        # Per world, averaged over the run's worlds: each world's cost is
        # fixed by its seed, so the mean is the cost of the run's whole
        # work divided by its worlds, not a noisy middle pick.
        "metrics": {
            "setup_s": median(setup),
            "wall_s": fmean(walls),
            "cpu_s": fmean([r["metered"].cpu_s for r in rounds]),
            "peak_rss_mb": fmean([r["metered"].peak_rss_mb for r in rounds]),
            "p50_ms": median(walls) * 1e3,
        },
    }
    if traced:
        layers = traced_layers(traced["spans"])
        program = traced["program"]
        layers["synth.flows_program"] = program.get("scenario.flows_synthesized", 0.0)
        layers["transport.bytes_program"] = program.get("shm.bytes", 0.0) + program.get("pool.pipe_bytes", 0.0)
        capacity = program.get("pool.capacity_s", 0.0)
        layers["transport.busy_frac_program"] = program.get("pool.busy_s", 0.0) / capacity if capacity else 0.0
        layers["trace.wall_s"] = traced["metered"].wall_s
        layers["trace.untraced_wall_s"] = walls[0]
        layers["trace.overhead_frac"] = traced["metered"].wall_s / walls[0] - 1.0
        result["layers"] = layers
    return result


# -- topo-10k ----------------------------------------------------------------------------

#: The IXP view only: each vantage-day costs about 18 s of route trees
#: and matrix blocks, and a second would push the benchmark's runs past
#: their time budget on a slow spell of the shared host. ISP lookups run
#: on the dense matrix in all-small.
TOPO = {"n_asns": 10_000, "scale": 0.05, "vantages": ["ixp"], "builds": 3}


def _topo_round(seed: int, work: Path, vantages: list[str], builds: int, spans: Path | None) -> dict:
    out = work / "day.json"
    out.unlink(missing_ok=True)
    cmd = [python(), str(HERE / "topo_day.py"), "--seed", str(seed), "--builds", str(builds),
           "--vantages", ",".join(vantages)]
    if spans is not None:
        cmd += ["--trace-dir", str(spans)]
    metered = run_metered(cmd, stdout_path=out)
    lines = out.read_text(errors="replace").strip().splitlines()
    day = json.loads(lines[-1]) if metered.returncode == 0 and lines else None
    return {"metered": metered, "day": day}


def topo_10k(seed: int, seconds: float, trace: bool) -> dict:
    work = common.WORK / "topo-10k"
    work.mkdir(parents=True, exist_ok=True)
    vantages = TOPO["vantages"]
    rounds: list[dict] = []
    traced = None
    if trace:
        # Overhead reference: the IXP vantage-day untraced, then the full
        # day traced.
        rounds.append(_topo_round(seed, work, ["ixp"], 1, None))
        traced = _topo_round(seed, work, vantages, 1, trace_dir("topo-10k"))
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(_topo_round(seed, work, vantages, TOPO["builds"], None))

    attempted = failed = 0
    for r in [*rounds, *([traced] if traced else [])]:
        attempted += len(r["day"]["rows"]) if r["day"] else 1
        if r["day"] is None or not r["day"]["blocked"]:
            failed += 1
            continue
        for vantage, rows in r["day"]["rows"].items():
            ok = rows > 0 and reference_check(f"topo-10k-{vantage}", seed, TOPO, rows)
            failed += 0 if ok else 1

    done = [r for r in rounds if r["day"]]
    if not done:
        return {"attempted": attempted, "failed": failed, "params": TOPO, "metrics": {}}
    day_s = [r["day"]["day_s"] for r in done]
    setup = [s for r in done for s in r["day"]["setup_s"]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "params": TOPO,
        "samples": {
            "setup_s": setup,
            "day_s": day_s,
            "vantage_s": [r["day"]["vantage_s"] for r in done],
            "rows": [r["day"]["rows"] for r in done],
        },
        "metrics": {
            "setup_s": median(setup),
            "wall_s": median(day_s),
            "cpu_s": median([r["metered"].cpu_s for r in done]),
            "peak_rss_mb": median([r["metered"].peak_rss_mb for r in done]),
            "p50_ms": median(day_s) * 1e3,
        },
    }
    if traced and traced["day"]:
        layers = traced_layers(work.parent / "spans" / "topo-10k")
        program = traced["day"].get("program_counters", {})
        layers["synth.flows_program"] = program.get("scenario.flows_synthesized", 0.0)
        untraced_ixp = rounds[0]["day"]["vantage_s"]["ixp"]
        traced_ixp = traced["day"]["vantage_s"]["ixp"]
        layers["trace.wall_s"] = traced_ixp
        layers["trace.untraced_wall_s"] = untraced_ixp
        layers["trace.overhead_frac"] = traced_ixp / untraced_ixp - 1.0
        result["layers"] = layers
    return result


# -- serve-mixed -------------------------------------------------------------------------

SERVE = {
    "preset": "small",
    "jobs": 1,
    "connections": 2,
    "rate_rps": 100.0,
    "cold_share": 0.005,
    "warm_days": 22,
    "analysis_window": 10,
    # Request costs differ from one random world to the next by up to a
    # half; the medians over four worlds vary much less with the seed.
    "worlds": 4,
    # Each world's open loop runs in this many segments, each followed by
    # one closed pass, so a slow spell of the host touches few passes.
    "segments": 3,
    # One read of each day and victims key of the 22-day block at each
    # vantage (66 each), plus the series reads in their share.
    "closed_requests": 198,
    # No access log exists to take a traffic mix from: the three request
    # kinds get equal shares, and so do the two kinds of series read.
    "mix": {"day": 1, "series": 1, "victims": 1},
    "analysis_share": 0.5,
}
#: The run is invalid if, at the median or at the tail, the generator's
#: own lateness exceeds this share of the latency it reports there: a
#: stalled generator must not pass as server latency.
LATENESS_BOUND = 0.1
REQUEST_TIMEOUT_S = 30.0
#: Disk-tier fills kept for reuse by later runs of the same seed: the
#: worlds of ten runs (about 60 MB each).
PREP_CACHE_ENTRIES = 40
VANTAGES = ("ixp", "tier1", "tier2")
#: Vantages of the counted before/after analysis reads: Fig 4's. At tier1
#: some selector series are all but empty, their reduction ratio is NaN
#: and the server answers 500 (a known defect); each run sends one such
#: read outside the counted operations and prints its status.
ANALYSIS_VANTAGES = ("ixp", "tier2")


def _service(seed: int):
    from repro.experiments.base import ExperimentConfig
    from repro.serve.service import ObservatoryService

    return ObservatoryService(ExperimentConfig(preset=SERVE["preset"], seed=seed, jobs=SERVE["jobs"]))


def _path(key: tuple) -> str:
    kind = key[0]
    if kind == "day":
        return f"/v1/days/{key[1]}?vantage={key[2]}"
    if kind == "victims":
        return f"/v1/victims/top?date={key[1]}&vantage={key[2]}"
    path = f"/v1/series/takedown?start={key[1]}&end={key[2]}&vantage={key[3]}"
    return path + (f"&window={key[4]}" if key[4] else "")


def _payload(service, key: tuple) -> bytes:
    from repro.serve.service import canonical_json

    if key[0] == "day":
        return canonical_json(service.day_payload(key[1], key[2]))
    if key[0] == "victims":
        return canonical_json(service.victims_payload(key[1], key[2], None))
    window = str(key[4]) if key[4] else None
    return canonical_json(service.series_payload(key[1], key[2], key[3], None, window))


def _kind(key: tuple) -> str:
    """Request kind of a key: day, victims, range or analysis."""
    if key[0] != "series":
        return key[0]
    return "analysis" if key[4] else "range"


def apportion(n: int, weights: dict[str, float]) -> dict[str, int]:
    """Split ``n`` into whole counts in proportion to ``weights``
    (largest remainder)."""
    total = sum(weights.values())
    raw = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[: n - sum(counts.values())]:
        counts[k] += 1
    return counts


def analysis_starts(takedown: int) -> tuple[int, int]:
    """The first days a before/after analysis read may start on."""
    window = SERVE["analysis_window"]
    return takedown - window - 1, takedown - window


def analysis_range(takedown: int, rng: random.Random) -> tuple[int, int]:
    """First and last day of a before/after analysis read."""
    return rng.choice(analysis_starts(takedown)), takedown + SERVE["analysis_window"]


def serve_schedule(seed: int, seconds: float, n_days: int, takedown: int) -> dict:
    """The seeded request schedule: open-loop slots and closed-loop keys.

    Warm keys touch a block of days around the takedown that the disk
    tier holds, with dates and vantages drawn uniformly. Series reads are
    either a range between two dates of the block or the before/after
    analysis over the widest window the block supports. A ``cold_share``
    of open-loop slots read days outside the block: they compute and are
    written through, and each cold key is read back once in the last
    segment of the open loop, after a closed pass.
    """
    from repro.timeutil import date_of

    rng = random.Random(seed)
    first = takedown - SERVE["warm_days"] // 2
    block = list(range(first, first + SERVE["warm_days"]))
    dates = {d: str(date_of(d)) for d in range(n_days)}

    def warm_key() -> tuple:
        kind = rng.choices(list(SERVE["mix"]), weights=list(SERVE["mix"].values()))[0]
        vantage = rng.choice(VANTAGES)
        if kind == "day":
            return ("day", dates[rng.choice(block)], vantage)
        if kind == "victims":
            return ("victims", dates[rng.choice(block)], vantage)
        if rng.random() < SERVE["analysis_share"]:
            lo, hi = analysis_range(takedown, rng)
            return ("series", dates[lo], dates[hi], rng.choice(ANALYSIS_VANTAGES),
                    SERVE["analysis_window"])
        lo, hi = sorted(rng.sample(block, 2))
        return ("series", dates[lo], dates[hi], vantage, None)

    n = math.ceil(SERVE["rate_rps"] * seconds)
    slots: list[tuple | None] = [None] * n
    n_cold = max(1, round(n * SERVE["cold_share"]))
    # One cold day per equal stratum of the days outside the block, so
    # every seed's cold share spans the same mix of busy and quiet days.
    outside = [d for d in range(n_days) if d not in block]
    cold_days = [rng.choice(outside[i * len(outside) // n_cold:(i + 1) * len(outside) // n_cold])
                 for i in range(n_cold)]
    rng.shuffle(cold_days)
    last_segment = (SERVE["segments"] - 1) * n // SERVE["segments"]
    firsts = rng.sample(range(last_segment), n_cold)
    backs = rng.sample(range(last_segment, n), n_cold)
    cold_keys = []
    for day, first, back in zip(cold_days, firsts, backs):
        kind = rng.choice(("day", "victims"))
        key = (kind, dates[day], rng.choice(VANTAGES))
        cold_keys.append(key)
        slots[first] = slots[back] = key
    slots = [key if key is not None else warm_key() for key in slots]
    cold = set(cold_keys)
    # A closed pass holds the mix's shares exactly, not by chance, and
    # reads every date of the block at every vantage equally often, so
    # its cost moves with the world rather than with the dates a seed
    # happened to draw.
    series, analysis = SERVE["mix"]["series"], SERVE["analysis_share"]
    weights = {"day": SERVE["mix"]["day"], "victims": SERVE["mix"]["victims"],
               "range": series * (1 - analysis), "analysis": series * analysis}
    points = [(dates[d], v) for d in block for v in VANTAGES]
    analyses = [("series", dates[lo], dates[takedown + SERVE["analysis_window"]], v,
                 SERVE["analysis_window"])
                for lo in analysis_starts(takedown)
                for v in ANALYSIS_VANTAGES]
    closed = []
    for kind, count in apportion(SERVE["closed_requests"], weights).items():
        for i in range(count):
            if kind in ("day", "victims"):
                closed.append((kind, *points[i % len(points)]))
            elif kind == "analysis":
                closed.append(analyses[i % len(analyses)])
            else:
                lo, hi = sorted(rng.sample(block, 2))
                closed.append(("series", dates[lo], dates[hi], VANTAGES[i % len(VANTAGES)], None))
    rng.shuffle(closed)
    seen_warm = sorted({k for k in slots if k not in cold} | set(closed), key=repr)
    lo, hi = analysis_range(takedown, rng)
    probe = ("series", dates[lo], dates[hi], "tier1", SERVE["analysis_window"])
    return {"open": slots, "closed": closed, "cold": cold_keys, "warm": seen_warm, "probe": probe}


def prepare_serve(seeds: list[int], seconds: float, work: Path) -> dict[int, dict]:
    """Per world: build the schedule, fill the disk tier with the warm
    keys and compute every key's canonical payload in-process.

    Both are pure functions of the program and benchmark versions, the
    seed and the params, so they are kept under ``.bench_work`` and
    reused by later runs of the same seed. Missing fills are built two
    at a time, before anything is measured.
    """
    bench = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
    preps = {}
    for seed in seeds:
        key = hashlib.sha256(
            json.dumps([common.source_digest(), bench, seed, seconds, SERVE], sort_keys=True).encode()
        ).hexdigest()[:24]
        preps[seed] = work / f"prep-{key}"
    missing = [seed for seed in seeds if not (preps[seed] / "plan.json").exists()]
    if missing:
        for seed in missing:
            shutil.rmtree(preps[seed], ignore_errors=True)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(2, len(missing)), mp_context=context) as pool:
            list(pool.map(_fill, missing, [seconds] * len(missing), [preps[s] for s in missing]))
    for prep in preps.values():
        (prep / "plan.json").touch()
    # Keep the most recently used fills only; each holds a disk tier.
    fills = sorted(work.glob("prep-*/plan.json"), key=lambda p: p.stat().st_mtime)
    for stale in fills[:-max(PREP_CACHE_ENTRIES, len(seeds))]:
        shutil.rmtree(stale.parent, ignore_errors=True)
    return {seed: _load_plan(prep) for seed, prep in preps.items()}


def _load_plan(prep: Path) -> dict:
    stored = json.loads((prep / "plan.json").read_text())
    return {
        "open": [tuple(k) for k in stored["open"]],
        "closed": [tuple(k) for k in stored["closed"]],
        "cold": [tuple(k) for k in stored["cold"]],
        "warm": [tuple(k) for k in stored["warm"]],
        "probe": tuple(stored["probe"]),
        "canonical": {tuple(k): body.encode() for k, body in stored["canonical"]},
        "golden": prep / "golden",
    }


def _fill(seed: int, seconds: float, prep: Path) -> None:
    from repro.core.diskcache import DiskDayCache
    from repro.core.parallel import day_cache

    service = _service(seed)
    config = service.scenario_config
    schedule = serve_schedule(seed, seconds, config.n_days, config.takedown_day)
    canonical: dict[tuple, bytes] = {}
    cache = day_cache()
    cache.clear()
    cache.attach_disk(DiskDayCache(prep / "golden"))
    try:
        for key in schedule["warm"]:
            canonical[key] = _payload(service, key)
    finally:
        cache.attach_disk(None)
    for key in schedule["cold"]:
        canonical[key] = _payload(service, key)
    cache.clear()
    plan = {name: schedule[name] for name in ("open", "closed", "cold", "warm", "probe")}
    plan["canonical"] = [[list(k), body.decode()] for k, body in canonical.items()]
    tmp = prep / "plan.tmp"
    tmp.write_text(json.dumps(plan))
    tmp.replace(prep / "plan.json")


class Connection:
    """One keep-alive HTTP/1.1 connection issuing sequential GETs."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def get(self, path: str) -> tuple[int, bytes, float]:
        """(status, body, first-byte time) of one GET."""
        if self.writer is None:
            await self.open()
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        first_byte = time.perf_counter()
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ")[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        body = await self.reader.readexactly(length)
        return status, body, first_byte


async def _exchange(conn: Connection, path: str) -> tuple[int, bytes, float]:
    try:
        return await asyncio.wait_for(conn.get(path), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError, ValueError):
        conn.close()  # unknown state: reconnect for the next request
        return 0, b"", time.perf_counter()


async def open_loop(port: int, paths: list[str], rate: float, connections: int) -> list[dict]:
    """Send ``paths[i]`` due at ``i / rate``; at most ``connections`` in flight."""
    records: list[dict] = [{} for _ in paths]
    cursor = iter(range(len(paths)))
    t0 = time.perf_counter() + 0.05

    async def worker() -> None:
        conn = Connection(port)
        await conn.open()
        try:
            for i in cursor:
                ready = time.perf_counter()
                due = t0 + i / rate
                # The loop's timers fire up to a millisecond late; sleep
                # short of the due time and yield until it arrives.
                if due - ready > 0.002:
                    await asyncio.sleep(due - ready - 0.0015)
                while time.perf_counter() < due:
                    await asyncio.sleep(0)
                sent = time.perf_counter()
                status, body, first_byte = await _exchange(conn, paths[i])
                records[i] = {"due": due, "ready": ready, "sent": sent, "first_byte": first_byte,
                              "done": time.perf_counter(), "status": status, "body": body}
        finally:
            conn.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    return records


async def closed_loop(port: int, paths: list[str], connections: int) -> tuple[list[dict], float]:
    """Each connection sends its next request as soon as the last completes."""
    records: list[dict] = [{} for _ in paths]
    cursor = iter(range(len(paths)))

    async def worker() -> None:
        conn = Connection(port)
        await conn.open()
        try:
            for i in cursor:
                status, body, _ = await _exchange(conn, paths[i])
                records[i] = {"status": status, "body": body}
        finally:
            conn.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(connections)))
    return records, time.perf_counter() - start


def _http_get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    async def go():
        conn = Connection(port)
        try:
            return await asyncio.wait_for(conn.get(path), timeout)
        finally:
            conn.close()

    try:
        status, body, _ = asyncio.run(go())
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
        return 0, b""
    return status, body


class Server:
    """A ``repro-serve`` process on the disk tier under ``cache_dir``."""

    def __init__(self, seed: int, work: Path, cache_dir: Path, spans: Path | None) -> None:
        self.log = work / "server.log"
        prefix = [str(HERE / "tracer.py"), str(spans)] if spans is not None else []
        cmd = [python(), *prefix, "-m", "repro.serve.server", "--host", "127.0.0.1", "--port", "0",
               "--preset", SERVE["preset"], "--jobs", str(SERVE["jobs"]), "--seed", str(seed),
               "--cache-dir", str(cache_dir), "--log-level", "warning"]
        self._log_file = open(self.log, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=common.ROOT, stdout=self._log_file,
                                     stderr=subprocess.STDOUT, env=common.program_env())
        self.port = self._wait_ready()
        self.setup_s = time.perf_counter() - self.start

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            if port is None:
                for line in self.log.read_text(errors="replace").splitlines():
                    if line.startswith("SERVE_READY "):
                        port = int(line.rsplit(":", 1)[1])
            if port is not None and _http_get(port, "/v1/health")[0] == 200:
                return port
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not become healthy; log: {self.log}")

    def cpu_s(self) -> float:
        return common.process_cpu_s(self.proc.pid)

    def stop(self) -> Metered:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        metered = common.wait_metered(self.proc, self.start, 30.0)
        self._log_file.close()
        return metered


def _serve_round(seed: int, work: Path, plan: dict, spans: Path | None, probe: bool) -> dict:
    """Launch a server, warm it, then alternate open-loop segments with
    closed passes.

    The server runs on a fresh copy of the disk tier. The warm-up reads
    each warm key once: its tables come off the disk tier and the
    per-day events (memory-only) are recomputed, a cost a server pays
    once per start.
    Timing the open loop after it keeps that one-off storm out of the
    per-request latency; it is reported on its own as ``warmup_s``. Each
    closed pass sends the same warm requests and records its wall time
    and the server's CPU time. With ``probe``, the plan's tier1 analysis
    read is sent last, outside the counted operations.
    """
    cache_dir = work / "disk"
    shutil.rmtree(cache_dir, ignore_errors=True)
    shutil.copytree(plan["golden"], cache_dir)
    # Write the copy back now, not while the server is being timed.
    os.sync()
    server = Server(seed, work, cache_dir, spans)
    warm = plan["warm"]
    closed_paths = [_path(k) for k in plan["closed"]]
    n, segments = len(plan["open"]), SERVE["segments"]
    open_records, segment_p50_s, closed_records, closed_s, closed_cpu_s = [], [], [], [], []
    try:
        gc.collect()
        gc.freeze()
        gc.disable()
        warm_records, warmup_s = asyncio.run(closed_loop(
            server.port, [_path(k) for k in warm], SERVE["connections"]))
        for i in range(segments):
            segment = plan["open"][i * n // segments:(i + 1) * n // segments]
            records = asyncio.run(open_loop(
                server.port, [_path(k) for k in segment], SERVE["rate_rps"], SERVE["connections"]))
            open_records += records
            ok = [r["done"] - r["due"] for r in records if r["status"] == 200]
            segment_p50_s += [median(ok)] if ok else []
            cpu = server.cpu_s()
            records, wall = asyncio.run(closed_loop(server.port, closed_paths, SERVE["connections"]))
            closed_cpu_s.append(server.cpu_s() - cpu)
            closed_records += records
            closed_s.append(wall)
        gc.enable()
        probe_status = _http_get(server.port, _path(plan["probe"]), REQUEST_TIMEOUT_S)[0] if probe else None
        exposition = _http_get(server.port, "/v1/metrics")[1].decode(errors="replace") if spans else ""
    finally:
        gc.enable()
        metered = server.stop()
    return {"setup_s": server.setup_s, "warm": warm_records, "warmup_s": warmup_s,
            "open": open_records, "segment_p50_s": segment_p50_s,
            "closed": closed_records, "closed_s": closed_s,
            "closed_cpu_s": closed_cpu_s, "metered": metered, "exposition": exposition,
            "probe_status": probe_status}


def _failures(records: list[dict], keys: list[tuple], canonical: dict[tuple, bytes]) -> int:
    return sum(
        1 for r, key in zip(records, keys)
        if r.get("status") != 200 or r.get("body") != canonical[key]
    )


def _exposition_counter(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def serve_mixed(seed: int, seconds: float, trace: bool) -> dict:
    work = common.WORK / "serve-mixed"
    work.mkdir(parents=True, exist_ok=True)
    # Latency and memory vary from one random world to the next; each
    # run serves several worlds, one fresh server each, and reports
    # medians over them.
    worlds = world_seeds(seed, SERVE["worlds"])
    per_world = seconds / len(worlds)
    plans = prepare_serve(worlds[:1] if trace else worlds, per_world, work)
    rounds = [_serve_round(w, work, plans[w], None, probe=w == seed) | {"world": w} for w in plans]
    traced = None
    if trace:
        traced = _serve_round(seed, work, plans[seed], trace_dir("serve-mixed"), probe=False) | {"world": seed}

    attempted = failed = 0
    for r in [*rounds, *([traced] if traced else [])]:
        plan = plans[r["world"]]
        closed_keys = plan["closed"] * SERVE["segments"]
        attempted += len(r["warm"]) + len(plan["open"]) + len(closed_keys)
        failed += _failures(r["warm"], plan["warm"], plan["canonical"])
        failed += _failures(r["open"], plan["open"], plan["canonical"])
        failed += _failures(r["closed"], closed_keys, plan["canonical"])

    ok = [rec for r in rounds for rec in r["open"] if rec.get("status") == 200]
    latencies = common.due_time_latencies([r["due"] for r in ok], [r["done"] for r in ok])
    sent = [rec for r in [*rounds, *([traced] if traced else [])] for rec in r["open"] if rec]
    lateness = common.generator_lateness(
        [r["due"] for r in sent], [r["ready"] for r in sent], [r["sent"] for r in sent])
    tail_q, tail_latency = common.tail(latencies)
    late = {50: percentile(lateness, 50), tail_q: percentile(lateness, tail_q)}
    limit = {50: median(latencies), tail_q: tail_latency}
    p99 = percentile(latencies, 99)
    # Per segment of the run's worlds: the open loop's median latency and
    # the closed pass after it.
    segment_p50_s = [s for r in rounds for s in r["segment_p50_s"]]
    closed_s = [s for r in rounds for s in r["closed_s"]]
    closed_cpu_s = [s for r in rounds for s in r["closed_cpu_s"]]
    setup_s = [r["setup_s"] for r in rounds]
    n_closed = len(plans[worlds[0]]["closed"])
    by_kind: dict[str, list[float]] = {}
    for r in rounds:
        for rec, key in zip(r["open"], plans[r["world"]]["open"]):
            if rec.get("status") == 200:
                by_kind.setdefault(_kind(key), []).append(rec["done"] - rec["due"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "valid": all(late[q] <= LATENESS_BOUND * limit[q] for q in late),
        "params": SERVE,
        "samples": {
            "worlds": [r["world"] for r in rounds],
            "setup_s": setup_s,
            "closed_s": closed_s,
            "closed_cpu_s": closed_cpu_s,
            "warmup_s": [r["warmup_s"] for r in rounds],
            "server_cpu_s": [r["metered"].cpu_s for r in rounds],
            "server_peak_rss_mb": [r["metered"].peak_rss_mb for r in rounds],
            "open_samples": len(latencies),
            "open_p50_ms_by_kind": {k: median(v) * 1e3 for k, v in sorted(by_kind.items())},
            "segment_p50_ms": [s * 1e3 for s in segment_p50_s],
            "cold_keys": sum(len(plans[w]["cold"]) for w in plans),
            **{f"generator_late_p{q:g}_ms": v * 1e3 for q, v in late.items()},
            "generator_late_max_ms": max(lateness) * 1e3,
            "lateness_bound": f"{LATENESS_BOUND:g} of the latency at the same percentile",
        },
        "notes": [
            f"tier1 before/after analysis, not counted: {_path(plans[seed]['probe'])} "
            f"answered HTTP {rounds[0]['probe_status']}"
        ],
        "metrics": {
            "setup_s": median(setup_s),
            "wall_s": lower_quartile(closed_s),
            "cpu_s": lower_quartile(closed_cpu_s),
            "peak_rss_mb": median([r["metered"].peak_rss_mb for r in rounds]),
            "p50_ms": lower_quartile(segment_p50_s) * 1e3,
        },
        "extra": {
            "p50_all_ms": {"value": median(latencies) * 1e3, "unit": "ms", "samples": len(latencies)},
            "p99_ms": {"value": None if p99 is None else p99 * 1e3, "unit": "ms",
                       "samples": len(latencies)},
            "max_rps": {"value": n_closed / lower_quartile(closed_s), "unit": "1/s",
                        "samples": len(closed_s)},
            "warmup_s": {"value": median([r["warmup_s"] for r in rounds]), "unit": "s",
                         "samples": len(rounds)},
        },
    }
    if traced:
        layers = traced_layers(work.parent / "spans" / "serve-mixed")
        text = traced["exposition"]
        data_requests = sum(
            1 for r in traced["warm"] + traced["open"] + traced["closed"] if r.get("status") == 200)
        handled = layers["serve.requests"]
        layers["serve.dedup_frac"] = 1.0 - handled / data_requests if data_requests else 0.0
        hits = _exposition_counter(text, "serve_singleflight_hits_total")
        leaders = _exposition_counter(text, "serve_singleflight_leaders_total")
        layers["serve.dedup_frac_program"] = hits / (hits + leaders) if hits + leaders else 0.0
        tiers = {t: _exposition_counter(text, f"serve_cache_tier_{t}_total") for t in ("mem", "disk", "compute")}
        served = sum(tiers.values())
        for tier, count in tiers.items():
            layers[f"serve.tier_{tier}_frac_program"] = count / served if served else 0.0
        first_bytes = [r["first_byte"] - r["sent"] for r in traced["open"] if r.get("status") == 200]
        layers["serve.first_byte_ms"] = median(first_bytes) * 1e3
        layers["synth.flows_program"] = _exposition_counter(text, "scenario_flows_synthesized_total")
        layers["trace.wall_s"] = median(traced["closed_s"])
        layers["trace.untraced_wall_s"] = median(rounds[0]["closed_s"])
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / layers["trace.untraced_wall_s"] - 1.0
        result["layers"] = layers
    return result


WORKLOADS = {"all-small": all_small, "serve-mixed": serve_mixed, "topo-10k": topo_10k}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    Path(args.out).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(common.SRC))
    raise SystemExit(main(sys.argv[1:]))
