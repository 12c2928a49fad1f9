"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer with timing
spans. The wrappers live here, in the
benchmark, not in ``src/``; the untraced runs never import this module.

Each span records its duration and the part of it covered by child
spans on the same thread, so a layer's *self* time is ``span -
children``: observe excludes the matrix lookups it makes, a matrix
lookup excludes the route trees it builds, and so on. Stacks are
per-thread because the serving plane resolves payloads in worker
threads.

Forked pool workers inherit the wrappers. After a fork the child resets
its totals and writes them, tagged with its pid, when it exits, so
worker spans come back per process. Run as a script, this module
installs the wrappers and then runs a module as ``__main__``::

    python3 perfbench/tracer.py OUT_DIR -m repro.experiments.runner ARGS...
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import runpy
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# -- span bookkeeping -------------------------------------------------------------


class Frame:
    """One open span: its layer, start, and the time its children took.

    ``state`` is what a wrapper's ``pre`` hook or a descendant left on it.
    """

    __slots__ = ("layer", "start", "child_s", "state")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.state: Any = None


class Tracer:
    """Per-process span totals: calls, span and self seconds per layer."""

    def __init__(self, out_dir: str | Path | None = None, role: str = "main") -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._objects: dict[str, weakref.WeakSet] = defaultdict(weakref.WeakSet)
        self.reset(role)

    def reset(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Time inside outermost spans: what this process was busy with.
        self.root_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.days: set[tuple] = set()
        self.tiers: dict[str, int] = defaultdict(int)

    # stack ---------------------------------------------------------------------

    def stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> Frame:
        frame = Frame(layer, time.perf_counter())
        self.stack().append(frame)
        return frame

    def end(self, frame: Frame) -> float:
        """Close ``frame``; returns its duration."""
        duration = time.perf_counter() - frame.start
        stack = self.stack()
        stack.pop()
        with self._lock:
            self.calls[frame.layer] += 1
            self.span_s[frame.layer] += duration
            self.self_s[frame.layer] += duration - frame.child_s
            if stack:
                stack[-1].child_s += duration
            else:
                self.root_s += duration
        return duration

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open on this thread."""
        return any(frame.layer == layer for frame in self.stack())

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def track(self, kind: str, obj: Any) -> None:
        self._objects[kind].add(obj)

    # output --------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        counts = dict(self.counts)
        # End-of-life state of the tracked objects (monotonic counters).
        counts["topo.blocks_built"] = float(
            sum(m.blocks_built for m in list(self._objects["matrix"]))
        )
        counts["cache.corrupt"] = float(
            sum(d.stats()["corrupt"] for d in list(self._objects["disk"]))
        )
        return {
            "pid": self.pid,
            "role": self.role,
            "calls": dict(self.calls),
            "span_s": dict(self.span_s),
            "self_s": dict(self.self_s),
            "root_s": self.root_s,
            "counts": counts,
            "days": sorted(list(d) for d in self.days),
            "tiers": dict(self.tiers),
        }

    def flush(self) -> None:
        if self.out_dir is None or os.getpid() != self.pid:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(path)

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry was
        # cleared: drop the parent's totals, flush ours when we exit.
        self.reset("worker")
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)


# -- layer wrappers ---------------------------------------------------------------


def nbytes(value: Any) -> int:
    """Bytes of the numpy payload inside ``value`` (tables, tuples, lists)."""
    if value is None:
        return 0
    columns = getattr(value, "_columns", None)  # FlowTable
    if isinstance(columns, dict):
        return sum(int(getattr(c, "nbytes", 0)) for c in columns.values())
    if isinstance(value, (tuple, list)):
        return sum(nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0) or 0)


def _rows(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _wrap(tracer: Tracer, owner: Any, name: str, layer: str,
          post: Callable[..., None] | None = None,
          pre: Callable[..., Any] | None = None) -> None:
    original = getattr(owner, name)
    if getattr(original, "__perfbench_wrapped__", False):
        return

    def wrapper(*args, **kwargs):
        frame = tracer.begin(layer)
        if pre is not None:
            frame.state = pre(args)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(frame)
        if post is not None:
            post(tracer, frame, args, kwargs, result)
        return result

    wrapper.__perfbench_wrapped__ = True
    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__qualname__ = getattr(original, "__qualname__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    # A module-level function is also bound by name in every module that
    # imported it; rebind those references too.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _post_synth(tracer, frame, args, kwargs, traffic):
    day = _arg(args, kwargs, 1, "day")
    with_takedown = _arg(args, kwargs, 2, "with_takedown", True)
    with tracer._lock:
        tracer.days.add((int(day), bool(with_takedown)))
    tracer.add(
        "synth.flows",
        len(traffic.attack) + len(traffic.trigger) + len(traffic.scan) + len(traffic.benign),
    )


def _post_observe(tracer, frame, args, kwargs, observed):
    traffic = _arg(args, kwargs, 2, "traffic")
    kinds = _arg(args, kwargs, 3, "kinds", ("attack", "trigger", "scan", "benign"))
    tracer.add("observe.rows_in", sum(len(getattr(traffic, k)) for k in kinds))
    tracer.add("observe.rows_out", len(observed))


def _post_matrix(tracer, frame, args, kwargs, result):
    matrix = args[0]
    tracer.track("matrix", matrix)
    tracer.peak("topo.matrix_bytes", matrix.resident_bytes)


def _post_reduce(index: int, name: str):
    def post(tracer, frame, args, kwargs, result):
        # Rows count once, at the outermost reduce call (this frame is
        # already closed, so any open reduce frame is an ancestor).
        if not tracer.inside("reduce"):
            tracer.add("reduce.rows_in", _rows(_arg(args, kwargs, index, name)))
    return post


def _post_transport(tracer, frame, args, kwargs, results):
    pool = args[0]
    items = _arg(args, kwargs, 2, "items", ())
    tracer.add("transport.tasks", _rows(items))
    tracer.add("transport.bytes", nbytes([r for r, _ in results]))
    tracer.add("transport.capacity_s", pool.workers * (time.perf_counter() - frame.start))
    if pool._executor is not frame.state:
        tracer.add("transport.respawns", 1)


def _serve_tiers(tracer: Tracer) -> dict[str, int] | None:
    """Cache outcomes seen under the open serve span, if there is one."""
    for frame in reversed(tracer.stack()):
        if frame.layer == "serve":
            if frame.state is None:
                frame.state = {"miss": 0, "disk": 0}
            return frame.state
    return None


def _post_cache_get(tracer, frame, args, kwargs, value):
    tracer.add("cache.lookups", 1)
    if value is not None:
        tracer.add("cache.hits", 1)
    tiers = _serve_tiers(tracer)
    if tiers is not None and value is None:
        tiers["miss"] += 1


def _post_cache_put(tracer, frame, args, kwargs, result):
    tracer.peak("cache.resident_bytes", args[0].resident_bytes)


def _post_disk_get(tracer, frame, args, kwargs, value):
    tracer.track("disk", args[0])
    if value is not None:
        tracer.add("cache.disk_read_bytes", nbytes(value))
        tiers = _serve_tiers(tracer)
        if tiers is not None:
            tiers["disk"] += 1


def _post_disk_put(tracer, frame, args, kwargs, stored):
    tracer.track("disk", args[0])
    if stored:
        tracer.add("cache.disk_write_bytes", nbytes(_arg(args, kwargs, 2, "value")))


def _post_ledger(tracer, frame, args, kwargs, result):
    tracer.add("ledger.customer_days", args[0].active_customers())


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public calls; idempotent."""
    from repro.core import classify, diskcache, parallel, streaming, takedown_analysis, workerpool
    from repro.economics import ledger
    from repro.netmodel import topology
    from repro.scenario import scenario
    from repro.serve import service
    from repro.vantage import matrix

    _wrap(tracer, scenario.Scenario, "day_traffic", "synth", _post_synth)
    _wrap(tracer, scenario.Scenario, "observe_day", "observe", _post_observe)
    _wrap(tracer, topology.ASTopology, "route_plane", "topo.route")
    _wrap(tracer, topology.ASTopology, "routes_to_many", "topo.route")
    _wrap(tracer, matrix.VisibilityMatrix, "lookup_ixp", "topo.matrix", _post_matrix)
    _wrap(tracer, matrix.VisibilityMatrix, "lookup_isp", "topo.matrix", _post_matrix)
    _wrap(tracer, streaming.StreamingAnalyzer, "ingest_day", "reduce", _post_reduce(2, "observed"))
    _wrap(tracer, classify.ConservativeClassifier, "classify", "reduce", _post_reduce(1, "stats"))
    _wrap(tracer, classify.ConservativeClassifier, "classify_flows", "reduce", _post_reduce(1, "flows"))
    _wrap(tracer, takedown_analysis, "analyze_takedown", "reduce", _post_reduce(0, "series"))
    _wrap(tracer, workerpool.WorkerPool, "map_with_deltas", "transport", _post_transport,
          pre=lambda args: args[0]._executor)
    _wrap(tracer, parallel.DayResultCache, "get", "cache.mem", _post_cache_get)
    _wrap(tracer, parallel.DayResultCache, "put", "cache.mem", _post_cache_put)
    _wrap(tracer, diskcache.DiskDayCache, "get", "cache.disk_get", _post_disk_get)
    _wrap(tracer, diskcache.DiskDayCache, "put", "cache.disk_put", _post_disk_put)
    for name in ("day_payload", "series_payload", "victims_payload"):
        _wrap(tracer, service.ObservatoryService, name, "serve", _post_serve)
    _wrap(tracer, ledger.CustomerLedger, "step", "market", _post_ledger)
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


def _post_serve(tracer, frame, args, kwargs, result):
    # The program's own rule: any day neither tier could serve makes the
    # request "compute", a disk hit "disk", otherwise "mem".
    tiers = frame.state or {"miss": 0, "disk": 0}
    tier = "compute" if tiers["miss"] else ("disk" if tiers["disk"] else "mem")
    with tracer._lock:
        tracer.tiers[tier] += 1


# -- merging per-pid records --------------------------------------------------------


def load(out_dir: str | Path) -> list[dict[str, Any]]:
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]


def merge(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum per-pid records; worker busy time is the workers' root spans."""
    total: dict[str, Any] = {
        "calls": defaultdict(int),
        "span_s": defaultdict(float),
        "self_s": defaultdict(float),
        "counts": defaultdict(float),
        "tiers": defaultdict(int),
        "days": set(),
        "worker_busy_s": 0.0,
        "pids": {},
    }
    peaks = {"topo.matrix_bytes", "cache.resident_bytes"}
    for record in records:
        total["pids"][record["pid"]] = record["role"]
        for key in ("calls", "span_s", "self_s", "tiers"):
            for name, value in record[key].items():
                total[key][name] += value
        for name, value in record["counts"].items():
            if name in peaks:
                total["counts"][name] = max(total["counts"][name], value)
            else:
                total["counts"][name] += value
        total["days"].update(tuple(d) for d in record["days"])
        if record["role"] == "worker":
            total["worker_busy_s"] += record["root_s"]
    return total


def layer_metrics(total: dict[str, Any]) -> dict[str, float]:
    """The per-layer metric values from merged span records."""
    calls, self_s, counts, tiers = total["calls"], total["self_s"], total["counts"], total["tiers"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    synth_s = self_s.get("synth", 0.0)
    reduce_s = self_s.get("reduce", 0.0)
    ledger_s = self_s.get("market", 0.0)
    served = sum(tiers.values())
    lookups = counts.get("cache.lookups", 0.0)
    return {
        "synth.calls": float(calls.get("synth", 0)),
        "synth.distinct_days": float(len(total["days"])),
        "synth.busy_s": synth_s,
        "synth.flows": counts.get("synth.flows", 0.0),
        "synth.flows_per_s": ratio(counts.get("synth.flows", 0.0), synth_s),
        "observe.calls": float(calls.get("observe", 0)),
        "observe.busy_s": self_s.get("observe", 0.0),
        "observe.rows_in": counts.get("observe.rows_in", 0.0),
        "observe.rows_out": counts.get("observe.rows_out", 0.0),
        "observe.keep_frac": ratio(counts.get("observe.rows_out", 0.0), counts.get("observe.rows_in", 0.0)),
        "topo.route_s": self_s.get("topo.route", 0.0),
        "topo.matrix_s": self_s.get("topo.matrix", 0.0),
        "topo.blocks_built": counts.get("topo.blocks_built", 0.0),
        "topo.matrix_mb": counts.get("topo.matrix_bytes", 0.0) / 1e6,
        "reduce.busy_s": reduce_s,
        "reduce.rows_in": counts.get("reduce.rows_in", 0.0),
        "reduce.rows_per_s": ratio(counts.get("reduce.rows_in", 0.0), reduce_s),
        "transport.tasks": counts.get("transport.tasks", 0.0),
        "transport.bytes": counts.get("transport.bytes", 0.0),
        "transport.wait_s": total["span_s"].get("transport", 0.0),
        "transport.busy_frac": ratio(total["worker_busy_s"], counts.get("transport.capacity_s", 0.0)),
        "transport.respawns": counts.get("transport.respawns", 0.0),
        "cache.lookups": lookups,
        "cache.hit_frac": ratio(counts.get("cache.hits", 0.0), lookups),
        "cache.resident_mb": counts.get("cache.resident_bytes", 0.0) / 1e6,
        "cache.disk_get_s": self_s.get("cache.disk_get", 0.0),
        "cache.disk_put_s": self_s.get("cache.disk_put", 0.0),
        "cache.disk_read_mb": counts.get("cache.disk_read_bytes", 0.0) / 1e6,
        "cache.disk_write_mb": counts.get("cache.disk_write_bytes", 0.0) / 1e6,
        "cache.corrupt": counts.get("cache.corrupt", 0.0),
        "serve.requests": float(calls.get("serve", 0)),
        "serve.handler_s": total["span_s"].get("serve", 0.0),
        "serve.tier_mem_frac": ratio(tiers.get("mem", 0), served),
        "serve.tier_disk_frac": ratio(tiers.get("disk", 0), served),
        "serve.tier_compute_frac": ratio(tiers.get("compute", 0), served),
        "ledger.busy_s": ledger_s,
        "ledger.customer_days_per_s": ratio(counts.get("ledger.customer_days", 0.0), ledger_s),
    }


def main(argv: list[str]) -> None:
    if len(argv) < 3 or argv[1] != "-m":
        raise SystemExit("usage: tracer.py OUT_DIR -m MODULE [ARGS...]")
    out_dir, module, rest = argv[0], argv[2], argv[3:]
    tracer = install(Tracer(out_dir))
    atexit.register(tracer.flush)
    sys.argv = [module, *rest]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
