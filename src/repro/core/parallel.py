"""Parallel day-pipeline execution and a content-addressed day-result cache.

Every per-day random stream in the simulator is derived from the
scenario's :class:`~repro.stats.rng.SeedSequenceTree` by *path* —
``("traffic", day)``, ``("observe", vantage, day)``, ``("demand", day)``
and so on — never by drawing from a shared generator. A day's traffic
therefore does not depend on which days were generated before it, in
which order, or in which process. This module exploits that:

* each fan-out entry point (:func:`observed_days`,
  :func:`daily_port_counts`, :func:`streaming_ingest`,
  :func:`day_attack_tables`) reads what it can from the day cache, hands
  the missing days to the one dispatch helper, :func:`_dispatch`, and
  writes the fresh results back;
* :func:`_dispatch` runs a module-level task ``task(scenario, item)``
  either inline on the live scenario (``jobs=1``, or a single item) or
  on the **persistent warm pool** owned by :mod:`repro.core.workerpool`,
  spawned once per (jobs, config) and reused across all call sites, with
  day batching; pool workers run the task on their own copy of the
  world, rebuilt (or, under ``fork``, inherited) once per config
  ``content_hash()``;
* per-day results merge through order-independent reductions — series
  arrays keyed by day, HyperLogLog register max, per-destination
  max/sum — so ``jobs=1`` and ``jobs=N`` are **bit-identical**.

:class:`DayResultCache` is a process-wide LRU keyed by
``(kind, config content hash, takedown, vantage, day, with_takedown)``.
Experiments sharing day ranges (fig2b/fig2c/landscape, fig5 after fig2,
victimization after honeypot) reuse each other's per-day work within a
``repro-experiments`` run instead of regenerating the same days.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.booter.takedown import TakedownScenario
from repro.core.workerpool import (
    REPLAY_PREFIX as _REPLAY_PREFIX,
    get_pool,
    record_inline_pool,
    register_scenario,
    resolve_batch,
    scenario_for,
)
from repro.flows.records import FlowTable, SCHEMA
from repro.obs import MetricsRegistry, metrics
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import Scenario

__all__ = [
    "DayResultCache",
    "day_cache",
    "resolve_jobs",
    "register_scenario",
    "daily_port_counts",
    "observed_days",
    "streaming_ingest",
    "day_events",
    "day_attack_tables",
]


# -- day tasks (module-level: must pickle) -------------------------------------


def _observed(scenario: Scenario, day: int, vantage: str, with_takedown: bool) -> FlowTable:
    traffic = scenario.day_traffic(day, with_takedown=with_takedown)
    return scenario.observe_day(vantage, traffic)


def _port_counts(
    scenario: Scenario,
    day: int,
    vantage: str,
    with_takedown: bool,
    selectors: Sequence[Any],
) -> dict[str, int]:
    observed = _observed(scenario, day, vantage, with_takedown)
    return {s.name: s.packets(observed) for s in selectors}


def _attack_table(scenario: Scenario, day: int, with_takedown: bool) -> FlowTable:
    return scenario.day_traffic(day, with_takedown=with_takedown).attack


def _ingest_chunk(
    scenario: Scenario, chunk: tuple[tuple[int, ...], Any], vantage: str, with_takedown: bool
) -> Any:
    days, analyzer = chunk
    for day in days:
        analyzer.ingest_day(day, _observed(scenario, day, vantage, with_takedown))
    return analyzer


def _on_worker(
    task: Callable[[Scenario, Any], Any],
    config: ScenarioConfig,
    takedown: TakedownScenario,
    item: Any,
) -> Any:
    """Pool side of :func:`_dispatch`: run ``task`` on this worker's world.

    The worker's scenario is memoized per config hash; the (possibly
    customized) takedown scenario travels with the task because the
    parent may have changed it after the worker forked.
    """
    scenario = scenario_for(config)
    if scenario.takedown != takedown:
        scenario.takedown = takedown
    return task(scenario, item)


# -- the dispatch path ---------------------------------------------------------


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` means all CPU cores.

    Negative values are rejected here, with the offending value in the
    message, so a bad request can never reach the process pool (where
    ``max_workers <= 0`` raises a far less helpful error).
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"jobs must be a positive worker count, or 0/None for all "
            f"CPU cores; got {jobs} (refusing to size a process pool "
            f"with a negative worker count)"
        )
    return jobs


def _use_pool(jobs: int | None, n_items: int) -> bool:
    """Whether a fan of ``n_items`` goes to the warm pool or runs inline.

    Single items stay inline even with ``jobs > 1`` — a warm dispatch
    is cheap, but the inline path skips pickling entirely and single
    one-shot lookups should not spawn a pool at all.
    """
    return resolve_jobs(jobs) > 1 and n_items > 1


def _dispatch(
    scenario: Scenario,
    task: Callable[[Scenario, Any], Any],
    items: Sequence[Any],
    jobs: int | None,
    batch_days: int = 0,
) -> Iterator[tuple[Any, Any, dict[str, float] | None]]:
    """Yield ``(item, task(scenario, item), deltas)`` for every item, in order.

    The one dispatch path of the fan-out entry points. ``deltas`` are
    the ``scenario.*`` counter deltas the task recorded (``None`` when
    the registry is off) — what the cache stores so a later hit can
    replay them (see :func:`_cache_get`). Pooled fans go to
    :func:`repro.core.workerpool.get_pool` with ``batch_days`` items per
    task (0 = auto). Inline fans run lazily, one item per step, on the
    live scenario — so a caller that drops each result before the next
    never holds the whole range — and, once exhausted, record the same
    ``pool.*`` counter family with one worker, keeping ``--jobs 1``
    profiles comparable with pooled runs.
    """
    if _use_pool(jobs, len(items)):
        remote = partial(_on_worker, task, scenario.config, scenario.takedown)
        pool = get_pool(scenario, resolve_jobs(jobs))
        pairs = pool.map_with_deltas(remote, items, batch=batch_days or None)
        for item, (result, deltas) in zip(items, pairs):
            yield item, result, deltas
        return
    registry = metrics()
    start = time.perf_counter()
    for item in items:
        before = _counters_snapshot(registry)
        result = task(scenario, item)
        yield item, result, _counters_delta(registry, before)
    record_inline_pool(registry, len(items), time.perf_counter() - start)


# -- the day-result cache ------------------------------------------------------

# The replayed counter family (``scenario.*``) is defined in
# :mod:`repro.core.workerpool` (imported above as ``_REPLAY_PREFIX``):
# logical work counters describe the dataset an experiment processed, not
# the physical generations the strategy happened to run, so serving a day
# from the cache must count the same as regenerating it. That is what
# keeps them identical across ``jobs``/``cache`` strategies.


def _counters_snapshot(registry: MetricsRegistry) -> dict[str, float] | None:
    if not registry.enabled:
        return None
    return {
        name: value
        for name, value in registry.counters.items()
        if name.startswith(_REPLAY_PREFIX)
    }


def _counters_delta(
    registry: MetricsRegistry, before: dict[str, float] | None
) -> dict[str, float] | None:
    if before is None:
        return None
    return {
        name: value - before.get(name, 0)
        for name, value in registry.counters.items()
        if name.startswith(_REPLAY_PREFIX) and value != before.get(name, 0)
    }


def _cache_put(key: tuple, value: Any, deltas: dict[str, float] | None) -> None:
    """Cache a day result together with the scenario counters it recorded."""
    _DAY_CACHE.put(key, (value, deltas))


def _cache_get(key: tuple) -> tuple[Any, dict[str, float] | None] | None:
    """A cached ``(value, deltas)`` entry, replaying the deltas.

    Replay makes a hit indistinguishable from regeneration as far as the
    ``scenario.*`` counters are concerned. Entries cached while the
    registry was disabled carry no deltas and replay nothing — within one
    runner invocation the enabled state is constant, so exports stay
    strategy-independent.
    """
    entry = _DAY_CACHE.get(key)
    if entry is None:
        return None
    value, deltas = entry
    registry = metrics()
    if registry.enabled and deltas:
        for name, amount in deltas.items():
            registry.inc(name, amount)
    return value, deltas


def _approx_nbytes(value: Any) -> int:
    """Best-effort size estimate of a cached value, in bytes.

    Exact for flow tables and numpy arrays (column buffer sizes),
    recursive for the containers the pipeline caches (count dicts,
    event lists), ``sys.getsizeof`` for everything else.
    """
    if isinstance(value, FlowTable):
        return int(sum(value[name].nbytes for name in SCHEMA))
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_approx_nbytes(v) for v in value.values()) + sys.getsizeof(value)
    if isinstance(value, (list, tuple)):
        return sum(_approx_nbytes(v) for v in value) + sys.getsizeof(value)
    return sys.getsizeof(value)


class DayResultCache:
    """Bounded LRU cache of per-day results, content-addressed by config.

    Values are whatever the pipeline helpers store per day: observed
    flow tables, per-selector packet counts, ground-truth event lists or
    attack tables. Keys embed the scenario config's ``content_hash()``
    (seed included) and the takedown scenario, so two different worlds
    never collide and two identically-configured scenarios share.

    Every lookup and insert also feeds the active metrics registry
    (``cache.hits`` / ``cache.misses`` / ``cache.evictions`` /
    ``cache.bytes_stored`` and the ``cache.resident_bytes`` gauge).

    An optional durable tier (:class:`repro.core.diskcache.DiskDayCache`)
    can be attached with :meth:`attach_disk`: memory misses then consult
    the disk store (a hit is promoted back into memory without being
    rewritten to disk), and inserts write through. Flow tables evicted
    from the memory LRU remain reachable on disk.

    The cache is thread-safe: the serving plane resolves requests in
    ``asyncio.to_thread`` workers (several at once under
    ``--compute-slots``), and each resolver reads and inserts day
    results, so every mutation of the LRU (and the paired size/counter
    bookkeeping) happens under one re-entrant lock. OrderedDict mutation
    is *not* atomic under concurrent ``move_to_end``/``popitem`` —
    unlocked, a race corrupts the linked list or loses
    ``resident_bytes`` accounting.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._data: OrderedDict[tuple, Any] = OrderedDict()
        self._sizes: dict[tuple, int] = {}
        self._lock = threading.RLock()
        self.disk = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0

    def attach_disk(self, disk: Any | None) -> None:
        """Attach (or, with ``None``, detach) a durable second tier.

        The disk object only needs the cache protocol: ``get(key)``
        returning a stored value or ``None``, ``put(key, value)``, and
        ``stats()``.
        """
        with self._lock:
            self.disk = disk

    def get(self, key: tuple) -> Any | None:
        """The cached value for ``key``, or ``None`` (counts hit/miss).

        On a memory miss the disk tier (if attached) gets a chance; a
        disk hit counts as a memory miss *and* a disk hit, and the value
        is promoted into the memory LRU for subsequent lookups.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                metrics().inc("cache.misses")
                if self.disk is not None:
                    value = self.disk.get(key)
                    if value is not None:
                        self._insert(key, value, write_disk=False)
                        return value
                return None
            self._data.move_to_end(key)
            self.hits += 1
            metrics().inc("cache.hits")
            return value

    def put(self, key: tuple, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least recently used.

        Writes through to the disk tier when one is attached (the disk
        store itself declines values it cannot persist exactly).
        """
        self._insert(key, value, write_disk=True)

    def _insert(self, key: tuple, value: Any, write_disk: bool) -> None:
        registry = metrics()
        size = _approx_nbytes(value)
        with self._lock:
            if key in self._sizes:
                self.resident_bytes -= self._sizes[key]
            self._data[key] = value
            self._sizes[key] = size
            self.resident_bytes += size
            self._data.move_to_end(key)
            if registry.enabled:
                registry.inc("cache.puts")
                registry.inc("cache.bytes_stored", size)
            while len(self._data) > self.max_entries:
                evicted_key, _ = self._data.popitem(last=False)
                self.resident_bytes -= self._sizes.pop(evicted_key, 0)
                self.evictions += 1
                registry.inc("cache.evictions")
            if registry.enabled:
                registry.gauge("cache.resident_bytes", self.resident_bytes)
            if write_disk and self.disk is not None:
                self.disk.put(key, value)

    def clear(self) -> None:
        """Drop all in-memory entries and reset every counter.

        The disk tier, if attached, is left untouched — clearing memory
        is how a disk-warm run proves the durable tier alone can serve
        the campaign.
        """
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.resident_bytes = 0

    def stats(self) -> dict[str, Any]:
        """Counters for reporting: entries, hits, misses, evictions, bytes.

        With a disk tier attached, its counters nest under ``"disk"``.
        """
        with self._lock:
            stats: dict[str, Any] = {
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "resident_bytes": self.resident_bytes,
            }
            if self.disk is not None:
                stats["disk"] = self.disk.stats()
            return stats

    def __len__(self) -> int:
        return len(self._data)


_DAY_CACHE = DayResultCache()


def day_cache() -> DayResultCache:
    """The process-wide day-result cache singleton."""
    return _DAY_CACHE


def _context(scenario: Scenario) -> tuple[str, TakedownScenario]:
    return scenario.config.content_hash(), scenario.takedown


def _key(
    kind: str,
    config_hash: str,
    takedown: TakedownScenario,
    vantage: str | None,
    day: int,
    with_takedown: bool,
    extra: Any = None,
) -> tuple:
    # The takedown scenario is a frozen dataclass; its repr is a stable
    # fingerprint of every behavioural parameter.
    return (kind, config_hash, repr(takedown), vantage, int(day), bool(with_takedown), extra)


def _cache_split(
    days: list[int], key_of: Callable[[int], tuple], cache: bool
) -> tuple[dict[int, Any], list[int]]:
    """The cache-read prelude: ``days`` split into cached values and misses.

    Hits replay their recorded deltas (see :func:`_cache_get`); with
    ``cache`` off every day misses. The misses are what the caller
    dispatches, and are counted as ``parallel.days_dispatched``.
    """
    hits: dict[int, Any] = {}
    missing: list[int] = []
    for day in days:
        hit = _cache_get(key_of(day)) if cache else None
        if hit is None:
            missing.append(day)
        else:
            hits[day] = hit[0]
    if missing:
        metrics().inc("parallel.days_dispatched", len(missing))
    return hits, missing


# -- public day-pipeline helpers ----------------------------------------------


def observed_days(
    scenario: Scenario,
    vantage: str,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    batch_days: int = 0,
) -> list[FlowTable]:
    """One observed flow table per day, in ``days`` order.

    Cached days are returned immediately; the rest run through
    :func:`_dispatch` (``jobs`` workers, ``batch_days`` days per pool
    task, 0 = auto) and are cached on the way back.
    """
    with metrics().span("parallel.observed_days"):
        days = [int(d) for d in days]
        config_hash, takedown = _context(scenario)

        def key(day: int) -> tuple:
            return _key("observed", config_hash, takedown, vantage, day, with_takedown)

        results, missing = _cache_split(days, key, cache)
        task = partial(_observed, vantage=vantage, with_takedown=with_takedown)
        for day, table, deltas in _dispatch(scenario, task, missing, jobs, batch_days):
            results[day] = table
            if cache:
                _cache_put(key(day), table, deltas)
        return [results[day] for day in days]


def daily_port_counts(
    scenario: Scenario,
    vantage: str,
    selectors: Sequence[Any],
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    batch_days: int = 0,
) -> dict[int, dict[str, int]]:
    """Per-day packet counts per selector, keyed by day.

    With the cache enabled, a day is served from its cached counts,
    derived from a cached observed table if one exists, or regenerated.
    Pool workers ship back only the reduced counts (never flow tables);
    inline runs reduce in the parent and also cache the observed table,
    so later experiments over the same days (any reduction) reuse it.
    """
    with metrics().span("parallel.daily_port_counts"):
        selectors = list(selectors)
        fingerprint = tuple((s.name, s.port, s.direction) for s in selectors)
        config_hash, takedown = _context(scenario)

        def observed_key(day: int) -> tuple:
            return _key("observed", config_hash, takedown, vantage, day, with_takedown)

        def ports_key(day: int) -> tuple:
            return _key("ports", config_hash, takedown, vantage, day, with_takedown, fingerprint)

        def reduce(observed: FlowTable) -> dict[str, int]:
            return {s.name: s.packets(observed) for s in selectors}

        counts: dict[int, dict[str, int]] = {}
        missing: list[int] = []
        for day in [int(d) for d in days]:
            if cache:
                hit = _cache_get(ports_key(day))
                if hit is not None:
                    counts[day] = hit[0]
                    continue
                hit = _cache_get(observed_key(day))
                if hit is not None:
                    observed, deltas = hit
                    counts[day] = reduce(observed)
                    _cache_put(ports_key(day), counts[day], deltas)
                    continue
            missing.append(day)
        if missing:
            metrics().inc("parallel.days_dispatched", len(missing))
        pooled = _use_pool(jobs, len(missing))
        task = partial(_observed, vantage=vantage, with_takedown=with_takedown)
        if pooled:
            task = partial(
                _port_counts, vantage=vantage, with_takedown=with_takedown, selectors=selectors
            )
        for day, value, deltas in _dispatch(scenario, task, missing, jobs, batch_days):
            if not pooled:
                if cache:
                    _cache_put(observed_key(day), value, deltas)
                value = reduce(value)
            counts[day] = value
            if cache:
                _cache_put(ports_key(day), value, deltas)
        return counts


def streaming_ingest(
    scenario: Scenario,
    vantage: str,
    analyzer: Any,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    batch_days: int = 0,
) -> Any:
    """Feed ``days`` through ``analyzer``, optionally over the pool.

    Cached observed days are ingested directly in the parent. Inline,
    the remaining days are observed, cached and ingested one at a time.
    Pooled, the analyzer must implement the merge protocol
    (``clone_empty()`` + ``merge(other)``): days are pre-chunked to
    ``batch_days`` per clone (auto-sized by default), each pool task
    ingests one chunk into its clone, and the clones fold back
    order-independently.
    """
    with metrics().span("parallel.streaming_ingest"):
        days = [int(d) for d in days]
        config_hash, takedown = _context(scenario)

        def key(day: int) -> tuple:
            return _key("observed", config_hash, takedown, vantage, day, with_takedown)

        cached, pending = _cache_split(days, key, cache)
        for day, observed in cached.items():
            analyzer.ingest_day(day, observed)
        pooled = _use_pool(jobs, len(pending))
        items: list[Any] = pending
        task = partial(_observed, vantage=vantage, with_takedown=with_takedown)
        if pooled:
            if not (hasattr(analyzer, "clone_empty") and hasattr(analyzer, "merge")):
                raise TypeError(
                    "parallel collect_streaming needs an analyzer with the merge "
                    "protocol (clone_empty() and merge()); got "
                    f"{type(analyzer).__name__}"
                )
            size = resolve_batch(len(pending), resolve_jobs(jobs), batch_days)
            items = [
                (tuple(pending[i : i + size]), analyzer.clone_empty())
                for i in range(0, len(pending), size)
            ]
            task = partial(_ingest_chunk, vantage=vantage, with_takedown=with_takedown)
        # A pooled item is already a chunk of days sharing one analyzer
        # clone, so the pool maps the chunks unbatched (batch=1).
        for item, value, deltas in _dispatch(scenario, task, items, jobs, batch_days=1):
            if pooled:
                analyzer.merge(value)
                continue
            if cache:
                _cache_put(key(item), value, deltas)
            analyzer.ingest_day(item, value)
        return analyzer


def day_events(
    scenario: Scenario,
    day: int,
    with_takedown: bool = True,
    cache: bool = False,
) -> list:
    """Ground-truth attack events for ``day`` (cached; no flow synthesis)."""
    config_hash, takedown = _context(scenario)
    key = _key("events", config_hash, takedown, None, day, with_takedown)
    if cache:
        hit = _cache_get(key)
        if hit is not None:
            return hit[0]
    registry = metrics()
    before = _counters_snapshot(registry)
    events = scenario.day_events(day, with_takedown=with_takedown)
    if cache:
        _cache_put(key, events, _counters_delta(registry, before))
    return events


def day_attack_tables(
    scenario: Scenario,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    batch_days: int = 0,
) -> list[FlowTable]:
    """Ground-truth attack flow tables per day, in ``days`` order."""
    with metrics().span("parallel.day_attack_tables"):
        days = [int(d) for d in days]
        config_hash, takedown = _context(scenario)

        def key(day: int) -> tuple:
            return _key("attack", config_hash, takedown, None, day, with_takedown)

        results, missing = _cache_split(days, key, cache)
        task = partial(_attack_table, with_takedown=with_takedown)
        for day, table, deltas in _dispatch(scenario, task, missing, jobs, batch_days):
            results[day] = table
            if cache:
                _cache_put(key(day), table, deltas)
        return [results[day] for day in days]
