"""The process-wide day-result cache.

:class:`DayResultCache` is a bounded LRU of per-day results keyed by
``(kind, config content hash, takedown, vantage, day, with_takedown,
extra)``; :mod:`repro.core.parallel` fills it with day products and
reads it back through its views. Experiments sharing day ranges
(fig2b/fig2c/landscape, fig4/fig5, victimization after honeypot) read
each other's per-day work within a ``repro-experiments`` run instead of
regenerating it.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Iterable

import numpy as np

from repro.flows.records import FlowTable, SCHEMA
from repro.obs import metrics

__all__ = ["DayResultCache", "day_cache"]


def _approx_nbytes(value: Any) -> int:
    """Best-effort size estimate of a cached value, in bytes.

    Exact for flow tables (column buffer sizes) and for anything with an
    integer ``nbytes`` — numpy arrays, streaming analyzers (arrays plus
    sketch registers); recursive for the containers the pipeline caches
    (count dicts, event lists); ``sys.getsizeof`` for everything else.
    """
    if isinstance(value, FlowTable):
        return int(sum(value[name].nbytes for name in SCHEMA))
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if isinstance(value, dict):
        return sum(_approx_nbytes(v) for v in value.values()) + sys.getsizeof(value)
    if isinstance(value, (list, tuple)):
        return sum(_approx_nbytes(v) for v in value) + sys.getsizeof(value)
    return sys.getsizeof(value)


class DayResultCache:
    """Bounded LRU cache of per-day results, content-addressed by config.

    Values are whatever the day products store: observed flow tables,
    per-selector packet counts, one-day streaming-analyzer clones,
    ground-truth event lists or attack tables. Keys embed the scenario
    config's ``content_hash()`` (seed included) and the takedown
    scenario, so two different worlds never collide and two
    identically-configured scenarios share.

    Every lookup and insert also feeds the active metrics registry
    (``cache.hits`` / ``cache.misses`` / ``cache.evictions`` /
    ``cache.bytes_stored`` and the ``cache.resident_bytes`` gauge).

    An optional durable tier (:class:`repro.core.diskcache.DiskDayCache`)
    can be attached with :meth:`attach_disk`: memory misses then consult
    the disk store (a hit is promoted back into memory without being
    rewritten to disk), and inserts write through. Flow tables evicted
    from the memory LRU remain reachable on disk.

    The cache also remembers which ``(config, takedown, day,
    with_takedown)`` this process has synthesized since the last
    :meth:`clear` (:meth:`note_syntheses`), which is what
    ``parallel.distinct_days`` counts.

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
        self._synthesized: set[tuple] = set()
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

    def note_syntheses(self, days: Iterable[tuple]) -> int:
        """Remember synthesized ``days``; returns how many are new."""
        with self._lock:
            new = set(days) - self._synthesized
            self._synthesized |= new
            return len(new)

    def clear(self) -> None:
        """Drop all in-memory entries and reset every counter.

        The disk tier, if attached, is left untouched — clearing memory
        is how a disk-warm run proves the durable tier alone can serve
        the campaign.
        """
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._synthesized.clear()
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
