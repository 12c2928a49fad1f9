"""Day products: one synthesis per day, every reduction derived from it.

Every per-day random stream in the simulator is derived from the
scenario's :class:`~repro.stats.rng.SeedSequenceTree` by *path* —
``("traffic", day)``, ``("observe", vantage, day)``, ``("demand", day)``
and so on — never by drawing from a shared generator. A day's traffic
therefore does not depend on which days were generated before it, in
which order, or in which process. This module exploits that:

* a consumer declares what it reads as a :class:`DayNeed`: one
  reduction — the observed table, per-selector port counts, a one-day
  streaming-analyzer clone, or the ground-truth attack table — of one
  vantage over a day range;
* a plan is a union of needs; it runs **one product task per distinct
  ``(day, with_takedown)``** (:func:`_day_product`): synthesize the day
  once, observe each needed vantage once (sharing the day's visibility
  pair index), compute every requested reduction in place and ship back
  only those;
* products run through one dispatch helper, :func:`_dispatch` — inline
  on the live scenario (``jobs=1``, or a single item) or on the
  persistent warm pool of :mod:`repro.core.workerpool`, with day
  batching — and land in the day cache on the way back;
* :func:`run_plan` executes a run's whole union up front (the
  experiment runner does this once, before the first experiment); the
  fan-out entry points (:func:`observed_days`, :func:`daily_port_counts`,
  :func:`streaming_ingest`, :func:`day_attack_tables`) are views that
  read their need from the cache and plan only the days it lacks;
* per-day results merge through order-independent reductions — series
  keyed by day, HyperLogLog register max, per-destination max/sum — so
  ``jobs=1`` and ``jobs=N`` are **bit-identical**.

Logical counters (``scenario.*``, ``streaming.*``) describe the dataset
a consumer processed, not the physical work a strategy happened to run.
A product therefore carries, per reduction, the logical deltas of the
stages it derives from (synthesis, that vantage's observation, the
reduction) and records none itself; every consumer replays the deltas
of what it reads, from the cache or fresh. Per-experiment counters and
the run digest are thereby identical for any ``jobs``, cache state or
plan. The physical ``parallel.days_synthesized`` and
``parallel.distinct_days`` counters show how many syntheses ran for how
many distinct days.

Products land in the process-wide :class:`DayResultCache`
(:mod:`repro.core.daycache`, re-exported here) under ``(kind, config
content hash, takedown, vantage, day, with_takedown, extra)``, ``extra``
being the selector or analyzer fingerprint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.booter.takedown import TakedownScenario
from repro.core.daycache import DayResultCache, day_cache
from repro.core.workerpool import (
    get_pool,
    record_inline_pool,
    register_scenario,
    resolve_batch,
    scenario_for,
)
from repro.flows.records import FlowTable
from repro.obs import metrics
from repro.obs.runledger import DETERMINISTIC_PREFIXES
from repro.scenario.config import ScenarioConfig
from repro.scenario.scenario import Scenario

__all__ = [
    "DayNeed",
    "DayResultCache",
    "day_cache",
    "resolve_jobs",
    "register_scenario",
    "run_plan",
    "daily_port_counts",
    "observed_days",
    "streaming_ingest",
    "day_events",
    "day_attack_tables",
]

#: What a product task can derive from one vantage's view of a day.
REDUCTIONS = ("observed", "ports", "stream", "attack")


@dataclass(frozen=True)
class DayNeed:
    """What one consumer reads: one reduction of each day in ``days``.

    ``reduction`` is ``"observed"`` (the vantage's observed table),
    ``"ports"`` (per-selector packet counts of it, over ``selectors``),
    ``"stream"`` (a clone of ``analyzer`` that ingested just that day;
    the analyzer implements ``clone_empty()``, ``merge()`` and
    ``fingerprint()``) or ``"attack"`` (the ground-truth attack table;
    ``vantage`` is ``None``).
    """

    reduction: str
    vantage: str | None
    days: tuple[int, ...]
    with_takedown: bool = True
    selectors: tuple = ()
    analyzer: Any = None

    def __post_init__(self) -> None:
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r} (have {REDUCTIONS})")
        object.__setattr__(self, "days", tuple(int(d) for d in self.days))
        object.__setattr__(self, "selectors", tuple(self.selectors))

    @property
    def day_range(self) -> tuple[int, int]:
        """The half-open range of a contiguous ``days``."""
        return self.days[0], self.days[-1] + 1

    @property
    def part(self) -> tuple[str, str | None, Any]:
        """What the product task computes for this need on each day."""
        arg = self.selectors if self.reduction == "ports" else self.analyzer
        return self.reduction, self.vantage, arg

    @property
    def ident(self) -> tuple[str, str | None, Any]:
        """The need's cache identity: ``(kind, vantage, fingerprint)``."""
        extra = None
        if self.reduction == "ports":
            extra = tuple((s.name, s.port, s.direction) for s in self.selectors)
        elif self.reduction == "stream":
            extra = self.analyzer.fingerprint()
        return self.reduction, self.vantage, extra


# -- the product task (module-level: must pickle) ------------------------------


def _logical(fn: Callable[..., Any], *args: Any) -> tuple[Any, dict[str, float] | None]:
    """``fn(*args)`` with the logical counters it recorded, taken aside.

    Everything else ``fn`` records — spans, trace events, physical
    counters — stays in the active registry; the logical (digested)
    counters are taken back out and returned, for consumers to replay.
    ``None`` when the registry is off.
    """
    registry = metrics()
    if not registry.enabled:
        return fn(*args), None
    counters = registry.counters
    before = {n: v for n, v in counters.items() if n.startswith(DETERMINISTIC_PREFIXES)}
    result = fn(*args)
    deltas = {}
    for name in [n for n in counters if n.startswith(DETERMINISTIC_PREFIXES)]:
        if counters[name] != before.get(name, 0):
            deltas[name] = counters[name] - before.get(name, 0)
            if name in before:
                counters[name] = before[name]
            else:
                del counters[name]
    return result, deltas


def _sum_deltas(*deltas: dict[str, float] | None) -> dict[str, float] | None:
    if any(d is None for d in deltas):
        return None
    total: dict[str, float] = {}
    for part in deltas:
        for name, value in part.items():
            total[name] = total.get(name, 0) + value
    return total


def _reduce(part: tuple[str, str | None, Any], day: int, table: FlowTable) -> Any:
    """One need's value for ``day``, from the vantage's observed table."""
    reduction, _, arg = part
    if reduction == "ports":
        return {s.name: s.packets(table) for s in arg}
    if reduction == "stream":
        clone = arg.clone_empty()
        clone.ingest_day(day, table)
        return clone
    return table


def _day_product(scenario: Scenario, item: tuple) -> tuple:
    """The product task: every part a plan asked of one day.

    ``item`` is ``(day, with_takedown, parts)``. The day is synthesized
    once and each vantage observed once; the result holds one ``(value,
    deltas)`` per part, in order, ``deltas`` being the logical counters
    of the stages that value derives from.
    """
    day, with_takedown, parts = item
    metrics().inc("parallel.days_synthesized")
    traffic, synthesized = _logical(scenario.day_traffic, day, with_takedown)
    views: dict[str, tuple[FlowTable, dict[str, float] | None]] = {}
    product = []
    for part in parts:
        vantage = part[1]
        if part[0] == "attack":
            product.append((traffic.attack, synthesized))
            continue
        if vantage not in views:
            views[vantage] = _logical(scenario.observe_day, vantage, traffic)
        table, observed = views[vantage]
        value, reduced = _logical(_reduce, part, day, table)
        product.append((value, _sum_deltas(synthesized, observed, reduced)))
    return tuple(product)


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


#: Auto-batching cap: a batch's products (observed tables included)
#: wait in the worker until the whole batch is done, so bounding the
#: batch bounds what a worker holds at once.
PLAN_BATCH_DAYS = 3


def _dispatch(
    scenario: Scenario,
    task: Callable[[Scenario, Any], Any],
    items: Sequence[Any],
    jobs: int | None,
    batch_days: int = 0,
) -> Iterator[tuple[Any, Any]]:
    """Yield ``(item, task(scenario, item))`` for every item, in order.

    Pooled fans go to :func:`repro.core.workerpool.get_pool` with
    ``batch_days`` items per task (0 = auto, at most
    :data:`PLAN_BATCH_DAYS`). Inline fans run lazily, one item per step,
    on the live scenario — so a caller that drops each result before the
    next never holds the whole range — and, once exhausted, record the
    same ``pool.*`` counter family with one worker, keeping ``--jobs 1``
    profiles comparable with pooled runs.
    """
    if _use_pool(jobs, len(items)):
        workers = resolve_jobs(jobs)
        remote = partial(_on_worker, task, scenario.config, scenario.takedown)
        batch = batch_days or min(PLAN_BATCH_DAYS, resolve_batch(len(items), workers, 0))
        pairs = get_pool(scenario, workers).map_with_deltas(remote, items, batch=batch)
        for item, (result, _) in zip(items, pairs):
            yield item, result
        return
    registry = metrics()
    start = time.perf_counter()
    for item in items:
        yield item, task(scenario, item)
    record_inline_pool(registry, len(items), time.perf_counter() - start)


# -- cache access and counter replay -----------------------------------------


def _replay(deltas: dict[str, float] | None) -> None:
    """Record a consumed value's logical counters in the active registry.

    Entries computed while the registry was disabled carry no deltas and
    replay nothing — within one runner invocation the enabled state is
    constant, so exports stay strategy-independent.
    """
    registry = metrics()
    if registry.enabled and deltas:
        for name, amount in deltas.items():
            registry.inc(name, amount)


def _cache_put(key: tuple, value: Any, deltas: dict[str, float] | None) -> None:
    """Cache a day result together with the logical counters it carries."""
    day_cache().put(key, (value, deltas))


def _cache_get(key: tuple) -> tuple[Any, dict[str, float] | None] | None:
    """A cached ``(value, deltas)`` entry, replaying the deltas.

    Replay makes a hit indistinguishable from regeneration as far as the
    logical counters are concerned.
    """
    entry = day_cache().get(key)
    if entry is not None:
        _replay(entry[1])
    return entry


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


def _need_key(
    context: tuple[str, TakedownScenario], ident: tuple, day: int, with_takedown: bool
) -> tuple:
    kind, vantage, extra = ident
    return _key(kind, *context, vantage, day, with_takedown, extra)


# -- plans ---------------------------------------------------------------------


def _execute(
    scenario: Scenario,
    needs: Iterable[DayNeed],
    jobs: int,
    cache: bool,
    batch_days: int,
) -> Iterator[tuple[tuple, int, Any, dict[str, float] | None]]:
    """Run the union of ``needs``: one product task per (day, with_takedown).

    Yields ``(ident, day, value, deltas)`` for every need part of every
    planned day, storing each cacheable one when ``cache`` is on. Yields
    replay nothing: consumers replay what they read.
    """
    plan: dict[tuple[int, bool], dict[tuple, tuple]] = {}
    for need in needs:
        ident, part = need.ident, need.part
        for day in need.days:
            plan.setdefault((day, need.with_takedown), {})[ident] = part
    if not plan:
        return
    context = _context(scenario)
    metrics().inc(
        "parallel.distinct_days",
        day_cache().note_syntheses(_need_key(context, ("day", None, None), *slot) for slot in plan),
    )
    items = [(day, wt, tuple(parts.values())) for (day, wt), parts in sorted(plan.items())]
    for (day, wt, _), product in _dispatch(scenario, _day_product, items, jobs, batch_days):
        for ident, (value, deltas) in zip(plan[day, wt], product):
            if cache:
                _cache_put(_need_key(context, ident, day, wt), value, deltas)
            yield ident, day, value, deltas


def run_plan(
    scenario: Scenario,
    needs: Iterable[DayNeed],
    jobs: int = 1,
    batch_days: int = 0,
) -> None:
    """Compute and cache every day of ``needs`` the day cache lacks.

    The union runs as one plan, so each ``(day, with_takedown)`` any need
    still lacks is synthesized once, whatever vantages and reductions
    read it. Lookups here replay nothing; the consumers' views do.
    """
    with metrics().span("parallel.run_plan"):
        context = _context(scenario)
        pending = []
        for need in needs:
            ident = need.ident
            days = [
                day
                for day in need.days
                if day_cache().get(_need_key(context, ident, day, need.with_takedown)) is None
            ]
            if days:
                pending.append(replace(need, days=days))
        for _ in _execute(scenario, pending, jobs, True, batch_days):
            pass


def _view(
    scenario: Scenario, need: DayNeed, jobs: int, cache: bool, batch_days: int
) -> dict[int, Any]:
    """``need``'s value per day, replaying the deltas of each value read.

    With the cache on, a day is served from its cached value, else (port
    counts and streams) reduced from the vantage's cached observed table,
    else planned; the planned days run as one :func:`_execute` pass.
    """
    ident, context = need.ident, _context(scenario)
    observed = ("observed", need.vantage, None)
    values: dict[int, Any] = {}
    missing: list[int] = []
    for day in need.days:
        key = _need_key(context, ident, day, need.with_takedown)
        hit = _cache_get(key) if cache else None
        if hit is None and cache and need.reduction in ("ports", "stream"):
            table = _cache_get(_need_key(context, observed, day, need.with_takedown))
            if table is not None:
                value, reduced = _logical(_reduce, need.part, day, table[0])
                _replay(reduced)
                hit = value, _sum_deltas(table[1], reduced)
                _cache_put(key, *hit)
        if hit is None:
            missing.append(day)
        else:
            values[day] = hit[0]
    if missing:
        fresh = _execute(scenario, [replace(need, days=missing)], jobs, cache, batch_days)
        for _, day, value, deltas in fresh:
            _replay(deltas)
            values[day] = value
    return values


# -- the fan-out views ----------------------------------------------------------


def observed_days(
    scenario: Scenario,
    vantage: str,
    days: Iterable[int],
    with_takedown: bool = True,
    jobs: int = 1,
    cache: bool = False,
    batch_days: int = 0,
) -> list[FlowTable]:
    """One observed flow table per day, in ``days`` order."""
    with metrics().span("parallel.observed_days"):
        need = DayNeed("observed", vantage, days, with_takedown)
        values = _view(scenario, need, jobs, cache, batch_days)
        return [values[day] for day in need.days]


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

    Workers reduce in place and ship back only the counts, never the
    observed tables.
    """
    with metrics().span("parallel.daily_port_counts"):
        need = DayNeed("ports", vantage, days, with_takedown, selectors=selectors)
        values = _view(scenario, need, jobs, cache, batch_days)
        return {day: values[day] for day in need.days}


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
    """Fold ``days`` into ``analyzer`` through one-day clones.

    The analyzer must implement the merge protocol (``clone_empty()`` +
    ``merge(other)``, plus ``fingerprint()`` to key its clones in the
    day cache): each day's product ingests the day into an empty clone,
    and the clones fold back order-independently, bit-identical to
    ingesting the days one by one.
    """
    with metrics().span("parallel.streaming_ingest"):
        if not all(hasattr(analyzer, m) for m in ("clone_empty", "merge", "fingerprint")):
            raise TypeError(
                "streaming_ingest needs an analyzer with the merge protocol "
                "(clone_empty(), merge() and fingerprint()); got "
                f"{type(analyzer).__name__}"
            )
        need = DayNeed("stream", vantage, days, with_takedown, analyzer=analyzer.clone_empty())
        values = _view(scenario, need, jobs, cache, batch_days)
        for day in need.days:
            analyzer.merge(values[day])
        return analyzer


def day_events(
    scenario: Scenario,
    day: int,
    with_takedown: bool = True,
    cache: bool = False,
) -> list:
    """Ground-truth attack events for ``day`` (cached; no flow synthesis)."""
    key = _key("events", *_context(scenario), None, day, with_takedown)
    if cache:
        hit = _cache_get(key)
        if hit is not None:
            return hit[0]
    events, deltas = _logical(scenario.day_events, day, with_takedown)
    _replay(deltas)
    if cache:
        _cache_put(key, events, deltas)
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
        need = DayNeed("attack", None, days, with_takedown)
        values = _view(scenario, need, jobs, cache, batch_days)
        return [values[day] for day in need.days]
