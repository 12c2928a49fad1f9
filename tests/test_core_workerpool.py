"""Warm worker pool: reuse semantics, inline/pool parity, and batching."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.booter.market import MarketConfig
from repro.core.parallel import daily_port_counts, day_attack_tables, observed_days
from repro.core.pipeline import TrafficSelector
from repro.core.workerpool import (
    WorkerPool,
    get_pool,
    record_inline_pool,
    register_scenario,
    resolve_batch,
    shutdown_pool,
    worker_init_count,
)
from repro.netmodel.topology import TopologyConfig
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.runledger import counter_digest
from repro.scenario import Scenario, ScenarioConfig

SELECTORS = [
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
]


def _config(**overrides) -> ScenarioConfig:
    params = dict(
        scale=0.05,
        topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=40),
        market=MarketConfig(daily_attacks=40.0, n_victims=200),
        pool_sizes=(
            ("ntp", 800),
            ("dns", 500),
            ("cldap", 200),
            ("memcached", 100),
            ("ssdp", 120),
        ),
    )
    params.update(overrides)
    return ScenarioConfig(**params)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(_config())


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _tables_equal(a, b) -> bool:
    return np.array_equal(a.to_structured(), b.to_structured())


class TestWarmPoolReuse:
    def test_pool_survives_consecutive_fans(self, scenario):
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            observed_days(scenario, "ixp", [40, 41], jobs=2)
            observed_days(scenario, "ixp", [42, 43], jobs=2)
            daily_port_counts(
                scenario, "ixp", SELECTORS, [44, 45], jobs=2
            )
        finally:
            set_metrics(previous)
        assert registry.counter("pool.spawns") == 1
        assert registry.counter("pool.reuses") >= 2

    def test_initializer_runs_once_per_worker(self, scenario):
        pool = get_pool(scenario, 2)
        reports = pool.probe()
        # The parent never runs the initializer itself.
        assert worker_init_count() == 0
        by_pid = {r["pid"]: r for r in reports}
        assert len(by_pid) >= 1  # every probe came from a live worker
        for report in by_pid.values():
            assert report["worker_inits"] == 1
            assert scenario.config.content_hash() in report["scenarios"]

    def test_reregistration_shuts_down_stale_pool(self, scenario):
        pool = get_pool(scenario, 2)
        assert not pool.closed
        other = Scenario(_config(seed=7))
        register_scenario(other)
        assert pool.closed
        fresh = get_pool(other, 2)
        assert fresh is not pool
        assert fresh.key[1] == other.config.content_hash()

    def test_same_key_returns_same_pool(self, scenario):
        a = get_pool(scenario, 2)
        b = get_pool(scenario, 2)
        assert a is b
        assert b.reuses == 1
        c = get_pool(scenario, 1)
        assert c is not a
        assert a.closed  # differing key replaced the singleton

    def test_closed_pool_refuses_work(self, scenario):
        pool = get_pool(scenario, 2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.map_with_deltas(len, [[1]])

    def test_inline_mode_never_builds_a_pool(self, scenario):
        # jobs=1 runs inline; so does a single day at jobs=2.
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            observed_days(scenario, "ixp", [40, 41], jobs=1)
            observed_days(scenario, "ixp", [42], jobs=2)
        finally:
            set_metrics(previous)
        assert registry.counter("pool.spawns") == 0
        assert registry.counter("pool.tasks") == 3
        with pytest.raises(ValueError):
            WorkerPool(0, scenario.config)


class TestExecutorParity:
    def test_results_and_digest_identical_across_modes(self, scenario):
        """Inline (jobs=1) and the process pool (jobs=2) agree exactly."""
        days = [40, 41, 42, 43]
        tables = {}
        digests = {}
        for jobs in (1, 2):
            registry = MetricsRegistry(enabled=True)
            previous = set_metrics(registry)
            try:
                tables[jobs] = observed_days(scenario, "ixp", days, jobs=jobs)
            finally:
                set_metrics(previous)
            shutdown_pool()
            digests[jobs] = counter_digest(registry.counters)
        assert len(set(digests.values())) == 1, digests
        for a, b in zip(tables[1], tables[2]):
            assert _tables_equal(a, b)

    def test_digest_identical_across_batch_sizes(self, scenario):
        days = list(range(40, 46))
        digests = {}
        baseline = None
        for batch in (1, 2, 6):
            registry = MetricsRegistry(enabled=True)
            previous = set_metrics(registry)
            try:
                counts = daily_port_counts(
                    scenario, "ixp", SELECTORS, days,
                    jobs=2, batch_days=batch,
                )
            finally:
                set_metrics(previous)
            shutdown_pool()
            digests[batch] = counter_digest(registry.counters)
            if baseline is None:
                baseline = counts
            else:
                assert counts == baseline
        assert len(set(digests.values())) == 1, digests

    def test_inline_records_pool_counter_family(self, scenario):
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            observed_days(scenario, "ixp", [40, 41], jobs=1)
        finally:
            set_metrics(previous)
        assert registry.counter("pool.tasks") == 2
        assert registry.counter("pool.wall_s") > 0
        assert registry.counter("pool.capacity_s") == registry.counter("pool.wall_s")
        assert registry.counter("pool.busy_s") > 0
        assert registry.gauges["pool.workers"] == 1

    def test_record_inline_pool_noop_when_disabled(self):
        registry = MetricsRegistry(enabled=False)
        record_inline_pool(registry, 5, 1.0)
        assert registry.counter("pool.tasks") == 0
        record_inline_pool(MetricsRegistry(enabled=True), 0, 1.0)  # no tasks, no-op


class TestDayBatching:
    def test_resolve_batch_auto_and_explicit(self):
        # Auto: about _OVERSUBSCRIBE batches per worker.
        assert resolve_batch(16, 2, None) == 2
        assert resolve_batch(16, 2, 0) == 2
        assert resolve_batch(3, 2, None) == 1
        # Explicit, clamped to the item count.
        assert resolve_batch(10, 2, 4) == 4
        assert resolve_batch(2, 2, 100) == 2
        assert resolve_batch(1, 2, 0) == 1

    def test_batching_collapses_dispatches(self, scenario):
        days = list(range(40, 46))
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            observed_days(
                scenario, "ixp", days, jobs=2, batch_days=3
            )
        finally:
            set_metrics(previous)
        assert registry.counter("pool.tasks") == 6
        assert registry.counter("pool.batches") == 2
        assert registry.gauges["pool.batch_size"] == 3

    def test_per_day_deltas_survive_batching(self, scenario):
        days = [40, 41, 42, 43]
        per_batch = {}
        for batch in (1, 4):
            registry = MetricsRegistry(enabled=True)
            previous = set_metrics(registry)
            try:
                day_attack_tables(
                    scenario, days, jobs=2,
                    batch_days=batch, cache=True,
                )
            finally:
                set_metrics(previous)
            shutdown_pool()
            from repro.core.parallel import day_cache

            per_batch[batch] = registry.counter("scenario.days_generated")
            day_cache().clear()
        # The logical work counters are batch-size invariant.
        assert per_batch[1] == per_batch[4] == len(days)


class TestHypothesisTransportInvariance:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batch=st.integers(min_value=1, max_value=5))
    def test_batch_counts_never_change_results(self, scenario, batch):
        """The batch size is invisible in pooled results and in the
        scenario.* replay deltas."""
        days = [40, 41, 42]
        expected = observed_days(scenario, "ixp", days, jobs=1)
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            tables = observed_days(scenario, "ixp", days, jobs=2, batch_days=batch)
        finally:
            set_metrics(previous)
        for a, b in zip(expected, tables):
            assert _tables_equal(a, b)
        assert registry.gauges["pool.batch_size"] == min(batch, len(days))
        assert registry.counter("scenario.days_generated") == len(days)
        assert registry.counter("scenario.flows_synthesized") >= 1.0
