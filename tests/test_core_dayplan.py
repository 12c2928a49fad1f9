"""Day plans: one synthesis per (day, takedown) for any union of needs."""

import json
import sys

import numpy as np
import pytest

from repro.booter.market import MarketConfig
from repro.core.daycache import DayResultCache, _approx_nbytes
from repro.core.parallel import (
    DayNeed,
    daily_port_counts,
    day_cache,
    observed_days,
    run_plan,
    streaming_ingest,
)
from repro.core.pipeline import TrafficSelector
from repro.core.streaming import StreamingAnalyzer
from repro.netmodel.topology import TopologyConfig
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.runledger import counter_digest
from repro.scenario import Scenario, ScenarioConfig

SELECTORS = (
    TrafficSelector("ntp_to", 123, "to_reflectors"),
    TrafficSelector("ntp_from", 123, "from_reflectors"),
)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        ScenarioConfig(
            scale=0.1,
            topology=TopologyConfig(n_tier1=3, n_tier2=10, n_stub=60),
            market=MarketConfig(daily_attacks=60.0, n_victims=300),
            pool_sizes=(
                ("ntp", 1500),
                ("dns", 1000),
                ("cldap", 400),
                ("memcached", 200),
                ("ssdp", 250),
            ),
        )
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    day_cache().clear()
    yield
    day_cache().clear()


def _two_needs() -> list[DayNeed]:
    """Port counts at the IXP and tier-2 tables over overlapping days."""
    return [
        DayNeed("ports", "ixp", range(40, 43), selectors=SELECTORS),
        DayNeed("observed", "tier2", range(41, 44)),
    ]


def _read(scenario, cache: bool):
    counts = daily_port_counts(scenario, "ixp", SELECTORS, range(40, 43), cache=cache)
    tables = observed_days(scenario, "tier2", range(41, 44), cache=cache)
    return counts, tables


class TestDayPlan:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_union_synthesizes_each_day_once(self, scenario, jobs):
        registry = MetricsRegistry()
        with use_metrics(registry):
            run_plan(scenario, _two_needs(), jobs=jobs)
        # Days 40..43: four syntheses for two needs over six (need, day)s.
        assert registry.counter("parallel.days_synthesized") == 4
        assert registry.counter("parallel.distinct_days") == 4
        # The plan itself records no logical counters; readers replay them.
        assert counter_digest(registry.counters) == counter_digest({})

        hits = day_cache().hits
        reads = MetricsRegistry()
        with use_metrics(reads):
            counts, tables = _read(scenario, cache=True)
        assert day_cache().hits == hits + 6
        assert reads.counter("parallel.days_synthesized") == 0
        plain_counts, plain_tables = _read(scenario, cache=False)
        assert counts == plain_counts
        for a, b in zip(tables, plain_tables):
            np.testing.assert_array_equal(a["packets"], b["packets"])
            np.testing.assert_array_equal(a["dst_ip"], b["dst_ip"])

    def test_planned_reads_replay_the_uncached_counters(self, scenario):
        cold = MetricsRegistry()
        with use_metrics(cold):
            _read(scenario, cache=False)
        # Products carry deltas only when computed under a recording
        # registry (as the runner's plan is whenever experiments record).
        with use_metrics(MetricsRegistry()):
            run_plan(scenario, _two_needs())
        warm = MetricsRegistry()
        with use_metrics(warm):
            _read(scenario, cache=True)
        assert cold.counter("scenario.days_generated") == 6
        assert counter_digest(cold.counters) == counter_digest(warm.counters)

    def test_resynthesis_is_counted(self, scenario):
        """Uncached views plan one call at a time: re-reading a day
        shows as more syntheses than distinct days."""
        registry = MetricsRegistry()
        with use_metrics(registry):
            observed_days(scenario, "ixp", [40, 41])
            observed_days(scenario, "tier2", [40, 41])
        assert registry.counter("parallel.days_synthesized") == 4
        assert registry.counter("parallel.distinct_days") == 2

    def test_plan_skips_cached_days(self, scenario):
        observed_days(scenario, "tier2", [41, 42], cache=True)
        registry = MetricsRegistry()
        with use_metrics(registry):
            run_plan(scenario, [DayNeed("observed", "tier2", range(41, 44))])
        assert registry.counter("parallel.days_synthesized") == 1

    def test_stream_clones_match_a_one_by_one_pass(self, scenario):
        def fresh():
            return StreamingAnalyzer(
                list(SELECTORS), n_days=scenario.config.n_days, sampling_factor=10_000.0
            )

        days = range(40, 44)
        one_by_one = fresh()
        for day in days:
            one_by_one.ingest_day(day, scenario.observe_day("ixp", scenario.day_traffic(day)))
        run_plan(scenario, [DayNeed("stream", "ixp", days, analyzer=fresh())], jobs=2)
        hits = day_cache().hits
        merged = streaming_ingest(scenario, "ixp", fresh(), days, cache=True)
        assert day_cache().hits == hits + len(days)
        np.testing.assert_array_equal(merged.hourly_attacks, one_by_one.hourly_attacks)
        for name in ("ntp_to", "ntp_from"):
            np.testing.assert_array_equal(merged.daily_series(name), one_by_one.daily_series(name))
        a, b = merged.victim_stats(), one_by_one.victim_stats()
        np.testing.assert_array_equal(a.destinations, b.destinations)
        np.testing.assert_array_equal(a.unique_sources_estimate, b.unique_sources_estimate)
        np.testing.assert_array_equal(a.peak_bps, b.peak_bps)

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError, match="reduction"):
            DayNeed("tables", "ixp", [40])


class TestCachedAnalyzerSize:
    def test_counts_arrays_and_sketch_registers(self, scenario):
        analyzer = StreamingAnalyzer(
            list(SELECTORS), n_days=scenario.config.n_days, sampling_factor=10_000.0
        )
        streaming_ingest(scenario, "ixp", analyzer, [40, 41])
        sketches = analyzer._sources._sketches
        assert sketches
        expected = (
            sum(a.nbytes for a in analyzer.daily.values())
            + analyzer.hourly_attacks.nbytes
            + sum(s.registers.nbytes for s in sketches.values())
        )
        assert _approx_nbytes(analyzer) == expected
        assert expected > 100 * sys.getsizeof(analyzer)
        cache = DayResultCache()
        cache.put(("stream",), (analyzer, None))
        assert cache.resident_bytes >= expected


class TestRunnerDayPlan:
    def test_hits_digest_and_synthesis_identical_across_jobs(self, tmp_path):
        """fig2b, fig4 and fig5 read one 81-day plan: every experiment
        hits the cache alike at jobs 1 and 2, with one digest, and each
        distinct day is synthesized once."""
        from repro.experiments.runner import main

        exports = {}
        for jobs in (1, 2):
            day_cache().clear()
            out = tmp_path / f"metrics_{jobs}.json"
            argv = ["fig2b", "fig4", "fig5", "--jobs", str(jobs), "--metrics-out", str(out)]
            assert main(argv + ["--log-level", "warning"]) == 0
            exports[jobs] = json.loads(out.read_text())

        def lookups(export):
            return {
                name: (e["counters"].get("cache.hits", 0), e["counters"].get("cache.misses", 0))
                for name, e in export["experiments"].items()
            }

        assert lookups(exports[1]) == lookups(exports[2])
        assert lookups(exports[1])["fig5"] == (81, 0)
        assert len({counter_digest(e["total"]["counters"]) for e in exports.values()}) == 1
        for export in exports.values():
            total = export["total"]["counters"]
            assert total["parallel.days_synthesized"] == total["parallel.distinct_days"] == 81
