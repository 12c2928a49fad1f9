"""Parity of the vectorized topology/visibility planes with the oracles.

The batched Gao-Rexford route engine and the column-block visibility
matrix must reproduce the per-destination dict BFS and the per-pair
path-walk oracle (``tests/oracles``) bit for bit over any topology, and
the matrix must give the same verdicts whatever its block width. These
properties are asserted over randomized small worlds (hypothesis) plus
directed regressions for the LRU bounds and index fallbacks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netmodel.topology import TopologyConfig, build_topology
from repro.obs import MetricsRegistry, use_metrics
from repro.stats.rng import SeedSequenceTree
from repro.vantage.matrix import VisibilityMatrix
from repro.vantage.visibility import FlowVisibility
from tests.oracles.routes import routes_to, routes_to_legacy
from tests.oracles.visibility import OracleVisibility

slow_settings = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

topo_configs = st.builds(
    TopologyConfig,
    n_tier1=st.integers(2, 4),
    n_tier2=st.integers(2, 8),
    n_stub=st.integers(4, 24),
    tier2_ixp_member_fraction=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
    stub_ixp_member_fraction=st.sampled_from([0.0, 0.2, 0.5]),
    tier2_peering_prob=st.sampled_from([0.0, 0.2, 0.6]),
)


def _world(config, seed):
    return build_topology(config, SeedSequenceTree(seed).child("w"))


def _entry_tuples(routes):
    return {asn: (e.kind, e.length, e.next_hop) for asn, e in routes.items()}


def _many_blocks(topo, width):
    """A matrix forced down to ``width``-column blocks: with a budget below
    one full view, the derived width falls to the base width."""
    matrix = VisibilityMatrix(topo)
    matrix.base_block_columns = width
    matrix.budget_bytes = 1
    return matrix


class TestRouteEngineParity:
    @slow_settings
    @given(config=topo_configs, seed=st.integers(0, 2**32 - 1))
    def test_array_engine_matches_legacy_bfs(self, config, seed):
        """Every destination's route tree is identical across engines."""
        _, topo = _world(config, seed)
        for dst in topo.asns:
            assert _entry_tuples(routes_to(topo, dst)) == _entry_tuples(
                routes_to_legacy(topo, dst)
            ), dst

    @slow_settings
    @given(config=topo_configs, seed=st.integers(0, 2**32 - 1))
    def test_routes_to_many_matches_single(self, config, seed):
        _, topo = _world(config, seed)
        dsts = topo.asns
        kind, length, hop = topo.routes_to_many(dsts)
        for row, dst in enumerate(dsts):
            k, l, h = topo.routes_to_arrays(dst)
            np.testing.assert_array_equal(kind[row], k)
            np.testing.assert_array_equal(length[row], l)
            np.testing.assert_array_equal(hop[row], h)

    def test_path_uses_seen_set_and_matches_route_tree(self):
        _, topo = _world(TopologyConfig(n_tier1=3, n_tier2=6, n_stub=20), 11)
        for dst in topo.asns[:10]:
            routes = routes_to_legacy(topo, dst)
            for src in topo.asns:
                path = topo.path(src, dst)
                if src == dst:
                    assert path == [src]
                elif src not in routes:
                    assert path is None
                else:
                    assert path is not None
                    assert path[0] == src and path[-1] == dst
                    assert len(path) == routes[src].length + 1
                    assert len(set(path)) == len(path)

    def test_customer_cone_memoized_per_version(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 3)
        t1 = sorted(topo.asns)[0]
        first = topo.customer_cone(t1)
        assert topo.customer_cone(t1) is first  # memo hit
        stubs = sorted(topo.asns)
        topo.add_customer_provider(stubs[-1], stubs[-2])
        assert topo.customer_cone(t1) is not first  # version bump cleared it

    def test_cone_mask_matches_cone(self):
        _, topo = _world(TopologyConfig(n_tier1=3, n_tier2=5, n_stub=12), 5)
        plane = topo.route_plane()
        for asn in topo.asns:
            mask = topo.customer_cone_mask(asn)
            assert set(plane.asns[mask].tolist()) == topo.customer_cone(asn)


class TestRouteCacheBounds:
    def test_route_cache_evicts_under_byte_budget(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=16), 9)
        # One entry is n * (1 + 4 + 4) bytes; budget two entries.
        per_entry = len(topo.asns) * 9
        topo.route_cache_max_bytes = 2 * per_entry
        with use_metrics(MetricsRegistry()) as registry:
            for dst in topo.asns[:6]:
                topo.routes_to_arrays(dst)
        assert len(topo._route_cache) <= 2
        assert registry.counter("topology.route_cache_evictions") >= 4
        assert topo._route_cache_bytes <= topo.route_cache_max_bytes
        # Evicted destinations recompute to the same tree.
        first = topo.asns[0]
        assert _entry_tuples(routes_to(topo, first)) == _entry_tuples(
            routes_to_legacy(topo, first)
        )

    def test_cache_cleared_on_edge_mutation(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 13)
        topo.routes_to_arrays(topo.asns[0])
        assert topo._route_cache
        asns = sorted(topo.asns)
        topo.add_peering(asns[-1], asns[-2], via_ixp=True)
        assert not topo._route_cache
        assert topo._route_cache_bytes == 0


class TestMatrixModeParity:
    """One block spanning every column == many narrow blocks == oracle."""

    @slow_settings
    @given(
        config=topo_configs,
        seed=st.integers(0, 2**32 - 1),
        block_columns=st.sampled_from([1, 3, 8, 64]),
    )
    def test_one_block_matches_many_blocks_and_oracle(
        self, config, seed, block_columns
    ):
        """All pairs, all observer views, one block == many blocks == oracle."""
        _, topo = _world(config, seed)
        asns = np.asarray(sorted(topo.asns))
        n = asns.size
        one = VisibilityMatrix(topo)
        many = _many_blocks(topo, block_columns)
        assert not one.blocked
        assert many.block_columns == min(block_columns, n)
        oracle = OracleVisibility(topo)
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        si, di = ii.ravel(), jj.ravel()

        views = [("ixp", None, None)]
        tier1 = int(asns[0])
        member = next(
            (int(a) for a in asns.tolist() if topo.registry.get(a).ixp_member), None
        )
        views.append(("isp", tier1, True))  # tier-1 ingress_only cone view
        views.append(("isp", tier1, False))
        if member is not None:
            views.append(("isp", member, False))
        for kind, obs, ingress in views:
            if kind == "ixp":
                ov, op = one.lookup_ixp(si, di)
                mv, mp = many.lookup_ixp(si, di)
                check = lambda s, d: oracle.at_ixp(s, d)
            else:
                ov, op = one.lookup_isp(obs, ingress, si, di)
                mv, mp = many.lookup_isp(obs, ingress, si, di)
                check = lambda s, d: oracle.at_isp(obs, s, d, ingress)
            np.testing.assert_array_equal(ov, mv)
            np.testing.assert_array_equal(op, mp)
            # Oracle spot-parity on a stride (full n^2 would be slow in Python).
            for k in range(0, si.size, max(1, si.size // 64)):
                verdict = check(int(asns[si[k]]), int(asns[di[k]]))
                assert ov[k] == verdict.visible, (kind, obs, ingress, k)
                assert op[k] == verdict.peer_asn, (kind, obs, ingress, k)

    def test_block_lru_evicts_and_counts(self):
        _, topo = _world(TopologyConfig(n_tier1=3, n_tier2=6, n_stub=24), 21)
        n = len(topo.asns)
        one = VisibilityMatrix(topo)
        # Budget ~2 single-column blocks: scanning all columns must evict.
        tiny = VisibilityMatrix(topo)
        tiny.base_block_columns = 1
        tiny.budget_bytes = 2 * n * 5 + 1
        assert tiny.blocked and tiny.block_columns == 1
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        si, di = ii.ravel(), jj.ravel()
        with use_metrics(MetricsRegistry()) as registry:
            tv, tp = tiny.lookup_ixp(si, di)
        np.testing.assert_array_equal(tv, one.lookup_ixp(si, di)[0])
        np.testing.assert_array_equal(tp, one.lookup_ixp(si, di)[1])
        assert tiny.blocks_built == n
        assert tiny.evictions >= n - 3
        assert tiny.resident_bytes <= tiny.budget_bytes
        assert registry.counter("matrix.blocks_built") == n
        assert registry.counter("matrix.evictions") == tiny.evictions

    def test_block_width_derived_from_size_and_budget(self):
        """One block up to the 4096-AS mark at 256 MiB; 512 columns at 10k."""
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 23)
        matrix = VisibilityMatrix(topo)
        assert matrix.budget_bytes == 256 << 20
        assert matrix.block_columns == len(topo.asns)
        for n, width in ((96, 96), (237, 237), (4096, 4096), (10_000, 512)):
            matrix._asns = np.arange(n, dtype=np.int64)
            assert matrix.block_columns == width, n
            assert matrix.blocked == (width < n), n

    def test_many_blocks_day_observation_matches_one_block(self, monkeypatch):
        """A full observation day resolves identically at any block width."""
        from repro.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(
            seed=77,
            scale=0.05,
            n_days=82,
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=30),
        )
        one_sc = Scenario(config)
        many_sc = Scenario(config)
        monkeypatch.setattr(many_sc.visibility.matrix, "budget_bytes", 1)
        monkeypatch.setattr(many_sc.visibility.matrix, "base_block_columns", 5)
        assert one_sc.visibility.matrix.blocked is False
        assert many_sc.visibility.matrix.blocked is True
        for day in (79, 80):
            one_traffic = one_sc.day_traffic(day)
            many_traffic = many_sc.day_traffic(day)
            for vantage in ("ixp", "tier1", "tier2"):
                w = one_sc.observe_day(vantage, one_traffic)
                g = many_sc.observe_day(vantage, many_traffic)
                assert len(w) == len(g), (day, vantage)
                for col in ("src_asn", "dst_asn", "peer_asn", "bytes"):
                    np.testing.assert_array_equal(
                        w[col], g[col], err_msg=f"{day}/{vantage}/{col}"
                    )

    def test_unknown_observer_raises_in_blocked_mode(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 31)
        for width in (None, 3):
            matrix = VisibilityMatrix(topo) if width is None else _many_blocks(topo, width)
            with pytest.raises(KeyError):
                matrix.lookup_isp(
                    999_999, False, np.zeros(1, np.int64), np.zeros(1, np.int64)
                )
            assert not matrix.knows_observer(999_999)
            assert matrix.knows_observer(sorted(topo.asns)[0])


class TestIndexOfFallbacks:
    """``index_of`` must flag out-of-registry ASNs with and without the LUT."""

    def _matrix(self, monkeypatch, force_searchsorted):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 41)
        if force_searchsorted:
            monkeypatch.setattr(VisibilityMatrix, "_LUT_MAX_ASN", 1)
        return VisibilityMatrix(topo)

    @pytest.mark.parametrize("force_searchsorted", [False, True])
    def test_out_of_registry_values(self, monkeypatch, force_searchsorted):
        matrix = self._matrix(monkeypatch, force_searchsorted)
        if force_searchsorted:
            assert matrix._lut is None
        else:
            assert matrix._lut is not None
        asns = matrix.asns
        values = np.array(
            [-1, int(asns[0]), int(asns[0]) - 1, int(asns[-1]), int(asns[-1]) + 1, 999_999],
            dtype=np.int64,
        )
        idx = matrix.index_of(values)
        np.testing.assert_array_equal(idx, [-1, 0, -1, asns.size - 1, -1, -1])

    @pytest.mark.parametrize("force_searchsorted", [False, True])
    def test_mask_fallback_agrees_with_oracle(self, monkeypatch, force_searchsorted):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 41)
        if force_searchsorted:
            monkeypatch.setattr(VisibilityMatrix, "_LUT_MAX_ASN", 1)
        vis = FlowVisibility(topo)
        oracle = OracleVisibility(topo)
        asns = sorted(topo.asns)
        src = np.array([asns[0], -1, 999_999, asns[2]], dtype=np.int64)
        dst = np.array([asns[3], asns[1], asns[0], -1], dtype=np.int64)
        np.testing.assert_array_equal(
            vis.ixp_mask(src, dst)[0], oracle.ixp_mask(src, dst)[0]
        )
        np.testing.assert_array_equal(
            vis.isp_mask(asns[0], src, dst, True)[1],
            oracle.isp_mask(asns[0], src, dst, True)[1],
        )


class TestBulkAdders:
    def test_bulk_edges_match_sequential(self):
        cfg = TopologyConfig(n_tier1=3, n_tier2=5, n_stub=10)
        reg_a, topo_a = _world(cfg, 51)
        version_before = topo_a.version

        reg_b, topo_b = _world(cfg, 51)
        asns = sorted(topo_a.asns)
        pairs = [(asns[-1], asns[-2]), (asns[-3], asns[-4])]
        topo_a.add_peering_edges(pairs, via_ixp=True)
        for a, b in pairs:
            topo_b.add_peering(a, b, via_ixp=True)
        assert topo_a.version > version_before
        for a in asns:
            assert topo_a.peers(a) == topo_b.peers(a)
        assert topo_a._ixp_peer_edges == topo_b._ixp_peer_edges

    def test_bulk_adder_rejects_conflicts(self):
        _, topo = _world(TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8), 61)
        asns = sorted(topo.asns)
        provider = next(iter(topo.providers(asns[-1])))
        with pytest.raises(ValueError, match="conflicting"):
            topo.add_peering_edges([(asns[-1], provider)])
        with pytest.raises(ValueError, match="own provider"):
            topo.add_customer_provider_edges([(asns[0], asns[0])])

    def test_multilateral_mesh_matches_pairwise(self):
        cfg = TopologyConfig(n_tier1=3, n_tier2=6, n_stub=12)
        _, topo_a = _world(cfg, 71)
        _, topo_b = _world(cfg, 71)
        members = sorted(topo_a.asns)[:6]
        added = topo_a.add_multilateral_peering(members)
        count = 0
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b in topo_b.providers(a) or b in topo_b.customers(a):
                    continue
                if b in topo_b.peers(a):
                    continue
                topo_b.add_peering(a, b, via_ixp=True)
                count += 1
        assert added == count
        for a in members:
            assert topo_a.peers(a) == topo_b.peers(a)
        assert topo_a._ixp_peer_edges == topo_b._ixp_peer_edges


class TestScaleConfig:
    def test_internet_scale_shapes(self):
        cfg = TopologyConfig.internet_scale(10_000)
        assert cfg.n_asns == 10_000
        assert cfg.sampler == "vectorized"
        assert 8 <= cfg.n_tier1 <= 20
        with pytest.raises(ValueError):
            TopologyConfig.internet_scale(100)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="sampler"):
            TopologyConfig(sampler="quantum")

    def test_vectorized_sampler_builds_valid_world(self):
        cfg = TopologyConfig(
            n_tier1=3, n_tier2=10, n_stub=40, sampler="vectorized"
        )
        _, topo = _world(cfg, 81)
        assert len(topo.asns) == cfg.n_asns
        # Every non-tier-1 AS has at least one provider (connected transit).
        asns = sorted(topo.asns)
        for asn in asns[cfg.n_tier1 :]:
            assert topo.providers(asn), asn
        # Uplinks are distinct per AS (sampling without replacement).
        for asn in asns[cfg.n_tier1 :]:
            provs = topo.providers(asn)
            assert len(provs) == len(set(provs))
        # Deterministic: same seed, same world.
        _, topo2 = _world(cfg, 81)
        assert topo.asns == topo2.asns
        for a in topo.asns:
            assert topo.providers(a) == topo2.providers(a)
            assert topo.peers(a) == topo2.peers(a)
