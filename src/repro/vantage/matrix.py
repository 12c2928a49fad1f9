"""Precomputed visibility verdicts over registry AS pairs, in column blocks.

Per-pair path walks dominate observation at day-pipeline scale, so
:class:`VisibilityMatrix` materializes verdicts for whole destination
columns instead. Each observation view (the IXP fabric, or one
``(observer ASN, ingress_only)`` ISP view) is stored as transposed
``bool`` visible / int32 peer-ASN column blocks, built on demand and kept
in one byte-budgeted LRU (``matrix.blocks_built`` / ``matrix.evictions``
counters, ``matrix.resident_bytes`` gauge).

The block width is derived from the registry size and the budget, never
configured: while three full views (5 bytes per cell) fit the budget, one
block covers every column and a lookup is a single gather — up to ~4.2k
ASes at the default 256 MiB, which includes every preset the repo runs.
Beyond that, blocks are :attr:`VisibilityMatrix.base_block_columns` wide
(512) and lookups group query pairs by block, so a day's flow table
touches only the destination columns it actually contains (at 10k ASes a
full view would be ~0.5 GB).

Every block comes from one vectorized column builder: a source's verdict
towards a destination is either decided by its first hop (the hop
crosses the IXP fabric / reaches the observer) or inherited from its next
hop's verdict, so each destination column fills level by level over the
route tree's length groups — no per-pair Python. The test suite asserts
the verdicts equal a per-pair path-walk oracle's, for one block and for
many.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.netmodel.topology import ASTopology
from repro.obs import metrics

__all__ = ["VisibilityMatrix"]

_IXP_VIEW = ("ixp",)


class VisibilityMatrix:
    """Precomputed ``visible``/``peer_asn`` verdicts over registry ASNs.

    Column blocks are built lazily per observation view and dropped when
    the topology gains edges after construction. ASN values outside the
    registry (e.g. ``-1`` for unresolved addresses) are not covered;
    :meth:`index_of` maps them to ``-1`` for callers to handle.
    """

    #: Largest ASN value for which a dense ASN -> index lookup table is
    #: materialized (int32, so 4 MiB at the cap); beyond it ``index_of``
    #: degrades to binary search.
    _LUT_MAX_ASN = 1 << 20

    #: Byte budget of the column-block LRU, across all views.
    budget_bytes: int = 256 << 20
    #: Block width once one block per view no longer fits the budget.
    base_block_columns: int = 512
    #: Views one scenario resolves (IXP, tier-1, tier-2): one block covers
    #: every column while this many full views fit the budget.
    _BUDGET_VIEWS = 3
    #: Bytes per stored verdict: ``bool`` visible + int32 peer ASN.
    _CELL_BYTES = 5

    def __init__(self, topology: ASTopology) -> None:
        self.topology = topology
        self._generation = topology.version
        self._asns = np.asarray(topology.asns, dtype=np.int64)
        self._lut = self._build_lut(self._asns)
        # (view key, block id) -> (visT (C, n), peerT (C, n)).
        self._blocks: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._resident_bytes = 0
        self.blocks_built = 0
        self.evictions = 0

    @staticmethod
    def _build_lut(asns: np.ndarray) -> np.ndarray | None:
        if asns.size == 0 or int(asns[-1]) > VisibilityMatrix._LUT_MAX_ASN:
            return None
        lut = np.full(int(asns[-1]) + 1, -1, dtype=np.int32)
        lut[asns] = np.arange(asns.size, dtype=np.int32)
        return lut

    # -- ASN index ----------------------------------------------------------

    @property
    def generation(self) -> int:
        """Topology edge-mutation counter the cached tables correspond to."""
        self._refresh()
        return self._generation

    def _refresh(self) -> None:
        if self.topology.version != self._generation:
            self._generation = self.topology.version
            self._asns = np.asarray(self.topology.asns, dtype=np.int64)
            self._lut = self._build_lut(self._asns)
            self._blocks.clear()
            self._resident_bytes = 0

    @property
    def asns(self) -> np.ndarray:
        """Sorted registry ASNs; row/column ``i`` of every table is ``asns[i]``."""
        self._refresh()
        return self._asns

    @property
    def block_columns(self) -> int:
        """Destination columns per block, derived from ``n`` and the budget."""
        n = self.asns.size
        if self._BUDGET_VIEWS * self._CELL_BYTES * n * n <= self.budget_bytes:
            return max(n, 1)
        return min(self.base_block_columns, n)

    @property
    def blocked(self) -> bool:
        """Whether a view spans more than one column block."""
        return self.block_columns < self.asns.size

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by the column-block LRU."""
        return self._resident_bytes

    def index_of(self, asn_values: np.ndarray) -> np.ndarray:
        """Map ASN values to table indices (``-1`` for out-of-registry ASNs)."""
        asns = self.asns
        values = np.asarray(asn_values, dtype=np.int64)
        if self._lut is not None:
            # Direct gather: one clip + one take beats a binary search per
            # value on the multi-100k-row day tables.
            in_range = (values >= 0) & (values < self._lut.size)
            idx = self._lut[np.where(in_range, values, 0)].astype(np.int64)
            idx[~in_range] = -1
            return idx
        idx = np.searchsorted(asns, values)
        idx[idx == asns.size] = 0
        return np.where(asns[idx] == values, idx, -1)

    def pair_index(self, src_asns: np.ndarray, dst_asns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(src indices, dst indices) for aligned ASN arrays, ``-1`` = unknown."""
        src_asns = np.asarray(src_asns)
        dst_asns = np.asarray(dst_asns)
        if src_asns.shape != dst_asns.shape:
            raise ValueError("src and dst ASN arrays must align")
        return self.index_of(src_asns), self.index_of(dst_asns)

    def knows_observer(self, observer_asn: int) -> bool:
        """Whether ISP views for this observer can be resolved here."""
        asns = self.asns
        i = np.searchsorted(asns, int(observer_asn))
        return i < asns.size and int(asns[i]) == int(observer_asn)

    # -- column construction --------------------------------------------------

    def _build_columns(
        self, view: tuple, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Verdict columns ``cols`` of ``view``, transposed ``(C, n)``.

        The recurrence runs per column in ascending route-length levels:
        every source's verdict is either decided directly by its first hop
        or inherited from the hop's (already final) verdict — the same
        fixed point the per-pair oracle walks, now as ~path-diameter numpy
        ops per column.
        """
        topo = self.topology
        plane = topo.route_plane()
        n = plane.n
        asns32 = plane.asns.astype(np.int32)
        C = cols.size
        if view[0] == "ixp":
            obs_idx = -1
            ingress_only = False
        else:
            _, observer_asn, ingress_only = view
            obs_idx = int(np.searchsorted(plane.asns, int(observer_asn)))
            if obs_idx >= n or int(plane.asns[obs_idx]) != int(observer_asn):
                raise KeyError(f"observer ASN {observer_asn} not in registry")
        # Bound transient route arrays (9 bytes x C x n) when a block
        # spans every column: recurse in column slices.
        max_cols = max(1, (1 << 22) // max(n, 1))
        if C > max_cols:
            visT = np.empty((C, n), dtype=bool)
            peerT = np.empty((C, n), dtype=np.int32)
            for i in range(0, C, max_cols):
                part = self._build_columns(view, cols[i : i + max_cols])
                visT[i : i + max_cols] = part[0]
                peerT[i : i + max_cols] = part[1]
            return visT, peerT
        kind, length, hop = topo.routes_to_many(plane.asns[cols])
        # Flat composite cells ``row * n + src`` so one pass of numpy ops
        # fills every column of the block at once. Levels group by route
        # length *globally*: inheritance only ever reads the hop's cell,
        # which sits one length lower in the same row, so ascending global
        # levels replay each column's own ascending-level recurrence.
        kindf, lengthf, hopf = kind.ravel(), length.ravel(), hop.ravel()
        visf = np.zeros(C * n, dtype=bool)
        peerf = np.full(C * n, -1, dtype=np.int32)
        if view[0] != "ixp":
            # Observer-sourced flows: the handover "peer" is the next AS
            # on the observer's own path (the oracle's egress rule).
            obs_cells = np.arange(C, dtype=np.int64) * n + obs_idx
            ok = (kind[:, obs_idx] >= 0) & (cols != obs_idx)
            visf[obs_cells[ok]] = True
            peerf[obs_cells[ok]] = asns32[hop[:, obs_idx][ok]]
        reach = np.flatnonzero(kindf >= 0)
        # Sort cells by route length with one fused value sort: pack
        # ``length << cell_bits | cell`` (both bounded) and unpack after.
        cell_bits = max(1, int(C * n - 1).bit_length())
        key = (lengthf[reach].astype(np.int64) << np.int64(cell_bits)) | reach
        key.sort()
        reach = key & np.int64((1 << cell_bits) - 1)
        lens = key >> np.int64(cell_bits)
        levels, starts = np.unique(lens, return_index=True)
        stops = np.append(starts[1:], lens.size)
        for lvl, a, b in zip(levels.tolist(), starts.tolist(), stops.tolist()):
            if lvl == 0:
                continue
            p = reach[a:b]
            src = p % n
            if view[0] != "ixp":
                keep = src != obs_idx
                p, src = p[keep], src[keep]
                if p.size == 0:
                    continue
            h = hopf[p].astype(np.int64)
            hcell = p - src + h
            if view[0] == "ixp":
                # Only peer routes can cross the fabric: a transit pair is
                # never also an IXP peering (add_peering rejects the
                # conflict), so the membership probe skips kind 0/2 cells.
                direct = np.zeros(p.size, dtype=bool)
                peer_cells = np.flatnonzero(kindf[p] == 1)
                if peer_cells.size:
                    direct[peer_cells] = plane.is_ixp_edge(
                        src[peer_cells], h[peer_cells]
                    )
            else:
                direct = h == obs_idx
            visf[p] = np.where(direct, True, visf[hcell])
            peerf[p] = np.where(direct, asns32[src], peerf[hcell])
        visT = visf.reshape(C, n)
        peerT = peerf.reshape(C, n)
        if ingress_only:
            # Tier-1 trace rule: flows sourced inside the observer's
            # customer cone (the observer included) are not exported.
            cone = topo.customer_cone_mask(int(view[1]))
            visT &= ~cone[None, :]
        np.copyto(peerT, -1, where=~visT)
        return visT, peerT

    # -- block lookups ------------------------------------------------------

    def _block(
        self, view: tuple, block_id: int, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        key = (view, block_id)
        cached = self._blocks.get(key)
        if cached is not None:
            self._blocks.move_to_end(key)
            return cached
        lo = block_id * width
        cols = np.arange(lo, min(lo + width, self._asns.size), dtype=np.int64)
        block = self._build_columns(view, cols)
        self._blocks[key] = block
        self._resident_bytes += block[0].nbytes + block[1].nbytes
        self.blocks_built += 1
        evicted = 0
        while self._resident_bytes > self.budget_bytes and len(self._blocks) > 1:
            _, old = self._blocks.popitem(last=False)
            self._resident_bytes -= old[0].nbytes + old[1].nbytes
            evicted += 1
        self.evictions += evicted
        registry = metrics()
        if registry.enabled:
            registry.inc("matrix.blocks_built")
            if evicted:
                registry.inc("matrix.evictions", evicted)
            registry.gauge("matrix.resident_bytes", self._resident_bytes)
        return block

    def _lookup(
        self, view: tuple, src_idx: np.ndarray, dst_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Verdicts for pair index arrays (all indices must be >= 0)."""
        self._refresh()
        if view[0] != "ixp" and not self.knows_observer(view[1]):
            raise KeyError(f"observer ASN {view[1]} not in registry")
        width = self.block_columns
        if width >= self._asns.size:
            # One block spans every column: a single transposed gather.
            visT, peerT = self._block(view, 0, width)
            return visT[dst_idx, src_idx], peerT[dst_idx, src_idx].astype(np.int64)
        vis_out = np.zeros(src_idx.shape, dtype=bool)
        peer_out = np.full(src_idx.shape, -1, dtype=np.int64)
        block_ids = dst_idx // width
        order = np.argsort(block_ids, kind="stable")
        sorted_ids = block_ids[order]
        uniq, starts = np.unique(sorted_ids, return_index=True)
        stops = np.append(starts[1:], sorted_ids.size)
        for bid, a, b in zip(uniq.tolist(), starts.tolist(), stops.tolist()):
            sel = order[a:b]
            visT, peerT = self._block(view, int(bid), width)
            local = dst_idx[sel] - int(bid) * width
            vis_out[sel] = visT[local, src_idx[sel]]
            peer_out[sel] = peerT[local, src_idx[sel]]
        return vis_out, peer_out

    def lookup_ixp(
        self, src_idx: np.ndarray, dst_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """IXP verdicts for pair index arrays (``(visible, peer_asn)``)."""
        return self._lookup(_IXP_VIEW, src_idx, dst_idx)

    def lookup_isp(
        self,
        observer_asn: int,
        ingress_only: bool,
        src_idx: np.ndarray,
        dst_idx: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """ISP-view verdicts for pair index arrays (``(visible, peer_asn)``)."""
        return self._lookup(
            ("isp", int(observer_asn), bool(ingress_only)), src_idx, dst_idx
        )

    def warm(self, isp_views: tuple[tuple[int, bool], ...] = ()) -> None:
        """Pre-build what lookups will need (worker-pool initializer hook).

        Prepares the CSR route plane and ASN index. When one block spans
        every column, also builds the IXP view's block and those of the
        given ``(observer_asn, ingress_only)`` ISP views; narrower blocks
        stay demand-built so warming never blows the byte budget.
        """
        self._refresh()
        self.topology.route_plane()
        width = self.block_columns
        if width < self._asns.size:
            return
        self._block(_IXP_VIEW, 0, width)
        for observer_asn, ingress_only in isp_views:
            self._block(("isp", int(observer_asn), bool(ingress_only)), 0, width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VisibilityMatrix({self._asns.size} ASNs, {len(self._blocks)} blocks "
            f"of {self.block_columns} columns)"
        )
