"""AS-level flow visibility.

Decides, for aligned (src ASN, dst ASN) arrays, whether each flow is seen
by a given observer and which neighbor AS hands it over. Decisions are
pure functions of the topology's valley-free routing, resolved through
one :class:`~repro.vantage.matrix.VisibilityMatrix` per topology. Rows
whose source or destination ASN lies outside the registry (e.g. ``-1``
for unresolved addresses), and every row of an observer outside it,
resolve to not-visible with peer ``-1``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.netmodel.topology import ASTopology
from repro.obs import metrics
from repro.vantage.matrix import VisibilityMatrix

__all__ = ["FlowVisibility"]


class FlowVisibility:
    """Vectorized visibility verdicts for one topology.

    The mask methods resolve registry AS pairs through :attr:`matrix`;
    the ``visibility.matrix_hits`` / ``visibility.fallback_lookups``
    counters record how many rows it resolved and how many fell outside
    the registry (and were therefore not visible), so profiles expose a
    traffic mix that silently misses the topology.
    """

    def __init__(self, topology: ASTopology) -> None:
        self.topology = topology
        self.matrix = VisibilityMatrix(topology)

    def ixp_mask(
        self,
        src_asns: np.ndarray,
        dst_asns: np.ndarray,
        pair_index: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """IXP verdicts -> (visible mask, peer ASN array).

        ``pair_index`` optionally carries precomputed matrix indices for
        the same ASN arrays (from ``matrix.pair_index``), so repeated
        observations of one day table share the resolution work.
        """
        return self._resolve(src_asns, dst_asns, self.matrix.lookup_ixp, pair_index)

    def isp_mask(
        self,
        observer_asn: int,
        src_asns: np.ndarray,
        dst_asns: np.ndarray,
        ingress_only: bool,
        pair_index: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Verdicts of one ISP's border routers -> (visible mask, peer ASN array)."""
        lookup = None
        if self.matrix.knows_observer(observer_asn):
            lookup = partial(self.matrix.lookup_isp, observer_asn, ingress_only)
        return self._resolve(src_asns, dst_asns, lookup, pair_index)

    def _resolve(
        self,
        src_asns: np.ndarray,
        dst_asns: np.ndarray,
        lookup,
        pair_index: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve registry pairs through ``lookup``; every other row (and
        every row when ``lookup`` is ``None``) is ``(False, -1)``.
        ``lookup`` maps aligned (src, dst) index arrays to
        ``(visible, peer)``."""
        src_asns = np.asarray(src_asns, dtype=np.int64)
        dst_asns = np.asarray(dst_asns, dtype=np.int64)
        if src_asns.shape != dst_asns.shape:
            raise ValueError("src and dst ASN arrays must align")
        if pair_index is None:
            src_idx, dst_idx = self.matrix.pair_index(src_asns, dst_asns)
        else:
            src_idx, dst_idx = pair_index
            if src_idx.shape != src_asns.shape or dst_idx.shape != dst_asns.shape:
                raise ValueError("pair_index does not match the ASN arrays")
        if lookup is None:  # unknown observer: no row is visible
            known = np.zeros(src_asns.shape, dtype=bool)
        else:
            known = (src_idx >= 0) & (dst_idx >= 0)
        if known.size and known.all():
            vis, peers = lookup(src_idx, dst_idx)
            n_fallback = 0
        else:
            vis = np.zeros(src_asns.shape, dtype=bool)
            peers = np.full(src_asns.shape, -1, dtype=np.int64)
            if known.any():
                vis[known], peers[known] = lookup(src_idx[known], dst_idx[known])
            n_fallback = int(src_asns.size - known.sum())
        registry = metrics()
        if registry.enabled:
            registry.inc("visibility.matrix_hits", int(src_asns.size) - n_fallback)
            registry.inc("visibility.fallback_lookups", n_fallback)
        return vis, peers
