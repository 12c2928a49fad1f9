"""Per-destination dict BFS over Gao-Rexford routes (the route-tree oracle).

The original route engine of :class:`repro.netmodel.topology.ASTopology`:
one three-phase BFS per destination over dict-of-:class:`RouteEntry`.
The parity suite asserts the vectorized engine reproduces it bit for
bit, and the topology scaling benchmark measures the engine against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netmodel.topology import ASTopology

__all__ = [
    "RouteEntry",
    "KIND_CODES",
    "KIND_PREFERENCE",
    "better",
    "routes_to",
    "routes_to_legacy",
]


@dataclass
class RouteEntry:
    """Best route of one AS towards the current destination."""

    kind: str  # "down" | "peer" | "up"
    length: int
    next_hop: int  # -1 at the destination itself


#: Route-kind codes of the array engine (order = Gao-Rexford preference).
KIND_CODES = ("down", "peer", "up")

KIND_PREFERENCE = {"down": 0, "peer": 1, "up": 2}


def routes_to(topology: ASTopology, dst: int) -> dict[int, RouteEntry]:
    """Dict view over the array engine's route tree towards ``dst``."""
    kind, length, next_hop = topology.routes_to_arrays(dst)
    plane = topology.route_plane()
    routes: dict[int, RouteEntry] = {}
    asns = plane.asns
    for i in np.flatnonzero(kind >= 0):
        hop = int(next_hop[i])
        routes[int(asns[i])] = RouteEntry(
            KIND_CODES[kind[i]], int(length[i]), -1 if hop < 0 else int(asns[hop])
        )
    return routes


def routes_to_legacy(topology: ASTopology, dst: int) -> dict[int, RouteEntry]:
    """The original per-destination dict BFS (reference implementation)."""
    topology._ensure(dst)
    routes: dict[int, RouteEntry] = {dst: RouteEntry("down", 0, -1)}

    # Phase 1: customer routes propagate up provider links (BFS by length).
    frontier = [dst]
    while frontier:
        nxt: list[int] = []
        for node in frontier:
            entry = routes[node]
            if entry.kind != "down":
                continue
            for prov in topology._providers.get(node, ()):
                cand = RouteEntry("down", entry.length + 1, node)
                if better(cand, routes.get(prov)):
                    routes[prov] = cand
                    nxt.append(prov)
        frontier = nxt

    # Phase 2: peer routes — one lateral step from any down-route holder.
    down_holders = [(asn, e) for asn, e in routes.items() if e.kind == "down"]
    for holder, entry in down_holders:
        for peer in topology._peers.get(holder, ()):
            cand = RouteEntry("peer", entry.length + 1, holder)
            if better(cand, routes.get(peer)):
                routes[peer] = cand

    # Phase 3: provider routes propagate down customer links from any
    # route holder, repeatedly (BFS over the remaining graph).
    frontier = sorted(routes)
    while frontier:
        nxt = []
        for node in frontier:
            entry = routes[node]
            for cust in topology._customers.get(node, ()):
                cand = RouteEntry("up", entry.length + 1, node)
                if better(cand, routes.get(cust)):
                    routes[cust] = cand
                    nxt.append(cust)
        frontier = nxt
    return routes


def better(candidate: RouteEntry, incumbent: RouteEntry | None) -> bool:
    if incumbent is None:
        return True
    ck = KIND_PREFERENCE[candidate.kind]
    ik = KIND_PREFERENCE[incumbent.kind]
    if ck != ik:
        return ck < ik
    if candidate.length != incumbent.length:
        return candidate.length < incumbent.length
    return candidate.next_hop < incumbent.next_hop
