"""Enumeration of the structural objects that index LP constraints.

Two families matter: elementary directed cycles of the bipartite digraph
(they alternate packet and user vertices) and partial cliques, i.e. packet
subsets where every demanding user already holds at least d of the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .instance import Instance, SplitDigraph, is_uniprior, to_digraph

DEFAULT_MAX_CYCLES = 100_000
DEFAULT_MAX_K = 12


class CapExceeded(RuntimeError):
    """Enumeration hit its cap; carries the count found so far."""

    def __init__(self, what, cap, found):
        super().__init__(f"{what}: more than {cap} found ({found} so far)")
        self.cap = cap
        self.found = found


@dataclass(frozen=True)
class Cycle:
    """Elementary cycle, stored as interleaved packet/user orderings.

    ``users[j]`` demands ``packets[j]`` and holds ``packets[j+1]`` (mod K),
    so K-1 chained XOR transmissions clear all K packets.
    """

    packets: tuple[str, ...]
    users: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.packets)

    @property
    def packet_set(self) -> frozenset[str]:
        return frozenset(self.packets)

    def validate(self, inst: Instance) -> None:
        """Raise ValueError naming the first condition of a cycle that fails."""
        k = len(self.packets)
        if not 2 <= k == len(self.users) == len(set(self.packets)) == len(set(self.users)):
            raise ValueError(f"cycle needs k >= 2 distinct packets and k distinct users: {self}")
        for j in range(k):
            pid, user, nxt = self.packets[j], self.users[j], self.packets[(j + 1) % k]
            if inst.packet(pid).demand != user:
                raise ValueError(f"cycle: {user} does not demand {pid}")
            if user not in inst.packet(nxt).side:
                raise ValueError(f"cycle: {user} does not hold {nxt}")


@dataclass(frozen=True)
class PartialClique:
    """Packet subset of size k whose demanding users each hold >= d of it."""

    packets: frozenset[str]
    k: int
    d: int

    @property
    def sorted_packets(self) -> tuple[str, ...]:
        return tuple(sorted(self.packets))


def _normalize_cycle(packets, users):
    """Rotate so the lexicographically smallest packet id comes first."""
    i = packets.index(min(packets))
    return Cycle(tuple(packets[i:] + packets[:i]), tuple(users[i:] + users[:i]))


def _cycles_of_digraph(g: nx.DiGraph, cap: int):
    """Elementary circuits of an arbitrary digraph (Johnson's algorithm)."""
    out = []
    for nodes in nx.simple_cycles(g):
        out.append(nodes)
        if len(out) > cap:
            raise CapExceeded("cycle enumeration", cap, len(out))
    return out


def enumerate_cycles(inst: Instance, max_cycles: int = DEFAULT_MAX_CYCLES) -> list[Cycle]:
    """All elementary cycles of the instance digraph, deterministically ordered.

    Each cycle is reported once up to rotation, normalized to start at its
    smallest packet id, and sorted by (length, packet ids, user ids).
    """
    g = to_digraph(inst)
    cycles = []
    for nodes in _cycles_of_digraph(g, max_cycles):
        # Rotate so the sequence starts at a packet vertex.
        i = next(j for j, n in enumerate(nodes) if n[0] == "p")
        nodes = nodes[i:] + nodes[:i]
        packets = [n[1] for n in nodes if n[0] == "p"]
        users = [n[1] for n in nodes if n[0] == "u"]
        cycles.append(_normalize_cycle(packets, users))
    cycles.sort(key=lambda c: (c.length, sorted(c.packets), c.packets, c.users))
    return cycles


def enumerate_partial_cliques(inst: Instance, max_k: int = DEFAULT_MAX_K) -> list[PartialClique]:
    """One (k, d)-partial clique per non-empty packet subset of size <= max_k.

    Only the maximal d per subset is reported: any (k, d') with d' < d
    induces a dominated constraint.  Singletons come out as (1, 0)-cliques.
    """
    side_of = {u: inst.side_packets(u) for u in inst.users}
    pids = sorted(inst.packet_ids)
    out = []
    for k in range(1, min(len(pids), max_k) + 1):
        for subset in combinations(pids, k):
            sset = frozenset(subset)
            demanders = {inst.packet(pid).demand for pid in subset}
            d = min(len(side_of[u] & sset) for u in demanders)
            out.append(PartialClique(sset, k, d))
    return out


def extract_cycles_from_clique(clique: PartialClique, inst: Instance) -> list[Cycle]:
    """Pull d packet-disjoint cycles out of a partial clique (uniprior only).

    Walks vertex to vertex along any outgoing arc of the induced subgraph
    until a vertex repeats, extracts that cycle, deletes its packet vertices,
    and repeats d times.
    """
    if not is_uniprior(inst, strict=False):
        raise ValueError("cycle extraction requires a unicast-uniprior instance")
    if clique.d == 0:
        return []
    packets = set(clique.packets)
    # Induced subgraph on the clique packets and their demanding users.
    users = {inst.packet(pid).demand for pid in packets}
    g = nx.DiGraph()
    for pid in packets:
        p = inst.packet(pid)
        g.add_edge(("p", pid), ("u", p.demand))
        for u in p.side & users:
            g.add_edge(("u", u), ("p", pid))
    cycles = []
    for _ in range(clique.d):
        start = ("p", min(n[1] for n in g.nodes if n[0] == "p" and g.out_degree(n) > 0))
        walk = [start]
        seen = {start}
        node = start
        while True:
            node = min(g.successors(node))
            if node in seen:
                break
            seen.add(node)
            walk.append(node)
        cyc = walk[walk.index(node):]
        i = next(j for j, n in enumerate(cyc) if n[0] == "p")
        cyc = cyc[i:] + cyc[:i]
        cycles.append(
            _normalize_cycle([n[1] for n in cyc if n[0] == "p"], [n[1] for n in cyc if n[0] == "u"])
        )
        g.remove_nodes_from([n for n in cyc if n[0] == "p"])
    return cycles


def split_digraph_cycles(sd: SplitDigraph, max_cycles: int = DEFAULT_MAX_CYCLES):
    """Elementary cycles of the packet-split digraph, as arc lists."""
    g = sd.to_networkx()
    out = []
    for nodes in _cycles_of_digraph(g, max_cycles):
        arcs = [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]
        # Normalize rotation: start at the smallest packet-to-packet arc.
        starts = [i for i, a in enumerate(arcs) if a[0][0] == "in"]
        i = min(starts, key=lambda j: arcs[j][0][1])
        out.append(tuple(arcs[i:] + arcs[:i]))
    out.sort(key=lambda arcs: (len(arcs), str(arcs)))
    return out
