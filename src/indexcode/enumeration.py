"""Enumeration of the structural objects that index LP constraints.

Two families matter: elementary directed cycles of the bipartite digraph
(they alternate packet and user vertices) and partial cliques, i.e. packet
subsets where every demanding user already holds at least d of the subset.
Only the partial cliques that no others dominate are listed: the
singletons and the subsets with d >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import networkx as nx

from .instance import Instance, SplitDigraph, is_uniprior, to_digraph

DEFAULT_MAX_CYCLES = 100_000
DEFAULT_MAX_K = 12
# Cap on the packet subsets `enumerate_partial_cliques` examines: the full
# family of a clique core of up to 16 packets (65,519 subsets of two or
# more) passes, that of a 17-packet core does not.  A family at the cap
# took 0.45-0.55 s (7-9 us a subset) on a 2-core x86-64 VM under Python 3.11.
MAX_CLIQUE_SUBSETS = 2**16


class CapExceeded(RuntimeError):
    """A search or a program would exceed its cap; carries the count found
    so far, or the count it would examine."""

    def __init__(self, message, found):
        super().__init__(message)
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
            raise CapExceeded(f"cycle enumeration: more than {cap} found ({len(out)} so far)",
                              len(out))
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


def _held_masks(inst: Instance) -> tuple[list[str], list[int]]:
    """The sorted packet ids, and for each packet i the bitmask over them of
    the packets held by i's demander."""
    pids = sorted(inst.packet_ids)
    side = {u: sum(1 << i for i, pid in enumerate(pids) if u in inst.packet(pid).side)
            for u in inst.users}
    return pids, [side[inst.packet(pid).demand] for pid in pids]


def _core_mask(held: list[int]) -> int:
    """Bitmask of the largest packet subset with d >= 1 (0 if none): drop,
    while there is one, a packet whose demander holds no packet still in."""
    core = (1 << len(held)) - 1
    while True:
        kept = sum(1 << i for i, h in enumerate(held) if core >> i & 1 and h & core)
        if kept == core:
            return core
        core = kept


def clique_core(inst: Instance) -> list[str]:
    """The packets, sorted, of the largest (k, d)-partial clique with d >= 1,
    or [] if there is none.  A union of subsets with d >= 1 has d >= 1
    too, so every such clique lies inside this one."""
    pids, held = _held_masks(inst)
    core = _core_mask(held)
    return [pid for i, pid in enumerate(pids) if core >> i & 1]


def enumerate_partial_cliques(inst: Instance, max_k: int = DEFAULT_MAX_K) -> list[PartialClique]:
    """The non-dominated (k, d)-partial cliques of size <= max_k: every
    singleton as a (1, 0)-clique, and every larger packet subset whose d is
    at least 1, by size and then in lexicographic order of packet ids.

    Only the maximal d per subset is reported: any (k, d') with d' < d
    induces a dominated constraint.  A (k, 0)-clique with k > 1 is dominated
    too: it is k uncoded sends, so its P5 column is the sum of its k
    singleton columns, in cost and in every row, and it can be replaced by
    them at equal cost.  So val(P5) and val(P5') are unchanged without these
    columns, and so is val(P6'), since the dropped rows
    sum_{p in S} x_p <= k follow from the singleton rows x_p <= 1.  The
    root LP is solved identically: the column's reduced cost, in either
    simplex phase, is the sum of its singletons', so whenever it is negative
    a singleton's is too; as every singleton precedes every k >= 2 column,
    Bland's rule never enters it, and the artificial drive-out (first
    nonzero column of a row) picks a singleton first, so P5' has the same
    pivots, primal and duals.  Inside branch-and-bound this no longer holds:
    a node bound x_p <= 0 on a singleton forbids it but not a (k, 0) column
    holding p.  Node LPs, the branch tree, its node count and the choice
    among tied optima of P5 may therefore differ; val(P5) does not.

    d is counted on int bitmasks: held[i] is the set of packets held by
    packet i's demander, and d(S) = min over i in S of |held[i] & S|.  Only
    the subsets of `clique_core` can have d >= 1.  More than
    `MAX_CLIQUE_SUBSETS` of them up to size max_k raises `CapExceeded`
    before any is examined.
    """
    pids, held = _held_masks(inst)
    core = _core_mask(held)
    out = [PartialClique(frozenset((pid,)), 1, 0) for pid in pids] if max_k >= 1 else []
    idx_core = [i for i in range(len(pids)) if core >> i & 1]
    top = min(len(idx_core), max_k)
    subsets = sum(comb(len(idx_core), k) for k in range(2, top + 1))
    if subsets > MAX_CLIQUE_SUBSETS:
        raise CapExceeded(
            f"partial-clique enumeration: {subsets} subsets of the {len(idx_core)}-packet "
            f"clique core up to size {top}, more than the cap of {MAX_CLIQUE_SUBSETS}",
            subsets)
    for k in range(2, top + 1):
        for idx in combinations(idx_core, k):
            mask = sum(1 << i for i in idx)
            if all(held[i] & mask for i in idx):
                d = min((held[i] & mask).bit_count() for i in idx)
                out.append(PartialClique(frozenset(pids[i] for i in idx), k, d))
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
