"""Enumeration of the structural objects that index LP constraints.

Two families matter: elementary directed cycles of the bipartite digraph
(they alternate packet and user vertices) and partial cliques, i.e. packet
subsets where every demanding user already holds at least d of the subset.
Only the partial cliques that no others dominate are listed: the
singletons and the subsets with d >= 1.  These all lie inside the largest
one, the clique core, and only its subsets are searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .instance import Instance

DEFAULT_MAX_CYCLES = 100_000
# Cap on the subsets of two or more packets, up to size max_k, of the
# clique core that `enumerate_partial_cliques` may consider: the whole
# lattice of a core of up to 16 packets (65,519 such subsets) passes, that
# of a 17-packet core does not.  A family at the cap, a 16-packet core in
# which all 65,519 have d >= 1, took 0.46-0.50 s on a 2-core x86-64 VM under
# Python 3.11, mostly spent building the 65,535 `PartialClique` objects.
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


@dataclass(frozen=True)
class PartialClique:
    """Packet subset of size k whose demanding users each hold >= d of it."""

    packets: frozenset[str]
    k: int
    d: int

    @property
    def sorted_packets(self) -> tuple[str, ...]:
        return tuple(sorted(self.packets))


def _circuits(succ, starts):
    """Every elementary circuit of the digraph `succ` (vertex -> successor
    list) whose least vertex is in `starts`, once, as a vertex list from
    that vertex: Johnson's blocked search (SIAM J. Comput. 4(1), 1975),
    iterative, run from each start s over the vertices above s only.  A
    vertex from which no circuit closed stays blocked until a vertex it
    leads to is unblocked, and one that cannot reach s stays blocked, so
    each start costs O((n + e)(c_s + 1)) for its c_s circuits, as in
    Johnson's proof, without splitting the graph into strong components."""
    for s in starts:
        path, blocked, closed = [s], {s}, [False]
        waiting = {}  # Johnson's B lists
        stack = [iter(succ[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    yield path[:]
                    closed[-1] = True
                elif w > s and w not in blocked:
                    path.append(w)
                    blocked.add(w)
                    closed.append(False)
                    stack.append(iter(succ[w]))
                    break
            else:
                stack.pop()
                v = path.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    todo = [v]
                    while todo:
                        u = todo.pop()
                        if u in blocked:
                            blocked.discard(u)
                            todo.extend(waiting.pop(u, ()))
                else:
                    for w in succ[v]:
                        waiting.setdefault(w, set()).add(v)


def enumerate_cycles(inst: Instance, max_cycles: int = DEFAULT_MAX_CYCLES) -> list[Cycle]:
    """All elementary cycles of the instance digraph, deterministically ordered.

    Each cycle is reported once up to rotation, starting at its smallest
    packet id, and sorted by (length, packet ids, user ids).  The bipartite
    digraph has arcs from each packet to its demander and from each user to
    the packets it holds; its packets are numbered in id order and its users
    after them, so a cycle's least vertex is its smallest-id packet and
    `_circuits` from each packet finds the cycles in that form.  The search
    takes O((n + e)(c + M)) time for c cycles, M packets and n vertices and
    e arcs of the digraph; more than max_cycles raises `CapExceeded`.
    """
    packets = sorted(inst.packets, key=lambda p: p.id)
    m = len(packets)
    user_at = {u: m + j for j, u in enumerate(inst.users)}
    succ = [[user_at[p.demand]] for p in packets] + [[] for _ in inst.users]
    for i, p in enumerate(packets):
        for u in p.side:
            succ[user_at[u]].append(i)
    ids = [p.id for p in packets] + list(inst.users)
    cycles = []
    for nodes in _circuits(succ, range(m)):
        cycles.append(Cycle(tuple(ids[v] for v in nodes[0::2]),
                            tuple(ids[v] for v in nodes[1::2])))
        if len(cycles) > max_cycles:
            raise CapExceeded(f"cycle enumeration: more than {max_cycles} found "
                              f"({len(cycles)} so far)", len(cycles))
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


def _sieve(hc: dict[int, int], c: int, top: int) -> list[int]:
    """Every subset, as a bitmask over the c core bits, of 2 to top core
    packets with d >= 1, by size and then in descending numeric order.

    Bit m of one int of 2^c bits stands for the subset m.  A subset is bad
    when it holds a packet b and none of hc[b], the core packets that b's
    demander holds: the subsets of core - hc[b] - b, moved up by b.  Those
    subsets are set by doubling (B = 1, then B |= B << x for each bit x of
    the set), so c^2 shifts and ORs on ints of at most 2^c bits mark every
    bad subset at once; the set bits of the complement are read in one pass.
    """
    full = (1 << c) - 1
    bad = 0
    for b, h in hc.items():
        sub, free = 1, full & ~h & ~b
        while free:
            x = free & -free
            sub |= sub << x
            free ^= x
        bad |= sub << b
    text = bin(~bad & ((1 << (1 << c)) - 1))  # "0b1...": subset m at index last - m
    last = len(text) - 1
    by_size = [[] for _ in range(c + 1)]
    i = text.find("1", 2)
    while i != -1:
        m = last - i
        by_size[m.bit_count()].append(m)
        i = text.find("1", i + 1)
    return [m for masks in by_size[2:top + 1] for m in masks]


def _scan(hc: dict[int, int], top: int):
    """The subsets `_sieve` lists, found by testing each subset of 2 to top
    core packets in turn."""
    for k in range(2, top + 1):
        for members in combinations(hc, k):
            m = sum(members)
            if all(hc[b] & m for b in members):
                yield m


def enumerate_partial_cliques(inst: Instance, max_k: int | None = None) -> list[PartialClique]:
    """The non-dominated (k, d)-partial cliques, all of them or those of
    size <= max_k: every singleton as a (1, 0)-clique, and every larger
    packet subset whose d is at least 1, by size and then in lexicographic
    order of packet ids.

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

    d is counted on int bitmasks over the clique core: the i-th of its c
    packets in id order is bit c-1-i, hc[b] is the set of core packets held
    by the demander of core packet b, and d(S) = min over b in S of
    |hc[b] & S|.  Only the subsets of the core can have d >= 1: a union of
    subsets with d >= 1 has d >= 1 too.  More than `MAX_CLIQUE_SUBSETS` of
    them of sizes 2 to max_k raises `CapExceeded` before any is looked at.
    When the core's whole subset lattice is under the cap (c <= 16, so on
    every call without max_k), `_sieve` marks all subsets with d >= 1 at
    once in an int of 2^c bits, with c^2 big-int operations, and only those
    are visited: the rest of the cost grows with the output.  A larger core,
    reachable only with a small max_k, is scanned with `combinations` up to
    size max_k.  As among subsets of one size descending numeric order is
    lexicographic order of ids, both list the cliques in the same order.
    """
    pids, held = _held_masks(inst)
    core = _core_mask(held)
    max_k = len(pids) if max_k is None else max_k
    out = [PartialClique(frozenset((pid,)), 1, 0) for pid in pids] if max_k >= 1 else []
    idx_core = [i for i in range(len(pids)) if core >> i & 1]
    c = len(idx_core)
    top = min(c, max_k)
    subsets = sum(comb(c, k) for k in range(2, top + 1))
    if subsets > MAX_CLIQUE_SUBSETS:
        raise CapExceeded(
            f"partial-clique enumeration: {subsets} subsets of the {c}-packet "
            f"clique core up to size {top}, more than the cap of {MAX_CLIQUE_SUBSETS}",
            subsets)
    bit = {i: 1 << (c - 1 - t) for t, i in enumerate(idx_core)}
    hc = {bit[i]: sum(bit[j] for j in idx_core if held[i] >> j & 1) for i in idx_core}
    members = [(bit[i], hc[bit[i]], pids[i]) for i in idx_core]
    fits = (1 << c) - c - 1 <= MAX_CLIQUE_SUBSETS
    for m in _sieve(hc, c, top) if fits else _scan(hc, top):
        ids, d = [], c
        for b, h, pid in members:
            if b & m:
                ids.append(pid)
                held_in = (h & m).bit_count()
                if held_in < d:
                    d = held_in
        out.append(PartialClique(frozenset(ids), len(ids), d))
    return out
