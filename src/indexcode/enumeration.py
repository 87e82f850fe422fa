"""Enumeration of the structural objects that index LP constraints.

Two families matter: elementary directed cycles of the bipartite digraph
(they alternate packet and user vertices) and partial cliques, i.e. packet
subsets where every demanding user already holds at least d of the subset.
Only the members that no others dominate in the paper's programs are
listed: the chordless cycles, which with the direct sends are P2's
columns, and the critical cliques with d >= 2, which P5 adds to them
(`enumerate_partial_cliques` has the proof that nothing else counts).

Both families live inside the strong components of the packet digraph,
where p -> q when p's demander holds q; `_packet_graph` finds them, once
per instance (`Instance._packet_graph`).  A cycle is strongly connected.
A clique S that spans two components is dominated: the subgraph S
induces has a sink component B, whose members hold nothing of S - B, so
d(B) >= d(S); with d(S - B) >= 0, B and S - B cover S at
(|B| - d(B)) + (|S - B| - d(S - B)) <= |S| - d(S), the cost of S's own
column.  So only the subsets of one component are searched, and a packet
alone in its component lies on no cycle and in no clique but its
singleton: every program sends it directly at its full weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance

DEFAULT_MAX_CYCLES = 100_000
# Cap on the subsets of two or more packets of one component's clique core
# that `enumerate_partial_cliques` may consider: the whole lattice of a core
# of up to 16 packets (65,519 such subsets) passes, that of a 17-packet core
# (131,054) does not.  The largest family at the cap, 16 packets whose
# every subset is critical (each user holds every packet it does not
# demand), took 0.36-0.46 s on a 2-core x86-64 VM under Python 3.11.
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


def _into(held: list[int]) -> list[int]:
    """The reverse of the packet digraph: into[j] is the bitmask of the
    packets i with bit j of held[i] set."""
    into = [0] * len(held)
    for i, h in enumerate(held):
        while h:
            jbit = h & -h
            into[jbit.bit_length() - 1] |= 1 << i
            h ^= jbit
    return into


def _reach(step: list[int], start: int, within: int = -1) -> int:
    """The bitmask of the packets in `within` that a path of one or more
    arcs i -> j (bit j of step[i]) from a packet of `start` reaches
    through packets in `within`."""
    seen, todo = 0, start
    while todo:
        vbit = todo & -todo
        todo ^= vbit
        new = step[vbit.bit_length() - 1] & within & ~seen
        seen |= new
        todo |= new
    return seen


def _chordless(held: list[int]):
    """Every chordless cycle of the packet digraph, where i -> j when bit j
    of held[i] is set, once, as a list of packet indices from its least one.

    From each packet s, a backward search first keeps the packets above s
    that have a path back to s through packets above s, with O(M)
    operations on M-bit ints; a start that points to none of them is
    skipped, and no packet that cannot lead back to s is walked.  A
    depth-first search then walks those packets along chordless paths
    only: it steps from the path's end v to a packet w that no earlier
    path packet points to and that points to no path packet but s, and
    the cycle closes at the first such w that points to s.  A path whose
    every packet that points to s is already on it or pointed to by it can
    never close, and is not extended.  Each step costs a few operations on
    M-bit ints, and every other chordless path from each start is walked
    once, whether it closes or not.  That is the worst case left: a packet
    that points to s but that the path can reach only through a chord, or
    not at all, keeps a dead end open.  A chain of L diamonds from s to a
    packet z that points to s, with s's demander also holding z, is cut at
    once; with one more packet that points to s and that nothing points to,
    its 2^L dead ends are walked again for the one cycle s -> z -> s.
    """
    into = _into(held)
    for s, hs in enumerate(held):
        sbit = 1 << s
        back = _reach(into, sbit, -(sbit << 1))  # the packets above s that reach s
        if not hs & back:
            continue
        closers = into[s] & back
        path = [s]
        # Per path packet: its untried steps, the packets that the path up
        # to it points to, and the path's packets but s.
        stack = [(hs & back, hs, 0)]
        while stack:
            steps, before, inner = stack[-1]
            if not steps:
                stack.pop()
                path.pop()
                continue
            wbit = steps & -steps
            stack[-1] = (steps ^ wbit, before, inner)
            w = wbit.bit_length() - 1
            hw = held[w]
            if hw & inner:
                continue
            if hw & sbit:
                yield path + [w]
                continue
            if not closers & ~before & ~inner:
                continue  # every packet that points to s is cut off already
            path.append(w)
            inner |= wbit
            stack.append((hw & back & ~before & ~inner, before | hw, inner))


def enumerate_cycles(inst: Instance, max_cycles: int = DEFAULT_MAX_CYCLES) -> list[Cycle]:
    """The chordless cycles of the instance, deterministically ordered.

    A cycle p1 -> u1 -> p2 -> ... -> p1 of the bipartite digraph (u_j
    demands p_j and holds p_j+1) is chordless when no u_j holds a cycle
    packet other than p_j+1.  Only these are listed, because a cycle with a
    chord is dominated: a chord from p to q closes a shorter cycle A, from q
    along the cycle back to p, and A's action plus direct sends of the
    other packets clear the cycle's packets at its own cost.  A chordless
    cycle never repeats a user, since two packets with one demander point
    to the same packets, and no other cycle has its packet set: each
    packet's successor is the one cycle packet that its demander holds.

    Each cycle is reported once, starting at its smallest packet id, and
    sorted by (length, sorted packet ids).  `_chordless` finds them on the
    bitmasks of the instance's `_packet_graph`, whose packets are in id
    order; more than max_cycles raises `CapExceeded`.
    """
    pids, held, _ = inst._packet_graph
    demand = [inst.packet(pid).demand for pid in pids]
    cycles = []
    for path in _chordless(held):
        cycles.append(Cycle(tuple(pids[i] for i in path), tuple(demand[i] for i in path)))
        if len(cycles) > max_cycles:
            raise CapExceeded(f"cycle enumeration: more than {max_cycles} found "
                              f"({len(cycles)} so far)", len(cycles))
    cycles.sort(key=lambda c: (c.length, sorted(c.packets)))
    return cycles


def _held_masks(inst: Instance) -> tuple[list[str], list[int]]:
    """The sorted packet ids, and for each packet i the bitmask over them of
    the packets held by i's demander."""
    packets = sorted(inst.packets, key=lambda p: p.id)
    side = dict.fromkeys(inst.users, 0)
    for i, p in enumerate(packets):
        for u in p.side:
            side[u] |= 1 << i
    return [p.id for p in packets], [side[p.demand] for p in packets]


def _blocks(held: list[int]) -> list[int]:
    """The strong components of two or more packets of the packet digraph,
    i -> j when bit j of held[i] is set, as bitmasks in the order of their
    least packets.  A packet s lies on a cycle when it reaches itself, and
    then its component is the packets that s reaches and that reach s,
    which reach s through such packets only."""
    into = _into(held)
    blocks, seen = [], 0
    for s in range(len(held)):
        sbit = 1 << s
        if not seen & sbit:
            ahead = _reach(held, sbit)
            if ahead & sbit:
                block = _reach(into, sbit, ahead)
                blocks.append(block)
                seen |= block
    return blocks


def _packet_graph(inst: Instance) -> tuple[list[str], list[int], list[int]]:
    """`_held_masks` and the `_blocks` of its digraph, which both
    enumerators read; `Instance._packet_graph` keeps them, made once."""
    pids, held = _held_masks(inst)
    return pids, held, _blocks(held)


def _lone_packets(inst: Instance) -> frozenset[str]:
    """The ids of the packets alone in their strong component of the packet
    digraph: on no cycle and in no clique but their singletons."""
    pids, _, blocks = inst._packet_graph
    on_cycle = sum(blocks)  # the components are disjoint
    return frozenset(pid for i, pid in enumerate(pids) if not on_cycle >> i & 1)


def _sieve(hc: dict[int, int], c: int) -> list[int]:
    """Every subset, as a bitmask over the c core bits, of two or more
    core packets with d >= 1, by size and then in descending numeric order.

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
    return [m for masks in by_size[2:] for m in masks]


def enumerate_partial_cliques(inst: Instance) -> list[PartialClique]:
    """The critical (k, d)-partial cliques with d >= 2 inside one strong
    component: every packet subset S of one component with d >= 2 from
    which no packet can be dropped without lowering d, by size and then in
    lexicographic order of packet ids.  They are the columns that P5 adds
    to P2's (`programs.build_P5`).

    Write hc[b] for the set of packets that b's demander holds, and call b
    in S tight when |hc[b] & S| = d(S).  Dropping p leaves d no lower
    exactly when p is in no hc[b] of a tight b, so S is critical exactly
    when S lies in the union of hc[b] & S over its tight members b.

    Every clique S is covered at no more than its column's cost k - d(S)
    by the columns of P5: the direct sends, the chordless cycles of
    `enumerate_cycles` and the cliques listed here.  By induction on k:
    - d(S) = 0: S's direct sends cost k.
    - S keeps its d without a packet p: S - p and p's direct send cover
      it at (k - 1 - d(S - p)) + 1 <= k - d(S).
    - The digraph G[S] that S induces is not strongly connected, which
      holds whenever S spans two strong components: G[S] has a sink
      component B, whose members hold nothing of S - B, so d(B) >= d(S),
      and with d(S - B) >= 0, B and S - B cover S at (|B| - d(B)) +
      (|S - B| - d(S - B)) <= k - d(S) (the module docstring's argument,
      applied to G[S]).
    - S is critical, G[S] is strongly connected and d(S) = 1: S is a
      chordless cycle.  Each tight member holds exactly one packet of S,
      and the tight members' packets cover S, so there are k of them:
      every member is tight.  Every packet of G[S] then has out-degree 1,
      and a strongly connected digraph of out-degree 1 is one cycle with
      no chord.  Its P2 column costs k - 1 = k - d(S).
    - Otherwise S is critical, lies in one strong component and has
      d(S) >= 2: it is listed.
    Only the maximal d per subset is reported, since any (k, d') with
    d' < d costs more.  So val(P5) and val(P5') are those of the full
    family, and so is val(P6'), whose dropped rows follow from the kept
    ones.  The optimal points, the branch tree of P5 and the choice among
    tied optima may differ.

    A strong component of two or more packets is its own clique core, the
    largest of its subsets with d >= 1, since each of its packets holds
    another of it.  d is counted on int bitmasks over each such component:
    the i-th of its c packets in id order is bit c-1-i, and d(S) = min
    over b in S of |hc[b] & S|; criticality is tested in the same loop,
    with one OR per tight member.  A component with more than
    `MAX_CLIQUE_SUBSETS` subsets of two or more packets (c >= 17) raises
    `CapExceeded` before any subset is looked at.  Otherwise `_sieve`
    marks all subsets with d >= 1 of each component at once in an int of
    2^c bits, with c^2 big-int operations, and only those are visited, by
    size and then in descending numeric order, which among subsets of one
    size is lexicographic order of ids; the components' lists are then
    merged in that order.  The components are the instance's
    `_packet_graph`.
    """
    pids, held, blocks = inst._packet_graph
    c = max((block.bit_count() for block in blocks), default=0)
    subsets = (1 << c) - c - 1
    if subsets > MAX_CLIQUE_SUBSETS:
        raise CapExceeded(
            f"partial-clique enumeration: {subsets} subsets of the {c}-packet "
            f"clique core up to size {c}, more than the cap of {MAX_CLIQUE_SUBSETS}",
            subsets)
    found = []  # (k, ids, d) per critical clique with d >= 2
    for block in blocks:
        idx = [i for i in range(len(pids)) if block >> i & 1]
        c = len(idx)
        bit = {i: 1 << (c - 1 - t) for t, i in enumerate(idx)}
        hc = {bit[i]: sum(bit[j] for j in idx if held[i] >> j & 1) for i in idx}
        members = [(bit[i], hc[bit[i]], pids[i]) for i in idx]
        for m in _sieve(hc, c):
            d, tight = c, 0  # tight: the union of hc[b] & S over the tight b so far
            for b, h, _ in members:
                if b & m:
                    held_in = h & m
                    n = held_in.bit_count()
                    if n < d:
                        d, tight = n, held_in
                    elif n == d:
                        tight |= held_in
            if d < 2 or m & ~tight:
                continue
            ids = [pid for b, _, pid in members if b & m]
            found.append((len(ids), ids, d))
    return [PartialClique(frozenset(ids), k, d) for k, ids, d in sorted(found)]
