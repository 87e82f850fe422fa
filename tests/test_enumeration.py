from collections import Counter
from random import Random

import networkx as nx
import pytest

from indexcode import enumerate_cycles, enumerate_partial_cliques, make_instance
from indexcode.enumeration import CapExceeded, Cycle, PartialClique, _packet_graph, _sieve

from conftest import dfs_cycles, full_clique_family, side_packets
from generators import random_unicast_instance, random_uniprior_instance
from paper_programs import (
    extract_cycles_from_clique, normalize_cycle, to_digraph, validate_cycle,
)


def _chordless(inst, packets, users):
    """Whether no user of the cycle holds a cycle packet other than the
    successor of the packet it demands."""
    k = len(packets)
    return all(q == packets[(j + 1) % k] or u not in inst.packet(q).side
               for j, u in enumerate(users) for q in packets)


def test_fig1_cycles(fig1):
    # The 3-cycle p1 -> p3 -> p2 has the chord p3 -> p1 (u3 holds p1).
    cycles = enumerate_cycles(fig1)
    assert cycles == [Cycle(("p1", "p3"), ("u1", "u3"))]
    assert not _chordless(fig1, ("p1", "p3", "p2"), ("u1", "u3", "u2"))


def test_fig4_cycles(fig4):
    # Every user holds both packets it does not demand, so both
    # orientations of {p1, p2, p3} have chords.
    cycles = enumerate_cycles(fig4)
    assert {c.packet_set for c in cycles} == {
        frozenset({"p1", "p2"}), frozenset({"p1", "p3"}), frozenset({"p2", "p3"})
    }
    assert len(cycles) == 3


def test_acyclic_instance_has_no_cycles():
    inst = make_instance(["u1"], [("p1", 1, "u1", set())])
    assert enumerate_cycles(inst) == []


def test_cycles_match_dfs_oracle(fig1, fig4):
    rng = Random(5)
    insts = [fig1, fig4] + [random_unicast_instance(rng) for _ in range(30)]
    for inst in insts:
        got = {(c.packets, c.users) for c in enumerate_cycles(inst)}
        assert got == {c for c in dfs_cycles(inst) if _chordless(inst, *c)}


def _nx_cycles(inst):
    """The chordless ones of the cycles networkx's `simple_cycles` finds in
    the instance digraph, normalized and sorted as `enumerate_cycles`
    reports them."""
    cycles = []
    for nodes in nx.simple_cycles(to_digraph(inst)):
        i = next(j for j, n in enumerate(nodes) if n[0] == "p")
        nodes = nodes[i:] + nodes[:i]
        cycles.append(normalize_cycle([x for _, x in nodes[0::2]], [x for _, x in nodes[1::2]]))
    cycles = [c for c in cycles if _chordless(inst, c.packets, c.users)]
    return sorted(cycles, key=lambda c: (c.length, sorted(c.packets), c.packets, c.users))


def test_cycles_match_networkx():
    rng = Random(17)
    found = 0
    for k in range(1000):
        inst = (random_unicast_instance(rng) if k % 2 else
                random_unicast_instance(rng, max_packets=10, max_users=6, side_prob=0.5))
        cycles = enumerate_cycles(inst)
        assert cycles == _nx_cycles(inst), inst
        found += len(cycles)
    assert found >= 1000


def test_cycles_validate_and_are_sorted(fig4):
    cycles = enumerate_cycles(fig4)
    for c in cycles:
        validate_cycle(fig4, c)
    assert cycles == sorted(
        cycles, key=lambda c: (c.length, sorted(c.packets), c.packets, c.users)
    )


def test_cycle_validate_rejects_non_cycles(fig1):
    # Raised, not asserted, so the check survives `python -O`.
    with pytest.raises(ValueError, match="u2 does not demand p1"):
        validate_cycle(fig1, Cycle(("p1", "p3"), ("u2", "u3")))
    with pytest.raises(ValueError, match="u1 does not hold p2"):
        validate_cycle(fig1, Cycle(("p1", "p2"), ("u1", "u2")))
    with pytest.raises(ValueError, match="k >= 2"):
        validate_cycle(fig1, Cycle(("p1",), ("u1",)))


def test_cycle_cap():
    with pytest.raises(CapExceeded) as ei:
        fig4 = make_instance(
            ["u1", "u2", "u3"],
            [
                ("p1", 1, "u1", {"u2", "u3"}),
                ("p2", 1, "u2", {"u1", "u3"}),
                ("p3", 1, "u3", {"u1", "u2"}),
            ],
        )
        enumerate_cycles(fig4, max_cycles=2)
    assert ei.value.found == 3


def test_fig1_cliques(fig1):
    # {p1, p2, p3} has d = 1 and keeps it without p2: it is not critical.
    # The critical (2, 1) clique {p1, p3} is the chordless cycle of P2.
    full = {t.packets: t for t in full_clique_family(fig1)}
    assert full[frozenset(fig1.packet_ids)].d == 1
    assert not _critical(fig1, full[frozenset(fig1.packet_ids)])
    assert _critical(fig1, full[frozenset({"p1", "p3"})])
    assert [c.packet_set for c in enumerate_cycles(fig1)] == [frozenset({"p1", "p3"})]
    assert enumerate_partial_cliques(fig1) == []


def test_fig4_cliques(fig4):
    # The (2, 1) cliques are the 2-cycles, and only the (3, 2) one is listed.
    assert enumerate_partial_cliques(fig4) == [PartialClique(frozenset(fig4.packet_ids), 3, 2)]
    assert [c.packet_set for c in enumerate_cycles(fig4)] == [
        frozenset({p, q}) for p, q in [("p1", "p2"), ("p1", "p3"), ("p2", "p3")]]


def test_clique_d_is_maximal():
    rng = Random(9)
    checked = 0
    for _ in range(20):
        inst = random_unicast_instance(rng, 7, 5, 3, 0.7, exact=True)
        for t in enumerate_partial_cliques(inst):
            demanders = {inst.packet(pid).demand for pid in t.packets}
            counts = [len(side_packets(inst, u) & t.packets) for u in demanders]
            assert min(counts) == t.d
            assert 2 <= t.d <= t.k - 1
            checked += 1
    assert checked >= 20


def _critical(inst, t):
    """Whether t is a singleton, or d drops when any one packet leaves it."""
    def d(packets):
        return min(len(side_packets(inst, inst.packet(p).demand) & packets) for p in packets)
    return t.k == 1 or all(d(t.packets - {p}) < t.d for p in t.packets)


def _blocks(inst):
    """The packet sets of the strong components of the bipartite digraph
    (networkx) that hold two or more packets."""
    comps = (frozenset(x for kind, x in comp if kind == "p")
             for comp in nx.strongly_connected_components(to_digraph(inst)))
    return [c for c in comps if len(c) > 1]


def test_blocks_are_the_strong_components_of_two_or_more_packets():
    # One packet per user, so user i holding packet j is the arc p_i -> p_j
    # of a random digraph: packets in up to three groups, with arcs inside
    # a group and from a group to a later one only.
    rng = Random(5)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 14)
        users = [f"u{i:02}" for i in range(n)]
        group = [rng.randrange(3) for _ in range(n)]
        inside, later = rng.uniform(0.1, 0.6), rng.uniform(0, 0.3)

        def holds(i, j):
            return i != j and rng.random() < (
                inside if group[i] == group[j] else later if group[i] < group[j] else 0)

        inst = make_instance(users, [(f"p{j:02}", 1, users[j], {
            u for i, u in enumerate(users) if holds(i, j)}) for j in range(n)])
        pids, _, blocks = _packet_graph(inst)
        got = [frozenset(p for i, p in enumerate(pids) if b >> i & 1) for b in blocks]
        assert len(got) == len(set(got)) and set(got) == set(_blocks(inst))
        seen[min(len(got), 2)] += 1
    assert min(seen.values()) >= 50, seen


def test_cliques_are_the_non_dominated_family():
    rng = Random(31)
    insts = [random_unicast_instance(rng, rng.randint(1, 8), rng.choice((3, 5, 8)), 3, 0.6,
                                     exact=True) for _ in range(40)]
    insts += [random_unicast_instance(rng) for _ in range(20)]
    # Dense draws of 9 to 14 packets whose largest strong components hold 8
    # to 14, and a 16-packet ring whose packets are each held by the two
    # users after their demander: the largest component whose every subset
    # is examined.
    insts += [random_unicast_instance(rng, m, 6, 3, 0.5, exact=True) for m in range(9, 15)]
    insts.append(_ring(16, (1, 2)))
    assert [max(map(len, _blocks(inst))) for inst in insts[-7:]] == [8, 8, 11, 11, 12, 14, 16]
    for inst in insts:
        cliques = enumerate_partial_cliques(inst)
        # The critical cliques with d >= 2 of the brute-force family that
        # lie inside one strong component, in the same order and with the
        # same d.
        full = full_clique_family(inst)
        blocks = _blocks(inst)
        kept = [t for t in full if t.d >= 2 and _critical(inst, t)
                and any(t.packets <= b for b in blocks)]
        assert cliques == kept
        # Each component of two or more packets is a clique with d >= 1,
        # so the largest inside it: its own clique core.
        for b in blocks:
            assert max((t.packets for t in full if t.d >= 1 and t.packets <= b), key=len) == b


def test_sieve_yields_exactly_the_subsets_with_d_at_least_2():
    # Per component, the subsets are those of every size with d >= 2 and
    # no other, by size and then in descending numeric order: none with
    # d <= 1 is left for `enumerate_partial_cliques` to visit.
    rng = Random(8)
    insts = [random_unicast_instance(rng, 7, 5, 3, rng.uniform(0.3, 0.8)) for _ in range(60)]
    insts += [random_uniprior_instance(rng, 7, 4) for _ in range(40)]
    insts += [random_unicast_instance(rng, m, 6, 3, 0.5, exact=True) for m in range(9, 13)]
    insts.append(_ring(10, (1, 2)))
    seen = Counter()
    for inst in insts:
        pids, held, blocks = _packet_graph(inst)
        for block in blocks:
            idx = [i for i in range(len(pids)) if block >> i & 1]
            c = len(idx)
            bit = {i: 1 << (c - 1 - t) for t, i in enumerate(idx)}
            hc = {bit[i]: sum(bit[j] for j in idx if held[i] >> j & 1) for i in idx}

            def d(m):
                return min((hc[b] & m).bit_count() for b in hc if b & m)

            every = [m for m in range(1, 1 << c) if d(m) >= 2]
            assert _sieve(hc, c) == sorted(every, key=lambda m: (m.bit_count(), -m))
            for m in range(1, 1 << c):
                seen[min(d(m), 2)] += 1
    assert min(seen.values()) >= 500, seen


def test_strongly_connected_critical_d1_cliques_are_the_chordless_cycles():
    # A critical clique with d = 1 whose induced digraph G[S] is strongly
    # connected is a chordless cycle, so P5 takes it from P2's columns.
    # Conversely, every chordless cycle's packet set is such a clique.
    rng = Random(12)
    insts = [random_unicast_instance(rng, 7, 5, 3, rng.uniform(0.2, 0.7)) for _ in range(100)]
    insts += [random_uniprior_instance(rng, 7, 4) for _ in range(100)]
    seen = 0
    for inst in insts:
        g = nx.DiGraph((p.id, q) for p in inst.packets
                       for q in side_packets(inst, p.demand))
        g.add_nodes_from(inst.packet_ids)
        d1 = {t.packets for t in full_clique_family(inst) if t.d == 1 and _critical(inst, t)
              and nx.is_strongly_connected(g.subgraph(t.packets))}
        assert d1 == {c.packet_set for c in enumerate_cycles(inst)}
        seen += len(d1)
    assert seen >= 100


def _ring(n, offsets=(1,)):
    users = [f"u{i}" for i in range(n)]
    return make_instance(
        users,
        [(f"p{i}", 1, users[i], {users[(i + o) % n] for o in offsets}) for i in range(n)],
    )


def test_extract_cycles_ring():
    inst = _ring(3)
    cliques = {t.packets: t for t in full_clique_family(inst)}
    full = cliques[frozenset(inst.packet_ids)]
    assert full.d == 1
    cycles = extract_cycles_from_clique(full, inst)
    assert len(cycles) == 1
    assert cycles[0].packet_set == frozenset(inst.packet_ids)
    validate_cycle(inst, cycles[0])


def test_extract_cycles_d0():
    inst = _ring(3)
    t = PartialClique(frozenset({"p0"}), 1, 0)
    assert extract_cycles_from_clique(t, inst) == []


def test_extract_cycles_two_components():
    # Two disjoint 2-cycles unioned: d = 1 over the whole packet set.  The
    # union spans two strong components, so `enumerate_partial_cliques`
    # does not list it, and it is built here.
    inst = make_instance(
        ["u1", "u2", "u3", "u4"],
        [
            ("p1", 1, "u1", {"u2"}), ("p2", 1, "u2", {"u1"}),
            ("p3", 1, "u3", {"u4"}), ("p4", 1, "u4", {"u3"}),
        ],
    )
    full = PartialClique(frozenset(inst.packet_ids), 4, 1)
    assert full not in enumerate_partial_cliques(inst)
    cycles = extract_cycles_from_clique(full, inst)
    assert len(cycles) == 1
    seen = set().union(*(c.packet_set for c in cycles))
    assert seen in ({"p1", "p2"}, {"p3", "p4"})


def test_extract_cycles_disjoint_property():
    rng = Random(21)
    checked = 0
    for _ in range(60):
        inst = random_uniprior_instance(rng, max_weight=1)
        for t in full_clique_family(inst):
            if t.d >= 1 and _critical(inst, t):
                cycles = extract_cycles_from_clique(t, inst)
                assert len(cycles) == t.d
                packet_lists = [c.packet_set for c in cycles]
                assert len(frozenset().union(*packet_lists)) == sum(
                    len(s) for s in packet_lists
                )
                for c in cycles:
                    validate_cycle(inst, c)
                checked += 1
    assert checked > 10


def test_extract_cycles_rejects_non_uniprior(fig4):
    t = PartialClique(frozenset(fig4.packet_ids), 3, 2)
    with pytest.raises(ValueError, match="uniprior"):
        extract_cycles_from_clique(t, fig4)
