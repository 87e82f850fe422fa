from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from random import Random

import networkx as nx
import pytest

from indexcode import lp, make_instance, programs
from indexcode.analysis import (
    Analysis,
    PreconditionError,
    SolveError,
    bounds_report,
    is_planar,
)
from indexcode.enumeration import enumerate_cycles, enumerate_partial_cliques
from indexcode.instance import Instance, PacketType

from generators import (
    all_uniprior_instances,
    random_planar_instance,
    random_uniprior_instance,
    random_unicast_instance,
)
from paper_programs import to_undirected

# ----------------------------------------------------------------- planarity

def _planar_by_minors(g):
    """Independent oracle: no subgraph contracts to K5 or K3,3.

    Checks all vertex subsets, so only usable on small graphs.
    """
    nodes = list(g.nodes)
    if len(nodes) < 5:
        return True
    for r in range(5, len(nodes) + 1):
        for sub in combinations(nodes, r):
            h = g.subgraph(sub)
            if _has_minor(h, "k5") or _has_minor(h, "k33"):
                return False
    return True


def _has_minor(g, which):
    # Brute-force minor test via partition into branch sets (tiny graphs only).
    target = nx.complete_graph(5) if which == "k5" else nx.complete_bipartite_graph(3, 3)
    k = target.number_of_nodes()
    nodes = list(g.nodes)
    if len(nodes) < k:
        return False

    def assignments(i, parts):
        if i == len(nodes):
            if all(parts):
                yield parts
            return
        for j in range(k):
            parts[j].append(nodes[i])
            yield from assignments(i + 1, parts)
            parts[j].pop()
        yield from assignments(i + 1, parts)  # node unused

    for parts in assignments(0, [[] for _ in range(k)]):
        if not all(nx.is_connected(g.subgraph(p)) for p in parts):
            continue
        ok = True
        for a, b in target.edges:
            if not any(
                g.has_edge(x, y) for x in parts[a] for y in parts[b]
            ):
                ok = False
                break
        if ok:
            return True
    return False


def test_fig1_planar(fig1):
    assert is_planar(fig1)


def test_fig4_not_planar(fig4):
    assert not is_planar(fig4)
    g = to_undirected(fig4)
    assert g.number_of_nodes() == 6
    assert _has_minor(g, "k33")


def test_forest_instances_planar():
    inst = make_instance(
        ["u1", "u2", "u3"],
        [("p1", 1, "u1", set()), ("p2", 2, "u2", {"u1"}), ("p3", 1, "u3", set())],
    )
    assert is_planar(inst)


def test_planarity_matches_minor_oracle():
    rng = Random(41)
    checked = 0
    for _ in range(12):
        inst = random_unicast_instance(rng, max_packets=3, max_users=3)
        g = to_undirected(inst)
        if g.number_of_nodes() <= 6:
            assert is_planar(inst) == _planar_by_minors(g)
            checked += 1
    assert checked >= 5


def test_constructed_planar_instances_are_planar():
    rng = Random(42)
    for _ in range(30):
        assert is_planar(random_planar_instance(rng))


def _nx_planar(inst):
    return nx.check_planarity(to_undirected(inst))[0]


def _random_bipartite_instance(rng):
    """An instance whose underlying graph is a random bipartite graph: each
    packet is joined to a random subset of the users (one at least), and a
    packet that would repeat another's (demand, side) pair is left out."""
    users = [f"u{i}" for i in range(rng.randint(3, 6))]
    p = rng.uniform(0.2, 0.7)
    seen, packets = set(), []
    for k in range(rng.randint(3, 10)):
        nbrs = [u for u in users if rng.random() < p] or [rng.choice(users)]
        key = (nbrs[0], frozenset(nbrs[1:]))
        if key not in seen:
            seen.add(key)
            packets.append(PacketType(f"p{k}", 1, *key))
    return Instance(tuple(users), tuple(packets))


def test_planarity_matches_networkx_on_random_bipartite_graphs():
    rng = Random(43)
    seen = Counter()
    for _ in range(10_000):
        inst = _random_bipartite_instance(rng)
        g = nx.Graph()
        g.add_nodes_from(inst.users + inst.packet_ids)
        g.add_edges_from((p.id, u) for p in inst.packets for u in (p.demand, *p.side))
        want = nx.check_planarity(g)[0]
        assert is_planar(inst) == want, inst
        seen[want, g.number_of_edges() > 2 * g.number_of_nodes() - 4] += 1
    # The left-right test, not Euler's bound alone, decides hundreds of
    # non-planar graphs.
    assert seen[True, True] == 0 and seen[False, False] >= 500 and seen[True, False] >= 500


def test_planarity_matches_networkx_on_every_3x3_uniprior_instance():
    insts = list(all_uniprior_instances(3, 3))
    assert insts and all(is_planar(inst) == _nx_planar(inst) for inst in insts)


def _subdivided(kind):
    """K5 or K3,3 with each edge {a, b} subdivided by a packet that a demands
    and b holds, as users and packet tuples: bipartite and not planar."""
    if kind == "k5":
        users = [f"a{i}" for i in range(5)]
        pairs = list(combinations(users, 2))
    else:
        users = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
        pairs = [(a, b) for a in users[:3] for b in users[3:]]
    return users, [(f"p{k}", 1, a, {b}) for k, (a, b) in enumerate(pairs)]


@pytest.mark.parametrize("kind", ["k5", "k33"])
def test_subdivided_kuratowski_graphs(kind):
    # Non-planar, within Euler's bound, and planar once any edge is gone.
    users, packets = _subdivided(kind)
    insts = [make_instance(users, packets)]
    insts += [make_instance(users, packets[:k] + packets[k + 1:]) for k in range(len(packets))]
    assert [is_planar(inst) for inst in insts] == [False] + [True] * len(packets)
    assert [_nx_planar(inst) for inst in insts] == [False] + [True] * len(packets)


# -------------------------------------------------------------- bounds report

def test_bounds_fig1(fig1):
    rep = bounds_report(fig1)
    assert (rep.W, rep.valP1, rep.valP1_relaxed) == (3, 2, 2)
    assert rep.valP2 == rep.valP2_relaxed == rep.valP5 == rep.valP5_relaxed == 2
    assert rep.planar and rep.chain_ok and rep.exact_optimal
    assert rep.gap_P1 == rep.gap_P2 == rep.gap_P5 == 0


def test_bounds_fig4(fig4):
    rep = bounds_report(fig4)
    assert rep.W == 3
    assert rep.valP1 == 1
    assert rep.valP1_relaxed == rep.valP2_relaxed == F(3, 2)
    assert rep.valP2 == 2
    assert rep.valP5 == rep.valP5_relaxed == 1
    assert not rep.planar
    assert rep.chain_ok
    assert rep.exact_optimal  # the clique code meets the P1 bound
    assert rep.gap_P1 == F(1, 2)


def test_bounds_chain_on_randoms():
    rng = Random(43)
    for _ in range(15):
        rep = bounds_report(random_unicast_instance(rng))
        assert rep.chain_ok


def test_ilp_without_root_optimum_is_named_as_the_ilp(fig4, monkeypatch):
    def infeasible(inst, cycles, cliques):
        return lp.LinearProgram("min", (1,), [lp.Constraint((), ">=", 1)])

    monkeypatch.setattr(programs, "build_P5", infeasible)
    a = Analysis(fig4)
    with pytest.raises(SolveError, match=r"^P5 is infeasible$"):
        a.solve("P5")
    with pytest.raises(SolveError, match=r"^P5' is infeasible$"):
        a.solve("P5'")


def test_a_relaxation_is_the_result_its_program_keeps(fig4):
    a = Analysis(fig4)
    for cover in ("P2", "P5"):
        res = a.solve(cover + "'")
        assert a.solve(cover + "'") is res is lp.solve_lp(a._program(cover))


def test_truncated_clique_family_is_an_error():
    # A dense draw whose P5 over cliques of at most 3 packets, its P2
    # columns alone, is 5, not 4: P5 ranges over the whole family, which no
    # cap truncates.
    inst = random_unicast_instance(Random(12), 8, 6, 1, 0.6, exact=True)
    cycles, cliques = enumerate_cycles(inst), enumerate_partial_cliques(inst)
    truncated = programs.build_P5(inst, cycles, [t for t in cliques if t.k <= 3])
    assert lp.solve_ilp(truncated).objective == 5
    a = Analysis(inst)
    assert a.cliques == cliques
    assert a.value("P5") == bounds_report(inst).valP5 == 4
    assert lp.solve_lp(lp.transpose(programs.build_P5(inst, cycles, cliques))).objective == \
        a.value("P5'")
    with pytest.raises(TypeError):
        Analysis(inst, max_k=2)
    # With no clique of d >= 1, P5 is P2: the direct sends.
    lone = make_instance(["u1"], [("p1", 1, "u1", set())])
    assert Analysis(lone).value("P5") == 1


def test_p5_is_p2_without_a_clique_of_d_2(fig1, fig4):
    # fig1 has no clique with d >= 2: P5 is P2's object, with its relaxation
    # and its integer optimum.  fig4's (3, 2) clique gives P5 its own.
    a = Analysis(fig1)
    assert a.cliques == []
    assert a._program("P5") is a._program("P2")
    assert a.solve("P5") is a.solve("P2") and a.solve("P5'") is a.solve("P2'")
    b = Analysis(fig4)
    assert len(b.cliques) == 1 and b._program("P5") is not b._program("P2")
    assert b.solve("P5").objective == 1 < b.solve("P2").objective


# ----------------------------------------------------------------- theorems

def test_theorem2_fig1(fig1):
    rep = Analysis(fig1).theorem2()
    assert rep.planar and rep.holds
    assert rep.valP1 == rep.valP1_relaxed == rep.valP2_relaxed == rep.valP2 == 2
    assert rep.optimal_clearance == 2


def test_theorem2_fig4_reports_without_assert(fig4):
    rep = Analysis(fig4).theorem2()
    assert not rep.planar
    assert rep.holds is None
    assert rep.optimal_clearance is None
    assert (rep.valP1, rep.valP1_relaxed, rep.valP2) == (1, F(3, 2), 2)


def test_theorem2_single_packet():
    inst = make_instance(["u1"], [("p1", 1, "u1", set())])
    rep = Analysis(inst).theorem2()
    assert rep.planar and rep.holds
    assert rep.optimal_clearance == 1


def test_theorem2_random_planar():
    rng = Random(44)
    for _ in range(25):
        rep = Analysis(random_planar_instance(rng)).theorem2()
        assert rep.holds


def test_corollary2_ring():
    users = ["u1", "u2", "u3"]
    inst = make_instance(
        users,
        [(f"p{i+1}", 1, users[i], {users[(i + 1) % 3]}) for i in range(3)],
    )
    assert Analysis(inst).corollary2()


def test_corollary2_two_disjoint_2cycles():
    inst = make_instance(
        ["u1", "u2", "u3", "u4"],
        [
            ("p1", 1, "u1", {"u2"}), ("p2", 1, "u2", {"u1"}),
            ("p3", 1, "u3", {"u4"}), ("p4", 1, "u4", {"u3"}),
        ],
    )
    assert Analysis(inst).corollary2()


def test_corollary2_single_user():
    inst = make_instance(["u1"], [("p1", 3, "u1", set())])
    assert Analysis(inst).corollary2()


def test_corollary2_preconditions(fig4):
    with pytest.raises(PreconditionError):
        Analysis(fig4).corollary2()  # not uniprior
    users = [f"u{i}" for i in range(5)]
    ring5 = make_instance(
        users,
        [(f"p{i}", 1, users[i], {users[(i + 1) % 5]}) for i in range(5)],
    )
    with pytest.raises(PreconditionError):
        Analysis(ring5).corollary2()  # too many users


def test_corollary2_exhaustive_small():
    count = 0
    for inst in all_uniprior_instances(max_users=3, max_packets=3):
        assert Analysis(inst).corollary2()
        count += 1
    assert count >= 9


def test_theorem4_random_uniprior():
    rng = Random(45)
    for _ in range(25):
        assert Analysis(random_uniprior_instance(rng)).theorem4()


def test_theorem4_requires_uniprior(fig4):
    with pytest.raises(PreconditionError):
        Analysis(fig4).theorem4()
