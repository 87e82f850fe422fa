"""The paper's programs and constructions that only its proofs use.

The complement programs P3 and P4 and the packet-split programs P3* and
P4* appear in the paper's proofs (criterion 8 of the acceptance suite),
and so do the extraction of packet-disjoint cycles from a partial clique
and the rewriting of a cyclic code as a partial-clique code (Theorem 4).
No command reaches them, nor the determinant over GF(2^8) that checks the
MDS minors, nor the rotation of a cycle to its smallest packet id that the
cycle oracles use, nor the writer of the instance files the tests read, so
they live here, next to the tests that check them, with the instance's digraph
and its undirected graph as networkx graphs for the tests' oracles.  P4 and P4* are built like P2 and P5, by
`programs._incidence_program`; P3 and P3* are `lp.transpose(build_P4(...))`
and `lp.transpose(build_P4_star(...))`.
"""

import networkx as nx
import yaml

from indexcode.coding import GF256, CodingAction, TransmissionSchedule, _expand
from indexcode.enumeration import Cycle, PartialClique
from indexcode.gf256 import gf_inv, gf_mul
from indexcode.instance import Instance, is_uniprior, total_weight
from indexcode.lp import LinearProgram
from indexcode.programs import _incidence_program, _packet_rows, cycle_var_name


def to_digraph(inst: Instance) -> nx.DiGraph:
    """The bipartite digraph: ("p", id) -> ("u", id) arcs are demands,
    ("u", id) -> ("p", id) arcs are side information."""
    g = nx.DiGraph()
    for u in inst.users:
        g.add_node(("u", u))
    for p in inst.packets:
        g.add_node(("p", p.id))
        g.add_edge(("p", p.id), ("u", p.demand))
        for u in sorted(p.side):
            g.add_edge(("u", u), ("p", p.id))
    return g


def to_undirected(inst: Instance) -> nx.Graph:
    """Underlying undirected bipartite graph (arc directions dropped)."""
    return to_digraph(inst).to_undirected()


def build_P4(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Cycle packing: maximize saved transmissions (complement of P2)."""
    columns = [(cycle_var_name(c), c, 1, c.packets) for c in cycles]
    return _incidence_program("max", columns, _packet_rows(inst))


def split_digraph(inst: Instance) -> nx.DiGraph:
    """The instance digraph with each packet vertex split into an ("in", id)
    and an ("out", id) vertex joined by an arc of the packet's weight.  Every
    other arc weighs 1 + W, more than all packet arcs together, so no
    minimum feedback arc set ever picks one."""
    heavy = 1 + total_weight(inst)
    g = nx.DiGraph()
    for p in inst.packets:
        g.add_edge(("in", p.id), ("out", p.id), weight=p.weight)
        g.add_edge(("out", p.id), ("u", p.demand), weight=heavy)
        for u in sorted(p.side):
            g.add_edge(("u", u), ("in", p.id), weight=heavy)
    return g


def split_digraph_cycles(g: nx.DiGraph) -> list[tuple]:
    """Elementary cycles of a split digraph as arc tuples, each starting at
    its smallest packet arc, by length and then by text."""
    out = []
    for nodes in nx.simple_cycles(g):
        arcs = [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]
        i = min((j for j, a in enumerate(arcs) if a[0][0] == "in"), key=lambda j: arcs[j][0][1])
        out.append(tuple(arcs[i:] + arcs[:i]))
    out.sort(key=lambda arcs: (len(arcs), str(arcs)))
    return out


def build_P4_star(g: nx.DiGraph, cycles: list[tuple]) -> LinearProgram:
    """Cycle packing in the split digraph under arc capacities: one column
    ``sc<i>`` per cycle, one row ``a:in.p1>out.p1`` per arc."""
    columns = [(f"sc{i}", cyc, 1, frozenset(cyc)) for i, cyc in enumerate(cycles)]
    rows = [((a, b), f"a:{a[0]}.{a[1]}>{b[0]}.{b[1]}", w) for a, b, w in g.edges(data="weight")]
    return _incidence_program("max", columns, rows)


def validate_cycle(inst: Instance, c: Cycle) -> None:
    """Raise ValueError naming the first condition of a cycle that fails."""
    k = len(c.packets)
    if not 2 <= k == len(c.users) == len(set(c.packets)) == len(set(c.users)):
        raise ValueError(f"cycle needs k >= 2 distinct packets and k distinct users: {c}")
    for j in range(k):
        pid, user, nxt = c.packets[j], c.users[j], c.packets[(j + 1) % k]
        if inst.packet(pid).demand != user:
            raise ValueError(f"cycle: {user} does not demand {pid}")
        if user not in inst.packet(nxt).side:
            raise ValueError(f"cycle: {user} does not hold {nxt}")


def normalize_cycle(packets, users) -> Cycle:
    """Rotate so the lexicographically smallest packet id comes first."""
    i = packets.index(min(packets))
    return Cycle(tuple(packets[i:] + packets[:i]), tuple(users[i:] + users[:i]))


def extract_cycles_from_clique(clique: PartialClique, inst: Instance) -> list[Cycle]:
    """Pull d packet-disjoint cycles out of a partial clique (uniprior only).

    From the smallest packet left, walk from each packet to its demander and
    from each user to the smallest packet left that it holds, until a vertex
    repeats; keep that cycle, drop its packets, and repeat d times.
    """
    if not is_uniprior(inst, strict=False):
        raise ValueError("cycle extraction requires a unicast-uniprior instance")
    left = set(clique.packets)
    cycles = []
    for _ in range(clique.d):
        node, walk = ("p", min(left)), []
        while node not in walk:
            walk.append(node)
            kind, x = node
            node = (("u", inst.packet(x).demand) if kind == "p"
                    else ("p", min(p for p in left if x in inst.packet(p).side)))
        cyc = walk[walk.index(node):]
        if cyc[0][0] == "u":
            cyc = cyc[1:] + cyc[:1]
        cycles.append(normalize_cycle([x for _, x in cyc[::2]], [x for _, x in cyc[1::2]]))
        left -= {x for kind, x in cyc if kind == "p"}
    return cycles


def cycle_to_clique(inst: Instance, schedule: TransmissionSchedule) -> TransmissionSchedule:
    """Replace every K-cycle action by a (K,1)-clique action and every direct
    broadcast by a (1,0)-clique action.

    Transmission counts are preserved exactly: a round of either action is
    K-1 transmissions, one per row (K-1 XORs or K-1 MDS rows).
    """
    actions = [a if a.kind == "clique" else
               CodingAction("clique", tuple(sorted(a.packets)), a.count, d=int(a.kind == "cycle"))
               for a in schedule.actions]
    return _expand(inst, actions, schedule.theta, GF256)


def gf_det(matrix) -> int:
    """Determinant of a square matrix over GF(2^8) (for minor checks)."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        det = gf_mul(det, m[col][col])
        inv = gf_inv(m[col][col])
        for i in range(col + 1, n):
            if m[i][col]:
                f = gf_mul(m[i][col], inv)
                m[i] = [a ^ gf_mul(f, b) for a, b in zip(m[i], m[col])]
    return det


def serialize_instance(inst: Instance) -> str:
    """Emit instance-file text; `parse_instance` round-trips it."""
    doc = {
        "users": list(inst.users),
        "packets": [
            {"id": p.id, "weight": p.weight, "demand": p.demand, "side": sorted(p.side)}
            for p in inst.packets
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False)
