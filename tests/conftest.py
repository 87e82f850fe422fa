"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: cycle listing
is a plain DFS over vertex sequences, the ILP oracle enumerates all 2^M
deletion patterns, the LP oracle enumerates basic solutions of the
polytope directly, and the certificate oracle checks a solve's certificate
in plain Fraction arithmetic, term by term.
"""

from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
import yaml

from indexcode import Instance, PacketType, make_instance
from indexcode.enumeration import PartialClique

from paper_programs import to_digraph


@pytest.fixture
def fig1():
    """3 users, 3 packets, planar; two cycles."""
    return make_instance(
        ["u1", "u2", "u3"],
        [
            ("p1", 1, "u1", {"u2", "u3"}),
            ("p2", 1, "u2", {"u3"}),
            ("p3", 1, "u3", {"u1"}),
        ],
    )


@pytest.fixture
def fig4():
    """3 users, 3 packets, the unique non-planar 3x3 unicast instance."""
    return make_instance(
        ["u1", "u2", "u3"],
        [
            ("p1", 1, "u1", {"u2", "u3"}),
            ("p2", 1, "u2", {"u1", "u3"}),
            ("p3", 1, "u3", {"u1", "u2"}),
        ],
    )


def pyyaml_instance(text):
    """The unvalidated Instance that `yaml.safe_load` reads from instance
    text that `parse_instance` accepts: a weight defaults to 1, and a
    one-element demand list names its user."""
    doc = yaml.safe_load(text)
    packets = []
    for rec in doc["packets"]:
        demand = rec["demand"]
        packets.append(PacketType(rec["id"], rec.get("weight", 1),
                                  demand[0] if isinstance(demand, list) else demand,
                                  frozenset(rec.get("side", []))))
    return Instance(tuple(doc["users"]), tuple(packets))


def dfs_cycles(inst):
    """All elementary cycles by exhaustive DFS; set of (packets, users)
    tuples rotated to start at the smallest packet id."""
    g = to_digraph(inst)
    found = set()

    def walk(path):
        last = path[-1]
        for nxt in g.successors(last):
            if nxt == path[0]:
                packets = [n[1] for n in path if n[0] == "p"]
                users = [n[1] for n in path if n[0] == "u"]
                i = packets.index(min(packets))
                found.add((tuple(packets[i:] + packets[:i]), tuple(users[i:] + users[:i])))
            elif nxt not in path:
                walk(path + [nxt])

    for node in g.nodes:
        if node[0] == "p":
            walk([node])
    return found


def full_clique_family(inst):
    """Every non-empty packet subset with its maximal d, (k, 0)-cliques
    included, by size and then in lexicographic order of packet ids."""
    pids = sorted(inst.packet_ids)
    held = {pid: inst.side_packets(inst.packet(pid).demand) for pid in pids}
    out = []
    for k in range(1, len(pids) + 1):
        for subset in combinations(pids, k):
            sset = frozenset(subset)
            d = min(len(held[pid] & sset) for pid in subset)
            out.append(PartialClique(sset, k, d))
    return out


def brute_max_acyclic(inst):
    """Maximum-weight packet subset whose induced subgraph is acyclic,
    by trying all 2^M deletion patterns."""
    g = to_digraph(inst)
    pids = list(inst.packet_ids)
    best = 0
    for r in range(len(pids), -1, -1):
        for keep in combinations(pids, r):
            sub = g.subgraph(
                [n for n in g.nodes if n[0] == "u" or n[1] in keep]
            )
            if nx.is_directed_acyclic_graph(sub):
                w = sum(inst.packet(p).weight for p in keep)
                best = max(best, w)
    return Fraction(best)


def _solve_square(rows, rhs):
    """Exact solve of a square Fraction system; None if singular."""
    n = len(rows)
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def lp_vertex_oracle(objective, rows, rhss, lowers, uppers, sense="max"):
    """Optimum of a bounded LP by enumerating vertices: every choice of n
    tight constraints among the rows and bounds defines a candidate basic
    point; keep the best feasible one."""
    n = len(objective)
    cands = [(list(r), Fraction(b)) for r, b in zip(rows, rhss)]
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        cands.append((list(e), Fraction(lowers[j])))
        if uppers[j] is not None:
            cands.append((list(e), Fraction(uppers[j])))
    best = None
    for combo in combinations(range(len(cands)), n):
        pt = _solve_square([cands[i][0] for i in combo], [cands[i][1] for i in combo])
        if pt is None:
            continue
        ok = all(
            sum(a * x for a, x in zip(r, pt)) <= b for r, b in zip(rows, rhss)
        ) and all(
            lowers[j] <= pt[j] and (uppers[j] is None or pt[j] <= uppers[j])
            for j in range(n)
        )
        if not ok:
            continue
        val = sum(c * x for c, x in zip(objective, pt))
        if best is None or (val > best if sense == "max" else val < best):
            best = val
    return best


def certificate_oracle(lp, res):
    """`lp.verify_certificate`'s verdict, in Fraction arithmetic over every
    term of every row: feasibility, row complementary slackness and dual
    signs, the sign of each derived reduced cost against the bound its
    variable sits at, and the objective as c.x, exactly."""
    if res.status != "optimal":
        return False
    x = res.primal
    y = res.row_duals
    sgn = 1 if lp.sense == "min" else -1  # internal minimization sign
    # Primal feasibility + complementary slackness on rows.
    for con, yi in zip(lp.constraints, y):
        lhs = sum(a * x[j] for j, a in con.terms)
        if con.rel == "<=" and lhs > con.rhs:
            return False
        if con.rel == ">=" and lhs < con.rhs:
            return False
        if yi != 0 and lhs != con.rhs:
            return False
        # Dual sign: for a max problem, <= rows have y >= 0, >= rows y <= 0.
        if con.rel == "<=" and sgn * yi > 0:
            return False
        if con.rel == ">=" and sgn * yi < 0:
            return False
    for j in range(lp.num_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if x[j] < lo or (hi is not None and x[j] > hi):
            return False
        # The reduced cost s_j: positive only at the lower bound, negative
        # only at a finite upper bound.
        s = sgn * (lp.objective[j] - sum(yi * a for con, yi in zip(lp.constraints, y)
                                         for k, a in con.terms if k == j))
        if s > 0 and x[j] != lo:
            return False
        if s < 0 and (hi is None or x[j] != hi):
            return False
    return sum(c * xj for c, xj in zip(lp.objective, x)) == res.objective
