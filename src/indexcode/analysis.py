"""Bounds, planarity, and the theorem-level consistency checkers.

An `Analysis` solves the deletion/covering program family of one instance
exactly, each program once: it builds the covering programs P2 and P5,
where P5 is P2 plus a column per critical clique with d >= 2 (P2 itself
when there is none), and the deletion program P1 is the transpose of P2.
`bounds_report` assembles the bound chain val(P1) <= val(P1') = val(P2')
<= val(P2) from it, `duality` certifies a covering relaxation's optimum,
which proves its pair's LP duality, and the theorem checkers assert the
equalities that hold for planar and unicast-uniprior instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import programs
from .enumeration import (
    DEFAULT_MAX_CYCLES, Cycle, PartialClique, _lone_packets, enumerate_cycles,
    enumerate_partial_cliques,
)
from .instance import Instance, is_uniprior, total_weight
from .lp import (
    DEFAULT_NODE_LIMIT, OPTIMAL, LinearProgram, SolveResult, solve_ilp, solve_lp, transpose,
    verify_certificate,
)


class PreconditionError(ValueError):
    """The instance does not satisfy a checker's hypothesis."""


class SolveError(RuntimeError):
    """A program of the family has no optimum."""


def _left_right_planar(n: int, edges: list[tuple[int, int]]) -> bool:
    """Planarity of the simple graph on vertices 0..n-1 with these edges: the
    left-right test (de Fraysseix and Rosenstiehl; Brandes, "The Left-Right
    Planarity Test", 2009) as a decision, with no embedding, iterative.

    A depth-first search orients every edge, away from its root along tree
    edges and towards an ancestor along back edges, and gives each edge its
    two lowest return heights; a second search, taking each vertex's edges
    by nesting depth, keeps a stack of conflict pairs: intervals of back
    edges that must lie on one side (left or right) of the tree, each pair's
    two intervals on opposite sides.  The graph is planar unless some
    interval has to lie on both sides.  An interval is the chain of back
    edges ``ref`` links from its high end down to its low end, stored as
    [low, high]; a pair as [left low, left high, right low, right high];
    None marks an empty end.
    """
    adj = [[] for _ in range(n)]
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    m = len(edges)
    height, parent = [-1] * n, [-1] * n  # parent: the tree edge into a vertex
    tail, head, lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m, [0] * m, [0] * m
    oriented, out, roots = [False] * m, [[] for _ in range(n)], []

    # Orientation: each edge's lowpoints, finished once its subtree is.
    at = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            if at[v] < len(adj[v]):
                w, i = adj[v][at[v]]
                at[v] += 1
                if oriented[i]:
                    continue
                oriented[i] = True
                tail[i], head[i] = v, w
                out[v].append(i)
                lowpt[i] = lowpt2[i] = height[v]
                if height[w] < 0:  # a tree edge: finished when w is
                    parent[w] = i
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue
                lowpt[i] = height[w]  # a back edge
            else:
                stack.pop()
                i = parent[v]
                if i < 0:
                    continue
                v = tail[i]
            # Edge i = (v, w) is finished: its nesting depth, and the
            # lowpoints of the tree edge e into v.
            nesting[i] = 2 * lowpt[i] + (lowpt2[i] < height[v])
            e = parent[v]
            if e >= 0:
                if lowpt[i] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[i])
                    lowpt[e] = lowpt[i]
                elif lowpt[i] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[i])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[i])

    # ref: the next back edge down an interval's chain (an entry for None
    # may be written, and is never read); bottom: the top of S when an edge
    # was reached, below which its return edges lie.
    ref, lowpt_edge, bottom, S = {}, [None] * m, [None] * m, []

    def conflicting(low, high, b):
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei, e):
        """Merge the return edges of ei, and those of its earlier siblings
        that conflict with them, into one new pair; False if one interval
        has to take both sides."""
        P = [None, None, None, None]
        while True:  # the return edges of ei, into P's right interval
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        while S and (conflicting(S[-1][0], S[-1][1], ei)
                     or conflicting(S[-1][2], S[-1][3], ei)):
            Q = S.pop()  # a conflicting pair of earlier siblings
            if conflicting(Q[2], Q[3], ei):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def remove_back_edges(e):
        """Drop the back edges that end at the tail u of tree edge e."""
        u = tail[e]
        while S and lowest(S[-1]) == height[u]:
            S.pop()
        if S:
            P = S[-1]
            while P[1] is not None and head[P[1]] == u:
                P[1] = ref.get(P[1])
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                P[0] = None
            while P[3] is not None and head[P[3]] == u:
                P[3] = ref.get(P[3])
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                P[2] = None

    # Testing: the conflict pairs, each vertex's edges by nesting depth.
    order = [sorted(edges_out, key=nesting.__getitem__) for edges_out in out]
    at, descended = [0] * n, [False] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            e = parent[v]
            if at[v] == len(order[v]):
                stack.pop()
                if e >= 0:
                    remove_back_edges(e)
                continue
            ei = order[v][at[v]]
            if not descended[v]:
                bottom[ei] = S[-1] if S else None
                if parent[head[ei]] == ei:  # a tree edge: go down first
                    descended[v] = True
                    stack.append(head[ei])
                    continue
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
            descended[v] = False
            if lowpt[ei] < height[v]:  # ei has a return edge
                if at[v] == 0:
                    lowpt_edge[e] = lowpt_edge[ei]
                elif not add_constraints(ei, e):
                    return False
            at[v] += 1
    return True


def is_planar(inst: Instance) -> bool:
    """Planarity of the underlying undirected bipartite graph.  A simple
    bipartite planar graph on V >= 3 vertices has at most 2V - 4 edges
    (Euler's formula, every face bounded by at least 4 edges), so a denser
    one is rejected at once; the left-right test decides the rest."""
    m = len(inst.packets)
    user_at = {u: m + j for j, u in enumerate(inst.users)}
    n = m + len(user_at)
    edges = [(i, user_at[u]) for i, p in enumerate(inst.packets)
             for u in (p.demand, *sorted(p.side))]
    if n >= 3 and len(edges) > 2 * n - 4:
        return False
    return _left_right_planar(n, edges)


@dataclass
class BoundsReport:
    W: int
    valP1: Fraction
    valP1_relaxed: Fraction
    valP2: Fraction
    valP2_relaxed: Fraction
    valP5: Fraction
    valP5_relaxed: Fraction
    planar: bool

    @property
    def gap_P1(self) -> Fraction:
        return self.valP1_relaxed - self.valP1

    @property
    def gap_P2(self) -> Fraction:
        return self.valP2 - self.valP2_relaxed

    @property
    def gap_P5(self) -> Fraction:
        return self.valP5 - self.valP5_relaxed

    @property
    def chain_ok(self) -> bool:
        """val(P1) <= val(P1') = val(P2') <= val(P2) and val(P5') <= val(P5)."""
        return (
            self.valP1 <= self.valP1_relaxed == self.valP2_relaxed <= self.valP2
            and self.gap_P5 >= 0
        )

    @property
    def exact_optimal(self) -> bool:
        """True when the lower bound is met by an achievable schedule."""
        return self.planar or self.valP1 == min(self.valP2, self.valP5)


@dataclass
class Theorem2Report:
    planar: bool
    valP1: Fraction
    valP1_relaxed: Fraction
    valP2_relaxed: Fraction
    valP2: Fraction
    holds: bool | None  # None when non-planar (nothing asserted)

    @property
    def optimal_clearance(self) -> Fraction | None:
        return self.valP1 if self.planar and self.holds else None


class Analysis:
    """One instance under fixed caps.  Each family is enumerated, each
    program built or transposed, and each program or relaxation solved, at
    most once, on first use; a program without an optimum raises
    `SolveError`.  A program and its relaxation are one object, so the
    integer program's root reuses the relaxation's optimum, and P1 and P2
    share one simplex solve (`lp.solve_lp`).  P5 is P2's columns plus the
    critical cliques with d >= 2; where there is no such clique, P5 is P2's
    object, and shares its relaxation's and its integer optimum.  The caps
    refuse a family that they would cut short, and never select one.

    The split by strong component is made here.  The packet digraph's
    strong components are made once per instance (`Instance._packet_graph`)
    and read by both enumerators.  A packet alone in its component lies on
    no cycle and in no clique, so every program sends it
    directly at its full weight: P2 and P5, and so P1, are built over the
    other packets only (`_split`), each value adds the lone packets'
    weight, and the schedules send them directly (`coding`).  The
    programs stay one each, over all the components of two or more
    packets: one simplex tableau per component ran slower."""

    def __init__(self, inst: Instance, max_cycles=DEFAULT_MAX_CYCLES,
                 node_limit=DEFAULT_NODE_LIMIT):
        self.inst = inst
        self.max_cycles = max_cycles
        self.node_limit = node_limit
        self._programs: dict[str, LinearProgram] = {}
        self._solved: dict[str, SolveResult] = {}

    @cached_property
    def cycles(self) -> list[Cycle]:
        return enumerate_cycles(self.inst, self.max_cycles)

    @cached_property
    def cliques(self) -> list[PartialClique]:
        """The columns that P5 adds to P2's: the critical cliques with
        d >= 2 of one strong component."""
        return enumerate_partial_cliques(self.inst)

    @cached_property
    def _split(self) -> tuple[Instance, int]:
        """The instance without the packets alone in their strong component
        (`enumeration._lone_packets`), in its own order, over which P2 and
        P5 are built, and those packets' weight, which each value adds."""
        lone = _lone_packets(self.inst)
        if not lone:
            return self.inst, 0
        coded = Instance(self.inst.users, tuple(p for p in self.inst.packets if p.id not in lone))
        return coded, total_weight(self.inst) - total_weight(coded)

    def _program(self, name: str) -> LinearProgram:
        """The integer program P2 or P5 over `_split`'s instance, or P1, the
        transpose of P2, made once on first use (`solve` reads a primed name
        as its LP relaxation)."""
        prog = self._programs.get(name)
        if prog is None:
            # Builders are looked up in `programs` at call time, so wrappers apply.
            coded = self._split[0]
            if name == "P2":
                prog = programs.build_P2(coded, self.cycles)
            elif name == "P5":
                # The clique cap fires before the cycle cap.
                prog = (programs.build_P5(coded, self.cycles, self.cliques) if self.cliques
                        else self._program("P2"))
            elif name == "P1":
                prog = transpose(self._program("P2"))
            else:
                raise KeyError(name)
            self._programs[name] = prog
        return prog

    def solve(self, name: str) -> SolveResult:
        """The optimum of P1, P2 or P5, or of a primed LP relaxation, over
        the packets of `_split`'s instance.  A relaxation's entry is the
        result its program keeps (`solve_lp`); the entry makes each name
        cost one `solve_lp` call per analysis.  P5 that is P2's object
        takes P2's integer optimum."""
        if name == "P5" and self._program("P5") is self._programs.get("P2"):
            name = "P2"
        res = self._solved.get(name)
        if res is None:
            prog = self._program(name.rstrip("'"))
            res = solve_lp(prog) if name.endswith("'") else solve_ilp(prog, self.node_limit)
            if res.status != OPTIMAL:
                raise SolveError(f"{name} is {res.status}")
            self._solved[name] = res
        return res

    def value(self, name: str) -> Fraction:
        """The value of P1, P2 or P5, or of a primed relaxation, over the
        whole instance: `solve`'s objective plus the lone packets' weight."""
        return self.solve(name).objective + self._split[1]

    def duality(self, cover: str) -> bool:
        """`verify_certificate` on the LP optimum of the covering program
        `cover`, P2 or P5.  A valid certificate proves both programs of the
        pair optimal with one value: the point solves the covering
        relaxation (P2' or P5'), and its row duals solve the LP dual, the
        deletion relaxation (P1' or P6')."""
        return verify_certificate(self._program(cover), self.solve(cover + "'"))

    def bounds(self) -> BoundsReport:
        self.cliques  # a clique core over its cap is refused before any cycle is enumerated
        v = self.value
        return BoundsReport(
            W=total_weight(self.inst),
            valP1=v("P1"), valP1_relaxed=v("P1'"),
            valP2=v("P2"), valP2_relaxed=v("P2'"),
            valP5=v("P5"), valP5_relaxed=v("P5'"),
            planar=is_planar(self.inst),
        )

    def theorem2(self) -> Theorem2Report:
        """On planar instances the whole chain collapses to a single value."""
        v1, v1r, v2, v2r = (self.value(n) for n in ("P1", "P1'", "P2", "P2'"))
        planar = is_planar(self.inst)
        holds = (v1 == v1r == v2r == v2) if planar else None
        return Theorem2Report(planar, v1, v1r, v2r, v2, holds)

    def corollary2(self) -> bool:
        """Scalar cyclic codes are optimal for uniprior instances of <= 4 users.

        Uses the lenient uniprior predicate (each packet held by at most one
        user): side-free packets lie on no cycle, so they add their weight to
        both val(P1) and val(P2) and cannot break the equality.
        """
        if not is_uniprior(self.inst, strict=False):
            raise PreconditionError("instance is not unicast-uniprior")
        if len(self.inst.users) > 4:
            raise PreconditionError("corollary applies to at most 4 users")
        return self.value("P1") == self.value("P2")

    def theorem4(self) -> bool:
        """Cyclic and partial-clique codes tie on unicast-uniprior instances,
        both at scalar and vector granularity."""
        if not is_uniprior(self.inst, strict=True):
            raise PreconditionError("instance is not unicast-uniprior")
        v = self.value
        return v("P2") == v("P5") and v("P2'") == v("P5'")


def bounds_report(inst: Instance, max_cycles=DEFAULT_MAX_CYCLES,
                  node_limit=DEFAULT_NODE_LIMIT) -> BoundsReport:
    """Solve the six programs exactly and assemble the gap report."""
    return Analysis(inst, max_cycles, node_limit).bounds()

