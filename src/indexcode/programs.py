"""Builders for the bound/coding linear programs and their relaxations.

Only one side of each dual pair is written out: the covering programs P2
and P5 and the packing programs P4 and P4*.  The deletion programs P1 and
P6 and the feedback-set programs P3 and P3* are their exact LP duals,
`lp.transpose(...)`, so row i of one is column i of the other under the
same name and a pair lines up by index.  Builders over cycles and partial
cliques key each column (`var_keys`) by its `Cycle`, `PartialClique` or
packet id; the names below are never parsed:

* cycle columns carry the packet and user interleaving, ``C:p1|p3@u1|u3``;
  only the first cycle of each packet set gets one (cycles with the same
  packet set give identical columns);
* partial-clique columns are ``T:p1|p2|p3``, one per clique of
  `enumerate_partial_cliques`: the singletons and the cliques with d >= 1
  (a (k, 0)-clique's column would be the sum of its singleton columns);
* per-packet covering rows are ``m:<pid>`` and direct-broadcast columns
  ``y:<pid>``, so P1 and P6 have the columns ``m:<pid>`` and P1 the rows
  ``y:<pid>`` (x_m <= 1);
* split-digraph arc rows are ``a:in.p1>out.p1`` and cycle columns ``sc<i>``.
"""

from __future__ import annotations

from fractions import Fraction

from .enumeration import Cycle, PartialClique
from .instance import Instance, SplitDigraph
from .lp import OPTIMAL, LinearProgram, SolveResult, transpose

__all__ = [
    "build_P1", "build_P1_relaxed", "build_P2", "build_P2_relaxed",
    "build_P3", "build_P4", "build_P3_star", "build_P4_star",
    "build_P5", "build_P5_relaxed", "build_P6", "build_P6_relaxed",
    "verify_duality", "cycle_var_name",
]


def cycle_var_name(c: Cycle) -> str:
    return "C:" + "|".join(c.packets) + "@" + "|".join(c.users)


def _distinct_cycles(cycles):
    """The first cycle of each packet set, in enumeration order."""
    first = {}
    for c in cycles:
        first.setdefault(c.packet_set, c)
    return list(first.values())


def _cyclic_cover_program(inst, cycles, integral) -> LinearProgram:
    pids = list(inst.packet_ids)
    cycles = _distinct_cycles(cycles)
    nvars = len(cycles) + len(pids)
    obj = [Fraction(c.length - 1) for c in cycles] + [Fraction(1)] * len(pids)
    names = [cycle_var_name(c) for c in cycles] + ["y:" + pid for pid in pids]
    lp = LinearProgram(
        "min", tuple(obj), integer=(integral,) * nvars, var_names=tuple(names),
        var_keys=tuple(cycles) + tuple(pids),
    )
    for j, pid in enumerate(pids):
        row = [1 if pid in c.packet_set else 0 for c in cycles]
        row += [1 if i == j else 0 for i in range(len(pids))]
        lp.add_row(row, ">=", inst.packet(pid).weight, "m:" + pid)
    return lp


def build_P2(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Optimal scalar cyclic code: cycle actions plus direct broadcasts."""
    return _cyclic_cover_program(inst, cycles, True)


def build_P2_relaxed(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    return _cyclic_cover_program(inst, cycles, False)


def build_P1(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Maximum packet-weighted acyclic subgraph by packet deletion (ILP):
    the dual of P2, one row per distinct cycle packet set."""
    return transpose(build_P2(inst, cycles))


def build_P1_relaxed(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    return transpose(build_P2_relaxed(inst, cycles))


def build_P4(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Cycle packing: maximize saved transmissions (complement of P2)."""
    cycles = _distinct_cycles(cycles)
    lp = LinearProgram(
        "max",
        (Fraction(1),) * len(cycles),
        integer=(True,) * len(cycles),
        var_names=tuple(cycle_var_name(c) for c in cycles),
        var_keys=tuple(cycles),
    )
    for pid in inst.packet_ids:
        row = [1 if pid in c.packet_set else 0 for c in cycles]
        lp.add_row(row, "<=", inst.packet(pid).weight, "m:" + pid)
    return lp


def build_P3(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Minimum-weight feedback packet vertex set (complement of P1): the
    dual of P4."""
    return transpose(build_P4(inst, cycles))


def _arc_name(arc) -> str:
    (sk, sv), (dk, dv) = arc[0], arc[1]
    return f"a:{sk}.{sv}>{dk}.{dv}"


def build_P4_star(sd: SplitDigraph, sd_cycles) -> LinearProgram:
    """Cycle packing in the packet-split digraph under arc capacities."""
    lp = LinearProgram(
        "max",
        (Fraction(1),) * len(sd_cycles),
        integer=(True,) * len(sd_cycles),
        var_names=tuple(f"sc{i}" for i in range(len(sd_cycles))),
    )
    for a in sd.arcs:
        key = (a[0], a[1])
        row = [1 if key in set(cyc) else 0 for cyc in sd_cycles]
        lp.add_row(row, "<=", a[2], _arc_name(a))
    return lp


def build_P3_star(sd: SplitDigraph, sd_cycles) -> LinearProgram:
    """Minimum feedback arc set of the packet-split digraph: the dual of P4*."""
    return transpose(build_P4_star(sd, sd_cycles))


def _clique_cover_program(inst, cliques, integral) -> LinearProgram:
    obj = [Fraction(t.k - t.d) for t in cliques]
    lp = LinearProgram(
        "min",
        tuple(obj),
        integer=(integral,) * len(cliques),
        var_names=tuple("T:" + "|".join(t.sorted_packets) for t in cliques),
        var_keys=tuple(cliques),
    )
    for pid in inst.packet_ids:
        row = [1 if pid in t.packets else 0 for t in cliques]
        lp.add_row(row, ">=", inst.packet(pid).weight, "m:" + pid)
    return lp


def build_P5(inst: Instance, cliques: list[PartialClique]) -> LinearProgram:
    """Optimal scalar partial-clique code."""
    return _clique_cover_program(inst, cliques, True)


def build_P5_relaxed(inst: Instance, cliques: list[PartialClique]) -> LinearProgram:
    return _clique_cover_program(inst, cliques, False)


def build_P6(inst: Instance, cliques: list[PartialClique]) -> LinearProgram:
    """Deletion program over partial cliques, equivalent to P1: the dual of
    P5.  The singleton (1,0)-cliques supply the x_m <= 1 rows."""
    return transpose(build_P5(inst, cliques))


def build_P6_relaxed(inst: Instance, cliques: list[PartialClique]) -> LinearProgram:
    return transpose(build_P5_relaxed(inst, cliques))


def verify_duality(a: SolveResult, b: SolveResult) -> bool:
    """Certify two solved programs as a primal-dual optimum.

    Both results must be optimal, `b.lp` must be `lp.transpose(a.lp)` up to
    names and integrality, the objectives must be equal, and complementary
    slackness must hold both ways: a positive variable of either program
    forces the row of the other program with the same index tight.
    Names and keys are not read.
    """
    if a.status != OPTIMAL or b.status != OPTIMAL or a.objective != b.objective:
        return False
    p, q = a.lp, b.lp
    for prog in (p, q):
        rel = ">=" if prog.sense == "min" else "<="
        if (any(c.rel != rel for c in prog.constraints) or any(prog.lower)
                or any(hi is not None for hi in prog.upper)):
            return False
    columns = zip(*(c.coeffs for c in p.constraints))
    if (p.sense == q.sense or p.num_vars != len(q.constraints)
            or q.num_vars != len(p.constraints)
            or p.objective != tuple(c.rhs for c in q.constraints)
            or q.objective != tuple(c.rhs for c in p.constraints)
            or any(c.coeffs != col for c, col in zip(q.constraints, columns))):
        return False

    def slack_free(res: SolveResult, values) -> bool:
        """Row i of `res.lp` is tight wherever values[i] > 0."""
        x = [(j, v) for j, v in enumerate(res.primal) if v]
        return all(sum(con.coeffs[j] * v for j, v in x) == con.rhs
                   for con, yi in zip(res.lp.constraints, values) if yi)

    return slack_free(a, b.primal) and slack_free(b, a.primal)
