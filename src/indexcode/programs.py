"""Builders for the bound and coding programs of the paper.

Each program has one builder, and `lp.solve_ilp` solves it as an integer
program while `lp.solve_lp` solves its LP relaxation (a primed name, P2'
for P2).  Only the covering programs P2 and P5 are written out, each a 0/1
incidence matrix of columns against per-packet rows, held as integer data:
a packet's row lists the columns whose members hold it, in rising order,
and its rhs is the packet's weight.  P5 is P2 with more columns: P2's
cycles and direct sends, in P2's order, then the critical cliques with
d >= 2 (a chordless cycle is a (k, 1) partial clique at P2's cost k - 1,
and a direct send a (1, 0) one).  The deletion programs P1 and P6 are
their exact LP duals.  `analysis.Analysis` builds P2 and P5 over the
packets of the strong components of two or more packets only: a packet
alone in its component lies on no cycle and in no clique, so each
program would send it directly at its weight, which the values add and
`coding` sends.  P1 is built as `lp.transpose(build_P2(...))`, so row i of
one is column i of the other under the same name; P6 is never built:
`lp.verify_certificate` on P5's LP optimum proves P5' and P6' optimal with
one value (`Analysis.duality`), as it does P2' and P1'.  Each column is
keyed (`var_keys`) by its `Cycle`, `PartialClique` or packet id; the names
below are never parsed:

* cycle columns carry the packet and user interleaving, ``C:p1|p3@u1|u3``,
  one per cycle of `enumerate_cycles`: the chordless cycles, no two of
  which share a packet set;
* partial-clique columns are ``T:p1|p2|p3``, one per clique of
  `enumerate_partial_cliques`: the critical cliques with d >= 2 inside
  one strong component;
* per-packet covering rows are ``m:<pid>`` and direct-broadcast columns
  ``y:<pid>``, so P1 has the columns ``m:<pid>`` and the rows ``y:<pid>``
  (x_m <= 1).

`_direct_name` gives a direct send's name, so that `coding` places a
packet left out of a program where its column's name would put it.
"""

from __future__ import annotations

from .enumeration import Cycle, PartialClique
from .instance import Instance
from .lp import Constraint, LinearProgram

__all__ = ["build_P2", "build_P5", "cycle_var_name"]


def cycle_var_name(c: Cycle) -> str:
    return "C:" + "|".join(c.packets) + "@" + "|".join(c.users)


def _incidence_program(sense, columns, rows) -> LinearProgram:
    """The 0/1 program over x >= 0 with one column per `(name, key, cost,
    members)` and one row per `(element, name, rhs)`: the row has a 1 in
    each column whose members hold its element, and reads >= in a "min"
    program and <= in a "max" one.  Each column adds its term to its
    members' rows, so the rows come out sparse, in rising column order."""
    rel = ">=" if sense == "min" else "<="
    names, keys, costs, members = tuple(zip(*columns)) or ((),) * 4
    terms = {element: [] for element, _, _ in rows}
    for j, m in enumerate(members):
        for element in m:
            terms[element].append((j, 1))
    constraints = [Constraint(terms[element], rel, rhs, name) for element, name, rhs in rows]
    return LinearProgram(sense, costs, constraints, var_names=names, var_keys=keys)


def _packet_rows(inst: Instance):
    return [(p.id, "m:" + p.id, p.weight) for p in inst.packets]


def _direct_name(pid: str) -> str:
    """The name of the direct-send column of a packet."""
    return "y:" + pid


def _cover_columns(inst: Instance, cycles: list[Cycle]):
    """P2's columns: one per cycle, then one direct send per packet."""
    columns = [(cycle_var_name(c), c, c.length - 1, c.packets) for c in cycles]
    return columns + [(_direct_name(pid), pid, 1, (pid,)) for pid in inst.packet_ids]


def build_P2(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Optimal cyclic code: cycle actions plus direct broadcasts, a scalar
    code at the integer optimum and a vector code at the LP optimum."""
    return _incidence_program("min", _cover_columns(inst, cycles), _packet_rows(inst))


def build_P5(inst: Instance, cycles: list[Cycle],
             cliques: list[PartialClique]) -> LinearProgram:
    """Optimal partial-clique code, scalar at the integer optimum and
    vector at the LP optimum: P2's columns, in P2's order, then one column
    per clique."""
    columns = _cover_columns(inst, cycles) + [
        ("T:" + "|".join(t.sorted_packets), t, t.k - t.d, t.packets) for t in cliques]
    return _incidence_program("min", columns, _packet_rows(inst))
