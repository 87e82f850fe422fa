"""Builders for the bound/coding linear programs and their relaxations.

Builders over cycles and partial cliques key each column (`var_keys`) by its
`Cycle`, `PartialClique` or packet id; the names below are never parsed.
Naming conventions tie primal rows to dual variables across the pair of
programs built from the same instance:

* cycle-constraint rows (deletion side) are keyed by packet set,
  ``C:p1|p3``; cycle variables (covering side) additionally carry the user
  interleaving, ``C:p1|p3@u1|u3``;
* partial-clique rows and variables share the key ``T:p1|p2|p3``;
* per-packet covering rows are ``m:<pid>``, direct-broadcast variables are
  ``y:<pid>``, deletion indicators are ``x:<pid>``.
"""

from __future__ import annotations

from fractions import Fraction

from .enumeration import Cycle, PartialClique
from .instance import Instance, SplitDigraph
from .lp import OPTIMAL, LinearProgram, SolveResult

__all__ = [
    "build_P1", "build_P1_relaxed", "build_P2", "build_P2_relaxed",
    "build_P3", "build_P4", "build_P3_star", "build_P4_star",
    "build_P5", "build_P5_relaxed", "build_P6", "build_P6_relaxed",
    "verify_duality", "cycle_var_name", "clique_name",
]


def _set_key(packets) -> str:
    return "|".join(sorted(packets))


def cycle_var_name(c: Cycle) -> str:
    return "C:" + "|".join(c.packets) + "@" + "|".join(c.users)


def cycle_row_name(packet_set) -> str:
    return "C:" + _set_key(packet_set)


def clique_name(packets) -> str:
    return "T:" + _set_key(packets)


def _dedup_cycle_rows(cycles):
    """Distinct packet sets of the cycle list (cycles with the same packet
    set induce identical deletion constraints)."""
    seen = {}
    for c in cycles:
        seen.setdefault(c.packet_set, len(c.packet_set))
    return sorted(seen.items(), key=lambda kv: (kv[1], sorted(kv[0])))


def _deletion_program(inst, cycles, integral) -> LinearProgram:
    pids = list(inst.packet_ids)
    idx = {pid: j for j, pid in enumerate(pids)}
    lp = LinearProgram(
        "max",
        tuple(Fraction(inst.packet(pid).weight) for pid in pids),
        upper=(Fraction(1),) * len(pids),
        integer=(integral,) * len(pids),
        var_names=tuple("x:" + pid for pid in pids),
        var_keys=tuple(pids),
    )
    for pset, k in _dedup_cycle_rows(cycles):
        row = [0] * len(pids)
        for pid in pset:
            row[idx[pid]] = 1
        lp.add_row(row, "<=", k - 1, cycle_row_name(pset))
    return lp


def build_P1(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Maximum packet-weighted acyclic subgraph by packet deletion (ILP)."""
    return _deletion_program(inst, cycles, True)


def build_P1_relaxed(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    return _deletion_program(inst, cycles, False)


def _cyclic_cover_program(inst, cycles, integral) -> LinearProgram:
    pids = list(inst.packet_ids)
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


def build_P3(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Minimum-weight feedback packet vertex set (complement of P1)."""
    pids = list(inst.packet_ids)
    idx = {pid: j for j, pid in enumerate(pids)}
    lp = LinearProgram(
        "min",
        tuple(Fraction(inst.packet(pid).weight) for pid in pids),
        upper=(Fraction(1),) * len(pids),
        integer=(True,) * len(pids),
        var_names=tuple("x:" + pid for pid in pids),
        var_keys=tuple(pids),
    )
    for pset, _k in _dedup_cycle_rows(cycles):
        row = [0] * len(pids)
        for pid in pset:
            row[idx[pid]] = 1
        lp.add_row(row, ">=", 1, cycle_row_name(pset))
    return lp


def build_P4(inst: Instance, cycles: list[Cycle]) -> LinearProgram:
    """Cycle packing: maximize saved transmissions (complement of P2)."""
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


def _arc_name(arc) -> str:
    (sk, sv), (dk, dv) = arc[0], arc[1]
    return f"a:{sk}.{sv}>{dk}.{dv}"


def build_P3_star(sd: SplitDigraph, sd_cycles) -> LinearProgram:
    """Minimum feedback arc set of the packet-split digraph."""
    arcs = list(sd.arcs)
    idx = {(a[0], a[1]): j for j, a in enumerate(arcs)}
    lp = LinearProgram(
        "min",
        tuple(Fraction(a[2]) for a in arcs),
        upper=(Fraction(1),) * len(arcs),
        integer=(True,) * len(arcs),
        var_names=tuple(_arc_name(a) for a in arcs),
    )
    for i, cyc in enumerate(sd_cycles):
        row = [0] * len(arcs)
        for arc in cyc:
            row[idx[arc]] = 1
        lp.add_row(row, ">=", 1, f"sc{i}")
    return lp


def build_P4_star(sd: SplitDigraph, sd_cycles) -> LinearProgram:
    """Cycle packing in the packet-split digraph under arc capacities."""
    arcs = list(sd.arcs)
    lp = LinearProgram(
        "max",
        (Fraction(1),) * len(sd_cycles),
        integer=(True,) * len(sd_cycles),
        var_names=tuple(f"sc{i}" for i in range(len(sd_cycles))),
    )
    for a in arcs:
        key = (a[0], a[1])
        row = [1 if key in set(cyc) else 0 for cyc in sd_cycles]
        lp.add_row(row, "<=", a[2], _arc_name(a))
    return lp


def _clique_cover_program(inst, cliques, integral) -> LinearProgram:
    obj = [Fraction(t.k - t.d) for t in cliques]
    lp = LinearProgram(
        "min",
        tuple(obj),
        integer=(integral,) * len(cliques),
        var_names=tuple(clique_name(t.packets) for t in cliques),
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


def _clique_deletion_program(inst, cliques, integral) -> LinearProgram:
    pids = list(inst.packet_ids)
    idx = {pid: j for j, pid in enumerate(pids)}
    lp = LinearProgram(
        "max",
        tuple(Fraction(inst.packet(pid).weight) for pid in pids),
        integer=(integral,) * len(pids),
        var_names=tuple("x:" + pid for pid in pids),
        var_keys=tuple(pids),
    )
    for t in cliques:
        row = [0] * len(pids)
        for pid in t.packets:
            row[idx[pid]] = 1
        lp.add_row(row, "<=", t.k - t.d, clique_name(t.packets))
    return lp


def build_P6(inst: Instance, cliques: list[PartialClique]) -> LinearProgram:
    """Deletion program over partial cliques, equivalent to P1.

    The singleton (1,0)-cliques supply the x_m <= 1 rows, so no explicit
    upper bounds are set; their row duals line up with the singleton
    variables of P5.
    """
    return _clique_deletion_program(inst, cliques, True)


def build_P6_relaxed(inst: Instance, cliques: list[PartialClique]) -> LinearProgram:
    return _clique_deletion_program(inst, cliques, False)


def verify_duality(bound_res: SolveResult, cover_res: SolveResult) -> bool:
    """Certify a deletion/covering pair as a primal-dual optimum.

    `bound_res` solves the max deletion program (P1' or P6'), `cover_res`
    the min covering program (P2' or P5').  Checks exact objective equality
    and complementary slackness across the pairing: a positive covering
    variable forces its deletion-side constraint tight, and a deleted-side
    x_m > 0 forces the covering row for packet m tight.
    """
    if bound_res.status != OPTIMAL or cover_res.status != OPTIMAL:
        return False
    if bound_res.objective != cover_res.objective:
        return False
    x = dict(zip(bound_res.lp.var_keys, bound_res.primal))  # pid -> x_m
    bound_rows = {con.name: con for con in bound_res.lp.constraints}
    cover_rows = {con.name: con for con in cover_res.lp.constraints}

    def tight(con, values) -> bool:
        return sum(a * v for a, v in zip(con.coeffs, values) if a and v) == con.rhs

    for key, yv in zip(cover_res.lp.var_keys, cover_res.primal):
        if yv == 0:
            continue
        if isinstance(key, str):
            # Direct broadcast variable pairs with the x_m <= 1 bound.
            if x[key] != 1:
                return False
        else:
            row = cycle_row_name(key.packet_set) if isinstance(key, Cycle) else clique_name(key.packets)
            con = bound_rows.get(row)
            if con is None or not tight(con, bound_res.primal):
                return False
    return all(
        tight(cover_rows["m:" + pid], cover_res.primal) for pid, xv in x.items() if xv != 0
    )
