"""Bounds, planarity, and the theorem-level consistency checkers.

An `Analysis` solves the deletion/covering program family of one instance
exactly, each program once: it builds the covering programs P2 and P5, and
the deletion programs P1 and P6 are their transposes.  `bounds_report`
assembles the bound chain val(P1) <= val(P1') = val(P2') <= val(P2) from
it, and the theorem checkers assert the equalities that hold for planar
and unicast-uniprior instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import networkx as nx

from . import programs
from .enumeration import (
    DEFAULT_MAX_CYCLES, CapExceeded, Cycle, PartialClique, enumerate_cycles,
    enumerate_partial_cliques,
)
from .instance import Instance, is_uniprior, to_undirected, total_weight
from .lp import (
    DEFAULT_NODE_LIMIT, OPTIMAL, LinearProgram, SolveResult, solve_ilp, solve_lp, transpose,
)

# Cap on P6's rows of cliques with d >= 1: the 4,083 of a 12-packet core.
# `solve_lp`'s dense tableau grows as rows^2 (`check`: 487 MB at 13 packets).
MAX_P6_CLIQUES = 2**12 - 13


class PreconditionError(ValueError):
    """The instance does not satisfy a checker's hypothesis."""


class SolveError(RuntimeError):
    """A program of the family has no optimum."""


def is_planar(inst: Instance) -> bool:
    """Planarity of the underlying undirected bipartite graph."""
    ok, _ = nx.check_planarity(to_undirected(inst))
    return ok


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
    """One instance under fixed caps (None selects the default).  Each family
    is enumerated, each program built or transposed, and each program or
    relaxation solved, at most once, on first use; a program without an
    optimum raises `SolveError`; a P6 beyond `MAX_P6_CLIQUES` raises
    `CapExceeded`.  P5 and P6 range over the whole clique family, which the
    instance fixes, so no cap selects it."""

    def __init__(self, inst: Instance, max_cycles=None, node_limit=None):
        self.inst = inst
        self.max_cycles = DEFAULT_MAX_CYCLES if max_cycles is None else max_cycles
        self.node_limit = DEFAULT_NODE_LIMIT if node_limit is None else node_limit
        self._programs: dict[str, LinearProgram] = {}
        self._solved: dict[str, SolveResult] = {}

    @cached_property
    def cycles(self) -> list[Cycle]:
        return enumerate_cycles(self.inst, self.max_cycles)

    @cached_property
    def cliques(self) -> list[PartialClique]:
        """The clique family of P5 and P6: the singletons and every clique
        with d >= 1, none of which has more packets than the instance."""
        return enumerate_partial_cliques(self.inst, len(self.inst.packet_ids))

    def _program(self, name: str) -> LinearProgram:
        """The integer program P2 or P5, or its transpose P1 or P6, made once
        on first use (`solve` reads a primed name as its LP relaxation)."""
        prog = self._programs.get(name)
        if prog is None:
            # Builders are looked up in `programs` at call time, so wrappers apply.
            if name == "P2":
                prog = programs.build_P2(self.inst, self.cycles)
            elif name == "P5":
                prog = programs.build_P5(self.inst, self.cliques)
            else:
                rows = sum(1 for t in self.cliques if t.d) if name == "P6" else 0
                if rows > MAX_P6_CLIQUES:
                    raise CapExceeded(f"P6 has {rows} rows of cliques with d >= 1, "
                                      f"more than the cap of {MAX_P6_CLIQUES}", rows)
                prog = transpose(self._program({"P1": "P2", "P6": "P5"}[name]))
            self._programs[name] = prog
        return prog

    def solve(self, name: str) -> SolveResult:
        """The optimum of P1, P2, P5 or P6, or of a primed LP relaxation."""
        res = self._solved.get(name)
        if res is None:
            prog = self._program(name.rstrip("'"))
            res = solve_lp(prog) if name.endswith("'") else solve_ilp(prog, self.node_limit)
            if res.status != OPTIMAL:
                raise SolveError(f"{name} is {res.status}")
            self._solved[name] = res
        return res

    def value(self, name: str) -> Fraction:
        return self.solve(name).objective

    def duality(self, bound: str, cover: str) -> bool:
        """`programs.verify_duality` on a deletion/covering pair."""
        return programs.verify_duality(self.solve(bound), self.solve(cover))

    def bounds(self) -> BoundsReport:
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


def bounds_report(inst: Instance, max_cycles=None, node_limit=None) -> BoundsReport:
    """Solve the six programs exactly and assemble the gap report."""
    return Analysis(inst, max_cycles, node_limit).bounds()

