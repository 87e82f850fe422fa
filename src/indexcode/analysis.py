"""Bounds, planarity, and the theorem-level consistency checkers.

`bounds_report` solves the deletion/covering program family exactly and
assembles the bound chain  val(P1) <= val(P1') = val(P2') <= val(P2);
the theorem checkers assert the equalities that hold for planar and
unicast-uniprior instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .enumeration import enumerate_cycles, enumerate_partial_cliques
from .instance import Instance, is_uniprior, to_undirected, total_weight
from .lp import OPTIMAL, solve_ilp, solve_lp
from .programs import (
    build_P1, build_P1_relaxed, build_P2, build_P2_relaxed,
    build_P5, build_P5_relaxed,
)


class PreconditionError(ValueError):
    """The instance does not satisfy a checker's hypothesis."""


class SolveError(RuntimeError):
    """A program of the bound chain has no optimum (e.g. a truncated family)."""


def _value(res, name) -> Fraction:
    if res.status != OPTIMAL:
        raise SolveError(f"{name} is {res.status}")
    return res.objective


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
        """val(P1) <= val(P1') = val(P2') <= val(P2), all gaps >= 0."""
        return (
            self.valP1 <= self.valP1_relaxed == self.valP2_relaxed <= self.valP2
            and self.gap_P1 >= 0
            and self.gap_P2 >= 0
            and self.gap_P5 >= 0
        )

    @property
    def exact_optimal(self) -> bool:
        """True when the lower bound is met by an achievable schedule."""
        return self.planar or self.valP1 == min(self.valP2, self.valP5)


def bounds_report(inst: Instance, max_cycles=None, max_k=None) -> BoundsReport:
    """Solve the six programs exactly and assemble the gap report."""
    kw_c = {} if max_cycles is None else {"max_cycles": max_cycles}
    kw_k = {} if max_k is None else {"max_k": max_k}
    cycles = enumerate_cycles(inst, **kw_c)
    cliques = enumerate_partial_cliques(inst, **kw_k)
    return BoundsReport(
        W=total_weight(inst),
        valP1=_value(solve_ilp(build_P1(inst, cycles)), "P1"),
        valP1_relaxed=_value(solve_lp(build_P1_relaxed(inst, cycles)), "P1'"),
        valP2=_value(solve_ilp(build_P2(inst, cycles)), "P2"),
        valP2_relaxed=_value(solve_lp(build_P2_relaxed(inst, cycles)), "P2'"),
        valP5=_value(solve_ilp(build_P5(inst, cliques)), "P5"),
        valP5_relaxed=_value(solve_lp(build_P5_relaxed(inst, cliques)), "P5'"),
        planar=is_planar(inst),
    )


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


def check_theorem2(inst: Instance) -> Theorem2Report:
    """On planar instances the whole chain collapses to a single value."""
    cycles = enumerate_cycles(inst)
    v1 = solve_ilp(build_P1(inst, cycles)).objective
    v1r = solve_lp(build_P1_relaxed(inst, cycles)).objective
    v2 = solve_ilp(build_P2(inst, cycles)).objective
    v2r = solve_lp(build_P2_relaxed(inst, cycles)).objective
    planar = is_planar(inst)
    holds = (v1 == v1r == v2r == v2) if planar else None
    return Theorem2Report(planar, v1, v1r, v2r, v2, holds)


def check_corollary2(inst: Instance) -> bool:
    """Scalar cyclic codes are optimal for uniprior instances of <= 4 users.

    Uses the lenient uniprior predicate (each packet held by at most one
    user): side-free packets lie on no cycle, so they add their weight to
    both val(P1) and val(P2) and cannot break the equality.
    """
    if not is_uniprior(inst, strict=False):
        raise PreconditionError("instance is not unicast-uniprior")
    if len(inst.users) > 4:
        raise PreconditionError("corollary applies to at most 4 users")
    cycles = enumerate_cycles(inst)
    v1 = solve_ilp(build_P1(inst, cycles)).objective
    v2 = solve_ilp(build_P2(inst, cycles)).objective
    return v1 == v2


def check_theorem4(inst: Instance) -> bool:
    """Cyclic and partial-clique codes tie on unicast-uniprior instances,
    both at scalar and vector granularity."""
    if not is_uniprior(inst, strict=True):
        raise PreconditionError("instance is not unicast-uniprior")
    cycles = enumerate_cycles(inst)
    cliques = enumerate_partial_cliques(inst)
    v2 = solve_ilp(build_P2(inst, cycles)).objective
    v5 = solve_ilp(build_P5(inst, cliques)).objective
    v2r = solve_lp(build_P2_relaxed(inst, cycles)).objective
    v5r = solve_lp(build_P5_relaxed(inst, cliques)).objective
    return v2 == v5 and v2r == v5r
