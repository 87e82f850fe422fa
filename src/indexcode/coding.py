"""Turning LP/ILP optima into executable transmission schedules.

A schedule is an ordered list of coding actions (cycle XOR rounds over
GF(2), partial-clique MDS rounds over GF(2^8), and uncoded broadcasts)
expanded into concrete transmissions.  Each transmission is a coefficient
vector over symbols; a symbol is one (sub)packet unit, identified by
``(packet_id, index)`` with index ranging over ``weight * theta`` units.

Each code family has one expander, `cyclic_schedule` for P2 and
`clique_schedule` for P5, and it takes an integer optimum and an LP
relaxation's optimum alike: theta is the lcm of the solution's
denominators, so it is 1 for a scalar code and splits each packet into
theta subpackets for a vector code.  `TransmissionSchedule.to_doc` is the
schedule as the JSON document that ``indexcode code`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .enumeration import Cycle, PartialClique
from .gf256 import mds_rows
from .instance import Instance, total_weight
from .lp import OPTIMAL, SolveResult

GF2 = "gf2"
GF256 = "gf256"

# Cap on theta * (total weight), the number of symbols a schedule expands
# to: theta is the lcm of the solution's denominators, and nothing else
# bounds it.
MAX_SYMBOLS = 1 << 18


class ScheduleError(ValueError):
    """Solution unfit for expansion (wrong status, negative counts, packets
    left uncovered, too many symbols)."""


@dataclass(frozen=True)
class CodingAction:
    """One batch of identical coding rounds.

    kind "cycle": packets in cycle order; each round is K-1 XOR
    transmissions.  kind "clique": packets plus the surplus d; each
    round is k-d MDS-coded transmissions.  kind "direct": one uncoded unit
    of a single packet per round.
    """

    kind: str  # "cycle" | "clique" | "direct"
    packets: tuple[str, ...]
    count: int
    d: int = 0

    @property
    def transmissions_per_round(self) -> int:
        """K-1 for a K-cycle, k-d for a (k, d) clique, 1 for a direct round."""
        if self.kind == "cycle":
            return len(self.packets) - 1
        if self.kind == "clique":
            return len(self.packets) - self.d
        return 1


@dataclass(frozen=True)
class Transmission:
    coeffs: tuple[tuple[tuple[str, int], int], ...]  # ((pid, unit), coef)


@dataclass
class TransmissionSchedule:
    field_name: str  # GF2 or GF256
    theta: int
    actions: list[CodingAction]
    transmissions: list[Transmission] = field(default_factory=list)

    @property
    def total_count(self) -> Fraction:
        """Clearance time in packet units (transmissions / theta)."""
        return Fraction(len(self.transmissions), self.theta)

    def to_doc(self) -> dict:
        """The schedule as a JSON-ready dict; a term's key is "pid/unit"."""
        return {
            "field": self.field_name,
            "theta": self.theta,
            "granularity": "packet" if self.theta == 1 else "subpacket",
            "total_count": str(self.total_count),
            "transmissions": [
                {f"{pid}/{unit}": coef for (pid, unit), coef in t.coeffs}
                for t in self.transmissions
            ],
        }


class _UnitPool:
    """Greedy per-packet unit cursor; exhausted packets hand out a
    duplicate of their last unit (redundant for every receiver)."""

    def __init__(self, inst: Instance, theta: int):
        self.limit = {p.id: p.weight * theta for p in inst.packets}
        self.cursor = {p.id: 0 for p in inst.packets}

    def take(self, pid: str) -> int:
        c = self.cursor[pid]
        if c < self.limit[pid]:
            self.cursor[pid] = c + 1
            return c
        return self.limit[pid] - 1

    def all_covered(self) -> bool:
        return all(self.cursor[p] >= self.limit[p] for p in self.limit)


def _counts(res: SolveResult):
    """theta, the lcm of the solution's denominators (1 for an integral
    optimum), and (column name, key, count * theta) per column in name order."""
    if res.status != OPTIMAL:
        raise ScheduleError(f"solution status is {res.status}, not optimal")
    theta = math.lcm(*(v.denominator for v in res.primal))
    counts = []
    columns = zip(res.lp.var_names, res.lp.var_keys, res.primal)
    for name, key, v in sorted(columns, key=lambda col: col[0]):
        if v < 0:
            raise ScheduleError(f"{name}: negative count")
        counts.append((name, key, int(v * theta)))
    return theta, counts


def _expand(inst: Instance, actions, theta, field_name) -> TransmissionSchedule:
    symbols = theta * total_weight(inst)
    if symbols > MAX_SYMBOLS:
        raise ScheduleError(
            f"theta={theta} gives {symbols} symbols, more than the cap of {MAX_SYMBOLS}"
        )
    pool = _UnitPool(inst, theta)
    sched = TransmissionSchedule(field_name, theta, list(actions))
    for action in actions:
        if action.kind == "clique":
            k = len(action.packets)
            rows = mds_rows(k, action.transmissions_per_round)
        for _ in range(action.count):
            units = [(pid, pool.take(pid)) for pid in action.packets]
            if action.kind == "cycle":
                for i in range(len(units) - 1):
                    sched.transmissions.append(
                        Transmission(((units[i], 1), (units[i + 1], 1)))
                    )
            elif action.kind == "clique":
                for row in rows:
                    sched.transmissions.append(
                        Transmission(tuple(zip(units, row)))
                    )
            else:
                sched.transmissions.append(Transmission(((units[0], 1),)))
    if not pool.all_covered():
        missing = [p for p, c in pool.cursor.items() if c < pool.limit[p]]
        raise ScheduleError(f"solution does not cover packets {missing}")
    return sched


def cyclic_schedule(inst: Instance, res: SolveResult) -> TransmissionSchedule:
    """Expand an optimum of the cyclic-code program P2 or its relaxation P2'.

    Each packet is divided into theta subpackets, with theta the least
    common multiple of the solution's denominators, so that every scaled
    action count is integral; an integral optimum has theta = 1.
    """
    theta, counts = _counts(res)
    actions = [CodingAction("cycle", key.packets, n)
               for _, key, n in counts if n and isinstance(key, Cycle)]
    actions += [CodingAction("direct", (key,), n)
                for _, key, n in counts if n and isinstance(key, str)]
    return _expand(inst, actions, theta, GF2)


def clique_schedule(inst: Instance, res: SolveResult) -> TransmissionSchedule:
    """Expand an optimum of the partial-clique program P5 or its relaxation
    P5', with theta read off the solution as in `cyclic_schedule`."""
    theta, counts = _counts(res)
    actions = []
    for name, key, n in counts:
        if n == 0:
            continue
        if not isinstance(key, PartialClique):
            raise ScheduleError(f"unexpected variable {name!r} in clique solution")
        actions.append(CodingAction("clique", key.sorted_packets, n, d=key.d))
    return _expand(inst, actions, theta, GF256)
