"""Turning LP/ILP optima into executable transmission schedules.

A schedule is an ordered list of coding actions (cycle XOR rounds over
GF(2), partial-clique MDS rounds over GF(2^8), and uncoded broadcasts)
expanded into concrete transmissions.  A symbol is one (sub)packet unit,
``(packet_id, unit)`` with unit in ``range(weight * theta)``, and a
transmission is its tuple of terms, ``(((packet_id, unit), coef), ...)``.
An action repeats one round `count` times, each round on fresh units:
`CodingAction.rows` is that round's code over the action's packets, and
the units an action takes fix all its transmissions.

Each code family has one expander, `cyclic_schedule` for P2 and
`clique_schedule` for P5, and it takes an integer optimum and an LP
relaxation's optimum alike: theta is the lcm of the solution's
denominators, so it is 1 for a scalar code and splits each packet into
theta subpackets for a vector code.  P5 holds P2's columns, so one map
from a column's key to its action (`_action`) serves both: a `Cycle` is
a cycle action, a packet id a direct send, and a `PartialClique`, which
has d >= 2, Cauchy rows.  A packet alone in its strong component that
has no direct-send column in the program is sent whole and directly.
`TransmissionSchedule.to_doc` is the schedule as the JSON document that
``indexcode code`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat, zip_longest

from .enumeration import Cycle, PartialClique, _lone_packets
from .gf256 import mds_rows
from .instance import Instance, total_weight
from .lp import OPTIMAL, SolveResult
from .programs import _direct_name

GF2 = "gf2"
GF256 = "gf256"

# Cap on theta * (total weight), the number of symbols a schedule expands
# to: theta is the lcm of the solution's denominators, and nothing else
# bounds it.
MAX_SYMBOLS = 1 << 18


class ScheduleError(ValueError):
    """Solution unfit for expansion (wrong status, negative counts, a
    column outside the code family, packets left uncovered, too many
    symbols), or a term unfit for simulation."""


@dataclass(frozen=True)
class CodingAction:
    """One batch of `count` identical coding rounds, each on the next unit
    of every packet of the action (its packets are distinct).

    kind "cycle": packets in cycle order.  kind "clique": packets plus the
    surplus d.  kind "direct": a single packet, sent uncoded.
    """

    kind: str  # "cycle" | "clique" | "direct"
    packets: tuple[str, ...]
    count: int
    d: int = 0

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The code of one round, a transmission per row, as (position in
        `packets`, coef) terms: the K-1 XORs of neighbours along a K-cycle,
        the k-d Cauchy rows of a (k, d) clique, or the packet itself."""
        if self.kind == "cycle":
            return tuple(((i, 1), (i + 1, 1)) for i in range(len(self.packets) - 1))
        if self.kind == "clique":
            k = len(self.packets)
            if k - self.d >= 2 and 2 * k > 256:
                raise ScheduleError(f"a ({k}, {self.d}) partial clique needs 2k <= 256 "
                                    f"for its Cauchy rows over GF(2^8)")
            return tuple(tuple(enumerate(row)) for row in mds_rows(k, k - self.d))
        return (((0, 1),),)


@dataclass
class TransmissionSchedule:
    field_name: str  # GF2 or GF256
    theta: int
    actions: list[CodingAction]
    # Each transmission is its terms, (((pid, unit), coef), ...).
    transmissions: list[tuple] = field(default_factory=list)

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
                {f"{pid}/{unit}": coef for (pid, unit), coef in terms}
                for terms in self.transmissions
            ],
        }


def _counts(inst: Instance, res: SolveResult, family, label):
    """theta, the lcm of the solution's denominators (1 for an integral
    optimum), and (key, count * theta) per positive column in name order;
    every positive column must be keyed by an instance of `family`.

    `Analysis` leaves the packets alone in their strong component out of P2
    and P5 (`enumeration._lone_packets`).  Each such packet without a
    direct-send column in the program is sent whole and directly, by the
    column it would have, in that column's place in name order.  Any other
    packet that no positive column covers is left uncovered, and `_expand`
    refuses the solution."""
    if res.status != OPTIMAL:
        raise ScheduleError(f"solution status is {res.status}, not optimal")
    theta = math.lcm(*(v.denominator for v in res.primal))
    columns = list(zip_longest(res.lp.var_names, res.lp.var_keys, res.primal))
    lone = _lone_packets(inst).difference(k for k in res.lp.var_keys if isinstance(k, str))
    columns += [(_direct_name(p.id), p.id, p.weight) for p in inst.packets if p.id in lone]
    counts = []
    for name, key, v in sorted(columns, key=lambda col: col[0]):
        if v < 0:
            raise ScheduleError(f"{name}: negative count")
        if v:
            if not isinstance(key, family):
                raise ScheduleError(f"unexpected variable {name!r} in {label} solution")
            counts.append((key, int(v * theta)))
    return theta, counts


def _action(key, count: int) -> CodingAction:
    """The action of a column's `count` rounds, by its key: a `Cycle`'s
    XORs of neighbours, a packet id's direct send, or a `PartialClique`'s
    k - d Cauchy rows (P5 lists only cliques with d >= 2)."""
    if isinstance(key, Cycle):
        return CodingAction("cycle", key.packets, count)
    if isinstance(key, str):
        return CodingAction("direct", (key,), count)
    return CodingAction("clique", key.sorted_packets, count, d=key.d)


def _expand(inst: Instance, actions, theta, field_name) -> TransmissionSchedule:
    """Each action's `count` rounds of its `rows`, round j on the j-th of
    the units the action takes of each packet: the packet's next `count`
    units, then its last unit again once it is used up (a duplicate,
    redundant for every receiver)."""
    symbols = theta * total_weight(inst)
    if symbols > MAX_SYMBOLS:
        raise ScheduleError(
            f"theta={theta} gives {symbols} symbols, more than the cap of {MAX_SYMBOLS}"
        )
    units = {p.id: p.weight * theta for p in inst.packets}
    cursor = dict.fromkeys(units, 0)
    transmissions = []
    for action in actions:
        taken = []  # per packet, its symbol in each round
        for pid in action.packets:
            start, end = cursor[pid], units[pid]
            fresh = range(start, min(start + action.count, end))
            cursor[pid] = start + len(fresh)
            taken.append([*zip(repeat(pid), fresh)] + [(pid, end - 1)] * (action.count - len(fresh)))
        # Each row's transmissions over all rounds, then interleaved round by round.
        by_row = [zip(*(zip(taken[i], repeat(coef)) for i, coef in row)) for row in action.rows]
        transmissions.extend(chain.from_iterable(zip(*by_row)))
    missing = [pid for pid, n in units.items() if cursor[pid] < n]
    if missing:
        raise ScheduleError(f"solution does not cover packets {missing}")
    return TransmissionSchedule(field_name, theta, list(actions), transmissions)


def cyclic_schedule(inst: Instance, res: SolveResult) -> TransmissionSchedule:
    """Expand an optimum of the cyclic-code program P2 or its relaxation P2'.

    Each packet is divided into theta subpackets, with theta the least
    common multiple of the solution's denominators, so that every scaled
    action count is integral; an integral optimum has theta = 1.
    """
    theta, counts = _counts(inst, res, (Cycle, str), "cyclic")
    return _expand(inst, [_action(key, n) for key, n in counts], theta, GF2)


def clique_schedule(inst: Instance, res: SolveResult) -> TransmissionSchedule:
    """Expand an optimum of the partial-clique program P5 or its relaxation
    P5', with theta read off the solution as in `cyclic_schedule`.  P5 has
    P2's columns too, so its cycles and direct sends expand as in
    `cyclic_schedule`."""
    theta, counts = _counts(inst, res, (Cycle, str, PartialClique), "clique")
    return _expand(inst, [_action(key, n) for key, n in counts], theta, GF256)
