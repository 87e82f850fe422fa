"""Replay a transmission schedule over random payloads and verify decoding.

Ground-truth payloads come from one SHAKE-256 stream: the digest of the
decimal seed, ``n * size`` bytes long for ``n`` symbols, of which symbol i
(in instance order, units in order) takes bytes ``[i * size, (i + 1) *
size)``.  Runs are therefore exactly reproducible.  A payload is the int of
its little-endian bytes, so adding two payloads is XOR.

A transmission is its tuple of terms ``((packet, unit), coef)``, the
symbol ``(packet, unit)`` being one (sub)packet unit.  Each is encoded
once: its entries ``(symbol, coef, coef * truth)``, the coefficients of a
repeated symbol added, and its broadcast payload, the XOR of the scaled
entries.  A receiver sees only the broadcast payload and its own side
packets: it XORs the scaled terms of the packets it holds out of the
payload, and keeps the rest as a sparse row over GF(2^8), which holds the
GF(2) of cyclic codes as its subfield {0, 1}.  Sparse Gaussian elimination
over those rows must recover every demanded symbol bit-exactly.

Take the bipartite graph joining each row to the symbols it contains.  The
row space is the direct sum of the spans of the rows of its connected
components, so a unit vector e_s lies in the row space exactly when it lies
in the span of the rows of s's component.  A receiver therefore eliminates
blocks, each a union of components, apart: each block whole and once, and
only a block that decodes a unit it demands.  A block is the symbols it
decodes, per packet, their truth, its payload width and its encoded rows,
which a receiver that holds none of the block's packets shares.

Blocks.  An action repeats one small code ``count`` times, round j on
unit ``min(first + j, last)`` of each of its packets (`CodingAction.units`).
Its rounds take fresh units when ``first + count - 1 <= last`` for every
packet, and then they share no symbol.  Such an action over distinct
packets that shares no unit with any other action is a union of
components, and so is each of its rounds: it is one block.  The
elimination's control flow depends only on the coefficients, which every
round repeats, so the block's rows are its first round, built from `rows`
and the first units, and each payload carries all rounds as one int of
``count * size`` bytes, round j at bytes ``[j * size, (j + 1) * size)``.  A
packet's truth over the block is then one contiguous slice of the stream,
and XOR and scaling act on all rounds at once.

Every other action -- one whose units run past ``last`` or overlap
another's, or one that names a packet twice -- is expanded on its own,
and those transmissions form one more block, over ``(packet, unit)``
symbols, which decodes each packet's units outside the blocks; sharing no
symbol with them, it is a union of components too.  A schedule is given
as actions, so each action is checked against the instance first: its
count, its packets and its units.  No transmission is read from
`TransmissionSchedule.transmissions`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .coding import ScheduleError, TransmissionSchedule
from .gf256 import _EXP, _LOG, gf_scale_bytes
from .instance import Instance

DEFAULT_PAYLOAD_SIZE = 64


@dataclass
class DecodeReport:
    success: dict[str, bool]
    transmissions: int
    theta: int
    # The first user, and its first demanded packet, that fails to decode,
    # both in instance order; None when every user decodes.
    failure: tuple[str, str] | None = None

    @property
    def all_decoded(self) -> bool:
        return all(self.success.values())


def _scale(coef: int, payload: int, size: int) -> int:
    if coef == 1:
        return payload
    data = gf_scale_bytes(coef, payload.to_bytes(size, "little"))
    return int.from_bytes(data, "little")


def _eliminate(rows, size):
    """Reduce sparse rows ({symbol: coef}, payload) to reduced row echelon
    form; return {symbol: payload} for every symbol they determine.  The
    given dicts are copied before they are changed, so rows may be shared.

    Forward, each row is reduced by the earlier pivot rows, lowest pivot
    index first (a heap of the pivot indices the row holds): a pivot row is
    zero at every earlier pivot, so no cleared pivot comes back.  The row is
    then normalised to 1 at its first remaining symbol.  Back-substitution,
    in reverse pivot order, clears the later pivots from each pivot row that
    is not yet a singleton; those rows are final by then and hold no other
    pivot.  A symbol is determined exactly when its pivot row has no other
    entry.  Products over GF(2^8) are read off the log/antilog tables.
    """
    exp, log = _EXP, _LOG
    order = {}  # pivot symbol -> its index in pivots
    pivots = []  # (symbol, row, payload)
    for row, rhs in rows:
        if not order.keys().isdisjoint(row):
            heap = [order[s] for s in row if s in order]
            heapify(heap)
            row = dict(row)
            while heap:
                sym, prow, prhs = pivots[heappop(heap)]
                coef = row.get(sym)
                if coef is None:  # cancelled by an earlier pivot row
                    continue
                lc = log[coef]
                for s, a in prow.items():
                    if s in row:
                        v = row[s] ^ exp[lc + log[a]]
                        if v:
                            row[s] = v
                        else:
                            del row[s]
                    else:
                        row[s] = exp[lc + log[a]]
                        if s in order:
                            heappush(heap, order[s])
                rhs ^= _scale(coef, prhs, size)
            if not row:
                continue
        sym = next(iter(row))
        lead = row[sym]
        if lead != 1:
            li = 255 - log[lead]
            row = {s: exp[li + log[a]] for s, a in row.items()}
            rhs = _scale(exp[li], rhs, size)
        order[sym] = len(pivots)
        pivots.append((sym, row, rhs))
    solved = {}
    for sym, row, rhs in reversed(pivots):
        if len(row) > 1:
            later = [s for s in row if s != sym and s in order]
            if later:
                row = dict(row)
                for s in later:
                    _, prow, prhs = pivots[order[s]]
                    coef = row[s]
                    lc = log[coef]
                    for t, a in prow.items():
                        v = row.get(t, 0) ^ exp[lc + log[a]]
                        if v:
                            row[t] = v
                        else:
                            del row[t]
                    rhs ^= _scale(coef, prhs, size)
                pivots[order[sym]] = (sym, row, rhs)
        if len(row) == 1:
            solved[sym] = rhs
    return solved


def _encode(terms, truth, size):
    """A transmission's row, with the coefficients of a repeated symbol
    added and zeros dropped, its broadcast payload, and each entry of the
    row as (packet, symbol, coef, coef * truth), in term order; None when
    the row is empty, as all its terms are zero or cancel, which tells no
    receiver anything.  The payload is the XOR of the scaled entries."""
    row = dict(terms)
    if len(row) < len(terms) or 0 in row.values():  # a repeated symbol or a zero
        row = {}
        for sym, coef in terms:
            v = row.get(sym, 0) ^ coef
            if v:
                row[sym] = v
            elif sym in row:
                del row[sym]
        if not row:
            return None
    payload = 0
    entries = []
    for sym, coef in row.items():
        part = truth[sym]
        if coef != 1:
            part = _scale(coef, part, size)
        payload ^= part
        entries.append((sym[0], sym, coef, part))
    # A tuple, not a list: the garbage collector untracks a tuple of ints,
    # strings and such tuples, so entries alive for the whole call are not
    # promoted to the oldest generation to bring on full collections.
    return row, payload, tuple(entries)


def _received(entries, payload, held):
    """A transmission as a receiver holding the packets `held` keeps it:
    the row without their symbols and the payload with their scaled terms
    XORed out; None when nothing unknown is left."""
    row = {}
    for pid, sym, coef, part in entries:
        if pid in held:
            payload ^= part
        else:
            row[sym] = coef
    return (row, payload) if row else None


def _check(action, units):
    """Raise ScheduleError, naming the action, unless it is a cycle, a
    clique whose d is an int with 0 <= d < k or a direct send of one
    packet, its count is an int >= 0 and it takes, of each of its packets,
    a packet of the instance (`units`: packet -> its number of units), the
    units from `first` to `last`, ints with 0 <= first <= last < the
    packet's units."""
    kind, k, d = action.kind, len(action.packets), action.d
    if kind not in ("cycle", "clique", "direct"):
        raise ScheduleError(f"{action!r}: unknown kind {kind!r}")
    if kind == "clique" and not (type(d) is int and 0 <= d < k):
        raise ScheduleError(f"{action!r}: d {d!r} is not an int with 0 <= d < k = {k}")
    if kind == "direct" and k != 1:
        raise ScheduleError(f"{action!r}: a direct send of {k} packets")
    count = action.count
    if type(count) is not int or count < 0:
        raise ScheduleError(f"{action!r}: count {count!r} is not an int >= 0")
    if len(action.units) != len(action.packets):
        raise ScheduleError(f"{action!r}: units for {len(action.units)} "
                            f"of its {len(action.packets)} packets")
    for pid, span in zip(action.packets, action.units):
        if type(pid) is not str or pid not in units:
            raise ScheduleError(f"{action!r}: unknown packet {pid!r}")
        first, last = span if type(span) is tuple and len(span) == 2 else (None, None)
        if not (type(first) is int and type(last) is int and 0 <= first <= last):
            raise ScheduleError(f"{action!r}: units {span!r} of {pid!r} are not "
                                f"ints 0 <= first <= last")
        if last >= units[pid]:
            raise ScheduleError(f"{action!r}: unit {last} is past packet {pid!r}, "
                                f"which has {units[pid]} units")


def _outside(spans, n):
    """The indices below n outside the (start, stop) `spans`, which are
    disjoint and in order."""
    at = 0
    out = []
    for start, stop in spans:
        out.extend(range(at, start))
        at = stop
    out.extend(range(at, n))
    return out


def simulate(
    inst: Instance,
    schedule: TransmissionSchedule,
    seed: int = 0,
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
) -> DecodeReport:
    """Run the schedule and check that every user decodes its demands.

    Each unit of a packet is a payload of `payload_size` >= 1 bytes."""
    if payload_size < 1:
        raise ValueError(f"payload_size must be at least 1, not {payload_size}")
    theta = schedule.theta
    size = payload_size
    stream = hashlib.shake_256(b"%d" % seed).digest(
        sum(p.weight for p in inst.packets) * theta * size)
    base = {}  # packet id -> the stream offset of its first unit
    units = {}  # packet id -> its number of units
    at = 0
    for p in inst.packets:
        base[p.id] = at
        units[p.id] = p.weight * theta
        at += p.weight * theta * size

    def truth_of(pid, unit, width):
        at = base[pid] + unit * size
        return int.from_bytes(stream[at:at + width], "little")

    actions = schedule.actions
    for action in actions:
        _check(action, units)
    # An action is a block when its rounds take fresh units of distinct
    # packets and it shares no unit with another action.
    block = []
    taken = {}  # packet id -> the units each action takes, [(first, stop, action index)]
    for j, action in enumerate(actions):
        count = action.count
        block.append(count > 0 and len(set(action.packets)) == len(action.packets)
                     and all(first + count <= last + 1 for first, last in action.units))
        if count:
            for pid, (first, last) in zip(action.packets, action.units):
                taken.setdefault(pid, []).append((first, min(first + count, last + 1), j))
    # A span overlaps another exactly when it overlaps one that starts
    # before it or the next one to start.
    for spans in taken.values():
        spans.sort()
        reach = 0
        for i, (lo, hi, j) in enumerate(spans):
            if lo < reach or (i + 1 < len(spans) and spans[i + 1][0] < hi):
                block[j] = False
            reach = max(reach, hi)

    # The blocks, as ({pid: its symbols decoded}, {symbol: its truth},
    # payload width, the terms sent): one per block action, its first
    # round, and one for the transmissions of every other action.
    unencoded = []
    covered = {}  # packet id -> [(first unit, end unit)] of block actions
    sent = []
    for action, is_block in zip(actions, block):
        if not is_block:
            sent += action.expand()
            continue
        width = action.count * size
        syms = [(pid, first) for pid, (first, _) in zip(action.packets, action.units)]
        decodes = {sym[0]: [sym] for sym in syms}
        truth = {sym: truth_of(*sym, width) for sym in syms}
        unencoded.append((decodes, truth, width, action.expand(1)))
        for pid, first in syms:
            covered.setdefault(pid, []).append((first, first + action.count))
    rest = {}  # packet id -> its symbols outside every block action
    for pid, n in units.items():
        gaps = _outside(sorted(covered.get(pid, ())), n)
        if gaps:
            rest[pid] = [(pid, unit) for unit in gaps]
    if rest:
        truth = {sym: truth_of(*sym, size) for syms in rest.values() for sym in syms}
        unencoded.append((rest, truth, size, sent))
    blocks = [(decodes, truth, width, frozenset(decodes),
               [e for e in (_encode(terms, truth, width) for terms in sent) if e])
              for decodes, truth, width, sent in unencoded]

    # Per user, its side packets and its demands in instance order; per
    # packet, the blocks that decode it.
    known = {user: set() for user in inst.users}
    demanded = {user: [] for user in inst.users}
    for p in inst.packets:
        demanded[p.demand].append(p.id)
        for user in p.side:
            known[user].add(p.id)
    blocks_of = {}
    for b, (decodes, *_) in enumerate(blocks):
        for pid in decodes:
            blocks_of.setdefault(pid, []).append(b)

    success = {}
    failure = None
    for user in inst.users:
        mine = {}  # block index -> the packets it decodes that the user demands
        for pid in demanded[user]:
            for b in blocks_of.get(pid, ()):
                mine.setdefault(b, []).append(pid)
        failed = set()
        for b, pids in mine.items():
            decodes, truth, width, packets, encoded = blocks[b]
            held = known[user] & packets
            if held:
                rows = [got for got in (_received(entries, payload, held)
                                        for _, payload, entries in encoded) if got]
            else:
                rows = [(row, payload) for row, payload, _ in encoded]
            solved = _eliminate(rows, width)
            failed.update(pid for pid in pids
                          if any(solved.get(sym) != truth[sym] for sym in decodes[pid]))
        first_failed = next((pid for pid in demanded[user] if pid in failed), None)
        success[user] = first_failed is None
        if first_failed is not None and failure is None:
            failure = (user, first_failed)
    transmissions = sum(len(action.rows) * action.count for action in actions)
    return DecodeReport(success, transmissions, theta, failure)
