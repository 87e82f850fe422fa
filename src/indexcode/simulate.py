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

Batches.  A schedule's actions repeat one small code ``count`` times on
fresh units, so each action proposes a batch: the next ``count`` rounds of
transmissions, a round being one transmission per row of the action's
`rows`.  The proposal is accepted only if the batch's transmissions are
its first round's, round after round, with every unit advanced by one,
each packet holds one unit in that round, and the units stay within the
packet; that is checked on the whole batch at once, as tuple equality over
its flattened terms, every symbol a tuple and every unit and coefficient
an int, so a later round repeats the first in type as well as value.
Rounds then share no symbol.  An accepted batch must
also share no symbol, counting terms with a zero coefficient, with any
other batch or any transmission outside the accepted batches; then it is a
union of components, and so is each of its rounds.  Each accepted batch is
one block.  The elimination's control flow depends only on the
coefficients, which every round repeats, so its rows are the first round's
and each payload carries all rounds as one int of ``count * size`` bytes,
round j at bytes ``[j * size, (j + 1) * size)``.  A packet's truth over the
batch is then one contiguous slice of the stream, and XOR and scaling act
on all rounds at once.

The transmissions outside every accepted batch -- broken or dropped
rounds, duplicated units, schedules without actions -- form one more block,
over ``(packet, unit)`` symbols, which decodes each packet's units outside
the batches; sharing no symbol with them, it is a union of components too.
What is encoded is checked against the instance first: the terms of those
transmissions and each proposed batch's first round, which its later
rounds repeat.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import sub

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


def _batch(txs, start, per_round, count, units):
    """When the `count` rounds of `per_round` transmissions from `start`
    form a batch, the first round's terms, per transmission, and {packet:
    its unit in the first round}; otherwise None.  They form one when each
    round repeats the first with every unit advanced by one per round, the
    first round holds one unit of each packet, and each packet has `count`
    units from there on (`units`: packet -> its number of units)."""
    stop = start + per_round * count
    if per_round < 1 or count < 1 or stop > len(txs):
        return None
    batch = txs[start:stop]
    lens = list(map(len, batch))
    width = sum(lens[:per_round])  # terms per round
    if not width or lens[per_round:] != lens[:-per_round]:
        return None
    # A term or symbol that is not a pair, a symbol that is not a tuple, a
    # unit or coefficient that is not an int or an unhashable packet is no
    # batch; `_check` reports it.
    try:
        syms, coefs = zip(*chain.from_iterable(batch), strict=True)
        pids, seq = zip(*syms, strict=True)
        if {*map(type, syms)} != {tuple} or {*map(type, seq), *map(type, coefs)} != {int}:
            return None
        if coefs[width:] != coefs[:-width] or pids[width:] != pids[:-width]:
            return None
        if set(map(sub, seq[width:], seq[:-width])) - {1}:
            return None
        first = {}
        for pid, unit in syms[:width]:
            if first.setdefault(pid, unit) != unit:
                return None
    except (TypeError, ValueError):
        return None
    for pid, unit in first.items():
        if not 0 <= unit <= units.get(pid, 0) - count:
            return None
    return batch[:per_round], first


def _check(terms, units):
    """Raise ScheduleError, showing the term as given, at the first term
    that is not ((packet, unit), coef), a pair whose symbol is a tuple,
    with a packet of the instance, an int unit within the packet (`units`:
    packet -> its number of units) and an int coef in 0..255."""
    for term in terms:
        try:
            sym, coef = term
            pid, unit = sym
            ok = (type(sym) is tuple and type(unit) is int and 0 <= unit < units.get(pid, 0)
                  and type(coef) is int and 0 <= coef <= 255)
        except (TypeError, ValueError):  # not a pair, or an unhashable packet
            ok = False
        if not ok:
            raise ScheduleError(f"term {term!r} is not a unit of a packet "
                                f"of the instance with a coefficient in 0..255")


def _outside(spans, n):
    """The indices below n outside the (start, stop, ...) `spans`, which
    are disjoint and in order."""
    at = 0
    out = []
    for start, stop, *_ in spans:
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

    # The batches the actions propose that repeat their first round, and
    # the units each claims of each packet.
    txs = schedule.transmissions
    proposed = []  # (start, stop, first round's terms, {pid: unit}, count)
    at = 0
    for action in schedule.actions:
        per_round = len(action.rows)
        found = _batch(txs, at, per_round, action.count, units)
        stop = at + per_round * action.count
        if found is not None:
            _check(chain.from_iterable(found[0]), units)
            proposed.append((at, stop, *found, action.count))
        at = max(at, stop)
    outside = _outside(proposed, len(txs))
    for i in outside:
        _check(txs[i], units)
    spans = {}  # packet id -> [(first unit, end unit, proposal index)]
    for j, (_, _, _, first, count) in enumerate(proposed):
        for pid, unit in first.items():
            spans.setdefault(pid, []).append((unit, unit + count, j))
    # A proposal that shares a symbol with another or with a transmission
    # outside every proposal is declined.  Sharing is symmetric, so what
    # declining moves out of the batches shares symbols with nothing that
    # stays in one.
    declined = set()
    for claims in spans.values():
        for i, (lo, hi, j) in enumerate(claims):
            for lo2, hi2, k in claims[i + 1:]:
                if lo < hi2 and lo2 < hi:
                    declined.update((j, k))
    for i in outside:
        for (pid, unit), _ in txs[i]:
            declined.update(j for lo, hi, j in spans.get(pid, ()) if lo <= unit < hi)
    accepted = [proposal for j, proposal in enumerate(proposed) if j not in declined]

    # The blocks, as ({pid: its symbols decoded}, {symbol: its truth},
    # payload width, the terms sent): one per accepted batch, its first
    # round, and one for the transmissions outside them.
    unencoded = []
    covered = {}  # packet id -> [(first unit, end unit)] of accepted batches
    for _, _, rounds, first, count in accepted:
        width = count * size
        decodes = {pid: [(pid, unit)] for pid, unit in first.items()}
        truth = {(pid, unit): truth_of(pid, unit, width) for pid, unit in first.items()}
        unencoded.append((decodes, truth, width, rounds))
        for pid, unit in first.items():
            covered.setdefault(pid, []).append((unit, unit + count))
    rest = {}  # packet id -> its symbols outside every accepted batch
    for pid, n in units.items():
        gaps = _outside(sorted(covered.get(pid, ())), n)
        if gaps:
            rest[pid] = [(pid, unit) for unit in gaps]
    if rest:
        truth = {sym: truth_of(*sym, size) for syms in rest.values() for sym in syms}
        sent = [txs[i] for i in _outside(accepted, len(txs))]
        unencoded.append((rest, truth, size, sent))
    blocks = [(decodes, truth, width,
               [e for e in (_encode(terms, truth, width) for terms in sent) if e])
              for decodes, truth, width, sent in unencoded]

    success = {}
    failure = None
    for user in inst.users:
        known = inst.side_packets(user)
        demanded = [p.id for p in inst.packets if p.demand == user]
        failed = set()
        for decodes, truth, width, encoded in blocks:
            mine = decodes.keys() & demanded
            if not mine:
                continue
            held = known & decodes.keys()
            if held:
                rows = [got for got in (_received(entries, payload, held)
                                        for _, payload, entries in encoded) if got]
            else:
                rows = [(row, payload) for row, payload, _ in encoded]
            solved = _eliminate(rows, width)
            failed.update(pid for pid in mine
                          if any(solved.get(sym) != truth[sym] for sym in decodes[pid]))
        first_failed = next((pid for pid in demanded if pid in failed), None)
        success[user] = first_failed is None
        if first_failed is not None and failure is None:
            failure = (user, first_failed)
    return DecodeReport(success, len(txs), theta, failure)
