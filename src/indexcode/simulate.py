"""Replay a transmission schedule over random payloads and verify decoding.

Ground-truth payloads come from one SHAKE-256 stream: the digest of the
decimal seed, ``n * size`` bytes long for ``n`` symbols, of which symbol i
(in instance order, units in order) takes bytes ``[i * size, (i + 1) *
size)``.  Runs are therefore exactly reproducible.  A payload is the int of
its little-endian bytes, so adding two payloads is XOR.

Each transmission is encoded once: its terms ``(symbol, coef, coef *
truth)``, the coefficients of a repeated symbol added, and its broadcast
payload, the XOR of the scaled terms.  A receiver sees only the broadcast
payload and its own side packets: it XORs the scaled terms of the packets
it holds out of the payload, and keeps the rest as a sparse row over
GF(2^8), which holds the GF(2) of cyclic codes as its subfield {0, 1}.
Sparse Gaussian elimination over those rows must recover every demanded
symbol bit-exactly.

Take the bipartite graph joining each row to the symbols it contains.  The
row space is the direct sum of the spans of the rows of its connected
components, so a unit vector e_s lies in the row space exactly when it lies
in the span of the rows of s's component: rows outside that component can
be left out, or eliminated apart, without changing which demanded symbols
are determined.

Batches.  A schedule's actions repeat one small code ``count`` times on
fresh units, so each action proposes a batch: the next ``count`` rounds of
transmissions, a round being as many as the action's code sends.  The
proposal is accepted only if the batch's transmissions are its first
round's, round after round, with every unit advanced by one, each packet
holds one unit in that round, and the units stay within the packet; that
is checked on the whole batch at once, as tuple equality over its
flattened terms.  Rounds then share no symbol.  An accepted batch must
also share no symbol, counting terms with a zero coefficient, with any
other batch or any transmission outside the accepted batches; then it is a
union of components, and so is each of its rounds.  Its symbols occur
nowhere else, so a demanded unit in it is decoded or lost within it.  The
elimination's control flow depends only on the coefficients, which every
round repeats, so a receiver eliminates the first round's rows once, each
payload carrying all rounds as one int of ``count * size`` bytes, round j
at bytes ``[j * size, (j + 1) * size)``.  A packet's truth over the batch
is then one contiguous slice of the stream, and XOR and scaling act on all
rounds at once.  Only receivers with a demanded packet in the batch
eliminate it.

Everything else -- broken or dropped rounds, duplicated units, schedules
without actions -- is decoded over ``(packet, unit)`` symbols, and a
receiver eliminates only the transmissions that can reach its demands.
Packet-level reach keeps at least their components.  It starts from the
demanded packets and repeatedly adds the unknown packets of every
transmission whose unknown packets meet it; a transmission's packets are
those of its nonzero terms, a superset of the packets of its row after
cancellation.  Every row in a demanded symbol's component is joined to it
by a chain of rows, each sharing an unknown symbol, hence an unknown
packet, with the next, so reach contains the packets of all of them, and
each of them is kept.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import sub

from .coding import TransmissionSchedule
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


def _encode(terms, truth_of, size):
    """A transmission's row, with the coefficients of a repeated symbol
    added and zeros dropped, its broadcast payload, each entry of the row as
    (packet, symbol, coef, coef * truth), and the packets of its nonzero
    terms, in term order; None when the row is empty, as all its terms are
    zero or cancel, which tells no receiver anything.  The payload is the
    XOR of the scaled entries."""
    row = dict(terms)
    if len(row) < len(terms) or 0 in row.values():  # a repeated symbol or a zero
        pids = [sym[0] for sym, coef in terms if coef]
        row = {}
        for sym, coef in terms:
            v = row.get(sym, 0) ^ coef
            if v:
                row[sym] = v
            elif sym in row:
                del row[sym]
        if not row:
            return None
    else:
        pids = [sym[0] for sym in row]
    payload = 0
    entries = []
    for sym, coef in row.items():
        part = truth_of(sym)
        if coef != 1:
            part = _scale(coef, part, size)
        payload ^= part
        entries.append((sym[0], sym, coef, part))
    # A tuple, not a list: the garbage collector untracks a tuple of ints,
    # strings and such tuples, so entries alive for the whole call are not
    # promoted to the oldest generation to bring on full collections.
    return row, payload, tuple(entries), pids


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
    coeffs = [t.coeffs for t in txs[start:stop]]
    lens = list(map(len, coeffs))
    width = sum(lens[:per_round])  # terms per round
    if not width or lens[per_round:] != lens[:-per_round]:
        return None
    syms, coefs = zip(*chain.from_iterable(coeffs))
    pids, seq = zip(*syms)
    if (coefs[width:] != coefs[:-width] or pids[width:] != pids[:-width]
            or set(map(sub, seq[width:], seq[:-width])) - {1}):
        return None
    first = {}
    for pid, unit in syms[:width]:
        if first.setdefault(pid, unit) != unit:
            return None
    for pid, unit in first.items():
        if type(unit) is not int or not 0 <= unit <= units.get(pid, 0) - count:
            return None
    return coeffs[:per_round], first


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
    """Run the schedule and check that every user decodes its demands."""
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
    truth = {}  # packet id -> the payloads of its units, in unit order

    def unit_truth(sym):
        pid, unit = sym
        if pid not in truth:
            at = base[pid]
            truth[pid] = [int.from_bytes(stream[i:i + size], "little")
                          for i in range(at, at + units[pid] * size, size)]
        return truth[pid][unit]

    # The batches the actions propose that repeat their first round, and
    # the units each claims of each packet.
    txs = schedule.transmissions
    proposed = []  # (start, stop, first round's terms, {pid: unit}, count)
    at = 0
    for action in schedule.actions:
        per_round = action.transmissions_per_round
        found = _batch(txs, at, per_round, action.count, units)
        stop = at + per_round * action.count
        if found is not None:
            proposed.append((at, stop, *found, action.count))
        at = max(at, stop)
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
    for i in _outside(proposed, len(txs)):
        for (pid, unit), _ in txs[i].coeffs:
            declined.update(j for lo, hi, j in spans.get(pid, ()) if lo <= unit < hi)
    accepted = [proposal for j, proposal in enumerate(proposed) if j not in declined]
    leftover = _outside(accepted, len(txs))

    # Per accepted batch: {pid: first unit}, the wide truth of each
    # first-round symbol, the payload width, and the first round's rows and
    # broadcast payloads, and their entries.
    batches = []
    covered = {}  # packet id -> [(first unit, end unit)] of accepted batches
    for _, _, rounds, first, count in accepted:
        width = count * size
        wide = {}
        for pid, unit in first.items():
            at = base[pid] + unit * size
            wide[(pid, unit)] = int.from_bytes(stream[at:at + width], "little")
            covered.setdefault(pid, []).append((unit, unit + count))
        encoded = [e for e in (_encode(terms, wide.__getitem__, width) for terms in rounds) if e]
        batches.append((first, wide, width,
                        [(row, payload) for row, payload, _, _ in encoded],
                        [entries for _, _, entries, _ in encoded]))
    # packet id -> its units outside every accepted batch
    gaps = {pid: _outside(sorted(covered.get(pid, ())), n) for pid, n in units.items()}

    # Per transmission outside the batches: its row and broadcast payload,
    # and its entries.  They are grouped by the packets of their nonzero
    # terms.
    sent = []
    entries_of = []
    by_packets = {}  # packet set -> indices of its transmissions
    last = None
    for i in leftover:
        encoded = _encode(txs[i].coeffs, unit_truth, size)
        if encoded is None:
            continue
        row, payload, entries, pids = encoded
        if pids != last:  # the rounds of an action share their packets
            group = by_packets.setdefault(frozenset(pids), [])
            last = pids
        group.append(len(sent))
        sent.append((row, payload))
        entries_of.append(entries)

    success = {}
    failure = None
    for user in inst.users:
        known = inst.side_packets(user)
        demanded = [p.id for p in inst.packets if p.demand == user]
        failed = set()
        for first, wide, width, pairs, entries in batches:
            mine = first.keys() & demanded
            if not mine:
                continue
            held = known & first.keys()
            if held:
                pairs = [got for got in (_received(e, rhs, held)
                                         for e, (_, rhs) in zip(entries, pairs)) if got]
            solved = _eliminate(pairs, width) if pairs else {}
            failed.update(pid for pid in mine
                          if solved.get((pid, first[pid])) != wide[(pid, first[pid])])
        solved = {}
        if sent and any(gaps[pid] for pid in demanded):
            reach = set(demanded)
            unknown = [pkts - known for pkts in by_packets]
            grown = True
            while grown:
                grown = False
                for pkts in unknown:
                    if not reach.isdisjoint(pkts) and not pkts <= reach:
                        reach |= pkts
                        grown = True
            # reach holds no known packet, so a packet set meets it exactly
            # when the set's unknown packets do.
            rows = {}  # transmission index -> (row, right-hand side)
            for pkts, indices in by_packets.items():
                if reach.isdisjoint(pkts):
                    continue
                held = pkts & known
                if not held:
                    rows.update((i, sent[i]) for i in indices)
                    continue
                for i in indices:
                    got = _received(entries_of[i], sent[i][1], held)
                    if got:
                        rows[i] = got
            if rows:
                solved = _eliminate([rows[i] for i in sorted(rows)], size)
        failed.update(pid for pid in demanded
                      if any(solved.get((pid, i)) != unit_truth((pid, i)) for i in gaps[pid]))
        first_failed = next((pid for pid in demanded if pid in failed), None)
        success[user] = first_failed is None
        if first_failed is not None and failure is None:
            failure = (user, first_failed)
    return DecodeReport(success, len(txs), theta, failure)
