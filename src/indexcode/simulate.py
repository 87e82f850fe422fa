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

A receiver eliminates only the transmissions that can reach its demands.
Take the bipartite graph joining each row to the symbols it contains.  The
row space is the direct sum of the spans of the rows of its connected
components, so a unit vector e_s lies in the row space exactly when it lies
in the span of the rows of s's component: every other row can be left out
without changing which demanded symbols are determined.  Packet-level reach
keeps at least that component.  It starts from the demanded packets and
repeatedly adds the unknown packets of every transmission whose unknown
packets meet it; a transmission's packets are those of its nonzero terms,
a superset of the packets of its row after cancellation.  Every row in a
demanded symbol's component is joined to it by a chain of rows, each
sharing an unknown symbol, hence an unknown packet, with the next, so reach
contains the packets of all of them, and each of them is kept.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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
    truth = {}  # packet id -> the payloads of its units, in unit order
    at = 0
    for p in inst.packets:
        end = at + p.weight * theta * size
        truth[p.id] = [int.from_bytes(stream[i:i + size], "little") for i in range(at, end, size)]
        at = end

    # Per transmission: its row over all symbols, with the coefficients of a
    # repeated symbol added and zeros dropped, its broadcast payload, and
    # each entry of the row as (packet, symbol, coef, coef * truth).  The
    # payload is the XOR of those scaled terms.  Transmissions are grouped
    # by the packets of their nonzero terms; one whose row is empty, as all
    # its terms are zero or cancel, tells no receiver anything.
    sent = []
    entries_of = []
    by_packets = {}  # packet set -> indices of its transmissions
    last = None
    for t in schedule.transmissions:
        terms = t.coeffs
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
                continue
        else:
            pids = [sym[0] for sym in row]
        payload = 0
        entries = []
        for sym, coef in row.items():
            part = truth[sym[0]][sym[1]]
            if coef != 1:
                part = _scale(coef, part, size)
            payload ^= part
            entries.append((sym[0], sym, coef, part))
        if pids != last:  # the rounds of an action share their packets
            group = by_packets.setdefault(frozenset(pids), [])
            last = pids
        group.append(len(sent))
        sent.append((row, payload))
        # Tuples, not lists: the garbage collector untracks a tuple of ints,
        # strings and such tuples, so entries alive for the whole call are
        # not promoted to the oldest generation to bring on full collections.
        entries_of.append(tuple(entries))

    success = {}
    failure = None
    for user in inst.users:
        known = inst.side_packets(user)
        demanded = [p.id for p in inst.packets if p.demand == user]
        reach = set(demanded)
        unknown = [pkts - known for pkts in by_packets]
        grown = True
        while grown:
            grown = False
            for pkts in unknown:
                if not reach.isdisjoint(pkts) and not pkts <= reach:
                    reach |= pkts
                    grown = True
        # reach holds no known packet, so a packet set meets it exactly when
        # the set's unknown packets do.
        rows = {}  # transmission index -> (row, right-hand side)
        for pkts, indices in by_packets.items():
            if reach.isdisjoint(pkts):
                continue
            held = pkts & known
            if not held:
                rows.update((i, sent[i]) for i in indices)
                continue
            for i in indices:
                payload = sent[i][1]
                row = {}
                for pid, sym, coef, part in entries_of[i]:
                    if pid in held:
                        payload ^= part
                    else:
                        row[sym] = coef
                if row:
                    rows[i] = (row, payload)
        solved = _eliminate([rows[i] for i in sorted(rows)], size)
        failed = next(
            (pid for pid in demanded
             if [solved.get((pid, idx)) for idx in range(len(truth[pid]))] != truth[pid]),
            None,
        )
        success[user] = failed is None
        if failed is not None and failure is None:
            failure = (user, failed)
    return DecodeReport(success, len(schedule.transmissions), theta, failure)
