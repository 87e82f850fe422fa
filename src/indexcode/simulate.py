"""Replay a transmission schedule over random payloads and verify decoding.

Ground-truth payloads are SHAKE-256 digests of the seed and the symbol's
counter, so runs are exactly reproducible.  A payload is the int of its
little-endian bytes, so adding two payloads is XOR.  Every
receiver performs sparse Gaussian elimination over GF(2^8), which holds the
GF(2) of cyclic codes as its subfield {0, 1}, restricted to the symbols it
does not already hold, and must recover all demanded symbols bit-exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .coding import TransmissionSchedule
from .gf256 import gf_inv, gf_mul, gf_scale_bytes
from .instance import Instance

DEFAULT_PAYLOAD_SIZE = 64


class DecodeFailure(RuntimeError):
    """A receiver could not recover a demanded (sub)packet."""

    def __init__(self, user, packet):
        super().__init__(f"user {user!r} cannot decode packet {packet!r}")
        self.user = user
        self.packet = packet


def _payload(seed: int, counter: int, size: int) -> int:
    return int.from_bytes(hashlib.shake_256(b"%d:%d" % (seed, counter)).digest(size), "little")


@dataclass
class DecodeReport:
    success: dict[str, bool]
    transmissions: int
    theta: int

    @property
    def all_decoded(self) -> bool:
        return all(self.success.values())


def _scale(coef: int, payload: int, size: int) -> int:
    if coef == 1:
        return payload
    data = gf_scale_bytes(coef, payload.to_bytes(size, "little"))
    return int.from_bytes(data, "little")


def _add_scaled(row: dict, coef: int, other: dict) -> None:
    """row += coef * other, in place; entries that cancel are dropped."""
    for sym, a in other.items():
        v = row.get(sym, 0) ^ gf_mul(coef, a)
        if v:
            row[sym] = v
        else:
            del row[sym]


def _eliminate(rows, size):
    """Reduce sparse rows ({symbol: coef}, payload) in place to reduced row
    echelon form; return {symbol: payload} for every symbol they determine.

    Forward, each row is reduced by the earlier pivot rows, lowest pivot
    index first: a pivot row is zero at every earlier pivot, so no cleared
    pivot comes back.  The row is then normalised to 1 at its first remaining
    symbol.  Back-substitution, in reverse pivot order, clears the later
    pivots from each pivot row; those rows are final by then and hold no
    other pivot.  A symbol is determined exactly when its pivot row has no
    other entry.
    """
    order = {}  # pivot symbol -> its index in pivots
    pivots = []  # [symbol, row, payload]
    for row, rhs in rows:
        while True:
            i = min((order[s] for s in row if s in order), default=None)
            if i is None:
                break
            sym, prow, prhs = pivots[i]
            coef = row[sym]
            _add_scaled(row, coef, prow)
            rhs ^= _scale(coef, prhs, size)
        if not row:
            continue
        sym = next(iter(row))
        inv = gf_inv(row[sym])
        if inv != 1:
            row = {s: gf_mul(inv, a) for s, a in row.items()}
            rhs = _scale(inv, rhs, size)
        order[sym] = len(pivots)
        pivots.append([sym, row, rhs])
    solved = {}
    for entry in reversed(pivots):
        sym, row, rhs = entry
        for s in [s for s in row if s != sym and s in order]:
            _, prow, prhs = pivots[order[s]]
            coef = row[s]
            _add_scaled(row, coef, prow)
            rhs ^= _scale(coef, prhs, size)
        entry[2] = rhs
        if len(row) == 1:
            solved[sym] = rhs
    return solved


def simulate(
    inst: Instance,
    schedule: TransmissionSchedule,
    seed: int = 0,
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
    raise_on_failure: bool = True,
) -> DecodeReport:
    """Run the schedule and check that every user decodes its demands."""
    theta = schedule.theta
    symbols = [(p.id, idx) for p in inst.packets for idx in range(p.weight * theta)]
    truth = {
        s: _payload(seed, i + 1, payload_size) for i, s in enumerate(symbols)
    }

    payloads = []
    for t in schedule.transmissions:
        acc = 0
        for sym, coef in t.coeffs:
            acc ^= _scale(coef, truth[sym], payload_size)
        payloads.append(acc)

    success = {}
    first_failure = None
    for user in inst.users:
        known_pkts = inst.side_packets(user)
        rows = []
        for t, payload in zip(schedule.transmissions, payloads):
            row = {}
            rhs = payload
            for sym, coef in t.coeffs:
                if sym[0] in known_pkts:
                    rhs ^= _scale(coef, truth[sym], payload_size)
                elif coef:
                    _add_scaled(row, 1, {sym: coef})
            if row:
                rows.append((row, rhs))
        solved = _eliminate(rows, payload_size)
        ok = True
        for pid in inst.demanded_packets(user):
            for idx in range(inst.packet(pid).weight * theta):
                if solved.get((pid, idx)) != truth[(pid, idx)]:
                    ok = False
                    if first_failure is None:
                        first_failure = (user, pid)
                    break
            if not ok:
                break
        success[user] = ok
    if first_failure is not None and raise_on_failure:
        raise DecodeFailure(*first_failure)
    return DecodeReport(success, len(schedule.transmissions), theta)
