"""GF(2^8) arithmetic with the fixed reduction polynomial 0x11D.

Field elements are plain ints 0..255, and addition is XOR; GF(2) is the
subfield {0, 1}.  Log/antilog tables are built once at import; a byte
string is scaled with one 256-byte translation table per multiplier.
"""

from __future__ import annotations

from functools import lru_cache

POLY = 0x11D

_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= POLY


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


@lru_cache(maxsize=None)
def _scale_table(c: int) -> bytes:
    return bytes(gf_mul(c, x) for x in range(256))


def gf_scale_bytes(c: int, data: bytes) -> bytes:
    """c * data bytewise over GF(2^8)."""
    return data.translate(_scale_table(c))


def mds_rows(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    """An r x k generator whose every square submatrix is invertible.

    For r = 1 this is the all-ones row.  For r >= 2 it is the Cauchy matrix
    1/(x_i + y_j) with x_i = i and y_j = k + j (0 <= i < r, 0 <= j < k),
    which needs 2k <= 256.  Any r received coded rows plus any k-r known
    packets then determine all k packets.
    """
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    if k > 255:
        raise ValueError(f"k={k} exceeds the field order")
    if r == 1:
        return ((1,) * k,)
    if 2 * k > 256:
        raise ValueError(f"Cauchy construction needs 2k <= 256, got k={k}")
    return tuple(tuple(gf_inv(i ^ (k + j)) for j in range(k)) for i in range(r))

