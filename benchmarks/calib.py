"""Machine-speed calibration for the end-to-end timings.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give one process switches between a fast and a slow
state (up to 2x apart) every few seconds, and drifts over minutes.  It is
contention for shared cores and caches, not steal time, so CPU time
drifts with it.  To make runs at different moments comparable, each timing
is divided by the time of fixed reference work done around it, and
multiplied by that reference's time on an idle machine:

* draws are interleaved with `measure()`, the wall time of
  `reference_work()`: exact elimination on a seeded 10 x 10 `Fraction`
  matrix (the kind of work of the LP layer) plus elimination over GF(2^8)
  with numpy log tables and 64-byte payloads (the kind of work of
  `simulate`); `scale()` divides each draw by the mean of the calibrations
  within `WINDOW_S` of it.  The mean, not the median: a draw lasts through
  both states, and the median of a few calibrations picks one of them;
* a process launch is paired with `launch_reference()`, a fresh interpreter
  that imports numpy and a few standard modules and repeats
  `reference_work()`; it goes through the same exec, import and page-fault
  path as a launch of `indexcode`, which an in-process timing does not
  track.

The results are reference seconds: the time the work would take on the
idle machine.  Only the standard library and numpy are used, and nothing
here imports `indexcode`, so no change to the program under test can
change the calibration.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np

# Approximate medians on an idle 2-core x86-64 VM (Intel Xeon, Python 3.11):
# the time of measure() and of launch_reference().
REF_S = 0.0080
REF_LAUNCH_S = 0.34
# Calibrations this close to a draw, before or after it, set its speed.
WINDOW_S = 1.0

_N = 10


def _fraction_work() -> int:
    rng = Random(12345)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(_N)]
            for _ in range(_N)]
    pivots = {}
    for k in range(_N):
        p = rows[k][k] or Fraction(1)
        for r in range(_N):
            if r != k and rows[r][k]:
                f = rows[r][k] / p
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
                pivots[(r, k)] = f
    names = sorted(f"x{r}_{k}" for r, k in pivots)
    return len(names) + sum(1 for f in pivots.values() if f > 0)


_EXP = np.zeros(512, dtype=np.uint16)
_LOG = np.zeros(256, dtype=np.uint16)
_x = 1
for _i in range(255):
    _EXP[_i], _LOG[_x] = _x, _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_EXP[255:510] = _EXP[0:255]


def _gf_mul(a: int, b: int) -> int:
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])]) if a and b else 0


def _gf_scale(c: int, data: np.ndarray) -> np.ndarray:
    out = _EXP[int(_LOG[c]) + _LOG[data]].astype(np.uint8)
    out[data == 0] = 0
    return out


def _gf256_work(n: int = 16) -> int:
    rng = Random(12345)
    rows = [([rng.randrange(256) for _ in range(n)],
             np.frombuffer(rng.randbytes(64), dtype=np.uint8).copy()) for _ in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][0][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        coeffs, payload = rows[col]
        for i in range(n):
            f = rows[i][0][col]
            if i != col and f:
                ci, pi = rows[i]
                rows[i] = ([a ^ _gf_mul(f, b) for a, b in zip(ci, coeffs)],
                           pi ^ _gf_scale(f, payload))
    return sum(int(p[0]) for _, p in rows)


def reference_work() -> int:
    return _fraction_work() + _gf256_work()


def measure() -> float:
    """Wall time of one reference_work() call, in seconds.  A first,
    untimed call warms the caches that a draw or a collection has just
    filled with other data."""
    reference_work()
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale(draws: list[tuple[float, float]], cals: list[tuple[float, float]]) -> list[float]:
    """Each (start, seconds) draw in reference seconds, given the
    (start, seconds) calibrations made around the draws."""
    out = []
    for start, seconds in draws:
        near = [c for t, c in cals if start - WINDOW_S <= t <= start + seconds + WINDOW_S]
        out.append(seconds * REF_S / statistics.fmean(near))
    return out


_LAUNCH_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import calib, decimal, email.parser, json; "
    "[calib.reference_work() for _ in range(20)]"
)


def launch_reference(env) -> float:
    """Wall time of one fresh interpreter running the reference launch."""
    cmd = [sys.executable, "-c", _LAUNCH_CODE, str(Path(__file__).resolve().parent)]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0
