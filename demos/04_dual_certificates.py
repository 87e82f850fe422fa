"""Why the deletion and covering bounds always agree: LP duality.

The cycle-deletion program P1 is built as the exact transpose of the
cyclic-cover program P2 (`lp.transpose`), so their LP relaxations, which
`solve_lp` solves, are dual by construction and their optimal values
coincide on every instance; the
solver's exact rational dual certificates prove it.  The deletion program's
columns are the cover's per-packet rows ``m:<pid>``, so the cover's row
duals are a point of the deletion program, and one valid certificate of
either program proves both optimal with one value.  We solve both on a
batch of random instances, check objective equality and each certificate,
and print one pair of optima in full.
"""

import sys
from pathlib import Path
from random import Random

from indexcode import enumerate_cycles, solve_lp, transpose, verify_certificate
from indexcode.programs import build_P2

# The random instance generator lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from generators import random_unicast_instance  # noqa: E402

rng = Random(7)

inst = random_unicast_instance(rng)
cycles = enumerate_cycles(inst)
a = solve_lp(transpose(build_P2(inst, cycles)))
b = solve_lp(build_P2(inst, cycles))
print(f"valP1' = {a.objective} = valP2' = {b.objective}")
print(f"deletion certificate valid: {verify_certificate(a.lp, a)}")
print(f"cover certificate valid:    {verify_certificate(b.lp, b)}")

print("\ndeletion primal:", {k: str(v) for k, v in zip(a.lp.var_names, a.primal) if v})
print("cover primal:   ", {k: str(v) for k, v in zip(b.lp.var_names, b.primal) if v})
print("cover row duals:", {c.name: str(y) for c, y in zip(b.lp.constraints, b.row_duals) if y})

failures = 0
for _ in range(200):
    inst = random_unicast_instance(rng)
    cycles = enumerate_cycles(inst)
    a = solve_lp(transpose(build_P2(inst, cycles)))
    b = solve_lp(build_P2(inst, cycles))
    if (a.objective != b.objective or not verify_certificate(a.lp, a)
            or not verify_certificate(b.lp, b)):
        failures += 1
print(f"\n200 random instances: {failures} duality failures")
