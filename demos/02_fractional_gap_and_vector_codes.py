"""A non-planar instance where the bounds genuinely separate.

Three users each demand one packet and hold both of the others.  The
integer deletion bound is 1, its LP relaxation is 3/2, and the best
scalar cyclic code needs 2 transmissions — three different values.  The
LP value 3/2 is still achievable: split every packet into two halves
(theta = 2) and send three coded subpackets.  We build that vector code
and verify it decodes.
"""

from indexcode import (
    bounds_report,
    cyclic_schedule,
    enumerate_cycles,
    simulate,
    solve_lp,
)
from indexcode.instance import make_instance
from indexcode.programs import build_P2

inst = make_instance(
    users=["u1", "u2", "u3"],
    packets=[
        ("p1", 1, "u1", {"u2", "u3"}),
        ("p2", 1, "u2", {"u1", "u3"}),
        ("p3", 1, "u3", {"u1", "u2"}),
    ],
)

rep = bounds_report(inst)
print(f"valP1           = {rep.valP1}   (integer deletion bound)")
print(f"valP1' = valP2' = {rep.valP1_relaxed}   (LP relaxations, equal by duality)")
print(f"valP2           = {rep.valP2}   (best scalar cyclic code)")
print(f"planar = {rep.planar}  -> no collapse guarantee, and indeed gaps appear")
print(f"gap_P1 = {rep.gap_P1}, gap_P2 = {rep.gap_P2}")

# The LP relaxation of P2 is solve_lp of the same program: its optimum has
# denominator 2, so cyclic_schedule splits each packet into theta = 2 halves.
res = solve_lp(build_P2(inst, enumerate_cycles(inst)))
sched = cyclic_schedule(inst, res)
print(f"\nvector code: theta={sched.theta}, "
      f"{len(sched.transmissions)} subpacket transmissions, "
      f"clearance={sched.total_count} packet slots")
for terms in sched.transmissions:
    print("  " + " XOR ".join(f"{pid}/{unit}" for (pid, unit), _ in terms))

print(f"\nall users decode: {simulate(inst, sched).all_decoded}")
