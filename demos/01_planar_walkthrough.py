"""A complete tour on a 3-user planar instance.

A base station holds three packets; every user wants one packet and
already knows some of the others.  We enumerate the chordless cycles of
the side-information digraph, solve the deletion and covering programs
exactly, observe that every bound collapses to the same value (the
instance is planar), build the 2-transmission schedule (one XOR and one
direct send), and verify by simulation that all three users decode.
"""

from indexcode import (
    bounds_report,
    cyclic_schedule,
    enumerate_cycles,
    make_instance,
    simulate,
    solve_ilp,
)
from indexcode.analysis import Analysis
from indexcode.programs import build_P2

inst = make_instance(
    users=["u1", "u2", "u3"],
    packets=[
        ("p1", 1, "u1", {"u2", "u3"}),  # u1 wants p1; u2 and u3 hold it
        ("p2", 1, "u2", {"u3"}),
        ("p3", 1, "u3", {"u1"}),
    ],
)

print("Chordless cycles of the side-information digraph:")
cycles = enumerate_cycles(inst)
for c in cycles:
    print("  " + " -> ".join(f"{p}({u})" for p, u in zip(c.packets, c.users)))

rep = bounds_report(inst)
print(f"\nBound chain: valP1={rep.valP1} <= valP1'={rep.valP1_relaxed} "
      f"= valP2'={rep.valP2_relaxed} <= valP2={rep.valP2}")
print(f"planar={rep.planar}  exact_optimal={rep.exact_optimal}")

t2 = Analysis(inst).theorem2()
print(f"certified optimal clearance time: {t2.optimal_clearance}")

sched = cyclic_schedule(inst, solve_ilp(build_P2(inst, cycles)))
print(f"\nSchedule over {sched.field_name} ({len(sched.transmissions)} transmissions):")
for terms in sched.transmissions:
    print("  " + " XOR ".join(pid for (pid, _), _ in terms))

report = simulate(inst, sched)
print(f"\nsimulation: all users decoded = {report.all_decoded}")
