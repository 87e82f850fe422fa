"""Partial-clique codes beat cyclic codes when side information is rich.

On the instance of demo 02, every user already holds the other two
packets: the packet set is a (3,2)-partial clique, and a single XOR of
all three packets lets everyone decode — one transmission against the
cyclic code's two (scalar) or 3/2 (vector).  The partial-clique program
P5 is the cyclic program P2 (its chordless cycles, which are the (k,1)
cliques worth a column, and its direct sends) plus one column per
critical clique with d >= 2.  With k - d >= 2 the code switches from
plain XOR to Cauchy-matrix MDS rows over GF(2^8); we show a 4-user
example and verify both schedules decode.
"""

from indexcode import (
    clique_schedule,
    enumerate_cycles,
    enumerate_partial_cliques,
    make_instance,
    simulate,
    solve_ilp,
)
from indexcode.programs import build_P5

fig = make_instance(
    users=["u1", "u2", "u3"],
    packets=[
        ("p1", 1, "u1", {"u2", "u3"}),
        ("p2", 1, "u2", {"u1", "u3"}),
        ("p3", 1, "u3", {"u1", "u2"}),
    ],
)

print("Chordless cycles of the 3-user instance, the (k,1) cliques of P2:")
for c in enumerate_cycles(fig):
    print(f"  ({c.length},1): {list(c.packets)}")
print("Partial cliques (k,d) with d >= 2, the columns P5 adds:")
for t in enumerate_partial_cliques(fig):
    print(f"  ({t.k},{t.d}): {sorted(t.packets)}")

res = solve_ilp(build_P5(fig, enumerate_cycles(fig), enumerate_partial_cliques(fig)))
sched = clique_schedule(fig, res)
print(f"\noptimal clique cover cost = {res.objective}")
print(f"schedule: {len(sched.transmissions)} transmission over {sched.field_name}")
print(f"decodes: {simulate(fig, sched).all_decoded}")

# Four users, each holding two of the other three packets: a (4,2)-clique.
# Clearing it takes k-d = 2 MDS-coded transmissions over GF(2^8).
users = ["u1", "u2", "u3", "u4"]
big = make_instance(
    users,
    [
        (f"p{i}", 1, users[i - 1], {users[i % 4], users[(i + 1) % 4]})
        for i in range(1, 5)
    ],
)
# Two disjoint 2-cycles also cost 2, so leave the cycles out and cover with
# the direct sends and the full clique, to showcase the MDS construction.
full = [t for t in enumerate_partial_cliques(big) if t.k == 4]
res = solve_ilp(build_P5(big, [], full))
sched = clique_schedule(big, res)
print(f"\n4-user (4,2)-clique: {len(sched.transmissions)} transmissions "
      f"over {sched.field_name}")
for terms in sched.transmissions:
    print("  " + " + ".join(f"{coef}*{pid}" for (pid, _), coef in terms))
print(f"decodes: {simulate(big, sched).all_decoded}")
