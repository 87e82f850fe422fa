"""Deterministic, seeded instance generator for the benchmark workloads.

Independent of `indexcode.generators`: packet ids are assigned in draw
order and every set is sorted as a tuple of strings before it is written,
so the instance texts depend on the seed alone, never on `PYTHONHASHSEED`.
The program under test only ever sees the YAML text produced here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class Draw:
    """One generated instance and the CLI arguments it is run with."""

    index: int
    text: str
    argv: tuple[str, ...]  # subcommand and options, without the file path


def instance_text(users, packets) -> str:
    """YAML instance text; `packets` is a list of (id, weight, demand, side)."""
    lines = ["users: [" + ", ".join(users) + "]", "packets:"]
    for pid, weight, demand, side in packets:
        lines.append(
            f"- {{id: {pid}, weight: {weight}, demand: {demand}, "
            f"side: [{', '.join(sorted(side))}]}}"
        )
    return "\n".join(lines) + "\n"


def _packets(rng: Random, users, m, side_of, weight_range):
    """`m` packet types with distinct (demand, side) pairs.

    A pair that repeats an earlier one is drawn again: the instance format
    requires such types to be merged, which would change M.
    """
    seen = set()
    packets = []
    while len(packets) < m:
        demand = rng.choice(users)
        side = side_of(demand)
        if (demand, side) in seen:
            continue
        seen.add((demand, side))
        packets.append((f"p{len(packets) + 1}", rng.randint(*weight_range), demand, side))
    return packets


def _random_side(rng: Random, users, prob):
    return lambda demand: tuple(u for u in users if u != demand and rng.random() < prob)


# Why these families.  Branch-and-bound in `lp.solve_ilp` explores depth
# first and does not round its bound up to the next integer, so a random
# draw whose relaxation is fractional can take minutes: on dense 6-user
# draws, 101 s and 164 s at M = 8, in P2 and in P5.  Even at M = 5 the rare
# fractional draws (2-5 %) sit exactly where the tail percentile of a 30 s
# run falls, so `inst_tail_s` spread by a third across seeds.  A run must end
# within 180 s and be steady across seeds, so every family below is one on
# which the bound chain provably closes, and branch-and-bound with it.


def _grid_packets(rng: Random, rows: int, cols: int, prob: float):
    """Packets and users on a checkerboard: each packet cell is joined only
    to the user cells beside it, so the bipartite graph is a subgraph of the
    grid and planar.  Each packet is demanded by one neighbour and held by
    each other neighbour with probability `prob`."""
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    user_of = {cell: f"u{k + 1}" for k, cell in enumerate(x for x in cells if sum(x) % 2)}
    seen = set()
    packets = []
    for r, c in (x for x in cells if sum(x) % 2 == 0):
        near = [user_of[x] for x in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
                if x in user_of]
        for _ in range(100):
            demand = rng.choice(near)
            side = tuple(u for u in near if u != demand and rng.random() < prob)
            if (demand, side) not in seen:
                break
        else:
            continue  # every (demand, side) pair this cell allows is taken
        seen.add((demand, side))
        packets.append((f"p{len(packets) + 1}", rng.randint(1, 2), demand, side))
    return list(user_of.values()), packets


def _bounds_planar(rng: Random, i: int) -> Draw:
    """`bounds` on planar draws: 10 packet types and 10 users on a 4 x 5 grid.

    By Theorem 2 val(P1) = val(P1') = val(P2') = val(P2), and P5, P5' lie
    between them, so all six programs are exact at the root value.
    """
    users, packets = _grid_packets(rng, 4, 5, 0.9)
    return Draw(i, instance_text(users, packets), ("bounds", "--format", "json"))


def _check_uniprior(rng: Random, i: int) -> Draw:
    """`check` on strictly uniprior draws with 4 users, so every checker runs.

    By Corollary 2 and Theorem 4 every relaxation here is tight, so the
    searches close quickly.  M = 7 (a 127-row P6') keeps the per-draw time
    unimodal: mixing M = 6, 7 and 8 (0.2, 0.6 and 2.2 s) puts the median and
    the tail of a 30 s run on the boundary between two sizes.
    """
    users = [f"u{j + 1}" for j in range(4)]

    def one_holder(demand):
        return (rng.choice([u for u in users if u != demand]),)

    packets = _packets(rng, users, 7, one_holder, (1, 3))
    return Draw(i, instance_text(users, packets), ("check", "--format", "json"))


def _simulate_decode(rng: Random, i: int) -> Draw:
    """`simulate` of vector schedules, alternating cyclic and partial-clique.

    Heavy weights make expansion and elimination the work.  Vector mode
    solves one LP; scalar mode would run branch-and-bound on right-hand
    sides of 100-300, which took over 90 s on some draws.  Strategy, M, the
    number of users and the side-information probability (four levels
    between 0.6 and 0.8) cycle with the index through all 32 combinations,
    so every run has the same mix of them whatever the seed: an M = 5 draw
    takes about twice as long as an M = 4 one.  The M weights are
    spread evenly over 100-300 from a random offset and shuffled (a Latin
    hypercube sample), because their sum sets the number of transmissions
    that expansion and elimination work through.
    """
    users = [f"u{j + 1}" for j in range((4, 5)[i // 4 % 2])]
    m = (4, 5)[i // 2 % 2]
    prob = (0.625, 0.675, 0.725, 0.775)[i // 8 % 4]
    packets = _packets(rng, users, m, _random_side(rng, users, prob), (100, 300))
    offset = rng.random()
    weights = [100 + int(200 * (k + offset) / m) for k in range(m)]
    rng.shuffle(weights)
    packets = [(pid, w, demand, side) for (pid, _, demand, side), w in zip(packets, weights)]
    argv = ("simulate", "--format", "json", "--strategy", ("cyclic", "partial-clique")[i % 2],
            "--mode", "vector", "--seed", str(i))
    return Draw(i, instance_text(users, packets), argv)


WORKLOADS = {
    "bounds-planar": _bounds_planar,
    "check-uniprior": _check_uniprior,
    "simulate-decode": _simulate_decode,
}


def draw(workload: str, seed: int, index: int) -> Draw:
    """The `index`-th instance of a workload's stream for `seed`.

    Each draw has its own generator, seeded from (workload, seed, index), so
    a draw does not depend on how many draws came before it.
    """
    key = f"{workload}/{seed}/{index}".encode()
    rng = Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    return WORKLOADS[workload](rng, index)


def stream(workload: str, seed: int):
    """Endless stream of draws; the client stops taking them when time is up."""
    i = 0
    while True:
        yield draw(workload, seed, i)
        i += 1


def digest(draws) -> str:
    """sha256 over the instance texts and arguments, in run order."""
    h = hashlib.sha256()
    for d in draws:
        h.update(" ".join(d.argv).encode() + b"\0" + d.text.encode() + b"\0")
    return h.hexdigest()
