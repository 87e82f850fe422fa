"""Random and exhaustive instance generators for property testing.

The planar generator is constructive and conservative: vertices are placed
on a circle and only non-crossing chords are added, so the result is
outerplanar (hence planar) by construction, but not every planar instance
is reachable.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from random import Random

from indexcode.instance import Instance, PacketType, validate_instance


def _finish(users, raw_packets) -> Instance | None:
    """Merge duplicate (side, demand) pairs by summing weights; drop nothing."""
    merged: dict[tuple, int] = {}
    for demand, side, weight in raw_packets:
        key = (demand, frozenset(side))
        merged[key] = merged.get(key, 0) + weight
    if not merged:
        return None
    packets = tuple(
        PacketType(f"p{i + 1}", w, demand, side)
        for i, ((demand, side), w) in enumerate(
            sorted(merged.items(), key=lambda kv: (kv[0][0], tuple(sorted(kv[0][1]))))
        )
    )
    return validate_instance(Instance(tuple(users), packets))


def random_unicast_instance(
    rng: Random,
    max_packets: int = 6,
    max_users: int = 5,
    max_weight: int = 3,
    side_prob: float = 0.35,
    exact: bool = False,
) -> Instance:
    """A random unicast instance; duplicate packet types are merged.  With
    `exact`, it has max_users users and max_packets packet types: a
    repeated (demand, side) pair is drawn again instead."""
    n = max_users if exact else rng.randint(1, max_users)
    users = [f"u{i + 1}" for i in range(n)]
    m = max_packets if exact else rng.randint(1, max_packets)
    if exact and m > n * 2 ** (n - 1):
        raise ValueError(f"{n} users have fewer than {m} distinct packet types")
    raw, seen = [], set()
    while len(raw) < m:
        demand = rng.choice(users)
        side = frozenset(u for u in users if u != demand and rng.random() < side_prob)
        if exact and (demand, side) in seen:
            continue
        seen.add((demand, side))
        raw.append((demand, side, rng.randint(1, max_weight)))
    return _finish(users, raw)


def random_uniprior_instance(
    rng: Random,
    max_packets: int = 6,
    max_users: int = 5,
    max_weight: int = 3,
) -> Instance:
    """A random unicast-uniprior instance (every side set is a singleton)."""
    n = rng.randint(2, max(2, max_users))
    users = [f"u{i + 1}" for i in range(n)]
    m = rng.randint(1, max_packets)
    raw = []
    for _ in range(m):
        demand = rng.choice(users)
        holder = rng.choice([u for u in users if u != demand])
        raw.append((demand, frozenset([holder]), rng.randint(1, max_weight)))
    return _finish(users, raw)


def _chords_cross(a, b, c, d) -> bool:
    """Whether chords (a,b) and (c,d) of a circle cross (positions, no
    shared endpoints)."""
    a, b = min(a, b), max(a, b)
    return (a < c < b) != (a < d < b)


def random_planar_instance(
    rng: Random,
    max_packets: int = 6,
    max_users: int = 5,
    max_weight: int = 3,
    edge_prob: float = 0.7,
) -> Instance:
    """A constructively planar instance via non-crossing chords on a circle."""
    n = rng.randint(1, max_users)
    m = rng.randint(1, max_packets)
    users = [f"u{i + 1}" for i in range(n)]
    pkts = [f"p{i + 1}" for i in range(m)]
    ring = []
    for i in range(max(n, m)):
        if i < n:
            ring.append(("u", users[i]))
        if i < m:
            ring.append(("p", pkts[i]))
    pos = {v: i for i, v in enumerate(ring)}
    candidates = [(u, p) for u in users for p in pkts]
    rng.shuffle(candidates)
    chosen = []  # (u, p, positions)
    demand_of: dict[str, str] = {}
    side_of: dict[str, set] = {p: set() for p in pkts}
    for u, p in candidates:
        if rng.random() > edge_prob:
            continue
        cu, cp = pos[("u", u)], pos[("p", p)]
        if any(
            len({cu, cp} & {a, b}) == 0 and _chords_cross(cu, cp, a, b)
            for _, _, (a, b) in chosen
        ):
            continue
        if p not in demand_of:
            demand_of[p] = u
        elif u != demand_of[p] and u not in side_of[p]:
            side_of[p].add(u)
        else:
            continue
        chosen.append((u, p, (cu, cp)))
    raw = [
        (demand_of[p], frozenset(side_of[p]), rng.randint(1, max_weight))
        for p in pkts
        if p in demand_of
    ]
    if not raw:  # degenerate draw; retry deterministically
        return random_planar_instance(rng, max_packets, max_users, max_weight, edge_prob)
    return _finish(users, raw)


def all_uniprior_instances(max_users: int = 4, max_packets: int = 4):
    """Every unicast-uniprior unit-weight instance with at most the given
    numbers of users and distinct packet types, deduplicated up to user
    relabeling."""
    seen = set()
    out = []
    users = [f"u{i + 1}" for i in range(max_users)]
    pairs = [(d, s) for d, s in product(range(max_users), repeat=2) if d != s]
    for m in range(1, max_packets + 1):
        for combo in combinations(pairs, m):
            canon = min(
                tuple(sorted((perm[d], perm[s]) for d, s in combo))
                for perm in permutations(range(max_users))
            )
            if canon in seen:
                continue
            seen.add(canon)
            raw = [(users[d], frozenset([users[s]]), 1) for d, s in combo]
            out.append(_finish(users, raw))
    return out
