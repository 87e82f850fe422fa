from fractions import Fraction as F
from random import Random

from indexcode import (
    Constraint,
    Cycle,
    enumerate_cycles,
    enumerate_partial_cliques,
    LinearProgram,
    make_instance,
    PartialClique,
    solve_ilp,
    solve_lp,
    total_weight,
    transpose,
    verify_certificate,
)
from indexcode.analysis import Analysis
from indexcode.programs import build_P2, build_P5

from conftest import brute_max_acyclic, dfs_cycles, full_clique_family
from generators import random_unicast_instance, random_uniprior_instance
from paper_programs import build_P4, build_P4_star, split_digraph, split_digraph_cycles


def _vals(inst):
    return enumerate_cycles(inst), enumerate_partial_cliques(inst)


def test_p1_structure_fig1(fig1):
    cycles = enumerate_cycles(fig1)
    lp = transpose(build_P2(fig1, cycles))
    assert lp.sense == "max"
    assert lp.var_names == ("m:p1", "m:p2", "m:p3")
    assert lp.objective == (F(1), F(1), F(1))
    # One chordless cycle, rhs |C|-1, named after P2's cycle column; the
    # 3-cycle p1 -> p3 -> p2 has a chord and no row.
    rows = {c.name: c for c in lp.constraints}
    assert set(rows) == {"C:p1|p3@u1|u3", "y:p1", "y:p2", "y:p3"}
    assert rows["C:p1|p3@u1|u3"].rhs == 1
    assert all(c.rel == "<=" for c in lp.constraints)
    assert solve_ilp(lp).objective == 2


def test_p1_caps_each_packet_by_its_y_row(fig1):
    cycles = enumerate_cycles(fig1)
    lp = transpose(build_P2(fig1, cycles))
    # x_m <= 1 is the row y:<pid> (the dual of P2's direct broadcast column).
    rows = {c.name: c for c in lp.constraints}
    for j, pid in enumerate(("p1", "p2", "p3")):
        assert rows["y:" + pid].rhs == 1
        assert rows["y:" + pid].terms == ((j, 1),)
    assert all(hi is None for hi in lp.upper)


def test_p2_structure_fig1(fig1):
    cycles = enumerate_cycles(fig1)
    lp = build_P2(fig1, cycles)
    assert lp.sense == "min"
    named = dict(zip(lp.var_names, lp.objective))
    # cycle costs |C|-1, uncoded costs 1 each
    assert named == {"C:p1|p3@u1|u3": 1, "y:p1": 1, "y:p2": 1, "y:p3": 1}
    assert named["y:p1"] == named["y:p2"] == named["y:p3"] == 1
    rows = {c.name: c for c in lp.constraints}
    assert set(rows) == {"m:p1", "m:p2", "m:p3"}
    assert all(c.rel == ">=" and c.rhs == 1 for c in lp.constraints)
    assert solve_ilp(lp).objective == 2


def _rows(lp):
    """(name, relation, rhs, dense coefficients) of each row, in order."""
    return [(c.name, c.rel, c.rhs, tuple(dict(c.terms).get(j, 0) for j in range(lp.num_vars)))
            for c in lp.constraints]


def test_p4_structure_fig4(fig4):
    cycles = enumerate_cycles(fig4)
    lp = build_P4(fig4, cycles)
    assert lp.sense == "max"
    # The three 2-cycles; both 3-cycles have chords.
    assert lp.var_names == ("C:p1|p2@u1|u2", "C:p1|p3@u1|u3", "C:p2|p3@u2|u3")
    assert lp.var_keys == tuple(cycles)
    assert lp.objective == (1, 1, 1)
    assert _rows(lp) == [
        ("m:p1", "<=", 1, (1, 1, 0)),
        ("m:p2", "<=", 1, (1, 0, 1)),
        ("m:p3", "<=", 1, (0, 1, 1)),
    ]


def test_p5_structure_fig1(fig1):
    lp = build_P5(fig1, enumerate_partial_cliques(fig1))
    assert lp.sense == "min"
    # {p1, p2, p3} keeps d = 1 without p2, so it is not critical.
    assert lp.var_names == ("T:p1", "T:p2", "T:p3", "T:p1|p3")
    assert lp.var_keys == (
        PartialClique(frozenset({"p1"}), 1, 0), PartialClique(frozenset({"p2"}), 1, 0),
        PartialClique(frozenset({"p3"}), 1, 0), PartialClique(frozenset({"p1", "p3"}), 2, 1),
    )
    # Cost k - d.
    assert lp.objective == (1, 1, 1, 1)
    assert _rows(lp) == [
        ("m:p1", ">=", 1, (1, 0, 0, 1)),
        ("m:p2", ">=", 1, (0, 1, 0, 0)),
        ("m:p3", ">=", 1, (0, 0, 1, 1)),
    ]


def test_p4_star_structure_fig1(fig1):
    sd = split_digraph(fig1)
    sd_cycles = split_digraph_cycles(sd)
    lp = build_P4_star(sd, sd_cycles)
    assert lp.sense == "max"
    assert lp.var_names == ("sc0", "sc1")
    # Each column is keyed by its split-digraph cycle, an arc tuple.
    assert lp.var_keys == tuple(sd_cycles)
    assert lp.var_keys[0] == (
        (("in", "p1"), ("out", "p1")), (("out", "p1"), ("u", "u1")),
        (("u", "u1"), ("in", "p3")), (("in", "p3"), ("out", "p3")),
        (("out", "p3"), ("u", "u3")), (("u", "u3"), ("in", "p1")),
    )
    assert lp.objective == (1, 1)
    # Packet arcs carry the packet weight, the others the heavy weight 4;
    # one row per arc, in the graph's edge order.
    assert _rows(lp) == [
        ("a:in.p1>out.p1", "<=", 1, (1, 1)),
        ("a:out.p1>u.u1", "<=", 4, (1, 1)),
        ("a:u.u1>in.p3", "<=", 4, (1, 1)),
        ("a:u.u2>in.p1", "<=", 4, (0, 1)),
        ("a:u.u3>in.p1", "<=", 4, (1, 0)),
        ("a:u.u3>in.p2", "<=", 4, (0, 1)),
        ("a:in.p2>out.p2", "<=", 1, (0, 1)),
        ("a:out.p2>u.u2", "<=", 4, (0, 1)),
        ("a:in.p3>out.p3", "<=", 1, (1, 1)),
        ("a:out.p3>u.u3", "<=", 4, (1, 1)),
    ]


def test_fig1_all_bounds_equal_two(fig1):
    cycles, cliques = _vals(fig1)
    assert solve_ilp(transpose(build_P2(fig1, cycles))).objective == 2
    assert solve_lp(transpose(build_P2(fig1, cycles))).objective == 2
    assert solve_lp(build_P2(fig1, cycles)).objective == 2
    assert solve_ilp(build_P2(fig1, cycles)).objective == 2
    assert solve_ilp(build_P5(fig1, cliques)).objective == 2
    assert solve_lp(build_P5(fig1, cliques)).objective == 2


def test_fig4_bound_chain_with_gaps(fig4):
    cycles, cliques = _vals(fig4)
    assert solve_ilp(transpose(build_P2(fig4, cycles))).objective == 1
    assert solve_lp(transpose(build_P2(fig4, cycles))).objective == F(3, 2)
    assert solve_lp(build_P2(fig4, cycles)).objective == F(3, 2)
    assert solve_ilp(build_P2(fig4, cycles)).objective == 2
    assert solve_ilp(build_P5(fig4, cliques)).objective == 1
    assert solve_lp(build_P5(fig4, cliques)).objective == 1


def test_p6_structure_fig4(fig4):
    _, cliques = _vals(fig4)
    lp = transpose(build_P5(fig4, cliques))
    assert lp.sense == "max"
    rows = {c.name: c for c in lp.constraints}
    # (3,2)-clique row: x1+x2+x3 <= 1
    full = rows["T:p1|p2|p3"]
    assert full.rhs == 1
    assert full.terms == ((0, 1), (1, 1), (2, 1))
    # singleton rows act as x_m <= 1
    assert rows["T:p1"].rhs == 1
    assert solve_ilp(lp).objective == 1
    assert solve_lp(transpose(build_P5(fig4, cliques))).objective == 1


def test_weighted_objective():
    inst = make_instance(
        ["u1", "u2"],
        [("p1", 3, "u1", {"u2"}), ("p2", 2, "u2", {"u1"})],
    )
    cycles = enumerate_cycles(inst)
    p1 = transpose(build_P2(inst, cycles))
    assert dict(zip(p1.var_names, p1.objective)) == {"m:p1": 3, "m:p2": 2}
    assert solve_ilp(p1).objective == 3
    p2 = build_P2(inst, cycles)
    rows = {c.name: c for c in p2.constraints}
    assert rows["m:p1"].rhs == 3
    assert rows["m:p2"].rhs == 2
    # two rounds of the 2-cycle clear (2,2); one uncoded unit finishes p1
    assert solve_ilp(p2).objective == 3


def test_p1p2_relaxations_are_dual():
    rng = Random(31)
    insts = [random_unicast_instance(rng) for _ in range(40)]
    for inst in insts:
        cycles = enumerate_cycles(inst)
        a = solve_lp(transpose(build_P2(inst, cycles)))
        b = solve_lp(build_P2(inst, cycles))
        assert a.objective == b.objective
        assert verify_certificate(a.lp, a) and verify_certificate(b.lp, b)


def test_p6p5_relaxations_are_dual():
    rng = Random(32)
    insts = [random_unicast_instance(rng, max_packets=5) for _ in range(25)]
    for inst in insts:
        cliques = enumerate_partial_cliques(inst)
        a = solve_lp(transpose(build_P5(inst, cliques)))
        b = solve_lp(build_P5(inst, cliques))
        assert a.objective == b.objective
        assert verify_certificate(a.lp, a) and verify_certificate(b.lp, b)


def test_bound_chain_order():
    rng = Random(33)
    for _ in range(30):
        inst = random_unicast_instance(rng)
        cycles = enumerate_cycles(inst)
        v1 = solve_ilp(transpose(build_P2(inst, cycles))).objective
        v1r = solve_lp(transpose(build_P2(inst, cycles))).objective
        v2r = solve_lp(build_P2(inst, cycles)).objective
        v2 = solve_ilp(build_P2(inst, cycles)).objective
        assert v1 <= v1r == v2r <= v2


def test_p1_equals_p6():
    rng = Random(34)
    for _ in range(25):
        inst = random_unicast_instance(rng, max_packets=5)
        cycles = enumerate_cycles(inst)
        cliques = enumerate_partial_cliques(inst)
        assert (
            solve_ilp(transpose(build_P2(inst, cycles))).objective
            == solve_ilp(transpose(build_P5(inst, cliques))).objective
        )


def test_p5_below_p2_on_uniprior():
    rng = Random(35)
    for _ in range(25):
        inst = random_uniprior_instance(rng)
        cycles = enumerate_cycles(inst)
        cliques = enumerate_partial_cliques(inst)
        assert (
            solve_ilp(build_P5(inst, cliques)).objective
            <= solve_ilp(build_P2(inst, cycles)).objective
        )
        assert (
            solve_lp(build_P5(inst, cliques)).objective
            <= solve_lp(build_P2(inst, cycles)).objective
        )


def test_complementarity():
    rng = Random(36)
    insts = [random_unicast_instance(rng) for _ in range(25)]
    for inst in insts:
        W = total_weight(inst)
        cycles = enumerate_cycles(inst)
        assert solve_ilp(transpose(build_P2(inst, cycles))).objective + \
            solve_ilp(transpose(build_P4(inst, cycles))).objective == W
        assert solve_ilp(build_P2(inst, cycles)).objective + \
            solve_ilp(build_P4(inst, cycles)).objective == W


def test_p3_star_structure(fig1):
    sd = split_digraph(fig1)
    sd_cycles = split_digraph_cycles(sd)
    lp = transpose(build_P4_star(sd, sd_cycles))
    named = dict(zip(lp.var_names, lp.objective))
    # packet arcs carry the packet weight; all other arcs the heavy weight 4
    assert named["a:in.p1>out.p1"] == 1
    heavy = [v for k, v in named.items() if not k.startswith("a:in.")]
    assert heavy and all(v == 4 for v in heavy)


def test_star_equivalences():
    rng = Random(37)
    insts = [random_unicast_instance(rng, max_packets=5) for _ in range(15)]
    for inst in insts:
        cycles = enumerate_cycles(inst)
        sd = split_digraph(inst)
        sd_cycles = split_digraph_cycles(sd)
        v3 = solve_ilp(transpose(build_P4(inst, cycles))).objective
        v3s = solve_ilp(transpose(build_P4_star(sd, sd_cycles))).objective
        assert v3 == v3s
        v4 = solve_ilp(build_P4(inst, cycles)).objective
        v4s = solve_ilp(build_P4_star(sd, sd_cycles)).objective
        assert v4 == v4s


def test_p3_star_avoids_heavy_arcs():
    # An optimal feedback arc set never pays for a heavy arc: deleting the
    # packet arc instead always breaks at least as many cycles for less.
    rng = Random(38)
    for _ in range(10):
        inst = random_unicast_instance(rng, max_packets=4)
        sd = split_digraph(inst)
        sd_cycles = split_digraph_cycles(sd)
        lp = transpose(build_P4_star(sd, sd_cycles))
        res = solve_ilp(lp)
        chosen = [n for n, v in zip(lp.var_names, res.primal) if v]
        assert all(n.startswith("a:in.") for n in chosen)


def test_p1_matches_bruteforce_deletion_oracle():
    rng = Random(39)
    for _ in range(20):
        inst = random_unicast_instance(rng, max_packets=5)
        cycles = enumerate_cycles(inst)
        assert solve_ilp(transpose(build_P2(inst, cycles))).objective == brute_max_acyclic(inst)


def _dense_instances_with_repeated_cycle_sets(seed, count):
    """Dense draws on which some packet set carries two elementary cycles,
    with all their cycles by the DFS oracle."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        inst = random_unicast_instance(rng, max_packets=5, max_users=4, side_prob=0.8)
        cycles = [Cycle(*c) for c in sorted(dfs_cycles(inst))]
        if len({c.packet_set for c in cycles}) < len(cycles):
            out.append((inst, cycles))
    return out


def test_p2_has_one_column_per_cycle_packet_set():
    for inst, cycles in _dense_instances_with_repeated_cycle_sets(40, 12):
        p2 = build_P2(inst, enumerate_cycles(inst))
        kept = [k for k in p2.var_keys if not isinstance(k, str)]
        # One column per chordless cycle, no two on one packet set.
        assert kept == enumerate_cycles(inst)
        sets = [c.packet_set for c in kept]
        assert len(set(sets)) == len(sets) < len({c.packet_set for c in cycles})
        # One column per cycle of the oracle, duplicates included: same values.
        pids = list(inst.packet_ids)
        rows = [Constraint(tuple((k, 1) for k, c in enumerate(cycles) if pid in c.packet_set)
                           + ((len(cycles) + j, 1),), ">=", inst.packet(pid).weight)
                for j, pid in enumerate(pids)]
        full = LinearProgram("min", tuple(c.length - 1 for c in cycles) + (1,) * len(pids), rows)
        assert solve_ilp(p2).objective == solve_ilp(full).objective
        assert solve_lp(p2).objective == solve_lp(full).objective


def test_deletion_programs_are_transposes(fig4):
    cycles, cliques = _vals(fig4)
    for cover in (build_P2(fig4, cycles), build_P4(fig4, cycles), build_P5(fig4, cliques)):
        back = transpose(transpose(cover))
        assert (back.sense, back.objective, back.var_names) == (
            cover.sense, cover.objective, cover.var_names)
        assert back.constraints == cover.constraints


def _members(key):
    """The packets a P2 or P5 column covers, read off its key."""
    return (key,) if isinstance(key, str) else key.packets


def test_built_rows_are_sparse_integer_terms(fig1, fig4):
    rng = Random(43)
    for inst in [fig1, fig4] + [random_unicast_instance(rng, 7, 5) for _ in range(50)]:
        cycles, cliques = _vals(inst)
        p2 = build_P2(inst, cycles)
        for name, p in (("P2", p2), ("P5", build_P5(inst, cliques)), ("P1", transpose(p2))):
            assert all(type(c) is int for c in p.objective), name
            for con in p.constraints:
                columns = [j for j, _ in con.terms]
                assert columns == sorted(set(columns)) and set(columns) <= set(range(p.num_vars))
                assert all(type(j) is int and type(a) is int and a for j, a in con.terms)
                assert type(con.rhs) is int, (name, con.name)
            back = transpose(transpose(p))
            assert (back.objective, back.var_names, back.constraints) == (
                p.objective, p.var_names, p.constraints), name
        # A covering row holds a 1 in each column that covers its packet.
        for p in (p2, build_P5(inst, cliques)):
            for con, pkt in zip(p.constraints, inst.packets):
                assert con.terms == tuple((j, 1) for j, key in enumerate(p.var_keys)
                                          if pkt.id in _members(key))
                assert con.rhs == pkt.weight


def test_pruned_clique_family_matches_full_family_oracle():
    # Dense draws with 7 or 8 packet types (127 or 255 columns in the full
    # family), until 50 are checked and P5 has branched on at least 3.
    rng = Random(1)
    checked = branched = 0
    while checked < 50 or branched < 3:
        inst = random_unicast_instance(rng, rng.choice((7, 8)), 8, 1, 0.6, exact=True)
        checked += 1
        full, pruned = full_clique_family(inst), enumerate_partial_cliques(inst)
        assert len(pruned) < len(full)
        lp_full = solve_lp(build_P5(inst, full))
        lp_pruned = solve_lp(build_P5(inst, pruned))
        # The same P5' primal by key (dropped columns at zero) and row duals.
        by_key = dict(zip(lp_full.lp.var_keys, lp_full.primal))
        assert by_key == {**dict.fromkeys(full, F(0)),
                          **dict(zip(lp_pruned.lp.var_keys, lp_pruned.primal))}
        assert lp_pruned.row_duals == lp_full.row_duals
        ilp_full = solve_ilp(build_P5(inst, full))
        ilp_pruned = solve_ilp(build_P5(inst, pruned))
        branched += ilp_pruned.branch_count > 1
        assert ilp_pruned.objective == ilp_full.objective
        p6_full = solve_lp(transpose(build_P5(inst, full)))
        p6_pruned = solve_lp(transpose(build_P5(inst, pruned)))
        assert p6_pruned.objective == p6_full.objective == lp_pruned.objective
        assert verify_certificate(lp_pruned.lp, lp_pruned)
        assert verify_certificate(p6_pruned.lp, p6_pruned)


def _six_values(inst, cycles, cliques):
    p2, p5 = build_P2(inst, cycles), build_P5(inst, cliques)
    p1 = transpose(p2)
    return [solve(p).objective for p in (p1, p2, p5) for solve in (solve_ilp, solve_lp)]


def test_values_match_the_full_families(fig1, fig4):
    # P1, P1', P2, P2', P5 and P5' over the chordless cycles and critical
    # cliques equal their values over every elementary cycle (the DFS oracle)
    # and every packet subset (the brute-force clique family), and so do
    # `Analysis`'s, whose programs leave out the packets alone in their
    # strong component and add their weight.
    rng = Random(41)
    insts = [fig1, fig4] + [random_unicast_instance(rng) for _ in range(60)]
    insts += [random_unicast_instance(Random(s), m, 8, 3, 0.6, exact=True)
              for m in (8, 10, 12) for s in range(3)]
    for inst in insts:
        full = _six_values(inst, [Cycle(*c) for c in sorted(dfs_cycles(inst))],
                           full_clique_family(inst))
        assert _six_values(inst, enumerate_cycles(inst), enumerate_partial_cliques(inst)) == full
        a = Analysis(inst)
        assert [a.value(n) for n in ("P1", "P1'", "P2", "P2'", "P5", "P5'")] == full
