import itertools
import json
from dataclasses import replace
from fractions import Fraction as F
from random import Random

import pytest

from indexcode import (
    Instance,
    PartialClique,
    enumerate_cycles,
    enumerate_partial_cliques,
    make_instance,
    simulate,
    solve_ilp,
    solve_lp,
    transpose,
)
from indexcode.coding import (
    CodingAction,
    ScheduleError,
    _expand,
    clique_schedule,
    cyclic_schedule,
)
from indexcode.gf256 import (
    gf_inv,
    gf_mul,
    gf_scale_bytes,
    mds_rows,
)
from indexcode.lp import OPTIMAL, Constraint, SolveResult
from indexcode.programs import build_P2, build_P5

from generators import random_unicast_instance
from paper_programs import cycle_to_clique, gf_det


# ---------------------------------------------------------------- GF(2^8)

def test_gf256_every_element_has_inverse():
    for a in range(1, 256):
        inv = gf_inv(a)
        assert 1 <= inv <= 255
        assert gf_mul(a, inv) == 1


def test_gf256_field_axioms_sampled():
    rng = Random(1)
    for _ in range(10_000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
        assert gf_mul(a, b) == gf_mul(b, a)
    assert gf_mul(0, 77) == 0 and gf_mul(1, 77) == 77
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)
    assert gf_mul(gf_mul(3, 9), gf_inv(9)) == 3


def test_gf_scale_bytes():
    data = bytes(range(256))
    assert gf_scale_bytes(1, data) == data
    assert gf_scale_bytes(0, data) == bytes(256)
    for c in (2, 7, 255):
        assert list(gf_scale_bytes(c, data)) == [gf_mul(c, x) for x in data]


def test_mds_rows_all_minors_nonzero():
    for k in range(1, 7):
        for r in range(1, k + 1):
            rows = mds_rows(k, r)
            assert len(rows) == r and all(len(row) == k for row in rows)
            for size in range(1, r + 1):
                for ri in itertools.combinations(range(r), size):
                    for ci in itertools.combinations(range(k), size):
                        minor = [[rows[i][j] for j in ci] for i in ri]
                        assert gf_det(minor) != 0, (k, r, ri, ci)


def test_mds_rows_r1_is_plain_xor():
    [row] = mds_rows(5, 1)
    assert row == (1,) * 5
    # The all-ones row needs no field size.
    assert mds_rows(300, 1) == ((1,) * 300,)


def test_mds_rows_size_limits():
    with pytest.raises(ValueError):
        mds_rows(200, 100)  # 2k > 256


# ---------------------------------------------------------------- schedules

def test_fig1_scalar_cycle_schedule(fig1):
    # Pin the 3-cycle away to make the optimal solution unique: one round of
    # the 2-cycle {p1,p3} plus p2 uncoded, i.e. transmissions q1^q3 and q2.
    lp = build_P2(fig1, enumerate_cycles(fig1))
    pin = tuple((j, 1) for j, n in enumerate(lp.var_names) if n.startswith("C:p1|p3|p2"))
    lp = replace(lp, constraints=(*lp.constraints, Constraint(pin, "<=", 0, "pin")))
    res = solve_ilp(lp)
    assert res.objective == 2
    sched = cyclic_schedule(fig1, res)
    assert sched.field_name == "gf2"
    assert sched.theta == 1
    assert sched.total_count == 2
    sets = [frozenset(dict(t)) for t in sched.transmissions]
    assert frozenset({("p1", 0), ("p3", 0)}) in sets
    assert frozenset({("p2", 0)}) in sets
    assert all(c == 1 for t in sched.transmissions for (_, c) in t)


def test_fig4_vector_cycle_schedule(fig4):
    res = solve_lp(build_P2(fig4, enumerate_cycles(fig4)))
    assert res.objective == F(3, 2)
    sched = cyclic_schedule(fig4, res)
    assert sched.theta == 2
    assert len(sched.transmissions) == 3
    assert sched.total_count == F(3, 2)


def test_fig4_clique_schedule(fig4):
    res = solve_ilp(build_P5(fig4, enumerate_cycles(fig4), enumerate_partial_cliques(fig4)))
    sched = clique_schedule(fig4, res)
    assert sched.total_count == 1
    [t] = sched.transmissions
    assert dict(t) == {("p1", 0): 1, ("p2", 0): 1, ("p3", 0): 1}


def test_clique_schedule_uses_gf256_when_needed():
    # (4,2)-clique: every user holds two others' packets -> 2 Cauchy rows.
    users = [f"u{i}" for i in range(1, 5)]
    inst = make_instance(
        users,
        [
            (f"p{i}", 1, users[i - 1],
             {users[i % 4], users[(i + 1) % 4]})
            for i in range(1, 5)
        ],
    )
    res = solve_ilp(build_P5(inst, enumerate_cycles(inst), enumerate_partial_cliques(inst)))
    assert res.objective == 2
    sched = clique_schedule(inst, res)
    assert sched.field_name == "gf256"
    assert len(sched.transmissions) == 2


def test_theta_is_one_for_integral_solutions(fig1):
    res = solve_lp(build_P2(fig1, enumerate_cycles(fig1)))
    sched = cyclic_schedule(fig1, res)
    assert sched.theta == 1


def test_schedule_json_roundtrip(fig1):
    res = solve_ilp(build_P2(fig1, enumerate_cycles(fig1)))
    doc = json.loads(json.dumps(cyclic_schedule(fig1, res).to_doc()))
    assert doc["field"] == "gf2"
    assert doc["theta"] == 1
    assert doc["total_count"] == "2"
    assert len(doc["transmissions"]) == 2
    keys = {k for t in doc["transmissions"] for k in t}
    assert keys <= {"p1/0", "p2/0", "p3/0"}


def test_cyclic_schedule_reads_theta_off_the_solution(fig4):
    p2 = build_P2(fig4, enumerate_cycles(fig4))
    assert cyclic_schedule(fig4, solve_lp(p2)).theta == 2
    assert cyclic_schedule(fig4, solve_ilp(p2)).theta == 1


def test_schedule_rejects_infeasible(fig1):
    lp = build_P2(fig1, enumerate_cycles(fig1))
    absurd = Constraint((), "<=", -1, "absurd")
    lp = replace(lp, constraints=(*lp.constraints, absurd))
    res = solve_ilp(lp)
    with pytest.raises(ScheduleError):
        cyclic_schedule(fig1, res)


def test_cycle_to_clique_never_longer(fig1, fig4):
    for inst in (fig1, fig4):
        res = solve_ilp(build_P2(inst, enumerate_cycles(inst)))
        cyc = cyclic_schedule(inst, res)
        cli = cycle_to_clique(inst, cyc)
        assert cli.total_count <= cyc.total_count
        assert all(a.kind in ("clique", "direct") for a in cli.actions)


def test_expansion_errors(fig1):
    p2 = build_P2(fig1, enumerate_cycles(fig1))
    assert p2.var_names == ("C:p1|p3@u1|u3", "y:p1", "y:p2", "y:p3")

    def solution(*counts):
        return SolveResult(OPTIMAL, sum(map(F, counts)), tuple(map(F, counts)), lp=p2)

    with pytest.raises(ScheduleError, match=r"^y:p2: negative count$"):
        cyclic_schedule(fig1, solution(1, 0, -1, 1))
    with pytest.raises(ScheduleError, match=r"^solution does not cover packets \['p2'\]$"):
        cyclic_schedule(fig1, solution(1, 0, 0, 0))
    with pytest.raises(ScheduleError, match=r"^solution does not cover packets \['p2'\]$"):
        clique_schedule(fig1, solution(1, 0, 0, 0))
    # P5 holds P2's columns, so the clique expander takes P2's cycles and
    # direct sends as they are.
    res = solution(1, 0, 1, 0)
    cyc, cli = cyclic_schedule(fig1, res), clique_schedule(fig1, res)
    assert (cyc.field_name, cli.field_name) == ("gf2", "gf256")
    assert [a.kind for a in cli.actions] == ["cycle", "direct"]
    assert (cli.actions, cli.transmissions) == (cyc.actions, cyc.transmissions)


def test_clique_over_the_cauchy_bound_is_refused():
    # A (129, 2) clique needs 127 Cauchy rows over 129 packets, and 2k > 256;
    # a (129, 128) clique needs only the all-ones row.
    users = [f"u{i:03}" for i in range(129)]
    inst = make_instance(users, [(f"p{i:03}", 1, u, set(users) - {u}) for i, u in enumerate(users)])
    for d, refused in ((2, True), (128, False)):
        p5 = build_P5(inst, [], [PartialClique(frozenset(inst.packet_ids), 129, d)])
        point = (F(0),) * 129 + (F(1),)
        res = SolveResult(OPTIMAL, F(129 - d), point, lp=p5)
        if refused:
            with pytest.raises(ScheduleError) as err:
                clique_schedule(inst, res)
            assert str(err.value) == ("a (129, 2) partial clique needs 2k <= 256 "
                                      "for its Cauchy rows over GF(2^8)")
        else:
            assert len(clique_schedule(inst, res).transmissions) == 1


def _refused(expand, inst, res, label):
    name = min(n for n, v in zip(res.lp.var_names, res.primal) if v)
    with pytest.raises(ScheduleError) as err:
        expand(inst, res)
    assert str(err.value) == f"unexpected variable {name!r} in {label} solution"
    return name


def test_cyclic_schedule_refuses_clique_columns(fig4):
    res = solve_lp(build_P5(fig4, enumerate_cycles(fig4), enumerate_partial_cliques(fig4)))
    assert _refused(cyclic_schedule, fig4, res, "cyclic") == "T:p1|p2|p3"


def test_schedules_refuse_columns_without_keys(fig1):
    # P1' has no `var_keys`: its positive columns belong to neither family.
    res = solve_lp(transpose(build_P2(fig1, enumerate_cycles(fig1))))
    assert res.lp.var_keys == ()
    assert _refused(cyclic_schedule, fig1, res, "cyclic").startswith("m:")
    assert _refused(clique_schedule, fig1, res, "clique").startswith("m:")


@pytest.mark.parametrize("expand", [cyclic_schedule, clique_schedule])
def test_schedules_send_only_the_lone_packets_a_program_leaves_out(fig4, expand):
    # No user holds p4, so it is alone in its strong component; p2 lies on
    # a cycle of fig4.  A program without p4 has p4 sent whole and
    # directly; a program without p2 as well leaves p2 uncovered.
    inst = make_instance(fig4.users, list(fig4.packets) + [("p4", 2, "u2", set())])

    def optimum(*left_out):
        sub = Instance(inst.users, tuple(p for p in inst.packets if p.id not in left_out))
        cycles = enumerate_cycles(sub)
        return solve_lp(build_P2(sub, cycles) if expand is cyclic_schedule
                        else build_P5(sub, cycles, enumerate_partial_cliques(sub)))

    sched = expand(inst, optimum("p4"))
    assert [a for a in sched.actions if "p4" in a.packets] == [
        CodingAction("direct", ("p4",), 2 * sched.theta)]
    with pytest.raises(ScheduleError, match=r"^solution does not cover packets \['p2'\]$"):
        expand(inst, optimum("p2", "p4"))


def _expand_by_rounds(inst, actions, theta):
    """Reference expansion, one round at a time: a round takes one unit of
    each of the action's packets, the packet's next unit or, once it is
    used up, its last unit again; a count below 1 sends nothing.  Returns
    the transmissions, the packets left uncovered and how many units were
    taken past a packet's end."""
    end = {p.id: p.weight * theta for p in inst.packets}
    taken = dict.fromkeys(end, 0)
    txs, past = [], 0
    for action in actions:
        for _ in range(action.count):
            syms = []
            for pid in action.packets:
                past += taken[pid] == end[pid]
                syms.append((pid, min(taken[pid], end[pid] - 1)))
                taken[pid] = min(taken[pid] + 1, end[pid])
            if action.kind == "cycle":
                txs += [((a, 1), (b, 1)) for a, b in zip(syms, syms[1:])]
            elif action.kind == "clique":
                txs += [tuple(zip(syms, row)) for row in mds_rows(len(syms), len(syms) - action.d)]
            else:
                txs.append(((syms[0], 1),))
    return txs, [pid for pid in end if taken[pid] < end[pid]], past


def test_expansion_takes_one_unit_of_each_packet_per_round():
    rng = Random(77)
    seen = {"count < 1": 0, "past the end": 0, "shared": 0, "uncovered": 0, "covered": 0}
    for _ in range(400):
        inst = random_unicast_instance(rng, max_packets=5)
        theta = rng.randint(1, 3)
        ids = inst.packet_ids
        actions = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(("cycle", "clique", "direct") if len(ids) > 1 else ("clique", "direct"))
            k = 1 if kind == "direct" else rng.randint(1 + (kind == "cycle"), len(ids))
            count = rng.choice((0, -1, rng.randint(1, 10)))
            d = rng.randrange(k) if kind == "clique" else 0
            actions.append(CodingAction(kind, tuple(rng.sample(ids, k)), count, d))
        if rng.random() < 0.7:  # cover every packet, with a direct send of all its units
            actions += [CodingAction("direct", (p.id,), p.weight * theta) for p in inst.packets]
        txs, uncovered, past = _expand_by_rounds(inst, actions, theta)
        if uncovered:
            with pytest.raises(ScheduleError) as err:
                _expand(inst, actions, theta, "gf256")
            assert str(err.value) == f"solution does not cover packets {uncovered}"
        else:
            sched = _expand(inst, actions, theta, "gf256")
            assert (sched.transmissions, sched.actions, sched.theta) == (txs, actions, theta)
        seen["count < 1"] += any(a.count < 1 for a in actions)
        seen["past the end"] += past > 0
        seen["shared"] += len({pid for a in actions for pid in a.packets}) < sum(
            len(a.packets) for a in actions)
        seen["uncovered" if uncovered else "covered"] += 1
    assert min(seen.values()) >= 80, seen


def test_cycle_to_clique_keeps_direct_actions(fig1):
    # fig1 plus a packet that no user holds, so P2 sends it uncoded, as it
    # does p2, which lies on no chordless cycle.
    inst = make_instance(fig1.users, list(fig1.packets) + [("p4", 2, "u2", set())])
    cyc = cyclic_schedule(inst, solve_ilp(build_P2(inst, enumerate_cycles(inst))))
    assert [a.kind for a in cyc.actions] == ["cycle", "direct", "direct"]
    cli = cycle_to_clique(inst, cyc)
    assert [(a.kind, a.d) for a in cli.actions] == [("clique", 1), ("clique", 0), ("clique", 0)]
    assert len(cli.transmissions) == len(cyc.transmissions) == 4
    assert simulate(inst, cli).all_decoded
