"""End-to-end acceptance checks.

Each test covers one numbered criterion, reports a single PASS line, and
enforces exact rational equality throughout (no tolerances).  Random
suites are generated once per session from fixed seeds so the run is
deterministic.
"""

import time
from fractions import Fraction as F
from random import Random

import pytest

from indexcode import (
    enumerate_cycles,
    enumerate_partial_cliques,
    simulate,
    solve_ilp,
    solve_lp,
    total_weight,
    transpose,
    verify_certificate,
)
from indexcode.analysis import Analysis, bounds_report
from indexcode.coding import (
    clique_schedule,
    cyclic_schedule,
)
from indexcode.gf256 import gf_inv, gf_mul, mds_rows
from indexcode.programs import build_P2, build_P5

from conftest import brute_max_acyclic
from generators import (
    all_uniprior_instances,
    random_planar_instance,
    random_unicast_instance,
    random_uniprior_instance,
)
from paper_programs import (
    build_P4, build_P4_star, gf_det, split_digraph, split_digraph_cycles,
)


@pytest.fixture(scope="module")
def suite3():
    rng = Random(2026)
    return [
        random_unicast_instance(rng, max_packets=6, max_users=5, max_weight=3)
        for _ in range(500)
    ]


@pytest.fixture(scope="module")
def suite4():
    rng = Random(2027)
    return [random_planar_instance(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def suite7():
    rng = Random(2028)
    return [random_uniprior_instance(rng) for _ in range(200)]


def _ok(n, detail):
    print(f"CRITERION {n}: PASS — {detail}")


def test_criterion_1_fig1(fig1):
    start = time.monotonic()
    rep = bounds_report(fig1)
    assert rep.valP1 == rep.valP1_relaxed == rep.valP2_relaxed == rep.valP2 == 2
    assert rep.planar and rep.exact_optimal
    assert brute_max_acyclic(fig1) == 2
    res = solve_ilp(build_P2(fig1, enumerate_cycles(fig1)))
    sched = cyclic_schedule(fig1, res)
    assert len(sched.transmissions) == 2
    assert simulate(fig1, sched).all_decoded
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"all four values = 2, planar, 2-transmission schedule decodes "
           f"({elapsed:.3f}s)")


def test_criterion_2_fig4(fig4):
    start = time.monotonic()
    rep = bounds_report(fig4)
    assert rep.valP1 == 1
    assert rep.valP1_relaxed == rep.valP2_relaxed == F(3, 2)
    assert rep.valP2 == 2
    assert rep.valP5 == rep.valP5_relaxed == 1
    cliq = clique_schedule(
        fig4, solve_ilp(build_P5(fig4, enumerate_partial_cliques(fig4)))
    )
    assert len(cliq.transmissions) == 1
    assert simulate(fig4, cliq).all_decoded
    vec = cyclic_schedule(fig4, solve_lp(build_P2(fig4, enumerate_cycles(fig4))))
    assert vec.theta == 2 and len(vec.transmissions) == 3
    assert vec.total_count == F(3, 2)
    assert simulate(fig4, vec).all_decoded
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(2, f"1=valP1, 3/2=valP1'=valP2', 2=valP2, 1=valP5=valP5'; 1-transmission "
           f"clique schedule and theta=2 vector schedule decode ({elapsed:.3f}s)")


def test_criterion_3_duality_suite(suite3):
    start = time.monotonic()
    for inst in suite3:
        cycles = enumerate_cycles(inst)
        cliques = enumerate_partial_cliques(inst)
        a = solve_lp(transpose(build_P2(inst, cycles)))
        b = solve_lp(build_P2(inst, cycles))
        assert a.objective == b.objective
        assert verify_certificate(a.lp, a) and verify_certificate(b.lp, b)
        c = solve_lp(transpose(build_P5(inst, cliques)))
        d = solve_lp(build_P5(inst, cliques))
        assert c.objective == d.objective
        assert verify_certificate(c.lp, c) and verify_certificate(d.lp, d)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(3, f"valP1'=valP2' and valP6'=valP5' with validated certificates on "
           f"{len(suite3)} random instances ({elapsed:.1f}s)")


def test_criterion_4_theorem2_suite(suite4):
    for inst in suite4:
        rep = bounds_report(inst)
        assert rep.planar
        assert rep.gap_P1 == 0
        assert rep.gap_P2 == 0
    _ok(4, f"zero P1 and P2 gaps on {len(suite4)} constructively planar instances")


def test_criterion_5_p1_equals_p6(suite3):
    for inst in suite3:
        cycles = enumerate_cycles(inst)
        cliques = enumerate_partial_cliques(inst)
        assert (
            solve_ilp(transpose(build_P2(inst, cycles))).objective
            == solve_ilp(transpose(build_P5(inst, cliques))).objective
        )
    _ok(5, f"valP1=valP6 on all {len(suite3)} instances of the duality suite")


def test_criterion_6_corollary2_exhaustive():
    start = time.monotonic()
    count = 0
    for inst in all_uniprior_instances(max_users=4, max_packets=4):
        assert Analysis(inst).corollary2(), inst
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _ok(6, f"valP1=valP2 on all {count} uniprior instances with <=4 users and "
           f"<=4 unit packets ({elapsed:.1f}s)")


def test_criterion_7_theorem4_suite(suite7):
    for inst in suite7:
        cycles = enumerate_cycles(inst)
        cliques = enumerate_partial_cliques(inst)
        assert (
            solve_ilp(build_P2(inst, cycles)).objective
            == solve_ilp(build_P5(inst, cliques)).objective
        )
        assert (
            solve_lp(build_P2(inst, cycles)).objective
            == solve_lp(build_P5(inst, cliques)).objective
        )
    _ok(7, f"valP2=valP5 and valP2'=valP5' on {len(suite7)} uniprior instances")


def test_criterion_8_complementarity(suite3):
    small = 0
    for inst in suite3:
        W = total_weight(inst)
        cycles = enumerate_cycles(inst)
        v1 = solve_ilp(transpose(build_P2(inst, cycles))).objective
        v3 = solve_ilp(transpose(build_P4(inst, cycles))).objective
        assert v1 + v3 == W
        v2 = solve_ilp(build_P2(inst, cycles)).objective
        v4 = solve_ilp(build_P4(inst, cycles)).objective
        assert v2 + v4 == W
        if len(inst.packets) <= 5:
            sd = split_digraph(inst)
            sd_cycles = split_digraph_cycles(sd)
            assert v3 == solve_ilp(transpose(build_P4_star(sd, sd_cycles))).objective
            assert v4 == solve_ilp(build_P4_star(sd, sd_cycles)).objective
            small += 1
    assert small > 0
    _ok(8, f"valP1+valP3=W and valP2+valP4=W on {len(suite3)} instances; "
           f"star equivalences on the {small} with <=5 packets")


def test_criterion_9_oracle_equivalence(fig1, fig4):
    rng = Random(2029)
    insts = [fig1, fig4] + [
        random_unicast_instance(rng, max_packets=10, max_users=6)
        for _ in range(60)
    ]
    for inst in insts:
        assert len(inst.packets) <= 10
        cycles = enumerate_cycles(inst)
        assert solve_ilp(transpose(build_P2(inst, cycles))).objective == brute_max_acyclic(inst)
    _ok(9, f"solve_ilp(P1) matches the 2^M brute-force deletion oracle on "
           f"{len(insts)} instances with <=10 packets")


def test_criterion_10_code_soundness(suite3, suite4, suite7):
    checked = 0
    for inst in suite3 + suite4 + suite7:
        cycles = enumerate_cycles(inst)
        cliques = enumerate_partial_cliques(inst)
        v1 = solve_ilp(transpose(build_P2(inst, cycles))).objective
        p2, p5 = build_P2(inst, cycles), build_P5(inst, cliques)
        schedules = [
            cyclic_schedule(inst, solve_ilp(p2)),
            cyclic_schedule(inst, solve_lp(p2)),
            clique_schedule(inst, solve_ilp(p5)),
            clique_schedule(inst, solve_lp(p5)),
        ]
        for sched in schedules:
            assert simulate(inst, sched, payload_size=8).all_decoded
            assert sched.total_count >= v1
            checked += 1
    _ok(10, f"{checked} schedules (4 strategy/mode combinations x "
            f"{len(suite3) + len(suite4) + len(suite7)} instances) decode "
            f"bit-exactly with clearance >= valP1")


def test_criterion_11_gf256_and_mds():
    import itertools

    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
    minors = 0
    for k in range(1, 7):
        for r in range(1, k + 1):
            rows = mds_rows(k, r)
            for size in range(1, r + 1):
                for ri in itertools.combinations(range(r), size):
                    for ci in itertools.combinations(range(k), size):
                        assert gf_det(
                            [[rows[i][j] for j in ci] for i in ri]
                        ) != 0
                        minors += 1
    _ok(11, f"255 field inverses verified; all {minors} square minors of "
            f"mds_rows nonzero for k <= 6")
