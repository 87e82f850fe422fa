import importlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import indexcode
from indexcode import (
    coding,
    enumerate_cycles,
    enumerate_partial_cliques,
    make_instance,
    solve_ilp,
    solve_lp,
)
from indexcode.coding import (
    GF256,
    TransmissionSchedule,
    clique_schedule,
    cyclic_schedule,
)
from indexcode.gf256 import gf_inv, gf_mul, gf_scale_bytes
from indexcode.programs import build_P2, build_P5
from indexcode.simulate import _eliminate, simulate

from generators import random_unicast_instance, random_uniprior_instance

# The package exports the function `simulate` under the submodule's name.
simulate_module = importlib.import_module("indexcode.simulate")


def _scalar_cyclic(inst):
    return cyclic_schedule(inst, solve_ilp(build_P2(inst, enumerate_cycles(inst))))


def test_fig1_scalar_decodes(fig1):
    report = simulate(fig1, _scalar_cyclic(fig1))
    assert report.all_decoded
    assert report.success == {"u1": True, "u2": True, "u3": True}
    assert report.transmissions == 2
    assert report.theta == 1


def test_fig4_vector_decodes(fig4):
    res = solve_lp(build_P2(fig4, enumerate_cycles(fig4)))
    sched = cyclic_schedule(fig4, res)
    report = simulate(fig4, sched)
    assert report.all_decoded
    assert (report.transmissions, report.theta) == (3, 2)


def test_fig4_clique_decodes(fig4):
    res = solve_ilp(build_P5(fig4, enumerate_partial_cliques(fig4)))
    report = simulate(fig4, clique_schedule(fig4, res))
    assert report.all_decoded
    assert report.transmissions == 1


def test_seed_changes_payloads_not_outcome(fig1):
    sched = _scalar_cyclic(fig1)
    for seed in (0, 1, 12345):
        assert simulate(fig1, sched, seed=seed).all_decoded


def test_dropped_transmission_fails(fig1):
    sched = _scalar_cyclic(fig1)
    broken = type(sched)(
        sched.field_name, sched.theta, sched.actions, sched.transmissions[:1]
    )
    report = simulate(fig1, broken)
    assert not report.all_decoded
    user, packet = report.failure
    assert user in ("u1", "u2", "u3")
    assert packet in ("p1", "p2", "p3")


def test_failure_report_without_raise(fig1):
    sched = _scalar_cyclic(fig1)
    broken = type(sched)(sched.field_name, sched.theta, sched.actions, [])
    report = simulate(fig1, broken)
    assert not report.all_decoded
    assert not any(report.success.values())
    assert report.failure == ("u1", "p1")


def test_corrupted_coefficient_fails(fig1):
    sched = _scalar_cyclic(fig1)
    # Replace every transmission with one over the same first packet: the
    # system becomes singular for at least one receiver.
    first = sched.transmissions[0]
    broken = type(sched)(
        sched.field_name, sched.theta, sched.actions,
        [first for _ in sched.transmissions],
    )
    assert simulate(fig1, broken).failure is not None


def test_random_scalar_schedules_decode():
    rng = Random(71)
    for _ in range(30):
        inst = random_unicast_instance(rng)
        report = simulate(inst, _scalar_cyclic(inst), seed=rng.randrange(2**32))
        assert report.all_decoded


def test_random_vector_schedules_decode():
    rng = Random(72)
    for _ in range(20):
        inst = random_unicast_instance(rng)
        res = solve_lp(build_P2(inst, enumerate_cycles(inst)))
        report = simulate(inst, cyclic_schedule(inst, res))
        assert report.all_decoded


def test_random_clique_schedules_decode():
    rng = Random(73)
    for _ in range(20):
        inst = random_uniprior_instance(rng)
        res = solve_ilp(build_P5(inst, enumerate_partial_cliques(inst)))
        report = simulate(inst, clique_schedule(inst, res))
        assert report.all_decoded


def test_payload_size_variants(fig1):
    sched = _scalar_cyclic(fig1)
    for size in (1, 8, 256):
        assert simulate(fig1, sched, payload_size=size).all_decoded


# ------------------------------------------------- sparse decoder vs dense

def _scale(c, payload, size):
    data = gf_scale_bytes(c, payload.to_bytes(size, "little"))
    return int.from_bytes(data, "little")


def _dense_eliminate(rows, size):
    """Reference decoder: dense Gauss-Jordan over GF(2^8) on (coefficient
    list, payload) rows; returns column -> payload for every determined
    unknown."""
    nunk = len(rows[0][0]) if rows else 0
    pivots = {}
    r = 0
    for col in range(nunk):
        piv = next((i for i in range(r, len(rows)) if rows[i][0][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        coeffs, payload = rows[r]
        if coeffs[col] != 1:
            inv = gf_inv(coeffs[col])
            rows[r] = ([gf_mul(inv, c) for c in coeffs], _scale(inv, payload, size))
            coeffs, payload = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][0][col] != 0:
                f = rows[i][0][col]
                ci, pi = rows[i]
                rows[i] = (
                    [a ^ gf_mul(f, b) for a, b in zip(ci, coeffs)],
                    pi ^ _scale(f, payload, size),
                )
        pivots[col] = r
        r += 1
    solved = {}
    for col, i in pivots.items():
        coeffs, payload = rows[i]
        if sum(1 for c in coeffs if c != 0) == 1:
            solved[col] = payload
    return solved


def test_sparse_decoder_matches_dense_oracle():
    rng = Random(74)
    size = 4
    outcomes = {"none": 0, "some": 0, "all": 0}
    for _ in range(600):
        syms = [(f"p{j % 3}", j) for j in range(rng.randint(1, 9))]
        truth = {s: rng.getrandbits(8 * size) for s in syms}
        rows = []
        for _ in range(rng.randint(0, len(syms) + 3)):
            if rows and rng.random() < 0.25:
                # A repeated row, possibly scaled: it adds no rank.
                c = rng.choice((1, rng.randint(2, 255)))
                row = {s: gf_mul(c, a) for s, a in rng.choice(rows).items()}
            else:
                picked = rng.sample(syms, rng.randint(1, min(4, len(syms))))
                row = {s: rng.choice((1, rng.randint(2, 255))) for s in picked}
            rows.append(row)
        rhs = []
        for row in rows:
            b = 0
            for s, a in row.items():
                b ^= _scale(a, truth[s], size)
            rhs.append(b)
        dense = _dense_eliminate(
            [([row.get(s, 0) for s in syms], b) for row, b in zip(rows, rhs)], size)
        sparse = _eliminate([(dict(row), b) for row, b in zip(rows, rhs)], size)
        assert sparse == {syms[j]: b for j, b in dense.items()}
        assert all(truth[s] == b for s, b in sparse.items())
        outcomes["none" if not sparse else "all" if len(sparse) == len(syms) else "some"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_repeated_symbol_in_a_transmission_adds(fig1, monkeypatch):
    # Coefficients of a symbol listed twice add in GF(2^8): 3 + 5 = 6 and
    # c + c = 0.  A zero coefficient, given or from cancellation, is never
    # stored in a sparse row.  Without actions, every transmission is in
    # one block, so each receiver gets every row its side packets leave:
    # u1 (demands p1) gets the p2 row of the p2 + 2*p3 + 2*p3 transmission
    # as well, though it shares no symbol with p1.
    seen = {}

    def recording(rows, size):
        seen.setdefault("rows", []).append([dict(row) for row, _ in rows])
        return _eliminate(rows, size)

    monkeypatch.setattr(simulate_module, "_eliminate", recording)
    p1, p2, p3 = ("p1", 0), ("p2", 0), ("p3", 0)
    sched = TransmissionSchedule(GF256, 1, [], [
        ((p1, 3), (p1, 5), (p2, 0)),
        ((p2, 1), (p3, 2), (p3, 2)),
        ((p3, 7), (p1, 7), (p1, 7)),
    ])
    report = simulate(fig1, sched)
    assert report.all_decoded
    # Users in order u1 (holds p3), u2 (holds p1), u3 (holds p1, p2).
    assert seen["rows"] == [
        [{p1: 6}, {p2: 1}],
        [{p2: 1}, {p3: 7}],
        [{p3: 7}],
    ]


def _rejects(inst, sched, term):
    with pytest.raises(coding.ScheduleError) as err:
        simulate(inst, sched)
    assert str(err.value) == (f"term {term!r} is not a unit of a packet of the instance "
                              "with a coefficient in 0..255")


def test_term_outside_the_instance_is_a_schedule_error(fig1):
    # Each term is checked before it is encoded: a unit past the packet
    # would read another packet's payload, and a symbol that is not a
    # tuple cannot be hashed.
    for term in ((("p1", 5), 1), (("zz", 0), 1), (("p1", "0"), 1), (("p1", 0), 256),
                 (("p1", 0), -1), (("p1", -1), 1), (["p1", 0], 1)):
        _rejects(fig1, TransmissionSchedule(GF256, 1, [], [
            ((("p2", 0), 1),), ((("p3", 0), 1), term)]), term)
    # An action of two rounds on a: a0 and a1 with coefficient 300 in both
    # are one batch, a0 and a "1" are none, and neither are a1 and a2,
    # which run past a's last unit.
    inst = make_instance(["u1"], [("a", 2, "u1", ())])
    action = coding.CodingAction("direct", ("a",), 2)
    for first, second, term in (((("a", 0), 300), (("a", 1), 300), (("a", 0), 300)),
                                ((("a", 0), 1), (("a", "1"), 1), (("a", "1"), 1)),
                                ((("a", 1), 1), (("a", 2), 1), (("a", 2), 1))):
        _rejects(inst, TransmissionSchedule(GF256, 1, [action], [
            (first,), (second,)]), term)


@pytest.mark.parametrize("term", [
    (("p1",), 1), (("p1", 0, 0), 1), ((["p1"], 0), 1), (("p1", 0),), ("p1", 1),
    (("p1", 1), 1, 0),
], ids=repr)
def test_term_that_is_not_a_pair_of_pairs_is_a_schedule_error(fig1, term):
    # A term must be ((packet, unit), coef): anything else is reported as
    # given, whether it is sent outside every batch, in the first round of
    # an action's batch or in a later one (fig1 at theta = 2, so each
    # packet has units 0 and 1).
    p1, p2 = (("p1", 0), 1), (("p2", 0), 1)
    direct = coding.CodingAction("direct", ("p1",), 2)
    _rejects(fig1, TransmissionSchedule(GF256, 2, [], [(p2,), (p1, term)]), term)
    _rejects(fig1, TransmissionSchedule(GF256, 2, [direct], [(p1,), (term,)]), term)
    _rejects(fig1, TransmissionSchedule(GF256, 2, [direct], [(term,), ((("p1", 1), 1),)]), term)


@pytest.mark.parametrize("term", [
    (("a", 1.0), 1), (("a", True), 1), (("a", 1), 1.0), (["a", 1], 1),
], ids=repr)
def test_term_of_the_wrong_type_in_a_later_round_is_a_schedule_error(term):
    # Each term equals the second round's (("a", 1), 1) by value, but its
    # unit or coefficient is not an int or its symbol is not a tuple: it
    # is refused inside a two-round batch on a 2-unit packet as outside
    # every batch.
    inst = make_instance(["u1"], [("a", 2, "u1", ())])
    action = coding.CodingAction("direct", ("a",), 2)
    first = (("a", 0), 1)
    _rejects(inst, TransmissionSchedule(GF256, 1, [], [(first,), (term,)]), term)
    _rejects(inst, TransmissionSchedule(GF256, 1, [action], [(first,), (term,)]), term)


def test_decode_failure_names_the_first_demand_in_instance_order():
    # u1 demands a, b, c, d and e, and an empty schedule decodes none of
    # them: the failure names a under every hash seed.
    script = (
        "from indexcode import make_instance\n"
        "from indexcode.coding import GF2, TransmissionSchedule\n"
        "from indexcode.simulate import simulate\n"
        "sides = [(), ('u2',), ('u3',), ('u4',), ('u2', 'u3')]\n"
        "inst = make_instance(['u1', 'u2', 'u3', 'u4'],\n"
        "                     [(p, 1, 'u1', s) for p, s in zip('abcde', sides)])\n"
        "print(*simulate(inst, TransmissionSchedule(GF2, 1, [], [])).failure)\n"
    )
    src = str(Path(indexcode.__file__).resolve().parents[1])
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "u1 a\n", (hash_seed, out)


# ------------------------------------------- pruned decoding vs full system

def _full_system_outcome(inst, sched, size=4):
    """Reference for `simulate`: every receiver gets a row from every
    transmission and eliminates all of them.  Returns the success dict and
    the first failing (user, packet), users and demands in instance order."""
    rng = Random(0)
    truth = {(p.id, i): rng.getrandbits(8 * size)
             for p in inst.packets for i in range(p.weight * sched.theta)}
    success, failure = {}, None
    for user in inst.users:
        known = inst.side_packets(user)
        rows = []
        for t in sched.transmissions:
            row, rhs = {}, 0
            for sym, coef in t:
                if sym[0] not in known:
                    rhs ^= _scale(coef, truth[sym], size)
                    row[sym] = row.get(sym, 0) ^ coef
            row = {sym: coef for sym, coef in row.items() if coef}
            if row:
                rows.append((row, rhs))
        solved = _eliminate(rows, size)
        missing = [p.id for p in inst.packets if p.demand == user
                   and any(solved.get((p.id, i)) != truth[(p.id, i)]
                           for i in range(p.weight * sched.theta))]
        success[user] = not missing
        if missing and failure is None:
            failure = (user, missing[0])
    return success, failure


def _random_schedule(rng):
    """A solver schedule (scalar or vector cyclic, or clique), often broken:
    transmissions dropped, corrupted or repeated, actions re-expanded past
    their units so the pool hands out duplicates, and terms with zero or
    cancelling coefficients added."""
    kind = rng.choice(("scalar", "vector", "clique"))
    if kind == "clique":
        inst = random_uniprior_instance(rng)
        sched = clique_schedule(inst, solve_ilp(build_P5(inst, enumerate_partial_cliques(inst))))
    else:
        inst = random_unicast_instance(rng, side_prob=0.5)
        if kind == "scalar":
            sched = _scalar_cyclic(inst)
        else:
            res = solve_lp(build_P2(inst, enumerate_cycles(inst)))
            sched = cyclic_schedule(inst, res)
    if sched.actions and rng.random() < 0.3:
        actions = list(sched.actions)
        j = rng.randrange(len(actions))
        actions[j] = replace(actions[j], count=actions[j].count + rng.randint(1, 2))
        sched = coding._expand(inst, actions, sched.theta, sched.field_name)
    symbols = [(p.id, i) for p in inst.packets for i in range(p.weight * sched.theta)]
    txs = [list(t) for t in sched.transmissions]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        op = rng.choice(("drop", "corrupt", "repeat", "zero", "cancel"))
        if op == "drop" and txs:
            txs.pop(rng.randrange(len(txs)))
        elif op == "corrupt" and txs:
            terms = rng.choice(txs)
            j = rng.randrange(len(terms))
            terms[j] = (rng.choice(symbols), terms[j][1]) if rng.random() < 0.5 \
                else (terms[j][0], rng.randrange(256))
        elif op == "repeat" and txs:
            txs.insert(rng.randrange(len(txs) + 1), list(rng.choice(txs)))
        elif op == "zero":  # into a transmission, or one of zero terms only
            terms = rng.choice(txs) if txs and rng.random() < 0.7 else []
            if not terms:
                txs.append(terms)
            terms.append((rng.choice(symbols), 0))
        elif op == "cancel" and txs:
            c = rng.randint(1, 255)
            sym = rng.choice(symbols)
            rng.choice(txs).extend([(sym, c), (sym, c)])
    txs = [tuple(terms) for terms in txs]
    return inst, TransmissionSchedule(sched.field_name, sched.theta, sched.actions, txs)


def _outcome(inst, sched):
    report = simulate(inst, sched, payload_size=4)
    assert (report.failure is None) == report.all_decoded
    return report.success, report.failure


def test_chain_row_that_misses_the_demand_is_kept():
    # u1 needs a; a + b alone is not enough, and the b row that completes it
    # never touches a, so a decoder that kept only the rows holding a
    # demanded symbol would fail.
    inst = make_instance(["u1", "u2"], [("a", 1, "u1", ()), ("b", 1, "u2", ())])
    a, b = ("a", 0), ("b", 0)
    sched = TransmissionSchedule(GF256, 1, [], [
        ((a, 1), (b, 1)),
        ((b, 1),),
    ])
    assert _outcome(inst, sched) == _full_system_outcome(inst, sched) \
        == ({"u1": True, "u2": True}, None)


def test_pruned_decoding_matches_the_full_system():
    rng = Random(75)
    failures = 0
    for _ in range(300):
        inst, sched = _random_schedule(rng)
        expected = _full_system_outcome(inst, sched)
        assert _outcome(inst, sched) == expected
        failures += expected[1] is not None
    assert 60 <= failures <= 240, failures


# --------------------------------------------- batches of repeated rounds

def _scaled(inst, factors):
    return make_instance(list(inst.users), [(p.id, p.weight * k, p.demand, p.side)
                                            for p, k in zip(inst.packets, factors)])


def _batched_schedule(rng, fig4):
    """A vector schedule whose actions repeat their rounds: fig4 with its
    weights scaled up (theta = 2 when all three factors are odd), or a
    random instance with scaled weights, under P2' or P5'; sometimes one
    action is re-expanded past its units."""
    kind = rng.choice(("fig4", "fig4", "unicast", "uniprior"))
    if kind == "fig4":
        inst = _scaled(fig4, [rng.choice((3, 5, 7, 9)) for _ in range(3)])
    elif kind == "unicast":
        inst = random_unicast_instance(rng, side_prob=0.5)
        inst = _scaled(inst, [rng.randint(2, 4)] * len(inst.packets))
    else:
        inst = random_uniprior_instance(rng)
        inst = _scaled(inst, [rng.randint(2, 4)] * len(inst.packets))
    if kind == "uniprior" or rng.random() < 0.5:
        sched = clique_schedule(inst, solve_lp(build_P5(inst, enumerate_partial_cliques(inst))))
    else:
        sched = cyclic_schedule(inst, solve_lp(build_P2(inst, enumerate_cycles(inst))))
    if rng.random() < 0.3:
        actions = list(sched.actions)
        j = rng.randrange(len(actions))
        actions[j] = replace(actions[j], count=actions[j].count + rng.randint(1, 3))
        sched = coding._expand(inst, actions, sched.theta, sched.field_name)
    return inst, sched


def _break_inside_a_batch(rng, inst, sched):
    """The schedule with one or two transmissions broken after the first
    round of an action that has more than one: dropped, a coefficient or a
    unit corrupted, swapped with another transmission, or duplicated."""
    txs = [list(t) for t in sched.transmissions]
    ranges, at = [], 0
    for action in sched.actions:
        stop = at + len(action.rows) * action.count
        if action.count > 1:
            ranges.append((at + len(action.rows), stop))
        at = stop
    units = {p.id: p.weight * sched.theta for p in inst.packets}
    ops = []
    # Last position first, so that a drop or an insertion moves no
    # position still to be broken.
    for q in sorted({rng.randrange(*rng.choice(ranges)) for _ in range(rng.choice((1, 1, 2)))},
                    reverse=True):
        op = rng.choice(("drop", "coef", "unit", "swap", "duplicate"))
        ops.append(op)
        terms = txs[q]
        j = rng.randrange(len(terms))
        (pid, unit), coef = terms[j]
        if op == "drop":
            txs.pop(q)
        elif op == "coef":
            terms[j] = ((pid, unit), rng.choice([c for c in range(256) if c != coef]))
        elif op == "unit":
            if rng.random() < 0.5 and units[pid] > 1:
                unit = rng.choice([u for u in range(units[pid]) if u != unit])
            else:
                pid = rng.choice(list(units))
                unit = rng.randrange(units[pid])
            terms[j] = ((pid, unit), coef)
        elif op == "swap":
            r = rng.choice([r for r in range(len(txs)) if txs[r] != terms] or [q])
            txs[q], txs[r] = txs[r], txs[q]
        else:
            txs.insert(rng.randrange(q, len(txs) + 1), list(terms))
    broken = TransmissionSchedule(sched.field_name, sched.theta, sched.actions,
                                  [tuple(terms) for terms in txs])
    return broken, ops


def test_faults_inside_batches_match_the_full_system(fig4):
    # A fault after the first round of a batch breaks its repetition, so
    # the batch is declined and decoded symbol by symbol; a decoder that
    # checked only each batch's first round would get these wrong.
    rng = Random(76)
    seen = {"theta>1": 0, "failed": 0, "decoded": 0}
    for _ in range(1000):
        inst, sched = _batched_schedule(rng, fig4)
        broken, ops = _break_inside_a_batch(rng, inst, sched)
        seen["theta>1"] += sched.theta > 1
        for size in (1, 64):
            report = simulate(inst, broken, seed=rng.randrange(100), payload_size=size)
            expected = _full_system_outcome(inst, broken, size)
            assert (report.success, report.failure) == expected, (inst, ops, size)
        seen["failed" if expected[1] else "decoded"] += 1
    assert min(seen.values()) >= 100, seen


def test_each_receiver_eliminates_each_batch_once(fig4, monkeypatch):
    # fig4 with weights x100: 150 XOR rounds under P2' and 100 MDS rounds
    # under P5'.  Each receiver makes one elimination per action that holds
    # a packet it demands, over the payloads of all the action's rounds.
    # With the actions stripped, all transmissions form one block, which
    # each receiver with a demand eliminates once.
    calls = []

    def counting(rows, size):
        calls.append(size)
        return _eliminate(rows, size)

    monkeypatch.setattr(simulate_module, "_eliminate", counting)
    inst = _scaled(fig4, [100] * 3)
    demanding = [user for user in inst.users if any(p.demand == user for p in inst.packets)]
    for sched in (
        cyclic_schedule(inst, solve_lp(build_P2(inst, enumerate_cycles(inst)))),
        clique_schedule(inst, solve_lp(build_P5(inst, enumerate_partial_cliques(inst)))),
    ):
        batched = sorted(action.count * 64 for user in inst.users for action in sched.actions
                         if any(inst.packet(pid).demand == user for pid in action.packets))
        for run, expected in ((sched, batched),
                              (replace(sched, actions=[]), [64] * len(demanding))):
            calls.clear()
            report = simulate(inst, run)
            assert report.all_decoded
            assert (report.success, report.failure) == _full_system_outcome(inst, run)
            assert sorted(calls) == expected
            assert len(calls) <= 6 < len(sched.transmissions) // 10


def test_rounds_that_share_a_unit_are_not_a_batch():
    # Each round holds two units of a and the next round shifts both, so
    # the rounds a0 + a1 and a1 + a2 overlap: they repeat their first round
    # but are no batch.  With a2 sent alone, u1 solves a2, a1, then a0.
    inst = make_instance(["u1"], [("a", 3, "u1", ())])
    a = [("a", i) for i in range(3)]
    sched = TransmissionSchedule(GF256, 1, [
        coding.CodingAction("cycle", ("a", "a"), 2),
        coding.CodingAction("direct", ("a",), 1),
    ], [
        ((a[0], 1), (a[1], 1)),
        ((a[1], 1), (a[2], 1)),
        ((a[2], 1),),
    ])
    assert _outcome(inst, sched) == _full_system_outcome(inst, sched) == ({"u1": True}, None)
