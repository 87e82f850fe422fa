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
from indexcode.gf256 import gf_inv, gf_mul, gf_scale_bytes, mds_rows
from indexcode.programs import build_P2, build_P5
from indexcode.simulate import _eliminate, simulate

from conftest import side_packets
from generators import random_unicast_instance, random_uniprior_instance

# The package exports the function `simulate` under the submodule's name.
simulate_module = importlib.import_module("indexcode.simulate")


def _scalar_cyclic(inst):
    return cyclic_schedule(inst, solve_ilp(build_P2(inst, enumerate_cycles(inst))))


def _p5(inst):
    return build_P5(inst, enumerate_cycles(inst), enumerate_partial_cliques(inst))


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
    res = solve_ilp(_p5(fig4))
    report = simulate(fig4, clique_schedule(fig4, res))
    assert report.all_decoded
    assert report.transmissions == 1


def test_seed_changes_payloads_not_outcome(fig1):
    sched = _scalar_cyclic(fig1)
    for seed in (0, 1, 12345):
        assert simulate(fig1, sched, seed=seed).all_decoded


def test_dropped_transmission_fails(fig1):
    # fig1's schedule is the XOR p1 + p3 and p2 sent directly: without the
    # direct send, u2 cannot decode p2.
    sched = _scalar_cyclic(fig1)
    assert [a.kind for a in sched.actions] == ["cycle", "direct"]
    report = simulate(fig1, replace(sched, actions=sched.actions[:1]))
    assert not report.all_decoded
    assert report.failure == ("u2", "p2")


def test_failure_report_without_raise(fig1):
    sched = _scalar_cyclic(fig1)
    report = simulate(fig1, replace(sched, actions=[]))
    assert not report.all_decoded
    assert not any(report.success.values())
    assert report.failure == ("u1", "p1")
    assert report.transmissions == 0


def test_corrupted_coefficient_fails(fig1):
    sched = _scalar_cyclic(fig1)
    # Replace every action with the first, the XOR over p1 and p3: the
    # system becomes singular for at least one receiver.
    broken = replace(sched, actions=[sched.actions[0]] * len(sched.actions))
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
        res = solve_ilp(_p5(inst))
        report = simulate(inst, clique_schedule(inst, res))
        assert report.all_decoded


def test_payload_size_variants(fig1):
    sched = _scalar_cyclic(fig1)
    for size in (1, 8, 256):
        assert simulate(fig1, sched, payload_size=size).all_decoded


@pytest.mark.parametrize("size", [0, -1])
def test_payload_size_below_one_is_refused(fig1, size):
    # An empty payload would reduce the bit-exact check to a rank check, and
    # a negative one would escape from hashlib as a SystemError.
    with pytest.raises(ValueError) as err:
        simulate(fig1, _scalar_cyclic(fig1), payload_size=size)
    assert str(err.value) == f"payload_size must be at least 1, not {size}"


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
    # Coefficients of a symbol listed twice add in GF(2^8), and c + c = 0.
    # A zero coefficient, given or from cancellation, is never stored in a
    # sparse row.  An action that names a packet twice is no block, so
    # both actions are sent in one block, and each receiver gets every row
    # its side packets leave: u1 (demands p1) gets the p2 rows of the
    # clique as well, though they share no symbol with p1.
    seen = {}

    def recording(rows, size):
        seen.setdefault("rows", []).append([dict(row) for row, _ in rows])
        return _eliminate(rows, size)

    monkeypatch.setattr(simulate_module, "_eliminate", recording)
    p1, p2, p3 = ("p1", 0), ("p2", 0), ("p3", 0)
    # p1 + p1 (empty, dropped) and p1 + p2; then the two Cauchy rows of a
    # (3, 1) clique over p2, p3, p3.
    cycle = coding.CodingAction("cycle", ("p1", "p1", "p2"), 1, units=((0, 0),) * 3)
    clique = coding.CodingAction("clique", ("p2", "p3", "p3"), 1, d=1, units=((0, 0),) * 3)
    rows = mds_rows(3, 2)
    c0, c1 = rows[0][1] ^ rows[0][2], rows[1][1] ^ rows[1][2]
    assert c0 not in (0, rows[0][1], rows[0][2]) and c1 not in (0, rows[1][1], rows[1][2])
    report = simulate(fig1, TransmissionSchedule(GF256, 1, [cycle, clique]))
    assert report.all_decoded
    assert report.transmissions == 4
    # Users in order u1 (holds p3), u2 (holds p1), u3 (holds p1, p2).
    assert seen["rows"] == [
        [{p1: 1, p2: 1}, {p2: rows[0][0]}, {p2: rows[1][0]}],
        [{p2: 1}, {p2: rows[0][0], p3: c0}, {p2: rows[1][0], p3: c1}],
        [{p3: c0}, {p3: c1}],
    ]


def _rejects(inst, action, message, theta=1):
    with pytest.raises(coding.ScheduleError) as err:
        simulate(inst, TransmissionSchedule(GF256, theta, [action]))
    assert str(err.value) == f"{action!r}: {message}"


def test_action_with_an_unknown_packet_is_a_schedule_error(fig1):
    # Each action is checked before anything is encoded: a packet outside
    # the instance has no payload, however it is spelled.
    for pid in ("zz", ["p1"], None):
        action = coding.CodingAction("direct", (pid,), 1, units=((0, 0),))
        _rejects(fig1, action, f"unknown packet {pid!r}")
    action = coding.CodingAction("cycle", ("p1", "zz"), 1, units=((0, 0), (0, 0)))
    _rejects(fig1, action, "unknown packet 'zz'")


@pytest.mark.parametrize("count", [1.0, True, "1", None], ids=repr)
def test_action_with_a_non_int_count_is_a_schedule_error(fig1, count):
    action = coding.CodingAction("direct", ("p1",), count, units=((0, 0),))
    _rejects(fig1, action, f"count {count!r} is not an int >= 0")


def test_action_with_a_negative_count_is_a_schedule_error(fig1):
    action = coding.CodingAction("direct", ("p1",), -1, units=((0, 0),))
    _rejects(fig1, action, "count -1 is not an int >= 0")


@pytest.mark.parametrize("span", [(0, 1.0), (0.0, 1), (True, 1), ("0", 1), [0, 1], (0,),
                                  (0, 1, 2), 0, None], ids=repr)
def test_action_with_a_non_int_unit_is_a_schedule_error(span):
    # A unit span must be a pair of ints: a float, a bool or a list equal
    # to one by value is refused as well.
    inst = make_instance(["u1"], [("a", 2, "u1", ())])
    action = coding.CodingAction("direct", ("a",), 1, units=(span,))
    _rejects(inst, action, f"units {span!r} of 'a' are not ints 0 <= first <= last")


@pytest.mark.parametrize("span", [(-1, 0), (-2, -1), (1, 0)], ids=repr)
def test_action_with_a_negative_unit_is_a_schedule_error(span):
    # A negative unit, or a last unit before the first.
    inst = make_instance(["u1"], [("a", 2, "u1", ())])
    action = coding.CodingAction("direct", ("a",), 1, units=(span,))
    _rejects(inst, action, f"units {span!r} of 'a' are not ints 0 <= first <= last")


def test_action_with_a_unit_past_its_packet_is_a_schedule_error(fig1):
    # A unit past the packet would read another packet's payload.  fig1's
    # packets have one unit each at theta = 1 and two at theta = 2.
    action = coding.CodingAction("cycle", ("p1", "p3"), 1, units=((0, 0), (0, 1)))
    _rejects(fig1, action, "unit 1 is past packet 'p3', which has 1 units")
    _rejects(fig1, replace(action, units=((0, 2), (0, 1))),
             "unit 2 is past packet 'p1', which has 2 units", theta=2)
    assert simulate(fig1, TransmissionSchedule(GF256, 2, [action])).failure == ("u1", "p1")


def test_action_with_units_for_other_packets_is_a_schedule_error(fig1):
    # `units` holds one span per packet; an action never expanded has none.
    for units in ((), ((0, 0),), ((0, 0),) * 3):
        action = coding.CodingAction("cycle", ("p1", "p3"), 1, units=units)
        _rejects(fig1, action, f"units for {len(units)} of its 2 packets")


def test_action_of_an_unknown_kind_is_a_schedule_error(fig1):
    # Refused before anything is sent.
    for kind in ("broadcast", "Direct", None):
        action = coding.CodingAction(kind, ("p1",), 1, units=((0, 0),))
        _rejects(fig1, action, f"unknown kind {kind!r}")


@pytest.mark.parametrize("d", [2, 3, -1, "x", 1.0, True, None], ids=repr)
def test_clique_with_a_d_outside_its_range_is_a_schedule_error(fig1, d):
    # A (2, d) clique sends k - d >= 1 Cauchy rows of ints 0 <= d < k.
    action = coding.CodingAction("clique", ("p1", "p3"), 1, d=d, units=((0, 0), (0, 0)))
    _rejects(fig1, action, f"d {d!r} is not an int with 0 <= d < k = 2")


def test_direct_action_of_other_than_one_packet_is_a_schedule_error(fig1):
    for packets in (("p1", "p2"), ("p1", "p2", "p3"), ()):
        action = coding.CodingAction("direct", packets, 1, units=((0, 0),) * len(packets))
        _rejects(fig1, action, f"a direct send of {len(packets)} packets")


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
        "print(*simulate(inst, TransmissionSchedule(GF2, 1, [])).failure)\n"
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
        known = side_packets(inst, user)
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


FAULTS = ("drop", "duplicate", "clamp", "shift", "d")


def _mds_schedule(rng, inst, theta):
    """Random partial cliques: the packets in random groups of two to four
    (one at the end), each group a (k, d) clique with a random d <= k - 2
    over its lightest packet's units, and the rest of each heavier packet
    sent directly."""
    ids = list(inst.packet_ids)
    rng.shuffle(ids)
    actions = []
    while ids:
        k = min(rng.randint(2, 4), len(ids))
        group, ids = tuple(ids[:k]), ids[k:]
        units = {pid: inst.packet(pid).weight * theta for pid in group}
        count = min(units.values())
        actions.append(coding.CodingAction("clique", group, count, d=rng.randrange(max(1, k - 1))))
        actions += [coding.CodingAction("direct", (pid,), n - count)
                    for pid, n in units.items() if n > count]
    return coding._expand(inst, actions, theta, GF256)


def _with_fault(rng, inst, sched, op, targets):
    """The schedule with the fault `op` on one of the actions at the
    indices `targets`, or None when none of them admits it: the action
    dropped, or duplicated, so that its units overlap the copy's; its
    count raised past its units, so that its last rounds repeat its last
    unit; one packet's units shifted so that the action takes some of
    another action's; or, for a (k, d) clique with k - d >= 2, d raised,
    so that it has too few rows."""
    actions = list(sched.actions)
    if op == "shift":
        places = [(j, i, b) for j in targets for i, pid in enumerate(actions[j].packets)
                  for b in actions if b is not actions[j] and b.count and pid in b.packets]
    elif op == "d":
        places = [j for j in targets
                  if actions[j].kind == "clique" and len(actions[j].packets) - actions[j].d >= 2]
    else:
        places = targets
    if not places:
        return None
    place = rng.choice(places)
    if op == "drop":
        actions.pop(place)
    elif op == "duplicate":
        actions.insert(rng.randrange(len(actions) + 1), actions[place])
    elif op == "clamp":
        actions[place] = replace(actions[place], count=actions[place].count + rng.randint(1, 3))
    elif op == "shift":
        j, i, b = place
        a = actions[j]
        pid = a.packets[i]
        lo, last = b.units[b.packets.index(pid)]
        stop = min(lo + b.count, last + 1)  # b takes the units lo..stop-1
        first = rng.randint(max(0, lo - a.count + 1), stop - 1)
        n = inst.packet(pid).weight * sched.theta
        units = list(a.units)
        units[i] = (first, min(n - 1, first + a.units[i][1] - a.units[i][0]))
        actions[j] = replace(a, units=tuple(units))
    else:
        a = actions[place]
        actions[place] = replace(a, d=rng.randint(a.d + 1, len(a.packets) - 1))
    return replace(sched, actions=actions)


def _break(rng, inst, sched, faults, seen, rounds=1):
    """The schedule with `faults` faults on actions of at least `rounds`
    rounds, and their kinds.  Each is of the kind least often made so far
    (`seen`: kind -> times made), among those the schedule admits, so that
    the kinds that few schedules admit are made as often as the rest."""
    ops = []
    for _ in range(faults):
        for op in sorted(rng.sample(FAULTS, len(FAULTS)), key=seen.get):
            targets = [j for j, a in enumerate(sched.actions) if a.count >= rounds]
            broken = _with_fault(rng, inst, sched, op, targets)
            if broken is not None:
                sched = broken
                seen[op] += 1
                ops.append(op)
                break
    return sched, ops


def _random_schedule(rng, seen):
    """A schedule (scalar or vector cyclic, clique, or random partial
    cliques), often broken by up to four action-level faults."""
    kind = rng.choice(("scalar", "vector", "clique", "mds", "mds"))
    if kind == "clique":
        inst = random_uniprior_instance(rng)
        sched = clique_schedule(inst, solve_ilp(_p5(inst)))
    else:
        inst = random_unicast_instance(rng, side_prob=0.5)
        if kind == "scalar":
            sched = _scalar_cyclic(inst)
        elif kind == "vector":
            res = solve_lp(build_P2(inst, enumerate_cycles(inst)))
            sched = cyclic_schedule(inst, res)
        else:
            sched = _mds_schedule(rng, inst, rng.randint(1, 2))
    return (inst, *_break(rng, inst, sched, rng.choice((0, 1, 2, 3, 4)), seen))


def _outcome(inst, sched):
    report = simulate(inst, sched, payload_size=4)
    assert (report.failure is None) == report.all_decoded
    return report.success, report.failure


def test_chain_row_that_misses_the_demand_is_kept():
    # u1 needs a; a + b alone is not enough, and the b row that completes it
    # never touches a, so a decoder that kept only the rows holding a
    # demanded symbol would fail.  The two actions share b's unit, so they
    # are sent in one block.
    inst = make_instance(["u1", "u2"], [("a", 1, "u1", ()), ("b", 1, "u2", ())])
    a, b = ("a", 0), ("b", 0)
    sched = TransmissionSchedule(GF256, 1, [
        coding.CodingAction("cycle", ("a", "b"), 1, units=((0, 0), (0, 0))),
        coding.CodingAction("direct", ("b",), 1, units=((0, 0),)),
    ])
    assert sched.transmissions == [((a, 1), (b, 1)), ((b, 1),)]
    assert _outcome(inst, sched) == _full_system_outcome(inst, sched) \
        == ({"u1": True, "u2": True}, None)


def test_pruned_decoding_matches_the_full_system():
    rng = Random(75)
    seen = dict.fromkeys((*FAULTS, "failed", "decoded"), 0)
    for _ in range(300):
        inst, sched, ops = _random_schedule(rng, seen)
        expected = _full_system_outcome(inst, sched)
        assert _outcome(inst, sched) == expected, (inst, sched, ops)
        seen["failed" if expected[1] else "decoded"] += 1
    assert min(seen.values()) >= 100, seen


# ------------------------------------------- blocks of repeated rounds

def _scaled(inst, factors):
    return make_instance(list(inst.users), [(p.id, p.weight * k, p.demand, p.side)
                                            for p, k in zip(inst.packets, factors)])


def _batched_schedule(rng, fig4):
    """A vector schedule whose actions repeat their rounds: fig4 with its
    weights scaled up (theta = 2 when all three factors are odd), or a
    random instance with scaled weights, under P2' or P5' or as random
    partial cliques; sometimes one action is re-expanded past its units."""
    kind = rng.choice(("fig4", "fig4", "unicast", "uniprior", "mds"))
    if kind == "fig4":
        inst = _scaled(fig4, [rng.choice((3, 5, 7, 9)) for _ in range(3)])
    elif kind == "uniprior":
        inst = random_uniprior_instance(rng)
        inst = _scaled(inst, [rng.randint(2, 4)] * len(inst.packets))
    else:
        inst = random_unicast_instance(rng, side_prob=0.5)
        inst = _scaled(inst, [rng.randint(2, 4)] * len(inst.packets))
    if kind == "mds":
        sched = _mds_schedule(rng, inst, rng.randint(1, 2))
    elif kind == "uniprior" or rng.random() < 0.5:
        sched = clique_schedule(inst, solve_lp(_p5(inst)))
    else:
        sched = cyclic_schedule(inst, solve_lp(build_P2(inst, enumerate_cycles(inst))))
    if rng.random() < 0.3:
        actions = list(sched.actions)
        j = rng.randrange(len(actions))
        actions[j] = replace(actions[j], count=actions[j].count + rng.randint(1, 3))
        sched = coding._expand(inst, actions, sched.theta, sched.field_name)
    return inst, sched


def test_faults_inside_batches_match_the_full_system(fig4):
    # Each fault hits an action of more than one round.  A count raised
    # past the units, or units shifted so that a later round takes another
    # action's, shows only after the first round, and the action is no
    # block: a decoder that checked only each action's first round would
    # get these wrong.
    rng = Random(76)
    seen = dict.fromkeys(("theta>1", *FAULTS, "failed", "decoded"), 0)
    for _ in range(1000):
        inst, sched = _batched_schedule(rng, fig4)
        broken, ops = _break(rng, inst, sched, rng.choice((1, 1, 2)), seen, rounds=2)
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
    # With every count raised by one, past its units, no action is a
    # block: all transmissions form one block, which each receiver with a
    # demand eliminates once.
    calls = []

    def counting(rows, size):
        calls.append(size)
        return _eliminate(rows, size)

    monkeypatch.setattr(simulate_module, "_eliminate", counting)
    inst = _scaled(fig4, [100] * 3)
    demanding = [user for user in inst.users if any(p.demand == user for p in inst.packets)]
    for sched in (
        cyclic_schedule(inst, solve_lp(build_P2(inst, enumerate_cycles(inst)))),
        clique_schedule(inst, solve_lp(_p5(inst))),
    ):
        batched = sorted(action.count * 64 for user in inst.users for action in sched.actions
                         if any(inst.packet(pid).demand == user for pid in action.packets))
        clamped = replace(sched, actions=[replace(a, count=a.count + 1) for a in sched.actions])
        for run, expected in ((sched, batched), (clamped, [64] * len(demanding))):
            calls.clear()
            report = simulate(inst, run)
            assert report.all_decoded
            assert (report.success, report.failure) == _full_system_outcome(inst, run)
            assert sorted(calls) == expected
            assert len(calls) <= 6 < len(sched.transmissions) // 10


def test_rounds_that_share_a_unit_are_not_a_batch():
    # Each round holds two units of a and the next round shifts both, so
    # the rounds a0 + a1 and a1 + a2 overlap: they repeat their first round
    # but are no block.  With a2 sent alone, u1 solves a2, a1, then a0.
    inst = make_instance(["u1"], [("a", 3, "u1", ())])
    a = [("a", i) for i in range(3)]
    sched = TransmissionSchedule(GF256, 1, [
        coding.CodingAction("cycle", ("a", "a"), 2, units=((0, 1), (1, 2))),
        coding.CodingAction("direct", ("a",), 1, units=((2, 2),)),
    ])
    assert sched.transmissions == [
        ((a[0], 1), (a[1], 1)),
        ((a[1], 1), (a[2], 1)),
        ((a[2], 1),),
    ]
    assert _outcome(inst, sched) == _full_system_outcome(inst, sched) == ({"u1": True}, None)


def test_action_that_names_a_packet_twice_is_no_block(monkeypatch):
    # Two rounds of the (2, 0) clique over a twice, on units 0-1 and 2-3:
    # the rounds share no unit, but a block decodes one symbol per packet,
    # so the action is sent in the block of (packet, unit) symbols.
    calls = []

    def counting(rows, size):
        calls.append(size)
        return _eliminate(rows, size)

    monkeypatch.setattr(simulate_module, "_eliminate", counting)
    inst = make_instance(["u1"], [("a", 4, "u1", ())])
    sched = TransmissionSchedule(GF256, 1, [
        coding.CodingAction("clique", ("a", "a"), 2, units=((0, 1), (2, 3)))])
    assert _outcome(inst, sched) == _full_system_outcome(inst, sched) == ({"u1": True}, None)
    assert calls == [4]


# ------------------------------------------------ actions, not transmissions

def _code_schedules(fig1, fig4):
    """The schedules `indexcode code` makes, both strategies and modes, of
    fig1, fig4 and 50 random instances."""
    rng = Random(78)
    instances = [fig1, fig4] + [random_unicast_instance(rng, side_prob=0.5) if i % 2
                                else random_uniprior_instance(rng) for i in range(50)]
    for inst in instances:
        cycles = enumerate_cycles(inst)
        for expand, program in ((cyclic_schedule, build_P2(inst, cycles)),
                                (clique_schedule, _p5(inst))):
            for solve in (solve_ilp, solve_lp):
                yield inst, expand(inst, solve(program))


def test_simulate_reads_no_transmissions(fig1, fig4, monkeypatch):
    # `simulate` decodes from the actions alone: with the transmissions
    # view raising, every schedule still decodes.
    def raising(self):
        raise AssertionError("simulate read TransmissionSchedule.transmissions")

    schedules = list(_code_schedules(fig1, fig4))
    monkeypatch.setattr(TransmissionSchedule, "transmissions", property(raising))
    for inst, sched in schedules:
        assert simulate(inst, sched).all_decoded


def test_transmission_counts_agree(fig1, fig4):
    # The view's length, the count `simulate` reports and the clearance
    # time times theta are one number.
    for inst, sched in _code_schedules(fig1, fig4):
        report = simulate(inst, sched)
        assert len(sched.transmissions) == report.transmissions \
            == sched.total_count * sched.theta
