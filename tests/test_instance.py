import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import indexcode
from indexcode import (
    InstanceFormatError,
    InstanceValidationError,
    build_split_digraph,
    is_uniprior,
    make_instance,
    parse_instance,
    serialize_instance,
    total_weight,
)
from indexcode.generators import random_unicast_instance
from indexcode.instance import to_digraph
from random import Random

FIG1_TEXT = """
users: [u1, u2, u3]
packets:
  - {id: p1, weight: 1, demand: u1, side: [u2, u3]}
  - {id: p2, weight: 1, demand: u2, side: [u3]}
  - {id: p3, weight: 1, demand: u3, side: [u1]}
"""


def test_parse_fig1():
    inst = parse_instance(FIG1_TEXT)
    assert inst.users == ("u1", "u2", "u3")
    assert total_weight(inst) == 3
    assert inst.packet("p1").side == {"u2", "u3"}
    assert inst.packet("p2").demand == "u2"


def test_parse_minimal():
    inst = parse_instance("users: [u1]\npackets:\n  - {id: p1, demand: u1}\n")
    assert total_weight(inst) == 1
    assert inst.packet("p1").side == frozenset()


def test_parse_rejects_demand_in_side():
    text = "users: [u1]\npackets:\n  - {id: p1, demand: u1, side: [u1]}\n"
    with pytest.raises(InstanceValidationError, match="side information"):
        parse_instance(text)


def test_parse_rejects_multicast():
    text = "users: [u1, u2]\npackets:\n  - {id: p1, demand: [u1, u2]}\n"
    with pytest.raises(InstanceFormatError, match="multicast"):
        parse_instance(text)


@pytest.mark.parametrize("record, field", [
    ("{id: null, demand: u1}", "id"), ("{id: true, demand: u1}", "id"),
    ("{id: 010, demand: u1}", "id"), ("{id: p1, demand: [null]}", "demand"),
    ("{id: p1, demand: u1, side: [u2, 2]}", "side"),
])
def test_parse_rejects_non_string_ids(record, field):
    # YAML reads these scalars as None, True, 8 and 2; none may become a name.
    text = f"users: [u1, u2]\npackets:\n  - {{id: p0, demand: u2}}\n  - {record}\n"
    with pytest.raises(InstanceFormatError,
                       match=f"^packet record 1: '{field}' must hold id tokens$"):
        parse_instance(text)


def test_parse_syntax_error_reports_position():
    with pytest.raises(InstanceFormatError) as ei:
        parse_instance("users: [u1\npackets: []\n")
    assert ei.value.line is not None


def test_parse_rejects_unknown_user():
    text = "users: [u1]\npackets:\n  - {id: p1, demand: u2}\n"
    with pytest.raises(InstanceValidationError, match="not declared"):
        parse_instance(text)


def test_parse_rejects_duplicate_type():
    text = (
        "users: [u1, u2]\npackets:\n"
        "  - {id: p1, demand: u1, side: [u2]}\n"
        "  - {id: p2, demand: u1, side: [u2]}\n"
    )
    with pytest.raises(InstanceValidationError, match="duplicate"):
        parse_instance(text)


def test_parse_rejects_bad_weight():
    text = "users: [u1]\npackets:\n  - {id: p1, weight: 0, demand: u1}\n"
    with pytest.raises(InstanceValidationError, match="weight"):
        parse_instance(text)


def test_roundtrip(fig1, fig4):
    for inst in (fig1, fig4):
        assert parse_instance(serialize_instance(inst)) == inst


def test_roundtrip_random():
    rng = Random(42)
    for _ in range(25):
        inst = random_unicast_instance(rng)
        assert parse_instance(serialize_instance(inst)) == inst


def test_exact_random_unicast_sizes():
    rng = Random(5)
    for m in (1, 8, 12):  # 3 users have 12 distinct (demand, side) pairs
        inst = random_unicast_instance(rng, m, 3, exact=True)
        assert (len(inst.users), len(inst.packet_ids)) == (3, m)
    with pytest.raises(ValueError, match="fewer than 13"):
        random_unicast_instance(rng, 13, 3, exact=True)


def test_total_weight_cases(fig1):
    assert total_weight(fig1) == 3
    inst = make_instance(["u1", "u2"], [("p1", 2, "u1", {"u2"}), ("p2", 3, "u2", set()),
                                        ("p3", 5, "u1", set())])
    assert total_weight(inst) == 10


def test_is_uniprior(fig1):
    assert not is_uniprior(fig1)  # |S_1| = 2
    ring = make_instance(
        ["u1", "u2", "u3"],
        [("p1", 1, "u1", {"u2"}), ("p2", 1, "u2", {"u3"}), ("p3", 1, "u3", {"u1"})],
    )
    assert is_uniprior(ring, strict=True)
    empty_side = make_instance(["u1"], [("p1", 1, "u1", set())])
    assert not is_uniprior(empty_side, strict=True)
    assert is_uniprior(empty_side, strict=False)


def test_split_digraph_fig1(fig1):
    sd = build_split_digraph(fig1)
    assert len(sd.users) == 3 and len(sd.packet_ids) == 3
    assert sd.heavy_weight == 4
    packet_arcs = [a for a in sd.arcs if a[0][0] == "in"]
    assert len(packet_arcs) == 3
    assert all(w == 1 for _, _, w in packet_arcs)
    u2p = [a for a in sd.arcs if a[0][0] == "u"]
    p2u = [a for a in sd.arcs if a[1][0] == "u"]
    assert len(u2p) == 4 and len(p2u) == 3
    assert all(w == 4 for _, _, w in u2p + p2u)


def test_split_digraph_single_packet():
    inst = make_instance(["u1"], [("p1", 1, "u1", set())])
    sd = build_split_digraph(inst)
    assert len([a for a in sd.arcs if a[0][0] == "in"]) == 1
    assert len(list(nx.simple_cycles(sd.to_networkx()))) == 0


def test_split_digraph_heavy_weight_dominates():
    rng = Random(7)
    for _ in range(20):
        inst = random_unicast_instance(rng)
        sd = build_split_digraph(inst)
        assert sd.heavy_weight > sum(w for src, _, w in sd.arcs if src[0] == "in")


def test_fact1_cycle_count_preserved():
    rng = Random(11)
    for _ in range(30):
        inst = random_unicast_instance(rng)
        n_orig = len(list(nx.simple_cycles(to_digraph(inst))))
        n_split = len(list(nx.simple_cycles(build_split_digraph(inst).to_networkx())))
        assert n_orig == n_split


_SUITE_SCRIPT = """
from random import Random
from indexcode import serialize_instance
from indexcode.generators import (
    all_uniprior_instances, random_planar_instance, random_unicast_instance,
    random_uniprior_instance,
)
rng = Random(7)
for gen in (random_unicast_instance, random_planar_instance, random_uniprior_instance):
    for _ in range(30):
        print(serialize_instance(gen(rng)))
for inst in all_uniprior_instances(3, 3):
    print(serialize_instance(inst))
"""


def test_generated_suites_independent_of_hash_seed():
    src = str(Path(indexcode.__file__).resolve().parents[1])
    texts = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _SUITE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        texts.add(done.stdout)
    assert len(texts) == 1 and "packets:" in texts.pop()


def test_parse_rejects_boolean_weight():
    # bool is an int subclass; `weight: true` must not pass for weight 1.
    text = "users: [u1]\npackets:\n  - {id: p1, weight: true, demand: u1}\n"
    with pytest.raises(InstanceValidationError, match="weight"):
        parse_instance(text)
