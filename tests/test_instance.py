import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random
from types import ModuleType

import networkx as nx
import pytest
import yaml

import indexcode
from indexcode import (
    InstanceError,
    InstanceFormatError,
    InstanceValidationError,
    is_uniprior,
    make_instance,
    parse_instance,
    total_weight,
)
from indexcode import instance

from generators import random_unicast_instance
from paper_programs import serialize_instance, split_digraph, to_digraph

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
    # A character that YAML refuses is placed by its line and column in
    # characters; the reason's wording comes from the parser in use.
    with pytest.raises(InstanceFormatError, match=r"^unacceptable character #x0001: "
                                                  r"[^\n]* \(line 2, column 18\)$") as ei:
        parse_instance("users: [u1]\npackets: [{id: p\u00e9\x01}]\n")
    assert (ei.value.line, ei.value.column) == (2, 18)


def test_parse_reports_a_lone_surrogate_in_one_line():
    # libyaml's parser encodes the text to UTF-8 first, which a lone
    # surrogate fails; the pure-Python reader refuses it as a character.
    with pytest.raises(InstanceFormatError, match=r"^unacceptable character #xd800: "
                                                  r"[^\n]* \(line 2, column 17\)$") as ei:
        parse_instance("users: [u1]\npackets: [{id: p\ud800, demand: u1}]\n")
    assert (ei.value.line, ei.value.column) == (2, 17)


def test_parse_rejects_a_repeated_packets_key():
    # PyYAML keeps the last of two equal keys: this file would answer for
    # the second list alone.
    text = ("users: [u1, u2]\npackets:\n  - {id: p1, demand: u1, side: [u2]}\n"
            "  - {id: p2, demand: u2, side: [u1]}\npackets:\n  - {id: p3, demand: u1}\n")
    with pytest.raises(InstanceFormatError,
                       match=r"^found repeated key 'packets' \(line 5, column 1\)$"):
        parse_instance(text)


def test_parse_rejects_a_repeated_field():
    # Keeping the second `side` would lose the 2-cycle p1, p2.
    text = ("users: [u1, u2]\npackets:\n  - {id: p1, demand: u1, side: [u2], side: []}\n"
            "  - {id: p2, demand: u2, side: [u1]}\n")
    with pytest.raises(InstanceFormatError,
                       match=r"^found repeated key 'side' \(line 3, column 38\)$"):
        parse_instance(text)


def test_parse_refuses_merge_keys():
    # A `<<` key is no field: the record that merges another one is refused,
    # where PyYAML would bring in the keys that the record does not write.
    text = ("users: [u1, u2]\npackets:\n  - &p1 {id: p1, weight: 3, demand: u1, side: [u2]}\n"
            "  - {<<: *p1, id: p2, demand: u2, side: [u1]}\n")
    with pytest.raises(InstanceFormatError,
                       match=r"^packet record 1: unknown fields \['<<'\]$"):
        parse_instance(text)


_ONE = "users: [u1]\npackets: [{id: p1, demand: u1%s}]\n"
_WEIGHT_ERROR = (InstanceValidationError, r"packet p1: weight must be a positive integer")
_MERGE_ERROR = (InstanceFormatError, r"packet record 0: unknown fields \['<<'\]")

# Texts that PyYAML's safe loader reads in an unusual way, and what
# `parse_instance` makes of them: the total weight W of an Instance, or an
# error class and a pattern its whole message matches.  Each field is read
# by its position, so a merge, a tag or a key that no field allows is
# refused before anything under it is read.  A message that the composer
# writes names the alias under the pure-Python parser only.
READER_CASES = {
    "self-merge": ("users: [u1]\npackets: [&a {<<: *a, id: p1, demand: u1}]\n", _MERGE_ERROR),
    "list merge": (_ONE % ", <<: [{weight: 2}, {weight: 3}]", _MERGE_ERROR),
    "merge written over": (_ONE % ", <<: {weight: 5, id: p9}", _MERGE_ERROR),
    "scalar merge": ("users: [u1]\npackets: [{<<: 3, id: p1, demand: u1}]\n", _MERGE_ERROR),
    "scalar in a merge list": (_ONE % ", <<: [{weight: 2}, 3]", _MERGE_ERROR),
    "repeated merged key": (
        "users: [u1]\npackets: [{<<: {id: p0, id: p2}, id: p1, demand: u1}]\n", _MERGE_ERROR),
    "unhashable key": ("users: [u1]\npackets: [{? [a] : b, id: p1, demand: u1}]\n",
                       (InstanceFormatError, r"packet record 0: unknown fields \['\[a\]'\]")),
    "unhashable key after a byte-order mark": (
        "\ufeffusers: [u1]\npackets: [{? [a] : b, id: p1, demand: u1}]\n",
        (InstanceFormatError, r"packet record 0: unknown fields \['\[a\]'\]")),
    "unknown root tag": ("!foo\nusers: [u1]\npackets: [{id: p1, demand: u1}]\n", (
        InstanceFormatError, r"instance file must be a mapping with 'users' and 'packets'")),
    # Nothing under a field that no position allows is read, its tags included.
    "first unknown tag by level": ("users: [!foo u1]\npackets: 5\nfoo: !bar x\n",
                                   (InstanceFormatError, r"unknown top-level fields \['foo'\]")),
    "str tag on a list": ("users: !!str [u1]\npackets: []\n",
                          (InstanceFormatError, r"'users' must be a list of id tokens")),
    "value key": (_ONE % ", =: 3",
                  (InstanceFormatError, r"packet record 0: unknown fields \['='\]")),
    "int keys": (_ONE % ", 1: x, 0x1: y", (InstanceFormatError,
                                          r"packet record 0: unknown fields \['0x1', '1'\]")),
    "hex weight": (_ONE % ", weight: 0x10", 16),
    "underscored weight": (_ONE % ", weight: 1_000", 1000),
    "sexagesimal weight": (_ONE % ", weight: 1:30", 90),
    "float weight": (_ONE % ", weight: 2.0", _WEIGHT_ERROR),
    "quoted weight": (_ONE % ', weight: "3"', _WEIGHT_ERROR),
    "boolean weight": (_ONE % ", weight: true", _WEIGHT_ERROR),
    "binary weight": (_ONE % ", weight: !!binary Zm9v", _WEIGHT_ERROR),
    "ordered-map packets": ("users: [u1]\npackets: !!omap [{id: p1}, {demand: u1}]\n", (
        InstanceFormatError, r"'packets' must be a list of packet records")),
    "set side": ("users: [u1, u2]\npackets: [{id: p1, demand: u1, side: !!set {u2}}]\n",
                 (InstanceFormatError, r"packet record 0: 'side' must be a list")),
    "self-referencing users": ("users: &u [u1, *u]\npackets: [{id: p1, demand: u1}]\n",
                               (InstanceFormatError, r"'users' must be a list of id tokens")),
    "undefined root alias": ("x: *r\n", (InstanceFormatError,
                                          r"found undefined alias( 'r')? \(line 1, column 4\)")),
    "undefined alias": ("users: [u1]\npackets: [{id: p1, demand: *nope}]\n", (
        InstanceFormatError, r"found undefined alias( 'nope')? \(line 2, column 28\)")),
    "two documents": ("users: [u1]\npackets: [{id: p1, demand: u1}]\n---\nusers: [u1]\n", (
        InstanceFormatError, r"but found another document \(line 3, column 1\)")),
}


@pytest.mark.parametrize("text, expected", READER_CASES.values(), ids=READER_CASES)
def test_parse_reads_yaml_as_pyyaml_builds_it(text, expected):
    if isinstance(expected, int):
        assert total_weight(parse_instance(text)) == expected
    else:
        error, pattern = expected
        with pytest.raises(error) as ei:
            parse_instance(text)
        assert re.fullmatch(pattern, str(ei.value)), str(ei.value)


@pytest.mark.parametrize("scalar, tag", [
    ("!!float abc", "float"), ("!!int abc", "int"), ("!!int 0b_", "int"),
    ("!!bool maybe", "bool"), ("!!timestamp nope", "timestamp"),
])
def test_parse_reports_an_unreadable_scalar_in_one_line(scalar, tag):
    # PyYAML's int constructor raises ValueError here; a weight of any other
    # tag is not an int, whatever its text.
    error, pattern = _WEIGHT_ERROR if tag != "int" else (
        InstanceFormatError, r"could not construct a scalar for the tag "
                             r"'tag:yaml.org,2002:int' \(line 2, column 40\)")
    with pytest.raises(error) as ei:
        parse_instance(_ONE % f", weight: {scalar}")
    assert re.fullmatch(pattern, str(ei.value)), str(ei.value)


def _outcome(text):
    try:
        return parse_instance(text)
    except InstanceError as exc:
        return type(exc), str(exc)


def test_both_yaml_parsers_give_one_outcome(fig1, fig4, monkeypatch):
    # libyaml's parser and the pure-Python one compose the same node graph;
    # only what the parser itself reports (a syntax error, an undefined
    # alias) may differ in wording and position.
    texts = [FIG1_TEXT, serialize_instance(fig1), serialize_instance(fig4)]
    texts += [text for text, _ in READER_CASES.values()]
    texts += [_ONE % f", weight: {scalar}" for scalar in ("!!float abc", "!!bool maybe")]
    rng = Random(3)
    texts += [serialize_instance(random_unicast_instance(rng)) for _ in range(20)]
    loaders = [instance._LOADER, yaml.SafeLoader]
    outcomes = []
    for loader in loaders:
        monkeypatch.setattr(instance, "_LOADER", loader)
        outcomes.append([_outcome(text) for text in texts])
    for text, default, pure in zip(texts, *outcomes):
        try:
            for loader in loaders:
                yaml.compose(text, Loader=loader)
        except yaml.YAMLError:
            for message in (default, pure):
                assert message[0] is InstanceFormatError
                assert re.fullmatch(r"[^\n]* \(line \d+, column \d+\)", message[1]), message
        else:
            assert default == pure, text


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


def test_roundtrip_beyond_the_indicator_bound():
    # Text with more nesting indicators than libyaml is trusted with goes to
    # the pure-Python parser, which reads the same Instance.
    inst = random_unicast_instance(Random(7), 400, 10, exact=True)
    text = serialize_instance(inst)
    assert sum(map(text.count, "[{-?:")) > instance._MAX_INDICATORS
    assert parse_instance(text) == inst


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
    sd = split_digraph(fig1)
    kinds = [kind for kind, _ in sd.nodes]
    assert kinds.count("u") == 3 and kinds.count("in") == kinds.count("out") == 3
    arcs = list(sd.edges(data="weight"))
    packet_arcs = [a for a in arcs if a[0][0] == "in"]
    assert len(packet_arcs) == 3
    assert all(w == 1 for _, _, w in packet_arcs)
    u2p = [a for a in arcs if a[0][0] == "u"]
    p2u = [a for a in arcs if a[1][0] == "u"]
    assert len(u2p) == 4 and len(p2u) == 3
    assert all(w == 4 for _, _, w in u2p + p2u)


def test_split_digraph_single_packet():
    inst = make_instance(["u1"], [("p1", 1, "u1", set())])
    sd = split_digraph(inst)
    assert len([a for a in sd.edges if a[0][0] == "in"]) == 1
    assert len(list(nx.simple_cycles(sd))) == 0


def test_split_digraph_heavy_weight_dominates():
    rng = Random(7)
    for _ in range(20):
        inst = random_unicast_instance(rng)
        weights = [(src[0], w) for src, _, w in split_digraph(inst).edges(data="weight")]
        heavy = {w for kind, w in weights if kind != "in"}
        assert len(heavy) == 1 and heavy.pop() > sum(w for kind, w in weights if kind == "in")


def test_fact1_cycle_count_preserved():
    rng = Random(11)
    for _ in range(30):
        inst = random_unicast_instance(rng)
        n_orig = len(list(nx.simple_cycles(to_digraph(inst))))
        n_split = len(list(nx.simple_cycles(split_digraph(inst))))
        assert n_orig == n_split


_SUITE_SCRIPT = """
from random import Random
from generators import (
    all_uniprior_instances, random_planar_instance, random_unicast_instance,
    random_uniprior_instance,
)
from paper_programs import serialize_instance
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
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        done = subprocess.run([sys.executable, "-c", _SUITE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        texts.add(done.stdout)
    assert len(texts) == 1 and "packets:" in texts.pop()


def test_public_surface():
    # What `indexcode` exports: a helper that only tests use belongs in
    # tests/paper_programs.py.
    public = sorted(name for name, value in vars(indexcode).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert public == [
        "BoundsReport", "CapExceeded", "CodingAction", "Constraint", "Cycle", "DecodeReport",
        "Instance", "InstanceError", "InstanceFormatError", "InstanceValidationError",
        "LinearProgram", "NodeLimitExceeded", "PacketType",
        "PartialClique", "PreconditionError", "ScheduleError", "SolveResult", "Theorem2Report",
        "TransmissionSchedule", "bounds_report", "build_P2", "build_P5",
        "clique_schedule", "cyclic_schedule", "enumerate_cycles", "enumerate_partial_cliques",
        "is_planar", "is_uniprior", "make_instance", "mds_rows", "parse_instance",
        "simulate", "solve_ilp", "solve_lp", "total_weight", "transpose",
        "validate_instance", "verify_certificate",
    ]


def test_no_module_reads_the_environment():
    # Caps come from flags alone: no hidden process state steers a result.
    for path in Path(indexcode.__file__).parent.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert "environ" not in source and "getenv" not in source, path.name


def test_parse_rejects_boolean_weight():
    # bool is an int subclass; `weight: true` must not pass for weight 1.
    text = "users: [u1]\npackets:\n  - {id: p1, weight: true, demand: u1}\n"
    with pytest.raises(InstanceValidationError, match="weight"):
        parse_instance(text)
