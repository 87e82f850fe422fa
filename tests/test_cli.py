import dataclasses
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import indexcode
from indexcode import (
    analysis, cli, coding, enumeration, instance, lp, make_instance, programs,
)
from indexcode.cli import run

from conftest import brute_max_acyclic, pyyaml_instance
from generators import random_unicast_instance
from paper_programs import serialize_instance


@pytest.fixture
def fig1_file(fig1, tmp_path):
    path = tmp_path / "fig1.icp"
    path.write_text(serialize_instance(fig1), encoding="utf-8")
    return str(path)


@pytest.fixture
def fig4_file(fig4, tmp_path):
    path = tmp_path / "fig4.icp"
    path.write_text(serialize_instance(fig4), encoding="utf-8")
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def test_bounds_text_fig1(fig1_file):
    code, text = _run(["bounds", fig1_file])
    assert code == 0
    for line in ("valP1: 2", "valP2: 2", "planar: True", "OPTIMAL (planar)"):
        assert line in text


def test_bounds_json_fig4(fig4_file):
    code, text = _run(["bounds", fig4_file, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["valP1"] == "1"
    assert doc["valP1_relaxed"] == "3/2"
    assert doc["valP2"] == "2"
    assert doc["valP5"] == "1"
    assert doc["planar"] is False
    assert doc["chain_ok"] is True


def test_cycles_output(fig1_file):
    code, text = _run(["cycles", fig1_file])
    assert code == 0
    assert text == "p1 -> u1 -> p3 -> u3\ntotal: 1 cycles\n"
    code, text = _run(["cycles", fig1_file, "--format", "json"])
    assert code == 0
    assert json.loads(text) == [{"packets": ["p1", "p3"], "users": ["u1", "u3"]}]


def test_cliques_output(fig4_file):
    code, text = _run(["cliques", fig4_file, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert {"packets": ["p1", "p2", "p3"], "k": 3, "d": 2} in doc


def test_planar(fig1_file, fig4_file):
    assert _run(["planar", fig1_file]) == (0, "planar: true\n")
    assert _run(["planar", fig4_file]) == (0, "planar: false\n")


def test_code_scalar_cyclic(fig1_file):
    code, text = _run(["code", fig1_file])
    assert code == 0
    assert "field=gf2 theta=1 transmissions=2 clearance=2" in text


def test_code_vector_cyclic_json(fig4_file):
    code, text = _run(
        ["code", fig4_file, "--strategy", "cyclic", "--mode", "vector",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["theta"] == 2
    assert doc["total_count"] == "3/2"
    assert len(doc["transmissions"]) == 3


def test_code_partial_clique(fig4_file):
    code, text = _run(["code", fig4_file, "--strategy", "partial-clique"])
    assert code == 0
    assert "transmissions=1 clearance=1" in text


def test_simulate_all_strategies(fig1_file, fig4_file):
    for args in (
        ["simulate", fig1_file],
        ["simulate", fig4_file, "--strategy", "partial-clique"],
        ["simulate", fig4_file, "--strategy", "cyclic", "--mode", "vector"],
    ):
        code, text = _run(args + ["--format", "json"])
        assert code == 0
        assert json.loads(text)["all_decoded"] is True


def test_check_fig1(fig1_file):
    code, text = _run(["check", fig1_file, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["cyclic_duality"] is True
    assert doc["clique_duality"] is True
    assert doc["theorem2"] is True


def test_check_fig4(fig4_file):
    code, text = _run(["check", fig4_file])
    assert code == 0
    assert "cyclic_duality: pass" in text
    assert "clique_duality: pass" in text


def test_deterministic_output(fig4_file):
    runs = {_run(["simulate", fig4_file, "--seed", "7", "--format", "json"])[1]
            for _ in range(3)}
    assert len(runs) == 1


def test_missing_file_is_error(tmp_path):
    code, _ = _run(["bounds", str(tmp_path / "nope.icp")])
    assert code == 2


def test_directory_path_is_error(tmp_path, capsys):
    code, text = _run(["bounds", str(tmp_path)])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "directory" in err


def test_non_utf8_file_is_error(tmp_path, capsys):
    bad = tmp_path / "latin1.icp"
    bad.write_bytes(b"users: [u\xff]\npackets: []\n")
    code, text = _run(["bounds", str(bad)])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "utf-8" in err


def _mutants(base: bytes, count: int, seed: int, alphabet=b"\xff\n\t :-,[]{}#&*!'\"019upwd"):
    """Seeded byte mutations of `base`: one to four deletions, replacements
    or insertions each."""
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(data) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(data):
                del data[i]
            elif op == 1 and i < len(data):
                data[i] = rng.choice(alphabet)
            else:
                data.insert(i, rng.choice(alphabet))
        yield bytes(data)


def test_mutated_instance_files_exit_0_or_2(fig1, tmp_path, capsys):
    # Seeded byte mutations of a valid file: every outcome is a result or a
    # one-line error, never a traceback.
    path = tmp_path / "mutant.icp"
    for data in _mutants(serialize_instance(fig1).encode(), 150, 0):
        path.write_bytes(data)
        for argv in (["bounds", str(path)], ["simulate", str(path), "--mode", "vector"]):
            code, _ = _run(argv)
            err = capsys.readouterr().err
            assert code in (0, 2), (data, argv)
            assert err.count("\n") <= 1, (data, err)


def test_accepted_mutants_build_what_pyyaml_builds(fig1):
    # Whatever text the reader accepts, PyYAML's safe loader reads the same
    # users and packets from it.
    flow = ("users: [u1, u2, u3]\npackets:\n"
            "  - {id: p1, weight: 1, demand: u1, side: &s [u2, u3]}\n"
            "  - {id: p2, demand: u2, side: [u3]}\n  - {id: p3, demand: u3, side: [u1]}\n")
    accepted = 0
    for base in (serialize_instance(fig1), flow):
        for data in _mutants(base.encode(), 2000, 1, b" \n'\"0123456789<:&*{}[]"):
            try:
                parsed = indexcode.parse_instance(data.decode())
            except indexcode.InstanceError:
                continue
            assert parsed == pyyaml_instance(data.decode()), data
            accepted += 1
    assert accepted >= 25


@pytest.mark.parametrize("pure", [False, True], ids=["default", "pure-python"])
@pytest.mark.parametrize("text", [
    "users: [u1]\npackets: [" + "{id: p1, demand: u1, <<: " * 1000 + "{}" + "}" * 1000 + "]\n",
    "users: " + "[" * 2000 + "\n",
], ids=["merge-chain-1000", "lists-2000"])
def test_deep_nesting_is_one_line_error(text, pure, tmp_path, monkeypatch, capsys):
    # The first `<<` is an unknown field, and the pure-Python composer's
    # RecursionError is a format error: neither is a traceback.
    if pure:
        monkeypatch.setattr(instance, "_LOADER", yaml.SafeLoader)
    path = tmp_path / "deep.icp"
    path.write_text(text, encoding="utf-8")
    assert _run(["bounds", str(path)]) == (2, "")
    assert capsys.readouterr().err in ("error: packet record 0: unknown fields ['<<']\n",
                                       "error: instance file nests too deeply\n")


def test_nesting_too_deep_for_libyaml_is_one_line_error(tmp_path):
    # libyaml's composer would overflow the C stack here (a segfault).
    path = tmp_path / "deep.icp"
    path.write_text("users: " + "[" * 100_000 + "u1" + "]" * 100_000 + "\npackets: []\n",
                    encoding="utf-8")
    src = str(Path(indexcode.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "indexcode", "bounds", str(path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: instance file nests too deeply\n"


@pytest.mark.parametrize("text, message", [
    ("users: [u1, u1]\npackets: [{id: p1, demand: u1}]\n", "duplicate user ids"),
    ("users: [u1, u2]\npackets: [{id: p1, demand: u1}, {id: p1, demand: u2}]\n",
     "duplicate packet id 'p1'"),
    ("users: [u1]\npackets: [{id: p1, demand: u1, side: [u9]}]\n",
     "packet p1: side user 'u9' not declared"),
    ("- u1\n- p1\n", "instance file must be a mapping with 'users' and 'packets'"),
    ("users: [u1]\npackets: {id: p1, demand: u1}\n",
     "'packets' must be a list of packet records"),
    ("users: [u1, u2]\npackets: [{id: p1, demand: u1, side: u2}]\n",
     "packet record 0: 'side' must be a list"),
    ("users: [u1, u2]\npackets: [{id: null, demand: u1, side: [u2]}]\n",
     "packet record 0: 'id' must hold id tokens"),
    ("users: [u1]\npackets: [{id: p1, demand: []}]\n",
     "packet record 0: 'demand' must name one user"),
    # A packet's `side` indented to column 0 is a top-level key.
    ("users: [u1, u2]\npackets:\n- id: p1\n  demand: u2\n- id: p2\n  demand: u1\nside: [u2]\n",
     "unknown top-level fields ['side']"),
    ("users: [u1]\npackets: [{id: p1, demand: u1, 1: x, y: 2}]\n",
     "packet record 0: unknown fields ['1', 'y']"),
    ("users: [u1]\npackets: [{id: p1, demand: ''}]\n", "packet p1: demand set is empty"),
    # libyaml calls the character a control character, PyYAML's own
    # reader a special one.
    ("users: [u1]\x07\npackets: []\n",
     f"unacceptable character #x0007: {'control' if hasattr(yaml, 'CSafeLoader') else 'special'}"
     " characters are not allowed (line 1, column 12)"),
])
def test_instance_errors_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.icp"
    path.write_text(text, encoding="utf-8")
    assert _run(["bounds", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_one_element_demand_list_is_unicast(tmp_path):
    packets = "[{id: p1, demand: %s, side: [u2]}, {id: p2, demand: u2, side: [u1]}]"
    outputs = []
    for demand in ("[u1]", "u1"):
        path = tmp_path / "ring.icp"
        path.write_text(f"users: [u1, u2]\npackets: {packets % demand}\n", encoding="utf-8")
        outputs.append(_run(["bounds", str(path), "--format", "json"]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_malformed_instance_is_error(tmp_path):
    bad = tmp_path / "bad.icp"
    bad.write_text("users: [u1]\npackets: [{id: p1, weight: 0, demand: u1}]\n")
    code, _ = _run(["bounds", str(bad)])
    assert code == 2


@pytest.mark.parametrize("ids", [('"u1\\n"', "p1"), ("u1", '"p1\\n"')])
def test_id_ending_in_newline_is_error(ids, tmp_path, capsys):
    user, packet = ids
    bad = tmp_path / "newline.icp"
    bad.write_text(f"users: [{user}, u2]\npackets:\n"
                   f"  - {{id: {packet}, demand: {user}, side: [u2]}}\n"
                   f"  - {{id: p2, demand: u2, side: [{user}]}}\n")
    assert _run(["cycles", str(bad)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: id ") and err.endswith(" is not an alphanumeric token\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["- [", "users: [u1\npackets: [a: b]\n", "users: a: b\n"])
def test_yaml_syntax_error_names_line_and_column(text, tmp_path, capsys):
    bad = tmp_path / "bad.icp"
    bad.write_text(text)
    code, _ = _run(["bounds", str(bad)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert re.search(r"\(line \d+, column \d+\)$", err), err


def _fresh_run_imports(argv, module):
    """`run(argv)` in a fresh interpreter: its exit code, and whether it left
    `module` in `sys.modules`, as one line."""
    script = (
        "import sys\n"
        "from indexcode.cli import run\n"
        f"code = run({argv!r})\n"
        f"print(code, {module!r} in sys.modules)\n"
    )
    src = str(Path(indexcode.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.splitlines()[-1]


def test_cli_does_not_import_numpy(fig1_file):
    assert _fresh_run_imports(["bounds", fig1_file], "numpy") == "0 False"


def test_cli_does_not_import_networkx(fig1_file):
    # Importing networkx took most of a short command's start-up time.
    assert _fresh_run_imports(["bounds", fig1_file, "--format", "json"], "networkx") == "0 False"


def test_long_ring_answers_planar_and_cycles(tmp_path):
    # A 3,000-packet ring: a recursive search would need 6,000 frames.
    assert sys.getrecursionlimit() < 6000
    users = [f"u{i}" for i in range(3000)]
    ring = make_instance(users, [(f"p{i}", 1, u, {users[i - 1]}) for i, u in enumerate(users)])
    path = tmp_path / "ring.icp"
    path.write_text(serialize_instance(ring), encoding="utf-8")
    assert _run(["planar", str(path)]) == (0, "planar: true\n")
    code, text = _run(["cycles", str(path), "--format", "json"])
    assert code == 0 and [len(c["users"]) for c in json.loads(text)] == [3000]


def _diamond_chain(length, two_cycle, closed=False):
    """A chain of `length` diamonds from packet a, and a packet t: a's
    demander holds b1 and c1, b_i's and c_i's hold d_i, d_i's hold b_i+1
    and c_i+1, and with `two_cycle` a's and t's demanders hold each other's
    packet.  It has 2^length chordless paths from a and no cycle but
    a -> t -> a.  With `closed` the last d's demander holds t as well, so
    each of those paths runs on to t, which a points to: a dead end."""
    arcs = {"a": ["b001", "c001"] + ["t"] * two_cycle, "t": ["a"] * two_cycle}
    for i in range(1, length + 1):
        arcs[f"b{i:03}"] = arcs[f"c{i:03}"] = [f"d{i:03}"]
        arcs[f"d{i:03}"] = [f"b{i + 1:03}", f"c{i + 1:03}"] if i < length else ["t"] * closed
    sides = {p: {f"u_{q}" for q in arcs if p in arcs[q]} for p in arcs}
    return make_instance([f"u_{p}" for p in arcs], [(p, 1, f"u_{p}", sides[p]) for p in arcs])


@pytest.mark.parametrize("two_cycle, closed", [pytest.param(False, False, id="False"),
                                               pytest.param(True, False, id="True"),
                                               pytest.param(True, True, id="closed")])
def test_diamond_chain_answers_in_linear_time(two_cycle, closed, tmp_path):
    # A search that walked every chordless path from a would take 2^40 steps.
    path = tmp_path / "diamonds.icp"
    path.write_text(serialize_instance(_diamond_chain(40, two_cycle, closed)), encoding="utf-8")
    src = str(Path(indexcode.__file__).resolve().parents[1])
    cycles, bounds = (subprocess.run([sys.executable, "-m", "indexcode", command, str(path)],
                                     env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                                     text=True, timeout=60)
                      for command in ("cycles", "bounds"))
    assert cycles.returncode == 0 and f"total: {int(two_cycle)} cycles" in cycles.stdout
    if closed:  # every packet then reaches a, so all 122 form the clique core
        assert bounds.returncode == 2 and bounds.stderr.startswith(
            "error: partial-clique enumeration: ") and bounds.stderr.count("\n") == 1
    else:
        assert bounds.returncode == 0 and f"valP1: {122 - two_cycle}" in bounds.stdout


@pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"], ["code", "-h"]])
def test_help_is_written_to_out(argv, capsys):
    code, text = _run(argv)
    assert code == 0 and text.startswith("usage: indexcode")
    assert capsys.readouterr() == ("", "")


def test_cycles_output_ignores_hash_seed(fig4_file, tmp_path):
    # Sides are frozensets, whose order follows PYTHONHASHSEED: `cycles`
    # prints the same bytes, and exits the same way, under every seed, in
    # text and JSON and when its cap is exceeded (fig4 has 3 chordless
    # cycles, the dense draw 15).
    dense = tmp_path / "dense.icp"
    dense.write_text(serialize_instance(
        random_unicast_instance(random.Random(0), 10, 8, 3, 0.6, exact=True)))
    argvs = [[*head, *tail] for head in (["cycles", fig4_file, "--max-cycles", "2"],
                                         ["cycles", str(dense), "--max-cycles", "10"])
             for tail in ([], ["--format", "json"])]
    argvs += [argv[:2] + argv[4:] for argv in argvs]
    script = (
        "import sys\n"
        "from indexcode.cli import run\n"
        "sys.stderr = sys.stdout\n"
        f"for argv in {argvs!r}:\n"
        "    print('exit', run(argv))\n"
    )
    src = str(Path(indexcode.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.add(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                   text=True, check=True, timeout=60).stdout)
    (out,) = outputs
    assert out.count("exit 2\n") == 4 and out.count("exit 0\n") == 4
    assert "total: 15 cycles" in out and "more than 10 found (11 so far)" in out


@pytest.mark.parametrize("command", ["cycles", "bounds"])
def test_repeated_key_is_error(tmp_path, capsys, command):
    # Read with the last `side` kept, this file has no cycle.
    path = tmp_path / "repeated.icp"
    path.write_text("users: [u1, u2]\npackets:\n  - {id: p1, demand: u1, side: [u2], side: []}\n"
                    "  - {id: p2, demand: u2, side: [u1]}\n", encoding="utf-8")
    assert _run([command, str(path)]) == (2, "")
    assert capsys.readouterr().err == "error: found repeated key 'side' (line 3, column 38)\n"


def test_cap_exceeded_is_error(fig4_file):
    code, _ = _run(["cycles", fig4_file, "--max-cycles", "1"])
    assert code == 2


def test_env_caps(fig1_file, fig4_file, monkeypatch, capsys):
    # Caps come from flags alone: the INDEXCODE_* variables that once set
    # them change nothing, and a bad one fails no command.
    argvs = [["planar", fig1_file], ["bounds", fig4_file], ["cycles", fig4_file]]
    expected = [_run(argv) for argv in argvs]
    monkeypatch.setenv("INDEXCODE_MAX_K", "abc")
    monkeypatch.setenv("INDEXCODE_NODE_LIMIT", "0")
    monkeypatch.setenv("INDEXCODE_MAX_CYCLES", "1")
    assert expected[0] == (0, "planar: true\n")
    assert [_run(argv) for argv in argvs] == expected
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["cliques"], ["code", "--strategy", "partial-clique"],
])
def test_clique_subset_cap_is_error(argv, tmp_path, capsys):
    # 30 packets, each held by every user but its demander: the clique core
    # is all 30, with about 2^30 subsets to examine.
    users = [f"u{i}" for i in range(30)]
    inst = make_instance(users, [(f"p{i}", 1, u, set(users) - {u}) for i, u in enumerate(users)])
    path = tmp_path / "dense30.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    assert _run([argv[0], str(path)] + argv[1:]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: partial-clique enumeration: ") and err.count("\n") == 1
    assert err.endswith(f"more than the cap of {enumeration.MAX_CLIQUE_SUBSETS}\n")


def test_bounds_with_empty_clique_family_is_error(fig4_file, capsys):
    # P5 ranges over the instance's whole clique family: no flag empties it.
    code, text = _run(["bounds", fig4_file, "--max-k", "0"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "indexcode: error: unrecognized arguments: --max-k 0\n")


def test_check_with_empty_clique_family_is_error(fig4_file, capsys):
    # An error, never a failed duality check.
    code, text = _run(["check", fig4_file, "--max-k", "0"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "indexcode: error: unrecognized arguments: --max-k 0\n")


@pytest.fixture
def dense12_file(tmp_path):
    """An 8-packet dense draw with an 8-packet clique core, whose P5 over
    cliques of at most 2 packets would be 5, where the full family gives 4."""
    inst = random_unicast_instance(random.Random(12), 8, 6, 1, 0.6, exact=True)
    path = tmp_path / "dense12.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["bounds"], ["check"], ["check", "--format", "json"],
    ["code", "--strategy", "partial-clique"],
    ["code", "--strategy", "partial-clique", "--mode", "vector"],
    ["simulate", "--strategy", "partial-clique"],
    ["simulate", "--strategy", "partial-clique", "--mode", "vector"],
    ["cliques"],
])
def test_truncated_clique_family_is_error(dense12_file, capsys, argv):
    # No subcommand takes a clique size cap.
    code, text = _run(argv + [dense12_file, "--max-k", "2"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "indexcode: error: unrecognized arguments: --max-k 2\n")


def test_truncation_needs_the_clique_family(dense12_file):
    code, text = _run(["bounds", dense12_file])
    assert code == 0 and "valP5: 4\n" in text and "gap_P5: 0\n" in text
    for command in ("code", "simulate"):
        code, text = _run([command, dense12_file, "--strategy", "partial-clique"])
        assert code == 0 and "clearance=4\n" in text


def test_cliques_lists_the_whole_family_unless_capped(tmp_path):
    # A 13-packet clique core, whose largest critical cliques have 10
    # packets.
    inst = random_unicast_instance(random.Random(0), 13, 8, 3, 0.6, exact=True)
    path = tmp_path / "core13.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    code, text = _run(["cliques", str(path)])
    largest = "(10,4): p10 p11 p12 p13 p3 p4 p6 p7 p8 p9\n"
    assert code == 0 and text.endswith(largest + "total: 115 partial cliques\n")
    assert text.count("(10,") == 1


def test_small_core_needs_no_large_max_k(tmp_path):
    # fig1's three packets and twelve packets whose demanders hold nothing:
    # M = 15, but every clique with d >= 1 lies in fig1's packets.
    users = ["u1", "u2", "u3"] + [f"v{i}" for i in range(1, 5)]
    packets = [("p1", 1, "u1", {"u2", "u3"}), ("p2", 1, "u2", {"u3"}), ("p3", 1, "u3", {"u1"})]
    sides = ({"u1"}, {"u2"}, {"u1", "u2"})
    packets += [(f"q{i:02}", 1, f"v{i % 4 + 1}", sides[i // 4]) for i in range(12)]
    path = tmp_path / "core3.icp"
    path.write_text(serialize_instance(make_instance(users, packets)), encoding="utf-8")
    code, text = _run(["bounds", str(path)])
    assert code == 0 and "valP5: 14\n" in text
    assert _run(["code", str(path), "--strategy", "partial-clique"])[0] == 0


@pytest.mark.parametrize("command", ["code", "simulate"])
def test_theta_beyond_the_symbol_cap_is_error(fig4, fig4_file, monkeypatch, capsys, command):
    # fig4's P2' optimum with 1/1000003 added to every count: theta is
    # lcm(2, 1000003) = 2000006, so its 3 packets would expand to 6000018
    # symbols.
    res = lp.solve_lp(programs.build_P2(fig4, enumeration.enumerate_cycles(fig4)))
    huge = dataclasses.replace(res, primal=tuple(v + Fraction(1, 1000003) for v in res.primal))
    monkeypatch.setattr(analysis.Analysis, "solve", lambda self, name: huge)
    assert 3 * 2000006 > coding.MAX_SYMBOLS
    assert _run([command, fig4_file, "--mode", "vector"]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: theta=2000006 gives 6000018 symbols, more than the cap of {coding.MAX_SYMBOLS}\n")


def test_check_answers_on_a_13_packet_clique_core(tmp_path, capsys):
    # A 13-packet clique core with 7,539 cliques of d >= 1: P5' has a column
    # for each, and its certificate proves the clique pair with no tableau
    # of a row for each.
    inst = random_unicast_instance(random.Random(0), 13, 6, 1, 0.6, exact=True)
    path = tmp_path / "core13.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    code, text = _run(["check", str(path)])
    assert (code, text) == (0, "cyclic_duality: pass\nclique_duality: pass\ntheorem2: pass\n")
    assert capsys.readouterr().err == ""
    code, text = _run(["bounds", str(path)])
    assert code == 0 and "chain_ok: True\n" in text


@pytest.mark.parametrize("command", ["bounds", "check"])
def test_clique_cap_is_reached_before_any_cycle(command, tmp_path, monkeypatch, capsys):
    # A 17-packet clique core, over the subset cap, whose cycles also exceed
    # the cycle cap: the cheap clique check refuses it before any cycle is
    # enumerated.
    users = [f"u{i}" for i in range(17)]
    inst = make_instance(users, [(f"p{i}", 1, u, set(users) - {u}) for i, u in enumerate(users)])
    path = tmp_path / "dense17.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    calls = Counter()

    def counted(*args, **kwargs):
        calls["enumerate_cycles"] += 1
        return enumeration.enumerate_cycles(*args, **kwargs)

    monkeypatch.setattr(analysis, "enumerate_cycles", counted)
    assert _run([command, str(path)]) == (2, "")
    assert capsys.readouterr().err == (
        "error: partial-clique enumeration: 131054 subsets of the 17-packet clique core "
        f"up to size 17, more than the cap of {enumeration.MAX_CLIQUE_SUBSETS}\n")
    assert calls == Counter()


def _ring_file(tmp_path, n):
    """An n-packet ring whose packets are each held by the two users after
    their demander: its clique core is all n packets."""
    users = [f"u{i}" for i in range(n)]
    ring = make_instance(users, [(f"p{i}", 1, u, {users[(i + 1) % n], users[(i + 2) % n]})
                                 for i, u in enumerate(users)])
    path = tmp_path / f"ring{n}.icp"
    path.write_text(serialize_instance(ring), encoding="utf-8")
    return str(path)


def test_clique_cap_boundary(tmp_path, capsys):
    # A 16-packet core is listed whole; a 17-packet core is refused by
    # `cliques` and by every command that reads P5, with one message.
    code, text = _run(["cliques", _ring_file(tmp_path, 16)])
    assert code == 0 and text.endswith("\ntotal: 107 partial cliques\n")
    ring17 = _ring_file(tmp_path, 17)
    for argv in (["cliques"], ["bounds"], ["check"], ["code", "--strategy", "partial-clique"]):
        assert _run(argv + [ring17]) == (2, "")
        assert capsys.readouterr().err == (
            "error: partial-clique enumeration: 131054 subsets of the 17-packet clique core "
            f"up to size 17, more than the cap of {enumeration.MAX_CLIQUE_SUBSETS}\n")
    assert _run(["code", ring17])[0] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, code, last_err", [
    (["bounds", "{fig1}", "--format", "json"], 0, None),
    (["bounds", "{missing}"], 2, "error: [Errno 2] No such file or directory: "),
    (["planar", "{fig1}", "--max-k", "3"], 2, "indexcode: error: unrecognized arguments: --max-k 3"),
    (["bounds", "{fig1}", "--max-cycles", "abc"], 2,
     "indexcode bounds: error: argument --max-cycles: expected a non-negative integer, got 'abc'"),
])
def test_module_entry_point(fig1_file, tmp_path, argv, code, last_err):
    paths = {"fig1": fig1_file, "missing": str(tmp_path / "missing.icp")}
    src = str(Path(indexcode.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "indexcode", *(a.format(**paths) for a in argv)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == code
    if last_err is None:
        assert json.loads(done.stdout)["valP1"] == "2" and done.stderr == ""
    else:
        # A bad file and a bad argument are each one line.
        assert done.stdout == "" and done.stderr.startswith(last_err)
        assert done.stderr.count("\n") == 1


def test_parser_is_built_once(fig4_file):
    assert cli.build_parser() is cli.build_parser()
    assert _run(["bounds", fig4_file])[0] == 0
    assert _run(["cliques", fig4_file])[0] == 0


# More digits than `int` converts by default (4,300).
_HUGE = pytest.param("9" * 5000, id="5000-digits")


@pytest.mark.parametrize("var", ["INDEXCODE_MAX_CYCLES", "INDEXCODE_MAX_K",
                                 "INDEXCODE_NODE_LIMIT"])
@pytest.mark.parametrize("value", ["abc", "-1", _HUGE])
def test_bad_env_cap_is_ignored(fig4_file, monkeypatch, capsys, var, value):
    # No variable is read, so one that is not a cap is no error either.
    expected = _run(["bounds", fig4_file])
    monkeypatch.setenv(var, value)
    assert _run(["bounds", fig4_file]) == expected and expected[0] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag", ["--max-cycles", "--node-limit"])
@pytest.mark.parametrize("value", ["abc", "-1", _HUGE])
def test_bad_cap_flag_is_error(fig4_file, capsys, flag, value):
    code, text = _run(["bounds", fig4_file, flag, value])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"indexcode bounds: error: argument {flag}: expected a non-negative "
                          "integer, got ")
    assert err.count("\n") == 1 and len(err) < 200
    # A subcommand takes no flag for a cap it does not read.
    assert _run(["planar", fig4_file, "--max-k", "3"]) == (2, "")
    assert "unrecognized arguments: --max-k 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["code", "simulate"])
@pytest.mark.parametrize("value", ["1_0", " 7", "7 ", "١٢", "+7", "-", "7-", "abc",
                                   _HUGE])
def test_bad_seed_is_error(fig4_file, capsys, command, value):
    code, text = _run([command, fig4_file, "--seed", value])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"indexcode {command}: error: argument --seed: expected an integer, "
                          "got ")
    assert err.count("\n") == 1 and len(err) < 200
    # A negative seed is a seed.
    assert _run([command, fig4_file, "--seed", "-7"])[0] == 0


@pytest.mark.parametrize("command", ["bounds", "check", "code"])
def test_node_limit_applies_to_every_solver(fig4_file, capsys, command):
    code, text = _run([command, fig4_file, "--node-limit", "0"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: branch-and-bound exceeded 0 nodes\n"


def test_check_solves_each_program_once(tmp_path, monkeypatch):
    # Strictly uniprior with 4 users, so every checker runs.
    inst = make_instance(
        ["u1", "u2", "u3", "u4"],
        [("p1", 2, "u1", {"u2"}), ("p2", 1, "u2", {"u3"}), ("p3", 1, "u3", {"u4"}),
         ("p4", 3, "u4", {"u1"}), ("p5", 1, "u1", {"u3"}), ("p6", 2, "u3", {"u1"})],
    )
    path = tmp_path / "uniprior.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    calls = Counter()
    ilp_depth = [0]
    targets = {fn: name for module in (programs, enumeration, lp)
               for name, fn in vars(module).items()
               if name.startswith(("build_P", "enumerate_", "solve_", "transpose", "verify_"))}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            # Node solves inside branch-and-bound are not counted.
            if not ilp_depth[0]:
                calls[name] += 1
            ilp_depth[0] += name == "solve_ilp"
            try:
                return fn(*args, **kwargs)
            finally:
                ilp_depth[0] -= name == "solve_ilp"
        return wrapper

    # Patch every binding, from-imported names included.
    for modname, module in list(sys.modules.items()):
        if modname.startswith("indexcode"):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    monkeypatch.setattr(module, attr, counted(obj, targets[obj]))

    code, text = _run(["check", str(path), "--format", "json"])
    assert code == 0
    assert list(json.loads(text)) == [
        "cyclic_duality", "clique_duality", "theorem2", "theorem4", "corollary2"
    ]
    # P1 is the transpose of P2; the relaxations solve the same programs, and
    # one certificate of each covering relaxation proves its duality pair.
    assert calls == Counter(
        {"build_P2": 1, "build_P5": 1, "transpose": 1, "enumerate_cycles": 1,
         "enumerate_partial_cliques": 1, "solve_ilp": 3, "solve_lp": 3, "verify_certificate": 2}
    )


@pytest.mark.parametrize("command, solves", [("bounds", 6), ("check", 5)])
def test_solves_of_three_programs_build_two_tableaux(fig1_file, monkeypatch, command, solves):
    # P1 and P2 share one simplex solve, P5 has the other, and each integer
    # program's root is its kept relaxation.  On fig1 `check` solves P5'
    # but not P5, since theorem 4 needs a uniprior instance.
    built, calls = [], Counter()
    solve, solve_lp = lp._solve, lp.solve_lp
    monkeypatch.setattr(lp, "_solve", lambda prog: built.append(prog) or solve(prog))
    monkeypatch.setattr(lp, "solve_lp", lambda prog: calls.update([id(prog)]) or solve_lp(prog))
    monkeypatch.setattr(analysis, "solve_lp", lp.solve_lp)
    code, _ = _run([command, fig1_file])
    assert code == 0
    assert len(built) == 2 and sum(calls.values()) == solves and len(calls) == 3


def test_branching_P1_read_off_P2_matches_brute_force(fig4, fig4_file):
    # fig4's P1 relaxation is fractional (3/2), so its integer program
    # branches below a root that, with P2' solved first, is read off P2'.
    a = analysis.Analysis(fig4)
    assert a.value("P2'") == Fraction(3, 2)
    res = a.solve("P1")
    assert res.branch_count > 1
    assert res.objective == brute_max_acyclic(fig4) == 1
    code, text = _run(["bounds", fig4_file, "--format", "json"])
    assert code == 0 and json.loads(text)["valP1"] == "1"


# A packet that no user holds is alone in its strong component: P2 and P5
# leave it out, and the schedules send it whole and directly, in the place
# that its column's name takes among the other columns.
@pytest.mark.parametrize("lone, cyclic, clique", [
    ("p0", ["p1/0 + p3/0", "p0/0", "p0/1", "p2/0"], ["p0/0", "p0/1", "p1/0 + p3/0", "p2/0"]),
    ("p25", ["p1/0 + p3/0", "p2/0", "p25/0", "p25/1"], ["p1/0 + p3/0", "p2/0", "p25/0", "p25/1"]),
    ("p4", ["p1/0 + p3/0", "p2/0", "p4/0", "p4/1"], ["p1/0 + p3/0", "p2/0", "p4/0", "p4/1"]),
])
def test_a_lone_packet_is_sent_in_its_name_order(fig1, tmp_path, lone, cyclic, clique):
    inst = make_instance(fig1.users, list(fig1.packets) + [(lone, 2, "u2", set())])
    path = tmp_path / "fig1_lone.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    for strategy, field, lines in (("cyclic", "gf2", cyclic), ("partial-clique", "gf256", clique)):
        for mode in ("scalar", "vector"):
            assert _run(["code", str(path), "--strategy", strategy, "--mode", mode]) == (0, "".join(
                line + "\n" for line in [f"field={field} theta=1 transmissions=4 clearance=4"]
                + ["  " + t for t in lines]))


def test_acyclic_side_information_sends_every_packet_directly(tmp_path):
    # u_i holds p_j for j > i: the packet digraph is acyclic, so every
    # packet is alone in its strong component, and every program is empty.
    users = [f"u{i}" for i in range(5)]
    inst = make_instance(users, [(f"p{i}", i + 1, users[i], set(users[:i])) for i in range(5)])
    path = tmp_path / "acyclic.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    a = analysis.Analysis(inst)
    assert a._split[0].packets == ()
    code, text = _run(["bounds", str(path), "--format", "json"])
    doc = json.loads(text)
    assert code == 0 and doc["W"] == 15 and doc["chain_ok"]
    assert [doc[k] for k in ("valP1", "valP1_relaxed", "valP2", "valP2_relaxed",
                             "valP5", "valP5_relaxed")] == ["15"] * 6
    assert _run(["check", str(path)]) == (0, "cyclic_duality: pass\nclique_duality: pass\n"
                                             "theorem2: pass\n")
    for strategy, name, kind in (("cyclic", "P2", "direct"), ("partial-clique", "P5", "clique")):
        expand = coding.cyclic_schedule if strategy == "cyclic" else coding.clique_schedule
        for mode, solved in (("scalar", name), ("vector", name + "'")):
            actions = expand(inst, a.solve(solved)).actions
            assert [(x.kind, x.packets, x.count, x.d) for x in actions] == [
                (kind, (p.id,), p.weight, 0) for p in inst.packets]
            code, text = _run(["simulate", str(path), "--strategy", strategy, "--mode", mode])
            assert code == 0 and text.endswith("success: 15 transmissions, theta=1, clearance=15\n")


def _two_blocks():
    """Two dense 9-packet draws, each one strong component, side by side;
    the first's users also hold every packet of the second, so the whole
    instance's clique core has all 18 packets, but no cycle crosses."""
    a = random_unicast_instance(random.Random(0), 9, 6, 2, 0.6, exact=True)
    b = random_unicast_instance(random.Random(8), 9, 6, 2, 0.6, exact=True)
    b = make_instance([f"v{u[1:]}" for u in b.users],
                      [(f"q{p.id[1:]}", p.weight, f"v{p.demand[1:]}", {f"v{u[1:]}" for u in p.side})
                       for p in b.packets])
    both = make_instance(a.users + b.users, [*a.packets, *(
        (p.id, p.weight, p.demand, p.side | set(a.users)) for p in b.packets)])
    return a, b, both


def test_two_blocks_are_solved_as_their_sum(tmp_path):
    a, b, both = _two_blocks()
    _, _, blocks = enumeration._packet_graph(both)
    assert sorted(x.bit_count() for x in blocks) == [9, 9]
    every = frozenset(both.packet_ids)  # d >= 1 over all 18: a core over the cap
    assert min(len(both.side_packets(p.demand) & every) for p in both.packets) >= 1
    assert (1 << 18) - 19 > enumeration.MAX_CLIQUE_SUBSETS
    path = tmp_path / "two_blocks.icp"
    path.write_text(serialize_instance(both), encoding="utf-8")
    code, text = _run(["bounds", str(path), "--format", "json"])
    assert code == 0
    doc, ra, rb = json.loads(text), analysis.bounds_report(a), analysis.bounds_report(b)
    for k in ("W", "valP1", "valP1_relaxed", "valP2", "valP2_relaxed", "valP5", "valP5_relaxed"):
        assert Fraction(doc[k]) == getattr(ra, k) + getattr(rb, k), k
    assert doc["valP1_relaxed"] == "27/2" and doc["chain_ok"]
    # The certificates of P2' and P5' over both blocks.
    assert _run(["check", str(path)]) == (0, "cyclic_duality: pass\nclique_duality: pass\n"
                                             "theorem2: pass\n")
