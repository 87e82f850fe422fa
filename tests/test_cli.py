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

import indexcode
from indexcode import (
    analysis, cli, coding, enumeration, lp, make_instance, programs, serialize_instance,
)
from indexcode.cli import run
from indexcode.generators import random_unicast_instance


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
    assert "total: 2 cycles" in text
    code, text = _run(["cycles", fig1_file, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert sorted(sorted(c["packets"]) for c in doc) == [
        ["p1", "p2", "p3"], ["p1", "p3"]
    ]


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


def test_mutated_instance_files_exit_0_or_2(fig1, tmp_path, capsys):
    # Seeded byte mutations of a valid file: every outcome is a result or a
    # one-line error, never a traceback.
    rng = random.Random(0)
    base = serialize_instance(fig1).encode()
    alphabet = b"\xff\n\t :-,[]{}#&*!'\"019upwd"
    path = tmp_path / "mutant.icp"
    for _ in range(150):
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
        path.write_bytes(bytes(data))
        for argv in (["bounds", str(path)], ["simulate", str(path), "--mode", "vector"]):
            code, _ = _run(argv)
            err = capsys.readouterr().err
            assert code in (0, 2), (bytes(data), argv)
            assert err.count("\n") <= 1, (bytes(data), err)


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


def test_cli_does_not_import_numpy(fig1_file):
    script = (
        "import sys\n"
        "from indexcode.cli import run\n"
        f"code = run(['bounds', {fig1_file!r}])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = str(Path(indexcode.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_cap_exceeded_is_error(fig4_file):
    code, _ = _run(["cycles", fig4_file, "--max-cycles", "1"])
    assert code == 2


def test_env_caps(fig4_file, monkeypatch):
    monkeypatch.setenv("INDEXCODE_MAX_CYCLES", "1")
    code, _ = _run(["cycles", fig4_file])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["cliques", "--max-k", "12"], ["code", "--strategy", "partial-clique"],
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
])
def test_truncated_clique_family_is_error(dense12_file, capsys, argv):
    # Only `cliques` takes a clique size cap.
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
    # The clique listing alone is truncated.
    code, text = _run(["cliques", dense12_file, "--max-k", "2", "--format", "json"])
    assert code == 0 and {t["k"] for t in json.loads(text)} == {1, 2}


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


def test_check_refuses_a_P6_too_large_to_solve(tmp_path, capsys):
    # A 13-packet clique core: P6 would have one row for each of its 7,539
    # cliques with d >= 1.  Only `check` reads P6; `bounds` reads P5.
    inst = random_unicast_instance(random.Random(0), 13, 6, 1, 0.6, exact=True)
    path = tmp_path / "core13.icp"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    assert _run(["check", str(path)]) == (2, "")
    assert capsys.readouterr().err == (
        "error: P6 has 7539 rows of cliques with d >= 1, "
        f"more than the cap of {analysis.MAX_P6_CLIQUES}\n")
    code, text = _run(["bounds", str(path)])
    assert code == 0 and "chain_ok: True\n" in text


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


def test_parser_is_built_once_and_env_caps_are_read_per_call(fig4_file, monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert _run(["bounds", fig4_file])[0] == 0
    monkeypatch.setenv("INDEXCODE_NODE_LIMIT", "0")
    assert _run(["bounds", fig4_file]) == (2, "")
    assert capsys.readouterr().err == "error: branch-and-bound exceeded 0 nodes\n"
    monkeypatch.delenv("INDEXCODE_NODE_LIMIT")
    monkeypatch.setenv("INDEXCODE_MAX_K", "abc")
    # A bad variable is an error even where a flag would override it.
    assert _run(["cliques", fig4_file, "--max-k", "3"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: INDEXCODE_MAX_K: expected a non-negative integer, got 'abc'\n")
    monkeypatch.delenv("INDEXCODE_MAX_K")
    assert _run(["cliques", fig4_file])[0] == 0


# More digits than `int` converts by default (4,300).
_HUGE = pytest.param("9" * 5000, id="5000-digits")


@pytest.mark.parametrize("var", ["INDEXCODE_MAX_CYCLES", "INDEXCODE_MAX_K",
                                 "INDEXCODE_NODE_LIMIT"])
@pytest.mark.parametrize("value", ["abc", "-1", _HUGE])
def test_bad_env_cap_is_error(fig4_file, monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    code, text = _run(["bounds", fig4_file])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {var}: expected a non-negative integer, got ")
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("flag", ["--max-cycles", "--max-k", "--node-limit"])
@pytest.mark.parametrize("value", ["abc", "-1", _HUGE])
def test_bad_cap_flag_is_error(fig4_file, capsys, flag, value):
    command = "cliques" if flag == "--max-k" else "bounds"
    code, text = _run([command, fig4_file, flag, value])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"indexcode {command}: error: argument {flag}: expected a non-negative "
                          "integer, got ")
    assert err.count("\n") == 1 and len(err) < 200
    # A subcommand takes no flag for a cap it does not read.
    assert _run(["planar", fig4_file, "--max-k", "3"]) == (2, "")
    assert "unrecognized arguments: --max-k 3" in capsys.readouterr().err


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
               if name.startswith(("build_P", "enumerate_", "solve_", "transpose"))}

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
    # P1 and P6 are transposes of P2 and P5; the relaxations solve the same programs.
    assert calls == Counter(
        {"build_P2": 1, "build_P5": 1, "transpose": 2, "enumerate_cycles": 1,
         "enumerate_partial_cliques": 1, "solve_ilp": 3, "solve_lp": 4}
    )
