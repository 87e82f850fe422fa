"""Self-tests of the benchmark: generator, correctness gate and tracing.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

import calib
import gate
import gen
import run
import tracer as tracing

cli = run.import_cli()

import indexcode  # noqa: E402  (resolved from this checkout by import_cli)
from indexcode import analysis, lp  # noqa: E402


def _fig1(workdir):
    path = workdir / "fig1.yaml"
    path.write_text(run.FIG1, encoding="utf-8")
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = cli.run(argv, out)
    return code, out.getvalue()


_COUNTS_SNIPPET = """
import json, shutil, sys
sys.path.insert(0, sys.argv[1])
import gen, run
cli = run.import_cli()
out = {}
for w in sorted(gen.WORKLOADS):
    out[w + "/digest"] = gen.digest(gen.draw(w, 7, i) for i in range(20))
    workdir = run.OUT_DIR / f"selftest-{w}"
    workdir.mkdir(parents=True, exist_ok=True)
    seconds = 2.5 / run.TRACE_DRAWS_PER_S[w]
    _, failed, metrics = run.per_layer(cli, w, 7, seconds, workdir, {})
    shutil.rmtree(workdir)
    out[w + "/failed"] = failed
    for name, (value, unit) in metrics.items():
        if unit in ("count", "B", "frac") and name != "trace.overhead_frac":
            out[w + "/" + name] = value
print(json.dumps(out, sort_keys=True))
"""


def test_generator_and_counts_ignore_hash_seed():
    """Digests and every exact count agree under two PYTHONHASHSEED values."""
    results = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTS_SNIPPET, str(run.BENCH_DIR)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]
    assert all(results[0][f"{w}/failed"] == 0 for w in gen.WORKLOADS)
    assert results[0]["bounds-planar/lp.solve_lp_calls"] > 0


def test_draws_are_independent_of_stream_position():
    a = [d.text for d, _ in zip(gen.stream("bounds-planar", 3), range(5))]
    assert a == [gen.draw("bounds-planar", 3, i).text for i in range(5)]
    assert a != [gen.draw("bounds-planar", 4, i).text for i in range(5)]


def test_expected_outputs_match_and_altered_value_fails(tmp_path):
    expected = gate.load_expected("bounds-planar")
    d = gen.draw("bounds-planar", run.DEFAULT_SEED, 0)
    code, text, _ = run.run_draw(cli, d, tmp_path)
    assert gate.check("bounds", code, text, expected[0]) == []

    altered = json.loads(json.dumps(expected[0]))
    altered["output"]["valP1"] = "999"
    assert gate.check("bounds", code, text, altered) != []
    altered = dict(expected[0], exit=1)
    assert gate.check("bounds", code, text, altered) != []


def test_altered_expected_value_is_counted_in_failed(tmp_path):
    expected = gate.load_expected("check-uniprior")
    expected[0]["output"]["theorem2"] = False
    attempted, failed, _ = run.end_to_end(cli, "check-uniprior", run.DEFAULT_SEED, 0.01,
                                          tmp_path, expected)
    assert attempted >= 2 and failed == 1


def test_invariants_catch_bad_outputs():
    assert gate.invariant_errors("bounds", 0, {"chain_ok": False})
    assert gate.invariant_errors("bounds", 2, {"chain_ok": True})
    assert gate.invariant_errors("check", 0, {"theorem2": True, "theorem4": False})
    good = {"all_decoded": True, "clearance": "7/2", "transmissions": 7, "theta": 2}
    assert gate.invariant_errors("simulate", 0, good) == []
    assert gate.invariant_errors("simulate", 0, dict(good, clearance="4"))
    assert gate.invariant_errors("simulate", 0, dict(good, all_decoded=False))


def test_self_time_subtracts_time_covered_by_children():
    S = tracing.Span
    spans = [
        S(0, "cli.run", 0.0, 10.0, -1, 0),
        S(1, "analysis.bounds_report", 1.0, 9.0, 0, 0),
        S(2, "lp.solve_ilp", 2.0, 6.0, 1, 0),
        S(3, "lp.solve_lp", 2.5, 3.5, 2, 0),
        S(4, "lp.solve_lp", 4.0, 5.0, 2, 0),
        S(5, "lp.solve_lp", 7.0, 8.0, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0}
    assert sum(own.values()) == 10.0


def test_wrapper_catches_every_call_path(tmp_path):
    fig1 = _fig1(tmp_path)
    original_solve_ilp = lp.solve_ilp
    tr = tracing.Tracer()
    with tr:
        # Bound by `from .lp import solve_ilp` in analysis, and re-exported.
        assert analysis.solve_ilp is not original_solve_ilp
        assert indexcode.solve_ilp is analysis.solve_ilp is lp.solve_ilp
        _run(["bounds", fig1, "--format", "json"])  # cli -> analysis -> from-imported solve_ilp
        _run(["code", fig1, "--format", "json"])  # cli calls lp.solve_ilp as a module attribute
    assert analysis.solve_ilp is original_solve_ilp is lp.solve_ilp is indexcode.solve_ilp

    spans = tr.spans
    name = {s.sid: s.name for s in spans}
    parents = {(s.name, name.get(s.parent)) for s in spans}
    assert ("analysis.bounds_report", "cli.run") in parents
    assert ("lp.solve_ilp", "analysis.bounds_report") in parents  # from-imported name
    assert ("lp.solve_ilp", "cli.run") in parents  # module attribute
    assert ("lp.solve_lp", "lp.solve_ilp") in parents  # recursive, inside lp itself
    assert ("enumeration.enumerate_cycles", "cli.run") in parents
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end


def test_tracing_leaves_cli_output_byte_identical(tmp_path):
    argvs = [["bounds", _fig1(tmp_path), "--format", "json"]]
    for w in sorted(gen.WORKLOADS):
        d = gen.draw(w, 11, 1)
        path = tmp_path / f"{w}.yaml"
        path.write_text(d.text, encoding="utf-8")
        argvs.append([d.argv[0], str(path), *d.argv[1:]])
    for argv in argvs:
        plain = _run(argv)
        with tracing.Tracer():
            traced = _run(argv)
        assert plain == traced


def test_certificate_check_covers_top_level_solves_only(tmp_path):
    tr = tracing.Tracer()
    with tr:
        _run(["bounds", _fig1(tmp_path), "--format", "json"])
    totals = run.LayerTotals()
    calls = tr.take_calls()
    totals.check_certificates(calls, tr.spans, lp.verify_certificate)
    # bounds_report solves P1', P2' and P5' with solve_lp; the B&B node
    # solves of P1, P2 and P5 are excluded.
    assert totals.certificates == 3 and totals.certificate_failures == 0
    assert sum(1 for c in calls if c[0] == "lp.solve_lp") > 3


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


def test_scale_uses_mean_of_calibrations_within_window():
    # A 1 s draw from t = 10; only calibrations within WINDOW_S of it count.
    w = calib.WINDOW_S
    cals = [(9.0 - w, 0.5), (10.0 - w / 2, 0.004), (11.0 + w / 2, 0.012), (12.0 + w, 0.5)]
    assert calib.scale([(10.0, 1.0)], cals) == [pytest.approx(calib.REF_S / 0.008)]
