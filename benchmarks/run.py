"""Seeded end-to-end and per-layer benchmark of the indexcode CLI.

Usage, from the repository root:

    python3 benchmarks/run.py --workload bounds-planar --seed 0 --seconds 30 --trace 0

One client runs one instance at a time through `indexcode.cli.run` in this
process (a closed loop, no threads or pools), drawing instances from the
seeded generator in `gen.py` until `--seconds` have passed.  Every output
is checked by `gate.py`.  `--trace 0` reports the end-to-end metrics, in
reference seconds: each timing is rescaled by reference work timed right
around it (`calib.py`), because the speed of a shared host drifts;
`--trace 1` runs a fixed, seed-determined list of draws once untraced and
once traced and reports per-layer totals from the spans.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gate
import gen
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
SETUP_LAUNCHES = 7
TAIL_BEYOND = 10
# Traced runs use a fixed number of draws, so that every count repeats
# exactly: round(seconds * rate), with the rate set so that the untraced plus
# traced passes take about --seconds on a 2-core machine at the commit that
# introduced this benchmark.
TRACE_DRAWS_PER_S = {"bounds-planar": 1.0, "check-uniprior": 1.2, "simulate-decode": 2.5}

FIG1 = gen.instance_text(
    ["u1", "u2", "u3"],
    [("p1", 1, "u1", ("u2", "u3")), ("p2", 1, "u2", ("u3",)), ("p3", 1, "u3", ("u1",))],
)

END_TO_END_UNITS = {"setup_s": "s", "inst_per_s": "1/s", "inst_p50_s": "s", "inst_tail_s": "s"}


def import_cli():
    """`indexcode.cli` from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        from indexcode import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import indexcode from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: indexcode was imported from {cli.__file__}, not {SRC}")
    return cli


def run_draw(cli, draw, workdir: Path):
    """One timed `cli.run` call: (exit code, stdout text, seconds)."""
    path = workdir / f"{draw.index}.yaml"
    path.write_text(draw.text, encoding="utf-8")
    argv = [draw.argv[0], str(path), *draw.argv[1:]]
    out = io.StringIO()
    t0 = time.perf_counter()
    code = cli.run(argv, out)
    dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


def measure_setup(workdir: Path):
    """Median time of fresh `python -m indexcode bounds fig1` launches, each
    scaled by a reference launch made just before it (see `calib`), and the
    median in wall seconds."""
    path = workdir / "fig1.yaml"
    path.write_text(FIG1, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "indexcode", "bounds", str(path), "--format", "json"]
    times, raw, errors = [], [], []
    for _ in range(SETUP_LAUNCHES):
        ref = calib.launch_reference(env)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        dt = time.perf_counter() - t0
        times.append(dt * calib.REF_LAUNCH_S / ref)
        raw.append(dt)
        errs = gate.check("bounds", proc.returncode, proc.stdout, None)
        if not errs and json.loads(proc.stdout).get("valP1") != "2":
            errs = ["fig1 valP1 is not 2"]
        errors += errs
    return statistics.median(times), statistics.median(raw), errors


def pin_to_one_cpu():
    """Keep this process on one CPU, so that a draw and the calibrations
    around it run on the same core: the cores of a shared host differ in
    speed from moment to moment.  Returns the CPUs to restore afterwards,
    or None where affinity cannot be set."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        return None
    return cpus


def tail(times):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples
    beyond it, by nearest rank; the maximum when there are too few samples."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def report_errors(draw, errs):
    print(f"draw {draw.index} ({' '.join(draw.argv)}): {'; '.join(errs)}", file=sys.stderr)


def end_to_end(cli, workload, seed, seconds, workdir, expected):
    setup_s, setup_wall_s, setup_errors = measure_setup(workdir)
    cpus = pin_to_one_cpu()
    try:
        return _timed_draws(cli, workload, seed, seconds, workdir, expected,
                            setup_s, setup_wall_s, setup_errors)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def _timed_draws(cli, workload, seed, seconds, workdir, expected,
                 setup_s, setup_wall_s, setup_errors):
    warm = gen.Draw(-1, FIG1, gen.draw(workload, seed, 0).argv)
    run_draw(cli, warm, workdir)

    # Each draw starts after a full collection and a calibration; `timed`
    # and `cals` hold (start, seconds) pairs.
    timed, cals, draws, failed = [], [], [], 0

    def calibrate():
        gc.collect()
        cals.append((time.perf_counter(), calib.measure()))

    calibrate()
    t_start = time.perf_counter()
    for d in gen.stream(workload, seed):
        if draws and time.perf_counter() - t_start >= seconds:
            break
        start = time.perf_counter()
        code, text, dt = run_draw(cli, d, workdir)
        calibrate()
        timed.append((start, dt))
        draws.append(d)
        errs = gate.check(d.argv[0], code, text, expected.get(d.index))
        if errs:
            failed += 1
            report_errors(d, errs)
    elapsed = time.perf_counter() - t_start
    times = calib.scale(timed, cals)
    wall = [dt for _, dt in timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail_s, tail_pct, n = tail(times)
    if setup_errors:
        failed += 1
        print(f"setup: {'; '.join(setup_errors)}", file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "inst_per_s": n / sum(times),
        "inst_p50_s": statistics.median(times),
        "inst_tail_s": tail_s,
    }
    print(f"workload {workload} seed {seed}: {n} instances in {elapsed:.3f} s, "
          f"inputs sha256 {gen.digest(draws)}")
    print(f"inst_tail_s is p{tail_pct:.1f} of {n} samples "
          f"({min(n - 1, TAIL_BEYOND)} beyond it)")
    print(f"machine speed {statistics.median(times) / statistics.median(wall):.3f} of the "
          f"reference; as measured: setup {setup_wall_s:.4f} s, {n / elapsed:.4f} inst/s, "
          f"p50 {statistics.median(wall):.4f} s, tail {tail(wall)[0]:.4f} s")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB (not a gated metric: it is the largest of "
          f"the run's rare heavy draws)")
    print(f"failed_frac {failed / (n + 1):.4f} ({failed} of {n} instances + setup)")
    return n + 1, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


class LayerTotals:
    """Per-layer totals over the traced calls of a run."""

    def __init__(self):
        self.count = {}
        self.certificates = 0
        self.certificate_failures = 0

    def add(self, key, value):
        self.count[key] = self.count.get(key, 0) + value

    def observe(self, name, args, kwargs, result):
        if name.startswith("programs.build_"):
            self.add("programs.rows", len(result.constraints))
            self.add("programs.cols", result.num_vars)
        elif name == "lp.solve_ilp":
            self.add("lp.bb_nodes", result.branch_count)
        elif name == "enumeration.enumerate_cycles":
            self.add("enumeration.cycles_found", len(result))
            self.add("enumeration.cycle_rows", len({c.packet_set for c in result}))
        elif name == "enumeration.enumerate_partial_cliques":
            self.add("enumeration.cliques_found", len(result))
            self.add("enumeration.cliques_useful", sum(1 for t in result if t.k == 1 or t.d >= 1))
        elif name.startswith("coding.") and hasattr(result, "transmissions"):
            self.add("coding.transmissions", len(result.transmissions))
            self.count["coding.theta_max"] = max(self.count.get("coding.theta_max", 0),
                                                 result.theta)
        elif name == "simulate.simulate":
            inst, sched = args[0], args[1]
            default_size = sys.modules["indexcode.simulate"].DEFAULT_PAYLOAD_SIZE
            size = kwargs.get("payload_size", default_size)
            per_user = {u: sum(inst.packet(pid).weight for pid in inst.demanded_packets(u))
                        for u in inst.users}
            self.add("simulate.symbols", sum(p.weight for p in inst.packets) * sched.theta)
            self.add("simulate.decoded_bytes", sum(
                per_user[u] * sched.theta * size for u, ok in result.success.items() if ok))

    def check_certificates(self, calls, spans, verify):
        """Every top-level solve_lp result must carry a valid certificate;
        node solves inside solve_ilp carry bound overrides and are skipped."""
        for name, args, kwargs, result, sid in calls:
            if name != "lp.solve_lp" or len(args) > 1 or kwargs.get("_bound_overrides"):
                continue
            if tracing.has_ancestor(spans, sid, "lp.solve_ilp"):
                continue
            self.certificates += 1
            if not verify(args[0], result):
                self.certificate_failures += 1


def per_layer(cli, workload, seed, seconds, workdir, expected):
    n = max(2, round(seconds * TRACE_DRAWS_PER_S[workload]))
    draws = [gen.draw(workload, seed, i) for i in range(n)]
    warm = gen.Draw(-1, FIG1, draws[0].argv)
    run_draw(cli, warm, workdir)

    # The original function, called outside every span.
    verify = sys.modules["indexcode.lp"].verify_certificate
    tr = tracing.Tracer()
    totals = LayerTotals()
    untraced_s = traced_s = 0.0
    failed = 0
    for d in draws:
        results = {}
        for traced in ((False, True) if d.index % 2 == 0 else (True, False)):
            if traced:
                tr.instance = d.index
                with tr:
                    results[traced] = run_draw(cli, d, workdir)
                traced_s += results[traced][2]
            else:
                results[traced] = run_draw(cli, d, workdir)
                untraced_s += results[traced][2]
        calls = tr.take_calls()
        before = totals.certificate_failures
        totals.check_certificates(calls, tr.spans, verify)
        for name, args, kwargs, result, _ in calls:
            totals.observe(name, args, kwargs, result)
        code, text, _ = results[False]
        errs = gate.check(d.argv[0], code, text, expected.get(d.index))
        if results[True][:2] != (code, text):
            errs.append("traced output differs from untraced output")
        if totals.certificate_failures > before:
            errs.append("a solve_lp certificate failed verify_certificate")
        if errs:
            failed += 1
            report_errors(d, errs)

    spans = tr.spans
    own = tracing.self_times(spans)
    total_by_name, calls_by_name, self_by_name, self_by_layer = {}, {}, {}, {}
    for s in spans:
        total_by_name[s.name] = total_by_name.get(s.name, 0.0) + (s.end - s.start)
        calls_by_name[s.name] = calls_by_name.get(s.name, 0) + 1
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own[s.sid]
        layer = s.name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own[s.sid]

    def total(*names):
        return sum(total_by_name.get(x, 0.0) for x in names)

    def calls(*names):
        return sum(calls_by_name.get(x, 0) for x in names)

    builds = [x for x in calls_by_name if x.startswith("programs.build_")]
    schedules = [x for x in calls_by_name if x.startswith("coding.")]
    c = totals.count
    s, k, f, b = "s", "count", "frac", "B"
    metrics = {
        "lp.solve_lp_s": (total("lp.solve_lp"), s),
        "lp.solve_lp_calls": (calls("lp.solve_lp"), k),
        "lp.solve_ilp_self_s": (self_by_name.get("lp.solve_ilp", 0.0), s),
        "lp.solve_ilp_calls": (calls("lp.solve_ilp"), k),
        "lp.bb_nodes": (c.get("lp.bb_nodes", 0), k),
        "lp.certificates_checked": (totals.certificates, k),
        "enumeration.cycles_s": (total("enumeration.enumerate_cycles"), s),
        "enumeration.cycles_calls": (calls("enumeration.enumerate_cycles"), k),
        "enumeration.cycles_found": (c.get("enumeration.cycles_found", 0), k),
        "enumeration.cycle_rows_frac": (
            _ratio(c.get("enumeration.cycle_rows", 0), c.get("enumeration.cycles_found", 0)), f),
        "enumeration.cliques_s": (total("enumeration.enumerate_partial_cliques"), s),
        "enumeration.cliques_calls": (calls("enumeration.enumerate_partial_cliques"), k),
        "enumeration.cliques_found": (c.get("enumeration.cliques_found", 0), k),
        "enumeration.cliques_useful_frac": (
            _ratio(c.get("enumeration.cliques_useful", 0), c.get("enumeration.cliques_found", 0)),
            f),
        "programs.build_s": (total(*builds), s),
        "programs.build_calls": (calls(*builds), k),
        "programs.rows": (c.get("programs.rows", 0), k),
        "programs.cols": (c.get("programs.cols", 0), k),
        "programs.verify_duality_s": (total("programs.verify_duality"), s),
        "coding.expand_s": (total(*schedules), s),
        "coding.transmissions": (c.get("coding.transmissions", 0), k),
        "coding.theta_max": (c.get("coding.theta_max", 0), k),
        "gf256.mds_rows_s": (total("gf256.mds_rows"), s),
        "gf256.mds_rows_calls": (calls("gf256.mds_rows"), k),
        "simulate.simulate_s": (total("simulate.simulate"), s),
        "simulate.symbols": (c.get("simulate.symbols", 0), k),
        "simulate.decoded_bytes": (c.get("simulate.decoded_bytes", 0), b),
        "instance.parse_s": (total("instance.parse_instance"), s),
        "analysis.is_planar_s": (total("analysis.is_planar"), s),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (self_by_layer.get(layer, 0.0), s)
    metrics.update({
        "trace.instances": (n, k),
        "trace.spans": (len(spans), k),
        "trace.untraced_s": (untraced_s, s),
        "trace.traced_s": (traced_s, s),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, f),
    })

    trace_path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps([sp.sid, sp.name, sp.start, sp.end, sp.parent, sp.instance]))
            fh.write("\n")
    print(f"workload {workload} seed {seed}: {n} traced instances, inputs sha256 "
          f"{gen.digest(draws)}, {len(spans)} spans in {trace_path.relative_to(ROOT)}")
    layers = sorted(tracing.LAYERS, key=lambda x: -metrics[f"{x}.self_s"][0])
    print("self time by layer: " + ", ".join(
        f"{x} {metrics[f'{x}.self_s'][0]:.3f} s" for x in layers))
    return n, failed, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    cli = import_cli()
    expected = gate.load_expected(args.workload) if args.seed == DEFAULT_SEED else {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(cli, args.workload, args.seed, args.seconds,
                                             workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
