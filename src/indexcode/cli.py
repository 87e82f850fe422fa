"""Command-line front end: parse -> enumerate -> solve -> code -> simulate.

Subcommands: bounds, cycles, cliques, code, simulate, planar, check.
Instance files use the YAML mapping format of `indexcode.instance`.
A subcommand takes a flag only for each cap it reads (see `build_parser`);
INDEXCODE_MAX_CYCLES, INDEXCODE_MAX_K and INDEXCODE_NODE_LIMIT set the
defaults and are all checked on every call.  Only `cliques` reads a clique
size cap, and it lists the whole clique family unless one is set: P5 and
P6 always range over the whole family.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import analysis, coding, enumeration, lp
from .instance import InstanceError, is_uniprior, parse_instance
from .simulate import simulate as _simulate


def _cap(text: str) -> int:
    """A cap: a non-negative decimal integer."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than `int` converts
            pass
    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {shown}")


# (argument dest, environment variable, default) of each cap flag; None is
# no cap.
_CAPS = (
    ("max_cycles", "INDEXCODE_MAX_CYCLES", enumeration.DEFAULT_MAX_CYCLES),
    ("max_k", "INDEXCODE_MAX_K", None),
    ("node_limit", "INDEXCODE_NODE_LIMIT", lp.DEFAULT_NODE_LIMIT),
)


def _env_cap(name: str, default: int | None) -> int | None:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return _cap(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{name}: {exc}") from None


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise InstanceError(str(exc)) from None
    return parse_instance(text)


def _cmd_planar(args, out):
    inst = _load(args.instance)
    planar = analysis.is_planar(inst)
    if args.format == "json":
        json.dump({"planar": planar}, out)
        out.write("\n")
    else:
        out.write(f"planar: {'true' if planar else 'false'}\n")
    return 0


def _cmd_cycles(args, out):
    inst = _load(args.instance)
    cycles = enumeration.enumerate_cycles(inst, max_cycles=args.max_cycles)
    if args.format == "json":
        json.dump(
            [{"packets": list(c.packets), "users": list(c.users)} for c in cycles], out
        )
        out.write("\n")
    else:
        for c in cycles:
            out.write(" -> ".join(
                x for pair in zip(c.packets, c.users) for x in pair
            ) + "\n")
        out.write(f"total: {len(cycles)} cycles\n")
    return 0


def _cmd_cliques(args, out):
    inst = _load(args.instance)
    cliques = enumeration.enumerate_partial_cliques(inst, max_k=args.max_k)
    if args.format == "json":
        json.dump(
            [{"packets": sorted(t.packets), "k": t.k, "d": t.d} for t in cliques], out
        )
        out.write("\n")
    else:
        for t in cliques:
            out.write(f"({t.k},{t.d}): {' '.join(sorted(t.packets))}\n")
        out.write(f"total: {len(cliques)} partial cliques\n")
    return 0


def _cmd_bounds(args, out):
    inst = _load(args.instance)
    rep = analysis.bounds_report(inst, args.max_cycles, args.node_limit)
    fields = {
        "W": rep.W,
        "valP1": str(rep.valP1),
        "valP1_relaxed": str(rep.valP1_relaxed),
        "valP2": str(rep.valP2),
        "valP2_relaxed": str(rep.valP2_relaxed),
        "valP5": str(rep.valP5),
        "valP5_relaxed": str(rep.valP5_relaxed),
        "gap_P1": str(rep.gap_P1),
        "gap_P2": str(rep.gap_P2),
        "gap_P5": str(rep.gap_P5),
        "planar": rep.planar,
        "chain_ok": rep.chain_ok,
        "exact_optimal": rep.exact_optimal,
    }
    if args.format == "json":
        json.dump(fields, out)
        out.write("\n")
    else:
        for k, v in fields.items():
            out.write(f"{k}: {v}\n")
        if rep.exact_optimal:
            out.write("OPTIMAL (planar)\n" if rep.planar else "OPTIMAL (bounds met)\n")
    return 0


def _make_schedule(inst, args):
    a = analysis.Analysis(inst, args.max_cycles, args.node_limit)
    name = "P2" if args.strategy == "cyclic" else "P5"
    res = a.solve(name + "'" if args.mode == "vector" else name)
    expand = coding.cyclic_schedule if args.strategy == "cyclic" else coding.clique_schedule
    return expand(inst, res)


def _cmd_code(args, out):
    inst = _load(args.instance)
    sched = _make_schedule(inst, args)
    if args.format == "json":
        out.write(sched.to_json())
        out.write("\n")
    else:
        out.write(
            f"field={sched.field_name} theta={sched.theta} "
            f"transmissions={len(sched.transmissions)} "
            f"clearance={sched.total_count}\n"
        )
        for t in sched.transmissions:
            terms = " + ".join(
                (f"{coef}*" if coef != 1 else "") + f"{pid}/{unit}"
                for (pid, unit), coef in t.coeffs
            )
            out.write(f"  {terms}\n")
    return 0


def _cmd_simulate(args, out):
    inst = _load(args.instance)
    sched = _make_schedule(inst, args)
    report = _simulate(inst, sched, seed=args.seed, raise_on_failure=False)
    doc = {
        "theta": report.theta,
        "transmissions": report.transmissions,
        "clearance": str(sched.total_count),
        "users": report.success,
        "all_decoded": report.all_decoded,
    }
    if args.format == "json":
        json.dump(doc, out)
        out.write("\n")
    else:
        for u, ok in report.success.items():
            out.write(f"{u}: {'decoded' if ok else 'FAILED'}\n")
        out.write(
            f"{'success' if report.all_decoded else 'FAILURE'}: "
            f"{report.transmissions} transmissions, theta={report.theta}, "
            f"clearance={sched.total_count}\n"
        )
    return 0 if report.all_decoded else 1


def _cmd_check(args, out):
    inst = _load(args.instance)
    a = analysis.Analysis(inst, args.max_cycles, args.node_limit)
    results = {
        "cyclic_duality": a.duality("P1'", "P2'"),
        "clique_duality": a.duality("P6'", "P5'"),
        "theorem2": a.theorem2().holds is not False,
    }
    if is_uniprior(inst, strict=True):
        results["theorem4"] = a.theorem4()
        if len(inst.users) <= 4:
            results["corollary2"] = a.corollary2()
    ok = all(results.values())
    if args.format == "json":
        json.dump(results, out)
        out.write("\n")
    else:
        for name, passed in results.items():
            out.write(f"{name}: {'pass' if passed else 'FAIL'}\n")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser (subcommands included) that reports a bad argument
    as one line on stderr, without the usage lines, and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  A cap flag that is not
    given parses as None; `run` fills it in from the environment."""
    p = _Parser(
        prog="indexcode",
        description="Exact bounds and coding schedules for broadcast with side information",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, caps):
        sp.add_argument("instance", help="instance file path")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        for dest in caps:
            sp.add_argument("--" + dest.replace("_", "-"), type=_cap)

    solve_caps = ["max_cycles", "node_limit"]
    for name, fn, caps in [
        ("bounds", _cmd_bounds, solve_caps), ("cycles", _cmd_cycles, ["max_cycles"]),
        ("cliques", _cmd_cliques, ["max_k"]), ("planar", _cmd_planar, []),
        ("check", _cmd_check, solve_caps),
    ]:
        sp = sub.add_parser(name)
        common(sp, caps)
        sp.set_defaults(fn=fn)
    for name, fn in [("code", _cmd_code), ("simulate", _cmd_simulate)]:
        sp = sub.add_parser(name)
        common(sp, solve_caps)
        sp.add_argument("--strategy", choices=["cyclic", "partial-clique"], default="cyclic")
        sp.add_argument("--mode", choices=["scalar", "vector"], default="scalar")
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(fn=fn)
    return p


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        # The environment is read on every call, and before argv, as a bad
        # INDEXCODE_* cap is an error even where a flag overrides it.
        env = {dest: _env_cap(var, default) for dest, var, default in _CAPS}
        args = build_parser().parse_args(argv)
    except argparse.ArgumentTypeError as exc:  # a bad INDEXCODE_* cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    for dest, value in env.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    try:
        return args.fn(args, out)
    except (InstanceError, enumeration.CapExceeded, lp.NodeLimitExceeded,
            analysis.PreconditionError, analysis.SolveError, coding.ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
