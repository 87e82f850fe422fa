"""Command-line front end: parse -> enumerate -> solve -> code -> simulate.

Subcommands: bounds, cycles, cliques, code, simulate, planar, check.
Instance files use the YAML mapping format of `indexcode.instance`.
A subcommand takes a flag only for each cap it reads, with its default in
`build_parser`.  `cliques` lists the whole clique family that P5 ranges
over, the singletons and the critical cliques inside one strong component,
and refuses a component over `enumeration.MAX_CLIQUE_SUBSETS` subsets as
every command that reads P5 does.  The packets alone in their strong
component are left out of every program and added to every value, and
`code` and `simulate` send them directly (`analysis.Analysis`).  `check`
proves each primal-dual pair from its covering optimum
(`Analysis.duality`).  A subcommand's `_cmd_*` returns its one document
and its exit code; `run` writes the document as JSON, or as the lines of
its `_text_*`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from . import analysis, coding, enumeration, lp
from .instance import InstanceError, parse_instance
from .simulate import simulate as _simulate


def _decimal(text: str, digits: str, kind: str) -> int:
    """`text` as an int when `digits`, its part after any sign, is ASCII
    decimal digits only."""
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than `int` converts
            pass
    shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
    raise argparse.ArgumentTypeError(f"expected {kind}, got {shown}")


def _cap(text: str) -> int:
    """A cap: a non-negative decimal integer."""
    return _decimal(text, text, "a non-negative integer")


def _seed(text: str) -> int:
    """A seed: a decimal integer, with an optional leading '-'."""
    return _decimal(text, text.removeprefix("-"), "an integer")


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise InstanceError(str(exc)) from None
    return parse_instance(text)


def _cmd_planar(args, inst):
    return {"planar": analysis.is_planar(inst)}, 0


def _text_planar(doc):
    return [f"planar: {'true' if doc['planar'] else 'false'}"]


def _cmd_cycles(args, inst):
    cycles = enumeration.enumerate_cycles(inst, max_cycles=args.max_cycles)
    return [{"packets": list(c.packets), "users": list(c.users)} for c in cycles], 0


def _text_cycles(doc):
    return [" -> ".join(x for pair in zip(c["packets"], c["users"]) for x in pair)
            for c in doc] + [f"total: {len(doc)} cycles"]


def _cmd_cliques(args, inst):
    cliques = enumeration.enumerate_partial_cliques(inst)
    return [{"packets": sorted(t.packets), "k": t.k, "d": t.d} for t in cliques], 0


def _text_cliques(doc):
    return [f"({t['k']},{t['d']}): {' '.join(t['packets'])}"
            for t in doc] + [f"total: {len(doc)} partial cliques"]


def _cmd_bounds(args, inst):
    rep = analysis.bounds_report(inst, args.max_cycles, args.node_limit)
    values = ("valP1", "valP1_relaxed", "valP2", "valP2_relaxed", "valP5", "valP5_relaxed",
              "gap_P1", "gap_P2", "gap_P5")
    return {"W": rep.W, **{k: str(getattr(rep, k)) for k in values}, "planar": rep.planar,
            "chain_ok": rep.chain_ok, "exact_optimal": rep.exact_optimal}, 0


def _text_bounds(doc):
    lines = [f"{k}: {v}" for k, v in doc.items()]
    if doc["exact_optimal"]:
        lines.append("OPTIMAL (planar)" if doc["planar"] else "OPTIMAL (bounds met)")
    return lines


def _make_schedule(inst, args):
    a = analysis.Analysis(inst, args.max_cycles, args.node_limit)
    name = "P2" if args.strategy == "cyclic" else "P5"
    res = a.solve(name + "'" if args.mode == "vector" else name)
    expand = coding.cyclic_schedule if args.strategy == "cyclic" else coding.clique_schedule
    return expand(inst, res)


def _cmd_code(args, inst):
    return _make_schedule(inst, args).to_doc(), 0


def _text_code(doc):
    terms = [" + ".join((f"{coef}*" if coef != 1 else "") + sym for sym, coef in t.items())
             for t in doc["transmissions"]]
    return [f"field={doc['field']} theta={doc['theta']} transmissions={len(terms)} "
            f"clearance={doc['total_count']}"] + ["  " + t for t in terms]


def _cmd_simulate(args, inst):
    sched = _make_schedule(inst, args)
    report = _simulate(inst, sched, seed=args.seed)
    return {
        "theta": report.theta,
        "transmissions": report.transmissions,
        "clearance": str(sched.total_count),
        "users": report.success,
        "all_decoded": report.all_decoded,
    }, 0 if report.all_decoded else 1


def _text_simulate(doc):
    return [f"{u}: {'decoded' if ok else 'FAILED'}" for u, ok in doc["users"].items()] + [
        f"{'success' if doc['all_decoded'] else 'FAILURE'}: {doc['transmissions']} "
        f"transmissions, theta={doc['theta']}, clearance={doc['clearance']}"]


def _cmd_check(args, inst):
    a = analysis.Analysis(inst, args.max_cycles, args.node_limit)
    a.cliques  # a clique core over its cap is refused before any cycle is enumerated
    results = {
        "cyclic_duality": a.duality("P2"),
        "clique_duality": a.duality("P5"),
        "theorem2": a.theorem2().holds is not False,
    }
    # A theorem whose hypotheses fail is left out; Corollary 2 is checked only
    # where Theorem 4's hold.
    try:
        results["theorem4"] = a.theorem4()
        results["corollary2"] = a.corollary2()
    except analysis.PreconditionError:
        pass
    return results, 0 if all(results.values()) else 1


def _text_check(doc):
    return [f"{name}: {'pass' if passed else 'FAIL'}" for name, passed in doc.items()]


class _Parser(argparse.ArgumentParser):
    """An argument parser (subcommands included) that reports a bad argument
    as one line on stderr, without the usage lines, and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    p = _Parser(
        prog="indexcode",
        description="Exact bounds and coding schedules for broadcast with side information",
    )
    sub = p.add_subparsers(dest="command", required=True)
    defaults = {"max_cycles": enumeration.DEFAULT_MAX_CYCLES,
                "node_limit": lp.DEFAULT_NODE_LIMIT}
    solve_caps = ["max_cycles", "node_limit"]
    for name, fn, text, caps in [
        ("bounds", _cmd_bounds, _text_bounds, solve_caps),
        ("cycles", _cmd_cycles, _text_cycles, ["max_cycles"]),
        ("cliques", _cmd_cliques, _text_cliques, []),
        ("planar", _cmd_planar, _text_planar, []),
        ("check", _cmd_check, _text_check, solve_caps),
        ("code", _cmd_code, _text_code, solve_caps),
        ("simulate", _cmd_simulate, _text_simulate, solve_caps),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("instance", help="instance file path")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        for dest in caps:
            sp.add_argument("--" + dest.replace("_", "-"), type=_cap, default=defaults[dest])
        if name in ("code", "simulate"):
            sp.add_argument("--strategy", choices=["cyclic", "partial-clique"], default="cyclic")
            sp.add_argument("--mode", choices=["scalar", "vector"], default="scalar")
            sp.add_argument("--seed", type=_seed, default=0)
        sp.set_defaults(fn=fn, text=text)
    return p


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(out):  # where argparse prints --help
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, code = args.fn(args, _load(args.instance))
    except (InstanceError, enumeration.CapExceeded, lp.NodeLimitExceeded,
            analysis.SolveError, coding.ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        out.write(json.dumps(doc, indent=2 if args.command == "code" else None) + "\n")
    else:
        out.write("".join(line + "\n" for line in args.text(doc)))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
