"""Correctness gate: every CLI result is checked, outside the timed calls.

Two checks apply to each draw:

* an invariant for the subcommand, on every seed;
* on the default seed, equality with the exit code and JSON output recorded
  in `expected/<workload>.jsonl`.  Only the recorded keys are compared, so a
  later release may add keys (a `stats` block, say) without failing the gate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def invariant_errors(subcommand: str, code: int, doc) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if not isinstance(doc, dict):
        return ["output is not a JSON object"]
    if subcommand == "bounds":
        return [] if doc.get("chain_ok") is True else ["chain_ok is not true"]
    if subcommand == "check":
        if not doc:
            return ["no checks reported"]
        return [f"check {k} did not pass" for k, v in sorted(doc.items()) if v is not True]
    if subcommand == "simulate":
        errs = []
        if doc.get("all_decoded") is not True:
            errs.append("all_decoded is not true")
        try:
            clearance = Fraction(doc["clearance"])
            ratio = Fraction(doc["transmissions"], doc["theta"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return errs + ["clearance/transmissions/theta missing or malformed"]
        if clearance != ratio:
            errs.append(f"clearance {clearance} != transmissions/theta {ratio}")
        return errs
    return [f"no invariant for subcommand {subcommand!r}"]


def expected_errors(expected: dict, code: int, doc) -> list[str]:
    """Mismatches against one recorded {"exit": int, "output": {...}} entry."""
    errs = []
    if code != expected["exit"]:
        errs.append(f"exit code {code}, expected {expected['exit']}")
    if not isinstance(doc, dict):
        return errs + ["output is not a JSON object"]
    for key, want in expected["output"].items():
        if key not in doc:
            errs.append(f"missing key {key!r}")
        elif doc[key] != want:
            errs.append(f"{key}: {doc[key]!r}, expected {want!r}")
    return errs


def check(subcommand: str, code: int, text: str, expected: dict | None) -> list[str]:
    """All errors for one draw; an empty list means the draw is correct."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    errs = invariant_errors(subcommand, code, doc)
    if expected is not None:
        errs += expected_errors(expected, code, doc)
    return errs


def load_expected(workload: str) -> dict[int, dict]:
    path = EXPECTED_DIR / f"{workload}.jsonl"
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            out[rec["index"]] = rec
    return out
