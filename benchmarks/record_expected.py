"""Record the expected exit code and JSON output of the default-seed draws.

    python3 benchmarks/record_expected.py [workload ...]

Writes `benchmarks/expected/<workload>.jsonl`, one line per draw, for the
first RECORDED[workload] draws of seed `run.DEFAULT_SEED`: more than a
30 s run completes at the recording commit.  Draws beyond them are
checked by invariants only.  Re-record only when a change
is meant to alter CLI output, and say so in its description.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

RECORDED = {"bounds-planar": 150, "check-uniprior": 150, "simulate-decode": 320}


def record(cli, workload: str) -> None:
    workdir = run.OUT_DIR / f"record-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    path = run.gate.EXPECTED_DIR / f"{workload}.jsonl"
    path.parent.mkdir(exist_ok=True)
    try:
        lines = []
        for i in range(RECORDED[workload]):
            d = run.gen.draw(workload, run.DEFAULT_SEED, i)
            code, text, _ = run.run_draw(cli, d, workdir)
            errs = run.gate.check(d.argv[0], code, text, None)
            if errs:
                raise SystemExit(f"{workload} draw {i} fails its invariant: {errs}")
            lines.append(json.dumps({"index": i, "exit": code, "output": json.loads(text)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{path}: {len(lines)} draws")


def main(argv) -> int:
    cli = run.import_cli()
    for workload in argv or sorted(RECORDED):
        record(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
