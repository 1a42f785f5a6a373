"""Record the reference outputs that ``check.py`` compares against.

Usage (from the repository root):

    python3 bench/record_reference.py --workload fit_matrix --seeds 0-31

Runs one CLI call per seed, checks its invariants, and writes every output
file's text to ``bench/reference/<workload>.json``.  The references are
recorded once, from the code the benchmark was defined on; a change that
claims a speed-up must reproduce them, so re-recording them is a change of
the benchmark, not of the program.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ROOT, Runner
import check


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(check.OUTPUTS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    seeds = {}
    for seed in _seeds(args.seeds):
        workdir = ROOT / ".bench_work" / f"record-{args.workload}-{seed}"
        try:
            runner = Runner(args.workload, seed, workdir)
            runner.reference = None
            if runner.call() is None:
                print(f"seed {seed}: the call failed its checks", file=sys.stderr)
                return 1
            seeds[str(seed)] = runner.first_outputs
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{args.workload} seed {seed}: recorded", file=sys.stderr)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    path = check.REFERENCE_DIR / f"{args.workload}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
