"""Self-test of the benchmark itself.

Usage (from the repository root): ``python3 bench/selftest.py``.

1. Two traced fit_matrix calls on one seed give identical span call
   counts, and the counts the config implies: 600 CV cells, 601 smoothing
   fits (600 cells plus the final fit) and 60,500 replicate generators.
2. The output check accepts the call's own outputs and rejects a
   ``report.csv`` with one digit changed: a leading digit against the
   reference, the last digit against the first call of the run.
3. In a directory holding only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits non-zero without printing a result.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import tracer
from run import ROOT, Runner

SEED = 0
EXPECTED_CALLS = {
    "tuning.cv_cell_error.calls": 600,
    "smoothing.pbs_fit.calls": 601,
    "rng.generator.calls": 60_500,
}


def _perturb_digit(text: str, column: str, leading: bool) -> str:
    """Change one digit of ``column`` in the first data row of a CSV text."""
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cell = cells[header.index(column)]
    positions = [i for i, ch in enumerate(cell) if ch.isdigit()]
    pos = positions[0] if leading else positions[-1]
    digit = str((int(cell[pos]) + 1) % 10)
    cells[header.index(column)] = cell[:pos] + digit + cell[pos + 1 :]
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def _expect_rejected(label: str, texts, first, reference) -> None:
    try:
        check.check_call(texts, first, reference)
    except check.CheckError as exc:
        print(f"selftest: {label}: rejected ({exc})")
        return
    raise SystemExit(f"selftest: {label}: the check accepted a perturbed report.csv")


def span_counts(workdir) -> dict:
    runner = Runner("fit_matrix", SEED, workdir)
    counts = []
    for i in range(2):
        path = workdir / f"spans{i}.json"
        if runner.call(path) is None:
            raise SystemExit("selftest: a traced fit_matrix call failed its output check")
        summary = tracer.summarize(json.loads(path.read_text()))
        counts.append({k: v for k, v in summary.items() if k.endswith(".calls")})
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0] if counts[0][k] != counts[1].get(k)}
        raise SystemExit(f"selftest: span counts differ between traced runs: {diff}")
    for key, want in EXPECTED_CALLS.items():
        if counts[0][key] != want:
            raise SystemExit(f"selftest: {key} = {counts[0][key]}, expected {want}")
    print(f"selftest: span counts repeat exactly ({len(counts[0])} spans); {EXPECTED_CALLS}")
    return runner


def output_check(runner: Runner) -> None:
    texts = runner.first_outputs
    reference = runner.reference
    if reference is None:
        raise SystemExit(f"selftest: no reference recorded for fit_matrix seed {SEED}")
    check.check_call(texts, texts, reference)
    print("selftest: unperturbed outputs pass against the reference")
    leading = dict(texts, **{"report.csv": _perturb_digit(texts["report.csv"], "prediction", True)})
    _expect_rejected("leading digit vs reference", leading, None, reference)
    last = dict(texts, **{"report.csv": _perturb_digit(texts["report.csv"], "prediction", False)})
    _expect_rejected("last digit vs first call", last, texts, None)


def bare_directory(workdir) -> None:
    bare = workdir / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "sweep_wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("selftest: the benchmark ran without the program's sources")
    print(f"selftest: bare directory exits {proc.returncode} without a result")


def main() -> int:
    workdir = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = span_counts(workdir)
        output_check(runner)
        bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
