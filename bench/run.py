"""bootsmooth benchmark: seeded CLI workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload simulate --seed 1 --seconds 55 --trace 0

The workload's inputs are generated from ``--seed``.  One client runs one
CLI command at a time (closed loop, batch traffic), each in a fresh
interpreter at ``--threads 1`` with BLAS pinned to one thread, until the
next call would end past ``--seconds`` (at least ``MIN_CALLS`` calls).
Every call's outputs are checked (see ``check.py``); a call that fails
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics, medians over the calls:
``setup_s`` (import of ``bootsmooth.cli``), ``wall_s`` (``cli.main``),
``replicates_per_s`` and ``peak_rss_mb``.  The two times are taken at the
host's undisturbed speed: each call's time is divided by the slowdown that
a calibration kernel measured just before and after it (``child.py``).

``--trace 1`` makes one untraced call, one traced call (``tracer.py``) and
the layer probes (``probes.py``), and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the output fingerprints and the raw samples.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 3
MAX_CALLS = 200
CALL_TIMEOUT_S = 120
# Seconds that child.calibration_seconds() takes on an undisturbed host of
# the machine the benchmark was defined on (2 vCPUs of a shared Xeon host).
CALIBRATION_REF_S = 0.2
# The program and numpy run single-threaded: one client, one core of work.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PERCENTILE_SPANS = (
    "smoothing.pbs_fit",
    "tuning.cv_cell_error",
    "selection.svd",
    "forecast.evaluate_fixed_distribution",
)


class Aborted(Exception):
    """The benchmark cannot run at all here; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )


class Runner:
    """Runs and checks the CLI calls of one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.invocation, self.outdir = workloads.prepare(workload, seed, workdir)
        self.reference = check.load_reference(workload, seed)
        self.first_outputs: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[str, str] = {}

    def _child(self, argv: list[str], trace_path: Path | None) -> dict | None:
        request = self.workdir / "request.json"
        result = self.workdir / "result.json"
        result.unlink(missing_ok=True)
        request.write_text(
            json.dumps({"argv": argv, "trace": None if trace_path is None else str(trace_path)})
        )
        try:
            proc = _spawn([str(BENCH / "child.py"), str(request), str(result)])
        except subprocess.TimeoutExpired:
            print(f"bench: child killed after {CALL_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.is_file():
            if "No module named 'bootsmooth" in proc.stderr:
                raise Aborted("bootsmooth is not importable from src/")
            print(f"bench: child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def call(self, trace_path: Path | None = None) -> dict | None:
        """One checked CLI call.

        Returns its timings with ``passed`` set by the output check, or None
        when the child produced no timings at all.
        """
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        sample = self._child(list(self.invocation.argv), trace_path)
        try:
            if sample is None:
                raise check.CheckError("the call produced no result")
            if sample["exit_code"] != 0:
                raise check.CheckError(f"exit code {sample['exit_code']}")
            texts = check.read_outputs(self.workload, self.outdir)
            check.check_call(texts, self.first_outputs, self.reference)
        except check.CheckError as exc:
            self.failed += 1
            print(f"bench: {self.workload}: output check failed: {exc}", file=sys.stderr)
            if sample is not None:
                sample["passed"] = False
            return sample
        if self.first_outputs is None:
            self.first_outputs = texts
            self.fingerprints = check.fingerprints(texts)
        sample["passed"] = True
        return sample


def _slowdown(sample: dict) -> float:
    """How much slower than undisturbed the host ran around one call."""
    return statistics.fmean(sample["calibration_s"]) / CALIBRATION_REF_S


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples = []
    start = perf_counter()
    while runner.attempted < MAX_CALLS:
        sample = runner.call()
        if sample is not None and sample["passed"]:
            samples.append(sample)
        elapsed = perf_counter() - start
        per_call = elapsed / runner.attempted
        if runner.attempted >= MIN_CALLS and elapsed + per_call > seconds:
            break
    if not samples:
        raise Aborted("no call succeeded")
    # Other tenants of a shared host slow its CPU by up to 2x, in stretches
    # from under a second to minutes, so raw times of runs minutes apart
    # differ by more than any bound.  Each call's times are divided by the
    # host's slowdown around it, which the calibration kernel measures.
    wall = statistics.median(s["wall_s"] / _slowdown(s) for s in samples)
    setup = statistics.median(s["setup_s"] / _slowdown(s) for s in samples)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "replicates_per_s": (runner.invocation.replicates / wall, "1/s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
    }
    return metrics, {"calls": samples}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("overhead_ratio"):
        return "ratio"
    return "count"


def traced_run(runner: Runner, seed: int) -> tuple[dict, dict]:
    plain = runner.call()
    trace_path = runner.workdir / "spans.json"
    traced = runner.call(trace_path)
    if plain is None or traced is None:
        raise Aborted("the untraced or the traced call produced no timings")
    spans = json.loads(trace_path.read_text())
    values = tracer.summarize(spans, PERCENTILE_SPANS)
    values["trace.overhead_ratio"] = (traced["wall_s"] / _slowdown(traced)) / (
        plain["wall_s"] / _slowdown(plain)
    )
    probe_path = runner.workdir / "probes.json"
    proc = _spawn([str(BENCH / "probes.py"), str(seed), str(probe_path)])
    if proc.returncode != 0:
        raise Aborted(f"layer probes failed: {proc.stderr.strip()[-500:]}")
    probes = json.loads(probe_path.read_text())
    values.update({k: v for k, v in probes.items() if not k.endswith(".samples")})
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    info = {
        "untraced": plain,
        "traced": traced,
        "probe_samples": {k: v for k, v in probes.items() if k.endswith(".samples")},
    }
    return metrics, info


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bootsmooth" / "cli.py").is_file():
        print("bench: src/bootsmooth is missing; nothing to measure", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            metrics, samples = traced_run(runner, args.seed)
        else:
            metrics, samples = timed_run(runner, args.seconds)
    except Aborted as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "replicates_per_call": runner.invocation.replicates,
        "reference": "checked" if runner.reference is not None else "absent for this seed",
        "fingerprints": runner.fingerprints,
        "environment": environment(),
        "samples": samples,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
