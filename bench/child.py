"""One CLI call in a fresh interpreter, timed from the inside.

Usage: ``python3 bench/child.py REQUEST.json RESULT.json``.  The request
holds ``argv`` (the ``bootsmooth`` arguments) and ``trace`` (a path for the
span dump, or null).  The result
holds the exit code, ``setup_s`` (the import of ``bootsmooth.cli``, which
every CLI call pays), ``wall_s`` (the call of ``cli.main``),
``peak_rss_mb`` (``ru_maxrss`` of this process) and ``calibration_s``, the
time of a fixed numpy kernel run just before and just after the call.

Only the standard library is imported before the timed import, so numpy and
scipy load inside it.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        request = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import bootsmooth.cli as cli

    setup_s = perf_counter() - t0
    before = calibration_seconds()
    result = {"setup_s": setup_s, **_call(cli.main, request)}
    result["calibration_s"] = [before, calibration_seconds()]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


CALIBRATION_ITERATIONS = 4000


def calibration_seconds() -> float:
    """Seconds for a fixed numpy kernel shaped like the program's inner loop.

    Each iteration builds a seeded generator, draws a small block and takes
    the singular values of a 30 x 21 matrix, as one bootstrap replicate does.
    The program is not involved, so only the host's speed moves this time.
    """
    import numpy as np

    base = np.linspace(-1.0, 1.0, 30 * 21).reshape(30, 21)
    t0 = perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        draw = np.random.default_rng([7, i]).standard_normal((30, 4))
        np.linalg.svd(base + draw[:, :1], compute_uv=False)
        base.T @ draw
    return perf_counter() - t0


def _call(run, request: dict) -> dict:
    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(ROOT / "bench"))
        from tracer import MAIN_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(MAIN_SPAN, run)
    t1 = perf_counter()
    code = run(list(request["argv"]))
    wall_s = perf_counter() - t1
    if tracer is not None:
        tracer.write(request["trace"])
    return {
        "exit_code": code,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
