"""Output check for one benchmark CLI call.

A call passes when it exits 0 and

* every number it emits is finite, every interval has
  ``lower <= prediction <= upper``, and study selection shares lie on the
  simplex;
* its files are byte-identical to those of the run's first call (reruns
  are byte-identical by contract);
* when ``reference/<workload>.json`` holds the seed, every emitted number
  agrees with the reference to 1e-9 relative, the selected ``(sigma2,
  gamma)`` is identical, and every non-numeric field is equal.

The reference was recorded with ``record_reference.py``.  Replicate ``b``
owns stream ``(seed, b)``, so a change of stream shows here as a failure,
not as a speed-up.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

OUTPUTS = {
    "fit_matrix": ("report.csv", "surface.csv", "summary.json"),
    "simulate": ("study_mse.csv", "study_freq.csv", "summary.json"),
    "fit_demand": ("report.csv", "summary.json"),
    "sweep_wide": ("sweep.csv", "summary.json"),
}
# Fingerprinted for information only.
FINGERPRINTED = ("report.csv", "study_mse.csv", "study_freq.csv", "sweep.csv")
# Fields compared exactly: the selected resampling distribution.
EXACT_COLUMNS = ("sigma2", "gamma")
EXACT_KEYS = ("selected_sigma2", "selected_gamma")

REL_TOL = 1e-9
ABS_TOL = 1e-12  # only for values that are zero in the reference
SIMPLEX_TOL = 1e-12


class CheckError(Exception):
    """An output failed the check; the message says where."""


def read_outputs(workload: str, outdir: Path) -> dict[str, str]:
    texts = {}
    for name in OUTPUTS[workload]:
        path = outdir / name
        if not path.is_file():
            raise CheckError(f"missing output {name}")
        texts[name] = path.read_text()
    return texts


def fingerprints(texts: dict[str, str]) -> dict[str, str]:
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in texts.items()
        if name in FINGERPRINTED
    }


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _finite(where: str, value: float) -> None:
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {value!r}")


def _json_leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _json_leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _check_csv(name: str, rows: list[list[str]]) -> None:
    header = rows[0]
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CheckError(f"{name}:{r}: {len(row)} fields, header has {len(header)}")
        for col, cell in zip(header, row):
            if col == "target" or cell == "":
                continue
            value = _number(cell)
            if value is None:
                raise CheckError(f"{name}:{r}: {col} is not a number: {cell!r}")
            _finite(f"{name}:{r}:{col}", value)
        named = dict(zip(header, row))
        for lo, mid, hi in (
            ("lower", "prediction", "upper"),
            ("ridge_lower", "ridge_prediction", "ridge_upper"),
        ):
            if lo in named and not (
                float(named[lo]) <= float(named[mid]) <= float(named[hi])
            ):
                raise CheckError(f"{name}:{r}: {mid} outside [{lo}, {hi}]")


def _check_simplex(rows: list[list[str]]) -> None:
    totals: dict[tuple[str, str], float] = {}
    for r, (s2, g, _mid, value) in enumerate(rows[1:], start=2):
        v = float(value)
        if not 0.0 <= v <= 1.0:
            raise CheckError(f"study_freq.csv:{r}: share {v} outside [0, 1]")
        totals[(s2, g)] = totals.get((s2, g), 0.0) + v
    for cell, total in totals.items():
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise CheckError(f"study_freq.csv: shares of cell {cell} sum to {total!r}")


def check_invariants(texts: dict[str, str]) -> None:
    """Finite numbers, ordered intervals and simplex shares."""
    for name, text in texts.items():
        if name.endswith(".json"):
            for where, value in _json_leaves(json.loads(text)):
                if isinstance(value, float):
                    _finite(f"{name}:{where}", value)
            continue
        rows = _rows(text)
        if not rows:
            raise CheckError(f"{name} is empty")
        _check_csv(name, rows)
        if name == "study_freq.csv":
            _check_simplex(rows)


def _agree(where: str, got: str, want: str, exact: bool) -> None:
    g, w = _number(got), _number(want)
    if g is None or w is None:
        if got != want:
            raise CheckError(f"{where}: {got!r} differs from reference {want!r}")
        return
    if exact:
        if g != w:
            raise CheckError(f"{where}: {got} differs from reference {want}")
    elif not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL if w == 0.0 else 0.0):
        raise CheckError(f"{where}: {got} differs from reference {want} beyond {REL_TOL:g}")


def compare_reference(texts: dict[str, str], reference: dict[str, str]) -> None:
    """Every emitted number within 1e-9 relative; selected pair identical."""
    for name, want_text in reference.items():
        got_text = texts[name]
        if name.endswith(".json"):
            got = dict(_json_leaves(json.loads(got_text)))
            want = dict(_json_leaves(json.loads(want_text)))
            if got.keys() != want.keys():
                raise CheckError(f"{name}: keys differ from reference")
            for key, w in want.items():
                _agree(f"{name}:{key}", json.dumps(got[key]), json.dumps(w), key in EXACT_KEYS)
            continue
        got_rows, want_rows = _rows(got_text), _rows(want_text)
        if len(got_rows) != len(want_rows):
            raise CheckError(f"{name}: {len(got_rows)} rows, reference has {len(want_rows)}")
        header = want_rows[0]
        for r, (grow, wrow) in enumerate(zip(got_rows, want_rows), start=1):
            if len(grow) != len(wrow):
                raise CheckError(f"{name}:{r}: field count differs from reference")
            for col, g, w in zip(header, grow, wrow):
                _agree(f"{name}:{r}:{col}", g, w, col in EXACT_COLUMNS)


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def check_call(
    texts: dict[str, str], first: dict[str, str] | None, reference: dict[str, str] | None
) -> None:
    """Raise CheckError unless one call's outputs pass every check."""
    check_invariants(texts)
    if first is not None and texts != first:
        changed = sorted(n for n in texts if texts[n] != first.get(n))
        raise CheckError(f"rerun outputs differ from the first call: {changed}")
    if reference is not None:
        compare_reference(texts, reference)
