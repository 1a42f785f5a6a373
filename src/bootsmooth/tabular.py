"""CSV and JSON emission helpers with round-trip fidelity.

Reals are written with 17 significant digits so that ``float(fmt(x)) == x``
for every finite double; line terminators are fixed to ``"\\n"`` so output
bytes do not depend on the platform.  Every output file is written here, and
one that cannot be written is a ``ConfigError`` naming it.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import ConfigError, IngestionError

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def fmt(x: float) -> str:
    """Shortest 17-significant-digit representation; exact on round trip."""
    return format(float(x), ".17g")


@contextmanager
def _output(path: str | Path) -> Iterator[TextIO]:
    """``path`` open for writing text, untranslated; an ``OSError`` names the path."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


@contextmanager
def csv_rows(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """Rows of the UTF-8 CSV file ``path``.

    A file that is missing, a directory, unreadable, not UTF-8 text or not
    CSV (a field over the csv module's size limit) is an ``IngestionError``
    naming the path.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield reader
    except OSError as exc:
        raise IngestionError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}:{reader.line_num}: {exc}") from None


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with csv_rows(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        rows = [row for row in reader]
    return header, rows


def write_json(path: str | Path, obj: object) -> None:
    with _output(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_text(path: str | Path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def parse_float(path: str | Path, lineno: int, field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise IngestionError(f"{path}:{lineno}: field '{field}' is not a number: {text!r}") from None


def iso_date(text: str) -> _dt.date:
    """The date ``text`` written ``YYYY-MM-DD``; ``ValueError`` for any other form.

    ``date.fromisoformat`` alone also takes forms such as ``20240101`` and
    ``2024-W01-1`` from Python 3.11 on, so it would accept different input
    on different Python versions.
    """
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return _dt.date.fromisoformat(text)
