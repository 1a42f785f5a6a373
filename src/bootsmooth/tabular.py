"""Every CSV the package reads or writes, and its JSON and text outputs.

Input: :func:`read_blocks` reads a UTF-8 CSV file in blocks of
``BLOCK_ROWS`` rows, refusing a missing or wrong header and a row of the
wrong width.  A loader checks each block by whole columns, parsing its
numbers with :func:`finite_numbers`, and walks it row by row, with
:func:`finite_number`, only when a bulk check fails, to name the first fault
in file order; :func:`read_keyed` does both with the same key parsers.  Each
refusal is an ``IngestionError`` naming the path, the line and, for a bad
value, the column.

Output: reals are written with 17 significant digits so that
``float(fmt(x)) == x`` for every finite double; line terminators are fixed
to ``"\\n"`` so output bytes do not depend on the platform.  Every output
file is written here, and one that cannot be written is a ``ConfigError``
naming it.  A command writes its files through :func:`staged_outputs`, so
it leaves all of them or none.
"""

from __future__ import annotations

import csv
import datetime as _dt
import errno
import json
import math
import os
import re
import shutil
import tempfile
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import ConfigError, IngestionError

# The one form iso_date takes, and its parse, bound once: a daily file parses each row's date.
_iso_form = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch
_from_iso = _dt.date.fromisoformat
# Data rows per block of read_blocks, which bounds the rows a read holds at
# once.  A block's field strings die between blocks, so a larger block only
# raises peak memory: at 2,048 rows a one-year hourly demand fit peaked
# 0.8 MB higher than at 256, and was no faster.
BLOCK_ROWS = 256


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


@contextmanager
def staged_outputs(outdir: str | Path) -> Iterator[Path]:
    """A staging directory inside ``outdir`` whose files move to ``outdir`` on success.

    The block writes its files into the yielded directory under their final
    names.  When it ends without an error, each file is renamed into
    ``outdir``, replacing a file of that name.  Every final name is checked
    before the first rename, so an error in the block or a final name taken
    by a directory leaves ``outdir`` as it was.  The staging directory is
    removed in every case.
    """
    outdir = Path(outdir)
    try:
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=outdir))
    except OSError as exc:
        raise ConfigError(f"cannot write in {outdir}: {exc.strerror or exc}") from None
    try:
        yield staging
        names = sorted(os.listdir(staging))
        for name in names:
            if (outdir / name).is_dir():
                raise ConfigError(f"cannot write {outdir / name}: {os.strerror(errno.EISDIR)}")
        for name in names:
            try:
                os.replace(staging / name, outdir / name)
            except OSError as exc:
                raise ConfigError(f"cannot write {outdir / name}: {exc.strerror or exc}") from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def read_blocks(path: str | Path, header: Sequence[str] | None = None) -> Iterator:
    """The stripped header of the UTF-8 CSV file ``path``, then ``(lineno, rows)`` per block.

    A block holds the next ``BLOCK_ROWS`` data rows (fewer at the end) as
    lists of fields, and ``lineno`` is the line of its first row; the file is
    read one block at a time, in file order.  A missing header, a header
    other than ``header`` when one is given, a row whose width differs from
    the header's, and a file that is missing, a directory, unreadable, not
    UTF-8 text or not CSV (a field over the csv module's size limit) are
    each an ``IngestionError`` naming the path, and the line where there is
    one.  An error past the header is raised after the rows before it have
    been handed out, so a loader that checks each block before asking for
    the next reports the first fault in file order.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = [h.strip() for h in next(reader, ())]
            if header is not None and first != list(header):
                raise IngestionError(f"{path}:1: header must be '{','.join(header)}'")
            if not first:
                raise IngestionError(f"{path}:1: empty file or missing header")
            yield first
            width, start, full = len(first), 2, True
            while full:
                block, fault = [], None
                try:
                    # a row that fails to read leaves the rows before it in the block
                    block.extend(islice(reader, BLOCK_ROWS))
                except (OSError, UnicodeDecodeError, csv.Error) as exc:
                    fault = exc
                widths = list(map(len, block))
                if widths.count(width) < len(widths):
                    bad = next(i for i, w in enumerate(widths) if w != width)
                    fault = IngestionError(f"{path}:{start + bad}: expected {width} fields, got {widths[bad]}")
                    del block[bad:]
                if block:
                    yield start, block
                if fault is not None:
                    raise fault
                start, full = start + BLOCK_ROWS, len(block) == BLOCK_ROWS
    except OSError as exc:
        raise IngestionError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}:{reader.line_num}: {exc}") from None


def finite_number(path: str | Path, lineno: int, column: str, text: str) -> float:
    """Field ``text`` of ``column`` on line ``lineno`` as a finite float; an ``IngestionError`` otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(f"{path}:{lineno}: {column} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise IngestionError(f"{path}:{lineno}: {column} must be finite")
    return value


def finite_numbers(texts: Iterable[str]) -> list[float] | None:
    """``texts`` as floats, each parsed by ``float`` as :func:`finite_number` parses it.

    None when a text is not a number or a value is not finite, and also when
    the values' sum overflows: the caller then walks the rows with
    :func:`finite_number`, which names the faulty field or finds none.
    """
    try:
        values = list(map(float, texts))
    except ValueError:
        return None
    return values if math.isfinite(sum(values)) else None


def read_keyed(path: str | Path, header: Sequence[str], parsers: Sequence, memos: Sequence) -> dict:
    """The rows of the CSV file ``path`` as ``key -> number``, in file order.

    ``header`` names the key columns, each read by its function of ``parsers``
    (a ``ValueError`` it raises is refused at the row's line), then a column of
    finite numbers.  A key, its column's value or its columns' tuple, may not
    repeat.  A key column whose texts repeat has a dict in ``memos`` (None
    otherwise) that keeps each text parsed once.  Each block is checked by
    whole columns, its keys before its numbers, so the memos hold the key texts
    of a block that fails only :func:`finite_numbers`' overflow check.  A block
    is merged straight into the result by one update, whose length shows a
    repeated key; one that fails is walked row by row from the entries before
    it, with the same parsers and :func:`finite_number`, to raise its first
    fault.
    """
    values: dict = {}
    blocks = read_blocks(path, header)
    next(blocks)
    for lineno, block in blocks:
        *texts, numbers = zip(*block)
        columns, seen = [], len(values)
        try:
            for parse, memo, column in zip(parsers, memos, texts):
                if memo is not None:
                    memo.update((text, parse(text)) for text in set(column).difference(memo))
                    parse = memo.__getitem__
                columns.append(map(parse, column))
            numbers = finite_numbers(numbers)
            if numbers is not None:
                values.update(zip(columns[0] if len(columns) == 1 else zip(*columns), numbers))
        except ValueError:
            pass
        if len(values) == seen + len(block):
            continue
        # a fault, or a repeated key: walk the block from the keys read before
        # it, dropping what a merge cut short by a fault added
        values = dict(islice(values.items(), seen))
        for lineno, row in enumerate(block, lineno):
            try:
                key = tuple(parse(text) for parse, text in zip(parsers, row))
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}") from None
            number = finite_number(path, lineno, header[-1], row[-1])
            key = key[0] if len(key) == 1 else key
            if key in values:
                shown = key if len(parsers) == 1 else f"({', '.join(map(str, key))})"
                raise IngestionError(f"{path}:{lineno}: duplicate entry for {shown}")
            values[key] = number
    return values


def write_json(path: str | Path, obj: object) -> None:
    with _output(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_text(path: str | Path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def iso_date(text: str) -> _dt.date:
    """The date ``text`` written ``YYYY-MM-DD``; a ``ValueError`` naming it otherwise.

    ``date.fromisoformat`` alone also takes forms such as ``20240101`` and
    ``2024-W01-1`` from Python 3.11 on, so it would accept different input
    on different Python versions.
    """
    if _iso_form(text):
        try:
            return _from_iso(text)
        except ValueError:
            pass
    raise ValueError(f"bad ISO date {text!r}")
