"""Tab-separated serializations: matrices, symbol dumps, profiles.

Header row/column of labels, LF line endings, reals printed with 9
significant digits.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .lz import Factorization


def fmt(x: float) -> str:
    return f"{x:.9g}"


def write_matrix(path: str | Path, labels: Sequence[str], values: Sequence[Sequence[float]]) -> None:
    lines = ["\t" + "\t".join(labels)]
    for label, row in zip(labels, values):
        lines.append(label + "\t" + "\t".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at path; a file that is not UTF-8 is a ValueError that names path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def read_matrix(path: str | Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: not a matrix file")
    header = lines[0].split("\t")
    if header[0].strip():
        raise ValueError(f"{path}: row 1: expected empty leading header cell")
    labels = header[1:]
    n = len(labels)
    values = []
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} data rows, found {len(lines) - 1}")
    for r, line in enumerate(lines[1:], start=1):
        cells = line.split("\t")
        if len(cells) != n + 1:
            raise ValueError(f"{path}: row {r + 1}: expected {n + 1} columns, found {len(cells)}")
        if cells[0] != labels[r - 1]:
            raise ValueError(f"{path}: row {r + 1}: label {cells[0]!r} does not match header")
        row = []
        for c, cell in enumerate(cells[1:]):
            try:
                x = float(cell)
            except ValueError as exc:
                raise ValueError(f"{path}: row {r + 1}, column {c + 2}: bad number {cell!r}") from exc
            if not math.isfinite(x):
                raise ValueError(f"{path}: row {r + 1}, column {c + 2}: non-finite number {cell!r}")
            row.append(x)
        values.append(row)
    return labels, values


def symbols_tsv(f: Factorization, source_labels: Sequence[str]) -> str:
    """Debug dump of a factorization: pos, length, kind, source, offset|byte."""
    from .lz import SELF

    lines = ["pos\tlength\tkind\tsource\toffset|byte"]
    pos = 0
    for sym in f.symbols:
        if sym.is_literal:
            lines.append(f"{pos}\t1\tlit\t-\t{sym.literal}")
        else:
            name = "self" if sym.source == SELF else source_labels[sym.source]
            lines.append(f"{pos}\t{sym.length}\tref\t{name}\t{sym.offset}")
        pos += sym.length
    return "\n".join(lines) + "\n"
