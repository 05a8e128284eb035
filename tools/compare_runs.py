"""Compare two output directories of ``tools/identity_runs.py`` file by file.

Usage::

    python tools/compare_runs.py A B [--rtol R]

A file that is byte-equal in both directories passes.  A ``.npy`` file whose
bytes differ is loaded on both sides and reported with its largest relative
difference, ``|a - b| / max(|a|, |b|)`` over its entries (0 where both
entries are equal, inf where only one is nan); it passes when that is at
most R (default 0, so by default only byte-equal files pass).  A ``.csv``
file whose bytes differ is compared cell by cell: its header and row count
must match, a cell that parses as an int or not as a number (``phase``,
``status``, ``step``, ``seed``, ...) must be equal, and a float cell is
judged like a ``.npy`` entry.  Every CSV file is parsed, byte-equal or not,
so comparing two equal directories shows that each one parses.  Any other
difference fails: a file on one side only, a differing file of another
type, or arrays of another shape or dtype.  Prints one line per differing
file and a summary; exits 0 when every file passes, 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries of two same-shape arrays."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.size == 0:
        return 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    rel[np.isnan(rel)] = np.inf          # nan on one side only, or inf against finite
    return float(rel.max())


def _number(cell: str):
    """cell as an int, else as a float, else None."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def compare_csv(a: Path, b: Path, rtol: float):
    """(passes, message) for two CSV files, compared cell by cell."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return False, "header or row count differs"
    rel = 0.0
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if len(row_a) != len(row_b):
            return False, f"line {line}: cell count differs"
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if not (isinstance(u, float) and isinstance(v, float)):
                return False, f"line {line}, cell {col + 1}: {x!r} vs {y!r}"
            rel = max(rel, relative_difference(np.array([u]), np.array([v])))
    return rel <= rtol, f"largest relative difference {rel:.3g} (rtol {rtol:g})"


def compare_file(a: Path, b: Path, rtol: float):
    """(passes, message) for one file present in both directories; message is
    None for a byte-equal file."""
    same = a.read_bytes() == b.read_bytes()
    if a.suffix == ".csv":               # parsed even when byte-equal
        ok, message = compare_csv(a, b, rtol)
        return ok, None if same else message
    if same:
        return True, None
    if a.suffix != ".npy":
        return False, "differs"
    x, y = np.load(a), np.load(b)
    if x.shape != y.shape or x.dtype != y.dtype:
        return False, f"shape or dtype differs: {x.dtype}{x.shape} vs {y.dtype}{y.shape}"
    rel = relative_difference(x, y)
    return rel <= rtol, f"largest relative difference {rel:.3g} (rtol {rtol:g})"


def compare_dirs(root_a: Path, root_b: Path, rtol: float = 0.0):
    """(n_equal, [(relative path, passes, message)] for every other file)."""
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    n_equal, report = 0, []
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            side = root_a if rel in files_a else root_b
            report.append((rel, False, f"only in {side}"))
            continue
        ok, message = compare_file(root_a / rel, root_b / rel, rtol)
        if message is None:
            n_equal += 1
        else:
            report.append((rel, ok, message))
    return n_equal, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference a differing .npy file or CSV float "
                             "cell may have")
    args = parser.parse_args(argv)
    if not (args.rtol >= 0.0):
        parser.error(f"--rtol = {args.rtol} must be >= 0")
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    n_equal, report = compare_dirs(args.a, args.b, args.rtol)
    for rel, ok, message in report:
        print(f"{'ok  ' if ok else 'FAIL'} {rel}: {message}")
    failed = sum(not ok for _, ok, _ in report)
    print(f"{n_equal} byte-equal, {len(report) - failed} within rtol, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
