"""Compare two output directories of ``tools/identity_runs.py`` file by file.

Usage::

    python tools/compare_runs.py A B [--rtol R]

A file that is byte-equal in both directories passes.  A ``.npy`` file whose
bytes differ is loaded on both sides and reported with its largest relative
difference, ``|a - b| / max(|a|, |b|)`` over its entries (0 where both
entries are equal, inf where only one is nan); it passes when that is at
most R (default 0, so by default only byte-equal files pass).  Any other
difference fails: a file on one side only, a differing file of another
type, or arrays of another shape or dtype.  Prints one line per differing
file and a summary; exits 0 when every file passes, 1 otherwise.
"""
from __future__ import annotations

import argparse
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


def compare_file(a: Path, b: Path, rtol: float):
    """(passes, message) for one file present in both directories; message is
    None for a byte-equal file."""
    if a.read_bytes() == b.read_bytes():
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
                        help="largest relative difference a differing .npy file may have")
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
