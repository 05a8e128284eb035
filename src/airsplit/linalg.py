"""Complex dense matrix helpers and seeded randomness.

Thin wrappers around numpy's linear algebra that pin down the conventions
the rest of the package relies on: a reproducible phase choice for singular
vectors, relative-threshold truncation, and named substreams for every
source of randomness so runs replay exactly across platforms.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DecompositionError",
    "DEFAULT_TRUNCATION",
    "RANK_TOLERANCE",
    "make_rng",
    "crandn",
    "svd",
    "pinv",
    "matrix_rank",
    "spectral_norm",
    "require_finite",
]

# Relative singular-value cutoff used when inverting.
DEFAULT_TRUNCATION = 1e-10
# Relative cutoff used when counting rank.
RANK_TOLERANCE = 1e-8


class DecompositionError(RuntimeError):
    """A matrix factorization did not converge."""


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for a (seed, stream) pair.

    Distinct stream indices give statistically independent substreams of the
    same root seed; identical (seed, stream) arguments reproduce the same
    draw sequence on any platform.  Stream indices must be non-negative.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(stream)))


def crandn(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws with E|z|^2 = var.

    Real and imaginary parts are independent N(0, var/2).  The real block is
    drawn before the imaginary block so the draw order is part of the
    contract.  Both blocks go through one float buffer straight into the
    complex result; for var > 0 the bytes equal scale * (re + 1j * im) from
    the same two draws (at var = 0 only the signs of zeros may differ).  A
    0-d shape returns a numpy complex scalar.
    """
    scale = math.sqrt(var / 2.0)
    out = np.empty(shape, dtype=np.complex128)
    buf = rng.standard_normal(out.shape)
    np.multiply(buf, scale, out=out.real)
    np.multiply(rng.standard_normal(out=buf), scale, out=out.imag)
    return out if out.ndim else out[()]


def svd(m: np.ndarray):
    """Economy SVD with a fixed column-phase convention.

    Returns (u, s, v) with m ~= u @ diag(s) @ v.conj().T, singular values
    sorted descending.  The first significant entry of every column of u is
    rotated onto the positive real axis (the matching v column gets the
    conjugate rotation), so repeated runs and different platforms agree on
    the otherwise arbitrary per-column phases.
    """
    m = np.asarray(m, dtype=np.complex128)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge for shape {m.shape}") from exc
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(vh.conj().T)
    for j in range(u.shape[1]):
        mags = np.abs(u[:, j])
        top = mags.max()
        if top == 0.0:
            continue
        # Anchor on the first entry that is clearly nonzero relative to the
        # column peak; entries near roundoff level must not pick the anchor.
        anchor = int(np.argmax(mags > 1e-6 * top))
        phase = u[anchor, j] / mags[anchor]
        u[:, j] *= np.conj(phase)
        v[:, j] *= np.conj(phase)
    return u, s, v


def pinv(m: np.ndarray, tol: float = DEFAULT_TRUNCATION) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative truncation.

    Singular values at or below tol * s_max are treated as zero.  tol must be
    non-negative.  A zero matrix maps to a zero matrix.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    m = np.asarray(m, dtype=np.complex128)
    u, s, v = svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    keep = s > tol * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (v * s_inv) @ u.conj().T


def matrix_rank(m: np.ndarray, tol: float = RANK_TOLERANCE) -> int:
    """Number of singular values above tol * s_max."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def require_finite(name: str, arr: np.ndarray) -> None:
    """Raise ValueError if arr contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
