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
    "add_crandn",
    "svd",
    "pinv",
    "matrix_rank",
    "spectral_norm",
]

# Relative singular-value cutoff pinv uses when inverting.
DEFAULT_TRUNCATION = 1e-10
# Relative cutoff matrix_rank uses when counting rank.
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


# Floats of scratch crandn holds at a time, whatever the size of its result.
_CRANDN_SCRATCH = 1 << 16
# add_crandn runs while a link pass's stacks are alive, so its scratch is
# smaller: 64 KiB, which draws a (4, 16, 64) stack's noise in one piece.
_ADD_CRANDN_SCRATCH = 1 << 13


def _draw_normals(rng: np.random.Generator, part: np.ndarray, scale: float,
                  buf: np.ndarray) -> None:
    """Write scale times the next part.size standard normals of rng into the
    1-D float array part.

    The normals are drawn through the float scratch buf in pieces of at most
    buf.size; a normal stream drawn in pieces equals the stream drawn at once,
    so the bytes do not depend on buf.size.  It allocates no array data of its
    own.
    """
    for lo in range(0, part.size, max(buf.size, 1)):
        piece = buf[:min(buf.size, part.size - lo)]
        rng.standard_normal(out=piece)
        np.multiply(piece, scale, out=part[lo:lo + piece.size])


def crandn(rng: np.random.Generator, shape, var: float = 1.0,
           out: np.ndarray | None = None) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws with E|z|^2 = var.

    Real and imaginary parts are independent N(0, var/2).  The real block is
    drawn before the imaginary block so the draw order is part of the
    contract.  Each block is drawn (_draw_normals) in pieces through one float
    scratch of at most _CRANDN_SCRATCH entries, and no larger than one block,
    straight into its part of the complex result; a normal stream drawn in
    pieces equals the stream drawn at once, so for var > 0 the bytes equal
    scale * (re + 1j * im) from the same two draws (at var = 0 only the signs
    of zeros may differ).

    out, if given, is a C-contiguous complex128 array of exactly `shape`
    that is filled in place and returned, so a caller can reuse one buffer
    across draws.  A 0-d shape returns a numpy complex scalar.
    """
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif (out.dtype != np.complex128 or out.shape != np.broadcast_shapes(shape)
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous complex128 array of shape "
                         f"{shape}, got {out.dtype} {out.shape}")
    flat = out.reshape(-1)
    scale, buf = math.sqrt(var / 2.0), np.empty(min(flat.size, _CRANDN_SCRATCH))
    _draw_normals(rng, flat.real, scale, buf)
    _draw_normals(rng, flat.imag, scale, buf)
    return out if out.ndim else out[()]


def add_crandn(rng: np.random.Generator, out: np.ndarray, var: float) -> None:
    """Add crandn(rng, (rows, cols), var) to each (rows, cols) block of out,
    in place and in C order of the blocks: the sums and the final stream
    position equal those of one crandn call per block.

    out must be C-contiguous; any other layout raises ValueError before the
    stream moves.  Whole blocks go through a float scratch of
    _ADD_CRANDN_SCRATCH entries (one block, if larger): one standard_normal
    draw, block by block and real part before imaginary part, one scale, one
    add into the (re, im) float view.
    """
    if not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous, got a strided {out.shape} array")
    count, size = math.prod(out.shape[:-2]), math.prod(out.shape[-2:])
    blocks = out.reshape(count, size, 1).view(np.float64).transpose(0, 2, 1)  # (count, 2, size)
    per = max(1, _ADD_CRANDN_SCRATCH // max(2 * size, 1))
    buf = np.empty((min(per, count), 2, size))
    for lo in range(0, count, per):
        piece = buf[:count - lo]
        rng.standard_normal(out=piece)
        piece *= math.sqrt(var / 2.0)
        np.add(blocks[lo:lo + len(piece)], piece, out=blocks[lo:lo + len(piece)])


def svd(m: np.ndarray, hermitian: bool = False):
    """Economy SVD with a fixed column-phase convention.

    Returns (u, s, v) with m ~= u @ diag(s) @ v.conj().T, singular values
    sorted descending.  The first significant entry of every column of u is
    rotated onto the positive real axis (the matching v column gets the
    conjugate rotation), so repeated runs and different platforms agree on
    the otherwise arbitrary per-column phases.  hermitian=True, for a square
    Hermitian m only, factors it by numpy's eigendecomposition path: s holds
    the eigenvalues' magnitudes and v is u with each column times the sign
    of its eigenvalue.
    """
    m = np.asarray(m, dtype=np.complex128)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False, hermitian=hermitian)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge for shape {m.shape}") from exc
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(vh.conj().T)
    mags = np.abs(u)
    top = mags.max(axis=0, initial=0.0)
    # Anchor each column on its first entry that is clearly nonzero relative
    # to the column peak; entries near roundoff level must not pick the
    # anchor.  All-zero columns keep their values.
    anchor = np.argmax(mags > 1e-6 * top, axis=0)
    cols = np.arange(u.shape[1])
    live = top > 0.0
    phase = np.conj(u[anchor, cols] / np.where(live, mags[anchor, cols], 1.0))
    np.multiply(u, phase, out=u, where=live)
    np.multiply(v, phase, out=v, where=live)
    return u, s, v


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative truncation.

    Singular values at or below DEFAULT_TRUNCATION * s_max are treated as
    zero.  A zero matrix maps to a zero matrix.
    """
    m = np.asarray(m, dtype=np.complex128)
    u, s, v = svd(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    keep = s > DEFAULT_TRUNCATION * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (v * s_inv) @ u.conj().T


def matrix_rank(m: np.ndarray) -> int:
    """Number of singular values above RANK_TOLERANCE * s_max."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOLERANCE * s[0]))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    return float(s[0]) if s.size else 0.0
