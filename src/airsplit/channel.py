"""Reciprocal multipath MIMO channels.

A channel is a finite sum of planar-wavefront paths.  Each path carries a
complex gain, a departure angle seen from the transmit array and an arrival
angle seen from the receive array.  The forward matrix is

    H = sum_n a_n * conj(steer(theta_n, n_rx)) outer steer(phi_n, n_tx)

with steer(x, n) = (1, e^{jx}, ..., e^{j(n-1)x}).  The backward direction
reuses the same physical paths, which makes the backward matrix the plain
transpose of H, not its conjugate transpose.  That reciprocity is what lets
gradients ride the channel without any channel estimation.

With P paths, H = L R^T factors into L = conj(steer(arrivals)) diag(gains),
(n_rx, P), and R = steer(departures), (n_tx, P), so it has rank at most P.
When the two factors take under half the multiply-adds of H, that is
2 P (n_tx + n_rx) < n_tx n_rx (few paths next to the array sizes),
transmission applies them in turn, R^T then L forward and L^T then R
backward; otherwise it applies the dense H, which is then the faster.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import add_crandn, spectral_norm

__all__ = [
    "PathSet",
    "ChannelState",
    "NoiseModel",
    "MAX_SNR_DB",
    "NOISELESS",
    "wrap_angle",
    "sample_channel",
    "evolve_channel",
    "transmit_forward",
    "transmit_backward",
    "channel_snr",
    "channel_to_dict",
    "channel_from_dict",
    "save_channel",
]

_TWO_PI = 2.0 * np.pi


def wrap_angle(x):
    """Wrap angles into (-pi, pi]."""
    x = np.asarray(x, dtype=np.float64)
    w = x - _TWO_PI * np.floor((x + np.pi) / _TWO_PI)
    # floor-based reduction lands on [-pi, pi); fold the open end over.
    return np.where(w <= -np.pi, w + _TWO_PI, w)


@dataclass(frozen=True)
class PathSet:
    """Per-path parameters of a multipath channel.

    gains: complex path gains, shape (n_paths,)
    departures: departure angles in radians, shape (n_paths,), in (-pi, pi]
    arrivals: arrival angles in radians, shape (n_paths,), in (-pi, pi]
    """

    gains: np.ndarray
    departures: np.ndarray
    arrivals: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.complex128)
        dep = wrap_angle(self.departures)
        arr = wrap_angle(self.arrivals)
        if not (gains.shape == dep.shape == arr.shape) or gains.ndim != 1:
            raise ValueError("path arrays must be 1-d and of equal length")
        if gains.size == 0:
            raise ValueError("a channel needs at least one path")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "departures", dep)
        object.__setattr__(self, "arrivals", arr)

    @property
    def n_paths(self) -> int:
        return self.gains.size


def _factors(paths: PathSet, n_tx: int, n_rx: int):
    """(L, R), (n_rx, P) and (n_tx, P), with H = L @ R.T: the receive
    steering vectors times the gains, and the transmit steering vectors."""
    rx = np.exp(-1j * np.outer(np.arange(n_rx), paths.arrivals))
    tx = np.exp(1j * np.outer(np.arange(n_tx), paths.departures))
    return rx * paths.gains, tx


@dataclass(frozen=True)
class ChannelState:
    """A sampled channel: array sizes, paths, the cached forward matrix H
    (the path sum in the module docstring) and its spectral norm.  factors is
    (left, right), (n_rx, P) and (n_tx, P) with left @ right.T equal to
    matrix, when the channel has few paths for its array sizes,
    2 P (n_tx + n_rx) < n_tx n_rx, and None otherwise; transmission applies
    it when it is kept."""

    n_tx: int
    n_rx: int
    paths: PathSet
    matrix: np.ndarray
    spectral: float
    factors: tuple[np.ndarray, np.ndarray] | None

    @classmethod
    def from_paths(cls, n_tx: int, n_rx: int, paths: PathSet) -> "ChannelState":
        if n_tx < 1 or n_rx < 1:
            raise ValueError("antenna counts must be positive")
        left, right = _factors(paths, n_tx, n_rx)
        h = left @ right.T
        # Two products through the P paths beat one dense product only when
        # they need under half its multiply-adds; short of that, the second
        # call's overhead costs more than the arithmetic it saves.
        low_rank = 2 * paths.n_paths * (n_tx + n_rx) < n_tx * n_rx
        return cls(n_tx=n_tx, n_rx=n_rx, paths=paths, matrix=h, spectral=spectral_norm(h),
                   factors=(left, right) if low_rank else None)


def sample_channel(n_tx: int, n_rx: int, n_paths: int, rng: np.random.Generator) -> ChannelState:
    """Draw a fresh multipath channel.

    Draw order (fixed, part of the replay contract): arrival angles, then
    departure angles, then gain magnitudes, then gain phases.  Angles are
    uniform on (-pi, pi), magnitudes uniform on (0.5, 1.5).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    arrivals = rng.uniform(-np.pi, np.pi, n_paths)
    departures = rng.uniform(-np.pi, np.pi, n_paths)
    mags = rng.uniform(0.5, 1.5, n_paths)
    phases = rng.uniform(-np.pi, np.pi, n_paths)
    paths = PathSet(gains=mags * np.exp(1j * phases), departures=departures, arrivals=arrivals)
    return ChannelState.from_paths(n_tx, n_rx, paths)


def evolve_channel(state: ChannelState, rho: float, rng: np.random.Generator) -> ChannelState:
    """Mix every path parameter toward a fresh draw by factor rho.

    Each parameter moves as (1 - rho) * old + rho * fresh, with the fresh
    values drawn in the same order sample_channel uses; PathSet wraps the
    mixed angles back into (-pi, pi].  rho = 0 returns the state bit-exactly
    unchanged, rho = 1 is a fresh, independent channel.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    n = state.paths.n_paths
    arrivals_new = rng.uniform(-np.pi, np.pi, n)
    departures_new = rng.uniform(-np.pi, np.pi, n)
    mags_new = rng.uniform(0.5, 1.5, n)
    phases_new = rng.uniform(-np.pi, np.pi, n)
    gains_new = mags_new * np.exp(1j * phases_new)
    paths = PathSet(
        gains=(1.0 - rho) * state.paths.gains + rho * gains_new,
        departures=(1.0 - rho) * state.paths.departures + rho * departures_new,
        arrivals=(1.0 - rho) * state.paths.arrivals + rho * arrivals_new,
    )
    return ChannelState.from_paths(state.n_tx, state.n_rx, paths)


# The largest |snr_db| a finite SNR may take.  10^(snr_db/10) overflows a
# float past about 3083 dB and underflows to 0 below about -3240 dB; this
# bound keeps it and its reciprocal far inside the float range.
MAX_SNR_DB = 300.0


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise, given as the target channel signal-to-noise ratio.

    The total noise power is derived from snr_db (dB) and the channel's
    spectral norm, then split evenly across receive antennas.  snr_db = inf
    is noiseless; a finite snr_db must lie in [-MAX_SNR_DB, MAX_SNR_DB], and
    nan and -inf are rejected.
    """

    snr_db: float

    def __post_init__(self):
        if not (self.snr_db == math.inf or -MAX_SNR_DB <= self.snr_db <= MAX_SNR_DB):
            raise ValueError(f"snr_db = {self.snr_db} must be dB in "
                             f"[{-MAX_SNR_DB:g}, {MAX_SNR_DB:g}] or inf (noiseless)")

    def total_power(self, state: ChannelState) -> float:
        """Total noise power across the receiving array."""
        return self.sigma2_per_antenna(state) * state.n_rx

    def sigma2_per_antenna(self, state: ChannelState) -> float:
        return state.spectral / 10.0 ** (self.snr_db / 10.0)


NOISELESS = NoiseModel(snr_db=math.inf)


def _received(first: np.ndarray, second: np.ndarray | None, x: np.ndarray, sigma2: float,
              rng: np.random.Generator | None, out: np.ndarray | None) -> np.ndarray:
    """second @ (first @ x_k), or first @ x_k when second is None, plus
    noise for each use x_k of x."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (2, 3) or x.shape[-2] != first.shape[1]:
        raise ValueError(f"expected ([K,] {first.shape[1]}, batch) input, got {x.shape}")
    if sigma2 > 0.0 and rng is None:
        raise ValueError("rng is required when noise power is positive")
    rows = (first if second is None else second).shape[0]
    shape = x.shape[:-2] + (rows, x.shape[-1])
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif (out.dtype != np.complex128 or out.shape != shape
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous complex128 array of shape "
                         f"{shape}, got {out.dtype} {out.shape}")
    # Use by use through one scratch that holds first @ x_k whole before dst
    # is written, so out may be x itself: a (P, B) path scratch that the
    # second factor reads, or the (n, B) received use, copied out.
    scratch = np.empty((first.shape[0], x.shape[-1]), dtype=np.complex128)
    for src, dst in zip(x.reshape((-1,) + x.shape[-2:]), out.reshape((-1,) + shape[-2:])):
        np.matmul(first, src, out=scratch)
        if second is None:
            dst[...] = scratch
        else:
            np.matmul(second, scratch, out=dst)
    if sigma2 > 0.0:
        add_crandn(rng, out, sigma2)
    return out


def transmit_forward(state: ChannelState, x: np.ndarray, noise: NoiseModel,
                     rng: np.random.Generator | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Send x, (n_tx, B) or a (K, n_tx, B) stack of uses, through the forward channel.

    Each use x_k is received as H x_k plus white circular noise per receive
    antenna, independent across antennas, columns and uses.  H x_k is
    left @ (right.T @ x_k) when the state keeps its path factors (few paths
    for the array sizes, see ChannelState), matrix @ x_k otherwise.  Product
    and draw order (fixed, part of the replay contract): use by use, the
    product(s) and then one crandn (n_rx, B) draw each, real parts before
    imaginary ones.

    The result is written into out, a C-contiguous complex128 array of the
    received shape, and returned; out=None allocates it.  Uses are received
    one at a time through a scratch, so with n_tx == n_rx out may be x
    itself, which the caller then gives up.
    """
    if state.factors is None:
        first, second = state.matrix, None
    else:
        left, right = state.factors
        first, second = right.T, left
    return _received(first, second, x, noise.sigma2_per_antenna(state), rng, out)


def transmit_backward(state: ChannelState, x: np.ndarray, noise: NoiseModel,
                      rng: np.random.Generator | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Send x, (n_rx, B) or (K, n_rx, B), back along the same paths, with
    noise drawn and out handled as in transmit_forward.

    The reverse matrix is the transpose of the forward one (same paths walked
    the other way), never the conjugate transpose: each use is received as
    right @ (left.T @ x_k) when the state keeps its path factors, the
    factors of H^T in that order, and matrix.T @ x_k otherwise.
    """
    if state.factors is None:
        first, second = state.matrix.T, None
    else:
        left, right = state.factors
        first, second = left.T, right
    return _received(first, second, x, noise.sigma2_per_antenna(state), rng, out)


def channel_snr(state: ChannelState, p_n: float) -> float:
    """Signal-to-noise ratio in dB for total noise power p_n.

    Defined as 10*log10(||H||_2 * n_rx / p_n): scaling the channel by 10
    moves the figure by exactly 10 dB.  p_n -> 0 gives +inf.
    """
    if p_n < 0:
        raise ValueError("p_n must be >= 0")
    if p_n == 0.0:
        return float("inf")
    return float(10.0 * np.log10(state.spectral * state.n_rx / p_n))


# -- serialization ----------------------------------------------------------

def channel_to_dict(state: ChannelState) -> dict:
    """JSON-ready record; floats round-trip exactly through repr."""
    return {
        "n_tx": int(state.n_tx),
        "n_rx": int(state.n_rx),
        "paths": {
            "gains": [[float(g.real), float(g.imag)] for g in state.paths.gains],
            "departures": [float(a) for a in state.paths.departures],
            "arrivals": [float(a) for a in state.paths.arrivals],
        },
    }


def channel_from_dict(record: dict) -> ChannelState:
    p = record["paths"]
    gains = np.array([complex(re, im) for re, im in p["gains"]], dtype=np.complex128)
    paths = PathSet(
        gains=gains,
        departures=np.asarray(p["departures"], dtype=np.float64),
        arrivals=np.asarray(p["arrivals"], dtype=np.float64),
    )
    return ChannelState.from_paths(int(record["n_tx"]), int(record["n_rx"]), paths)


def save_channel(state: ChannelState, path) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_dict(state), fh, indent=1)
