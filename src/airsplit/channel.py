"""Reciprocal multipath MIMO channels.

A channel is a finite sum of planar-wavefront paths.  Each path carries a
complex gain, a departure angle seen from the transmit array and an arrival
angle seen from the receive array.  The forward matrix is

    H = sum_n a_n * conj(steer(theta_n, n_rx)) outer steer(phi_n, n_tx)

with steer(x, n) = (1, e^{jx}, ..., e^{j(n-1)x}).  The backward direction
reuses the same physical paths, which makes the backward matrix the plain
transpose of H, not its conjugate transpose.  That reciprocity is what lets
gradients ride the channel without any channel estimation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import add_crandn, spectral_norm

__all__ = [
    "PathSet",
    "ChannelState",
    "NoiseModel",
    "NOISELESS",
    "wrap_angle",
    "steering_vector",
    "build_matrix",
    "sample_channel",
    "evolve_channel",
    "transmit_forward",
    "transmit_backward",
    "channel_snr",
    "channel_to_dict",
    "channel_from_dict",
    "save_channel",
    "load_channel",
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


def steering_vector(angle: float, n: int) -> np.ndarray:
    """Uniform linear array response (1, e^{j*angle}, ..., e^{j(n-1)angle})."""
    return np.exp(1j * angle * np.arange(n))


def build_matrix(paths: PathSet, n_tx: int, n_rx: int) -> np.ndarray:
    """Assemble the forward matrix from path parameters.

    The receive-side steering vector enters conjugated, the transmit-side one
    plainly, so entry (m, q) is sum_n a_n e^{-j m theta_n} e^{j q phi_n}.
    """
    rx = np.exp(-1j * np.outer(np.arange(n_rx), paths.arrivals))  # (n_rx, P)
    tx = np.exp(1j * np.outer(np.arange(n_tx), paths.departures))  # (n_tx, P)
    return (rx * paths.gains) @ tx.T


@dataclass(frozen=True)
class ChannelState:
    """A sampled channel: array sizes, paths, and the cached matrix."""

    n_tx: int
    n_rx: int
    paths: PathSet
    matrix: np.ndarray
    spectral: float

    @classmethod
    def from_paths(cls, n_tx: int, n_rx: int, paths: PathSet) -> "ChannelState":
        if n_tx < 1 or n_rx < 1:
            raise ValueError("antenna counts must be positive")
        h = build_matrix(paths, n_tx, n_rx)
        return cls(n_tx=n_tx, n_rx=n_rx, paths=paths, matrix=h, spectral=spectral_norm(h))


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
    values drawn in the same order sample_channel uses; angles are wrapped
    back into (-pi, pi] after mixing.  rho = 0 returns the state bit-exactly
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
        departures=wrap_angle((1.0 - rho) * state.paths.departures + rho * departures_new),
        arrivals=wrap_angle((1.0 - rho) * state.paths.arrivals + rho * arrivals_new),
    )
    return ChannelState.from_paths(state.n_tx, state.n_rx, paths)


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise description with a single source of truth.

    Exactly one of sigma2 (per-antenna complex noise variance) or snr_db
    (target channel signal-to-noise ratio) must be given.  With snr_db, the
    total noise power is derived from the channel's spectral norm, then split
    evenly across receive antennas.
    """

    sigma2: float | None = None
    snr_db: float | None = None

    def __post_init__(self):
        if (self.sigma2 is None) == (self.snr_db is None):
            raise ValueError("specify exactly one of sigma2 or snr_db")
        if self.sigma2 is not None and self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")

    def total_power(self, state: ChannelState) -> float:
        """Total noise power across the receiving array."""
        if self.sigma2 is not None:
            return self.sigma2 * state.n_rx
        return state.spectral * state.n_rx / 10.0 ** (self.snr_db / 10.0)

    def sigma2_per_antenna(self, state: ChannelState) -> float:
        if self.sigma2 is not None:
            return self.sigma2
        return state.spectral / 10.0 ** (self.snr_db / 10.0)


NOISELESS = NoiseModel(sigma2=0.0)


def _received(matrix: np.ndarray, x: np.ndarray, sigma2: float,
              rng: np.random.Generator | None) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (2, 3) or x.shape[-2] != matrix.shape[1]:
        raise ValueError(f"expected ([K,] {matrix.shape[1]}, batch) input, got {x.shape}")
    y = matrix @ x
    if sigma2 > 0.0:
        if rng is None:
            raise ValueError("rng is required when noise power is positive")
        add_crandn(rng, y, sigma2)
    return y


def transmit_forward(state: ChannelState, x: np.ndarray, noise: NoiseModel,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Send x, (n_tx, B) or a (K, n_tx, B) stack of uses, through the forward channel.

    Adds white circular noise per receive antenna, independent across antennas,
    columns and uses.  Draw order (fixed, part of the replay contract): use by
    use, one crandn (n_rx, B) draw each, real parts before imaginary ones.
    """
    return _received(state.matrix, x, noise.sigma2_per_antenna(state), rng)


def transmit_backward(state: ChannelState, x: np.ndarray, noise: NoiseModel,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Send x, (n_rx, B) or (K, n_rx, B), back along the same paths, with
    noise drawn as in transmit_forward.

    The reverse matrix is the transpose of the forward one (same paths walked
    the other way), never the conjugate transpose.
    """
    return _received(state.matrix.T, x, noise.sigma2_per_antenna(state), rng)


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
        "n_tx": state.n_tx,
        "n_rx": state.n_rx,
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


def load_channel(path) -> ChannelState:
    with open(path) as fh:
        return channel_from_dict(json.load(fh))
