"""Inter-node layers computed by the channel itself.

A dense connection between two nodes is realized by K channel uses: the
transmitting node precodes its activations, the array radiates them, and the
receiving node combines what its antennas pick up.  Summed over the K uses
this implements an equivalent weight matrix

    W_eff = sum_k C_k^H H P_k

without either side ever knowing H.  Training works because the reverse
direction of the same channel is H^T: the receiver sends the conjugated
upstream gradient through it, the transmitter conjugates what arrives, and
obtains exactly the gradient it would get from explicit backpropagation,
plus noise.

Four parameterizations are supported, the cross product of which side holds
the trainable bulk (transmitter or receiver) and whether that bulk is a
stack of full per-use matrices (combined) or a conventional weight W0
folded around one shared slim pair (separated).  Every design names its
parameters P, C, optional W0 and b.  P is (n_tx, r) or, as the combined
transmitter bulk, one stacked (K, n_tx, n_in) parameter; C is (n_rx, r) or,
as the combined receiver bulk, (K, n_rx, n_out).  All four run one
pipeline; a design only fixes the mode of each end of the link.  The bulk
side is `full` (combined) or `w0` (separated), the other side is always
`chunk`.  Each end is one batched matmul with P or C^H; the modes differ
only in how its per-use operand is formed and its result collapsed:

    end   full               chunk                         w0
    tx    P_k x              P on rows of x, r per use     P on rows of W0 x, r per use
    rx    sum_k C_k^H y_k    rows of C^H y_k, stacked      W0 @ that stack

Per-use quantities travel as (K, ., B) stacks, one slice per channel use.
Between the two ends, each direction is one power_normalize and one
transmit call over the whole stack, both in place: a direction holds one
antenna stack (two when n_tx != n_rx, where the received stack has another
shape).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (NOISELESS, ChannelState, NoiseModel, transmit_backward,
                      transmit_forward)
from .linalg import crandn, matrix_rank, pinv, svd

__all__ = [
    "OacDesign",
    "ALL_DESIGNS",
    "FeasibilityError",
    "FeasibilityWarning",
    "ChannelRankError",
    "feasible",
    "power_normalize",
    "OacLayer",
    "Transcript",
    "OacBackwardResult",
    "equivalent_weight",
    "decompose_weight",
    "layer_from_weight",
    "ideal_matrices",
    "snr_report",
    "SnrReport",
    "OacConvLayer",
]


class FeasibilityError(ValueError):
    """The requested stream budget cannot express the target layer."""


class ChannelRankError(ValueError):
    """The channel's rank is below the number of streams asked of it."""


class FeasibilityWarning(UserWarning):
    """Stream budget below layer size, or above what the arrays carry; the
    layer will be rank deficient."""


@dataclass(frozen=True)
class OacDesign:
    """side: which node owns the trainable bulk; form: combined/separated."""

    side: str
    form: str

    def __post_init__(self):
        if self.side not in ("transmitter", "receiver"):
            raise ValueError("side must be 'transmitter' or 'receiver'")
        if self.form not in ("combined", "separated"):
            raise ValueError("form must be 'combined' or 'separated'")


ALL_DESIGNS = (
    OacDesign("transmitter", "combined"),
    OacDesign("transmitter", "separated"),
    OacDesign("receiver", "combined"),
    OacDesign("receiver", "separated"),
)


def feasible(k: int, r: int, n_in: int, n_out: int) -> bool:
    """Can K uses of r streams express an arbitrary n_out x n_in weight?"""
    return k * r >= min(n_in, n_out)


def power_normalize(block: np.ndarray, out: np.ndarray | None = None):
    """Scale an (n, B) block, or each of a (K, n, B) stack, to unit average power.

    Returns (scaled, a) with a = sqrt(mean over columns of ||column||^2) per
    block, a float or a (K,) array, so the scaled columns average power one.
    An all-zero block keeps a = 1 and its values.  scaled is written into
    out, a complex128 array of block's shape with a contiguous last axis
    that may be block itself (the caller then gives up its unscaled values);
    out=None scales a copy.  scaled is out's float view times 1 / a, which
    has the bytes of block / a up to the sign of exact zeros: numpy divides
    a complex value by a real a as (re + 0 * im) * (1 / a), where the added
    zero can turn a -0.0 part into +0.0.
    """
    power = np.abs(block)
    np.square(power, out=power)
    a = np.sqrt(np.add.reduce(np.add.reduce(power, axis=-2), axis=-1) / block.shape[-1])
    del power
    a = np.where(a != 0.0, a, 1.0)
    if out is None:
        out = np.array(block, dtype=np.complex128)
    elif out is not block:
        np.copyto(out, block)
    floats = out.view(np.float64)
    floats *= (1.0 / a)[..., None, None]
    return out, (a if a.ndim else float(a))


def _unchunk(z: np.ndarray, rows: int) -> np.ndarray:
    """The (K, r, ...) blocks of z stacked into exactly `rows` rows.

    Rows past K*r are zero; rows past `rows` are cut.  Always a new array.
    """
    flat = z.reshape((-1,) + z.shape[2:])
    out = np.zeros((rows,) + flat.shape[1:], dtype=np.complex128)
    n = min(rows, flat.shape[0])
    out[:n] = flat[:n]
    return out


def _chunk(v: np.ndarray, k_total: int, r: int) -> np.ndarray:
    """The rows of v as k_total blocks of r, shape (k_total, r, ...).

    Rows past v's own are zero; rows of v past k_total*r are cut.
    """
    return _unchunk(v[None], k_total * r).reshape((k_total, r) + v.shape[1:])


def _hermitian(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


@dataclass
class Transcript:
    """What one forward pass leaves for backward: the scales the receiver was
    told, what its antennas picked up, and the two ends' local inputs.  The
    sent blocks are not kept: the gradient returns through H^T."""

    a: np.ndarray                    # (K,) per-use transmit scale
    received: np.ndarray             # (K, n_rx, B) raw antenna blocks at the receiver
    x: np.ndarray                    # layer input
    u: np.ndarray                    # precoder input: x, or (K, r, B) chunks of x or W0 x
    z: np.ndarray | None             # (K, r, B) scaled combiner outputs for a receiver W0, else None


@dataclass
class OacBackwardResult:
    g_x: np.ndarray
    grads: dict
    stream_grads: np.ndarray         # (K, n_tx, B) gradient wrt the pre-scale transmit blocks
    received: np.ndarray             # (K, n_tx, B) raw backward antenna blocks at the transmitter
    a_tilde: np.ndarray


class OacLayer:
    """One over-the-air dense connection.

    n_in/n_out are the layer sizes, n_tx/n_rx the array sizes, r the number
    of spatial streams per channel use.  The number of uses K is
    ceil(n_out / r) for transmitter-parameterized designs (the output is
    produced r entries at a time) and ceil(n_in / r) for receiver-
    parameterized ones (the input is consumed r entries at a time).  An
    explicit k overrides K.  When K*r falls short of the chunked width, the
    layer realizes the truncated map: outputs past K*r are zero (before the
    bias) for transmitter designs, and inputs past K*r are ignored for
    receiver designs.

    The receiver multiplies each combined block by the transmit scale a_k
    it was told out of band, so the noiseless layer equals W_eff exactly.
    backward_rescale: the transmitter undoes the backward transmit
    normalization the same way; leave it off when the optimizer is
    scale-invariant.

    freeze(*names) fixes parameters in place: backward leaves a frozen name
    out of its gradients, so no optimizer steps it.
    """

    def __init__(self, design: OacDesign, n_in: int, n_out: int, n_tx: int, n_rx: int,
                 r: int, rng: np.random.Generator, k: int | None = None, bias: bool = True,
                 backward_rescale: bool = True):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.design = design
        self.n_in, self.n_out = n_in, n_out
        self.n_tx, self.n_rx = n_tx, n_rx
        self.r = r
        need = n_out if design.side == "transmitter" else n_in
        self.k_total = k if k is not None else math.ceil(need / r)
        if self.k_total < 1:
            raise ValueError("need at least one channel use")
        self.backward_rescale = backward_rescale
        if not feasible(self.k_total, r, n_in, n_out):
            warnings.warn(
                f"K*r = {self.k_total * r} < min(n_in, n_out) = {min(n_in, n_out)}; "
                "the layer cannot reach full rank",
                FeasibilityWarning,
            )
        if r > min(n_tx, n_rx):
            warnings.warn(
                f"r = {r} > min(n_tx, n_rx) = min({n_tx}, {n_rx}); a channel use "
                "carries at most min(n_tx, n_rx) streams",
                FeasibilityWarning,
            )
        bulk = "full" if design.form == "combined" else "w0"
        self.tx_mode = bulk if design.side == "transmitter" else "chunk"
        self.rx_mode = bulk if design.side == "receiver" else "chunk"
        kr = self.k_total * r
        self.params = {}
        if design.side == "transmitter":
            self.params["C"] = crandn(rng, (n_rx, r), var=1.0 / n_rx)
            if design.form == "combined":
                self.params["P"] = np.stack(
                    [crandn(rng, (n_tx, n_in), var=1.0 / n_in) for _ in range(self.k_total)])
            else:
                self.params["W0"] = crandn(rng, (kr, n_in), var=1.0 / n_in)
                self.params["P"] = crandn(rng, (n_tx, r), var=1.0 / r)
        else:
            self.params["P"] = crandn(rng, (n_tx, r), var=1.0 / r)
            if design.form == "combined":
                self.params["C"] = np.stack(
                    [crandn(rng, (n_rx, n_out), var=1.0 / n_rx) for _ in range(self.k_total)])
            else:
                self.params["W0"] = crandn(rng, (n_out, kr), var=1.0 / kr)
                self.params["C"] = crandn(rng, (n_rx, r), var=1.0 / n_rx)
        if bias:
            self.params["b"] = np.zeros(n_out, dtype=np.complex128)
        self.frozen: set = set()

    # -- parameter bookkeeping ---------------------------------------------

    def parameters(self) -> dict:
        return dict(self.params)

    def freeze(self, *names: str):
        for name in names:
            if name not in self.params:
                raise KeyError(name)
            self.frozen.add(name)

    # -- the two end maps and their adjoints --------------------------------

    def _tx(self, x: np.ndarray):
        """Transmit end: layer input (n_in, B) -> (u, blocks).

        u is what the precoders act on: x itself (full), or its (K, r, B)
        chunks (chunk) or those of W0 x (w0).  blocks = P @ u is the raw
        precoded (K, n_tx, B) stack.
        """
        if self.tx_mode == "full":
            u = x
        elif self.tx_mode == "w0":
            u = (self.params["W0"] @ x).reshape(self.k_total, self.r, -1)
        else:
            u = _chunk(x, self.k_total, self.r)
        return u, self.params["P"] @ u

    def _tx_adjoint(self, t: Transcript, g_blocks: np.ndarray):
        """Adjoint of _tx at the block gradients g_blocks (K, n_tx, B).

        Returns (g_x, grads): the layer-input gradient, taken through the
        per-use precoder-input gradients P_k^H g_k, and the transmitter
        parameter gradients.  A shared P sums its gradient over the uses.
        """
        p = self.params["P"]
        g_u = _hermitian(p) @ g_blocks
        g_p = g_blocks @ _hermitian(t.u)
        grads = {"P": g_p if p.ndim == 3 else np.sum(g_p, axis=0)}
        if self.tx_mode == "full":
            return g_u.sum(axis=0), grads
        if self.tx_mode == "chunk":
            return _unchunk(g_u, self.n_in), grads
        g_s = g_u.reshape(self.k_total * self.r, -1)
        grads["W0"] = g_s @ t.x.conj().T
        return self.params["W0"].conj().T @ g_s, grads

    def _rx(self, received: np.ndarray, scale: np.ndarray):
        """Receive end: antenna blocks (K, n_rx, B) -> (y, z).

        z = scale * (C^H @ received) is the stack of per-use combiner
        outputs; y is the layer output before the bias: their sum (full),
        their rows stacked (chunk), or W0 times that stack (w0).
        """
        z = scale[:, None, None] * (_hermitian(self.params["C"]) @ received)
        if self.rx_mode == "full":
            return z.sum(axis=0), z
        if self.rx_mode == "chunk":
            return _unchunk(z, self.n_out), z
        return self.params["W0"] @ z.reshape(self.k_total * self.r, -1), z

    def _rx_adjoint(self, g_y: np.ndarray, scale: np.ndarray, t: Transcript | None = None):
        """Adjoint of _rx at the output gradient g_y (n_out, B).

        Returns (back, grads): back = C @ gamma is the antenna-domain image
        of the scaled gradients gamma_k of the per-use combiner outputs,
        (K, n_rx, B).  grads holds the receiver parameter gradients, taken
        from the transcript t when one is given; a shared C sums its
        gradient over the uses.
        """
        grads = {}
        if self.rx_mode == "w0":
            if t is not None:
                grads["W0"] = g_y @ t.z.reshape(self.k_total * self.r, -1).conj().T
            g_y = self.params["W0"].conj().T @ g_y
        if self.rx_mode != "full":
            g_y = _chunk(g_y, self.k_total, self.r)
        gamma = scale[:, None, None] * g_y
        c = self.params["C"]
        if t is not None:
            g_c = t.received @ _hermitian(gamma)
            grads["C"] = g_c if c.ndim == 3 else np.sum(g_c, axis=0)
        return c @ gamma, grads

    # -- effective per-use matrices: the end maps applied to the identity ----

    def _precoders(self) -> np.ndarray:
        """Full (K, n_tx, n_in) precoding matrices."""
        return self._tx(np.eye(self.n_in, dtype=np.complex128))[1]

    def _combiners(self) -> np.ndarray:
        """Full (K, n_rx, n_out) combining matrices."""
        return self._rx_adjoint(np.eye(self.n_out, dtype=np.complex128),
                                np.ones(self.k_total))[0]

    # -- forward and backward -------------------------------------------------

    def forward(self, x: np.ndarray, channel: ChannelState, noise: NoiseModel,
                rng: np.random.Generator | None = None):
        """Run the layer over the air.  Returns (y, transcript)."""
        x = np.array(x, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_in or x.shape[1] == 0:
            raise ValueError(f"expected ({self.n_in}, batch) input with batch >= 1, "
                             f"got {x.shape}")
        if channel.n_tx != self.n_tx or channel.n_rx != self.n_rx:
            raise ValueError("channel array sizes do not match the layer")
        # This call owns the (K, n_tx, B) stack sent: it is scaled in place
        # and, on a square array, received into in place.
        u, sent = self._tx(x)
        sent, a = power_normalize(sent, out=sent)
        square = self.n_tx == self.n_rx
        received = transmit_forward(channel, sent, noise, rng, out=sent if square else None)
        del sent
        y, z = self._rx(received, a)
        if "b" in self.params:
            y += self.params["b"][:, None]
        return y, Transcript(a=a, received=received, x=x, u=u,
                             z=z if self.rx_mode == "w0" else None)

    def backward(self, transcript: Transcript, g_y: np.ndarray, channel: ChannelState,
                 noise: NoiseModel, rng: np.random.Generator | None = None):
        """Transport the upstream gradient back over the reverse channel.

        The receiver computes its local parameter gradients from the recorded
        received blocks, then radiates the conjugated per-use gradients
        through the reverse direction; the transmitter conjugates what
        arrives and finishes the chain locally.  Frozen parameters get no
        gradient.
        """
        t = transcript
        g_y = np.asarray(g_y, dtype=np.complex128)
        if g_y.shape != (self.n_out, t.x.shape[1]):
            raise ValueError(f"expected ({self.n_out}, {t.x.shape[1]}) gradient, "
                             f"got {g_y.shape}")
        back, grads = self._rx_adjoint(g_y, t.a, t)
        if "b" in self.params:
            grads["b"] = g_y.sum(axis=1)
        # This call owns the (K, ., B) stacks back and stream_grads: back is
        # conjugated, scaled and, on a square array, received into in place.
        back, a_tilde = power_normalize(np.conj(back, out=back), out=back)
        square = self.n_tx == self.n_rx
        received = transmit_backward(channel, back, noise, rng, out=back if square else None)
        del back
        stream_grads = np.conj(received)
        # Real per-use scales act on the float view, with the bytes of
        # a_tilde * stream_grads / t.a up to the sign of exact zeros (see
        # power_normalize); without backward_rescale there is no a_tilde.
        floats = stream_grads.view(np.float64)
        if self.backward_rescale:
            floats *= a_tilde[:, None, None]
        floats *= (1.0 / t.a)[:, None, None]
        g_x, tx_grads = self._tx_adjoint(t, stream_grads)
        grads.update(tx_grads)
        for name in self.frozen:
            del grads[name]
        return OacBackwardResult(g_x=g_x, grads=grads, stream_grads=stream_grads,
                                 received=received, a_tilde=a_tilde)


def equivalent_weight(layer: OacLayer, channel: ChannelState) -> np.ndarray:
    """The noiseless matrix the layer implements: sum_k C_k^H H P_k."""
    per_use = _hermitian(layer._combiners()) @ channel.matrix @ layer._precoders()
    return per_use.sum(axis=0)


def decompose_weight(w: np.ndarray, channel: ChannelState, k: int, r: int):
    """Split an arbitrary weight into per-use precoders and combiners.

    Requires k * r >= min(n_in, n_out) and channel rank >= r.  The weight is
    installed, over k uses, in a combined layer whose bulk sits on the
    larger side (see layer_from_weight), and that layer's per-use matrices
    are returned as (p_list, c_list) with sum_i c_i^H H p_i == w to working
    precision.
    """
    w = np.asarray(w, dtype=np.complex128)
    n_out, n_in = w.shape
    if not feasible(k, r, n_in, n_out):
        raise FeasibilityError(
            f"k*r = {k * r} < min(n_in, n_out) = {min(n_in, n_out)}")
    side = "transmitter" if n_in >= n_out else "receiver"
    layer = layer_from_weight(w, channel, OacDesign(side, "combined"), r, k=k)
    err = np.linalg.norm(equivalent_weight(layer, channel) - w) / max(np.linalg.norm(w), 1e-300)
    if err > 1e-8:
        raise FeasibilityError(f"reconstruction failed, relative error {err:.2e}")
    return list(layer._precoders()), list(layer._combiners())


def ideal_matrices(channel: ChannelState, r: int):
    """Channel-aware slim pair: top-r right/left singular vectors of H.

    With these installed the combined response C^H H P is diagonal with the
    top-r singular values.  Only meaningful when both arrays have at least r
    antennas and the channel has rank >= r.
    """
    if r < 1 or r > min(channel.n_tx, channel.n_rx):
        raise ValueError("r must lie in [1, min(n_tx, n_rx)]")
    u, s, v = svd(channel.matrix)
    return v[:, :r].copy(), u[:, :r].copy()


def layer_from_weight(w: np.ndarray, channel: ChannelState, design: OacDesign, r: int,
                      rng: np.random.Generator | None = None,
                      k: int | None = None) -> OacLayer:
    """Build a bias-free layer whose noiseless response equals the given weight.

    The slim matrices come from the channel's dominant singular subspace;
    the bulk parameters are solved so W_eff == w exactly (channel rank >= r
    required).  k is the number of channel uses, as in OacLayer.
    """
    w = np.asarray(w, dtype=np.complex128)
    n_out, n_in = w.shape
    if rng is None:
        rng = np.random.default_rng(0)
    layer = OacLayer(design, n_in, n_out, channel.n_tx, channel.n_rx, r, rng,
                     k=k, bias=False)
    h = channel.matrix
    if matrix_rank(h) < r:
        raise ChannelRankError(f"channel rank {matrix_rank(h)} < r = {r}")
    u, s, v = svd(h)
    k_total, kr = layer.k_total, layer.k_total * layer.r
    params = layer.params
    if design.side == "transmitter":
        params["C"][...] = u[:, :r] / s[:r]
        if design.form == "separated":
            # C^H H V_r = I, so W0 just carries the weight rows.
            params["P"][...] = v[:, :r]
            params["W0"][...] = _chunk(w, k_total, r).reshape(kr, n_in)
        else:
            g = np.hstack(_hermitian(layer._combiners()) @ h)
            params["P"][...] = (pinv(g) @ w).reshape(params["P"].shape)
    else:
        params["P"][...] = v[:, :r] / s[:r]
        cols = _chunk(w.T, k_total, r)           # cols[i]: column block i of w, transposed
        if design.form == "separated":
            params["C"][...] = u[:, :r]
            params["W0"][...] = cols.reshape(kr, n_out).T
        else:
            params["C"][...] = (h @ params["P"]) @ cols.conj()    # H P: orthonormal columns
    return layer


# -- link quality ------------------------------------------------------------

@dataclass
class SnrReport:
    """Per-use, per-stream signal-to-noise ratios in dB.

    forward is (K, n_out): each output row of each use's combined
    contribution.  backward is (K, m): each precoder-input stream of each
    use, m = n_in for per-use transmitter precoders and r otherwise.  a is
    the forward transmit scale per use, and a_tilde the backward one that
    OacLayer.backward sends.  The gradient it sends is already scaled by
    a_k, so a_tilde_k is a_k times the scale of the unscaled upstream
    gradient, and the backward figures of use k sit 10 log10 a_k dB below
    that gradient's.

    A row that carries no signal reads -3000 dB, the log of the 1e-300
    clamp: the forward rows that another use owns, and under an explicit k
    every stream of a use whose backward gradient is all zero.  Drop those
    rows (e.g. keep figures above -100 dB) before averaging.
    """

    forward: np.ndarray
    backward: np.ndarray
    a: np.ndarray
    a_tilde: np.ndarray


def _snr_db(signal: np.ndarray, antennas: int, p_n: float, scale: np.ndarray) -> np.ndarray:
    """Mean power over the batch of each row of each use, times antennas /
    p_n and divided by the use's scale, in dB; p_n = 0 gives +inf."""
    power = np.mean(np.abs(signal) ** 2, axis=2)
    if p_n == 0.0:
        return np.full(power.shape, np.inf)
    return 10.0 * np.log10(np.maximum(power * antennas / p_n / scale[:, None], 1e-300))


def snr_report(layer: OacLayer, channel: ChannelState, x: np.ndarray,
               g_y: np.ndarray, p_n: float) -> SnrReport:
    """Empirical stream SNRs for one batch: the layer's own passes, noiseless.

    Runs layer.forward and layer.backward with NOISELESS.  Forward: mean
    squared magnitude of each row of C_k^H H t_k, with t_k the unit-power
    block of use k, times n_rx / p_n.  Backward: the same figure for the
    streams P_k^H conj(H^T q_k) that reach the precoders, with q_k the
    unit-power block backward sent, times n_tx / p_n and divided by the
    scale a_tilde_k it sent.  p_n = 0 reports +inf everywhere, and a row
    with no signal reads -3000 dB (see SnrReport).
    """
    _, t = layer.forward(x, channel, NOISELESS)
    seen = _hermitian(layer._combiners()) @ t.received
    res = layer.backward(t, g_y, channel, NOISELESS)
    streams = _hermitian(layer.params["P"]) @ res.received.conj()
    return SnrReport(forward=_snr_db(seen, layer.n_rx, p_n, np.ones(layer.k_total)),
                     backward=_snr_db(streams, layer.n_tx, p_n, res.a_tilde),
                     a=t.a, a_tilde=res.a_tilde)


# -- convolutional front end --------------------------------------------------

class OacConvLayer:
    """Convolution computed locally, channel mixing computed over the air.

    The owning node convolves with its kernels as usual; every spatial
    position of the result is a channel vector, and those vectors ride the
    same over-the-air machinery as a dense layer with n_in = n_out = n_co.
    Mixing the kernels by a matrix before convolving and mixing the outputs
    after are the same operation, which is what makes this exact.  padding
    goes to the Conv2d and bias to the mixing OacLayer, which rescales in
    both directions.
    """

    def __init__(self, n_ci: int, n_co: int, nk: int, design: OacDesign,
                 n_tx: int, n_rx: int, r: int, rng: np.random.Generator,
                 bias: bool = True, padding: str = "same"):
        from .nn import Conv2d
        self.conv = Conv2d(n_ci, n_co, nk, rng, bias=False, padding=padding)
        self.mix = OacLayer(design, n_co, n_co, n_tx, n_rx, r, rng, bias=bias)
        self.n_co = n_co

    def parameters(self) -> dict:
        out = {f"conv.{k}": v for k, v in self.conv.parameters().items()}
        out.update({f"mix.{k}": v for k, v in self.mix.parameters().items()})
        return out

    def forward(self, x: np.ndarray, channel: ChannelState, noise: NoiseModel,
                rng: np.random.Generator | None = None):
        z, conv_cache = self.conv.forward(x)
        b, c, ho, wo = z.shape
        pix = z.transpose(1, 0, 2, 3).reshape(c, b * ho * wo)
        y_vec, transcript = self.mix.forward(pix, channel, noise, rng)
        y = y_vec.reshape(c, b, ho, wo).transpose(1, 0, 2, 3)
        return y, {"conv": conv_cache, "mix": transcript}

    def backward(self, cache, g_y: np.ndarray, channel: ChannelState, noise: NoiseModel,
                 rng: np.random.Generator | None = None):
        b, c, ho, wo = g_y.shape
        g_vec = g_y.transpose(1, 0, 2, 3).reshape(c, b * ho * wo)
        res = self.mix.backward(cache["mix"], g_vec, channel, noise, rng)
        g_z = res.g_x.reshape(c, b, ho, wo).transpose(1, 0, 2, 3)
        g_x, conv_grads = self.conv.backward(cache["conv"], g_z)
        grads = {f"mix.{k}": v for k, v in res.grads.items()}
        grads.update({f"conv.{k}": v for k, v in conv_grads.items()})
        return OacBackwardResult(g_x=g_x, grads=grads, stream_grads=res.stream_grads,
                                 received=res.received, a_tilde=res.a_tilde)
