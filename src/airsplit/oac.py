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
the trainable bulk (transmitter or receiver) and whether that bulk is a list
of full per-use matrices (combined) or a conventional weight W0 folded
around one shared slim pair (separated).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelState, NoiseModel, transmit_backward, transmit_forward
from .linalg import crandn, matrix_rank, pinv, svd

__all__ = [
    "OacDesign",
    "ALL_DESIGNS",
    "FeasibilityError",
    "FeasibilityWarning",
    "ChannelRankError",
    "feasible",
    "power_normalize",
    "build_combiners",
    "build_precoders_separated",
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
    "mix_kernels",
    "mix_channels",
    "oac_fc_forward",
    "oac_fc_backward",
    "oac_conv_forward",
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


def power_normalize(block: np.ndarray):
    """Scale a signal block to unit average transmit power.

    Returns (scaled, a) with a = sqrt(mean over columns of ||column||^2), so
    the scaled columns average power one.  An all-zero block keeps a = 1.
    """
    a = math.sqrt(float(np.mean(np.sum(np.abs(block) ** 2, axis=0))))
    if a == 0.0:
        return block, 1.0
    return block / a, a


def build_combiners(c: np.ndarray, k_total: int, k: int) -> np.ndarray:
    """Place the slim combiner c in the k-th of k_total column blocks.

    c has r columns; the result has k_total * r columns with c occupying
    columns [k*r, (k+1)*r) and zeros elsewhere.
    """
    n_rx, r = c.shape
    out = np.zeros((n_rx, k_total * r), dtype=np.complex128)
    out[:, k * r:(k + 1) * r] = c
    return out


def build_precoders_separated(w0: np.ndarray, p: np.ndarray, k_total: int, k: int) -> np.ndarray:
    """Effective per-use precoder of the separated transmitter design.

    The k-th use sends p applied to rows [k*r, (k+1)*r) of w0 x, so the
    effective precoder is p @ w0[k*r:(k+1)*r, :].
    """
    r = p.shape[1]
    if w0.shape[0] < k_total * r:
        raise ValueError("w0 has fewer rows than k_total * r")
    return p @ w0[k * r:(k + 1) * r, :]


def _pad_rows(x: np.ndarray, rows: int) -> np.ndarray:
    if x.shape[0] == rows:
        return x
    out = np.zeros((rows,) + x.shape[1:], dtype=x.dtype)
    out[: x.shape[0]] = x
    return out


@dataclass
class Transcript:
    """Everything both nodes recorded during one forward pass."""

    design: OacDesign
    k_total: int
    batch: int
    a: np.ndarray                    # per-use transmit scale
    transmitted: list                # normalized blocks that hit the air
    received: list                   # raw antenna blocks at the receiver
    x: np.ndarray                    # layer input
    s: np.ndarray | None             # w0 @ x (separated transmitter only)
    x_pad: np.ndarray | None         # zero-padded input (receiver designs)
    z: np.ndarray | None             # scaled combined stack (separated receiver)
    events: list = field(default_factory=list)
    feasibility_warning: bool = False

    def to_records(self):
        """Structured per-use records for debugging and export."""
        return [
            {
                "use": k,
                "scale": float(self.a[k]),
                "transmitted": self.transmitted[k],
                "received": self.received[k],
            }
            for k in range(self.k_total)
        ]


@dataclass
class OacBackwardResult:
    g_x: np.ndarray
    grads: dict
    stream_grads: list               # per-use gradient wrt the pre-scale transmit block
    received: list                   # raw backward antenna blocks at the transmitter
    a_tilde: np.ndarray
    events: list


class OacLayer:
    """One over-the-air dense connection.

    n_in/n_out are the layer sizes, n_tx/n_rx the array sizes, r the number
    of spatial streams per channel use.  The number of uses K is
    ceil(n_out / r) for transmitter-parameterized designs (the output is
    produced r entries at a time) and ceil(n_in / r) for receiver-
    parameterized ones (the input is consumed r entries at a time).

    forward_rescale: the receiver multiplies each combined block by the
    transmit scale a_k it was told out of band, so the noiseless layer equals
    W_eff exactly.  backward_rescale: the transmitter undoes the backward
    transmit normalization the same way; leave it off when the optimizer is
    scale-invariant.
    """

    def __init__(self, design: OacDesign, n_in: int, n_out: int, n_tx: int, n_rx: int,
                 r: int, rng: np.random.Generator, k: int | None = None, bias: bool = True,
                 forward_rescale: bool = True, backward_rescale: bool = True):
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
        self.forward_rescale = forward_rescale
        self.backward_rescale = backward_rescale
        self.feasibility_warning = not feasible(self.k_total, r, n_in, n_out)
        if self.feasibility_warning:
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
        kr = self.k_total * r
        self.params = {}
        if design.side == "transmitter":
            self.params["C"] = crandn(rng, (n_rx, r), var=1.0 / n_rx)
            if design.form == "combined":
                for i in range(self.k_total):
                    self.params[f"P_{i}"] = crandn(rng, (n_tx, n_in), var=1.0 / n_in)
            else:
                self.params["W0"] = crandn(rng, (kr, n_in), var=1.0 / n_in)
                self.params["P"] = crandn(rng, (n_tx, r), var=1.0 / r)
        else:
            self.params["P"] = crandn(rng, (n_tx, r), var=1.0 / r)
            if design.form == "combined":
                for i in range(self.k_total):
                    self.params[f"C_{i}"] = crandn(rng, (n_rx, n_out), var=1.0 / n_rx)
            else:
                self.params["W0"] = crandn(rng, (n_out, kr), var=1.0 / kr)
                self.params["C"] = crandn(rng, (n_rx, r), var=1.0 / n_rx)
        if bias:
            self.params["b"] = np.zeros(n_out, dtype=np.complex128)
        self.frozen: set = set()

    # -- parameter bookkeeping ---------------------------------------------

    def parameters(self) -> dict:
        return dict(self.params)

    def trainable_parameters(self) -> dict:
        return {k: v for k, v in self.params.items() if k not in self.frozen}

    def freeze(self, *names: str):
        for name in names:
            if name not in self.params:
                raise KeyError(name)
            self.frozen.add(name)

    def combiner_names(self):
        return [k for k in self.params if k == "C" or k.startswith("C_")]

    # -- effective per-use matrices ----------------------------------------

    def combiner(self, k: int) -> np.ndarray:
        """Full (n_rx, n_out) combining matrix of use k."""
        d = self.design
        if d.side == "receiver" and d.form == "combined":
            return self.params[f"C_{k}"]
        if d.side == "receiver":  # separated
            blk = self.params["W0"][:, k * self.r:(k + 1) * self.r]
            return self.params["C"] @ blk.conj().T
        # transmitter designs share one slim combiner; output block k.
        wide = build_combiners(self.params["C"], self.k_total, k)
        return wide[:, : self.n_out]

    def precoder(self, k: int) -> np.ndarray:
        """Full (n_tx, n_in) precoding matrix of use k."""
        d = self.design
        if d.side == "transmitter" and d.form == "combined":
            return self.params[f"P_{k}"]
        if d.side == "transmitter":  # separated
            return build_precoders_separated(self.params["W0"], self.params["P"],
                                             self.k_total, k)
        # receiver designs chunk the input.
        sel = np.eye(self.k_total * self.r, self.n_in, dtype=np.complex128)
        return self.params["P"] @ sel[k * self.r:(k + 1) * self.r, :]

    # -- forward ------------------------------------------------------------

    def _precoded_blocks(self, x: np.ndarray):
        d = self.design
        aux = {}
        if d.side == "transmitter":
            if d.form == "combined":
                blocks = [self.params[f"P_{k}"] @ x for k in range(self.k_total)]
            else:
                s = self.params["W0"] @ x
                aux["s"] = s
                blocks = [self.params["P"] @ s[k * self.r:(k + 1) * self.r]
                          for k in range(self.k_total)]
        else:
            x_pad = _pad_rows(x, self.k_total * self.r)
            aux["x_pad"] = x_pad
            blocks = [self.params["P"] @ x_pad[k * self.r:(k + 1) * self.r]
                      for k in range(self.k_total)]
        return blocks, aux

    def forward(self, x: np.ndarray, channel: ChannelState, noise: NoiseModel,
                rng: np.random.Generator | None = None, fwd_cov=None):
        """Run the layer over the air.  Returns (y, transcript).

        fwd_cov, when given, receives one update with all raw received blocks
        of this batch, after reception and before combining.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_in:
            raise ValueError(f"expected ({self.n_in}, batch) input, got {x.shape}")
        if channel.n_tx != self.n_tx or channel.n_rx != self.n_rx:
            raise ValueError("channel array sizes do not match the layer")
        events = []
        blocks, aux = self._precoded_blocks(x)
        transmitted, received, scales = [], [], []
        for k, raw in enumerate(blocks):
            tk, a = power_normalize(raw)
            events.append(f"precode:{k}")
            yk = transmit_forward(channel, tk, noise, rng)
            events.append(f"receive:{k}")
            transmitted.append(tk)
            received.append(yk)
            scales.append(a)
        if fwd_cov is not None:
            fwd_cov.update(np.hstack(received))
            events.append("covariance")
        a = np.asarray(scales)
        d = self.design
        z_store = None
        if d.side == "transmitter":
            parts = []
            c = self.params["C"]
            for k in range(self.k_total):
                zk = c.conj().T @ received[k]
                parts.append(a[k] * zk if self.forward_rescale else zk)
            y = np.vstack(parts)[: self.n_out]
        elif d.form == "combined":
            y = np.zeros((self.n_out, x.shape[1]), dtype=np.complex128)
            for k in range(self.k_total):
                zk = self.params[f"C_{k}"].conj().T @ received[k]
                y += a[k] * zk if self.forward_rescale else zk
        else:
            c = self.params["C"]
            parts = []
            for k in range(self.k_total):
                zk = c.conj().T @ received[k]
                parts.append(a[k] * zk if self.forward_rescale else zk)
            z_store = np.vstack(parts)
            y = self.params["W0"] @ z_store
        events.append("combine")
        if "b" in self.params:
            y = y + self.params["b"][:, None]
        transcript = Transcript(
            design=d, k_total=self.k_total, batch=x.shape[1], a=a,
            transmitted=transmitted, received=received, x=x.copy(),
            s=aux.get("s"), x_pad=aux.get("x_pad"), z=z_store, events=events,
            feasibility_warning=self.feasibility_warning,
        )
        return y, transcript

    # -- backward ------------------------------------------------------------

    def _receiver_blocks(self, transcript: Transcript, g_y: np.ndarray):
        """Per-use upstream gradients and receiver-side parameter grads.

        Returns (gammas, grads) where gammas[k] is the gradient of the k-th
        combine input, already multiplied by the forward scale when the
        forward output was rescaled.
        """
        d = self.design
        grads = {}
        scale = transcript.a if self.forward_rescale else np.ones_like(transcript.a)
        gammas = []
        if d.side == "transmitter":
            g_pad = _pad_rows(g_y, self.k_total * self.r)
            g_c = np.zeros_like(self.params["C"])
            for k in range(self.k_total):
                gk = scale[k] * g_pad[k * self.r:(k + 1) * self.r]
                g_c += transcript.received[k] @ gk.conj().T
                gammas.append(gk)
            grads["C"] = g_c
        elif d.form == "combined":
            for k in range(self.k_total):
                gk = scale[k] * g_y
                grads[f"C_{k}"] = transcript.received[k] @ gk.conj().T
                gammas.append(gk)
        else:
            g_zs = self.params["W0"].conj().T @ g_y
            grads["W0"] = g_y @ transcript.z.conj().T
            g_c = np.zeros_like(self.params["C"])
            for k in range(self.k_total):
                gk = scale[k] * g_zs[k * self.r:(k + 1) * self.r]
                g_c += transcript.received[k] @ gk.conj().T
                gammas.append(gk)
            grads["C"] = g_c
        if "b" in self.params:
            grads["b"] = g_y.sum(axis=1)
        return gammas, grads

    def backward(self, transcript: Transcript, g_y: np.ndarray, channel: ChannelState,
                 noise: NoiseModel, rng: np.random.Generator | None = None, bwd_cov=None):
        """Transport the upstream gradient back over the reverse channel.

        The receiver computes its local parameter gradients from the recorded
        received blocks, then radiates the conjugated per-use gradients
        through the reverse direction; the transmitter conjugates what
        arrives and finishes the chain locally.  bwd_cov, when given, sees
        all raw backward blocks after reception and before the precoder-side
        gradient computation.
        """
        g_y = np.asarray(g_y, dtype=np.complex128)
        if g_y.shape != (self.n_out, transcript.batch):
            raise ValueError(f"expected ({self.n_out}, {transcript.batch}) gradient, "
                             f"got {g_y.shape}")
        d = self.design
        events = []
        gammas, grads = self._receiver_blocks(transcript, g_y)
        # Which matrix turns a combine-input gradient into an antenna-domain
        # payload: the slim shared combiner, or the per-use full one.
        received, a_tilde = [], []
        for k in range(self.k_total):
            if d.side == "receiver" and d.form == "combined":
                payload_raw = (self.params[f"C_{k}"] @ gammas[k]).conj()
            else:
                payload_raw = (self.params["C"] @ gammas[k]).conj()
            payload, at = power_normalize(payload_raw)
            events.append(f"back-transmit:{k}")
            wk = transmit_backward(channel, payload, noise, rng)
            events.append(f"back-receive:{k}")
            received.append(wk)
            a_tilde.append(at)
        if bwd_cov is not None:
            bwd_cov.update(np.hstack(received))
            events.append("covariance")
        a_tilde = np.asarray(a_tilde)
        stream_grads = []
        for k in range(self.k_total):
            undo = a_tilde[k] if self.backward_rescale else 1.0
            stream_grads.append(undo * received[k].conj() / transcript.a[k])
        events.append("stream-grads")
        if d.side == "transmitter" and d.form == "combined":
            g_x = np.zeros((self.n_in, transcript.batch), dtype=np.complex128)
            for k in range(self.k_total):
                grads[f"P_{k}"] = stream_grads[k] @ transcript.x.conj().T
                g_x += self.params[f"P_{k}"].conj().T @ stream_grads[k]
        elif d.side == "transmitter":
            p = self.params["P"]
            g_p = np.zeros_like(p)
            chunks = []
            for k in range(self.k_total):
                sk = transcript.s[k * self.r:(k + 1) * self.r]
                g_p += stream_grads[k] @ sk.conj().T
                chunks.append(p.conj().T @ stream_grads[k])
            g_s = np.vstack(chunks)
            grads["P"] = g_p
            grads["W0"] = g_s @ transcript.x.conj().T
            g_x = self.params["W0"].conj().T @ g_s
        else:
            p = self.params["P"]
            g_p = np.zeros_like(p)
            g_x_pad = np.zeros((self.k_total * self.r, transcript.batch), dtype=np.complex128)
            for k in range(self.k_total):
                xk = transcript.x_pad[k * self.r:(k + 1) * self.r]
                g_p += stream_grads[k] @ xk.conj().T
                g_x_pad[k * self.r:(k + 1) * self.r] = p.conj().T @ stream_grads[k]
            grads["P"] = g_p
            g_x = g_x_pad[: self.n_in]
        events.append("input-grad")
        return OacBackwardResult(g_x=g_x, grads=grads, stream_grads=stream_grads,
                                 received=received, a_tilde=a_tilde, events=events)


def equivalent_weight(layer: OacLayer, channel: ChannelState) -> np.ndarray:
    """The noiseless matrix the layer implements: sum_k C_k^H H P_k."""
    w = np.zeros((layer.n_out, layer.n_in), dtype=np.complex128)
    for k in range(layer.k_total):
        w += layer.combiner(k).conj().T @ channel.matrix @ layer.precoder(k)
    return w


def decompose_weight(w: np.ndarray, channel: ChannelState, k: int, r: int):
    """Split an arbitrary weight into per-use precoders and combiners.

    Requires k * r >= min(n_in, n_out) and channel rank >= r.  One side is
    built from the channel's dominant singular subspace so the stacked
    response has full row (or column) rank; the other side is solved with a
    pseudo-inverse.  Returns (p_list, c_list) with
    sum_i c_i^H H p_i == w to working precision.
    """
    w = np.asarray(w, dtype=np.complex128)
    n_out, n_in = w.shape
    if not feasible(k, r, n_in, n_out):
        raise FeasibilityError(
            f"k*r = {k * r} < min(n_in, n_out) = {min(n_in, n_out)}")
    h = channel.matrix
    if matrix_rank(h) < r:
        raise ChannelRankError(f"channel rank {matrix_rank(h)} < r = {r}")
    u, s, v = svd(h)
    if n_in >= n_out:
        # Slim combiner whose response C^H H has orthonormal rows.
        c_slim = u[:, :r] / s[:r]
        c_list = [build_combiners(c_slim, k, i)[:, :n_out] for i in range(k)]
        g = np.hstack([c_list[i].conj().T @ h for i in range(k)])
        stacked = pinv(g) @ w
        n_tx = channel.n_tx
        p_list = [stacked[i * n_tx:(i + 1) * n_tx] for i in range(k)]
    else:
        # Slim precoder with H P orthonormal; combiners carry the weight.
        p_slim = v[:, :r] / s[:r]
        m = h @ p_slim                     # orthonormal columns
        m_pinv = pinv(m)
        sel = np.eye(k * r, n_in, dtype=np.complex128)
        p_list = [p_slim @ sel[i * r:(i + 1) * r, :] for i in range(k)]
        w_pad = np.hstack([w, np.zeros((n_out, k * r - n_in), dtype=np.complex128)])
        c_list = [(w_pad[:, i * r:(i + 1) * r] @ m_pinv).conj().T for i in range(k)]
    recon = sum(c_list[i].conj().T @ h @ p_list[i] for i in range(k))
    err = np.linalg.norm(recon - w) / max(np.linalg.norm(w), 1e-300)
    if err > 1e-8:
        raise FeasibilityError(f"reconstruction failed, relative error {err:.2e}")
    return p_list, c_list


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
                      rng: np.random.Generator | None = None, bias: bool = True,
                      **kwargs) -> OacLayer:
    """Build a layer whose noiseless response equals the given weight.

    The slim matrices come from the channel's dominant singular subspace;
    the bulk parameters are solved so W_eff == w exactly (channel rank >= r
    required).
    """
    w = np.asarray(w, dtype=np.complex128)
    n_out, n_in = w.shape
    if rng is None:
        rng = np.random.default_rng(0)
    layer = OacLayer(design, n_in, n_out, channel.n_tx, channel.n_rx, r, rng,
                     bias=bias, **kwargs)
    h = channel.matrix
    if matrix_rank(h) < r:
        raise ChannelRankError(f"channel rank {matrix_rank(h)} < r = {r}")
    u, s, v = svd(h)
    kr = layer.k_total * layer.r
    if design.side == "transmitter":
        c_slim = u[:, :r] / s[:r]
        layer.params["C"][...] = c_slim
        if design.form == "separated":
            # C^H H V_r = I, so W0 just carries the weight rows.
            layer.params["P"][...] = v[:, :r]
            layer.params["W0"][...] = _pad_rows(w, kr)
        else:
            c_list = [layer.combiner(i) for i in range(layer.k_total)]
            g = np.hstack([c_list[i].conj().T @ h for i in range(layer.k_total)])
            stacked = pinv(g) @ w
            for i in range(layer.k_total):
                layer.params[f"P_{i}"][...] = stacked[i * channel.n_tx:(i + 1) * channel.n_tx]
    else:
        if design.form == "separated":
            layer.params["C"][...] = u[:, :r]
            layer.params["P"][...] = v[:, :r] / s[:r]
            layer.params["W0"][...] = np.hstack(
                [w, np.zeros((n_out, kr - n_in), dtype=np.complex128)])
        else:
            layer.params["P"][...] = v[:, :r] / s[:r]
            m = h @ layer.params["P"]     # orthonormal columns
            w_pad = np.hstack([w, np.zeros((n_out, kr - n_in), dtype=np.complex128)])
            for i in range(layer.k_total):
                layer.params[f"C_{i}"][...] = m @ w_pad[:, i * r:(i + 1) * r].conj().T
    if bias:
        layer.params["b"][...] = 0.0
    return layer


# -- link quality ------------------------------------------------------------

@dataclass
class SnrReport:
    """Per-use, per-stream signal-to-noise ratios in dB.

    backward follows the convention that the backward normalization scale
    enters the denominator linearly; backward_power_scaled divides by its
    square instead.  backward_convention records which one is authoritative.
    """

    forward: list
    backward: list
    backward_power_scaled: list
    a: np.ndarray
    a_tilde: np.ndarray
    backward_convention: str = "amplitude"


def snr_report(layer: OacLayer, channel: ChannelState, x: np.ndarray,
               g_y: np.ndarray, p_n: float) -> SnrReport:
    """Empirical stream SNRs for one batch, noiselessly recomputed.

    Forward: mean squared magnitude of each combined stream times n_rx / p_n.
    Backward: the same for the gradient streams arriving at the transmitter,
    times n_tx and divided by the backward scale (amplitude convention) or
    its square (power variant).  p_n = 0 reports +inf everywhere.
    """
    x = np.asarray(x, dtype=np.complex128)
    g_y = np.asarray(g_y, dtype=np.complex128)
    h = channel.matrix
    blocks, _ = layer._precoded_blocks(x)
    d = layer.design
    fwd, bwd, bwd_pow, a_list, at_list = [], [], [], [], []
    for k, raw in enumerate(blocks):
        tk, a = power_normalize(raw)
        a_list.append(a)
        ck = layer.combiner(k)
        z = ck.conj().T @ (h @ tk)
        sig = np.mean(np.abs(z) ** 2, axis=1)
        if p_n == 0.0:
            fwd.append(np.full(sig.shape, np.inf))
        else:
            fwd.append(10.0 * np.log10(np.maximum(sig * layer.n_rx / p_n, 1e-300)))
    gammas = _upstream_for_report(layer, g_y)
    for k in range(layer.k_total):
        if d.side == "receiver" and d.form == "combined":
            slim = layer.params[f"C_{k}"]
        else:
            slim = layer.params["C"]
        payload_raw = (slim @ gammas[k]).conj()
        payload, at = power_normalize(payload_raw)
        at_list.append(at)
        pk = layer.precoder(k) if (d.side == "transmitter" and d.form == "combined") \
            else layer.params["P"]
        e = pk.conj().T @ ((h.T @ payload).conj())
        sig = np.mean(np.abs(e) ** 2, axis=1)
        if p_n == 0.0:
            bwd.append(np.full(sig.shape, np.inf))
            bwd_pow.append(np.full(sig.shape, np.inf))
        else:
            lin = sig * layer.n_tx / p_n
            bwd.append(10.0 * np.log10(np.maximum(lin / at, 1e-300)))
            bwd_pow.append(10.0 * np.log10(np.maximum(lin / at ** 2, 1e-300)))
    return SnrReport(forward=fwd, backward=bwd, backward_power_scaled=bwd_pow,
                     a=np.asarray(a_list), a_tilde=np.asarray(at_list))


def _upstream_for_report(layer: OacLayer, g_y: np.ndarray):
    """Per-use upstream gradient blocks without touching receiver grads."""
    d = layer.design
    if d.side == "transmitter":
        g_pad = _pad_rows(g_y, layer.k_total * layer.r)
        return [g_pad[k * layer.r:(k + 1) * layer.r] for k in range(layer.k_total)]
    if d.form == "combined":
        return [g_y for _ in range(layer.k_total)]
    g_zs = layer.params["W0"].conj().T @ g_y
    return [g_zs[k * layer.r:(k + 1) * layer.r] for k in range(layer.k_total)]


# -- convolutional front end --------------------------------------------------

def mix_kernels(w: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Mix convolution kernels across their output-channel axis by w."""
    return np.einsum("om,miuv->oiuv", w, kernels)


def mix_channels(w: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Mix feature maps (B, C, H, W) across channels by w."""
    return np.einsum("om,bmhw->bohw", w, maps)


class OacConvLayer:
    """Convolution computed locally, channel mixing computed over the air.

    The owning node convolves with its kernels as usual; every spatial
    position of the result is a channel vector, and those vectors ride the
    same over-the-air machinery as a dense layer with n_in = n_out = n_co.
    Mixing the kernels by a matrix before convolving and mixing the outputs
    after are the same operation, which is what makes this exact.
    """

    def __init__(self, n_ci: int, n_co: int, nk: int, design: OacDesign,
                 n_tx: int, n_rx: int, r: int, rng: np.random.Generator,
                 bias: bool = True, padding: str = "same",
                 forward_rescale: bool = True, backward_rescale: bool = True):
        from .nn import Conv2d
        self.conv = Conv2d(n_ci, n_co, nk, rng, bias=False, padding=padding)
        self.mix = OacLayer(design, n_co, n_co, n_tx, n_rx, r, rng, bias=bias,
                            forward_rescale=forward_rescale,
                            backward_rescale=backward_rescale)
        self.n_co = n_co

    def parameters(self) -> dict:
        out = {f"conv.{k}": v for k, v in self.conv.parameters().items()}
        out.update({f"mix.{k}": v for k, v in self.mix.parameters().items()})
        return out

    def trainable_parameters(self) -> dict:
        out = {f"conv.{k}": v for k, v in self.conv.parameters().items()}
        out.update({f"mix.{k}": v for k, v in self.mix.trainable_parameters().items()})
        return out

    def forward(self, x: np.ndarray, channel: ChannelState, noise: NoiseModel,
                rng: np.random.Generator | None = None, fwd_cov=None):
        z, conv_cache = self.conv.forward(x)
        b, c, ho, wo = z.shape
        pix = z.transpose(1, 0, 2, 3).reshape(c, b * ho * wo)
        y_vec, transcript = self.mix.forward(pix, channel, noise, rng, fwd_cov=fwd_cov)
        y = y_vec.reshape(c, b, ho, wo).transpose(1, 0, 2, 3)
        return y, {"conv": conv_cache, "mix": transcript, "shape": (b, c, ho, wo)}

    def backward(self, cache, g_y: np.ndarray, channel: ChannelState, noise: NoiseModel,
                 rng: np.random.Generator | None = None, bwd_cov=None):
        b, c, ho, wo = cache["shape"]
        g_vec = g_y.transpose(1, 0, 2, 3).reshape(c, b * ho * wo)
        res = self.mix.backward(cache["mix"], g_vec, channel, noise, rng, bwd_cov=bwd_cov)
        g_z = res.g_x.reshape(c, b, ho, wo).transpose(1, 0, 2, 3)
        g_x, conv_grads = self.conv.backward(cache["conv"], g_z)
        grads = {f"mix.{k}": v for k, v in res.grads.items()}
        grads.update({f"conv.{k}": v for k, v in conv_grads.items()})
        return OacBackwardResult(g_x=g_x, grads=grads, stream_grads=res.stream_grads,
                                 received=res.received, a_tilde=res.a_tilde,
                                 events=res.events)


# Functional aliases for the primary operations.

def oac_fc_forward(layer: OacLayer, x, channel, noise, rng=None, fwd_cov=None):
    return layer.forward(x, channel, noise, rng, fwd_cov=fwd_cov)


def oac_fc_backward(layer: OacLayer, transcript, g_y, channel, noise, rng=None,
                    bwd_cov=None):
    return layer.backward(transcript, g_y, channel, noise, rng, bwd_cov=bwd_cov)


def oac_conv_forward(layer: OacConvLayer, x, channel, noise, rng=None, fwd_cov=None):
    return layer.forward(x, channel, noise, rng, fwd_cov=fwd_cov)
