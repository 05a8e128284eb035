"""Minimal complex-valued neural network engine with explicit backward passes.

Every layer exposes forward(x, train) -> (y, cache) and
backward(cache, g) -> (g_in, grads).  Gradients follow the conjugate
convention for real losses: for y = W x the weight gradient is g_y x^H and
the input gradient W^H g_y, so a plain step W <- W - lr * g_W descends.
Dense activations use the (features, batch) layout; convolutional tensors
use (batch, channels, height, width).
"""
from __future__ import annotations

import numpy as np

from .linalg import crandn

__all__ = [
    "Dense",
    "Conv2d",
    "ComplexBatchNorm",
    "CRelu",
    "AvgPool2d",
    "Flatten",
    "ComplexNet",
    "modulus_softmax_loss",
    "Sgd",
    "Adam",
    "numerical_gradient",
]


class Dense:
    """y = W x + b on (n_in, batch) activations."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, bias: bool = True):
        self.w = crandn(rng, (n_out, n_in), var=1.0 / n_in)
        self.b = np.zeros(n_out, dtype=np.complex128) if bias else None

    def parameters(self):
        p = {"w": self.w}
        if self.b is not None:
            p["b"] = self.b
        return p

    def forward(self, x, train=True):
        y = self.w @ x
        if self.b is not None:
            y += self.b[:, None]
        return y, {"x": x}

    def backward(self, cache, g):
        grads = {"w": g @ cache["x"].conj().T}
        if self.b is not None:
            grads["b"] = g.sum(axis=1)
        return self.w.conj().T @ g, grads


def _im2col(x, nk, pad):
    """(B, C, H, W) -> patch matrix (B*Ho*Wo, C*nk*nk), stride 1."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (nk, nk), axis=(2, 3))
    # win: (B, C, Ho, Wo, nk, nk) -> (B, Ho, Wo, C, nk, nk)
    ho, wo = win.shape[2], win.shape[3]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, c * nk * nk)
    return np.ascontiguousarray(col), (ho, wo)


def _col2im(gcol, x_shape, nk, pad, ho, wo):
    """Adjoint of _im2col: scatter patch gradients back onto the image."""
    b, c, h, w = x_shape
    g = gcol.reshape(b, ho, wo, c, nk, nk).transpose(0, 3, 1, 2, 4, 5)
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=gcol.dtype)
    for u in range(nk):
        for v in range(nk):
            out[:, :, u:u + ho, v:v + wo] += g[:, :, :, :, u, v]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


class Conv2d:
    """Complex 2-d convolution, stride 1.

    padding "same" keeps the spatial size (odd kernels only), "valid" shrinks
    it by nk - 1.  Kernels have shape (n_out, n_in, nk, nk).
    """

    def __init__(self, n_in: int, n_out: int, nk: int, rng: np.random.Generator,
                 bias: bool = True, padding: str = "same"):
        if padding not in ("same", "valid"):
            raise ValueError("padding must be 'same' or 'valid'")
        if padding == "same" and nk % 2 == 0:
            raise ValueError("'same' padding needs an odd kernel")
        self.nk = nk
        self.pad = (nk - 1) // 2 if padding == "same" else 0
        self.kernels = crandn(rng, (n_out, n_in, nk, nk), var=1.0 / (n_in * nk * nk))
        self.b = np.zeros(n_out, dtype=np.complex128) if bias else None

    def parameters(self):
        p = {"kernels": self.kernels}
        if self.b is not None:
            p["b"] = self.b
        return p

    def forward(self, x, train=True):
        n_out = self.kernels.shape[0]
        col, (ho, wo) = _im2col(x, self.nk, self.pad)
        wmat = self.kernels.reshape(n_out, -1).T  # (C*nk*nk, n_out)
        y = col @ wmat
        if self.b is not None:
            y = y + self.b
        y = y.reshape(x.shape[0], ho, wo, n_out).transpose(0, 3, 1, 2)
        return y, {"col": col, "x_shape": x.shape, "ho": ho, "wo": wo}

    def backward(self, cache, g):
        n_out = self.kernels.shape[0]
        ho, wo = cache["ho"], cache["wo"]
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, n_out)
        g_w = (cache["col"].conj().T @ gmat).T.reshape(self.kernels.shape)
        grads = {"kernels": g_w}
        if self.b is not None:
            grads["b"] = gmat.sum(axis=0)
        wmat = self.kernels.reshape(n_out, -1).T
        gcol = gmat @ wmat.conj().T
        g_x = _col2im(gcol, cache["x_shape"], self.nk, self.pad, ho, wo)
        return g_x, grads


def _bn_axes(x, n_features):
    """Return (stat axes, parameter broadcast shape) for 2-d or 4-d input."""
    if x.ndim not in (2, 4) or x.shape[x.ndim // 4] != n_features:
        raise ValueError(f"batch norm expects ({n_features}, B) or (B, {n_features}, H, W) "
                         f"input, got {x.shape}")
    return ((1,), (n_features, 1)) if x.ndim == 2 else ((0, 2, 3), (1, n_features, 1, 1))


class ComplexBatchNorm:
    """Normalizes real and imaginary parts separately, then a complex affine.

    Train mode uses batch statistics and updates running averages; eval mode
    uses the running averages.  The affine scale gamma multiplies the full
    complex value, so it can rotate as well as stretch.

    Both passes work in place on the real and imaginary part views of one
    complex array with the part-wise floating-point operations (sums over
    each strided part, division by each part's s = sqrt(var + EPS)): the
    bytes of u + 1j * v, save that a zero part of xhat or g_x keeps its sign.
    """

    # The standard batch-norm settings (Ioffe and Szegedy, 2015): the running
    # statistics move MOMENTUM of the way to each batch's, and EPS keeps
    # sqrt(var + EPS) away from zero.
    MOMENTUM = 0.1
    EPS = 1e-8

    def __init__(self, n_features: int):
        self.n = n_features
        self.gamma = np.ones(n_features, dtype=np.complex128)
        self.beta = np.zeros(n_features, dtype=np.complex128)
        self.running_mean = np.zeros(n_features, dtype=np.complex128)
        self.running_var_re = np.ones(n_features, dtype=np.float64)
        self.running_var_im = np.ones(n_features, dtype=np.float64)

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x, train=True):
        axes, shape = _bn_axes(x, self.n)
        if train:
            mu = np.empty(self.n, dtype=np.complex128)
            for part, out in ((x.real, mu.real), (x.imag, mu.imag)):
                np.add.reduce(part, axis=axes, out=out)
            mu.view(np.float64)[...] /= x.size // self.n
        else:
            mu = self.running_mean
        xhat = np.subtract(x, mu.reshape(shape), dtype=np.complex128)
        parts = (xhat.real, xhat.imag)
        if train:
            var = np.empty((2, self.n))
            for part, out in zip(parts, var):
                np.add.reduce(np.square(part), axis=axes, out=out)
            var /= x.size // self.n
            m = self.MOMENTUM
            self.running_mean += m * (mu - self.running_mean)
            self.running_var_re += m * (var[0] - self.running_var_re)
            self.running_var_im += m * (var[1] - self.running_var_im)
        else:
            var = np.stack((self.running_var_re, self.running_var_im))
        s = np.sqrt(var + self.EPS).reshape((2,) + shape)
        for part, s_part in zip(parts, s):
            np.divide(part, s_part, out=part)
        y = self.gamma.reshape(shape) * xhat
        y += self.beta.reshape(shape)
        return y, {"xhat": xhat, "s": s, "axes": axes, "shape": shape, "train": train}

    def backward(self, cache, g):
        axes, shape, xhat, s = cache["axes"], cache["shape"], cache["xhat"], cache["s"]
        grads = {"gamma": np.add.reduce(g * xhat.conj(), axis=axes),
                 "beta": np.add.reduce(g, axis=axes)}
        g_x = self.gamma.conj().reshape(shape) * g
        if not cache["train"]:
            for h, s_part in zip((g_x.real, g_x.imag), s):
                np.divide(h, s_part, out=h)
            return g_x, grads
        # Per part, with h of gamma^* g and u of xhat: (h - mean h - u mean(h u)) / s;
        # the complex subtraction of the means subtracts part from part.
        count, pairs = g.size // self.n, ((g_x.real, xhat.real), (g_x.imag, xhat.imag))
        mean_h, mean_hu = np.empty(self.n, dtype=np.complex128), np.empty((2, self.n))
        for (h, u), out_h, out_hu in zip(pairs, (mean_h.real, mean_h.imag), mean_hu):
            np.add.reduce(h, axis=axes, out=out_h)
            np.add.reduce(h * u, axis=axes, out=out_hu)
        mean_h.view(np.float64)[...] /= count
        mean_hu /= count
        g_x -= mean_h.reshape(shape)
        for (h, u), c, s_part in zip(pairs, mean_hu.reshape((2,) + shape), s):
            np.subtract(h, u * c, out=h)
            np.divide(h, s_part, out=h)
        return g_x, grads


class CRelu:
    """ReLU on real and imaginary parts independently: one mask on the float
    view, so a zeroed part is part * 0.0 and keeps its sign (-0.0 if negative)."""

    def parameters(self):
        return {}

    def forward(self, x, train=True):
        floats = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
        mask = floats > 0
        return (floats * mask).view(np.complex128), mask

    def backward(self, cache, g):
        floats = np.ascontiguousarray(g, dtype=np.complex128).view(np.float64)
        return (floats * cache).view(np.complex128), {}


class AvgPool2d:
    """Global average pooling: (B, C, H, W) -> (B, C, 1, 1)."""

    def parameters(self):
        return {}

    def forward(self, x, train=True):
        h, w = x.shape[2:]
        return x.mean(axis=(2, 3), keepdims=True), {"shape": x.shape, "count": h * w}

    def backward(self, cache, g):
        return np.broadcast_to(g / cache["count"], cache["shape"]).copy(), {}


class Flatten:
    """(B, C, H, W) -> (C*H*W, B) so dense layers can follow conv stacks."""

    def parameters(self):
        return {}

    def forward(self, x, train=True):
        return x.reshape(x.shape[0], -1).T, {"shape": x.shape}

    def backward(self, cache, g):
        return g.T.reshape(cache["shape"]), {}


class ComplexNet:
    """A plain sequence of layers with dict-of-arrays parameters.

    A layer's parameters and gradients are named "<prefix>.<name>", the
    prefix taken from _names(): the layer's position by default.
    """

    def __init__(self, layers):
        self.layers = list(layers)

    def _names(self):
        return [str(i) for i in range(len(self.layers))]

    def parameters(self):
        return {f"{prefix}.{name}": arr
                for prefix, layer in zip(self._names(), self.layers)
                for name, arr in layer.parameters().items()}

    def forward(self, x, train=True):
        """Returns (output, caches).  A training pass keeps one cache per
        layer, in order, for backward; an inference pass keeps none and
        returns [], each cache dropped as soon as the next layer has its
        input."""
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, train=train)
            if train:
                caches.append(cache)
            del cache
        return x, caches

    def backward(self, caches, g):
        """Walk the layers backward from the upstream gradient g.

        Consumes the caches of a training forward pass from their end, so
        each is released before the layer in front of it runs and the list
        is empty on return.  Returns (input gradient, parameter gradients).
        """
        if len(caches) != len(self.layers):
            raise ValueError(f"ctx holds {len(caches)} records for {len(self.layers)} "
                             "stages; only a training forward pass records them")
        names, grads = self._names(), {}
        for i in reversed(range(len(self.layers))):
            g, layer_grads = self.layers[i].backward(caches.pop(), g)
            for name, arr in layer_grads.items():
                grads[f"{names[i]}.{name}"] = arr
        return g, grads


def modulus_softmax_loss(logits: np.ndarray, labels: np.ndarray):
    """Cross-entropy on softmax of squared moduli of complex logits.

    logits: (classes, batch) complex; labels: (batch,) ints in [0, classes).
    Returns (mean loss, gradient wrt logits, accuracy).
    """
    classes, b = logits.shape
    labels = np.asarray(labels)
    if (labels.shape != (b,) or labels.dtype.kind not in "iu"
            or (b and (labels.min() < 0 or labels.max() >= classes))):
        raise ValueError(f"labels must be {b} integers in [0, {classes}), got "
                         f"shape {labels.shape} of {labels.dtype}")
    s = np.abs(logits) ** 2
    s = s - s.max(axis=0, keepdims=True)
    e = np.exp(s)
    p = e / e.sum(axis=0, keepdims=True)
    picked = p[labels, np.arange(b)]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    d = p.copy()
    d[labels, np.arange(b)] -= 1.0
    g = d * logits / b
    acc = float((s.argmax(axis=0) == labels).mean())
    return loss, g, acc


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict, grads: dict):
        for name, g in grads.items():
            params[name] -= self.lr * g


class Adam:
    """Adam applied to real and imaginary parts independently.

    First moments live on the complex value; second moments are kept per
    part so a purely real gradient never normalizes the imaginary axis.
    Bias correction uses a single global step counter.

    The moments live in flat buffers in gradient-dict order, m complex and
    v with (v_re, v_im) side by side; the per-name m, v_re and v_im are
    views into them, so a step is one set of elementwise ops (v and the
    update on float views: m / c1 is m's float view times 1 / c1) plus one
    in-place update per tensor.  The layout is rebuilt, moments carried
    over, whenever the gradient names or shapes change; elementwise ops
    make the bytes independent of the layout.
    """

    # The standard Adam settings (Kingma and Ba, 2015): decay rates of the
    # first and second moments, and the floor added to sqrt(v).
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float = 0.005):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v_re = {}
        self.v_im = {}
        self._layout = None     # ((name, shape), ...) the flat buffers follow
        self._flat = None       # (m, v) flat buffers
        self._slices = []       # (name, slice into the buffers, shape)

    def _build_layout(self, grads: dict, layout: tuple) -> None:
        total = sum(g.size for g in grads.values())
        m, v = np.zeros(total, dtype=np.complex128), np.zeros((total, 2))
        self._slices = []
        lo = 0
        for name, g in grads.items():
            sl = slice(lo, lo + g.size)
            for buf, state in zip((m, v[:, 0], v[:, 1]), (self.m, self.v_re, self.v_im)):
                view = buf[sl].reshape(g.shape)
                if name in state:
                    view[...] = state[name]
                state[name] = view
            self._slices.append((name, sl, g.shape))
            lo += g.size
        self._layout, self._flat = layout, (m, v)

    def step(self, params: dict, grads: dict):
        self.t += 1
        if not grads:
            return
        layout = tuple((name, g.shape) for name, g in grads.items())
        if layout != self._layout:
            self._build_layout(grads, layout)
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        g = np.concatenate([arr.reshape(-1) for arr in grads.values()], dtype=np.complex128)
        m, v = self._flat
        np.add(b1 * m, (1 - b1) * g, out=m)
        np.add(b2 * v, (1 - b2) * np.square(g.view(np.float64)).reshape(v.shape), out=v)
        upd = m.view(np.float64).reshape(v.shape) * (1.0 / c1) / (np.sqrt(v / c2) + self.EPS)
        step = (self.lr * upd).view(np.complex128).reshape(-1)
        for name, sl, shape in self._slices:
            params[name] -= step[sl].reshape(shape)


def numerical_gradient(loss_fn, params: dict) -> dict:
    """Central differences of step 1e-6 on real and imaginary parts of each
    parameter.

    loss_fn() must evaluate the scalar loss using the arrays in params, which
    are perturbed in place and restored.  Returns gradients in the same
    conjugate convention as the analytic backward passes,
    0.5 * (dL/dRe + i dL/dIm).
    """
    eps, grads = 1e-6, {}
    for name, p in params.items():
        g = np.zeros(p.shape, dtype=np.complex128)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn()
            flat[i] = orig - eps
            lm = loss_fn()
            d_re = (lp - lm) / (2 * eps)
            flat[i] = orig + 1j * eps
            lp = loss_fn()
            flat[i] = orig - 1j * eps
            lm = loss_fn()
            d_im = (lp - lm) / (2 * eps)
            flat[i] = orig
            gflat[i] = 0.5 * (d_re + 1j * d_im)
        grads[name] = g
    return grads

