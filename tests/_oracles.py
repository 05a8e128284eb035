"""Reference implementations the tests compare the library against.

Everything here is written directly from the definitions, block by block,
without calling the library's own assembly helpers.  If a library routine
and its oracle agree, a bug would have to be present in both independently.
"""
import numpy as np


# -- channel ------------------------------------------------------------------

def channel_matrix(n_rx, n_tx, arrivals, departures, gains):
    """Entry-wise multipath build: H[q, p] = sum_l g_l e^{-j q a_l} e^{j p d_l}."""
    h = np.zeros((n_rx, n_tx), dtype=np.complex128)
    for q in range(n_rx):
        for p in range(n_tx):
            acc = 0.0 + 0.0j
            for a, d, g in zip(arrivals, departures, gains):
                acc += g * np.exp(-1j * q * a) * np.exp(1j * p * d)
            h[q, p] = acc
    return h


# -- comm loss ----------------------------------------------------------------

def weak_projector(m, r):
    """Orthogonal projector onto the span of the dim - r eigenvectors of the
    Hermitian m with the smallest eigenvalues, from np.linalg.eigh."""
    _, q = np.linalg.eigh(m)                              # eigenvalues ascending
    weak = q[:, :m.shape[0] - r]
    return weak @ weak.conj().T


# -- node layers --------------------------------------------------------------

class PartwiseBatchNorm:
    """ComplexBatchNorm written part by part: each part's statistics from
    numpy's mean and var of its strided view, xhat recombined as u + 1j * v,
    and each part's gradient through its own batch-statistics correction."""

    def __init__(self, n, momentum=0.1, eps=1e-8):
        self.n, self.momentum, self.eps = n, momentum, eps
        self.gamma = np.ones(n, dtype=np.complex128)
        self.beta = np.zeros(n, dtype=np.complex128)
        self.running_mean = np.zeros(n, dtype=np.complex128)
        self.running_var_re = np.ones(n)
        self.running_var_im = np.ones(n)

    def forward(self, x, train=True):
        axes = (1,) if x.ndim == 2 else (0, 2, 3)
        shape = (self.n, 1) if x.ndim == 2 else (1, self.n, 1, 1)
        if train:
            mu_re, mu_im = x.real.mean(axis=axes), x.imag.mean(axis=axes)
            var_re, var_im = x.real.var(axis=axes), x.imag.var(axis=axes)
            m = self.momentum
            self.running_mean += m * ((mu_re + 1j * mu_im) - self.running_mean)
            self.running_var_re += m * (var_re - self.running_var_re)
            self.running_var_im += m * (var_im - self.running_var_im)
        else:
            mu_re, mu_im = self.running_mean.real, self.running_mean.imag
            var_re, var_im = self.running_var_re, self.running_var_im
        s_re = np.sqrt(var_re + self.eps)
        s_im = np.sqrt(var_im + self.eps)
        u = (x.real - mu_re.reshape(shape)) / s_re.reshape(shape)
        v = (x.imag - mu_im.reshape(shape)) / s_im.reshape(shape)
        xhat = u + 1j * v
        y = self.gamma.reshape(shape) * xhat + self.beta.reshape(shape)
        return y, (xhat, s_re, s_im, axes, shape, train)

    def backward(self, cache, g):
        xhat, s_re, s_im, axes, shape, train = cache
        g_gamma = (g * xhat.conj()).sum(axis=axes)
        g_beta = g.sum(axis=axes)
        g_hat = self.gamma.conj().reshape(shape) * g
        s_re, s_im = s_re.reshape(shape), s_im.reshape(shape)
        if not train:
            return g_hat.real / s_re + 1j * (g_hat.imag / s_im), g_gamma, g_beta
        count = int(np.prod([g.shape[a] for a in axes]))

        def through(h, u, s):
            corr = h - h.mean(axis=axes).reshape(shape) \
                - u * ((h * u).sum(axis=axes).reshape(shape) / count)
            return corr / s

        g_x = through(g_hat.real, xhat.real, s_re) + 1j * through(g_hat.imag, xhat.imag, s_im)
        return g_x, g_gamma, g_beta


def partwise_crelu(x):
    """ReLU on each part, recombined as re + 1j * im."""
    return x.real * (x.real > 0) + 1j * (x.imag * (x.imag > 0))


# -- channel mixing of a conv layer ------------------------------------------

def mix_kernels(w, kernels):
    """Mix convolution kernels (C_out, C_in, k, k) across their output-channel
    axis by w: out[o] = sum_m w[o, m] kernels[m]."""
    return np.einsum("om,miuv->oiuv", w, kernels)


def mix_channels(w, maps):
    """Mix feature maps (B, C, H, W) across channels by w:
    out[:, o] = sum_m w[o, m] maps[:, m]."""
    return np.einsum("om,bmhw->bohw", w, maps)


# -- finite differences -------------------------------------------------------

def fd_gradient(f, z, eps=1e-6):
    """Central-difference gradient of a real scalar f with the convention
    g = 0.5 * (d f / d Re + 1j * d f / d Im), evaluated entry by entry."""
    z = np.asarray(z)
    g = np.zeros(z.shape, dtype=np.complex128)
    it = np.nditer(np.zeros(z.shape), flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = z[ix]
        z[ix] = orig + eps
        f_re_p = f()
        z[ix] = orig - eps
        f_re_m = f()
        z[ix] = orig + 1j * eps
        f_im_p = f()
        z[ix] = orig - 1j * eps
        f_im_m = f()
        z[ix] = orig
        g[ix] = 0.5 * ((f_re_p - f_re_m) + 1j * (f_im_p - f_im_m)) / (2 * eps)
    return g


# -- composed linear map of an air layer --------------------------------------

def composed_weight(side, form, params, h, n_in, n_out, r, k_total):
    """The dense matrix realized by K transmissions, assembled block by block
    from the raw parameter arrays and the channel matrix."""
    w = np.zeros((n_out, n_in), dtype=np.complex128)
    if side == "transmitter":
        c = params["C"]                                   # (n_rx, r)
        for k in range(k_total):
            if form == "combined":
                p_k = params["P"][k]                      # (n_tx, n_in)
            else:
                w0 = params["W0"]                         # (K r, n_in)
                p_k = params["P"] @ w0[k * r:(k + 1) * r, :]
            rows = c.conj().T @ h @ p_k                   # (r, n_in)
            hi = min(n_out, (k + 1) * r)
            if hi > k * r:
                w[k * r:hi, :] += rows[:hi - k * r, :]
    else:
        hp = h @ params["P"]                              # (n_rx, r)
        for k in range(k_total):
            if form == "combined":
                contrib = params["C"][k].conj().T @ hp    # (n_out, r)
            else:
                z = params["C"].conj().T @ hp             # (r, r)
                contrib = params["W0"][:, k * r:(k + 1) * r] @ z
            lo, hi = k * r, min(n_in, (k + 1) * r)
            if hi > lo:
                w[:, lo:hi] += contrib[:, :hi - lo]
    return w


def full_precoder(side, form, params, n_in, r, k_total, k):
    """The (n_tx, n_in) precoding matrix of transmission k, from raw params."""
    if side == "transmitter":
        if form == "combined":
            return params["P"][k].copy()
        return params["P"] @ params["W0"][k * r:(k + 1) * r, :]
    p = params["P"]                                       # (n_tx, r)
    out = np.zeros((p.shape[0], n_in), dtype=np.complex128)
    hi = min(n_in, (k + 1) * r)
    if hi > k * r:
        out[:, k * r:hi] = p[:, :hi - k * r]
    return out


def full_combiner(side, form, params, n_out, r, k_total, k):
    """The (n_rx, n_out) combining matrix of transmission k, from raw params."""
    if side == "receiver":
        if form == "combined":
            return params["C"][k].copy()
        return params["C"] @ params["W0"][:, k * r:(k + 1) * r].conj().T
    c = params["C"]                                       # (n_rx, r)
    out = np.zeros((c.shape[0], n_out), dtype=np.complex128)
    hi = min(n_out, (k + 1) * r)
    if hi > k * r:
        out[:, k * r:hi] = c[:, :hi - k * r]
    return out


# -- cost table literals ------------------------------------------------------
# Valid only when r divides the chunked dimension; every division below is
# exact by construction of the sampled sizes.

def fc_cost(side, form, n_i, n_o, n_t, n_r, r, b):
    if side == "transmitter" and form == "combined":
        return (n_i * n_o * n_t // r + n_r * r,
                b * n_o * (n_r + n_i * n_t // r),
                b * n_o // r)
    if side == "transmitter" and form == "separated":
        return (n_i * n_o + (n_t + n_r) * r,
                b * n_o * (n_i + n_t + n_r),
                b * n_o // r)
    if side == "receiver" and form == "combined":
        return (n_i * n_o * n_r // r + n_t * r,
                b * n_i * (n_t + n_o * n_r // r),
                b * n_i // r)
    return (n_i * n_o + (n_t + n_r) * r,
            b * n_i * (n_o + n_t + n_r),
            b * n_i // r)


def conv_cost(side, form, n_ci, n_co, n_k, n_hi, n_wi, n_ho, n_wo, n_t, n_r, r, b):
    out_pix = n_ho * n_wo
    in_pix = n_hi * n_wi
    if side == "transmitter" and form == "combined":
        return (n_co * n_k ** 2 * n_t // r + n_r * r,
                b * n_ci * n_co * out_pix * n_k ** 2 * n_t // r
                + b * n_co * out_pix * n_r,
                b * n_co * out_pix // r)
    if side == "transmitter" and form == "separated":
        return (n_co * n_k ** 2 + (n_t + n_r) * r,
                b * n_ci * n_co * out_pix * n_k ** 2
                + b * n_co * out_pix * (n_t + n_r),
                b * n_co * out_pix // r)
    if side == "receiver" and form == "combined":
        return (n_co * n_k ** 2 * n_r // r + n_t * r,
                b * n_ci * n_co * out_pix * n_k ** 2 * n_r // r
                + b * n_ci * in_pix * n_t,
                b * n_ci * in_pix // r)
    return (n_co * n_k ** 2 + (n_t + n_r) * r,
            b * n_ci * n_co * out_pix * n_k ** 2
            + b * n_ci * in_pix * (n_t + n_r),
            b * n_ci * in_pix // r)
