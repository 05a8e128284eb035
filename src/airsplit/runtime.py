"""Training runtime for split networks joined by over-the-air layers.

A SplitSystem is an alternating stack: local network, air link, local
network, ...  Each training batch runs the whole forward chain, computes the
task loss at the last node, and walks the chain backward, with every link
transporting its upstream gradient through the reverse channel direction.

Both ends of a link maintain an exponential moving average of the covariance
of what they receive.  Its weak eigenvectors span the subspace the channel
does not deliver; an optional auxiliary loss pushes combiners (and the
transmitted activations) out of that subspace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelState, NoiseModel, evolve_channel
from .linalg import crandn, make_rng, svd
from .nn import ComplexNet, modulus_softmax_loss
from .oac import OacConvLayer, OacLayer

__all__ = [
    "CovarianceTracker",
    "comm_loss_gradients",
    "SplitLink",
    "SplitSystem",
    "BatchMetrics",
    "RegretConfig",
    "RegretResult",
    "regret_experiment",
]


class CovarianceTracker:
    """Exponential moving average of a received block's covariance.

    update(block) with block (dim, columns) folds block block^H / columns
    into the average with weight (1 - alpha) and re-symmetrizes, so the
    stored matrix stays Hermitian against roundoff.
    """

    def __init__(self, dim: int, alpha: float = 0.99):
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        self.dim = dim
        self.alpha = alpha
        self.matrix = np.zeros((dim, dim), dtype=np.complex128)
        self.count = 0

    def update(self, block: np.ndarray) -> None:
        block = np.asarray(block, dtype=np.complex128)
        if block.ndim != 2 or block.shape[0] != self.dim:
            raise ValueError(f"expected ({self.dim}, cols) block, got {block.shape}")
        fresh = block @ block.conj().T / block.shape[1]
        m = self.alpha * self.matrix + (1.0 - self.alpha) * fresh
        self.matrix = 0.5 * (m + m.conj().T)
        self.count += 1

    def reset(self) -> None:
        self.matrix[:] = 0.0
        self.count = 0


def comm_loss_gradients(tracker: CovarianceTracker, target: np.ndarray, r: int,
                        side: str = "combiner", weight: float = 1.0):
    """Gradient pushing target out of the tracker's weak subspace.

    The weak subspace is spanned by the trailing (dim - r) eigenvectors of
    the tracked covariance.  For side 'combiner' the penalty is
    weight * ||U_w^H target||_F^2 and the gradient 2 * weight * U_w U_w^H
    target; side 'signal' scales both by 1 / (2 * batch^2) so the figure does
    not grow with batch size.  A stacked (K, dim, .) target is K per-use
    matrices sharing one projector; its penalty is the per-use penalties
    added in use order.  Returns (gradient, penalty value); both are zero
    when r covers the full dimension or nothing was tracked yet.  A tracked
    covariance that has overflowed to non-finite entries gives a zero
    gradient and a nan penalty, which the caller reports as divergence.
    """
    target = np.asarray(target, dtype=np.complex128)
    if target.shape[-2] != tracker.dim:
        raise ValueError(f"target rows {target.shape[-2]} != tracker dim {tracker.dim}")
    if r >= tracker.dim or tracker.count == 0:
        return np.zeros_like(target), 0.0
    if not np.all(np.isfinite(tracker.matrix)):
        return np.zeros_like(target), math.nan
    u, _, _ = svd(tracker.matrix)
    u_w = u[:, r:]
    coeff = u_w.conj().T @ target
    if side == "combiner":
        scale = weight
    elif side == "signal":
        b = target.shape[-1]
        scale = weight / (2.0 * b * b)
    else:
        raise ValueError("side must be 'combiner' or 'signal'")
    loss = 0.0
    for block in coeff.reshape((-1,) + coeff.shape[-2:]):
        loss += scale * float(np.sum(np.abs(block) ** 2))
    return 2.0 * scale * (u_w @ coeff), loss


class SplitLink:
    """One air link: layer + channel + noise + the per-direction trackers.

    rho > 0 makes the channel drift between batches; evolve() is called once
    per training batch by the system.  Covariance trackers update only
    during training passes.  comm_weight > 0 adds the weak-subspace penalty
    of that weight to training passes; 0 turns it off.
    """

    def __init__(self, layer, channel: ChannelState, noise: NoiseModel,
                 noise_rng_f: np.random.Generator | None = None,
                 noise_rng_b: np.random.Generator | None = None,
                 comm_weight: float = 0.0, alpha: float = 0.99,
                 rho: float = 0.0, evolve_rng: np.random.Generator | None = None):
        self.layer = layer
        self.inner: OacLayer = layer.mix if isinstance(layer, OacConvLayer) else layer
        self.channel = channel
        self.noise = noise
        self.rng_f = noise_rng_f
        self.rng_b = noise_rng_b
        self.comm_weight = comm_weight
        self.fwd_cov = CovarianceTracker(self.inner.n_rx, alpha)
        self.bwd_cov = CovarianceTracker(self.inner.n_tx, alpha)
        self.rho = rho
        self.evolve_rng = evolve_rng
        self.comm_loss_value = 0.0

    def evolve(self) -> None:
        if self.rho > 0.0:
            if self.evolve_rng is None:
                raise ValueError("rho > 0 needs an evolve rng")
            self.channel = evolve_channel(self.channel, self.rho, self.evolve_rng)

    def forward(self, x, train: bool = True):
        cov = self.fwd_cov if train else None
        return self.layer.forward(x, self.channel, self.noise, self.rng_f, fwd_cov=cov)

    def backward(self, transcript, g_y, train: bool = True):
        cov = self.bwd_cov if train else None
        res = self.layer.backward(transcript, g_y, self.channel, self.noise,
                                  self.rng_b, bwd_cov=cov)
        self.comm_loss_value = 0.0
        if train and self.comm_weight > 0.0:
            self._inject_comm(transcript, res)
        return res

    def _inject_comm(self, transcript, res) -> None:
        """Add the weak-subspace penalty gradients onto the link gradients."""
        inner = self.inner
        conv = isinstance(self.layer, OacConvLayer)
        g_c, total = comm_loss_gradients(self.fwd_cov, inner.params["C"], inner.r,
                                         side="combiner", weight=self.comm_weight)
        res.grads["mix.C" if conv else "C"] += g_c
        if not conv and inner.n_in == inner.n_tx:
            # The transmit side steers its activations out of the same subspace.
            g_x, val = comm_loss_gradients(self.bwd_cov, transcript.x, inner.r,
                                           side="signal", weight=self.comm_weight)
            res.g_x = res.g_x + g_x
            total += val
        self.comm_loss_value = total

    def trainable_parameters(self) -> dict:
        return self.layer.trainable_parameters()


@dataclass
class BatchMetrics:
    loss: float
    accuracy: float
    comm_loss: float = 0.0


class SplitSystem:
    """Alternating node networks and air links, trained end to end.

    nodes: list of ComplexNet, one more than links.  The loss is applied to
    the last node's output.  One node and no links is the centralized
    reference network.
    """

    def __init__(self, nodes, links, loss=modulus_softmax_loss):
        if len(nodes) != len(links) + 1:
            raise ValueError("need exactly one more node than links")
        self.nodes = list(nodes)
        self.links = list(links)
        self.loss = loss

    def parameters(self) -> dict:
        out = {}
        for i, node in enumerate(self.nodes):
            for name, arr in node.parameters().items():
                out[f"node{i}.{name}"] = arr
        for i, link in enumerate(self.links):
            for name, arr in link.layer.parameters().items():
                out[f"link{i}.{name}"] = arr
        return out

    def trainable_parameters(self) -> dict:
        out = {}
        for i, node in enumerate(self.nodes):
            for name, arr in node.parameters().items():
                out[f"node{i}.{name}"] = arr
        for i, link in enumerate(self.links):
            for name, arr in link.trainable_parameters().items():
                out[f"link{i}.{name}"] = arr
        return out

    def forward(self, x, train: bool = True):
        ctx = []
        for i, node in enumerate(self.nodes):
            x, caches = node.forward(x, train=train)
            ctx.append(("node", caches))
            if i < len(self.links):
                x, transcript = self.links[i].forward(x, train=train)
                ctx.append(("link", transcript))
        return x, ctx

    def backward(self, ctx, g, train: bool = True) -> dict:
        grads = {}
        node_idx = len(self.nodes) - 1
        link_idx = len(self.links) - 1
        for kind, payload in reversed(ctx):
            if kind == "node":
                g, node_grads = self.nodes[node_idx].backward(payload, g)
                for name, arr in node_grads.items():
                    grads[f"node{node_idx}.{name}"] = arr
                node_idx -= 1
            else:
                link = self.links[link_idx]
                res = link.backward(payload, g, train=train)
                g = res.g_x
                for name, arr in res.grads.items():
                    grads[f"link{link_idx}.{name}"] = arr
                link_idx -= 1
        return grads

    def train_batch(self, x, labels, optimizer) -> BatchMetrics:
        for link in self.links:
            link.evolve()
        logits, ctx = self.forward(x, train=True)
        loss, g, acc = self.loss(logits, labels)
        grads = self.backward(ctx, g, train=True)
        trainable = self.trainable_parameters()
        grads = {k: v for k, v in grads.items() if k in trainable}
        optimizer.step(trainable, grads)
        comm = sum((link.comm_loss_value for link in self.links), 0.0)
        return BatchMetrics(loss=loss, accuracy=acc, comm_loss=comm)

    def evaluate(self, x, labels, batch_size: int = 256):
        """Mean loss and accuracy over x in fixed-size chunks.

        The links stay noisy (inference also happens over the air) but no
        covariance is tracked and no parameter changes.
        """
        n = x.shape[-1] if x.ndim == 2 else x.shape[0]
        total_loss, correct = 0.0, 0.0
        for start in range(0, n, batch_size):
            sl = slice(start, min(start + batch_size, n))
            xb = x[..., sl] if x.ndim == 2 else x[sl]
            yb = labels[sl]
            logits, _ = self.forward(xb, train=False)
            loss, _, acc = self.loss(logits, yb)
            total_loss += loss * yb.shape[0]
            correct += acc * yb.shape[0]
        return total_loss / n, correct / n


# -- online optimization under gradient-transport noise ----------------------

@dataclass
class RegretConfig:
    """Online least squares played against noisy gradient steps.

    Each round reveals a fresh (A_t, b_t); the player pays ||A_t x - b_t||^2,
    then steps along the gradient plus circular noise of scale sigma, with
    learning rate eta0 / sqrt(t), projected onto a ball that contains the
    hindsight optimum with radius to spare.  Slopes are fitted on log-spaced
    samples of R(T)/T with T in [fit_floor, steps]; steps must exceed max(fit_floor, 2).
    """

    dim: int = 64
    obs: int = 8
    steps: int = 100_000
    eta0: float = 2.0
    sigmas: tuple = (0.0, 0.1, 0.4)
    n_seeds: int = 8
    seed: int = 0
    radius_factor: float = 10.0
    obs_noise: float = 0.75
    fit_floor: int = 100

    def __post_init__(self):
        if self.steps <= max(self.fit_floor, 2):
            raise ValueError(f"steps = {self.steps} must exceed max(fit_floor, 2)")


@dataclass
class RegretResult:
    config: RegretConfig
    ts: np.ndarray                      # log-spaced step axis of the curves
    avg_regret: np.ndarray              # (n_sigmas, n_seeds, len(ts)) R(T)/T
    slopes: np.ndarray                  # (n_sigmas,) log-log slope on [floor, T]
    final: np.ndarray                   # (n_sigmas,) mean final R(T)/T
    measured_ratio: float               # final: largest vs smallest positive sigma
    predicted_ratio: float              # same pair, from the fitted power law
    c0: float                           # sigma-independent amplitude offset
    c1: float                           # amplitude slope in sigma^2
    diameter: float                     # largest projection-ball diameter
    grad_bound: float                   # largest gradient norm observed
    diverged: bool


_REGRET_CHUNK = 512


def _regret_data(cfg: RegretConfig, rng: np.random.Generator, chunk: np.ndarray):
    """Yield the (A, b) chunks of the data stream, replayably, into one buffer.

    chunk is a (min(_REGRET_CHUNK, steps), seeds, obs, dim) complex buffer;
    every A is drawn into chunk[:n] in place and yielded as that view, so a
    yielded A is valid only until the next chunk is requested.  b is small
    and freshly allocated.  The draw order is: hidden truth first, then per
    chunk the measurement matrices and observation noise.  Re-seeding
    reproduces the stream exactly, so the experiment never has to hold all
    steps in memory.
    """
    d, m, s = cfg.dim, cfg.obs, cfg.n_seeds
    truth = crandn(rng, (s, d), var=1.0)
    done = 0
    while done < cfg.steps:
        n = min(_REGRET_CHUNK, cfg.steps - done)
        a = crandn(rng, (n, s, m, d), var=1.0 / d, out=chunk[:n])
        b = crandn(rng, (n, s, m), var=cfg.obs_noise ** 2)
        b += (a @ truth[:, :, None])[..., 0]
        yield a, b
        done += n


def _hindsight_optimum(cfg: RegretConfig, chunk: np.ndarray) -> np.ndarray:
    """(seeds, dim) least-squares optimum over the whole data stream.

    Accumulates the normal equations chunk by chunk, per seed as BLAS
    matmuls on one seed's rows and their conjugates, each gathered into a
    reused (chunk * obs, dim) buffer.  Its temporaries die on return, before
    the replay starts.
    """
    d, s_seeds = cfg.dim, cfg.n_seeds
    gram = np.zeros((s_seeds, d, d), dtype=np.complex128)
    rhs = np.zeros((s_seeds, d), dtype=np.complex128)
    seed_rows = np.empty((chunk.shape[0] * cfg.obs, d), dtype=np.complex128)
    seed_conj = np.empty_like(seed_rows)
    for a, b in _regret_data(cfg, make_rng(cfg.seed, 6, 0), chunk):
        rows = a.shape[0] * cfg.obs
        ak, akc = seed_rows[:rows], seed_conj[:rows]
        for k in range(s_seeds):
            np.copyto(ak.reshape(a[:, k].shape), a[:, k])
            ah = np.conj(ak, out=akc).T
            gram[k] += ah @ ak
            rhs[k] += ah @ b[:, k].reshape(-1)
    return np.stack([np.linalg.solve(gram[s], rhs[s]) for s in range(s_seeds)])


def regret_experiment(config: RegretConfig = RegretConfig()) -> RegretResult:
    """Measure average regret decay and its growth with gradient noise.

    All sigmas share data and update-noise draws (the noise is scaled per
    sigma), so comparisons are paired.  A first pass accumulates the normal
    equations for the hindsight optimum; a second pass replays the identical
    stream and runs the projected noisy descent.  Both passes draw every data
    chunk into one preallocated (min(_REGRET_CHUNK, steps), seeds, obs, dim)
    buffer, and the update noise into one (chunk, seeds, dim) buffer, so peak
    memory stays at one chunk whatever the number of steps.  The amplitude
    fit a(sigma) ~ c0 + c1 sigma^2 of sqrt(T) R(T)/T over the fit window
    yields the predicted ratio between the largest and the smallest positive
    sigma.
    """
    cfg = config
    d, m, steps, s_seeds = cfg.dim, cfg.obs, cfg.steps, cfg.n_seeds
    sigmas = np.asarray(cfg.sigmas, dtype=float)
    n_sig = sigmas.size

    rows = min(_REGRET_CHUNK, steps)
    chunk = np.empty((rows, s_seeds, m, d), dtype=np.complex128)
    theta_star = _hindsight_optimum(cfg, chunk)
    radius = cfg.radius_factor * np.linalg.norm(theta_star, axis=1)   # (seeds,)

    step_rng = make_rng(cfg.seed, 6, 1)
    noise_buf = np.empty((rows, s_seeds, d), dtype=np.complex128)
    theta = np.zeros((n_sig, s_seeds, d), dtype=np.complex128)
    excess = np.empty((steps, n_sig, s_seeds))
    grad_bound = 0.0
    sig_scale = sigmas[:, None, None]
    t = 0
    for a, b in _regret_data(cfg, make_rng(cfg.seed, 6, 0), chunk):
        n = a.shape[0]
        resid_star = (a @ theta_star[:, :, None])[..., 0] - b
        loss_star = np.sum(np.abs(resid_star) ** 2, axis=2)           # (n, seeds)
        noise = crandn(step_rng, (n, s_seeds, d), var=1.0, out=noise_buf[:n])
        for i in range(n):
            resid = (a[i] @ theta[..., None])[..., 0] - b[i][None]
            excess[t] = np.sum(np.abs(resid) ** 2, axis=2) - loss_star[i][None]
            grad = (resid[:, :, None, :] @ a[i].conj())[:, :, 0, :]
            gmax = float(np.max(np.abs(grad)))
            if gmax * math.sqrt(d) > grad_bound:   # cheap upper bound first
                grad_bound = max(grad_bound,
                                 float(np.max(np.linalg.norm(grad, axis=2))))
            t += 1
            eta = cfg.eta0 / math.sqrt(t)
            theta = theta - eta * (grad + sig_scale * noise[i][None])
            norms = np.linalg.norm(theta, axis=2)
            np.clip(radius[None] / np.maximum(norms, 1e-300), None, 1.0, out=norms)
            theta = theta * norms[:, :, None]

    regret = np.cumsum(excess, axis=0)                                # (steps, sig, seeds)
    floor = min(max(cfg.fit_floor, 2), steps)
    ts = np.unique(np.geomspace(floor, steps, 200).astype(np.int64))
    avg = np.moveaxis(regret[ts - 1] / ts[:, None, None], 0, 2)       # (sig, seeds, |ts|)

    mean_curve = avg.mean(axis=1)                                     # (sig, |ts|)
    diverged = not np.all(np.isfinite(mean_curve))
    slopes = np.zeros(n_sig)
    amps = np.zeros(n_sig)
    log_t = np.log(ts.astype(float))
    tail = ts >= max(floor, steps // 100)     # amplitudes from the last decades
    for i in range(n_sig):
        safe = np.maximum(mean_curve[i], 1e-300)
        slopes[i] = np.polyfit(log_t, np.log(safe), 1)[0]
        amps[i] = float(np.mean(safe[tail] * np.sqrt(ts[tail])))
    design = np.stack([np.ones(n_sig), sigmas ** 2], axis=1)
    c0, c1 = np.linalg.lstsq(design, amps, rcond=None)[0]
    hi = int(np.argmax(sigmas))
    positive = np.flatnonzero(sigmas > 0)
    lo = int(positive[np.argmin(sigmas[positive])]) if positive.size else hi
    final = mean_curve[:, -1]
    measured = float(final[hi] / max(final[lo], 1e-300))
    predicted = float((c0 + c1 * sigmas[hi] ** 2) / max(c0 + c1 * sigmas[lo] ** 2, 1e-300))
    return RegretResult(
        config=cfg, ts=ts.astype(float), avg_regret=avg, slopes=slopes,
        final=final, measured_ratio=measured, predicted_ratio=predicted,
        c0=float(c0), c1=float(c1), diameter=float(2.0 * radius.max()),
        grad_bound=grad_bound, diverged=diverged,
    )
