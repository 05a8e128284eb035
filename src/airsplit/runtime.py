"""Training runtime for split networks joined by over-the-air layers.

A SplitSystem is an alternating stack: local network, air link, local
network, ...  Each training batch runs the whole forward chain, computes the
task loss at the last node, and walks the chain backward, with every link
transporting its upstream gradient through the reverse channel direction.

With the auxiliary comm loss on, both ends of a link maintain an exponential
moving average of the covariance of what they receive.  Its weak
eigenvectors span the subspace the channel does not deliver; the loss
pushes combiners (and the activations a node sends) out of that subspace.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, NoiseModel, evolve_channel
from .linalg import crandn, make_rng, svd
from .nn import modulus_softmax_loss
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
    into the average with weight (1 - ALPHA) and re-symmetrizes, so the
    stored matrix stays Hermitian against roundoff.
    """

    # The average weighs about the last 1 / (1 - ALPHA) = 100 batches: one
    # batch moves it by 1 %, and a drifted channel's old covariance fades by
    # a factor e every 100 batches.
    ALPHA = 0.99

    def __init__(self, dim: int):
        self.dim = dim
        self.matrix = np.zeros((dim, dim), dtype=np.complex128)
        self.count = 0

    def update(self, block: np.ndarray) -> None:
        block = np.asarray(block, dtype=np.complex128)
        if block.ndim != 2 or block.shape[0] != self.dim:
            raise ValueError(f"expected ({self.dim}, cols) block, got {block.shape}")
        fresh = block @ block.conj().T / block.shape[1]
        m = self.ALPHA * self.matrix + (1.0 - self.ALPHA) * fresh
        self.matrix = 0.5 * (m + m.conj().T)
        self.count += 1


def comm_loss_gradients(tracker: CovarianceTracker, target: np.ndarray, r: int,
                        side: str = "combiner", weight: float = 1.0):
    """Gradient pushing target out of the tracker's weak subspace.

    The weak subspace is spanned by the trailing (dim - r) eigenvectors of
    the tracked covariance, which is Hermitian, so they are taken from
    svd(..., hermitian=True), an eigendecomposition.  For side 'combiner'
    the penalty is weight * ||U_w^H target||_F^2 and the gradient
    2 * weight * U_w U_w^H target; side 'signal' scales both by
    1 / (2 * batch^2) so the figure does not grow with batch size.  A
    stacked (K, dim, .) target is K per-use matrices sharing one projector;
    its penalty is the per-use penalties added in use order.  Returns (gradient, penalty value); both are zero
    when r covers the full dimension or nothing was tracked yet.  A tracked
    covariance that has overflowed to non-finite entries gives a zero
    gradient and a nan penalty, which the caller reports as divergence.
    """
    target = np.asarray(target, dtype=np.complex128)
    if side == "combiner":
        scale = weight
    elif side == "signal":
        b = target.shape[-1]
        scale = weight / (2.0 * b * b)
    else:
        raise ValueError(f"side = {side!r} must be 'combiner' or 'signal'")
    if target.shape[-2] != tracker.dim:
        raise ValueError(f"target rows {target.shape[-2]} != tracker dim {tracker.dim}")
    if r >= tracker.dim or tracker.count == 0:
        return np.zeros_like(target), 0.0
    if not np.all(np.isfinite(tracker.matrix)):
        return np.zeros_like(target), math.nan
    u, _, _ = svd(tracker.matrix, hermitian=True)
    u_w = u[:, r:]
    coeff = u_w.conj().T @ target
    loss = 0.0
    for block in coeff.reshape((-1,) + coeff.shape[-2:]):
        loss += scale * float(np.sum(np.abs(block) ** 2))
    return 2.0 * scale * (u_w @ coeff), loss


class SplitLink:
    """One air link: layer + channel + noise + the per-direction trackers.

    rho in [0, 1]; rho > 0 makes the channel drift between batches and needs
    evolve_rng; evolve() is called once per training batch by the system.
    comm_weight, >= 0 and finite, weights the weak-subspace penalty that
    every backward adds; 0 turns it off.  The trackers exist only for that
    penalty: with comm_weight > 0, a training forward, and every backward,
    updates its direction's tracker once from the received (K, ., B) stack,
    the uses side by side, and an evaluation forward leaves it alone; with
    comm_weight = 0 no pass updates them, and they stay empty.  A frozen
    combiner gets no penalty gradient, but its penalty is still reported.
    """

    def __init__(self, layer, channel: ChannelState, noise: NoiseModel,
                 noise_rng_f: np.random.Generator | None = None,
                 noise_rng_b: np.random.Generator | None = None,
                 comm_weight: float = 0.0, rho: float = 0.0,
                 evolve_rng: np.random.Generator | None = None):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho = {rho} must lie in [0, 1]")
        if not (math.isfinite(comm_weight) and comm_weight >= 0.0):
            raise ValueError(f"comm_weight = {comm_weight} must be >= 0 and finite")
        if rho > 0.0 and evolve_rng is None:
            raise ValueError("rho > 0 needs an evolve_rng")
        self.layer = layer
        self.inner: OacLayer = layer.mix if isinstance(layer, OacConvLayer) else layer
        self.channel = channel
        self.noise = noise
        self.rng_f = noise_rng_f
        self.rng_b = noise_rng_b
        self.comm_weight = comm_weight
        self.fwd_cov = CovarianceTracker(self.inner.n_rx)
        self.bwd_cov = CovarianceTracker(self.inner.n_tx)
        self.rho = rho
        self.evolve_rng = evolve_rng
        self.comm_loss_value = 0.0

    def evolve(self) -> None:
        if self.rho > 0.0:
            self.channel = evolve_channel(self.channel, self.rho, self.evolve_rng)

    def forward(self, x, train: bool = True):
        y, transcript = self.layer.forward(x, self.channel, self.noise, self.rng_f)
        if train and self.comm_weight > 0.0:
            inner = transcript["mix"] if isinstance(transcript, dict) else transcript
            self.fwd_cov.update(np.hstack(inner.received))    # (n_rx, K*B)
        return y, transcript

    def backward(self, transcript, g_y):
        res = self.layer.backward(transcript, g_y, self.channel, self.noise, self.rng_b)
        self.comm_loss_value = 0.0
        if self.comm_weight > 0.0:
            self.bwd_cov.update(np.hstack(res.received))      # (n_tx, K*B)
            self._inject_comm(transcript, res)
        return res

    def _inject_comm(self, transcript, res) -> None:
        """Add the weak-subspace penalty gradients onto the link gradients."""
        inner = self.inner
        conv = isinstance(self.layer, OacConvLayer)
        g_c, total = comm_loss_gradients(self.fwd_cov, inner.params["C"], inner.r,
                                         side="combiner", weight=self.comm_weight)
        name = "mix.C" if conv else "C"
        if name in res.grads:
            res.grads[name] += g_c
        if not conv and inner.n_in == inner.n_tx:
            # The transmit side steers its activations out of the same subspace.
            g_x, val = comm_loss_gradients(self.bwd_cov, transcript.x, inner.r,
                                           side="signal", weight=self.comm_weight)
            res.g_x = res.g_x + g_x
            total += val
        self.comm_loss_value = total


@dataclass
class BatchMetrics:
    loss: float
    accuracy: float
    comm_loss: float = 0.0


class SplitSystem:
    """Alternating node networks and air links, trained end to end.

    nodes: list of ComplexNet, one more than links.  modulus_softmax_loss is
    applied to the last node's output.  One node and no links is the
    centralized reference network.
    """

    def __init__(self, nodes, links):
        if len(nodes) != len(links) + 1:
            raise ValueError("need exactly one more node than links")
        self.nodes = list(nodes)
        self.links = list(links)

    def parameters(self) -> dict:
        out = {}
        for i, node in enumerate(self.nodes):
            for name, arr in node.parameters().items():
                out[f"node{i}.{name}"] = arr
        for i, link in enumerate(self.links):
            for name, arr in link.layer.parameters().items():
                out[f"link{i}.{name}"] = arr
        return out

    def _stages(self):
        """(kind, index, stage) in forward order: node 0, link 0, node 1, ..."""
        for i, node in enumerate(self.nodes):
            yield "node", i, node
            if i < len(self.links):
                yield "link", i, self.links[i]

    def forward(self, x, train: bool = True):
        """Run every node and link in order.  Returns (output, ctx).

        A training pass records each node's caches and each link's transcript
        in ctx, as (kind, record) in stage order, for backward.  An inference
        pass records nothing and returns an empty ctx: each stage's record is
        dropped as soon as the next stage has its input.
        """
        ctx = []
        for kind, _, stage in self._stages():
            x, record = stage.forward(x, train=train)
            if train:
                ctx.append((kind, record))
            del record
        return x, ctx

    def backward(self, ctx, g) -> dict:
        """Walk the stages backward from the upstream gradient g.

        Consumes the ctx of a training forward pass from its end: each
        stage's record, and a link's backward result, are released once the
        stage's gradients are taken, before the stage in front of it runs.
        ctx is empty on return.  Returns the parameter gradients.
        """
        stages = list(self._stages())
        if len(ctx) != len(stages):
            raise ValueError(f"ctx holds {len(ctx)} records for {len(stages)} stages; "
                             "only a training forward pass records them")
        grads = {}
        for kind, i, stage in reversed(stages):
            _, record = ctx.pop()
            if kind == "node":
                g, stage_grads = stage.backward(record, g)
            else:
                res = stage.backward(record, g)
                g, stage_grads = res.g_x, res.grads
                del res
            for name, arr in stage_grads.items():
                grads[f"{kind}{i}.{name}"] = arr
        return grads

    def train_batch(self, x, labels, optimizer) -> BatchMetrics:
        for link in self.links:
            link.evolve()
        logits, ctx = self.forward(x, train=True)
        loss, g, acc = modulus_softmax_loss(logits, labels)
        grads = self.backward(ctx, g)
        optimizer.step(self.parameters(), grads)
        comm = sum((link.comm_loss_value for link in self.links), 0.0)
        return BatchMetrics(loss=loss, accuracy=acc, comm_loss=comm)

    def evaluate(self, x, labels, batch_size: int = 256):
        """Mean loss and accuracy over x in chunks of batch_size samples.

        The links stay noisy (inference also happens over the air) but no
        covariance is tracked, no parameter changes and no pass keeps a
        record.  A batch_size below 1 or an empty x raises ValueError.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size = {batch_size} must be >= 1")
        n = x.shape[-1] if x.ndim == 2 else x.shape[0]
        if n == 0:
            raise ValueError(f"evaluate got an empty batch, x of shape {x.shape}")
        total_loss, correct = 0.0, 0.0
        for start in range(0, n, batch_size):
            sl = slice(start, min(start + batch_size, n))
            xb = x[..., sl] if x.ndim == 2 else x[sl]
            yb = labels[sl]
            logits, _ = self.forward(xb, train=False)
            loss, _, acc = modulus_softmax_loss(logits, yb)
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
    A field the study cannot run with raises a ValueError that starts with
    its name.
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
        for name, least in (("dim", 1), ("obs", 1), ("n_seeds", 1), ("steps", 1),
                            ("fit_floor", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (_integer(value) and value >= least):
                raise ValueError(f"{name} = {value!r} must be an integer >= {least}")
        if self.steps <= max(self.fit_floor, 2):
            raise ValueError(f"steps = {self.steps} must exceed max(fit_floor, 2)")
        sigmas = self.sigmas if isinstance(self.sigmas, (tuple, list, np.ndarray)) else ()
        if len(sigmas) == 0 or not all(_finite(s) and s >= 0.0 for s in sigmas):
            raise ValueError(f"sigmas = {self.sigmas!r} must be a non-empty sequence "
                             "of finite values >= 0")
        for name in ("eta0", "radius_factor"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise ValueError(f"{name} = {value!r} must be finite and > 0")
        if not (_finite(self.obs_noise) and self.obs_noise >= 0.0):
            raise ValueError(f"obs_noise = {self.obs_noise!r} must be finite and >= 0")


def _finite(value) -> bool:
    """Whether value is a finite real number, numpy's included; a bool is not one."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


def _integer(value) -> bool:
    """Whether value is an integer, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
# Steps of a chunk whose gram the normal equations add in one BLAS matmul.
_REGRET_BLOCK = 64


def _regret_data(cfg: RegretConfig, rng: np.random.Generator, chunk: np.ndarray):
    """Yield the (A, b) chunks of the data stream, replayably, into one buffer.

    chunk is a (min(_REGRET_CHUNK, steps), seeds, obs, dim) complex buffer;
    every A is drawn into chunk[:n] in place and yielded as that view, so a
    yielded A is valid only until the next chunk is requested.  b is small
    and freshly allocated.  The draw order is that of crandn calls: hidden
    truth first, then per chunk the measurement matrices and observation
    noise.  Re-seeding reproduces the stream exactly, so the experiment
    never has to hold all steps in memory.
    """
    d, m, s = cfg.dim, cfg.obs, cfg.n_seeds
    truth = crandn(rng, (s, d), var=1.0)[:, :, None]
    done = 0
    while done < cfg.steps:
        n = min(_REGRET_CHUNK, cfg.steps - done)
        a = crandn(rng, (n, s, m, d), var=1.0 / d, out=chunk[:n])
        b = crandn(rng, (n, s, m), var=cfg.obs_noise ** 2)
        b += (a @ truth)[..., 0]
        yield a, b
        done += n


class _NormalEquations:
    """Per-seed normal equations of the hindsight least squares.

    add(a, b) adds a chunk's A_k^H A_k into seed k's gram and its A_k^H b_k
    into seed k's right-hand side, _REGRET_BLOCK steps at a time and in step
    order.  A block's gram is one BLAS matmul on that seed's rows and their
    conjugates, gathered into a scratch of 2 * _REGRET_BLOCK * obs rows.
    """

    def __init__(self, cfg: RegretConfig):
        d, s_seeds = cfg.dim, cfg.n_seeds
        self.gram = np.zeros((s_seeds, d, d), dtype=np.complex128)
        self.rhs = np.zeros((s_seeds, d), dtype=np.complex128)
        self.rows, self.conj = np.empty((2, _REGRET_BLOCK * cfg.obs, d),
                                        dtype=np.complex128)

    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        for lo in range(0, a.shape[0], _REGRET_BLOCK):
            a_blk, b_blk = a[lo:lo + _REGRET_BLOCK], b[lo:lo + _REGRET_BLOCK]
            n_rows = a_blk.shape[0] * a_blk.shape[2]
            ak, akc = self.rows[:n_rows], self.conj[:n_rows]
            for k in range(a_blk.shape[1]):
                np.copyto(ak.reshape(a_blk[:, k].shape), a_blk[:, k])
                self.gram[k] += np.conj(ak, out=akc).T @ ak
            # A_k^H b_k = conj(sum over steps of b_k^H A_k): one BLAS gemv
            # per step and seed.
            self.rhs += np.conj(np.sum(np.conj(b_blk)[:, :, None, :] @ a_blk, axis=0)[:, 0])

    def solve(self) -> np.ndarray:
        """(seeds, dim) least-squares optimum of the stream added so far."""
        return np.stack([np.linalg.solve(g, r) for g, r in zip(self.gram, self.rhs)])


def _row_norms(x: np.ndarray, sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of a complex x into out, through the
    complex scratch sq of x's shape: the same ops, so the same bytes."""
    np.conjugate(x, out=sq)
    np.multiply(sq, x, out=sq)
    np.add.reduce(sq.real, axis=-1, out=out)
    return np.sqrt(out, out=out)


def regret_experiment(config: RegretConfig = RegretConfig()) -> RegretResult:
    """Measure average regret decay and its growth with gradient noise.

    All sigmas share data and update-noise draws (the noise is scaled per
    sigma), so comparisons are paired.  A first pass accumulates the normal
    equations for the hindsight optimum; a second pass replays the identical
    stream and runs the projected noisy descent.  Every data chunk is drawn
    into one preallocated (min(_REGRET_CHUNK, steps), seeds, obs, dim)
    buffer.  A stream of one chunk (steps <= _REGRET_CHUNK) is drawn once:
    the replay reads the buffer the first pass filled.  A longer stream has
    overwritten its first chunks by then, so the replay redraws it from its
    seed.  Peak memory stays at one chunk whatever the number of steps.

    Each chunk's update noise is drawn, from its own stream, into a
    (chunk, seeds, dim) buffer at the top of the replay's loop.  The normal
    equations sum the gram in _REGRET_BLOCK-step blocks and the right-hand
    side as per-step products; the hindsight optimum's rounding depends on
    that order alone, and given the optimum, the replay's bytes are fixed.

    The amplitude fit a(sigma) ~ c0 + c1 sigma^2 of sqrt(T) R(T)/T over the
    fit window yields the predicted ratio between the largest and the
    smallest positive sigma.
    """
    cfg = config
    d, m, steps, s_seeds = cfg.dim, cfg.obs, cfg.steps, cfg.n_seeds
    sigmas = np.asarray(cfg.sigmas, dtype=float)
    n_sig = sigmas.size

    rows = min(_REGRET_CHUNK, steps)
    chunk = np.empty((rows, s_seeds, m, d), dtype=np.complex128)
    noise_buf = np.empty((rows, s_seeds, d), dtype=np.complex128)
    step_rng = make_rng(cfg.seed, 6, 1)

    one_chunk = steps <= _REGRET_CHUNK
    normal = _NormalEquations(cfg)
    stream = _regret_data(cfg, make_rng(cfg.seed, 6, 0), chunk)
    if one_chunk:
        stream = list(stream)       # the whole stream: one (A, b) pair
    for a, b in stream:
        normal.add(a, b)
    theta_star = normal.solve()
    del normal
    if not one_chunk:
        stream = _regret_data(cfg, make_rng(cfg.seed, 6, 0), chunk)
    radius = cfg.radius_factor * np.linalg.norm(theta_star, axis=1)   # (seeds,)

    theta = np.zeros((n_sig, s_seeds, d), dtype=np.complex128)
    excess = np.empty((steps, n_sig, s_seeds))
    grad_bound = 0.0
    sig_scale = sigmas[:, None, None]
    # Every per-step temporary has a buffer of its own, written with out=.
    resid = np.empty((rows, n_sig, s_seeds, m), dtype=np.complex128)
    a_conj = np.empty((s_seeds, m, d), dtype=np.complex128)
    grad, step, sq = (np.empty((n_sig, s_seeds, d), dtype=np.complex128) for _ in range(3))
    norms = np.empty((n_sig, s_seeds))
    t = 0
    for a, b in stream:
        n = a.shape[0]
        noise = crandn(step_rng, (n, s_seeds, d), var=1.0, out=noise_buf[:n])
        # In place and freed before the steps, so the replay holds no more
        # than the first pass did.
        resid_star = (a @ theta_star[:, :, None])[..., 0]
        resid_star -= b
        loss_star = np.abs(resid_star)
        del resid_star
        loss_star = np.sum(np.square(loss_star, out=loss_star), axis=2)  # (n, seeds)
        for i in range(n):
            r = resid[i]
            np.matmul(a[i], theta[..., None], out=r[..., None])
            np.subtract(r, b[i], out=r)
            np.matmul(r[:, :, None, :], np.conjugate(a[i], out=a_conj),
                      out=grad[:, :, None, :])
            grad_bound = max(grad_bound, float(_row_norms(grad, sq, norms).max()))
            t += 1
            eta = cfg.eta0 / math.sqrt(t)
            np.multiply(sig_scale, noise[i], out=step)
            np.add(grad, step, out=step)
            np.multiply(eta, step, out=step)
            np.subtract(theta, step, out=theta)
            # Project onto the ball: theta *= min(1, radius / |theta|).
            _row_norms(theta, sq, norms)
            np.maximum(norms, 1e-300, out=norms)
            np.divide(radius, norms, out=norms)
            np.minimum(norms, 1.0, out=norms)
            np.multiply(theta, norms[:, :, None], out=theta)
        sq_abs = np.abs(resid[:n])
        excess[t - n:t] = np.sum(np.square(sq_abs, out=sq_abs), axis=3) - loss_star[:, None]
        del sq_abs

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
