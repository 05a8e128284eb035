import tracemalloc
import weakref

import numpy as np
import pytest

import _oracles as oracles
from airsplit import runtime
from airsplit.channel import NOISELESS, NoiseModel, sample_channel
from airsplit.linalg import crandn, make_rng
from airsplit.nn import (
    Adam, AvgPool2d, ComplexNet, Conv2d, CRelu, Dense, Flatten, modulus_softmax_loss,
)
from airsplit.oac import OacConvLayer, OacDesign, OacLayer, equivalent_weight
from airsplit.runtime import (
    BatchMetrics, CovarianceTracker, RegretConfig, SplitLink,
    SplitSystem, comm_loss_gradients, regret_experiment,
)


def _toy_system(seed, n_tx=4, comm_weight=0.0, noise=NOISELESS, rho=0.0,
                evolve_rng=None, r=2):
    rng = make_rng(seed, 1)
    channel = sample_channel(n_tx, n_tx, n_tx, make_rng(seed, 2))
    nodes = [ComplexNet([Dense(3, n_tx, rng), CRelu()]),
             ComplexNet([Dense(n_tx, 4, rng)])]
    layer = OacLayer(OacDesign("receiver", "separated"), n_tx, n_tx,
                     n_tx, n_tx, r, rng)
    link = SplitLink(layer, channel, noise,
                     noise_rng_f=make_rng(seed, 3), noise_rng_b=make_rng(seed, 4),
                     comm_weight=comm_weight, rho=rho, evolve_rng=evolve_rng)
    return SplitSystem(nodes, [link]), link


def test_covariance_tracker_ema_and_symmetry():
    tr = CovarianceTracker(3)
    assert tr.count == 0
    b1 = crandn(make_rng(100), (3, 10))
    tr.update(b1)
    want = 0.01 * (b1 @ b1.conj().T / 10)
    np.testing.assert_allclose(tr.matrix, want, rtol=1e-12)
    np.testing.assert_allclose(tr.matrix, tr.matrix.conj().T, atol=0)
    b2 = crandn(make_rng(101), (3, 10))
    tr.update(b2)
    want = 0.99 * want + 0.01 * (b2 @ b2.conj().T / 10)
    np.testing.assert_allclose(tr.matrix, want, rtol=1e-12)
    assert tr.count == 2
    with pytest.raises(ValueError):
        tr.update(np.zeros((4, 2), dtype=complex))


def test_comm_loss_zero_when_rank_covers_or_untracked():
    tr = CovarianceTracker(4)
    target = crandn(make_rng(102), (4, 3))
    g, val = comm_loss_gradients(tr, target, r=2)
    assert val == 0.0 and not np.any(g)            # nothing tracked yet
    tr.update(crandn(make_rng(103), (4, 8)))
    g, val = comm_loss_gradients(tr, target, r=4)  # full rank, no weak space
    assert val == 0.0 and not np.any(g)


def test_comm_loss_points_out_of_the_weak_subspace():
    # covariance built from the first two basis vectors only: the weak
    # subspace is exactly span(e3, e4)
    tr = CovarianceTracker(4)
    strong = np.zeros((4, 6), dtype=np.complex128)
    strong[0] = crandn(make_rng(104), (6,))
    strong[1] = crandn(make_rng(105), (6,))
    tr.update(strong)
    e3 = np.zeros((4, 1), dtype=np.complex128)
    e3[2] = 1.0
    g, val = comm_loss_gradients(tr, e3, r=2, weight=0.5)
    np.testing.assert_allclose(g, 2 * 0.5 * e3, atol=1e-10)
    assert abs(val - 0.5) < 1e-10
    e1 = np.zeros((4, 1), dtype=np.complex128)
    e1[0] = 1.0
    g1, val1 = comm_loss_gradients(tr, e1, r=2, weight=0.5)
    np.testing.assert_allclose(g1, 0.0, atol=1e-10)
    assert val1 < 1e-12


@pytest.mark.parametrize("side", ["combiner", "signal"])
@pytest.mark.parametrize("shape", [(6, 5), (3, 6, 5)])
def test_comm_loss_matches_the_weak_projector_oracle(side, shape):
    tr = CovarianceTracker(6)
    for i in range(3):
        tr.update(crandn(make_rng(108, i), (6, 20)))
    target = crandn(make_rng(109), shape)
    g, val = comm_loss_gradients(tr, target, r=2, side=side, weight=0.3)
    proj = oracles.weak_projector(tr.matrix, 2)
    scale = 0.3 if side == "combiner" else 0.3 / (2 * 5 * 5)
    want = 2 * scale * (proj @ target)
    np.testing.assert_allclose(g, want, rtol=0, atol=1e-12 * np.abs(want).max())
    assert val == pytest.approx(scale * np.vdot(target, proj @ target).real, rel=1e-12)


def test_comm_loss_signal_side_scaling():
    tr = CovarianceTracker(3)
    block = np.zeros((3, 5), dtype=np.complex128)
    block[0] = 1.0
    tr.update(block)
    target = crandn(make_rng(106), (3, 5))
    g_c, v_c = comm_loss_gradients(tr, target, r=1, side="combiner", weight=1.0)
    g_s, v_s = comm_loss_gradients(tr, target, r=1, side="signal", weight=1.0)
    np.testing.assert_allclose(g_s, g_c / (2 * 25), atol=1e-12)
    assert abs(v_s - v_c / 50) < 1e-12
    with pytest.raises(ValueError):
        comm_loss_gradients(tr, target, r=1, side="elsewhere")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_comm_loss_is_nan_and_svd_free_for_an_overflowed_tracker(monkeypatch, bad):
    tr = CovarianceTracker(4)
    tr.update(crandn(make_rng(107), (4, 8)))
    tr.matrix[1, 2] = bad
    target = crandn(make_rng(108), (2, 4, 3))
    monkeypatch.setattr(runtime, "svd", lambda m: pytest.fail("svd was called"))
    for side in ("combiner", "signal"):
        g, val = comm_loss_gradients(tr, target, r=2, side=side)
        assert np.isnan(val)
        assert g.shape == target.shape and not np.any(g)


@pytest.mark.parametrize("state", ["empty", "r_covers_dim", "overflowed", "live"])
def test_comm_loss_rejects_an_unknown_side_before_any_work(monkeypatch, state):
    tr = CovarianceTracker(4)
    if state != "empty":
        tr.update(crandn(make_rng(109), (4, 8)))
    if state == "overflowed":
        tr.matrix[0, 1] = np.nan
    r = 4 if state == "r_covers_dim" else 2
    monkeypatch.setattr(runtime, "svd", lambda m: pytest.fail("svd was called"))
    with pytest.raises(ValueError, match="side = 'bogus'"):
        comm_loss_gradients(tr, crandn(make_rng(110), (4, 3)), r=r, side="bogus")


def test_split_forward_composes_nodes_and_link():
    system, link = _toy_system(110)
    x = crandn(make_rng(111), (3, 5))
    y, _ = system.forward(x, train=False)
    h1, _ = system.nodes[0].forward(x, train=False)
    w_eff = equivalent_weight(link.layer, link.channel)
    mid = w_eff @ h1 + link.layer.params["b"][:, None]
    want, _ = system.nodes[1].forward(mid, train=False)
    np.testing.assert_allclose(y, want, atol=1e-10)
    _, ctx = system.forward(x, train=True)
    assert [k for k, _ in ctx] == ["node", "link", "node"]


@pytest.mark.parametrize("comm_weight", [1e-2, 0.0])
def test_covariance_updates_only_on_training_passes(comm_weight):
    # The trackers feed only the comm loss: with it off, no pass updates them.
    system, link = _toy_system(112, comm_weight=comm_weight)
    x = crandn(make_rng(113), (3, 4))
    labels = np.array([0, 1, 2, 3])
    system.evaluate(x, labels)
    assert link.fwd_cov.count == 0 and link.bwd_cov.count == 0
    per_step = 1 if comm_weight > 0.0 else 0
    for step in (1, 2):
        system.train_batch(x, labels, Adam(lr=1e-3))
        assert link.fwd_cov.count == link.bwd_cov.count == step * per_step
    for tracker in (link.fwd_cov, link.bwd_cov):
        assert np.any(tracker.matrix) == (comm_weight > 0.0)


def test_comm_on_trackers_hold_the_ema_of_the_received_stacks(monkeypatch):
    # With the comm loss on, each training step folds each direction's
    # received (K, ., B) stack, uses side by side, into that direction's
    # tracker: M <- 0.99 M + 0.01 sum_k R_k R_k^H / (K B), from M = 0.
    system, link = _toy_system(131, comm_weight=1e-2, noise=NoiseModel(snr_db=10.0))
    seen = {"fwd": [], "bwd": []}
    layer_forward, layer_backward = link.layer.forward, link.layer.backward

    def forward(*args):
        y, transcript = layer_forward(*args)
        seen["fwd"].append(transcript.received.copy())
        return y, transcript

    def backward(*args):
        res = layer_backward(*args)
        seen["bwd"].append(res.received.copy())
        return res

    monkeypatch.setattr(link.layer, "forward", forward)
    monkeypatch.setattr(link.layer, "backward", backward)
    rng = make_rng(132)
    for _ in range(2):
        system.train_batch(crandn(rng, (3, 6)), rng.integers(0, 4, 6), Adam(lr=0.01))
    for tracker, stacks in ((link.fwd_cov, seen["fwd"]), (link.bwd_cov, seen["bwd"])):
        assert len(stacks) == tracker.count == 2
        want = np.zeros_like(tracker.matrix)
        for stack in stacks:
            fresh = sum(r @ r.conj().T for r in stack) / (stack.shape[0] * stack.shape[2])
            want = 0.99 * want + 0.01 * fresh
        np.testing.assert_allclose(tracker.matrix, want, rtol=0, atol=1e-12)


def test_train_batch_steps_every_parameter():
    system, _ = _toy_system(114)
    before = {k: v.copy() for k, v in system.parameters().items()}
    x = crandn(make_rng(115), (3, 8))
    labels = make_rng(116).integers(0, 4, 8)
    metrics = system.train_batch(x, labels, Adam(lr=0.01))
    assert isinstance(metrics, BatchMetrics) and np.isfinite(metrics.loss)
    after = system.parameters()
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    assert set(changed) == set(before)     # every parameter moved


def test_training_is_deterministic():
    def run():
        system, _ = _toy_system(117, noise=NoiseModel(snr_db=10.0))
        opt = Adam(lr=0.01)
        rng = make_rng(118)
        for _ in range(5):
            x = crandn(rng, (3, 6))
            labels = rng.integers(0, 4, 6)
            system.train_batch(x, labels, opt)
        return system.parameters()

    a, b = run(), run()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def test_comm_penalty_moves_combiner_gradients():
    system_a, link_a = _toy_system(119, comm_weight=1e-2)
    system_b, link_b = _toy_system(119)
    x = crandn(make_rng(120), (3, 6))
    labels = make_rng(121).integers(0, 4, 6)
    # A first batch at lr 0 moves no parameter, but its penalty is already on:
    # the link fills fwd_cov in forward and bwd_cov before its penalty in
    # backward, so no batch trains with an empty tracker.
    system_a.train_batch(x, labels, Adam(lr=0.0))
    logits, ctx = system_a.forward(x, train=True)
    _, g, _ = modulus_softmax_loss(logits, labels)
    grads_a = system_a.backward(ctx, g)
    assert link_a.comm_loss_value > 0.0

    system_b.train_batch(x, labels, Adam(lr=0.0))
    logits, ctx = system_b.forward(x, train=True)
    _, g, _ = modulus_softmax_loss(logits, labels)
    grads_b = system_b.backward(ctx, g)
    assert link_b.comm_loss_value == 0.0
    name = "link0.C"
    assert not np.allclose(grads_a[name], grads_b[name])
    # node parameters upstream of the link feel the signal-side push
    assert not np.allclose(grads_a["node0.0.w"], grads_b["node0.0.w"])


def test_channel_drift_needs_rng_and_is_reproducible():
    system, link = _toy_system(122, rho=0.01, evolve_rng=make_rng(123))
    h0 = link.channel.matrix.copy()
    x = crandn(make_rng(124), (3, 4))
    labels = np.array([0, 1, 2, 3])
    system.train_batch(x, labels, Adam(lr=1e-3))
    assert not np.allclose(link.channel.matrix, h0)

    system2, link2 = _toy_system(122, rho=0.01, evolve_rng=make_rng(123))
    system2.train_batch(x, labels, Adam(lr=1e-3))
    np.testing.assert_array_equal(link.channel.matrix, link2.channel.matrix)

    with pytest.raises(ValueError, match="evolve_rng"):
        _toy_system(125, rho=0.5)


@pytest.mark.parametrize("rho", [-0.1, 1.5, float("nan")])
def test_link_rejects_a_drift_factor_outside_the_unit_interval(rho):
    with pytest.raises(ValueError, match="rho"):
        _toy_system(125, rho=rho, evolve_rng=make_rng(123))


@pytest.mark.parametrize("weight", [-1e-3, float("nan")])
def test_link_rejects_a_negative_or_nan_comm_weight(weight):
    with pytest.raises(ValueError, match=r"comm_weight = (-0\.001|nan) must be >= 0"):
        _toy_system(125, comm_weight=weight)


def test_link_rejects_an_infinite_comm_weight():
    # An infinite penalty weight ran, and diverged at its first step.
    with pytest.raises(ValueError, match=r"comm_weight = inf must be >= 0 and finite"):
        _toy_system(125, comm_weight=float("inf"))


def test_frozen_combiner_keeps_its_value_under_the_comm_penalty():
    system, link = _toy_system(130, comm_weight=1e-2)
    link.layer.freeze("C")
    c0 = link.layer.params["C"].copy()
    rng = make_rng(131)
    opt = Adam(lr=0.01)
    for _ in range(3):
        x = crandn(rng, (3, 6))
        metrics = system.train_batch(x, rng.integers(0, 4, 6), opt)
    np.testing.assert_array_equal(link.layer.params["C"], c0)
    assert metrics.comm_loss > 0.0 and link.comm_loss_value == metrics.comm_loss


def _conv_system(seed, comm_weight=1e-2):
    """Conv node -> over-the-air conv link -> pooled dense head, on (B, 2, 4, 4)."""
    rng = make_rng(seed, 1)
    channel = sample_channel(4, 4, 4, make_rng(seed, 2))
    layer = OacConvLayer(3, 4, 3, OacDesign("receiver", "separated"), 4, 4, 2, rng)
    link = SplitLink(layer, channel, NOISELESS, comm_weight=comm_weight)
    nodes = [ComplexNet([Conv2d(2, 3, 3, rng)]),
             ComplexNet([AvgPool2d(), Flatten(), Dense(4, 3, rng)])]
    return SplitSystem(nodes, [link]), link


def test_conv_link_trains_tracks_and_evaluates_in_chunks():
    system, link = _conv_system(132)
    rng = make_rng(133)
    x = crandn(rng, (7, 2, 4, 4))
    labels = rng.integers(0, 3, 7)
    loss_a, acc_a = system.evaluate(x, labels, batch_size=3)
    loss_b, acc_b = system.evaluate(x, labels, batch_size=7)
    assert abs(loss_a - loss_b) < 1e-12 and abs(acc_a - acc_b) < 1e-12
    assert link.fwd_cov.count == 0 and link.bwd_cov.count == 0

    before = {k: v.copy() for k, v in system.parameters().items()}
    assert "link0.mix.C" in before and "link0.conv.kernels" in before
    metrics = system.train_batch(x, labels, Adam(lr=0.01))
    assert link.fwd_cov.count == 1 and link.bwd_cov.count == 1
    assert np.isfinite(metrics.loss) and metrics.comm_loss > 0.0
    after = system.parameters()
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    assert set(changed) == set(before)     # every parameter moved


def test_conv_link_adds_the_combiner_penalty_gradient_to_mix_c():
    # The same noiseless link with the comm loss on and off: mix.C's gradient
    # differs by the penalty's, taken from the forward tracker that the
    # training pass filled, and no other gradient differs.
    rng = make_rng(134)
    x = crandn(rng, (5, 3, 4, 4))
    g_y = crandn(rng, (5, 4, 4, 4))
    grads, links = {}, {}
    for weight in (1.0, 0.0):
        _, links[weight] = _conv_system(135, comm_weight=weight)
        _, transcript = links[weight].forward(x, train=True)
        grads[weight] = links[weight].backward(transcript, g_y).grads
    on = links[1.0]
    g_c, _ = comm_loss_gradients(on.fwd_cov, on.inner.params["C"], on.inner.r,
                                 side="combiner", weight=1.0)
    assert np.linalg.norm(g_c) > 1e-3 * np.linalg.norm(grads[0.0]["mix.C"])
    np.testing.assert_allclose(grads[1.0]["mix.C"], grads[0.0]["mix.C"] + g_c,
                               rtol=1e-12, atol=0)
    assert set(grads[1.0]) == set(grads[0.0])
    for name in grads[0.0].keys() - {"mix.C"}:
        np.testing.assert_array_equal(grads[1.0][name], grads[0.0][name], err_msg=name)


def test_evaluate_chunking_matches_single_pass():
    system, _ = _toy_system(126)
    x = crandn(make_rng(127), (3, 30))
    labels = make_rng(128).integers(0, 4, 30)
    loss_a, acc_a = system.evaluate(x, labels, batch_size=7)
    loss_b, acc_b = system.evaluate(x, labels, batch_size=30)
    assert abs(loss_a - loss_b) < 1e-12 and abs(acc_a - acc_b) < 1e-12


@pytest.mark.parametrize("batch_size, n, match", [
    (-2, 5, r"batch_size = -2 must be >= 1"),
    (0, 5, r"batch_size = 0 must be >= 1"),
    (4, 0, r"empty batch"),
])
def test_evaluate_rejects_a_bad_batch_size_or_an_empty_batch(batch_size, n, match):
    system, _ = _toy_system(138)
    x = crandn(make_rng(139), (3, n))
    with pytest.raises(ValueError, match=match):
        system.evaluate(x, np.zeros(n, dtype=int), batch_size=batch_size)


def _two_link_system(seed, n, r):
    """Three nodes joined by two noisy n x n receiver/separated links."""
    rng = make_rng(seed, 1)
    nodes = [ComplexNet([Dense(3, n, rng), CRelu()]),
             ComplexNet([Dense(n, n, rng), CRelu()]),
             ComplexNet([Dense(n, 4, rng)])]
    links = []
    for i in range(2):
        layer = OacLayer(OacDesign("receiver", "separated"), n, n, n, n, r, rng)
        links.append(SplitLink(layer, sample_channel(n, n, n, make_rng(seed, 2, i)),
                               NoiseModel(snr_db=10.0), noise_rng_f=make_rng(seed, 3, i),
                               noise_rng_b=make_rng(seed, 4, i)))
    return SplitSystem(nodes, links)


def test_evaluate_peak_memory_stays_near_one_link_pass():
    # An inference pass keeps no transcript, so link 0's (K, n, B) stack is
    # gone before link 1 sends.  Holding every record until the logits exist
    # measured 2.7 pairs.  One link's own pass scales its sent stack and
    # receives into it in place, so it holds one stack, power_normalize's
    # float |.|^2 (half a stack) and the smaller per-use inputs: 0.95 pairs.
    # A power_normalize copy measured 1.44, and a second received stack
    # would add half a pair; the bound is 0.95 plus 0.1 for allocator and
    # interpreter noise.
    n, batch = 32, 128
    system = _two_link_system(134, n, r=4)
    pair_bytes = 2 * system.links[0].layer.k_total * n * batch * 16
    rng = make_rng(135)
    x = crandn(rng, (3, batch))
    labels = rng.integers(0, 4, batch)
    system.evaluate(x, labels, batch_size=batch)
    tracemalloc.start()
    try:
        system.evaluate(x, labels, batch_size=batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / pair_bytes < 1.05


def test_backward_consumes_ctx_and_frees_each_stage():
    system = _two_link_system(136, 8, r=2)
    rng = make_rng(137)
    x = crandn(rng, (3, 6))
    labels = rng.integers(0, 4, 6)
    assert system.forward(x, train=False)[1] == []
    logits, ctx = system.forward(x, train=True)
    assert [kind for kind, _ in ctx] == ["node", "link", "node", "link", "node"]
    refs = [weakref.ref(payload) for kind, payload in ctx if kind == "link"]

    def recording(backward):
        def wrapped(*args, **kwargs):
            res = backward(*args, **kwargs)
            refs.append(weakref.ref(res))
            return res
        return wrapped

    for link in system.links:
        link.backward = recording(link.backward)
    alive = []
    node0_backward = system.nodes[0].backward

    def first_node_backward(caches, g):
        alive.extend(ref() is not None for ref in refs)
        return node0_backward(caches, g)

    system.nodes[0].backward = first_node_backward
    _, g, _ = modulus_softmax_loss(logits, labels)
    grads = system.backward(ctx, g)
    assert ctx == []
    # by the time the first node runs, both links' transcripts and backward
    # results are released
    assert alive == [False] * 4
    assert {name.split(".")[0] for name in grads} == {
        "node0", "node1", "node2", "link0", "link1"}
    with pytest.raises(ValueError, match="ctx holds 0 records for 5 stages"):
        system.backward(ctx, g)


def test_system_shape_validation():
    rng = make_rng(129)
    with pytest.raises(ValueError):
        SplitSystem([ComplexNet([Dense(2, 2, rng)])], [object()])


def test_regret_smoke_run_is_finite_and_paired():
    cfg = RegretConfig(dim=8, obs=2, steps=400, eta0=1.0,
                       sigmas=(0.0, 0.1, 0.3), n_seeds=2, seed=5, fit_floor=20)
    res = regret_experiment(cfg)
    assert not res.diverged
    assert res.avg_regret.shape[0] == 3 and res.avg_regret.shape[1] == 2
    assert np.all(np.isfinite(res.avg_regret))
    assert np.all(np.diff(res.ts) > 0)
    assert res.ts[0] >= 20 and res.ts[-1] == 400
    # noise can only add regret on average at the end of the horizon
    assert res.final[2] > res.final[0]
    assert res.measured_ratio > 1.0 and res.predicted_ratio > 0.0
    assert res.grad_bound > 0.0 and res.diameter > 0.0


def test_regret_is_deterministic():
    cfg = RegretConfig(dim=6, obs=2, steps=200, eta0=1.0, sigmas=(0.1,),
                       n_seeds=2, seed=9, fit_floor=10)
    a = regret_experiment(cfg)
    b = regret_experiment(cfg)
    np.testing.assert_array_equal(a.avg_regret, b.avg_regret)
    assert a.measured_ratio == b.measured_ratio


def test_regret_rejects_a_one_sample_slope_fit():
    # steps at or below max(fit_floor, 2) leaves one point on the log-log axis
    for kwargs in ({"steps": 20, "dim": 4, "n_seeds": 2}, {"steps": 2, "fit_floor": 1}):
        with pytest.raises(ValueError, match=r"steps = \d+ must exceed max\(fit_floor, 2\)"):
            RegretConfig(**kwargs)
    res = regret_experiment(RegretConfig(steps=3, dim=2, obs=1, n_seeds=1, fit_floor=1))
    assert res.ts.tolist() == [2, 3] and np.all(np.isfinite(res.slopes))


@pytest.mark.parametrize("field, value", [
    ("dim", 0), ("obs", 0), ("n_seeds", 0), ("dim", 2.0), ("steps", 150.5),
    ("fit_floor", 0), ("fit_floor", -3), ("fit_floor", 10.5),
    ("sigmas", ()), ("sigmas", (0.1, float("nan"))), ("sigmas", (-0.1,)),
    ("sigmas", (float("inf"),)), ("sigmas", 0.1),
    ("eta0", 0.0), ("eta0", float("nan")), ("radius_factor", 0.0),
    ("radius_factor", float("inf")), ("obs_noise", -0.5), ("obs_noise", float("nan")),
    ("seed", -1), ("seed", 2.5), ("seed", "x"), ("n_seeds", True), ("seed", True),
    ("eta0", True), ("sigmas", (True,)), ("radius_factor", True), ("obs_noise", False),
], ids=str)
def test_regret_config_fails_by_field_name(field, value):
    kwargs = {"steps": 150, "dim": 4, "n_seeds": 2, "fit_floor": 10, field: value}
    with pytest.raises(ValueError, match=f"^{field} = "):
        RegretConfig(**kwargs)


# Reference values recorded from the einsum formulation of regret_experiment;
# the matmul formulation sums in another order, so it must match to roundoff.
# 1100 steps cross two 512-step chunk boundaries of the replayed data stream.
_GOLDEN_T = [100, 333, 508, 514, 1023, 1035, 1100]
_GOLDEN_AVG_REGRET = [     # (sigma, seed, T) at the steps above
    [
        [8.092782139533405, 2.720231589638963, 1.862966464056613, 1.8460147748848612, 1.025898654592761, 1.0165235908550896, 0.9683730047194827],
        [4.071304378874047, 1.4856676409127847, 1.0688074490156623, 1.0595623604604707, 0.6230473008447199, 0.6190534262666577, 0.591852993546252],
        [11.531860720737429, 3.7442079932089034, 2.5249868267975892, 2.498368870174149, 1.343445796597589, 1.3303295316884651, 1.259907456306668],
    ],
    [
        [8.70682103763254, 2.9122017866934415, 1.99164663808266, 1.973371459415939, 1.0915381997907316, 1.0814539684288667, 1.0291194625090059],
        [3.8582284189823475, 1.4272811363606868, 1.0324347756748737, 1.0232641842373287, 0.6066085937461425, 0.6027422701049002, 0.5765741386017434],
        [12.396610897585834, 4.006218944593059, 2.698361230772729, 2.6691955627234245, 1.43079323723219, 1.4168097797246597, 1.3412245401723153],
    ],
    [
        [11.330811668816642, 3.7814230328065954, 2.5877838220968314, 2.5637267482034063, 1.4131346023520237, 1.3998918735936774, 1.3294962000487975],
        [3.925028833823134, 1.5154880884642856, 1.1156880017515207, 1.1048405407133444, 0.6727811288103848, 0.6681506042797087, 0.6401095502330864],
        [18.41129394241329, 5.881343450104012, 3.950169941625685, 3.905315945755976, 2.077374447907675, 2.05670583305093, 1.945347895182353],
    ],
]


def test_regret_matches_recorded_values():
    res = regret_experiment(RegretConfig(steps=1100, dim=8, n_seeds=3))
    rtol = 1e-10
    np.testing.assert_allclose(
        res.final, [0.9400444848574675, 0.9823060470943549, 1.3049845484880789],
        rtol=rtol)
    np.testing.assert_allclose(
        res.slopes, [-0.8897625426829495, -0.8929023727847543, -0.898761466839494],
        rtol=rtol)
    np.testing.assert_allclose(res.measured_ratio, 1.3284908021773882, rtol=rtol)
    np.testing.assert_allclose(res.grad_bound, 30.48611630650743, rtol=rtol)
    cols = np.searchsorted(res.ts, _GOLDEN_T)
    np.testing.assert_array_equal(res.ts[cols], _GOLDEN_T)
    np.testing.assert_allclose(res.avg_regret[:, :, cols], _GOLDEN_AVG_REGRET,
                               rtol=rtol)


# Recorded before the replay reused the one-chunk stream (500 steps: one
# chunk); the reuse must not move a bit, so these hold to roundoff.
_ONE_CHUNK_T = [100, 215, 307, 457, 500]
_ONE_CHUNK_AVG_REGRET = [     # (sigma, seed, T) at the steps above
    [
        [14.204339522954264, 6.881955399805104, 4.904292274931911, 3.370715217009777, 3.0980185602253596],
        [12.853070160841467, 6.223022853136417, 4.465549515071576, 3.106783543939939, 2.8642518766051994],
        [23.874694463900326, 11.311147770723224, 8.020342551157894, 5.488870292220907, 5.0417929467563045],
    ],
    [
        [14.451291231954045, 6.9930277753205345, 4.985117426152862, 3.422659035904544, 3.1455611514435957],
        [10.873847168593047, 5.305998367503091, 3.823546973755479, 2.6751572975721407, 2.4704380804380404],
        [23.66452123642429, 11.21787088672107, 7.955743416648141, 5.446328865688182, 5.003729629955916],
    ],
    [
        [15.860217479482142, 7.69124912423026, 5.503380153960621, 3.7833735963916966, 3.4789573399036584],
        [9.234127655560943, 4.5983860226306374, 3.349033182258114, 2.3723714237962903, 2.2004761626997555],
        [22.194262360043243, 10.604745007682924, 7.550598355662222, 5.195550762660615, 4.780976897458395],
    ],
]


def test_one_chunk_regret_matches_recorded_values():
    res = regret_experiment(RegretConfig(steps=500, dim=8, n_seeds=3))
    rtol = 1e-10
    np.testing.assert_allclose(
        res.final, [3.668021127862288, 3.539909620612517, 3.48680346668727], rtol=rtol)
    np.testing.assert_allclose(
        res.slopes, [-0.9530119567458442, -0.9509333082905126, -0.9383561590774337],
        rtol=rtol)
    np.testing.assert_allclose(
        [res.measured_ratio, res.predicted_ratio, res.c0, res.c1, res.diameter,
         res.grad_bound],
        [0.9849978785853696, 0.9547803718437604, 117.65056556842919,
         -35.36083193773627, 72.64888917709666, 41.884656656605166], rtol=rtol)
    cols = np.searchsorted(res.ts, _ONE_CHUNK_T)
    np.testing.assert_array_equal(res.ts[cols], _ONE_CHUNK_T)
    np.testing.assert_allclose(res.avg_regret[:, :, cols], _ONE_CHUNK_AVG_REGRET,
                               rtol=rtol)


@pytest.mark.parametrize("steps, draws", [(500, 1), (512, 1), (513, 4), (1100, 6)])
def test_regret_draws_a_one_chunk_stream_once(monkeypatch, steps, draws):
    # A stream of one chunk is drawn once and replayed from its buffer; a
    # longer one (here 2 or 3 chunks) is drawn by both passes.
    cfg = RegretConfig(steps=steps, dim=4, obs=2, n_seeds=2)
    data_shape = (cfg.n_seeds, cfg.obs, cfg.dim)
    counted = []

    def counting_crandn(rng, shape, *args, **kwargs):
        if len(shape) == 4 and tuple(shape[1:]) == data_shape:
            counted.append(shape[0])
        return crandn(rng, shape, *args, **kwargs)

    expected = regret_experiment(cfg)
    monkeypatch.setattr(runtime, "crandn", counting_crandn)
    got = regret_experiment(cfg)
    assert len(counted) == draws
    assert sum(counted) == steps * (1 if draws == 1 else 2)
    np.testing.assert_array_equal(got.avg_regret, expected.avg_regret)


def test_normal_equations_add_each_chunk_in_64_step_blocks():
    # The hindsight optimum's rounding, and so the regret curves' bytes,
    # depend on the summation order: per chunk, the gram adds one matmul per
    # _REGRET_BLOCK-step block and seed, and the right-hand side one sum of
    # per-step products per block, in step order.
    cfg = RegretConfig(steps=150, dim=5, obs=3, n_seeds=2, fit_floor=10)
    rng = make_rng(41, 0)
    a, b = crandn(rng, (150, 2, 3, 5)), crandn(rng, (150, 2, 3))
    normal = runtime._NormalEquations(cfg)
    gram = np.zeros((2, 5, 5), dtype=np.complex128)
    rhs = np.zeros((2, 5), dtype=np.complex128)
    for chunk in (slice(0, 140), slice(140, 150)):
        normal.add(a[chunk], b[chunk])
        for lo in range(chunk.start, chunk.stop, 64):
            blk = slice(lo, min(lo + 64, chunk.stop))
            for k in range(2):
                rows = a[blk, k].reshape(-1, 5)
                gram[k] += np.conj(rows).T @ rows
            rhs += np.conj(np.sum(np.conj(b[blk])[:, :, None, :] @ a[blk], axis=0)[:, 0])
    assert normal.gram.tobytes() == gram.tobytes()
    assert normal.rhs.tobytes() == rhs.tobytes()
    np.testing.assert_allclose(normal.gram, np.einsum("tkmi,tkmj->kij", a.conj(), a),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(normal.rhs, np.einsum("tkmi,tkm->ki", a.conj(), b),
                               rtol=0, atol=1e-12)


def test_regret_peak_memory_stays_near_one_chunk():
    # Every (512, seeds, obs, dim) data chunk is drawn into one buffer; this
    # 3-chunk stream is drawn by both passes.  Holding a second chunk (pass
    # 1's last one, or the generator's previous one while the next is drawn)
    # raised the peak to ~3 chunks; one chunk plus the update-noise buffer,
    # crandn's float scratch and the replay's residual stack measures ~1.54.
    cfg = RegretConfig(steps=1100, dim=16, n_seeds=4)
    chunk_bytes = 512 * cfg.n_seeds * cfg.obs * cfg.dim * 16
    regret_experiment(RegretConfig(steps=20, dim=4, obs=2, n_seeds=2, fit_floor=5))
    tracemalloc.start()
    try:
        regret_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / chunk_bytes < 2.0
