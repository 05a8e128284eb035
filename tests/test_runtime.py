import tracemalloc

import numpy as np
import pytest

from airsplit import runtime
from airsplit.channel import NOISELESS, NoiseModel, sample_channel
from airsplit.linalg import crandn, make_rng
from airsplit.nn import Adam, ComplexNet, CRelu, Dense, modulus_softmax_loss
from airsplit.oac import OacDesign, OacLayer, equivalent_weight
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
    tr = CovarianceTracker(3, alpha=0.5)
    assert tr.count == 0
    b1 = crandn(make_rng(100), (3, 10))
    tr.update(b1)
    want = 0.5 * (b1 @ b1.conj().T / 10)
    np.testing.assert_allclose(tr.matrix, 0.5 * (want + want.conj().T), atol=1e-12)
    np.testing.assert_allclose(tr.matrix, tr.matrix.conj().T, atol=0)
    tr.update(crandn(make_rng(101), (3, 10)))
    assert tr.count == 2
    tr.reset()
    assert tr.count == 0 and not np.any(tr.matrix)
    with pytest.raises(ValueError):
        tr.update(np.zeros((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        CovarianceTracker(3, alpha=1.0)


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
    tr = CovarianceTracker(4, alpha=0.0)
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


def test_comm_loss_signal_side_scaling():
    tr = CovarianceTracker(3, alpha=0.0)
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


def test_split_forward_composes_nodes_and_link():
    system, link = _toy_system(110)
    x = crandn(make_rng(111), (3, 5))
    y, ctx = system.forward(x, train=False)
    h1, _ = system.nodes[0].forward(x, train=False)
    w_eff = equivalent_weight(link.layer, link.channel)
    mid = w_eff @ h1 + link.layer.params["b"][:, None]
    want, _ = system.nodes[1].forward(mid, train=False)
    np.testing.assert_allclose(y, want, atol=1e-10)
    kinds = [k for k, _ in ctx]
    assert kinds == ["node", "link", "node"]


def test_covariance_updates_only_on_training_passes():
    system, link = _toy_system(112)
    x = crandn(make_rng(113), (3, 4))
    labels = np.array([0, 1, 2, 3])
    system.evaluate(x, labels)
    assert link.fwd_cov.count == 0 and link.bwd_cov.count == 0
    system.train_batch(x, labels, Adam(lr=1e-3))
    assert link.fwd_cov.count == 1 and link.bwd_cov.count == 1
    system.train_batch(x, labels, Adam(lr=1e-3))
    assert link.fwd_cov.count == 2 and link.bwd_cov.count == 2


def test_train_batch_steps_every_trainable_parameter():
    system, _ = _toy_system(114)
    before = {k: v.copy() for k, v in system.trainable_parameters().items()}
    x = crandn(make_rng(115), (3, 8))
    labels = make_rng(116).integers(0, 4, 8)
    metrics = system.train_batch(x, labels, Adam(lr=0.01))
    assert isinstance(metrics, BatchMetrics) and np.isfinite(metrics.loss)
    after = system.trainable_parameters()
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
        return system.trainable_parameters()

    a, b = run(), run()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


def test_comm_penalty_moves_combiner_gradients():
    system_a, link_a = _toy_system(119, comm_weight=1e-2)
    system_b, link_b = _toy_system(119)
    x = crandn(make_rng(120), (3, 6))
    labels = make_rng(121).integers(0, 4, 6)
    # first batch: trackers are empty, so the penalty is zero everywhere
    system_a.train_batch(x, labels, Adam(lr=0.0))
    logits, ctx = system_a.forward(x, train=True)
    _, g, _ = system_a.loss(logits, labels)
    grads_a = system_a.backward(ctx, g, train=True)
    assert link_a.comm_loss_value > 0.0

    system_b.train_batch(x, labels, Adam(lr=0.0))
    logits, ctx = system_b.forward(x, train=True)
    _, g, _ = system_b.loss(logits, labels)
    grads_b = system_b.backward(ctx, g, train=True)
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

    bad, _ = _toy_system(125, rho=0.5)
    with pytest.raises(ValueError):
        bad.train_batch(x, labels, Adam(lr=1e-3))


def test_evaluate_chunking_matches_single_pass():
    system, _ = _toy_system(126)
    x = crandn(make_rng(127), (3, 30))
    labels = make_rng(128).integers(0, 4, 30)
    loss_a, acc_a = system.evaluate(x, labels, batch_size=7)
    loss_b, acc_b = system.evaluate(x, labels, batch_size=30)
    assert abs(loss_a - loss_b) < 1e-12 and abs(acc_a - acc_b) < 1e-12


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


def test_regret_peak_memory_stays_near_one_chunk():
    # Both passes draw every (512, seeds, obs, dim) data chunk into one
    # buffer.  Holding a second chunk (pass 1's last one, or the generator's
    # previous one while the next is drawn) raised the peak to ~3 chunks;
    # one chunk plus the per-seed row buffers and the noise buffer measures
    # ~1.7.
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
