"""Fast built-in consistency checks, runnable from the command line.

Each check is a small function that raises AssertionError on violation.
verify_all runs the registry in order, prints one line per check, and
returns the number of failures.  The whole suite is meant to finish in a
few seconds; the heavier statistical work lives in the test suite.
"""
from __future__ import annotations

import numpy as np

from .bench import (DataConfig, LayerSpec, cost_comparison, cost_report,
                    generate_dataset)
from .channel import (NOISELESS, NoiseModel, channel_snr, sample_channel,
                      transmit_backward, evolve_channel)
from .linalg import make_rng, crandn, matrix_rank, pinv, svd
from .nn import (ComplexBatchNorm, ComplexNet, CRelu, Dense,
                 modulus_softmax_loss, numerical_gradient)
from .oac import (ALL_DESIGNS, FeasibilityError, OacConvLayer, OacDesign,
                  OacLayer, decompose_weight, equivalent_weight,
                  layer_from_weight, power_normalize)
from .runtime import CovarianceTracker, comm_loss_gradients

__all__ = ["verify_all", "CHECKS"]


def _assert_close(a, b, tol, msg):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert err <= tol, f"{msg}: max deviation {err:.3e} > {tol:.1e}"


def check_rng_streams():
    a = make_rng(3, 1).standard_normal(8)
    b = make_rng(3, 1).standard_normal(8)
    c = make_rng(3, 2).standard_normal(8)
    assert np.array_equal(a, b), "same seed and stream must replay exactly"
    assert not np.array_equal(a, c), "different streams must decorrelate"


def check_channel_reciprocity():
    rng = make_rng(11, 0)
    state = sample_channel(6, 5, 3, rng)
    assert matrix_rank(state.matrix) <= 3, "rank cannot exceed the path count"
    x = crandn(rng, (5, 4))
    y = transmit_backward(state, x, NOISELESS)
    _assert_close(y, state.matrix.T @ x, 1e-12, "reverse direction is the transpose")


def check_channel_evolution_identity():
    rng = make_rng(12, 0)
    state = sample_channel(4, 4, 3, rng)
    same = evolve_channel(state, 0.0, make_rng(12, 1))
    assert np.array_equal(same.matrix, state.matrix), "rho=0 must be bit-exact"


def check_linalg_roundtrip():
    rng = make_rng(13, 0)
    m = crandn(rng, (6, 4))
    u, s, v = svd(m)
    _assert_close(u * s @ v.conj().T, m, 1e-10, "svd must reconstruct")
    _assert_close(m @ pinv(m) @ m, m, 1e-9, "pseudo-inverse identity")


def check_power_normalization():
    rng = make_rng(14, 0)
    block = 5.0 * crandn(rng, (8, 16))
    scaled, a = power_normalize(block)
    power = float(np.mean(np.sum(np.abs(scaled) ** 2, axis=0)))
    assert abs(power - 1.0) <= 1e-9, f"unit transmit power, got {power}"
    assert a > 0


def check_forward_matches_equivalent_weight():
    rng = make_rng(15, 0)
    state = sample_channel(5, 6, 4, rng)
    x = crandn(rng, (7, 3))
    for design in ALL_DESIGNS:
        layer = OacLayer(design, 7, 8, 5, 6, 3, rng, bias=False)
        y, _ = layer.forward(x, state, NOISELESS)
        _assert_close(y, equivalent_weight(layer, state) @ x, 1e-9,
                      f"{design.side}/{design.form} forward")


def check_backward_stream_identity():
    rng = make_rng(16, 0)
    state = sample_channel(5, 6, 4, rng)
    layer = OacLayer(OacDesign("receiver", "separated"), 7, 8, 5, 6, 3, rng,
                     bias=False)
    x = crandn(rng, (7, 3))
    _, transcript = layer.forward(x, state, NOISELESS)
    g_y = crandn(rng, (8, 3))
    res = layer.backward(transcript, g_y, state, NOISELESS)
    g_up = layer.params["W0"].conj().T @ g_y
    for k in range(layer.k_total):
        want = state.matrix.conj().T @ layer.params["C"] @ g_up[k * 3:(k + 1) * 3]
        _assert_close(res.stream_grads[k], want, 1e-9, f"stream {k} gradient")


def check_decomposition():
    rng = make_rng(17, 0)
    state = sample_channel(5, 5, 4, rng)
    w = crandn(rng, (4, 6))
    p_list, c_list = decompose_weight(w, state, k=2, r=2)
    recon = sum(c.conj().T @ state.matrix @ p for p, c in zip(p_list, c_list))
    _assert_close(recon, w, 1e-8, "decomposition reconstruction")
    try:
        decompose_weight(w, state, k=1, r=2)
    except FeasibilityError:
        pass
    else:
        raise AssertionError("k*r below min(n_in, n_out) must be rejected")


def check_installed_weight():
    rng = make_rng(18, 0)
    state = sample_channel(6, 6, 5, rng)
    w = crandn(rng, (5, 5))
    for design in ALL_DESIGNS:
        layer = layer_from_weight(w, state, design, r=3, rng=rng)
        _assert_close(equivalent_weight(layer, state), w, 1e-8,
                      f"{design.side}/{design.form} exact install")


def check_conv_matches_dense_mixing():
    rng = make_rng(19, 0)
    state = sample_channel(5, 5, 4, rng)
    layer = OacConvLayer(3, 4, 1, OacDesign("receiver", "separated"), 5, 5, 2,
                         rng, bias=False, padding="valid")
    x = crandn(rng, (2, 3, 1, 1))
    y, _ = layer.forward(x, state, NOISELESS)
    w_mix = equivalent_weight(layer.mix, state)
    kernels = layer.conv.kernels[:, :, 0, 0]
    want = (w_mix @ kernels) @ x[:, :, 0, 0].T
    _assert_close(y[:, :, 0, 0], want.T, 1e-9, "1x1 conv equals dense mixing")


def check_network_gradients():
    rng = make_rng(20, 0)
    net = ComplexNet([Dense(4, 5, rng), ComplexBatchNorm(5), CRelu(),
                      Dense(5, 3, rng)])
    x = crandn(rng, (4, 6))
    labels = np.array([0, 2, 1, 0, 2, 1])

    def loss():
        return modulus_softmax_loss(net.forward(x, train=True)[0], labels)[0]

    y, caches = net.forward(x, train=True)
    _, g, _ = modulus_softmax_loss(y, labels)
    _, grads = net.backward(caches, g)
    want = numerical_gradient(loss, net.parameters())
    for name in grads:
        _assert_close(grads[name], want[name], 5e-5, f"gradient of {name}")


def check_comm_loss_direction():
    tracker = CovarianceTracker(4)
    rng = make_rng(21, 0)
    basis, _, _ = svd(crandn(rng, (4, 4)))
    # Covariance concentrated on the first two directions.
    block = basis[:, :2] @ crandn(rng, (2, 64))
    tracker.update(block)
    c = basis[:, 3:]
    grad, value = comm_loss_gradients(tracker, c, r=2, side="combiner")
    _assert_close(grad, 2.0 * c, 1e-6, "weak-direction combiner gradient")
    assert value > 0.9, "penalty must see the full weak component"
    grad0, value0 = comm_loss_gradients(tracker, basis[:, :1], r=2, side="combiner")
    assert value0 <= 1e-9 and float(np.max(np.abs(grad0))) <= 1e-6, \
        "strong directions must not be penalized"


def check_noise_model():
    rng = make_rng(22, 0)
    state = sample_channel(4, 4, 3, rng)
    assert channel_snr(state, NOISELESS.total_power(state)) == float("inf")
    nm = NoiseModel(snr_db=17.0)
    realized = channel_snr(state, nm.total_power(state))
    assert abs(realized - 17.0) <= 1e-9, "snr model and meter must agree"


def check_cost_worked_example():
    rows = cost_report(LayerSpec(n_i=6, n_o=6, n_t=4, n_r=4, r=3, batch=3))
    row = next(r for r in rows if r.side == "transmitter" and r.form == "separated")
    assert row.parameters == 60, row
    assert row.macs == 252, row
    assert row.transmissions == 6, row
    comp = cost_comparison(16)
    proposed = next(r for r in comp if r.algorithm == "proposed")
    assert proposed.transmission_factor == 1.0 / 256
    assert proposed.estimation_factor == 0.0


def check_dataset_determinism():
    cfg = DataConfig(n_features=4, n_classes=3, train_per_class=5,
                     test_per_class=2, seed=5)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)


CHECKS = [
    ("rng-streams", check_rng_streams),
    ("channel-reciprocity", check_channel_reciprocity),
    ("channel-evolution-identity", check_channel_evolution_identity),
    ("linalg-roundtrip", check_linalg_roundtrip),
    ("power-normalization", check_power_normalization),
    ("forward-equivalent-weight", check_forward_matches_equivalent_weight),
    ("backward-stream-identity", check_backward_stream_identity),
    ("weight-decomposition", check_decomposition),
    ("installed-weight", check_installed_weight),
    ("conv-dense-mixing", check_conv_matches_dense_mixing),
    ("network-gradients", check_network_gradients),
    ("comm-loss-direction", check_comm_loss_direction),
    ("noise-model", check_noise_model),
    ("cost-worked-example", check_cost_worked_example),
    ("dataset-determinism", check_dataset_determinism),
]


def verify_all(out=None) -> int:
    """Run every check; print one status line each; return the failure count."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures += 1
            line = f"[FAIL] {name}: {exc}"
        else:
            line = f"[ok]   {name}"
        print(line, file=out)
    return failures
