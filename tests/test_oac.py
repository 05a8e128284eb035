import math
import tracemalloc
import warnings

import numpy as np
import pytest

import _oracles as oracles
from airsplit.channel import NOISELESS, NoiseModel, sample_channel
from airsplit.linalg import crandn, make_rng, matrix_rank, svd
from airsplit.oac import (
    ALL_DESIGNS, ChannelRankError, FeasibilityError, FeasibilityWarning,
    OacConvLayer, OacDesign, OacLayer, decompose_weight, equivalent_weight,
    feasible, ideal_matrices, layer_from_weight, power_normalize, snr_report,
)

SIZES = [
    # n_in, n_out, n_tx, n_rx, r  (mix of divisible and padded block counts)
    (6, 6, 4, 4, 2),
    (5, 7, 4, 6, 3),
    (8, 3, 6, 4, 2),
    (4, 4, 4, 4, 4),
]


def _composed(layer, channel):
    return oracles.composed_weight(
        layer.design.side, layer.design.form, layer.params, channel.matrix,
        layer.n_in, layer.n_out, layer.r, layer.k_total)


def test_power_normalize_scales_to_unit_mean_power():
    rng = make_rng(70)
    block = crandn(rng, (4, 9), var=3.0)
    scaled, a = power_normalize(block)
    assert abs(np.mean(np.abs(scaled) ** 2) * scaled.shape[0]
               - np.mean(np.sum(np.abs(scaled) ** 2, axis=0))) < 1e-12
    assert abs(np.mean(np.sum(np.abs(scaled) ** 2, axis=0)) - 1.0) < 1e-12
    np.testing.assert_allclose(scaled * a, block, atol=1e-12)


def test_power_normalize_leaves_zero_blocks_alone():
    scaled, a = power_normalize(np.zeros((3, 2), dtype=np.complex128))
    assert a == 1.0
    np.testing.assert_array_equal(scaled, np.zeros((3, 2)))


def test_stacked_power_normalize_equals_one_call_per_use():
    stack = crandn(make_rng(70, 1), (3, 4, 5), var=2.0)
    stack[1] = 0.0
    scaled, a = power_normalize(stack)
    assert scaled.shape == stack.shape and a.shape == (3,)
    for k in (0, 2):
        a_k = math.sqrt(float(np.mean(np.sum(np.abs(stack[k]) ** 2, axis=0))))
        assert a[k] == a_k
        assert scaled[k].tobytes() == (stack[k] / a_k).tobytes()
    assert a[1] == 1.0 and scaled[1].tobytes() == stack[1].tobytes()
    for k in range(3):
        one, a_one = power_normalize(stack[k])
        assert a_one == a[k] and one.tobytes() == scaled[k].tobytes()
    # into out: the stack itself, one (n, B) block of it, or another array
    alias = stack.copy()
    into, a_into = power_normalize(alias, out=alias)
    assert into is alias and into.tobytes() == scaled.tobytes() and a_into.tobytes() == a.tobytes()
    block = stack[2].copy()
    into, a_into = power_normalize(block, out=block)
    assert into is block and into.tobytes() == scaled[2].tobytes() and a_into == a[2]
    other = np.full(stack.shape, np.nan, dtype=np.complex128)
    into, a_into = power_normalize(stack, out=other)
    assert into is other and into.tobytes() == scaled.tobytes() and a_into.tobytes() == a.tobytes()


@pytest.mark.parametrize("shape", [(3, 4, 5), (8, 64, 64), (16, 9)])
def test_power_normalize_is_byte_equal_to_dividing_by_the_scales(shape):
    block = crandn(make_rng(71, *shape), shape, var=5.0)
    scaled, a = power_normalize(block)
    want = np.divide(block, np.asarray(a)[..., None, None])
    assert scaled.tobytes() == want.tobytes()


def test_power_normalize_keeps_the_sign_of_exact_zeros():
    # the float view times 1 / a keeps a -0.0 part, where np.divide's
    # (re + 0 * im) * (1 / a) may turn it into +0.0; the values are equal
    block = np.array([[complex(-0.0, 2.0)], [complex(1.0, -0.0)]])
    scaled, a = power_normalize(block)
    assert a == math.sqrt(5.0)
    np.testing.assert_array_equal(scaled, block / a)
    assert np.signbit(scaled.view(np.float64)).tolist() == [[True, False], [False, True]]


def test_feasible_boundary():
    assert feasible(2, 3, 6, 8)          # 6 >= min
    assert feasible(1, 5, 5, 9)
    assert not feasible(1, 4, 5, 9)      # 4 < 5
    assert not feasible(2, 2, 6, 5)      # 4 < 5


def test_design_validation():
    assert len(ALL_DESIGNS) == 4
    assert len({(d.side, d.form) for d in ALL_DESIGNS}) == 4
    with pytest.raises(ValueError):
        OacDesign("sender", "combined")
    with pytest.raises(ValueError):
        OacDesign("receiver", "monolithic")


def test_undersized_use_count_warns():
    with pytest.warns(FeasibilityWarning):
        layer = OacLayer(OacDesign("transmitter", "combined"), 6, 6, 4, 4, 2,
                         make_rng(71), k=1)
    assert layer.k_total == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        layer2 = OacLayer(OacDesign("transmitter", "combined"), 6, 6, 4, 4, 2,
                          make_rng(71))
    assert layer2.k_total == 3


def test_more_streams_than_antennas_warns():
    with pytest.warns(FeasibilityWarning,
                      match=r"r = 5 > min\(n_tx, n_rx\) = min\(4, 6\)"):
        OacLayer(OacDesign("receiver", "separated"), 5, 5, 4, 6, 5, make_rng(73))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        OacLayer(OacDesign("receiver", "separated"), 4, 4, 4, 6, 4, make_rng(73))


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
@pytest.mark.parametrize("size", SIZES)
def test_noiseless_forward_matches_composed_map(design, size):
    n_in, n_out, n_tx, n_rx, r = size
    rng = make_rng(72, n_in, n_out, r)
    channel = sample_channel(n_tx, n_rx, 5, rng)
    layer = OacLayer(design, n_in, n_out, n_tx, n_rx, r, rng)
    x = crandn(rng, (n_in, 6))
    y, transcript = layer.forward(x, channel, NOISELESS)
    w = _composed(layer, channel)
    np.testing.assert_allclose(y, w @ x + layer.params["b"][:, None], atol=1e-10)
    np.testing.assert_allclose(equivalent_weight(layer, channel), w, atol=1e-12)
    assert len(transcript.a) == layer.k_total


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
@pytest.mark.parametrize("size", SIZES[:3])
def test_noiseless_backward_is_the_adjoint(design, size):
    n_in, n_out, n_tx, n_rx, r = size
    rng = make_rng(74, n_in, n_out, r)
    channel = sample_channel(n_tx, n_rx, 5, rng)
    layer = OacLayer(design, n_in, n_out, n_tx, n_rx, r, rng)
    x = crandn(rng, (n_in, 5))
    _, transcript = layer.forward(x, channel, NOISELESS)
    g_y = crandn(rng, (n_out, 5))
    res = layer.backward(transcript, g_y, channel, NOISELESS)
    w = _composed(layer, channel)
    np.testing.assert_allclose(res.g_x, w.conj().T @ g_y, atol=1e-10)
    np.testing.assert_allclose(res.grads["b"], g_y.sum(axis=1), atol=1e-12)


def _check_noiseless_against_oracles(layer, channel, x, rng):
    """Forward against the composed map, g_x against its adjoint, and every
    parameter gradient against finite differences."""
    y, transcript = layer.forward(x, channel, NOISELESS)
    w = _composed(layer, channel)
    np.testing.assert_allclose(y, w @ x + layer.params["b"][:, None], atol=1e-10)
    np.testing.assert_allclose(equivalent_weight(layer, channel), w, atol=1e-10)
    g_y = crandn(rng, (layer.n_out, x.shape[1]))
    res = layer.backward(transcript, g_y, channel, NOISELESS)
    np.testing.assert_allclose(res.g_x, w.conj().T @ g_y, atol=1e-10)
    # g_y is the gradient of ||y - target||^2 at the current parameters
    target = y - g_y

    def loss():
        out, _ = layer.forward(x, channel, NOISELESS)
        return float(np.sum(np.abs(out - target) ** 2))

    assert set(res.grads) == set(layer.params)
    for name, arr in layer.params.items():
        want = oracles.fd_gradient(loss, arr)
        np.testing.assert_allclose(res.grads[name], want, atol=3e-5,
                                   err_msg=f"{layer.design} parameter {name}")


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
@pytest.mark.parametrize("n_in, n_out, k", [(6, 6, 1), (6, 3, 1), (3, 6, 2), (3, 3, 3)])
def test_explicit_use_count_realizes_the_truncated_map(design, n_in, n_out, k):
    # K*r below the chunked width: transmitter designs output zeros past K*r,
    # receiver designs ignore inputs past K*r.  K*r past it (3, 3, 3): the
    # last use carries an all-zero block, forward for receiver designs and
    # backward for transmitter ones, and is sent with a = 1.
    rng = make_rng(92, n_in, n_out, k)
    channel = sample_channel(4, 4, 5, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FeasibilityWarning)
        layer = OacLayer(design, n_in, n_out, 4, 4, 2, rng, k=k)
    assert layer.k_total == k
    # every design names its parameters P, C, W0, b; a combined bulk is one
    # stacked (K, ., .) parameter
    assert not any(name.startswith(("P_", "C_")) for name in layer.params)
    shapes = {name: arr.shape for name, arr in layer.params.items()}
    if design.form == "combined" and design.side == "transmitter":
        assert shapes["P"] == (k, 4, n_in) and shapes["C"] == (4, 2)
    elif design.form == "combined":
        assert shapes["C"] == (k, 4, n_out) and shapes["P"] == (4, 2)
    else:
        assert shapes["P"] == shapes["C"] == (4, 2)
    _check_noiseless_against_oracles(layer, channel, crandn(rng, (n_in, 5)), rng)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
@pytest.mark.parametrize("n_in, n_out, n_tx, n_rx, r, n_paths, batch, scale", [
    (5, 3, 4, 3, 2, 5, 4, 0.0),
    (5, 3, 4, 3, 2, 5, 1, 1.0),
    (5, 3, 4, 3, 1, 5, 4, 1.0),
    (3, 2, 5, 4, 4, 5, 4, 1.0),
    (5, 4, 4, 5, 3, 2, 4, 1.0),
], ids=["zero_input", "batch_1", "r_1", "r_covers_the_layer", "rank_deficient_channel"])
def test_edge_shapes_match_the_oracles(design, n_in, n_out, n_tx, n_rx, r, n_paths,
                                       batch, scale):
    # An all-zero batch sends every use's forward block with a = 1.  r >= n_in,
    # n_out: one use, its chunk zero-padded past the layer.  n_paths < r: the
    # channel cannot carry every stream, so W_eff is rank deficient, but
    # forward and backward still realize it exactly.
    rng = make_rng(93, r, batch)
    channel = sample_channel(n_tx, n_rx, n_paths, rng)
    assert matrix_rank(channel.matrix) == min(n_paths, n_tx, n_rx)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FeasibilityWarning)
        layer = OacLayer(design, n_in, n_out, n_tx, n_rx, r, rng)
    x = scale * crandn(rng, (n_in, batch))
    _check_noiseless_against_oracles(layer, channel, x, rng)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_valid_conv_layer_matches_the_oracles(design):
    # 'valid' padding with an even kernel: 4x4 maps shrink to 3x3 before the
    # channel mixes them; the mixer has K = 2 uses of r = 2 over 3 channels.
    rng = make_rng(95, ALL_DESIGNS.index(design))
    channel = sample_channel(4, 4, 4, rng)
    layer = OacConvLayer(2, 3, 2, design, 4, 4, 2, rng, padding="valid")
    x = crandn(rng, (2, 2, 4, 4))
    y, cache = layer.forward(x, channel, NOISELESS)
    assert y.shape == (2, 3, 3, 3)
    z, _ = layer.conv.forward(x)
    w = oracles.composed_weight(design.side, design.form, layer.mix.params,
                                channel.matrix, 3, 3, 2, layer.mix.k_total)
    want = oracles.mix_channels(w, z) + layer.mix.params["b"].reshape(1, 3, 1, 1)
    np.testing.assert_allclose(y, want, atol=1e-10)
    t = y - crandn(rng, y.shape)

    def loss():
        out, _ = layer.forward(x, channel, NOISELESS)
        return float(np.sum(np.abs(out - t) ** 2))

    res = layer.backward(cache, y - t, channel, NOISELESS)
    assert set(res.grads) == set(layer.parameters())
    for name, arr in layer.parameters().items():
        np.testing.assert_allclose(res.grads[name], oracles.fd_gradient(loss, arr),
                                   atol=5e-5, err_msg=f"{design} parameter {name}")
    np.testing.assert_allclose(res.g_x, oracles.fd_gradient(loss, x), atol=5e-5)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_backward_parameter_gradients_match_finite_differences(design):
    n_in, n_out, n_tx, n_rx, r = 4, 5, 4, 4, 2
    rng = make_rng(75)
    channel = sample_channel(n_tx, n_rx, 4, rng)
    layer = OacLayer(design, n_in, n_out, n_tx, n_rx, r, rng)
    x = crandn(rng, (n_in, 3))
    t = crandn(rng, (n_out, 3))

    def loss():
        y, _ = layer.forward(x, channel, NOISELESS)
        return float(np.sum(np.abs(y - t) ** 2))

    y, transcript = layer.forward(x, channel, NOISELESS)
    res = layer.backward(transcript, y - t, channel, NOISELESS)
    for name, arr in layer.params.items():
        want = oracles.fd_gradient(loss, arr)
        np.testing.assert_allclose(res.grads[name], want, atol=3e-5,
                                   err_msg=f"{design} parameter {name}")
    want_x = oracles.fd_gradient(loss, x)
    np.testing.assert_allclose(res.g_x, want_x, atol=3e-5)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_backward_streams_carry_the_combined_upstream_gradient(design):
    n_in, n_out, n_tx, n_rx, r = 6, 4, 5, 4, 2
    rng = make_rng(76, hash(str(design)) % 1000)
    channel = sample_channel(n_tx, n_rx, 5, rng)
    layer = OacLayer(design, n_in, n_out, n_tx, n_rx, r, rng)
    x = crandn(rng, (n_in, 4))
    _, transcript = layer.forward(x, channel, NOISELESS)
    g_y = crandn(rng, (n_out, 4))
    res = layer.backward(transcript, g_y, channel, NOISELESS)
    h = channel.matrix
    for k in range(layer.k_total):
        c_k = oracles.full_combiner(design.side, design.form, layer.params,
                                    n_out, r, layer.k_total, k)
        want = h.conj().T @ c_k @ g_y
        np.testing.assert_allclose(res.stream_grads[k], want, atol=1e-10,
                                   err_msg=f"use {k}")


def test_transcript_records_the_pipeline():
    design = OacDesign("receiver", "separated")
    rng = make_rng(77)
    channel = sample_channel(4, 4, 4, rng)
    layer = OacLayer(design, 6, 6, 4, 4, 3, rng)
    x = crandn(rng, (6, 2))
    _, transcript = layer.forward(x, channel, NOISELESS)
    k = layer.k_total
    assert transcript.a.shape == (k,)
    assert transcript.received.shape == (k, 4, 2)
    # every use went out at unit average power and arrived through H; the
    # record keeps no sent blocks, so rebuild them from the input and scales
    sent = layer._tx(x)[1] / transcript.a[:, None, None]
    power = np.mean(np.sum(np.abs(sent) ** 2, axis=1), axis=1)
    np.testing.assert_allclose(power, np.ones(k), atol=1e-12)
    np.testing.assert_allclose(transcript.received, channel.matrix @ sent, atol=1e-12)
    res = layer.backward(transcript, crandn(rng, (6, 2)), channel, NOISELESS)
    assert res.a_tilde.shape == (k,)
    assert res.received.shape == res.stream_grads.shape == (k, 4, 2)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_forward_record_holds_little_more_than_the_received_stack(design):
    # Backward reads the scales, the (K, n, B) received stack and the two
    # ends' local inputs x and u, plus z where a receiver W0 takes its
    # gradient from it; each is (., B) with r rows per use, an eighth of the
    # stack here.  Keeping the sent stack too measured 2.25
    # (transmitter/combined) and 2.38 (receiver/separated) received stacks;
    # keeping receiver/combined's (K, n, B) combiner outputs measured 2.25.
    n, batch, r = 64, 64, 8
    rng = make_rng(79)
    channel = sample_channel(n, n, 8, rng)
    layer = OacLayer(design, n, n, n, n, r, rng)
    x = crandn(rng, (n, batch))
    noise, noise_rng = NoiseModel(snr_db=10.0), make_rng(80)
    layer.forward(x, channel, noise, noise_rng)
    tracemalloc.start()
    try:
        transcript = layer.forward(x, channel, noise, noise_rng)[1]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / transcript.received.nbytes < 1.75


def test_noisy_transmission_requires_rng():
    rng = make_rng(78)
    channel = sample_channel(4, 4, 3, rng)
    layer = OacLayer(OacDesign("receiver", "separated"), 4, 4, 4, 4, 2, rng)
    x = crandn(rng, (4, 2))
    noise = NoiseModel(snr_db=10.0)
    with pytest.raises(ValueError):
        layer.forward(x, channel, noise)
    y_a, _ = layer.forward(x, channel, noise, make_rng(79))
    y_b, _ = layer.forward(x, channel, noise, make_rng(79))
    np.testing.assert_array_equal(y_a, y_b)
    y_c, _ = layer.forward(x, channel, noise, make_rng(80))
    assert not np.allclose(y_a, y_c)


def test_decompose_weight_reconstructs_any_feasible_target():
    rng = make_rng(81)
    channel = sample_channel(6, 6, 8, rng)
    for n_in, n_out, k, r in ((5, 3, 2, 2), (3, 5, 2, 2), (4, 4, 1, 4), (6, 6, 3, 2)):
        w = crandn(rng, (n_out, n_in))
        p_list, c_list = decompose_weight(w, channel, k, r)
        assert len(p_list) == k and len(c_list) == k
        recon = sum(c_list[i].conj().T @ channel.matrix @ p_list[i]
                    for i in range(k))
        err = np.linalg.norm(recon - w) / np.linalg.norm(w)
        assert err <= 1e-8


def test_decompose_weight_raises_below_the_stream_budget():
    rng = make_rng(82)
    channel = sample_channel(6, 6, 8, rng)
    with pytest.raises(FeasibilityError):
        decompose_weight(crandn(rng, (5, 5)), channel, 2, 2)   # 4 < 5


def test_decompose_weight_needs_channel_rank():
    rng = make_rng(83)
    channel = sample_channel(6, 6, 1, rng)                      # rank 1
    with pytest.raises(ChannelRankError):
        decompose_weight(crandn(rng, (4, 4)), channel, 2, 2)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_layer_from_weight_installs_the_exact_map(design):
    rng = make_rng(84)
    channel = sample_channel(5, 6, 6, rng)
    for n_in, n_out, r in ((6, 4, 2), (4, 6, 3), (5, 5, 5)):
        w = crandn(rng, (n_out, n_in))
        layer = layer_from_weight(w, channel, design, r, make_rng(85))
        np.testing.assert_allclose(equivalent_weight(layer, channel), w,
                                   atol=1e-8)
        np.testing.assert_allclose(_composed(layer, channel), w, atol=1e-8)


def test_ideal_matrices_diagonalize_the_channel():
    rng = make_rng(86)
    channel = sample_channel(5, 4, 6, rng)
    r = 3
    p, c = ideal_matrices(channel, r)
    _, s, _ = svd(channel.matrix)
    response = c.conj().T @ channel.matrix @ p
    np.testing.assert_allclose(response, np.diag(s[:r]), atol=1e-10)
    with pytest.raises(ValueError):
        ideal_matrices(channel, 5)


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_snr_report_shapes_and_noiseless_limit(design):
    rng = make_rng(87)
    channel = sample_channel(4, 4, 4, rng)
    layer = OacLayer(design, 4, 4, 4, 4, 2, rng)
    x = crandn(rng, (4, 6))
    g_y = crandn(rng, (4, 6))
    rep = snr_report(layer, channel, x, g_y, p_n=0.1)
    assert len(rep.forward) == layer.k_total
    assert len(rep.backward) == layer.k_total
    assert all(np.all(np.isfinite(f)) for f in rep.forward)
    assert rep.a.shape == (layer.k_total,)
    rep0 = snr_report(layer, channel, x, g_y, p_n=0.0)
    assert np.all(rep0.forward == np.inf) and np.all(rep0.backward == np.inf)
    if design == OacDesign("receiver", "separated"):
        # the hand-derived report these were recorded from divided by the
        # unscaled gradient's scale, so its figures sat 10 log10 a_k dB higher
        np.testing.assert_allclose(
            rep.backward, [[5.863742048963161, 21.356054412725314],
                           [12.861805627960926, 25.294356212097632]], rtol=1e-12)
    # the report's a_tilde is the scale backward sends
    _, transcript = layer.forward(x, channel, NOISELESS)
    res = layer.backward(transcript, g_y, channel, NOISELESS)
    np.testing.assert_array_equal(rep.a_tilde, res.a_tilde)


def test_conv_layer_runs_the_mixer_over_every_pixel():
    rng = make_rng(88)
    channel = sample_channel(4, 4, 4, rng)
    layer = OacConvLayer(2, 3, 3, OacDesign("receiver", "separated"),
                         4, 4, 3, rng)
    x = crandn(rng, (2, 2, 5, 5))
    y, cache = layer.forward(x, channel, NOISELESS)
    assert y.shape == (2, 3, 5, 5)
    z, _ = layer.conv.forward(x)
    w = oracles.composed_weight("receiver", "separated", layer.mix.params,
                                channel.matrix, 3, 3, 3, layer.mix.k_total)
    want = oracles.mix_channels(w, z) + layer.mix.params["b"].reshape(1, 3, 1, 1)
    np.testing.assert_allclose(y, want, atol=1e-10)


def test_conv_layer_gradients_match_finite_differences():
    rng = make_rng(89)
    channel = sample_channel(4, 4, 4, rng)
    layer = OacConvLayer(2, 2, 3, OacDesign("transmitter", "separated"),
                         4, 4, 2, rng)
    x = crandn(rng, (1, 2, 4, 4))
    t = crandn(rng, (1, 2, 4, 4))

    def loss():
        y, _ = layer.forward(x, channel, NOISELESS)
        return float(np.sum(np.abs(y - t) ** 2))

    y, cache = layer.forward(x, channel, NOISELESS)
    res = layer.backward(cache, y - t, channel, NOISELESS)
    for name, arr in layer.parameters().items():
        want = oracles.fd_gradient(loss, arr)
        np.testing.assert_allclose(res.grads[name], want, atol=5e-5,
                                   err_msg=f"parameter {name}")


def test_kernel_mixing_equals_output_mixing():
    rng = make_rng(90)
    from airsplit.nn import Conv2d
    conv = Conv2d(3, 4, 3, rng, bias=False, padding="same")
    w = crandn(rng, (4, 4))
    x = crandn(rng, (2, 3, 6, 6))
    after, _ = conv.forward(x)
    mixed_after = oracles.mix_channels(w, after)
    conv.kernels = oracles.mix_kernels(w, conv.kernels)
    mixed_kernels, _ = conv.forward(x)
    np.testing.assert_allclose(mixed_after, mixed_kernels, atol=1e-12)


def test_frozen_parameters_get_no_gradient():
    rng = make_rng(91)
    channel = sample_channel(4, 4, 5, rng)
    layer = OacLayer(OacDesign("receiver", "separated"), 4, 4, 4, 4, 2, rng)
    layer.freeze("P", "C")
    _, transcript = layer.forward(crandn(rng, (4, 3)), channel, NOISELESS)
    res = layer.backward(transcript, crandn(rng, (4, 3)), channel, NOISELESS)
    assert set(res.grads) == {"W0", "b"}
    assert set(layer.parameters()) == {"P", "C", "W0", "b"}
    with pytest.raises(KeyError):
        layer.freeze("missing")


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_empty_batch_is_rejected_by_name(design):
    rng = make_rng(92)
    channel = sample_channel(4, 4, 5, rng)
    layer = OacLayer(design, 4, 4, 4, 4, 2, rng)
    with pytest.raises(ValueError, match="batch"):
        layer.forward(np.zeros((4, 0), dtype=np.complex128), channel, NOISELESS)
