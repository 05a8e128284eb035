import numpy as np
import pytest

import _oracles as oracles
from airsplit.linalg import crandn, make_rng
from airsplit.nn import (
    Adam, AvgPool2d, ComplexBatchNorm, ComplexNet, Conv2d, CRelu, Dense, Flatten,
    Sgd, modulus_softmax_loss, numerical_gradient,
)


def _layer_fd_check(layer, x, seed, tol=2e-5, train=True):
    """Every gradient a layer reports must match central differences on the
    scalar L = sum |y - t|^2, whose upstream gradient is y - t."""
    y0, _ = layer.forward(x, train=train)
    t = crandn(make_rng(seed, 99), y0.shape)

    def loss():
        y, _ = layer.forward(x, train=train)
        return float(np.sum(np.abs(y - t) ** 2))

    y, cache = layer.forward(x, train=train)
    g_x, grads = layer.backward(cache, y - t)
    for name, arr in layer.parameters().items():
        want = oracles.fd_gradient(loss, arr)
        np.testing.assert_allclose(grads[name], want, atol=tol,
                                   err_msg=f"parameter {name}")
    want_x = oracles.fd_gradient(loss, x)
    np.testing.assert_allclose(g_x, want_x, atol=tol, err_msg="input")


def test_dense_forward_is_affine():
    rng = make_rng(30)
    layer = Dense(4, 3, rng)
    x = crandn(rng, (4, 6))
    y, _ = layer.forward(x)
    np.testing.assert_allclose(y, layer.w @ x + layer.b[:, None], atol=1e-14)


def test_dense_gradients_match_finite_differences():
    rng = make_rng(31)
    layer = Dense(4, 3, rng)
    _layer_fd_check(layer, crandn(rng, (4, 5)), seed=31)


def test_dense_without_bias():
    layer = Dense(3, 2, make_rng(32), bias=False)
    assert "b" not in layer.parameters()
    _layer_fd_check(layer, crandn(make_rng(33), (3, 4)), seed=33)


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv_gradients_match_finite_differences(padding):
    rng = make_rng(34)
    layer = Conv2d(2, 3, 3, rng, padding=padding)
    _layer_fd_check(layer, crandn(rng, (2, 2, 5, 5)), seed=34)


def test_conv_matches_direct_convolution():
    rng = make_rng(35)
    layer = Conv2d(2, 3, 3, rng, bias=False, padding="valid")
    x = crandn(rng, (1, 2, 6, 6))
    y, _ = layer.forward(x)
    # direct sliding-window sum, one output pixel at a time
    want = np.zeros_like(y)
    for o in range(3):
        for i in range(4):
            for j in range(4):
                patch = x[0, :, i:i + 3, j:j + 3]
                want[0, o, i, j] = np.sum(layer.kernels[o] * patch)
    np.testing.assert_allclose(y, want, atol=1e-12)


def test_conv_same_padding_preserves_size():
    layer = Conv2d(1, 1, 3, make_rng(36), padding="same")
    y, _ = layer.forward(crandn(make_rng(37), (2, 1, 5, 7)))
    assert y.shape == (2, 1, 5, 7)
    with pytest.raises(ValueError):
        Conv2d(1, 1, 2, make_rng(38), padding="same")


def test_batchnorm_normalizes_each_part_in_train_mode():
    bn = ComplexBatchNorm(5)
    x = 3.0 + crandn(make_rng(39), (5, 400), var=4.0)
    y, _ = bn.forward(x, train=True)
    assert np.all(np.abs(y.real.mean(axis=1)) < 1e-10)
    assert np.all(np.abs(y.imag.mean(axis=1)) < 1e-10)
    np.testing.assert_allclose(y.real.var(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(y.imag.var(axis=1), 1.0, atol=1e-6)


def test_batchnorm_eval_uses_running_statistics():
    bn = ComplexBatchNorm(3)
    rng = make_rng(40)
    x = 2.0 - 1j + crandn(rng, (3, 200), var=2.0)
    bn.forward(x, train=True)
    mean_before = bn.running_mean.copy()
    y_eval, _ = bn.forward(x, train=False)
    np.testing.assert_array_equal(bn.running_mean, mean_before)
    # eval output is an affine map of x, not exactly normalized
    assert np.abs(y_eval.real.mean()) > 1e-6


def test_batchnorm_eval_backward_divides_each_part_by_its_running_scale():
    # Eval mode: g_x is gamma^* g with each part divided by that part's
    # sqrt(running var + EPS), a true division as in train mode, not a
    # multiplication by the reciprocal.
    rng = make_rng(93)
    bn = ComplexBatchNorm(4)
    bn.gamma[...] = crandn(rng, 4) + 1.0
    bn.forward(1.0 + 2.0j + crandn(rng, (4, 50), var=3.0), train=True)
    _, cache = bn.forward(crandn(rng, (4, 30)), train=False)
    g = crandn(rng, (4, 30))
    g_x, _ = bn.backward(cache, g)
    h = bn.gamma.conj().reshape(4, 1) * g
    s_re = np.sqrt(bn.running_var_re + bn.EPS).reshape(4, 1)
    s_im = np.sqrt(bn.running_var_im + bn.EPS).reshape(4, 1)
    assert g_x.real.tobytes() == (h.real / s_re).tobytes()
    assert g_x.imag.tobytes() == (h.imag / s_im).tobytes()


def test_batchnorm_gradients_match_finite_differences():
    bn = ComplexBatchNorm(4)
    x = crandn(make_rng(41), (4, 12))
    _layer_fd_check(bn, x, seed=41, train=True)
    bn2 = ComplexBatchNorm(4)
    bn2.forward(crandn(make_rng(42), (4, 50)), train=True)
    _layer_fd_check(bn2, crandn(make_rng(43), (4, 7)), seed=43, train=False)


def test_batchnorm_gradients_on_image_input():
    bn = ComplexBatchNorm(3)
    _layer_fd_check(bn, crandn(make_rng(44), (2, 3, 4, 4)), seed=44, train=True)


def test_crelu_masks_parts_independently():
    x = np.array([[1.0 - 2.0j, -1.0 + 2.0j, -0.5 - 0.5j]])
    y, cache = CRelu().forward(x)
    np.testing.assert_array_equal(y, np.array([[1.0, 2.0j, 0.0]]))
    g_x, _ = CRelu().backward(cache, np.full_like(x, 1.0 + 1.0j))
    np.testing.assert_array_equal(g_x, np.array([[1.0, 1.0j, 0.0]]))


def _with_planted_zeros(rng, shape):
    """Complex normals off the origin, with exact +0.0 and -0.0 planted in
    both parts of about one entry in six."""
    z = 0.7 - 0.4j + crandn(rng, shape, var=3.0)
    flat = z.reshape(-1)
    picks = rng.choice(flat.size, size=max(4, flat.size // 6), replace=False)
    flat.real[picks[0::4]] = 0.0
    flat.real[picks[1::4]] = -0.0
    flat.imag[picks[2::4]] = 0.0
    flat.imag[picks[3::4]] = -0.0
    return z


@pytest.mark.parametrize("shape", [(16, 64), (64, 64), (2, 3, 4, 4)], ids=str)
def test_batchnorm_is_byte_equal_to_the_partwise_form(shape):
    # The float-view passes against the part-wise formulas in _oracles, over
    # a train pass, an eval pass on the running statistics it left and a
    # second train pass, with zeros planted in x and in the upstream g.
    rng = make_rng(90)
    n = shape[0] if len(shape) == 2 else shape[1]
    bn, ref = ComplexBatchNorm(n), oracles.PartwiseBatchNorm(n)
    for layer in (bn, ref):
        layer.gamma[...] = crandn(make_rng(91), n) + 1.0
        layer.beta[...] = crandn(make_rng(92), n)
    for train in (True, False, True):
        x, g = _with_planted_zeros(rng, shape), _with_planted_zeros(rng, shape)
        y, cache = bn.forward(x, train=train)
        y_ref, cache_ref = ref.forward(x, train=train)
        g_x, grads = bn.backward(cache, g)
        g_x_ref, g_gamma_ref, g_beta_ref = ref.backward(cache_ref, g)
        for got, want in [(y, y_ref), (g_x, g_x_ref), (grads["gamma"], g_gamma_ref),
                          (grads["beta"], g_beta_ref), (bn.running_mean, ref.running_mean),
                          (bn.running_var_re, ref.running_var_re),
                          (bn.running_var_im, ref.running_var_im)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), train


@pytest.mark.parametrize("shape", [(16, 64), (2, 3, 4, 4)], ids=str)
def test_crelu_matches_the_partwise_form_and_keeps_the_sign_of_each_part(shape):
    # Values equal the part-wise re * (re > 0) + 1j * (im * (im > 0)); each
    # part zeroed is that part times 0.0, so -0.0 exactly where it is negative
    # or -0.0, where the part-wise recombination can write +0.0.
    rng = make_rng(93)
    x, g = _with_planted_zeros(rng, shape), _with_planted_zeros(rng, shape)
    layer = CRelu()
    y, cache = layer.forward(x)
    g_x, _ = layer.backward(cache, g)
    np.testing.assert_array_equal(y, oracles.partwise_crelu(x))
    np.testing.assert_array_equal(g_x, g.real * (x.real > 0) + 1j * (g.imag * (x.imag > 0)))
    for got, kept, by in [(y.real, x.real, x.real), (y.imag, x.imag, x.imag),
                          (g_x.real, g.real, x.real), (g_x.imag, g.imag, x.imag)]:
        zeroed = ~(by > 0)
        assert np.all(got[zeroed] == 0.0)
        np.testing.assert_array_equal(np.signbit(got[zeroed]), np.signbit(kept[zeroed]))
        assert got[~zeroed].tobytes() == kept[~zeroed].tobytes()


def test_avgpool_global():
    x = crandn(make_rng(45), (2, 3, 4, 4))
    y, _ = AvgPool2d().forward(x)
    np.testing.assert_allclose(y[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-14)
    _layer_fd_check(AvgPool2d(), x, seed=45)


def test_flatten_round_trip():
    x = crandn(make_rng(47), (2, 3, 2, 2))
    y, cache = Flatten().forward(x)
    assert y.shape == (12, 2)
    g_x, _ = Flatten().backward(cache, y)
    np.testing.assert_array_equal(g_x, x)


def test_net_chains_layers_and_names_parameters():
    rng = make_rng(48)
    net = ComplexNet([Dense(4, 5, rng), CRelu(), Dense(5, 3, rng)])
    names = set(net.parameters())
    assert names == {"0.w", "0.b", "2.w", "2.b"}
    x = crandn(rng, (4, 6))
    y, caches = net.forward(x)
    assert y.shape == (3, 6)
    g_x, grads = net.backward(caches, np.ones_like(y))
    assert set(grads) == names and g_x.shape == x.shape


def test_net_gradients_match_finite_differences():
    rng = make_rng(49)
    net = ComplexNet([Dense(3, 6, rng), ComplexBatchNorm(6), CRelu(),
                      Dense(6, 4, rng)])
    x = crandn(rng, (3, 8))
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])

    def loss():
        y, _ = net.forward(x, train=True)
        return modulus_softmax_loss(y, labels)[0]

    y, caches = net.forward(x, train=True)
    _, g, _ = modulus_softmax_loss(y, labels)
    _, grads = net.backward(caches, g)
    for name, arr in net.parameters().items():
        want = oracles.fd_gradient(loss, arr)
        np.testing.assert_allclose(grads[name], want, atol=5e-6,
                                   err_msg=f"parameter {name}")


def test_modulus_softmax_loss_values_and_gradient():
    logits = np.array([[2.0, 0.1j], [0.5j, 1.5]], dtype=np.complex128)
    labels = np.array([0, 1])
    loss, g, acc = modulus_softmax_loss(logits, labels)
    assert acc == 1.0
    # direct recomputation from the definition
    s = np.abs(logits) ** 2
    p = np.exp(s) / np.exp(s).sum(axis=0, keepdims=True)
    want_loss = float(-np.mean(np.log(p[labels, np.arange(2)])))
    assert abs(loss - want_loss) < 1e-12

    def f():
        return modulus_softmax_loss(logits, labels)[0]

    np.testing.assert_allclose(g, oracles.fd_gradient(f, logits), atol=1e-8)


@pytest.mark.parametrize("labels", [
    np.array([2]),                  # one label for a batch of 4
    np.array([0, 1, 2, 3, 4]),      # one label too many
    np.array([[0, 1, 2, 3]]),       # (1, batch)
    np.array([0, 1, -1, 3]),        # -1 would index the last class
    np.array([0, 1, 6, 3]),         # past the last class
    np.array([0.0, 1.0, 2.0, 3.0]),
], ids=["length1", "length5", "2d", "negative", "past_classes", "float"])
def test_modulus_softmax_loss_rejects_labels_it_cannot_score(labels):
    logits = crandn(make_rng(49), (6, 4))
    with pytest.raises(ValueError, match=r"^labels must be 4 integers in \[0, 6\)"):
        modulus_softmax_loss(logits, labels)


def test_sgd_step_is_plain_descent():
    params = {"w": np.array([1.0 + 1.0j, 2.0])}
    Sgd(0.1).step(params, {"w": np.array([1.0j, 1.0])})
    np.testing.assert_allclose(params["w"], [1.0 + 0.9j, 1.9])


def test_adam_drives_a_quadratic_down():
    rng = make_rng(50)
    target = crandn(rng, (6,))
    params = {"z": np.zeros(6, dtype=np.complex128)}
    opt = Adam(lr=0.05)
    for _ in range(400):
        opt.step(params, {"z": params["z"] - target})
    np.testing.assert_allclose(params["z"], target, atol=1e-3)


class _PerTensorAdam:
    """Adam one tensor at a time: the reference for the fused step."""

    def __init__(self, lr):
        self.lr, self.t, self.m, self.vr, self.vi = lr, 0, {}, {}, {}

    def step(self, params, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for name, g in grads.items():
            m = self.m[name] = b1 * self.m.get(name, 0.0) + (1 - b1) * g
            vr = self.vr[name] = b2 * self.vr.get(name, 0.0) + (1 - b2) * g.real ** 2
            vi = self.vi[name] = b2 * self.vi.get(name, 0.0) + (1 - b2) * g.imag ** 2
            mh = m / c1
            upd = mh.real / (np.sqrt(vr / c2) + eps) \
                + 1j * (mh.imag / (np.sqrt(vi / c2) + eps))
            params[name] -= self.lr * upd


def test_fused_adam_is_byte_equal_to_per_tensor_adam():
    # 300 steps; from step 100 to 199 the tensor "b" is frozen (a layout
    # change, as in the ideal baseline).
    shapes = {"w": (4, 3), "b": (4,), "k": (2, 2, 3, 3), "s": ()}
    rng = make_rng(70)
    params = {name: np.array(crandn(rng, shape)) for name, shape in shapes.items()}
    ref = {name: arr.copy() for name, arr in params.items()}
    opt, ref_opt = Adam(lr=0.01), _PerTensorAdam(lr=0.01)
    for step in range(300):
        grads = {name: crandn(make_rng(71, step), shape)
                 for name, shape in shapes.items()
                 if not (name == "b" and 100 <= step < 200)}
        opt.step(params, grads)
        ref_opt.step(ref, grads)
    for name in shapes:
        assert params[name].tobytes() == ref[name].tobytes(), name
        assert opt.m[name].tobytes() == np.asarray(ref_opt.m[name]).tobytes(), name


def test_numerical_gradient_agrees_with_oracle():
    params = {"z": crandn(make_rng(53), (2, 2))}

    def loss_fn():
        return float(np.sum(np.abs(params["z"] - (1.0 - 2.0j)) ** 2))

    got = numerical_gradient(loss_fn, params)
    want = oracles.fd_gradient(loss_fn, params["z"])
    np.testing.assert_allclose(got["z"], want, atol=1e-9)
