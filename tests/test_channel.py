import json
import math

import numpy as np
import pytest

import _oracles as oracles
from airsplit.channel import (
    NOISELESS, ChannelState, NoiseModel, PathSet, channel_from_dict,
    channel_snr, channel_to_dict, evolve_channel, sample_channel,
    save_channel, transmit_backward, transmit_forward, wrap_angle,
)
from airsplit.linalg import crandn, make_rng, matrix_rank


def test_wrap_angle_lands_in_half_open_interval():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 10.0, -10.0])
    w = wrap_angle(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def test_channel_matrix_matches_entrywise_sum():
    for trial in range(8):
        rng = make_rng(10, trial)
        n_paths = int(rng.integers(1, 6))
        state = sample_channel(5, 4, n_paths, rng)
        want = oracles.channel_matrix(
            4, 5, state.paths.arrivals, state.paths.departures, state.paths.gains)
        np.testing.assert_allclose(state.matrix, want, atol=1e-10)


def test_channel_state_keeps_the_path_factors_of_its_matrix():
    state = sample_channel(12, 10, 2, make_rng(10, 9))
    for s in (state, evolve_channel(state, 0.3, make_rng(10, 10)),
              channel_from_dict(channel_to_dict(state))):
        left, right = s.factors
        assert left.shape == (10, 2) and right.shape == (12, 2)
        assert (left @ right.T).tobytes() == s.matrix.tobytes()
        np.testing.assert_allclose(s.matrix, oracles.channel_matrix(
            10, 12, s.paths.arrivals, s.paths.departures, s.paths.gains), atol=1e-10)
        np.testing.assert_allclose(left[0], s.paths.gains, rtol=1e-15)
        np.testing.assert_array_equal(right[0], 1.0)


@pytest.mark.parametrize("n_tx, n_rx, n_paths, kept", [
    (64, 64, 8, True), (12, 10, 2, True), (64, 64, 16, False), (16, 16, 4, False),
    (16, 16, 20, False), (5, 4, 3, False),
])
def test_only_a_channel_with_few_paths_keeps_its_factors(n_tx, n_rx, n_paths, kept):
    # the factors are kept when their two products take under half the
    # multiply-adds of the dense one: 2 P (n_tx + n_rx) < n_tx n_rx
    state = sample_channel(n_tx, n_rx, n_paths, make_rng(10, n_tx, n_paths))
    assert (state.factors is not None) == kept


def test_rank_is_limited_by_path_count():
    for n_paths in (1, 2, 3):
        state = sample_channel(8, 8, n_paths, make_rng(11, n_paths))
        assert matrix_rank(state.matrix) <= n_paths


def test_sample_channel_is_reproducible():
    a = sample_channel(4, 6, 3, make_rng(12))
    b = sample_channel(4, 6, 3, make_rng(12))
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert a.spectral == b.spectral


def test_path_set_validation():
    with pytest.raises(ValueError):
        PathSet(gains=np.ones(2), departures=np.zeros(3), arrivals=np.zeros(2))
    with pytest.raises(ValueError):
        PathSet(gains=np.ones(0), departures=np.zeros(0), arrivals=np.zeros(0))


def test_forward_transmission_is_plain_matmul_without_noise():
    state = sample_channel(4, 6, 3, make_rng(13))
    x = crandn(make_rng(14), (4, 5))
    y = transmit_forward(state, x, NOISELESS)
    np.testing.assert_allclose(y, state.matrix @ x, atol=1e-14)


def test_backward_transmission_uses_the_transpose():
    # same paths walked in reverse: the transpose, never the conjugate
    state = sample_channel(4, 6, 3, make_rng(15))
    g = crandn(make_rng(16), (6, 2))
    y = transmit_backward(state, g, NOISELESS)
    np.testing.assert_allclose(y, state.matrix.T @ g, atol=1e-14)
    assert not np.allclose(y, state.matrix.conj().T @ g)


def test_transmission_shape_checks():
    state = sample_channel(4, 6, 2, make_rng(17))
    with pytest.raises(ValueError):
        transmit_forward(state, np.zeros((6, 1), dtype=complex), NOISELESS)
    with pytest.raises(ValueError):
        transmit_backward(state, np.zeros((4, 1), dtype=complex), NOISELESS)
    # a (K, n, B) stack is checked on its n the same way
    with pytest.raises(ValueError):
        transmit_forward(state, np.zeros((3, 6, 1), dtype=complex), NOISELESS)
    with pytest.raises(ValueError):
        transmit_backward(state, np.zeros((3, 4, 1), dtype=complex), NOISELESS)
    with pytest.raises(ValueError):
        transmit_forward(state, np.zeros((2, 3, 4, 1), dtype=complex), NOISELESS)


# (K, n_tx, n_rx, B), all with 3 paths; in the (2, 64, 64, 1100) case each
# (n, B) noise block outgrows crandn's scratch, the last two arrays are not
# square, and the 16 and 64 antenna arrays keep their path factors
@pytest.mark.parametrize("k, n_tx, n_rx, b", [
    (1, 1, 1, 1), (3, 5, 5, 7), (4, 16, 16, 64), (8, 64, 64, 64), (2, 64, 64, 1100),
    (3, 5, 7, 4), (2, 12, 8, 9),
])
def test_a_stacked_transmission_equals_one_call_per_use(k, n_tx, n_rx, b):
    state = sample_channel(n_tx, n_rx, 3, make_rng(20, n_tx))
    noise = NoiseModel(snr_db=5.0)
    sigma2 = noise.sigma2_per_antenna(state)
    if state.factors is None:
        products = ((state.matrix,), (state.matrix.T,))
    else:
        left, right = state.factors
        products = ((right.T, left), (left.T, right))
    for send, ops, h in ((transmit_forward, products[0], state.matrix),
                         (transmit_backward, products[1], state.matrix.T)):
        n_out, n_in = h.shape
        x = crandn(make_rng(21, k, n_in, b), (k, n_in, b))
        rngs = [make_rng(22) for _ in range(4)]
        stacked = send(state, x, noise, rngs[0])
        per_use = np.stack([send(state, x[i], noise, rngs[1]) for i in range(k)])
        # the replay contract: the path factors applied to x_k in turn, or
        # the matrix when the state keeps none, plus one crandn draw per
        # use, in use order
        noise_draws = np.stack([crandn(rngs[2], (n_out, b), var=sigma2) for _ in range(k)])
        received = []
        for i in range(k):
            y = x[i]
            for op in ops:
                y = op @ y
            received.append(y)
        by_hand = np.stack(received) + noise_draws
        hx = h @ x
        assert np.linalg.norm(stacked - noise_draws - hx) <= 1e-12 * np.linalg.norm(hx)
        # into out: x itself on a square array, a given array otherwise
        if n_in == n_out:
            out = x.copy()
            into = send(state, out, noise, rngs[3], out=out)
        else:
            with pytest.raises(ValueError, match="out must be"):
                send(state, x, noise, rngs[3], out=x)
            out = np.full((k, n_out, b), np.nan, dtype=np.complex128)
            into = send(state, x, noise, rngs[3], out=out)
        assert stacked.shape == (k, n_out, b) and into is out
        assert (stacked.tobytes() == per_use.tobytes() == by_hand.tobytes()
                == into.tobytes())
        assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
                == rngs[2].bit_generator.state == rngs[3].bit_generator.state)


def test_noisy_transmission_requires_rng_and_hits_target_variance():
    state = sample_channel(4, 6, 3, make_rng(18))
    noise = NoiseModel(snr_db=5.0)
    sigma2 = noise.sigma2_per_antenna(state)
    x = np.zeros((4, 4000), dtype=np.complex128)
    with pytest.raises(ValueError):
        transmit_forward(state, x, noise)
    y = transmit_forward(state, x, noise, make_rng(19))
    assert abs(np.mean(np.abs(y) ** 2) - sigma2) < 0.04 * sigma2


def test_noise_model_rejects_nan_and_minus_inf_and_reads_inf_as_noiseless():
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="^snr_db = "):
            NoiseModel(snr_db=snr_db)
    state = sample_channel(4, 6, 3, make_rng(20))
    assert NoiseModel(snr_db=math.inf).sigma2_per_antenna(state) == 0.0
    assert NOISELESS == NoiseModel(snr_db=math.inf)
    # noiseless transmission draws nothing, so it needs no rng
    x = crandn(make_rng(21), (4, 3))
    np.testing.assert_array_equal(transmit_forward(state, x, NOISELESS),
                                  state.matrix @ x)


def test_noise_model_bounds_a_finite_snr_at_300_db():
    # Past the bound the noise formula overflows (3083 dB), divides by zero
    # (-3300 dB) or trains on noise of variance 1e300 (-3000 dB).
    state = sample_channel(4, 6, 3, make_rng(20))
    for snr_db in (300.0, -300.0):
        sigma2 = NoiseModel(snr_db=snr_db).sigma2_per_antenna(state)
        assert 0.0 < sigma2 < math.inf and 1.0 / sigma2 < math.inf
    for snr_db in (300.5, -300.5, 3083.0, -3000.0, -3300.0):
        with pytest.raises(ValueError, match=r"^snr_db = .* must be dB in \[-300, 300\]"):
            NoiseModel(snr_db=snr_db)


def test_snr_specified_noise_round_trips_through_channel_snr():
    state = sample_channel(4, 6, 3, make_rng(20))
    for target in (0.0, 10.0, 35.0):
        noise = NoiseModel(snr_db=target)
        assert abs(channel_snr(state, noise.total_power(state)) - target) < 1e-9
    assert channel_snr(state, 0.0) == float("inf")
    assert noise.total_power(state) == noise.sigma2_per_antenna(state) * state.n_rx


def test_evolution_identity_at_rho_zero():
    state = sample_channel(4, 6, 3, make_rng(21))
    rng = make_rng(22)
    same = evolve_channel(state, 0.0, rng)
    np.testing.assert_array_equal(same.matrix, state.matrix)
    np.testing.assert_array_equal(same.paths.gains, state.paths.gains)


def test_evolution_moves_and_is_reproducible():
    state = sample_channel(4, 6, 3, make_rng(23))
    a = evolve_channel(state, 0.1, make_rng(24))
    b = evolve_channel(state, 0.1, make_rng(24))
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, state.matrix)
    # a small step moves the matrix less than a large one
    c = evolve_channel(state, 1e-4, make_rng(24))
    d_small = np.linalg.norm(c.matrix - state.matrix)
    d_large = np.linalg.norm(a.matrix - state.matrix)
    assert d_small < d_large
    with pytest.raises(ValueError):
        evolve_channel(state, 1.5, make_rng(24))


def test_evolution_at_rho_one_is_a_fresh_draw_from_the_same_stream():
    # Both draw in the same order, and at rho = 1 the old values count 0 times.
    state = sample_channel(4, 6, 3, make_rng(26))
    fresh = evolve_channel(state, 1.0, make_rng(27))
    want = sample_channel(4, 6, 3, make_rng(27))
    for name in ("gains", "departures", "arrivals"):
        assert getattr(fresh.paths, name).tobytes() == getattr(want.paths, name).tobytes(), name
    assert fresh.matrix.tobytes() == want.matrix.tobytes()


def test_evolution_mixes_each_path_parameter_toward_its_own_fresh_draw():
    state = sample_channel(4, 6, 3, make_rng(28))
    rho = 0.3
    moved = evolve_channel(state, rho, make_rng(29))
    rng = make_rng(29)
    arrivals, departures, mags, phases = (rng.uniform(lo, hi, 3) for lo, hi in (
        (-np.pi, np.pi), (-np.pi, np.pi), (0.5, 1.5), (-np.pi, np.pi)))
    old = state.paths
    for name, want in (
            ("gains", (1 - rho) * old.gains + rho * mags * np.exp(1j * phases)),
            ("departures", (1 - rho) * old.departures + rho * departures),
            ("arrivals", (1 - rho) * old.arrivals + rho * arrivals)):
        np.testing.assert_allclose(getattr(moved.paths, name), want, rtol=1e-14, err_msg=name)


def test_serialization_round_trip_is_exact(tmp_path):
    state = sample_channel(5, 3, 4, make_rng(25))
    back = channel_from_dict(json.loads(json.dumps(channel_to_dict(state))))
    np.testing.assert_array_equal(back.matrix, state.matrix)
    path = tmp_path / "link.json"
    save_channel(state, path)
    with open(path) as fh:
        loaded = channel_from_dict(json.load(fh))
    np.testing.assert_array_equal(loaded.matrix, state.matrix)
    assert loaded.spectral == state.spectral


def test_from_paths_rejects_bad_antenna_counts():
    paths = PathSet(gains=np.ones(1), departures=np.zeros(1), arrivals=np.zeros(1))
    with pytest.raises(ValueError):
        ChannelState.from_paths(0, 4, paths)
