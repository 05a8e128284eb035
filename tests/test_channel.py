import json

import numpy as np
import pytest

import _oracles as oracles
from airsplit.channel import (
    NOISELESS, ChannelState, NoiseModel, PathSet, build_matrix, channel_from_dict,
    channel_snr, channel_to_dict, evolve_channel, load_channel, sample_channel,
    save_channel, steering_vector, transmit_backward, transmit_forward, wrap_angle,
)
from airsplit.linalg import crandn, make_rng, matrix_rank


def test_wrap_angle_lands_in_half_open_interval():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 10.0, -10.0])
    w = wrap_angle(x)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


def test_steering_vector_is_geometric_in_the_angle():
    v = steering_vector(0.3, 5)
    np.testing.assert_allclose(v, np.exp(1j * 0.3) ** np.arange(5), atol=1e-12)
    assert v[0] == 1.0


def test_build_matrix_matches_entrywise_sum():
    for trial in range(8):
        rng = make_rng(10, trial)
        n_paths = int(rng.integers(1, 6))
        state = sample_channel(5, 4, n_paths, rng)
        want = oracles.channel_matrix(
            4, 5, state.paths.arrivals, state.paths.departures, state.paths.gains)
        np.testing.assert_allclose(state.matrix, want, atol=1e-10)


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


# (K, n, B); in the last case each (n, B) noise block outgrows crandn's scratch
@pytest.mark.parametrize("k, n, b", [(1, 1, 1), (3, 5, 7), (4, 16, 64), (8, 64, 64),
                                     (2, 64, 1100)])
def test_a_stacked_transmission_equals_one_call_per_use(k, n, b):
    state = sample_channel(n, n, 3, make_rng(20, n))
    x = crandn(make_rng(21, k, n, b), (k, n, b))
    noise = NoiseModel(sigma2=0.3)
    for send, h in ((transmit_forward, state.matrix), (transmit_backward, state.matrix.T)):
        rngs = [make_rng(22), make_rng(22), make_rng(22)]
        stacked = send(state, x, noise, rngs[0])
        per_use = np.stack([send(state, x[i], noise, rngs[1]) for i in range(k)])
        # the replay contract: H x_k plus one crandn draw per use, in use order
        by_hand = np.stack([h @ x[i] + crandn(rngs[2], (n, b), var=0.3) for i in range(k)])
        assert stacked.shape == (k, n, b)
        assert stacked.tobytes() == per_use.tobytes() == by_hand.tobytes()
        assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
                == rngs[2].bit_generator.state)


def test_noisy_transmission_requires_rng_and_hits_target_variance():
    state = sample_channel(4, 6, 3, make_rng(18))
    noise = NoiseModel(sigma2=0.25)
    x = np.zeros((4, 4000), dtype=np.complex128)
    with pytest.raises(ValueError):
        transmit_forward(state, x, noise)
    y = transmit_forward(state, x, noise, make_rng(19))
    assert abs(np.mean(np.abs(y) ** 2) - 0.25) < 0.01


def test_noise_model_requires_exactly_one_spec():
    with pytest.raises(ValueError):
        NoiseModel()
    with pytest.raises(ValueError):
        NoiseModel(sigma2=0.1, snr_db=10.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma2=-1.0)


def test_snr_specified_noise_round_trips_through_channel_snr():
    state = sample_channel(4, 6, 3, make_rng(20))
    for target in (0.0, 10.0, 35.0):
        noise = NoiseModel(snr_db=target)
        assert abs(channel_snr(state, noise.total_power(state)) - target) < 1e-9
    assert channel_snr(state, 0.0) == float("inf")
    assert NoiseModel(sigma2=0.5).total_power(state) == 0.5 * state.n_rx


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


def test_serialization_round_trip_is_exact(tmp_path):
    state = sample_channel(5, 3, 4, make_rng(25))
    back = channel_from_dict(json.loads(json.dumps(channel_to_dict(state))))
    np.testing.assert_array_equal(back.matrix, state.matrix)
    path = tmp_path / "link.json"
    save_channel(state, path)
    loaded = load_channel(path)
    np.testing.assert_array_equal(loaded.matrix, state.matrix)
    assert loaded.spectral == state.spectral


def test_from_paths_rejects_bad_antenna_counts():
    paths = PathSet(gains=np.ones(1), departures=np.zeros(1), arrivals=np.zeros(1))
    with pytest.raises(ValueError):
        ChannelState.from_paths(0, 4, paths)
