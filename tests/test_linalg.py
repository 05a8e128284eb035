import math

import numpy as np
import pytest

from airsplit import linalg
from airsplit.linalg import (
    DecompositionError, add_crandn, crandn, make_rng, matrix_rank, pinv,
    spectral_norm, svd,
)


def test_make_rng_streams_are_reproducible_and_distinct():
    a = make_rng(7, 2, 1).standard_normal(8)
    b = make_rng(7, 2, 1).standard_normal(8)
    c = make_rng(7, 2, 2).standard_normal(8)
    d = make_rng(8, 2, 1).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_crandn_moments_and_dtype():
    rng = make_rng(0)
    z = crandn(rng, (200, 200), var=2.5)
    assert z.dtype == np.complex128
    assert abs(np.mean(np.abs(z) ** 2) - 2.5) < 0.05
    # real and imaginary parts carry half the variance each
    assert abs(np.var(z.real) - 1.25) < 0.05
    assert abs(np.var(z.imag) - 1.25) < 0.05


@pytest.mark.parametrize("shape", [(), 5, (3, 2), (2, 3, 1, 4)])
@pytest.mark.parametrize("var", [1.0, 2.5, 1.0 / 64])
def test_crandn_bytes_match_the_two_draw_formula(shape, var):
    rng, twin = make_rng(11, 1), make_rng(11, 1)
    z = crandn(rng, shape, var)
    re = twin.standard_normal(shape)     # real block first, then imaginary
    im = twin.standard_normal(shape)
    ref = math.sqrt(var / 2.0) * (re + 1j * im)
    assert type(z) is type(ref)          # 0-d shape: a numpy complex scalar
    assert np.shape(z) == np.shape(ref)
    assert np.asarray(z).tobytes() == np.asarray(ref).tobytes()
    assert rng.standard_normal() == twin.standard_normal()


@pytest.mark.parametrize("shape", [(), (2, 3, 1, 4), 65535, 65536, 65537, (3, 40000)])
def test_crandn_out_fills_the_two_draw_formula_through_bounded_scratch(shape):
    # Sizes around the scratch block: the pieces must join into the same stream.
    var = 1.0 / 64
    rng, twin = make_rng(12, 3), make_rng(12, 3)
    buf = np.full(np.broadcast_shapes(shape), np.nan + 1j, dtype=np.complex128)
    z = crandn(rng, shape, var, out=buf)
    re = twin.standard_normal(shape)
    im = twin.standard_normal(shape)
    ref = math.sqrt(var / 2.0) * (re + 1j * im)
    if buf.ndim:
        assert z is buf
    else:
        assert type(z) is type(ref)
    assert buf.tobytes() == np.asarray(ref).tobytes()
    assert rng.standard_normal() == twin.standard_normal()


@pytest.mark.parametrize("shape", [(), 3, 7, 8, 15, (3, 5), (2, 3, 4)])
def test_crandn_through_a_7_float_scratch_is_the_two_draw_formula(shape, monkeypatch):
    # Pieces smaller than, equal to and straddling each block: the real block
    # still comes first and the stream ends where two whole draws end.
    monkeypatch.setattr(linalg, "_CRANDN_SCRATCH", 7)
    var = 2.5
    rng, twin = make_rng(14, 2), make_rng(14, 2)
    z = crandn(rng, shape, var)
    re = twin.standard_normal(shape)
    im = twin.standard_normal(shape)
    ref = math.sqrt(var / 2.0) * (re + 1j * im)
    assert np.asarray(z).tobytes() == np.asarray(ref).tobytes()
    assert rng.standard_normal() == twin.standard_normal()


@pytest.mark.parametrize("bad", [np.empty((3, 4)), np.empty((3, 4), dtype=np.complex128),
                                 np.empty((4, 6), dtype=np.complex128)[:, ::2]])
def test_crandn_out_rejects_a_wrong_buffer(bad):
    with pytest.raises(ValueError, match="out must be"):
        crandn(make_rng(0), (4, 3), out=bad)


def test_add_crandn_rejects_a_strided_out_before_drawing():
    out = crandn(make_rng(13), (2, 3, 4, 6))[..., ::2]      # a strided (2, 3, 4, 3) view
    before, rng = out.copy(), make_rng(14)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="C-contiguous"):
        add_crandn(rng, out, 0.5)
    assert out.tobytes() == before.tobytes()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shape", [(4, 16, 64), (8, 64, 64), (4, 16, 256), (8, 64, 256),
                                   (3, 5, 7), (2, 150, 300), (16, 4), (3, 0, 4)])
def test_add_crandn_equals_one_crandn_per_block(shape):
    # All blocks come from one stream of normals drawn in bounded pieces; at
    # (2, 150, 300) one block's real part alone overflows the scratch.
    out = crandn(make_rng(15), shape)
    rng, twin = make_rng(16), make_rng(16)
    want = out.copy()
    for index in np.ndindex(shape[:-2]):
        want[index] += crandn(twin, shape[-2:], 0.3)
    add_crandn(rng, out, 0.3)
    assert out.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_crandn_zero_variance():
    z = crandn(make_rng(0), (3, 2), var=0.0)
    np.testing.assert_array_equal(z, np.zeros((3, 2)))


@pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7)])
def test_svd_reconstructs_and_is_orthonormal(shape):
    rng = make_rng(1, *shape)
    a = crandn(rng, shape)
    u, s, v = svd(a)
    k = min(shape)
    assert u.shape == (shape[0], k) and v.shape == (shape[1], k)
    np.testing.assert_allclose((u * s) @ v.conj().T, a, atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(k), atol=1e-12)
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)


def test_svd_phase_convention_is_reproducible():
    # the anchored entry of every left singular column sits on the positive
    # real axis, so two equal matrices factor identically
    a = crandn(make_rng(11), (6, 6))
    u1, _, v1 = svd(a)
    u2, _, v2 = svd(a.copy())
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(v1, v2)
    for j in range(u1.shape[1]):
        anchor = int(np.argmax(np.abs(u1[:, j]) > 1e-6 * np.abs(u1[:, j]).max()))
        val = u1[anchor, j]
        assert abs(val.imag) < 1e-12 and val.real > 0


def test_svd_phase_skips_zero_columns_and_anchors_past_roundoff(monkeypatch):
    # Column 0 starts with a roundoff-level entry, so its anchor is row 1;
    # column 1 is all zeros and must come back untouched, without nan.
    u = np.array([[1e-9j, 0.0], [0.6j, 0.0], [-0.8, 0.0]], dtype=np.complex128)
    vh = np.array([[1j, 0.0], [0.0, 1.0]], dtype=np.complex128)
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, full_matrices, hermitian: (u.copy(), np.array([2.0, 0.0]), vh))
    uu, _, v = svd(np.zeros((3, 2)))
    np.testing.assert_array_equal(uu[:, 1], 0.0)
    np.testing.assert_array_equal(v[:, 1], vh.conj().T[:, 1])
    np.testing.assert_allclose(uu[:, 0], [1e-9, 0.6, 0.8j], atol=1e-15)
    np.testing.assert_allclose(v[:, 0], [-1.0, 0.0], atol=1e-15)


# (dim, columns): a full-rank and a rank-3 Hermitian PSD matrix
@pytest.mark.parametrize("dim, cols", [(6, 40), (8, 3)])
def test_hermitian_svd_of_a_psd_matrix_matches_the_general_one(dim, cols):
    a = crandn(make_rng(12, dim, cols), (dim, cols))
    m = a @ a.conj().T / cols
    m = 0.5 * (m + m.conj().T)
    u, s, v = svd(m, hermitian=True)
    _, s_general, _ = svd(m)
    assert u.shape == v.shape == (dim, dim)
    np.testing.assert_allclose((u * s) @ v.conj().T, m, atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
    np.testing.assert_allclose(s, s_general, rtol=0, atol=1e-12 * s_general[0])
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)
    if cols >= dim:                      # every eigenvalue positive: v is u
        np.testing.assert_array_equal(v, u)
    for j in range(dim):
        anchor = int(np.argmax(np.abs(u[:, j]) > 1e-6 * np.abs(u[:, j]).max()))
        assert abs(u[anchor, j].imag) < 1e-12 and u[anchor, j].real > 0


def test_pinv_satisfies_the_four_identities():
    for trial in range(5):
        rng = make_rng(2, trial)
        a = crandn(rng, (6, 4)) if trial % 2 else crandn(rng, (4, 6))
        ap = pinv(a)
        np.testing.assert_allclose(a @ ap @ a, a, atol=1e-10)
        np.testing.assert_allclose(ap @ a @ ap, ap, atol=1e-10)
        np.testing.assert_allclose((a @ ap).conj().T, a @ ap, atol=1e-10)
        np.testing.assert_allclose((ap @ a).conj().T, ap @ a, atol=1e-10)


def test_pinv_of_rank_deficient_matrix():
    rng = make_rng(3)
    u = crandn(rng, (6, 2))
    v = crandn(rng, (2, 5))
    a = u @ v
    np.testing.assert_allclose(a @ pinv(a) @ a, a, atol=1e-10)


def test_matrix_rank_counts_independent_directions():
    rng = make_rng(5)
    for k in (1, 2, 3, 4):
        a = crandn(rng, (6, k)) @ crandn(rng, (k, 7))
        assert matrix_rank(a) == k
    assert matrix_rank(np.zeros((4, 4))) == 0


def test_spectral_norm_matches_numpy():
    rng = make_rng(6)
    a = crandn(rng, (5, 8))
    assert abs(spectral_norm(a) - np.linalg.norm(a, 2)) < 1e-12
