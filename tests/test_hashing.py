"""Hashing checks against independent re-computations.

The RBM oracle evaluates the DFT as an explicit double sum, the SVD oracle
recovers the leading singular pair by power iteration on the Gram matrix, and
the quantizer is checked on vectors small enough to compare by hand.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpuf import errors, hashing
from photonpuf.hashing import (
    BitKey,
    RbmHelper,
    SvdHelper,
    draw_helper,
    hash_apply,
    hash_enroll,
    helper_from_bytes,
    helper_to_bytes,
    rbm_hash,
    rbm_helper,
    standardize,
    svd_hash,
    svd_helper,
)

RNG = np.random.default_rng(20260814)


def svd_enroll(img, key_len, rng_seed, **geometry):
    """``hash_enroll`` for an SVD geometry other than the default."""
    helper = svd_helper(img.shape, key_len, rng_seed, **geometry)
    return hash_apply(img, helper), helper


def random_image(rows=64, cols=64, rng=RNG):
    # exponential intensities, like a real capture after scaling
    return rng.exponential(scale=60.0, size=(rows, cols))


# ---------------------------------------------------------------- standardize

def test_standardize_zero_mean_unit_variance():
    arr = standardize(random_image())
    assert abs(arr.mean()) < 1e-12
    assert abs(arr.std() - 1.0) < 1e-12


def test_standardize_affine_invariant():
    img = random_image()
    a = standardize(img)
    b = standardize(3.7 * img + 11.0)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_standardize_rejects_constant_image():
    with pytest.raises(errors.DegenerateImageError):
        standardize(np.full((8, 8), 42.0))


def test_standardize_rejects_wrong_rank():
    with pytest.raises(ValueError):
        standardize(np.zeros(16))


# ---------------------------------------------------------------- BitKey

def test_bitkey_roundtrip_and_length():
    bits = RNG.integers(0, 2, size=37, dtype=np.uint8)
    key = BitKey(bits)
    assert len(key) == 37
    back = BitKey.from_bytes(key.to_bytes())
    assert back == key
    assert hash(back) == hash(key)


def test_bitkey_xor_is_bitwise():
    a = BitKey([1, 0, 1, 1, 0])
    b = BitKey([1, 1, 0, 1, 0])
    assert (a ^ b) == BitKey([0, 1, 1, 0, 0])
    with pytest.raises(ValueError):
        a ^ BitKey([1, 0])


def test_bitkey_rejects_non_binary():
    with pytest.raises(ValueError):
        BitKey([0, 1, 2])


def test_bitkey_is_immutable():
    key = BitKey([1, 0, 1])
    with pytest.raises(ValueError):
        key.bits[0] = 0


# ---------------------------------------------------------------- RBM

def test_rbm_helper_deterministic_per_seed():
    a = rbm_helper((16, 16), 40, rng_seed=7)
    b = rbm_helper((16, 16), 40, rng_seed=7)
    c = rbm_helper((16, 16), 40, rng_seed=8)
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)


def test_rbm_helper_indices_distinct():
    h = rbm_helper((16, 16), 256, rng_seed=3)
    assert len(set(h.indices.tolist())) == 256


def test_rbm_enroll_uses_same_mapping_as_helper():
    img = random_image(16, 16)
    key, helper = hash_enroll(img, "rbm", 50, 9)
    assert np.array_equal(helper.signs, rbm_helper((16, 16), 50, 9).signs)
    assert key == rbm_hash(img, helper)


def test_rbm_hash_matches_explicit_dft_sum():
    # independent oracle: X[k] = sum_j s_j y_j exp(-2*pi*i*j*k/N), real part
    img = random_image(4, 4)
    key, helper = hash_enroll(img, "rbm", 16, 21)
    y = standardize(img).ravel() * helper.signs
    n = y.size
    j = np.arange(n)
    vals = np.array(
        [np.sum(y * np.cos(2 * np.pi * j * k / n)) for k in helper.indices]
    )
    expected = (vals >= vals.mean()).astype(np.uint8)
    assert np.array_equal(key.bits, expected)


def test_rbm_hash_affine_invariant():
    img = random_image(16, 16)
    key, helper = hash_enroll(img, "rbm", 64, 4)
    assert rbm_hash(0.5 * img + 9.0, helper) == key


def test_rbm_hash_shape_guard():
    _, helper = hash_enroll(random_image(16, 16), "rbm", 20, 1)
    with pytest.raises(ValueError):
        rbm_hash(random_image(8, 8), helper)


def test_rbm_key_len_bounds():
    with pytest.raises(ValueError):
        rbm_helper((4, 4), 17, rng_seed=0)
    with pytest.raises(ValueError):
        rbm_helper((4, 4), 0, rng_seed=0)


def test_rbm_helper_validation():
    with pytest.raises(ValueError):
        RbmHelper(np.ones(16, dtype=np.int8) * 2, [0, 1], (4, 4))
    with pytest.raises(ValueError):
        RbmHelper(np.ones(15, dtype=np.int8), [0, 1], (4, 4))
    with pytest.raises(ValueError):
        RbmHelper(np.ones(16, dtype=np.int8), [16], (4, 4))


def test_rbm_small_noise_flips_few_bits():
    img = random_image(32, 32)
    key, helper = hash_enroll(img, "rbm", 200, 5)
    noisy = img + RNG.normal(0.0, 0.01 * img.std(), img.shape)
    frac = np.mean(key.bits != rbm_hash(noisy, helper).bits)
    assert frac < 0.1


def test_rbm_unrelated_images_near_half_distance():
    helper = rbm_helper((32, 32), 256, rng_seed=2)
    rng = np.random.default_rng(77)
    dists = []
    for _ in range(40):
        a = rbm_hash(rng.exponential(size=(32, 32)), helper)
        b = rbm_hash(rng.exponential(size=(32, 32)), helper)
        dists.append(np.mean(a.bits != b.bits))
    assert 0.40 < np.mean(dists) < 0.60


# ---------------------------------------------------------------- SVD

def power_iteration_pair(block, iters=400):
    # independent leading singular pair via the Gram matrix
    g = block.T @ block
    v = np.ones(block.shape[1]) / np.sqrt(block.shape[1])
    for _ in range(iters):
        v = g @ v
        v /= np.linalg.norm(v)
    u = block @ v
    u /= np.linalg.norm(u)
    return u, v


def orient_like_package(vec):
    peak = np.argmax(np.abs(vec))
    return -vec if vec[peak] < 0 else vec


def test_leading_pair_matches_power_iteration():
    block = RNG.normal(size=(12, 12))
    u, v = hashing._leading_pair(block)
    pu, pv = power_iteration_pair(block)
    np.testing.assert_allclose(u, orient_like_package(pu), atol=1e-8)
    np.testing.assert_allclose(v, orient_like_package(pv), atol=1e-8)
    # reconstruction property of the leading pair
    s = u @ block @ v
    assert s > 0
    assert np.linalg.norm(block - s * np.outer(u, v)) < np.linalg.norm(block)


def test_orient_flips_negative_peak():
    vec = np.array([0.1, -0.9, 0.3])
    np.testing.assert_array_equal(hashing._orient(vec), -vec)
    vec2 = np.array([0.1, 0.9, -0.3])
    np.testing.assert_array_equal(hashing._orient(vec2), vec2)


def test_cyclic_quantize_by_hand():
    # 0.2 vs 0.5 -> 0, 0.5 vs 0.1 -> 1, 0.1 vs wrap 0.2 -> 0
    h = np.array([0.2, 0.5, 0.1])
    np.testing.assert_array_equal(hashing._cyclic_quantize(h), [0, 1, 0])
    # ties quantize to 1 (>=)
    np.testing.assert_array_equal(hashing._cyclic_quantize(np.ones(4)), [1, 1, 1, 1])


def test_svd_vector_structure():
    img = random_image(64, 64)
    _, helper = svd_enroll(img, 10, 6, k1=16, k2=8, p=12, r=6)
    h = hashing._svd_vector(standardize(img), helper)
    assert h.shape == (2 * 6 * 8,)
    assert helper.hash_len == h.size
    # every stage-2 vector is unit length
    for i in range(2 * 6):
        assert abs(np.linalg.norm(h[i * 8 : (i + 1) * 8]) - 1.0) < 1e-9


def test_svd_hash_matches_manual_pipeline():
    img = random_image(48, 48)
    key, helper = svd_enroll(img, 40, 13, k1=16, k2=8, p=10, r=5)
    arr = standardize(img)
    us, vs = [], []
    for r0, c0 in helper.stage1_origins:
        block = arr[r0 : r0 + 16, c0 : c0 + 16]
        u, v = power_iteration_pair(block)
        us.append(orient_like_package(u))
        vs.append(orient_like_package(v))
    gamma = np.column_stack(us + vs)
    parts_u, parts_v = [], []
    for r0, c0 in helper.stage2_origins:
        block = gamma[r0 : r0 + 8, c0 : c0 + 8]
        u, v = power_iteration_pair(block)
        parts_u.append(orient_like_package(u))
        parts_v.append(orient_like_package(v))
    h = np.concatenate(parts_u + parts_v)
    expected = (h >= np.roll(h, -1)).astype(np.uint8)[helper.indices]
    assert np.array_equal(key.bits, expected)


def test_svd_enroll_validates_geometry():
    img = random_image(24, 24)
    with pytest.raises(ValueError):
        svd_enroll(img, 10, 0, k1=32)                         # block bigger than image
    with pytest.raises(ValueError):
        svd_enroll(img, 10, 0, k1=16, k2=20, p=10)            # stage-2 exceeds feature rows
    with pytest.raises(ValueError):
        svd_enroll(img, 10_000, 0, k1=16, k2=8, p=10, r=5)    # key longer than hash
    with pytest.raises(ValueError):
        hash_enroll(img, "svd", 10, 0)                        # default 48x48 block


def test_svd_origins_inside_bounds():
    img = random_image(64, 64)
    _, helper = svd_enroll(img, 30, 8, k1=16, k2=8, p=40, r=20)
    assert helper.stage1_origins.max() <= 64 - 16
    assert (helper.stage2_origins[:, 0] <= 16 - 8).all()
    assert (helper.stage2_origins[:, 1] <= 2 * 40 - 8).all()


def test_svd_hash_affine_invariant():
    img = random_image(48, 48)
    key, helper = svd_enroll(img, 30, 15, k1=16, k2=8, p=10, r=5)
    assert svd_hash(2.0 * img + 30.0, helper) == key


# ---------------------------------------------------------------- dispatch

def test_hash_enroll_dispatch():
    img = random_image(64, 64)
    key_r, helper_r = hash_enroll(img, "rbm", 63, 1)
    assert isinstance(helper_r, RbmHelper)
    assert hash_apply(img, helper_r) == key_r
    key_s, helper_s = hash_enroll(img, "svd", 63, 1)
    assert isinstance(helper_s, SvdHelper)
    assert (helper_s.k1, helper_s.k2, helper_s.hash_len) == (48, 16, 2 * 32 * 16)
    assert helper_to_bytes(helper_s) == helper_to_bytes(svd_helper((64, 64), 63, 1))
    assert hash_apply(img, helper_s) == key_s
    assert key_r != key_s


def test_draw_helper_rejects_unknown_algo():
    with pytest.raises(ValueError):
        draw_helper("md5", (8, 8), 10, 0)
    with pytest.raises(ValueError):
        hash_enroll(random_image(8, 8), "md5", 10, 0)


def test_hash_apply_rejects_foreign_object():
    with pytest.raises(TypeError):
        hash_apply(random_image(8, 8), object())


# ---------------------------------------------------------------- serialization

def test_rbm_helper_roundtrip():
    _, helper = hash_enroll(random_image(16, 16), "rbm", 100, 3)
    back = helper_from_bytes(helper_to_bytes(helper))
    assert np.array_equal(back.signs, helper.signs)
    assert np.array_equal(back.indices, helper.indices)
    assert back.image_dims == helper.image_dims


def test_svd_helper_roundtrip():
    _, helper = svd_enroll(random_image(48, 48), 64, 3, k1=16, k2=8, p=10, r=5)
    back = helper_from_bytes(helper_to_bytes(helper))
    assert (back.k1, back.k2) == (16, 8)
    assert np.array_equal(back.stage1_origins, helper.stage1_origins)
    assert np.array_equal(back.stage2_origins, helper.stage2_origins)
    assert np.array_equal(back.indices, helper.indices)
    assert back.hash_len == helper.hash_len


def test_helper_container_errors():
    _, helper = hash_enroll(random_image(8, 8), "rbm", 10, 0)
    blob = helper_to_bytes(helper)
    with pytest.raises(errors.BadMagicError):
        helper_from_bytes(b"NOPE" + blob[4:])
    with pytest.raises(errors.UnsupportedVersionError):
        helper_from_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(errors.TruncatedError):
        helper_from_bytes(blob[:-3])
    with pytest.raises(ValueError):
        helper_from_bytes(blob[:6] + b"\x07" + blob[7:])  # unknown algo byte
    with pytest.raises(TypeError):
        helper_to_bytes({"algo": "rbm"})


def _patched(blob, at, value):
    """``blob`` with the little-endian u32 at byte ``at`` set to ``value``."""
    return blob[:at] + struct.pack("<I", value) + blob[at + 4:]


# a 16x16 SVD helper blob (k1=8, k2=4, p=4, r=2); after magic, version, algo,
# key_len and dims come k1 at byte 19, k2 at 23, p at 27, then the origins at 35
SVD_HELPER = svd_helper((16, 16), 12, 0, k1=8, k2=4, p=4, r=2)
SVD_BLOB = helper_to_bytes(SVD_HELPER)
SVD_PATCHES = {
    "k1_zero": _patched(SVD_BLOB, 19, 0),
    "k2_zero": _patched(SVD_BLOB, 23, 0),
    "no_stage1_origins": _patched(SVD_BLOB, 27, 0)[:35] + SVD_BLOB[35 + 8 * 4:],
    "stage1_outside_image": _patched(SVD_BLOB, 35, 16 - 8 + 1),
    "stage2_outside_features": _patched(SVD_BLOB, 35 + 8 * 4 + 4, 2 * 4 - 4 + 1),
    "index_past_hash_len": _patched(SVD_BLOB, len(SVD_BLOB) - 4, SVD_HELPER.hash_len),
}


@pytest.mark.parametrize("name", SVD_PATCHES)
def test_svd_helper_patched_blob_rejected(name):
    assert isinstance(helper_from_bytes(SVD_BLOB), SvdHelper)
    with pytest.raises(ValueError):
        helper_from_bytes(SVD_PATCHES[name])


def test_roundtrip_preserves_hash():
    img = random_image(32, 32)
    key, helper = hash_enroll(img, "rbm", 120, 17)
    assert rbm_hash(img, helper_from_bytes(helper_to_bytes(helper))) == key


# ---------------------------------------------------------------- properties

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=64))
def test_rbm_key_len_always_honored(seed, key_len):
    helper = rbm_helper((8, 8), key_len, seed)
    img = np.random.default_rng(seed).exponential(size=(8, 8))
    assert len(rbm_hash(img, helper)) == key_len


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=40))
def test_cyclic_quantize_matches_pairwise_definition(values):
    h = np.asarray(values)
    bits = hashing._cyclic_quantize(h)
    n = h.size
    for i in range(n):
        assert bits[i] == (1 if h[i] >= h[(i + 1) % n] else 0)
