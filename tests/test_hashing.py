"""Hashing checks against independent re-computations.

The oracle evaluates the DFT of the random binary mapping as an explicit
double sum.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonpuf import errors
from photonpuf._binio import bits_from_bytes, counted_bits
from photonpuf.hashing import (
    RbmHelper,
    hash_apply,
    hash_enroll,
    helper_from_bytes,
    helper_to_bytes,
    rbm_helper,
    rbm_max_bins,
    standardize,
)

RNG = np.random.default_rng(20260814)


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


# ---------------------------------------------------------------- counted bit string

def test_bitkey_roundtrip_and_length():
    bits = RNG.integers(0, 2, size=37, dtype=np.uint8)
    blob = counted_bits(bits)
    assert len(blob) == 4 + 5
    back = bits_from_bytes(blob)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, bits)


def test_bitkey_rejects_non_binary():
    with pytest.raises(ValueError):
        counted_bits([0, 1, 2])


# ---------------------------------------------------------------- RBM

def test_rbm_helper_deterministic_per_seed():
    a = rbm_helper((16, 16), 40, rng_seed=7)
    b = rbm_helper((16, 16), 40, rng_seed=7)
    c = rbm_helper((16, 16), 40, rng_seed=8)
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)


def test_rbm_helper_indices_distinct():
    # the longest key a 16x16 image allows takes every bin of 1..N/2-1 once
    h = rbm_helper((16, 16), 127, rng_seed=3)
    assert sorted(h.indices.tolist()) == list(range(1, 128))


def test_rbm_enroll_uses_same_mapping_as_helper():
    img = random_image(16, 16)
    key, helper = hash_enroll(img, 50, 9)
    assert np.array_equal(helper.signs, rbm_helper((16, 16), 50, 9).signs)
    assert np.array_equal(key, hash_apply(img, helper))


def explicit_dft_key(img, helper):
    # independent oracle: X[k] = sum_j s_j y_j exp(-2*pi*i*j*k/N), real part
    y = standardize(img).ravel() * helper.signs
    n = y.size
    j = np.arange(n)
    vals = np.array(
        [np.sum(y * np.cos(2 * np.pi * j * k / n)) for k in helper.indices]
    )
    return (vals >= vals.mean()).astype(np.uint8)


def test_rbm_hash_matches_explicit_dft_sum():
    img = random_image(4, 4)
    key, helper = hash_enroll(img, 7, 21)
    assert np.array_equal(key, explicit_dft_key(img, helper))
    # a stored helper may name any of the N bins, mirror pairs and 0 and N/2 included
    every_bin = RbmHelper(helper.signs, np.random.default_rng(21).permutation(16), (4, 4))
    assert np.array_equal(hash_apply(img, every_bin), explicit_dft_key(img, every_bin))


def test_rbm_hash_affine_invariant():
    img = random_image(16, 16)
    key, helper = hash_enroll(img, 64, 4)
    assert np.array_equal(hash_apply(0.5 * img + 9.0, helper), key)


def test_rbm_hash_shape_guard():
    _, helper = hash_enroll(random_image(16, 16), 20, 1)
    with pytest.raises(ValueError):
        hash_apply(random_image(8, 8), helper)


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
    key, helper = hash_enroll(img, 200, 5)
    noisy = img + RNG.normal(0.0, 0.01 * img.std(), img.shape)
    frac = np.mean(key != hash_apply(noisy, helper))
    assert frac < 0.1


def test_rbm_unrelated_images_near_half_distance():
    helper = rbm_helper((32, 32), 256, rng_seed=2)
    rng = np.random.default_rng(77)
    dists = []
    for _ in range(40):
        a = hash_apply(rng.exponential(size=(32, 32)), helper)
        b = hash_apply(rng.exponential(size=(32, 32)), helper)
        dists.append(np.mean(a != b))
    assert 0.40 < np.mean(dists) < 0.60


# ---------------------------------------------------------------- serialization

def test_rbm_helper_roundtrip():
    _, helper = hash_enroll(random_image(16, 16), 100, 3)
    back = helper_from_bytes(helper_to_bytes(helper))
    assert np.array_equal(back.signs, helper.signs)
    assert np.array_equal(back.indices, helper.indices)
    assert back.image_dims == helper.image_dims


def test_helper_container_errors():
    _, helper = hash_enroll(random_image(8, 8), 10, 0)
    blob = helper_to_bytes(helper)
    with pytest.raises(errors.BadMagicError):
        helper_from_bytes(b"NOPE" + blob[4:])
    with pytest.raises(errors.UnsupportedVersionError):
        helper_from_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(errors.TruncatedError):
        helper_from_bytes(blob[:-3])
    with pytest.raises(errors.FormatError, match="unknown hash helper algo 7"):
        helper_from_bytes(blob[:6] + b"\x07" + blob[7:])
    with pytest.raises(errors.FormatError, match="svd"):     # the removed block-SVD hash
        helper_from_bytes(blob[:6] + b"\x01" + blob[7:])


def test_rbm_helper_bytes_and_key_are_pinned():
    # stored records hold these bytes: magic, version 1, algo 0, key_len 6, dims 4x4,
    # 16 packed sign bits, then the six u32 indices in draw order
    img = np.arange(16.0).reshape(4, 4) ** 1.5
    # rbm_helper((4, 4), 6, 2) as drawn over all 16 bins: a stored record's helper
    # (bins 12, 5, 11, 6, 7, 14) whose key must not change
    stored = helper_from_bytes(bytes.fromhex(
        "5055464801000006000000040000000400000081090c00000005000000"
        "0b00000006000000070000000e000000"))
    np.testing.assert_array_equal(hash_apply(img, stored), [1, 0, 0, 1, 1, 0])
    # the same call drawing from bins 1..7
    helper = rbm_helper((4, 4), 6, 2)
    assert helper_to_bytes(helper) == bytes.fromhex(
        "505546480100000600000004000000040000008109040000000700000003000000"
        "020000000500000006000000")
    np.testing.assert_array_equal(hash_apply(img, helper), [0, 1, 1, 0, 0, 1])


def test_roundtrip_preserves_hash():
    img = random_image(32, 32)
    key, helper = hash_enroll(img, 120, 17)
    assert np.array_equal(hash_apply(img, helper_from_bytes(helper_to_bytes(helper))), key)


# ---------------------------------------------------------------- properties

@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=31))
def test_rbm_key_len_always_honored(seed, key_len):
    helper = rbm_helper((8, 8), key_len, seed)
    img = np.random.default_rng(seed).exponential(size=(8, 8))
    assert len(hash_apply(img, helper)) == key_len


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24),
       st.floats(min_value=0.0, max_value=1.0))
@example(seed=0, rows=4, cols=4, fill=1.0)     # even N, every bin of 1..N/2-1
@example(seed=0, rows=3, cols=5, fill=1.0)     # odd N
def test_rbm_helper_draws_no_mirror_dc_or_nyquist_bin(seed, rows, cols, fill):
    n = rows * cols
    half = n // 2 - 1
    assert rbm_max_bins((rows, cols)) == half
    if half < 1:
        with pytest.raises(ValueError):
            rbm_helper((rows, cols), 1, seed)
        return
    helper = rbm_helper((rows, cols), max(1, round(fill * half)), seed)
    drawn = set(helper.indices.tolist())
    assert 0 not in drawn and (n % 2 or n // 2 not in drawn)
    assert not any(n - k in drawn for k in drawn)
    with pytest.raises(ValueError):          # a longer key must repeat bits
        rbm_helper((rows, cols), half + 1, seed)
