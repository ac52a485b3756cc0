"""Robust binary hashing of speckle images: one random binary mapping.

A camera frame, any 2-D array of pixel values, becomes a fixed-length bit
key plus public helper data that lets the same key be re-derived from a
noisy recapture. The standardized image is modulated by a random +-1
diagonal and transformed with a discrete Fourier transform, and a random
subset of bins 1..N/2-1 is thresholded on the real part, which a real signal
repeats at bins k and N-k. The randomness extractor is the same mapping
drawn from a fixed public seed.

``rbm_helper`` draws a helper from the image geometry, the key length and a
mapping seed alone, never from pixel values. ``hash_enroll`` draws one and
hashes the capture with it; the protocol layer takes that seed from the
operating system's CSPRNG. Helpers store explicit arrays (signs, indices),
never just the seed that generated them, so rehashing does not depend on
generator reproducibility across versions.

The paper's block singular value decomposition hash is not kept: its keys
miss the default BCH(255, t=31) code (1-8 of 32 genuine authentications on
two default tokens were accepted, against 32 for this mapping), and its
helper container (algo byte 1) fails to parse with a ``FormatError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import Reader, frozen_array, le, pack_bits, packed_size, unpack_bits
from .errors import DegenerateImageError, FormatError

__all__ = [
    "BitKey",
    "RbmHelper",
    "standardize",
    "rbm_max_bins",
    "rbm_helper",
    "rbm_project",
    "hash_enroll",
    "hash_apply",
    "helper_to_bytes",
    "helper_from_bytes",
]

_MAGIC = b"PUFH"
_VERSION = 1
_ALGO_RBM = 0

_TAG_RBM = 0x5B1


def _as_pixels(image) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("image must be 2-D")
    return arr


def standardize(image) -> np.ndarray:
    """Zero-mean, unit-variance (population) copy of the image.

    Raises DegenerateImageError for constant images.
    """
    arr = _as_pixels(image)
    std = arr.std()
    if std == 0:
        raise DegenerateImageError("image has zero variance, cannot standardize")
    return (arr - arr.mean()) / std


def _as_bits(x) -> np.ndarray:
    """The bits of a ``BitKey``, or a 0/1 sequence as a flat uint8 array."""
    if isinstance(x, BitKey):
        return x.bits
    bits = np.asarray(x, dtype=np.uint8).ravel()
    if np.any(bits > 1):
        raise ValueError("bits must be binary")
    return bits


@dataclass(frozen=True, eq=False)
class BitKey:
    """Immutable bit string: a hash key or an extracted random stream.

    The wire form is a u32 bit count followed by the bits packed LSB-first.
    """

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", frozen_array(_as_bits(self.bits)))

    @property
    def key_len(self) -> int:
        return int(self.bits.size)

    def __len__(self):
        return self.key_len

    def __eq__(self, other):
        return isinstance(other, BitKey) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.key_len, self.bits.tobytes()))

    def to_bytes(self) -> bytes:
        """Length-prefixed packed form; the digest input for fuzzy commitment."""
        return le("I", self.key_len) + pack_bits(self.bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitKey":
        r = Reader(data)
        n = r.unpack("I")
        bits = unpack_bits(r.take(packed_size(n)), n)
        r.expect_end("bit string")
        return cls(bits)


# ----------------------------------------------------------------------
# random binary mapping

@dataclass(frozen=True, eq=False)
class RbmHelper:
    """Public helper for the random binary mapping hash."""

    signs: np.ndarray          # int8, +-1, one per image pixel
    indices: np.ndarray        # uint32, selected transform bins, draw order
    image_dims: tuple

    def __post_init__(self):
        signs = frozen_array(self.signs, np.int8).ravel()
        idx = frozen_array(self.indices, np.uint32).ravel()
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +-1")
        dims = (int(self.image_dims[0]), int(self.image_dims[1]))
        if signs.size != dims[0] * dims[1]:
            raise ValueError("signs length must match image size")
        if idx.size == 0 or idx.size > signs.size:
            raise ValueError("need 1..N selected indices")
        if idx.max(initial=0) >= signs.size:
            raise ValueError("selected index out of range")
        if np.unique(idx).size != idx.size:
            # one bin read twice gives two copies of one bit, and one bin read
            # key_len times hashes every capture to one key
            raise ValueError("selected indices must be distinct")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "image_dims", dims)

    @property
    def key_len(self) -> int:
        return int(self.indices.size)


def rbm_max_bins(image_dims) -> int:
    """Most bins a mapping can draw for a geometry: N/2-1, DC and Nyquist excluded."""
    return int(image_dims[0]) * int(image_dims[1]) // 2 - 1


def rbm_helper(image_dims, key_len: int, rng_seed: int) -> RbmHelper:
    """Draw a random mapping for a geometry; needs no image, only its shape.

    The bins are distinct and lie in 1..N/2-1, so ``key_len`` is at most
    ``rbm_max_bins(image_dims)``.
    """
    rows, cols = (int(d) for d in image_dims)
    n = rows * cols
    half = rbm_max_bins(image_dims)
    if not 1 <= key_len <= half:
        raise ValueError(f"key_len must be in 1..{half} for a {rows}x{cols} image, got {key_len}")
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), _TAG_RBM]))
    signs = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)
    indices = (1 + rng.choice(half, size=key_len, replace=False)).astype(np.uint32)
    return RbmHelper(signs, indices, (rows, cols))


def rbm_project(image, helper: RbmHelper) -> np.ndarray:
    """Real parts of the helper's DFT bins of the sign-modulated, standardized image.

    A stored bin k > N/2 reads bin N-k of one ``rfft``, whose real part is equal.
    """
    arr = _as_pixels(image)
    if arr.shape != helper.image_dims:
        raise ValueError(f"image shape {arr.shape} does not match helper {helper.image_dims}")
    z = np.fft.rfft(helper.signs * standardize(arr).ravel())
    return z.real[np.minimum(helper.indices, helper.signs.size - helper.indices)]


def hash_enroll(image, key_len: int, rng_seed: int) -> tuple[BitKey, RbmHelper]:
    """Draw a helper for the image's geometry, then hash the image once."""
    arr = _as_pixels(image)
    helper = rbm_helper(arr.shape, key_len, rng_seed)
    return hash_apply(arr, helper), helper


def hash_apply(image, helper: RbmHelper) -> BitKey:
    """Re-derive the key for a (possibly noisy) image with a fixed helper.

    Bits are the ``rbm_project`` values thresholded at their own mean;
    values on the threshold map to 1.
    """
    vals = rbm_project(image, helper)
    return BitKey((vals >= vals.mean()).astype(np.uint8))


# ----------------------------------------------------------------------
# serialization ("PUFH", little-endian)

def helper_to_bytes(helper: RbmHelper) -> bytes:
    sign_bits = (helper.signs > 0).astype(np.uint8)
    return b"".join(
        [
            _MAGIC,
            le("H", _VERSION),
            le("B", _ALGO_RBM),
            le("I", helper.key_len),
            le("II", *helper.image_dims),
            pack_bits(sign_bits),
            helper.indices.astype("<u4").tobytes(),
        ]
    )


def helper_from_bytes(data: bytes) -> RbmHelper:
    r = Reader(data)
    r.expect_magic(_MAGIC, "hash helper")
    r.expect_version(_VERSION, "hash helper")
    algo = r.unpack("B")
    if algo == 1:
        raise FormatError("hash helper algo 1 (block svd) was removed; re-enroll the capture")
    if algo != _ALGO_RBM:
        raise FormatError(f"unknown hash helper algo {algo}")
    key_len = r.unpack("I")
    dims = r.unpack("II")
    n = dims[0] * dims[1]
    sign_bits = unpack_bits(r.take(packed_size(n)), n)
    signs = (sign_bits.astype(np.int8) * 2 - 1).astype(np.int8)
    indices = np.frombuffer(r.take(4 * key_len), dtype="<u4")
    r.expect_end("hash helper")
    return RbmHelper(signs, indices, dims)
