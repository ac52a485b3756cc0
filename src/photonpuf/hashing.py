"""Robust binary hashing of speckle images.

Two schemes turn a camera frame into a fixed-length bit key plus public
helper data that lets the same key be re-derived from a noisy recapture:

* ``rbm_*``: a random binary mapping. The standardized image is modulated by
  a random +-1 diagonal, transformed with a discrete Fourier transform, and a
  random subset of output bins is thresholded on the real part. Fast,
  content-agnostic, and the basis of the randomness extractor.
* ``svd_*``: a two-stage singular value decomposition over overlapping
  blocks. Leading singular vectors of image blocks form a feature matrix
  whose own block SVD yields the hash vector; cyclic neighbor comparison
  quantizes it. Slower, but keyed to the coarse geometry of the pattern.

``draw_helper`` draws a helper for a named algorithm from the image geometry,
the key length and a mapping seed alone, never from pixel values (SVD at its
default block geometry; ``svd_helper``'s keywords are the one place to set
another). ``hash_enroll`` draws one and hashes the capture with it; the
protocol layer takes that seed from the operating system's CSPRNG.
Helpers store explicit arrays (signs, indices, block origins), never just the
seed that generated them, so rehashing does not depend on generator
reproducibility across versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._binio import Reader, frozen_array, le, pack_bits, packed_size, unpack_bits
from .errors import DegenerateImageError
from .token import SpeckleImage

__all__ = [
    "BitKey",
    "RbmHelper",
    "SvdHelper",
    "standardize",
    "rbm_helper",
    "rbm_hash",
    "svd_helper",
    "svd_hash",
    "draw_helper",
    "hash_enroll",
    "hash_apply",
    "helper_to_bytes",
    "helper_from_bytes",
]

_MAGIC = b"PUFH"
_VERSION = 1
_ALGO_RBM = 0
_ALGO_SVD = 1

_TAG_RBM = 0x5B1
_TAG_SVD = 0x5B2


def _as_pixels(image) -> np.ndarray:
    if isinstance(image, SpeckleImage):
        return image.as_float()
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

    def __xor__(self, other) -> "BitKey":
        other_bits = _as_bits(other)
        if other_bits.size != self.key_len:
            raise ValueError("length mismatch")
        return BitKey(self.bits ^ other_bits)

    def to_bytes(self) -> bytes:
        """Length-prefixed packed form; the digest input for fuzzy commitment."""
        return le("I", self.key_len) + pack_bits(self.bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitKey":
        r = Reader(data)
        n = r.unpack("I")
        return cls(unpack_bits(r.take(packed_size(n)), n))


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
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "image_dims", dims)

    @property
    def key_len(self) -> int:
        return int(self.indices.size)


def rbm_helper(image_dims, key_len: int, rng_seed: int) -> RbmHelper:
    """Draw a random mapping for a geometry; needs no image, only its shape."""
    rows, cols = (int(d) for d in image_dims)
    n = rows * cols
    if not 1 <= key_len <= n:
        raise ValueError(f"key_len must be in 1..{n}, got {key_len}")
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), _TAG_RBM]))
    signs = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)
    indices = rng.choice(n, size=key_len, replace=False).astype(np.uint32)
    return RbmHelper(signs, indices, (rows, cols))


def rbm_hash(image, helper: RbmHelper) -> BitKey:
    """Re-derive the key for a (possibly noisy) image with a fixed helper.

    Bits are the real parts of the selected DFT bins, thresholded at their
    own mean; values on the threshold map to 1.
    """
    arr = _as_pixels(image)
    if arr.shape != helper.image_dims:
        raise ValueError(f"image shape {arr.shape} does not match helper {helper.image_dims}")
    y = standardize(arr).ravel()
    z = np.fft.fft(helper.signs * y)
    vals = z.real[helper.indices]
    return BitKey((vals >= vals.mean()).astype(np.uint8))


# ----------------------------------------------------------------------
# two-stage block SVD

@dataclass(frozen=True, eq=False)
class SvdHelper:
    """Public helper for the block-SVD hash."""

    k1: int
    k2: int
    stage1_origins: np.ndarray   # uint32 (p, 2), top-left corners in the image
    stage2_origins: np.ndarray   # uint32 (r, 2), corners in the feature matrix
    indices: np.ndarray          # uint32, selected hash vector positions
    image_dims: tuple

    def __post_init__(self):
        s1 = frozen_array(self.stage1_origins, np.uint32)
        s2 = frozen_array(self.stage2_origins, np.uint32)
        idx = frozen_array(self.indices, np.uint32).ravel()
        if s1.ndim != 2 or s1.shape[1] != 2 or s2.ndim != 2 or s2.shape[1] != 2:
            raise ValueError("origins must be (count, 2) arrays")
        if s1.shape[0] == 0 or s2.shape[0] == 0:
            raise ValueError("need at least one block origin per stage")
        k1, k2 = int(self.k1), int(self.k2)
        if k1 < 1 or k2 < 1:
            raise ValueError("block sizes must be positive")
        dims = (int(self.image_dims[0]), int(self.image_dims[1]))
        # int64 sums: a uint32 origin plus a block size must not wrap around
        if np.any(s1.astype(np.int64) + k1 > dims):
            raise ValueError("stage-1 block outside the image")
        if np.any(s2.astype(np.int64) + k2 > (k1, 2 * s1.shape[0])):
            raise ValueError("stage-2 block outside the feature matrix")
        if idx.size == 0 or idx.max() >= 2 * s2.shape[0] * k2:
            raise ValueError("need at least one selected index, each below hash_len")
        object.__setattr__(self, "stage1_origins", s1)
        object.__setattr__(self, "stage2_origins", s2)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "image_dims", dims)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    @property
    def key_len(self) -> int:
        return int(self.indices.size)

    @property
    def hash_len(self) -> int:
        return 2 * self.stage2_origins.shape[0] * self.k2


def _orient(vec: np.ndarray) -> np.ndarray:
    # fix the sign ambiguity of a singular vector: largest-magnitude entry positive
    peak = np.argmax(np.abs(vec))
    return -vec if vec[peak] < 0 else vec


def _leading_pair(block: np.ndarray):
    u, _, vh = np.linalg.svd(block, full_matrices=False)
    return _orient(u[:, 0]), _orient(vh[0, :])


def _svd_vector(arr: np.ndarray, helper: SvdHelper) -> np.ndarray:
    k1, k2 = helper.k1, helper.k2
    us, vs = [], []
    for r0, c0 in helper.stage1_origins:
        u, v = _leading_pair(arr[r0 : r0 + k1, c0 : c0 + k1])
        us.append(u)
        vs.append(v)
    gamma = np.column_stack(us + vs)       # k1 x 2p feature matrix
    us2, vs2 = [], []
    for r0, c0 in helper.stage2_origins:
        u, v = _leading_pair(gamma[r0 : r0 + k2, c0 : c0 + k2])
        us2.append(u)
        vs2.append(v)
    return np.concatenate(us2 + vs2)


def _cyclic_quantize(h: np.ndarray) -> np.ndarray:
    # bit i compares h[i] against its cyclic right neighbor
    return (h >= np.roll(h, -1)).astype(np.uint8)


def svd_helper(image_dims, key_len: int, rng_seed: int,
               k1: int = 48, k2: int = 16, p: int = 48, r: int = 32) -> SvdHelper:
    """Draw block origins and hash positions for a geometry; needs only its shape."""
    n1, n2 = (int(d) for d in image_dims)
    if k1 > min(n1, n2):
        raise ValueError(f"stage-1 block {k1} exceeds image {(n1, n2)}")
    if k2 > min(k1, 2 * p):
        raise ValueError(f"stage-2 block {k2} exceeds feature matrix ({k1} x {2 * p})")
    hash_len = 2 * r * k2
    if not 1 <= key_len <= hash_len:
        raise ValueError(f"key_len must be in 1..{hash_len}, got {key_len}")
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), _TAG_SVD]))
    s1 = np.column_stack(
        [rng.integers(0, n1 - k1 + 1, size=p), rng.integers(0, n2 - k1 + 1, size=p)]
    ).astype(np.uint32)
    s2 = np.column_stack(
        [rng.integers(0, k1 - k2 + 1, size=r), rng.integers(0, 2 * p - k2 + 1, size=r)]
    ).astype(np.uint32)
    indices = rng.choice(hash_len, size=key_len, replace=False).astype(np.uint32)
    return SvdHelper(k1, k2, s1, s2, indices, (n1, n2))


def svd_hash(image, helper: SvdHelper) -> BitKey:
    """Re-derive the block-SVD key for a (possibly noisy) image."""
    arr = _as_pixels(image)
    if arr.shape != helper.image_dims:
        raise ValueError(f"image shape {arr.shape} does not match helper {helper.image_dims}")
    h = _svd_vector(standardize(arr), helper)
    bits = _cyclic_quantize(h)
    return BitKey(bits[helper.indices])


# ----------------------------------------------------------------------
# dispatch by algorithm name

_HELPERS = {"rbm": rbm_helper, "svd": svd_helper}


def draw_helper(algo: str, image_dims, key_len: int, rng_seed: int):
    """Draw the named algorithm's helper for a geometry (SVD at its defaults)."""
    if algo not in _HELPERS:
        raise ValueError(f"unknown hash algo {algo!r}")
    return _HELPERS[algo](image_dims, key_len, rng_seed)


def hash_enroll(image, algo: str, key_len: int, rng_seed: int):
    """Draw a helper for the image's geometry, then hash the image once."""
    arr = _as_pixels(image)
    helper = draw_helper(algo, arr.shape, key_len, rng_seed)
    return hash_apply(arr, helper), helper


def hash_apply(image, helper) -> BitKey:
    if isinstance(helper, RbmHelper):
        return rbm_hash(image, helper)
    if isinstance(helper, SvdHelper):
        return svd_hash(image, helper)
    raise TypeError(f"not a hash helper: {helper!r}")


# ----------------------------------------------------------------------
# serialization ("PUFH", little-endian)

def helper_to_bytes(helper) -> bytes:
    if isinstance(helper, RbmHelper):
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
    if isinstance(helper, SvdHelper):
        p = helper.stage1_origins.shape[0]
        r = helper.stage2_origins.shape[0]
        return b"".join(
            [
                _MAGIC,
                le("H", _VERSION),
                le("B", _ALGO_SVD),
                le("I", helper.key_len),
                le("II", *helper.image_dims),
                le("IIII", helper.k1, helper.k2, p, r),
                helper.stage1_origins.astype("<u4").tobytes(),
                helper.stage2_origins.astype("<u4").tobytes(),
                helper.indices.astype("<u4").tobytes(),
            ]
        )
    raise TypeError(f"not a hash helper: {helper!r}")


def helper_from_bytes(data: bytes):
    r = Reader(data)
    r.expect_magic(_MAGIC, "hash helper")
    r.expect_version(_VERSION, "hash helper")
    algo = r.unpack("B")
    key_len = r.unpack("I")
    dims = r.unpack("II")
    n = dims[0] * dims[1]
    if algo == _ALGO_RBM:
        sign_bits = unpack_bits(r.take(packed_size(n)), n)
        signs = (sign_bits.astype(np.int8) * 2 - 1).astype(np.int8)
        indices = np.frombuffer(r.take(4 * key_len), dtype="<u4")
        return RbmHelper(signs, indices, dims)
    if algo == _ALGO_SVD:
        k1, k2, p, rr = r.unpack("IIII")
        s1 = np.frombuffer(r.take(8 * p), dtype="<u4").reshape(p, 2)
        s2 = np.frombuffer(r.take(8 * rr), dtype="<u4").reshape(rr, 2)
        indices = np.frombuffer(r.take(4 * key_len), dtype="<u4")
        return SvdHelper(k1, k2, s1, s2, indices, dims)
    raise ValueError(f"unknown hash helper algo {algo}")

