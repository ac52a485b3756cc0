"""Small helpers for the fixed little-endian binary containers.

Every on-disk artifact in this package starts with a 4 byte magic string and is
parsed through :class:`Reader` so that bad magic, unknown versions, short
reads and trailing bytes surface as distinct exceptions.

Keys, code offsets and random streams are flat 0/1 ``uint8`` arrays, written as
the counted bit string: a u32 bit count, then the bits packed LSB first
(``counted_bits``; read back by ``Reader.counted_bits`` and ``bits_from_bytes``).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagicError, FormatError, TruncatedError, UnsupportedVersionError


def as_bits(x) -> np.ndarray:
    """A 0/1 sequence as a flat uint8 array; ``ValueError`` on any other value."""
    bits = np.asarray(x, dtype=np.uint8).ravel()
    if np.any(bits > 1):
        raise ValueError("bits must be binary")
    return bits


def pack_bits(bits) -> bytes:
    """Pack a 0/1 array into bytes, least significant bit first."""
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    return np.packbits(arr, bitorder="little").tobytes()


def unpack_bits(data: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns exactly ``n`` bits."""
    if len(data) * 8 < n:
        raise TruncatedError(f"need {n} bits, got {len(data) * 8}")
    arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return arr[:n].copy()


def counted_bits(bits) -> bytes:
    """The counted bit string: u32 bit count, then the bits packed LSB first."""
    bits = as_bits(bits)
    return le("I", bits.size) + pack_bits(bits)


def bits_from_bytes(data: bytes) -> np.ndarray:
    """Inverse of :func:`counted_bits`; the blob must end with the bits."""
    r = Reader(data)
    bits = r.counted_bits()
    r.expect_end("bit string")
    return bits


def frozen_array(x, dtype=None) -> np.ndarray:
    """Contiguous read-only copy: a frozen container never shares its caller's buffer."""
    arr = np.array(x, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def packed_size(n_bits: int) -> int:
    return (n_bits + 7) // 8


class Reader:
    """Cursor over immutable bytes with truncation-checked reads."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise TruncatedError(
                f"need {n} bytes at offset {self._pos}, only {len(self._data) - self._pos} left"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def unpack(self, fmt: str):
        vals = struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))
        return vals[0] if len(vals) == 1 else vals

    def counted_bits(self) -> np.ndarray:
        n = self.unpack("I")
        return unpack_bits(self.take(packed_size(n)), n)

    def expect_magic(self, magic: bytes, what: str):
        got = self.take(len(magic))
        if got != magic:
            raise BadMagicError(f"not a {what} container (magic {got!r}, expected {magic!r})")

    def expect_version(self, supported: int, what: str):
        version = self.unpack("H")
        if version != supported:
            raise UnsupportedVersionError(f"{what} container version {version} not supported")
        return version

    def expect_end(self, what: str):
        extra = len(self._data) - self._pos
        if extra:
            raise FormatError(f"{extra} trailing bytes after the {what}")


def le(fmt: str, *vals) -> bytes:
    return struct.pack("<" + fmt, *vals)
