"""Binary BCH error-correcting codes over GF(2^m).

The codec is self-contained: GF(2)[x] arithmetic on python ints builds the
log/antilog field tables and the generator (from minimal polynomials), and
encoding is systematic. There is one object per code, however it is named:
``bch_new`` resolves the default primitive polynomial before a memoized
builder runs, and the code it returns is a frozen dataclass, so every
caller, stored record and thread shares one immutable object. Decoding
computes all 2t syndromes in one numpy array expression over the field
tables, runs Berlekamp-Massey on python ints, and evaluates every locator
term of the Chien root search in one more array expression; a final
syndrome check makes sure every corrected word is a codeword.

The field tables are also the primitivity check: a degree-m polynomial f is
primitive iff the powers of x modulo f visit all 2^m - 1 nonzero residues
before they return to 1. Any other polynomial (reducible, or irreducible
with x of smaller order) raises ``ValueError`` before a table is used.

Decode failure is a value (``None``), not an exception: callers in the
authentication path treat it as a rejection, never as a crash.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._binio import Reader, frozen_array, le, packed_size

__all__ = [
    "BchParams",
    "bch_new",
    "encode",
    "decode",
    "params_to_bytes",
    "params_from_bytes",
]

_MAGIC = b"PUFB"
# the code the service and the CLI enroll with by default: BCH(255, t=31), k = 55
DEFAULT_M, DEFAULT_T = 8, 31


# ----------------------------------------------------------------------
# polynomials over GF(2), encoded as python ints (bit i = coefficient of x^i)

def _deg(p: int) -> int:
    return p.bit_length() - 1


def _pmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pmod(a: int, b: int) -> int:
    db = _deg(b)
    da = _deg(a)
    while da >= db:
        a ^= b << (da - db)
        da = _deg(a)
    return a


# ----------------------------------------------------------------------
# GF(2^m) field tables

# the least primitive polynomial of each degree, the field a code gets by default
_LEAST_PRIMITIVE = {3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11D, 9: 0x211, 10: 0x409}


class _Tables(NamedTuple):
    """Antilog and log tables of GF(2^m); ``exp`` runs twice over, so index sums need no modulo."""

    exp: tuple          # python ints, scalar fast path
    log: tuple
    exp_np: np.ndarray  # ``exp`` again, read-only, for the array forms


def _field_tables(m: int, prim_poly: int) -> _Tables:
    n = (1 << m) - 1
    if prim_poly >> m != 1:
        raise ValueError(f"0x{prim_poly:x} is not a polynomial of degree {m}")
    exp = [0] * (2 * n)
    log = [0] * (n + 1)
    x, i = 1, 0
    for i in range(n):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= prim_poly
        if x == 1:
            break
    if x != 1 or i != n - 1:  # primitive iff x first returns to 1 at x^n
        raise ValueError(f"0x{prim_poly:x} is not primitive for m={m}")
    exp[n:] = exp[:n]
    log[0] = -1
    return _Tables(tuple(exp), tuple(log), frozen_array(exp, np.int64))


def _cyclotomic_coset(i: int, n: int):
    coset = []
    c = i % n
    while c not in coset:
        coset.append(c)
        c = (c * 2) % n
    return coset


def _minimal_poly(tables: _Tables, n: int, i: int) -> int:
    """Minimal polynomial over GF(2) of alpha^i, as an int encoding."""
    exp, log = tables.exp, tables.log
    coeffs = [1]  # product of (x + alpha^c), coefficients live in GF(2^m)
    for c in _cyclotomic_coset(i, n):
        nxt = [0] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            nxt[k + 1] ^= a
            if a:
                nxt[k] ^= exp[log[a] + c]  # a * alpha^c
        coeffs = nxt
    out = 0
    for k, a in enumerate(coeffs):
        if a not in (0, 1):
            raise AssertionError("minimal polynomial has non-binary coefficient")
        out |= a << k
    return out


# ----------------------------------------------------------------------
# code construction

@dataclass(frozen=True)
class BchParams:
    """A constructed binary BCH code: frozen, and one shared object per code.

    Equality and hashing are by ``(m, t, primitive_poly, generator_poly)``;
    the field tables ride along uncompared.

    Attributes
    ----------
    m : int
        Field extension degree; code length is ``n = 2**m - 1``.
    n : int
        Code length in bits.
    k : int
        Message length in bits.
    t : int
        Guaranteed correction capability (design distance ``d = 2 t + 1``).
    generator_poly : int
        Generator polynomial, bit i = coefficient of x^i.
    primitive_poly : int
        Primitive polynomial defining the field representation.
    """

    m: int
    t: int
    primitive_poly: int
    generator_poly: int = field(repr=False)
    _tables: _Tables = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return (1 << self.m) - 1

    @property
    def k(self) -> int:
        return self.n - _deg(self.generator_poly)

    @property
    def d(self) -> int:
        return 2 * self.t + 1


def bch_new(m: int, t: int, primitive_poly: int | None = None) -> BchParams:
    """Construct the narrow-sense binary BCH code of length 2^m - 1.

    The generator is the least common multiple of the minimal polynomials of
    alpha, alpha^3, ..., alpha^(2t-1). ``primitive_poly=None`` picks the least
    primitive polynomial of degree m. Raises ``ValueError`` when the
    requested correction capability leaves no message bits.

    There is one object per code, however it is named: the default
    polynomial is resolved before the memoized builder runs, so
    ``bch_new(8, 31)`` and ``bch_new(8, 31, primitive_poly=0x11D)`` return
    the same frozen code. Errors are not memoized, and the cache holds at
    most 16 codes, however many distinct parameters stored records name.
    """
    if not 3 <= m <= 10:
        raise ValueError(f"m={m} outside supported range [3, 10]")
    if t < 1:
        raise ValueError(f"t={t} must be at least 1")
    return _build(m, t, _LEAST_PRIMITIVE[m] if primitive_poly is None else primitive_poly)


@functools.lru_cache(maxsize=16)
def _build(m: int, t: int, primitive_poly: int) -> BchParams:
    tables = _field_tables(m, primitive_poly)
    n = (1 << m) - 1
    gen = 1
    covered: set[int] = set()
    for i in range(1, 2 * t, 2):
        if i % n in covered:
            continue
        covered.update(_cyclotomic_coset(i, n))
        gen = _pmul(gen, _minimal_poly(tables, n, i))
    if _deg(gen) >= n:
        raise ValueError(f"BCH(m={m}, t={t}) has no message bits")
    # generator must divide x^n - 1, otherwise the construction is broken
    if _pmod((1 << n) | 1, gen) != 0:
        raise AssertionError("generator does not divide x^n - 1")
    return BchParams(m, t, primitive_poly, gen, tables)


# ----------------------------------------------------------------------
# encode / decode

def _bits_to_poly(bits: np.ndarray) -> int:
    # bits[0] is the highest-degree coefficient; packbits pads the tail with zeros
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)


def _poly_to_bits(p: int, width: int) -> np.ndarray:
    pad = -width % 8
    data = (p << pad).to_bytes((width + pad) // 8, "big")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=width)


def encode(params: BchParams, secret) -> np.ndarray:
    """Systematically encode ``k`` secret bits into an ``n``-bit codeword.

    The codeword starts with the message bits, followed by the parity bits.
    """
    secret = np.asarray(secret, dtype=np.uint8).ravel()
    if secret.size != params.k:
        raise ValueError(f"secret must be {params.k} bits, got {secret.size}")
    if np.any(secret > 1):
        raise ValueError("secret must be binary")
    shifted = _bits_to_poly(secret) << (params.n - params.k)
    codeword = shifted ^ _pmod(shifted, params.generator_poly)
    return _poly_to_bits(codeword, params.n)


def _syndromes(params: BchParams, noisy: np.ndarray):
    """Power-sum syndromes S_1..S_2t of a received word."""
    exp_np, n = params._tables.exp_np, params.n
    degrees = (n - 1 - np.nonzero(noisy)[0]).astype(np.int64)
    j = np.arange(1, 2 * params.t + 1, dtype=np.int64)
    # S_j = XOR over set bits of alpha^(j * degree), all j at once
    return np.bitwise_xor.reduce(exp_np[j[:, None] * degrees % n], axis=1).tolist()


def _berlekamp_massey(params: BchParams, synd):
    """Shortest LFSR (error locator) generating the syndrome sequence.

    Returns ``(locator, L)``. The locator has no trailing zero coefficients,
    so its degree is ``len(locator) - 1``.
    """
    exp, log, n = params._tables.exp, params._tables.log, params.n
    c = [1]
    b = [1]
    L = 0
    shift = 1
    bb = 1
    for r in range(len(synd)):
        d = synd[r]
        for i in range(1, min(L, len(c) - 1) + 1):
            ci = c[i]
            si = synd[r - i]
            if ci and si:
                d ^= exp[log[ci] + log[si]]
        if d == 0:
            shift += 1
            continue
        coef_log = (log[d] - log[bb]) % n
        prev = c.copy()
        need = len(b) + shift
        if len(c) < need:
            c.extend([0] * (need - len(c)))
        for i, bi in enumerate(b):
            if bi:
                c[i + shift] ^= exp[(coef_log + log[bi]) % n]
        if 2 * L <= r:
            L = r + 1 - L
            b = prev
            bb = d
            shift = 1
        else:
            shift += 1
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c, L


def _chien(params: BchParams, locator):
    """Roots of the locator by evaluation at every field element; returns the error degrees."""
    tables, n = params._tables, params.n
    j = np.array([i for i, c in enumerate(locator) if c], dtype=np.int64)
    logs = np.array([tables.log[c] for c in locator if c], dtype=np.int64)
    # one row per nonzero term c_j * alpha^(j*i), over every i; the locator value is their XOR
    terms = tables.exp_np[(logs[:, None] + j[:, None] * np.arange(n)) % n]
    roots = np.nonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)[0]
    return (n - roots) % n


def decode(params: BchParams, noisy) -> tuple[np.ndarray, int] | None:
    """Correct up to ``t`` bit errors and return ``(secret, n_corrected)``.

    Returns ``None`` when the error pattern is unlocatable. Words further
    than ``t`` from every codeword either fail this way or land on a wrong
    codeword; within distance ``t`` the original message is always returned.
    """
    noisy = np.asarray(noisy, dtype=np.uint8).ravel()
    if noisy.size != params.n:
        raise ValueError(f"received word must be {params.n} bits, got {noisy.size}")
    if np.any(noisy > 1):
        raise ValueError("received word must be binary")

    synd = _syndromes(params, noisy)
    if not any(synd):
        return noisy[: params.k].copy(), 0

    locator, n_err = _berlekamp_massey(params, synd)
    if n_err > params.t or len(locator) - 1 != n_err:
        return None
    error_degrees = _chien(params, locator)
    if len(error_degrees) != n_err:
        return None

    corrected = noisy.copy()
    corrected[params.n - 1 - error_degrees] ^= 1
    if any(_syndromes(params, corrected)):
        return None
    return corrected[: params.k], n_err


# ----------------------------------------------------------------------
# serialization ("PUFB", little-endian)

_VERSION = 1


def params_to_bytes(params: BchParams) -> bytes:
    # the generator's bits, coefficient of x^0 first: its little-endian bytes
    n_bits = params.generator_poly.bit_length()
    return b"".join(
        [
            _MAGIC,
            le("H", _VERSION),
            le("B", params.m),
            le("H", params.t),
            le("I", params.primitive_poly),
            le("I", n_bits),
            params.generator_poly.to_bytes(packed_size(n_bits), "little"),
        ]
    )


def params_from_bytes(data: bytes) -> BchParams:
    """Parse a stored code and check its generator against the construction.

    A stored record reuses the process's code: there is one object per
    code, however it is named, so a record of the default code gets the very
    object ``bch_new(m, t)`` returns, and only the first use builds the
    field tables.
    """
    r = Reader(data)
    r.expect_magic(_MAGIC, "BCH parameter")
    r.expect_version(_VERSION, "BCH parameter")
    m = r.unpack("B")
    t = r.unpack("H")
    prim = r.unpack("I")
    n_bits = r.unpack("I")
    # bits past n_bits in the last byte are padding and ignored
    gen = int.from_bytes(r.take(packed_size(n_bits)), "little") & ((1 << n_bits) - 1)
    r.expect_end("BCH parameters")
    params = bch_new(m, t, primitive_poly=prim)
    if params.generator_poly != gen:
        raise ValueError("stored generator does not match construction")
    return params

