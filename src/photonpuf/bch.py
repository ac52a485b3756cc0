"""Binary BCH error-correcting codes over GF(2^m).

The codec is self-contained: GF(2)[x] arithmetic on python ints builds the
log/antilog field tables and the generator (from minimal polynomials), and
encoding is systematic. Each code is built once per process: ``bch_new`` is
memoized, and the code it returns is frozen, so every caller and thread
shares one immutable object. Decoding computes all 2t syndromes in one numpy
array expression over the field tables, runs Berlekamp-Massey on python
ints, and evaluates every locator term of the Chien root search in one more
array expression; a final syndrome check makes sure every corrected word is
a codeword.

The field tables are also the primitivity check: a degree-m polynomial f is
primitive iff the powers of x modulo f visit all 2^m - 1 nonzero residues
before they return to 1. Any other polynomial (reducible, or irreducible
with x of smaller order) raises ``ValueError`` before a table is used.

Decode failure is a value (``None``), not an exception: callers in the
authentication path treat it as a rejection, never as a crash.
"""

from __future__ import annotations

import functools

import numpy as np

from ._binio import Reader, le, packed_size

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

class _Frozen:
    """Refuses attribute assignment and deletion once ``_freeze`` has run.

    A constructed code is shared by every record and thread in the process
    (``bch_new`` is memoized), so nothing may change it after construction.
    """

    def _freeze(self):
        object.__setattr__(self, "_frozen", True)

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(f"{type(self).__name__} is immutable")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if getattr(self, "_frozen", False):
            raise AttributeError(f"{type(self).__name__} is immutable")
        object.__delattr__(self, name)


class _Field(_Frozen):
    def __init__(self, m: int, prim_poly: int):
        self.m = m
        self.n = (1 << m) - 1
        self.prim_poly = prim_poly
        if prim_poly >> m != 1:
            raise ValueError(f"0x{prim_poly:x} is not a polynomial of degree {m}")
        exp = [0] * (2 * self.n)
        log = [0] * (self.n + 1)
        x, i = 1, 0
        for i in range(self.n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= prim_poly
            if x == 1:
                break
        if x != 1 or i != self.n - 1:  # primitive iff x first returns to 1 at x^n
            raise ValueError(f"0x{prim_poly:x} is not primitive for m={m}")
        for i in range(self.n):
            exp[self.n + i] = exp[i]
        log[0] = -1
        self.exp = tuple(exp)   # python ints, scalar fast path
        self.log = tuple(log)
        self.exp_np = np.array(exp, dtype=np.int64)
        self.exp_np.flags.writeable = False
        self._freeze()

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def alpha_pow(self, e: int) -> int:
        return self.exp[e % self.n]


def _least_field(m: int) -> _Field:
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        try:
            return _Field(m, f)
        except ValueError:
            pass
    raise AssertionError(f"no primitive polynomial of degree {m}")


def _cyclotomic_coset(i: int, n: int):
    coset = []
    c = i % n
    while c not in coset:
        coset.append(c)
        c = (c * 2) % n
    return coset


def _minimal_poly(field: _Field, i: int) -> int:
    """Minimal polynomial over GF(2) of alpha^i, as an int encoding."""
    coeffs = [1]  # product of (x + alpha^c), coefficients live in GF(2^m)
    for c in _cyclotomic_coset(i, field.n):
        root = field.alpha_pow(c)
        nxt = [0] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            nxt[k + 1] ^= a
            nxt[k] ^= field.mul(a, root)
        coeffs = nxt
    out = 0
    for k, a in enumerate(coeffs):
        if a not in (0, 1):
            raise AssertionError("minimal polynomial has non-binary coefficient")
        out |= a << k
    return out


# ----------------------------------------------------------------------
# code construction

class BchParams(_Frozen):
    """A constructed, immutable binary BCH code.

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

    def __init__(self, field: _Field, t: int, generator_poly: int):
        self.m = field.m
        self.t = t
        self.d = 2 * t + 1
        self.n = field.n
        self.primitive_poly = field.prim_poly
        self.generator_poly = generator_poly
        self.k = self.n - _deg(generator_poly)
        if self.k <= 0:
            raise ValueError(f"BCH(m={self.m}, t={t}) has no message bits")
        self._field = field
        self._freeze()

    def __repr__(self):
        return f"BchParams(n={self.n}, k={self.k}, t={self.t})"

    def __eq__(self, other):
        return (
            isinstance(other, BchParams)
            and (self.m, self.t, self.primitive_poly, self.generator_poly)
            == (other.m, other.t, other.primitive_poly, other.generator_poly)
        )

    def __hash__(self):
        return hash((self.m, self.t, self.primitive_poly, self.generator_poly))


@functools.lru_cache(maxsize=16)
def bch_new(m: int, t: int, primitive_poly: int | None = None) -> BchParams:
    """Construct the narrow-sense binary BCH code of length 2^m - 1.

    The generator is the least common multiple of the minimal polynomials of
    alpha, alpha^3, ..., alpha^(2t-1). Raises ``ValueError`` when the
    requested correction capability leaves no message bits.

    Each code is built once per process: the result is memoized on the
    arguments and is immutable, so all callers share it. Errors are not
    memoized, and the cache holds at most 16 codes, however many distinct
    parameters stored records name.
    """
    if not 3 <= m <= 10:
        raise ValueError(f"m={m} outside supported range [3, 10]")
    if t < 1:
        raise ValueError(f"t={t} must be at least 1")
    field = _least_field(m) if primitive_poly is None else _Field(m, primitive_poly)
    gen = 1
    covered: set[int] = set()
    for i in range(1, 2 * t, 2):
        if i % field.n in covered:
            continue
        coset = _cyclotomic_coset(i, field.n)
        covered.update(coset)
        gen = _pmul(gen, _minimal_poly(field, i))
    params = BchParams(field, t, gen)
    # generator must divide x^n - 1, otherwise the construction is broken
    if _pmod((1 << params.n) | 1, gen) != 0:
        raise AssertionError("generator does not divide x^n - 1")
    return params


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
    field = params._field
    n = field.n
    degrees = (n - 1 - np.nonzero(noisy)[0]).astype(np.int64)
    j = np.arange(1, 2 * params.t + 1, dtype=np.int64)
    # S_j = XOR over set bits of alpha^(j * degree), all j at once
    return np.bitwise_xor.reduce(field.exp_np[j[:, None] * degrees % n], axis=1).tolist()


def _berlekamp_massey(params: BchParams, synd):
    """Shortest LFSR (error locator) generating the syndrome sequence.

    Returns ``(locator, L)``. The locator has no trailing zero coefficients,
    so its degree is ``len(locator) - 1``.
    """
    field = params._field
    exp, log, n = field.exp, field.log, field.n
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
    field = params._field
    n = field.n
    j = np.array([i for i, c in enumerate(locator) if c], dtype=np.int64)
    logs = np.array([field.log[c] for c in locator if c], dtype=np.int64)
    # one row per nonzero term c_j * alpha^(j*i), over every i; the locator value is their XOR
    terms = field.exp_np[(logs[:, None] + j[:, None] * np.arange(n)) % n]
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

    A stored record reuses the process's code: ``bch_new`` is memoized, so
    every record naming the same ``(m, t, primitive_poly)`` gets one shared
    object, and only the first builds the field tables.
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
    params = bch_new(m, t, primitive_poly=prim)
    if params.generator_poly != gen:
        raise ValueError("stored generator does not match construction")
    return params

