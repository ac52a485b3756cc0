"""BCH codec tests.

Expected generator polynomials and code dimensions are frozen from
independent textbook computations done inside this file (tiny reimplementation
of GF(2)[x] products and cyclotomic coset sizes), not from the module under
test.
"""

import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpuf import bch
from photonpuf.errors import BadMagicError, TruncatedError, UnsupportedVersionError
from photonpuf.protocol import record_from_bytes


# ---------------------------------------------------------------- oracles

def oracle_pmul(a, b):
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def oracle_pmod(a, b):
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def oracle_is_irreducible(f, m):
    for q in range(2, 1 << (m // 2 + 1)):
        if q.bit_length() - 1 < 1:
            continue
        if oracle_pmod(f, q) == 0:
            return False
    return True


def oracle_multiplicative_order_of_x(f, m):
    # repeated multiplication by x modulo f, counting steps back to 1
    x = 2 % f
    acc = x
    order = 1
    while acc != 1:
        acc = oracle_pmod(acc << 1, f)
        order += 1
        if order > (1 << m):
            return None
    return order


def oracle_least_primitive(m):
    n = (1 << m) - 1
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        if oracle_is_irreducible(f, m) and oracle_multiplicative_order_of_x(f, m) == n:
            return f
    raise AssertionError


def oracle_coset_sizes(m, t):
    n = (1 << m) - 1
    seen = set()
    total = 0
    for i in range(1, 2 * t, 2):
        if i % n in seen:
            continue
        coset = set()
        c = i % n
        while c not in coset:
            coset.add(c)
            c = (c * 2) % n
        seen |= coset
        total += len(coset)
    return total


# ---------------------------------------------------------------- construction

def test_least_primitive_polynomials():
    # frozen expectations, recomputed here by the independent oracle
    expected = {m: oracle_least_primitive(m) for m in range(3, 11)}
    assert bch._LEAST_PRIMITIVE == expected
    for m in range(3, 11):
        assert bch.bch_new(m, 1).primitive_poly == expected[m]
    # a few anchors verified by hand: x^3+x+1, x^4+x+1, x^5+x^2+1, x^7+x+1
    assert bch.bch_new(3, 1).primitive_poly == 0b1011
    assert bch.bch_new(4, 1).primitive_poly == 0b10011
    assert bch.bch_new(5, 1).primitive_poly == 0b100101
    assert bch.bch_new(7, 1).primitive_poly == 0b10000011


@pytest.mark.parametrize("m", range(3, 9))
def test_field_accepts_exactly_the_primitive_polynomials(m):
    n = (1 << m) - 1
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        if oracle_is_irreducible(f, m) and oracle_multiplicative_order_of_x(f, m) == n:
            assert bch.bch_new(m, 1, primitive_poly=f).primitive_poly == f
        else:
            with pytest.raises(ValueError):
                bch.bch_new(m, 1, primitive_poly=f)


@pytest.mark.parametrize(
    "m,t,n,k",
    [
        (4, 1, 15, 11),
        (4, 2, 15, 7),
        (4, 3, 15, 5),
        (5, 1, 31, 26),
        (5, 2, 31, 21),
        (5, 3, 31, 16),
    ],
)
def test_code_dimensions(m, t, n, k):
    params = bch.bch_new(m, t)
    assert (params.n, params.k, params.t) == (n, k, t)
    assert params.k == params.n - oracle_coset_sizes(m, t)


def test_known_generators():
    # textbook generators assembled from minimal polynomials with the oracle
    g1 = 0b10011                          # m_1(x) for the length-15 field
    g2 = oracle_pmul(g1, 0b11111)         # lcm(m_1, m_3)
    g3 = oracle_pmul(g2, 0b111)           # lcm(m_1, m_3, m_5)
    assert bch.bch_new(4, 1).generator_poly == g1
    assert bch.bch_new(4, 2).generator_poly == g2
    assert g3 == 0b10100110111
    assert bch.bch_new(4, 3).generator_poly == g3


def test_generator_divides_whole_space():
    for m, t in [(4, 2), (5, 3), (8, 10)]:
        params = bch.bch_new(m, t)
        assert oracle_pmod((1 << params.n) | 1, params.generator_poly) == 0


def test_large_codes_have_room():
    # the two deployments exercised elsewhere in the package
    p255 = bch.bch_new(8, 31)
    assert p255.n == 255 and p255.k > 0
    assert p255.k == 255 - oracle_coset_sizes(8, 31)
    p511 = bch.bch_new(9, 51)
    assert p511.n == 511 and p511.k > 0
    assert p511.k == 511 - oracle_coset_sizes(9, 51)


def test_overlong_t_rejected():
    # t=7 still leaves the one-bit repetition code; t=8 pulls in the coset
    # of alpha^0 and exhausts all 15 positions.
    assert bch.bch_new(4, 7).k == 1
    with pytest.raises(ValueError):
        bch.bch_new(4, 8)
    with pytest.raises(ValueError):
        bch.bch_new(3, 0)
    with pytest.raises(ValueError):
        bch.bch_new(2, 1)


# ---------------------------------------------------------------- one code per process

def test_each_code_is_built_once_and_shared():
    assert bch.bch_new(8, 31) is bch.bch_new(8, 31)
    # one object per code, however it is named: a stored record names the polynomial
    bch._build.cache_clear()
    params = bch.bch_new(8, 31)
    assert params is bch.params_from_bytes(bch.params_to_bytes(params))
    assert params is bch.bch_new(8, 31, primitive_poly=0x11D)
    assert bch._build.cache_info().currsize == 1
    blob = (pathlib.Path(__file__).parent / "data" / "rbm_8x8_64x64_seed3.pufr").read_bytes()
    assert record_from_bytes(blob).bch_params is record_from_bytes(blob).bch_params


def test_non_primitive_polynomial_raises_on_every_call():
    # 0x11B is irreducible, but x has order 51, not 255; errors are not memoized
    for _ in range(2):
        with pytest.raises(ValueError):
            bch.bch_new(8, 4, primitive_poly=0x11B)


def test_code_cache_is_bounded():
    for m in range(3, 11):
        for t in (1, 2, 3):
            bch.bch_new(m, t)
    assert bch._build.cache_info().maxsize == 16
    assert bch._build.cache_info().currsize <= 16


def test_shared_code_is_immutable():
    params = bch.bch_new(5, 3)
    tables = params._tables
    blob = bch.params_to_bytes(params)
    for target, name in ((params, "t"), (params, "generator_poly"), (params, "_tables"),
                         (tables, "exp"), (tables, "exp_np")):
        with pytest.raises(AttributeError):
            setattr(target, name, None)
        with pytest.raises(AttributeError):
            delattr(target, name)
    with pytest.raises(ValueError):
        tables.exp_np[1] = 0
    assert (params.t, params.n, tables.exp[1], tables.exp_np[1]) == (3, 31, 2, 2)
    assert bch.params_to_bytes(params) == blob


# ---------------------------------------------------------------- encoding

def test_encode_zero_is_zero():
    params = bch.bch_new(4, 3)
    assert not bch.encode(params, np.zeros(5, dtype=np.uint8)).any()


def test_encode_is_systematic():
    params = bch.bch_new(4, 3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        secret = rng.integers(0, 2, params.k).astype(np.uint8)
        cw = bch.encode(params, secret)
        assert np.array_equal(cw[: params.k], secret)


def test_encode_linear():
    params = bch.bch_new(5, 2)
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.integers(0, 2, params.k).astype(np.uint8)
        b = rng.integers(0, 2, params.k).astype(np.uint8)
        assert np.array_equal(
            bch.encode(params, a ^ b), bch.encode(params, a) ^ bch.encode(params, b)
        )


def test_minimum_distance_exhaustive_15_5():
    # by linearity the minimum distance is the minimum nonzero codeword weight
    params = bch.bch_new(4, 3)
    weights = []
    for msg in range(1, 1 << params.k):
        secret = np.array([(msg >> i) & 1 for i in range(params.k)], dtype=np.uint8)
        weights.append(int(bch.encode(params, secret).sum()))
    assert min(weights) >= params.d
    assert min(weights) == 7


def test_encode_rejects_bad_lengths():
    params = bch.bch_new(4, 1)
    with pytest.raises(ValueError):
        bch.encode(params, np.zeros(10, dtype=np.uint8))
    with pytest.raises(ValueError):
        bch.decode(params, np.zeros(14, dtype=np.uint8))


# ---------------------------------------------------------------- decoding

def all_weight_patterns(n, max_w):
    """All binary words of length n and weight <= max_w, as uint8 rows."""
    from itertools import combinations

    rows = [np.zeros(n, dtype=np.uint8)]
    for w in range(1, max_w + 1):
        for pos in combinations(range(n), w):
            row = np.zeros(n, dtype=np.uint8)
            row[list(pos)] = 1
            rows.append(row)
    return np.array(rows)


def test_decode_clean():
    params = bch.bch_new(5, 3)
    rng = np.random.default_rng(9)
    secret = rng.integers(0, 2, params.k).astype(np.uint8)
    out = bch.decode(params, bch.encode(params, secret))
    assert out is not None
    msg, n_err = out
    assert n_err == 0
    assert np.array_equal(msg, secret)


def test_decode_exhaustive_15_5_full_radius():
    params = bch.bch_new(4, 3)
    patterns = all_weight_patterns(params.n, params.t)
    for msg in range(1 << params.k):
        secret = np.array([(msg >> i) & 1 for i in range(params.k)], dtype=np.uint8)
        cw = bch.encode(params, secret)
        for e in patterns:
            out = bch.decode(params, cw ^ e)
            assert out is not None
            assert np.array_equal(out[0], secret)
            assert out[1] == int(e.sum())


def test_decode_exhaustive_7_4_hamming():
    params = bch.bch_new(3, 1)
    assert (params.n, params.k) == (7, 4)
    patterns = all_weight_patterns(7, 1)
    for msg in range(16):
        secret = np.array([(msg >> i) & 1 for i in range(4)], dtype=np.uint8)
        cw = bch.encode(params, secret)
        for e in patterns:
            out = bch.decode(params, cw ^ e)
            assert out is not None and np.array_equal(out[0], secret)


def test_beyond_radius_never_silently_inconsistent():
    # weight t+1 errors must either fail or land on some valid codeword
    params = bch.bch_new(4, 2)
    rng = np.random.default_rng(10)
    for _ in range(300):
        secret = rng.integers(0, 2, params.k).astype(np.uint8)
        cw = bch.encode(params, secret)
        pos = rng.choice(params.n, size=params.t + 1, replace=False)
        noisy = cw.copy()
        noisy[pos] ^= 1
        out = bch.decode(params, noisy)
        if out is not None:
            msg, n_err = out
            recoded = bch.encode(params, msg)
            assert n_err <= params.t
            assert int((recoded ^ noisy).sum()) == n_err


def alpha_pow(params, e):
    return params._tables.exp[e % params.n]


def gf_mul(params, a, b):
    exp, log = params._tables.exp, params._tables.log
    return 0 if a == 0 or b == 0 else exp[log[a] + log[b]]


def scalar_syndromes(params, word):
    degrees = [params.n - 1 - p for p in np.nonzero(word)[0]]
    out = []
    for j in range(1, 2 * params.t + 1):
        s = 0
        for d in degrees:
            s ^= alpha_pow(params, j * d)
        out.append(s)
    return out


def scalar_chien(params, locator):
    # a root alpha^i of the locator marks an error at degree -i mod n
    degrees = []
    for i in range(params.n):
        x, xj, value = alpha_pow(params, i), 1, 0
        for c in locator:
            value ^= gf_mul(params, c, xj)
            xj = gf_mul(params, xj, x)
        if value == 0:
            degrees.append((params.n - i) % params.n)
    return sorted(degrees)


@pytest.mark.parametrize(
    "m,t", [(3, 1), (4, 3), (5, 5), (6, 7), (7, 10), (8, 31), (9, 20), (10, 25)]
)
def test_array_syndromes_and_chien_match_scalar_reference(m, t):
    params = bch.bch_new(m, t)
    rng = np.random.default_rng(m)
    for w in range(t + 4):
        word = np.zeros(params.n, dtype=np.uint8)
        word[rng.choice(params.n, size=w, replace=False)] = 1
        synd = bch._syndromes(params, word)
        assert synd == scalar_syndromes(params, word)
        locator, _ = bch._berlekamp_massey(params, synd)
        assert sorted(bch._chien(params, locator).tolist()) == scalar_chien(params, locator)


@pytest.mark.parametrize("m,t", [(6, 3), (7, 5), (8, 31)])
def test_roundtrip_randomized(m, t):
    params = bch.bch_new(m, t)
    rng = np.random.default_rng(100 + m)
    for _ in range(200):
        secret = rng.integers(0, 2, params.k).astype(np.uint8)
        cw = bch.encode(params, secret)
        w = rng.integers(0, params.t + 1)
        noisy = cw.copy()
        if w:
            pos = rng.choice(params.n, size=w, replace=False)
            noisy[pos] ^= 1
        out = bch.decode(params, noisy)
        assert out is not None
        assert np.array_equal(out[0], secret)
        assert out[1] == w


@settings(max_examples=60, deadline=None)
@given(
    mt=st.sampled_from([(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)]),
    data=st.data(),
)
def test_roundtrip_property(mt, data):
    m, t = mt
    params = bch.bch_new(m, t)
    secret = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=params.k, max_size=params.k)),
        dtype=np.uint8,
    )
    w = data.draw(st.integers(0, t))
    pos = data.draw(
        st.lists(st.integers(0, params.n - 1), min_size=w, max_size=w, unique=True)
    )
    noisy = bch.encode(params, secret)
    for p in pos:
        noisy[p] ^= 1
    out = bch.decode(params, noisy)
    assert out is not None
    assert np.array_equal(out[0], secret)


# ---------------------------------------------------------------- serialization

def test_params_roundtrip():
    params = bch.bch_new(8, 31)
    blob = bch.params_to_bytes(params)
    out = bch.params_from_bytes(blob)
    assert out == params
    assert out.k == params.k


def test_params_bad_magic():
    blob = bytearray(bch.params_to_bytes(bch.bch_new(4, 1)))
    blob[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        bch.params_from_bytes(bytes(blob))


def test_params_bad_version():
    blob = bytearray(bch.params_to_bytes(bch.bch_new(4, 1)))
    blob[4] = 99
    with pytest.raises(UnsupportedVersionError):
        bch.params_from_bytes(bytes(blob))


def test_params_truncated():
    blob = bch.params_to_bytes(bch.bch_new(4, 1))
    with pytest.raises(TruncatedError):
        bch.params_from_bytes(blob[:-2])


def test_params_generator_must_match_construction():
    blob = bytearray(bch.params_to_bytes(bch.bch_new(8, 4)))
    blob[17] ^= 0x02                        # x^1 of the generator, after the bit count
    with pytest.raises(ValueError, match="stored generator"):
        bch.params_from_bytes(bytes(blob))


@pytest.mark.parametrize("prim", [3, 0, 0x11D | 1 << 20, 0x11B])
def test_params_non_primitive_polynomial_rejected(prim):
    # a stored polynomial that is not primitive of degree m must fail as a
    # format problem, not index past the field tables; 0x11B is irreducible
    # but x has order 51, not 255
    blob = bytearray(bch.params_to_bytes(bch.bch_new(8, 4)))
    blob[9:13] = struct.pack("<I", prim)    # after magic, version, m and t
    with pytest.raises(ValueError):
        bch.params_from_bytes(bytes(blob))
