"""Fuzzy commitment: recovery radius, secrecy hygiene, record container.

The recovery oracle is exhaustive: for a code with distance-t correction,
every perturbation of the authentication key by at most t bits must hand back
the exact enrollment key, and the published record must be independent of
both the key and the committed secret except through the one-time-pad offset.
"""

import dataclasses
import itertools
import pathlib
import struct

import numpy as np
import pytest

from photonpuf import bch, errors, protocol
from photonpuf._binio import counted_bits
from photonpuf.hashing import (
    RbmHelper,
    hash_apply,
    helper_from_bytes,
    helper_to_bytes,
    rbm_helper,
)
from photonpuf.protocol import (
    authenticate,
    enroll,
    key_digest,
    load_record,
    record_from_bytes,
    record_to_bytes,
    recover_key,
    save_record,
    verify,
)
from photonpuf.token import (
    NoiseParams,
    PixelPattern,
    challenge_to_bytes,
    new_token,
    random_pattern,
    respond,
    token_id,
)

RNG = np.random.default_rng(20260814)

PARAMS15 = bch.bch_new(4, 3)     # BCH(15, 5, t=3)


class ReplayedEntropy:
    """Stands in for ``secrets`` inside ``protocol``: fixed draws from a seed.

    BCH(15, 5, t=3) commits 5 secret bits to a 15-bit key, so fresh draws
    pick the zero secret (an all-zero code offset mask) 1 time in 32, and a
    mapping under which an unrelated 16x16 image lands within t bits of the
    enrolled key about 1 time in 26. Tests whose assertions those draws
    decide replay fixed ones instead.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def randbits(self, k):
        return int(self._rng.integers(1 << min(k, 62)))

    def token_bytes(self, n):
        return self._rng.bytes(n)


@pytest.fixture()
def replayed_entropy(monkeypatch):
    monkeypatch.setattr(protocol, "secrets", ReplayedEntropy(7))


def fresh_image(rng=RNG, shape=(16, 16)):
    return rng.exponential(scale=50.0, size=shape)


def flip(key: np.ndarray, positions) -> np.ndarray:
    bits = key.copy()
    for p in positions:
        bits[p] ^= 1
    return bits


# ---------------------------------------------------------------- enrollment

def test_enroll_returns_key_and_matching_record():
    img = fresh_image()
    key, record = enroll(img, PARAMS15, token_id=b"T" * 16)
    assert key.dtype == np.uint8 and key.shape == (15,)
    assert record.token_id == b"T" * 16
    assert len(record.record_id) == 16
    assert record.code_offset.size == 15
    assert verify(key, record)
    # helper re-derives the very same key from the clean image
    assert np.array_equal(hash_apply(img, record.hash_helper), key)


def test_enroll_without_seed_is_fresh():
    img = fresh_image(np.random.default_rng(4))
    k1, r1 = enroll(img, PARAMS15)
    k2, r2 = enroll(img, PARAMS15)
    assert helper_to_bytes(r1.hash_helper) != helper_to_bytes(r2.hash_helper)
    assert r1.record_id != r2.record_id
    assert verify(k1, r1) and verify(k2, r2)


# ---------------------------------------------------------------- recovery

def test_recovery_exhaustive_within_radius():
    # every 0..3-bit perturbation of a BCH(15,5,t=3) commitment must round-trip
    img = fresh_image(np.random.default_rng(11))
    key, record = enroll(img, PARAMS15)
    for w in range(PARAMS15.t + 1):
        for positions in itertools.combinations(range(15), w):
            got = recover_key(flip(key, positions), record)
            assert got is not None, f"decode failed at weight {w}"
            recovered, corrected = got
            assert np.array_equal(recovered, key)
            assert corrected == w
            assert verify(recovered, record)


def test_recovery_beyond_radius_never_verifies():
    # weight t+1 errors either fail to decode or land on a wrong key
    img = fresh_image(np.random.default_rng(12))
    key, record = enroll(img, PARAMS15)
    for positions in itertools.islice(itertools.combinations(range(15), 4), 200):
        got = recover_key(flip(key, positions), record)
        if got is not None:
            recovered, _ = got
            assert not verify(recovered, record)


def test_authenticate_applies_stored_helper(replayed_entropy):
    img = fresh_image(np.random.default_rng(13))
    key, record = enroll(img, PARAMS15)
    got = authenticate(img, record)
    assert got is not None and np.array_equal(got[0], key) and got[1] == 0
    # unrelated image of the same geometry should not verify
    other = authenticate(fresh_image(np.random.default_rng(99)), record)
    assert other is None or not verify(other[0], record)


def test_recover_key_length_guard():
    _, record = enroll(fresh_image(), PARAMS15)
    with pytest.raises(ValueError):
        recover_key(np.zeros(31, dtype=np.uint8), record)


# ---------------------------------------------------------------- secrecy

def test_record_bytes_leak_neither_key_nor_digest_preimage(replayed_entropy):
    # the packed key must not appear in the serialized record; the offset must
    # differ from the raw key wherever the codeword has support
    img = fresh_image(np.random.default_rng(21))
    key, record = enroll(img, PARAMS15)
    blob = record_to_bytes(record)
    packed = np.packbits(key, bitorder="little").tobytes()
    assert packed not in blob
    codeword = key ^ record.code_offset
    assert codeword.any()            # offset is a real mask, not the key itself
    # digest is one-way: the record stores SHA-256(key), not key material
    assert record.key_digest == key_digest(key)
    assert counted_bits(key) not in blob


def test_code_offset_masks_secret_uniformly():
    # two enrollments of the same image with different seeds give different
    # offsets: the mask depends on the committed secret, not the image alone
    img = fresh_image(np.random.default_rng(22))
    _, r1 = enroll(img, PARAMS15)
    _, r2 = enroll(img, PARAMS15)
    assert not np.array_equal(r1.code_offset, r2.code_offset)


# ---------------------------------------------------------------- digests, framing

def test_key_digest_is_sha256_of_wire_form():
    import hashlib
    # every stored record's digest hashes these bytes: u32 count 7, then 1011001 LSB first
    expected = hashlib.sha256(bytes.fromhex("07000000" "4d")).digest()
    assert key_digest([1, 0, 1, 1, 0, 0, 1]) == expected


# ---------------------------------------------------------------- container

def test_record_roundtrip_with_challenge(tmp_path):
    chal = random_pattern((16, 16), 5)
    img = fresh_image(np.random.default_rng(31))
    key, record = enroll(img, PARAMS15,
                         token_id=b"A" * 16, challenge=chal)
    back = record_from_bytes(record_to_bytes(record))
    assert back.record_id == record.record_id
    assert back.token_id == record.token_id
    assert np.array_equal(back.code_offset, record.code_offset)
    assert back.key_digest == record.key_digest
    assert np.array_equal(back.challenge.mask, chal.mask)
    assert (back.bch_params.n, back.bch_params.k) == (15, 5)
    # recovery works through the round-tripped record
    got = authenticate(img, back)
    assert got is not None and verify(got[0], back)
    path = tmp_path / "cred.pufr"
    save_record(record, path)
    assert load_record(path).record_id == record.record_id


def test_dark_challenge_is_rejected_at_enroll_and_parse():
    # a mask that lights no pixel captures only noise: no recapture could recover the key
    img = fresh_image(np.random.default_rng(36))
    dark = PixelPattern(np.zeros((16, 16), np.uint8))
    with pytest.raises(ValueError, match="lights no pixel"):
        enroll(img, PARAMS15, challenge=dark)
    lit = random_pattern((16, 16), 5)
    blob = record_to_bytes(enroll(img, PARAMS15, challenge=lit)[1])
    patched = blob.replace(challenge_to_bytes(lit), challenge_to_bytes(dark))
    assert len(patched) == len(blob) and patched != blob
    with pytest.raises(ValueError, match="lights no pixel"):
        record_from_bytes(patched)


def test_record_roundtrip_without_challenge():
    img = fresh_image(np.random.default_rng(32))
    _, record = enroll(img, PARAMS15)
    back = record_from_bytes(record_to_bytes(record))
    assert back.challenge is None


def test_record_container_errors():
    img = fresh_image(np.random.default_rng(33))
    _, record = enroll(img, PARAMS15)
    blob = record_to_bytes(record)
    with pytest.raises(errors.BadMagicError):
        record_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(errors.UnsupportedVersionError):
        record_from_bytes(blob[:4] + b"\x42\x00" + blob[6:])
    with pytest.raises(errors.TruncatedError):
        record_from_bytes(blob[:-5])
    with pytest.raises(errors.FormatError, match="4 trailing bytes after the enrollment record"):
        record_from_bytes(blob + b"junk")
    # a stored helper whose key is one bit shorter than the code
    helper_blob = helper_to_bytes(record.hash_helper)
    short_blob = helper_to_bytes(rbm_helper((16, 16), 14, 0))
    at = blob.index(helper_blob)
    with pytest.raises(ValueError):
        record_from_bytes(blob[:at - 4] + struct.pack("<I", len(short_blob)) + short_blob
                          + blob[at + len(helper_blob):])
    # a stored BCH polynomial that is irreducible but not primitive; a 255-bit key
    # needs an image of at least 512 pixels
    _, record = enroll(fresh_image(np.random.default_rng(33), shape=(32, 32)), bch.bch_new(8, 4))
    blob = bytearray(record_to_bytes(record))
    at = blob.index(b"PUFB") + 9                 # after magic, version, m and t
    blob[at:at + 4] = struct.pack("<I", 0x11B)
    with pytest.raises(ValueError):
        record_from_bytes(bytes(blob))


def test_repeated_helper_index_fails_to_parse_as_helper_and_record():
    # a helper that names one bin key_len times would map every capture to one key
    _, record = enroll(fresh_image(np.random.default_rng(37)), PARAMS15)
    helper_blob = helper_to_bytes(record.hash_helper)
    n = record.hash_helper.key_len
    repeated = helper_blob[: -4 * n] + helper_blob[-4 * n : -4 * (n - 1)] * n
    assert len(repeated) == len(helper_blob) and repeated != helper_blob
    with pytest.raises(ValueError, match="distinct"):
        helper_from_bytes(repeated)
    with pytest.raises(ValueError, match="distinct"):
        record_from_bytes(record_to_bytes(record).replace(helper_blob, repeated))


def test_record_field_validation():
    img = fresh_image(np.random.default_rng(34))
    key, record = enroll(img, PARAMS15)
    with pytest.raises(ValueError):
        dataclasses.replace(record, record_id=b"short")
    with pytest.raises(ValueError):
        dataclasses.replace(record, key_digest=b"\x00" * 16)
    with pytest.raises(ValueError):
        dataclasses.replace(record, code_offset=np.zeros(7, dtype=np.uint8))
    with pytest.raises(ValueError):        # a helper whose key is not code-length
        dataclasses.replace(record, hash_helper=rbm_helper((16, 16), 14, 0))
    assert verify(key, record)


_, RECORD15 = enroll(fresh_image(np.random.default_rng(35)), PARAMS15)

# source array, the container built from it, and the field that holds its copy
FROZEN_CONTAINERS = {
    "RbmHelper": (np.ones(16, np.int8), lambda a: RbmHelper(a, [0, 3], (4, 4)), "signs"),
    "PixelPattern": (np.eye(4, dtype=np.uint8), PixelPattern, "mask"),
    "EnrollmentRecord": (np.zeros(15, np.uint8),
                         lambda a: dataclasses.replace(RECORD15, code_offset=a), "code_offset"),
}


@pytest.mark.parametrize("name", FROZEN_CONTAINERS)
def test_frozen_containers_own_their_arrays(name):
    source, build, field = FROZEN_CONTAINERS[name]
    source = source.copy()
    obj = build(source)
    before, hashed = getattr(obj, field).tobytes(), hash(obj)
    source.flat[0] += 1                          # the caller's array stays writable
    assert getattr(obj, field).tobytes() == before
    assert hash(obj) == hashed


def test_record_from_a_float64_token_table_still_authenticates():
    # enrolled from a noiseless capture while token tables were float64:
    # token seed 3, 8x8 grid, 64x64 camera, challenge random_pattern(grid, 5),
    # rbm, BCH(255, t=31); the float32 table must still answer it
    record = load_record(pathlib.Path(__file__).parent / "data" / "rbm_8x8_64x64_seed3.pufr")
    token = new_token(3, grid_dims=(8, 8), out_dims=(64, 64))
    assert record.token_id == token_id(token)
    assert np.array_equal(record.challenge.mask, random_pattern((8, 8), 5).mask)
    for seed in range(3):
        result = authenticate(respond(token, record.challenge, NoiseParams().with_seed(seed)),
                              record)
        assert result is not None
        key, corrected = result
        assert verify(key, record) and corrected <= record.bch_params.t


def test_block_svd_record_fails_to_load():
    # enrolled with the removed block-SVD hash (token seed 5, 8x8 grid, 64x64 camera,
    # challenge random_pattern(grid, 4), noiseless capture, BCH(255, t=31))
    with pytest.raises(errors.FormatError, match="svd"):
        load_record(pathlib.Path(__file__).parent / "data" / "svd_8x8_64x64_seed5.pufr")
