"""Fuzzy commitment: exact keys and authentication from noisy speckle.

Enrollment draws a hash helper for the capture's geometry, hashes the capture
into the enrollment key, draws a uniform secret, and stores only helper data:
the hash helper, the XOR of the key with the BCH codeword of the secret (the
code offset), and a one-way digest of the key. The key is as long as the
code, and the helper's mapping seed, the secret and the record id all come
from the operating system's CSPRNG. Authentication hashes a fresh capture,
strips the code offset, decodes, re-encodes, and XORs back; if the two
captures disagree in at most ``t`` key bits the enrolled key is recovered
exactly.

Neither the secret nor the enrollment key ever reaches the record: the code
offset is a one-time-pad style mask and the digest is SHA-256.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

import numpy as np

from . import bch
from ._binio import Reader, frozen_array, le, pack_bits, packed_size, unpack_bits
from .errors import FormatError
from .hashing import BitKey, RbmHelper, hash_apply, hash_enroll, helper_from_bytes, helper_to_bytes
from .token import Challenge, PixelPattern, challenge_from_bytes, challenge_to_bytes

__all__ = [
    "EnrollmentRecord",
    "enroll",
    "authenticate",
    "recover_key",
    "verify",
    "key_digest",
    "record_to_bytes",
    "record_from_bytes",
    "save_record",
    "load_record",
]

_MAGIC = b"PUFR"
_VERSION = 1
DIGEST_SHA256 = 1  # the one digest algorithm byte a record may carry


def _require_light(challenge: Challenge | None):
    # a dark challenge captures only noise, so no recapture recovers the key
    if isinstance(challenge, PixelPattern) and challenge.on_count == 0:
        raise ValueError("challenge lights no pixel")


@dataclass(frozen=True, eq=False)
class EnrollmentRecord:
    """Public helper data for one enrolled (token, challenge) pair."""

    record_id: bytes
    token_id: bytes
    challenge: Challenge | None
    hash_helper: RbmHelper
    code_offset: np.ndarray
    bch_params: bch.BchParams
    key_digest: bytes

    def __post_init__(self):
        if len(self.record_id) != 16 or len(self.token_id) != 16:
            raise ValueError("record_id and token_id must be 16 bytes")
        if len(self.key_digest) != 32:
            raise ValueError("key digest must be 32 bytes")
        _require_light(self.challenge)
        offset = frozen_array(self.code_offset, np.uint8).ravel()
        if offset.size != self.bch_params.n:
            raise ValueError("code offset length must equal the code length")
        if self.hash_helper.key_len != self.bch_params.n:
            raise ValueError("hash helper key length must equal the code length")
        object.__setattr__(self, "code_offset", offset)


def key_digest(key: BitKey) -> bytes:
    """SHA-256 over the length-prefixed packed key bits."""
    return hashlib.sha256(key.to_bytes()).digest()


def enroll(image, bch_params: bch.BchParams, token_id: bytes = b"\x00" * 16,
           challenge: Challenge | None = None) -> tuple[BitKey, EnrollmentRecord]:
    """Enroll one capture; returns the (secret) enrollment key and the record.

    The capture is hashed with a fresh random binary mapping into a key of
    ``bch_params.n`` bits, so the code offset covers all of it. The
    mapping seed, the committed secret and the record id come from the
    operating system's CSPRNG, so public helper data never reveals how to
    rebuild them.
    """
    _require_light(challenge)  # before hashing, which fails otherwise on a noiseless capture
    # hash_enroll: a module global that perfbench/tracing.py wraps
    enroll_key, helper = hash_enroll(image, bch_params.n, secrets.randbits(64))
    secret = unpack_bits(secrets.token_bytes(packed_size(bch_params.k)), bch_params.k)
    code_offset = enroll_key.bits ^ bch.encode(bch_params, secret)
    record = EnrollmentRecord(
        record_id=secrets.token_bytes(16),
        token_id=bytes(token_id),
        challenge=challenge,
        hash_helper=helper,
        code_offset=code_offset,
        bch_params=bch_params,
        key_digest=key_digest(enroll_key),
    )
    return enroll_key, record


def recover_key(auth_key: BitKey, record: EnrollmentRecord) -> tuple[BitKey, int] | None:
    """Code-offset recovery from an already-hashed authentication key.

    Returns (recovered key, corrected bits) or None when decoding fails.
    If the authentication key is within distance t of the enrollment key the
    recovered key equals the enrollment key.
    """
    if auth_key.key_len != record.bch_params.n:
        raise ValueError("key length does not match the record's code length")
    noisy_codeword = auth_key.bits ^ record.code_offset
    decoded = bch.decode(record.bch_params, noisy_codeword)
    if decoded is None:
        return None
    secret, corrected = decoded
    recovered = BitKey(record.code_offset ^ bch.encode(record.bch_params, secret))
    return recovered, corrected


def authenticate(image, record: EnrollmentRecord) -> tuple[BitKey, int] | None:
    """Hash a fresh capture with the stored helper and recover the key."""
    return recover_key(hash_apply(image, record.hash_helper), record)


def verify(key: BitKey, record: EnrollmentRecord) -> bool:
    """Accept iff the digest of the recovered key matches the record.

    The comparison runs in constant time, so its duration does not reveal
    how long a prefix of the stored digest a guess matched.
    """
    return hmac.compare_digest(key_digest(key), record.key_digest)


# ----------------------------------------------------------------------
# serialization ("PUFR", little-endian)

def record_to_bytes(record: EnrollmentRecord) -> bytes:
    challenge_blob = challenge_to_bytes(record.challenge)
    helper_blob = helper_to_bytes(record.hash_helper)
    bch_blob = bch.params_to_bytes(record.bch_params)
    return b"".join(
        [
            _MAGIC,
            le("H", _VERSION),
            record.record_id,
            record.token_id,
            le("I", len(challenge_blob)),
            challenge_blob,
            le("I", len(helper_blob)),
            helper_blob,
            le("I", len(bch_blob)),
            bch_blob,
            le("I", record.code_offset.size),
            pack_bits(record.code_offset),
            le("B", DIGEST_SHA256),
            record.key_digest,
        ]
    )


def record_from_bytes(data: bytes) -> EnrollmentRecord:
    r = Reader(data)
    r.expect_magic(_MAGIC, "enrollment record")
    r.expect_version(_VERSION, "enrollment record")
    record_id = r.take(16)
    token_id = r.take(16)
    challenge = challenge_from_bytes(r.take(r.unpack("I")))
    helper = helper_from_bytes(r.take(r.unpack("I")))
    params = bch.params_from_bytes(r.take(r.unpack("I")))
    n_bits = r.unpack("I")
    code_offset = unpack_bits(r.take(packed_size(n_bits)), n_bits)
    digest_algo = r.unpack("B")
    if digest_algo != DIGEST_SHA256:
        raise FormatError(f"unsupported digest algo {digest_algo}")
    digest = r.take(32)
    r.expect_end("enrollment record")
    return EnrollmentRecord(
        record_id=record_id,
        token_id=token_id,
        challenge=challenge,
        hash_helper=helper,
        code_offset=code_offset,
        bch_params=params,
        key_digest=digest,
    )


def save_record(record: EnrollmentRecord, path):
    with open(path, "wb") as fh:
        fh.write(record_to_bytes(record))


def load_record(path) -> EnrollmentRecord:
    with open(path, "rb") as fh:
        return record_from_bytes(fh.read())
