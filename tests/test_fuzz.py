"""Hostile input against every container parser and the service dispatcher.

The contract: a parser fails only with ``FormatError`` or ``ValueError``
(never ``MemoryError``, ``IndexError``, ``struct.error`` or a huge
allocation), and ``PufService.handle_payload`` answers every payload with an
``OP_RESULT`` frame or an ``OP_ERROR`` frame whose code is not
``ERR_INTERNAL``. Inputs are raw bytes plus valid containers with bytes
overwritten, cut short or extended, over tiny geometry so that each example
runs in milliseconds. A valid container with bytes appended is refused with
``FormatError``.
"""

import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpuf import bch
from photonpuf import token as tok
from photonpuf._binio import Reader, bits_from_bytes, counted_bits, le
from photonpuf.errors import FormatError
from photonpuf.hashing import helper_from_bytes, helper_to_bytes, rbm_helper
from photonpuf.protocol import enroll, record_from_bytes, record_to_bytes
from photonpuf.service import (
    ERR_INTERNAL,
    MAX_RANDOM_BITS,
    OP_AUTH,
    OP_ENROLL,
    OP_ERROR,
    OP_RANDOM,
    OP_RESULT,
    PufService,
    RecordStore,
    parse_error,
)

GRID, OUT = (4, 4), (16, 16)
CODE = bch.bch_new(4, 3)
TOKEN = tok.new_token(3, grid_dims=GRID, out_dims=OUT)
PATTERN = tok.random_pattern(GRID, 1)
IMAGE = tok.respond(TOKEN, PATTERN)
FUZZ = settings(max_examples=150, deadline=None)


@st.composite
def mangled(draw, blobs):
    """A valid blob with a few bytes overwritten, then cut or extended."""
    blob = bytearray(draw(st.sampled_from(blobs)))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    return bytes(blob[:cut]) + draw(st.binary(max_size=8))


def hostile(blobs):
    return st.one_of(st.binary(max_size=96), mangled(blobs))


TOKEN_BLOBS = [tok.token_to_bytes(tok.new_token(5, kind="pof", grid_dims=(2, 2), out_dims=(4, 4)))]
CHALLENGE_BLOBS = [tok.challenge_to_bytes(c) for c in (PATTERN, tok.Wavelength(1550.0), None)]


def _record_helper_blob(record_blob):
    """The hash helper container inside an enrollment record container."""
    r = Reader(record_blob)
    r.take(4 + 2 + 16 + 16)                  # magic, version, record id, token id
    r.take(r.unpack("I"))                    # challenge
    return r.take(r.unpack("I"))


# a record enrolled with the removed block-SVD hash: it and its helper now fail to parse
SVD_RECORD = (pathlib.Path(__file__).parent / "data" / "svd_8x8_64x64_seed5.pufr").read_bytes()
HELPER_BLOBS = [helper_to_bytes(rbm_helper(OUT, 10, 1)), _record_helper_blob(SVD_RECORD)]
BCH_BLOBS = [bch.params_to_bytes(CODE), bch.params_to_bytes(bch.bch_new(5, 2))]
RECORD_BLOBS = [record_to_bytes(enroll(IMAGE, CODE, challenge=PATTERN)[1]), SVD_RECORD]
KEY_BLOBS = [counted_bits([1, 0, 1, 1, 0, 0, 1, 0, 1])]


def assert_parser_contract(parse, data):
    try:
        parse(data)
    except (FormatError, ValueError):
        pass


@FUZZ
@given(hostile(TOKEN_BLOBS))
def test_token_parser_contract(data):
    # a small cap keeps every accepted tensor tiny; the real cap has its own test
    with mock.patch.object(tok, "MAX_FIELD_ELEMENTS", 4096):
        assert_parser_contract(tok.token_from_bytes, data)


@pytest.mark.parametrize("parse, blobs", [
    (tok.challenge_from_bytes, CHALLENGE_BLOBS),
    (helper_from_bytes, HELPER_BLOBS),
    (record_from_bytes, RECORD_BLOBS),
    (bch.params_from_bytes, BCH_BLOBS),
    (bits_from_bytes, KEY_BLOBS),
], ids=["challenge", "helper", "record", "bch", "bits_from_bytes"])
def test_parser_contract(parse, blobs):
    @FUZZ
    @given(hostile(blobs))
    def check(data):
        assert_parser_contract(parse, data)

    check()


@pytest.mark.parametrize("parse, blob", [
    (tok.token_from_bytes, TOKEN_BLOBS[0]),
    *[(tok.challenge_from_bytes, blob) for blob in CHALLENGE_BLOBS],
    (helper_from_bytes, HELPER_BLOBS[0]),
    (record_from_bytes, RECORD_BLOBS[0]),
    (bch.params_from_bytes, BCH_BLOBS[0]),
    (bits_from_bytes, KEY_BLOBS[0]),
], ids=["token", "pattern", "wavelength", "no-challenge", "helper", "record", "bch",
        "bits_from_bytes"])
def test_parser_refuses_appended_bytes(parse, blob):
    parse(blob)
    with pytest.raises(FormatError, match="4 trailing bytes"):
        parse(blob + b"junk")


@pytest.fixture(scope="module")
def fuzz_service(tmp_path_factory):
    service = PufService(RecordStore(tmp_path_factory.mktemp("fuzz") / "records"), bch_params=CODE)
    tid = service.add_token(TOKEN)
    blob = tok.challenge_to_bytes(PATTERN)
    reply = service.handle_payload(bytes([OP_ENROLL]) + tid + le("I", len(blob)) + blob)
    assert reply[:2] == bytes([OP_RESULT, OP_ENROLL])
    return service, tid, reply[2:18]


@st.composite
def payloads(draw, tid, rid):
    op = draw(st.sampled_from([OP_ENROLL, OP_AUTH, OP_RANDOM]))
    if op == OP_ENROLL:
        token_id = draw(st.one_of(st.just(tid), st.binary(min_size=16, max_size=16)))
        blob = draw(hostile(CHALLENGE_BLOBS))
        declared = draw(st.one_of(st.just(len(blob)), st.integers(0, 2 ** 32 - 1)))
        body = token_id + le("I", declared) + blob
    elif op == OP_AUTH:
        body = draw(st.one_of(st.just(rid), st.binary(min_size=16, max_size=16)))
    else:
        # valid counts stay small so that an example captures a few images
        body = le("I", draw(st.one_of(st.integers(0, 1024),
                                      st.integers(MAX_RANDOM_BITS + 1, 2 ** 32 - 1))))
    cut = draw(st.one_of(st.just(len(body)), st.integers(0, len(body))))
    return bytes([op]) + body[:cut] + draw(st.binary(max_size=4))


def test_handle_payload_contract(fuzz_service):
    service, tid, rid = fuzz_service

    @FUZZ
    @given(st.one_of(st.binary(max_size=64), payloads(tid, rid)))
    def check(payload):
        reply = service.handle_payload(payload)
        assert reply[0] in (OP_RESULT, OP_ERROR)
        if reply[0] == OP_ERROR:
            code, message = parse_error(reply)
            assert code != ERR_INTERNAL, message
        else:
            assert reply[1] == payload[0]

    check()

