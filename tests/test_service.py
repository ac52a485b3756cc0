"""Wire-format and service behavior, both in-process and over loopback TCP.

The recovery contract under test: a frame that is half delivered, late, or
longer than ``MAX_FRAME`` earns an ERROR reply and the same connection keeps
serving; every malformed payload is answered, never dropped, and never kills
the server.
"""

import contextlib
import dataclasses
import itertools
import logging
import os
import secrets
import socket
import stat
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpuf import bch, errors, protocol, service as svc
from photonpuf.hashing import BitKey
from photonpuf.protocol import enroll, key_digest
from photonpuf.service import (
    ERR_BAD_FRAME,
    ERR_INTERNAL,
    ERR_NOT_FOUND,
    OP_AUTH,
    OP_ENROLL,
    OP_ERROR,
    OP_RANDOM,
    OP_RESULT,
    PufServer,
    PufService,
    RecordStore,
    ServiceClient,
    ServiceError,
    _read_frame,
    encode_frame,
    error_payload,
    parse_error,
)
from photonpuf.randomness import extract_bits
from photonpuf.token import NoiseParams, challenge_to_bytes, new_token, random_pattern, respond
from photonpuf._binio import le

def stored_files(directory):
    return sorted(os.listdir(directory))


def record_files(rids):
    return sorted(f"{rid.hex()}.pufr" for rid in rids)


def make_service(tmp_path, **kw):
    store = RecordStore(tmp_path / "records")
    service = PufService(store, bch_params=bch.bch_new(4, 3), **kw)
    token = new_token(1, grid_dims=(8, 8), out_dims=(32, 32))
    tid = service.add_token(token)
    return service, tid


def chal_blob(seed=3):
    return challenge_to_bytes(random_pattern((8, 8), seed))


class CountingEntropy:
    """Stands in for ``secrets`` in the service and protocol: seeds 1, 2, 3, ...

    The service draws its capture-noise and pattern seeds, and enrollment its
    hash mapping seed, from the OS, and the small BCH(15, 5, t=3) test code
    refuses about 1% of genuine auths under fresh default noise. Tests that
    assert an accept replay one fixed seed sequence instead, shared by both
    modules so an enroll takes its noise seed first and its mapping seed
    second; the committed secret and the record id still come from the OS.
    """

    def __init__(self):
        self._count = itertools.count(1)
        self._lock = threading.Lock()

    def randbits(self, k):
        with self._lock:
            return next(self._count)

    def token_bytes(self, n):
        return secrets.token_bytes(n)


@pytest.fixture()
def counted_entropy(monkeypatch):
    entropy = CountingEntropy()
    monkeypatch.setattr(svc, "secrets", entropy)
    monkeypatch.setattr(protocol, "secrets", entropy)


# ---------------------------------------------------------------- frame codec

@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    with left, right:
        yield left, right


def test_frame_roundtrip(pair):
    left, right = pair
    framed = encode_frame(b"\x01hello")
    assert framed[:4] == struct.pack(">I", 6)
    left.sendall(framed + encode_frame(b"") + encode_frame(b"next"))
    assert _read_frame(right, 1.0, 1.0) == b"\x01hello"
    assert _read_frame(right, 1.0, 1.0) == b""
    # the reader takes exactly one frame: the queued one is still unread
    assert right.recv(100) == encode_frame(b"next")


@settings(deadline=None, max_examples=50)
@given(st.binary(min_size=0, max_size=300), st.binary(min_size=0, max_size=30))
def test_frame_roundtrip_property(payload, queued):
    left, right = socket.socketpair()
    with left, right:
        left.sendall(encode_frame(payload) + encode_frame(queued))
        assert _read_frame(right, 1.0, 1.0) == payload
        left.close()
        assert _read_frame(right, 1.0, 1.0) == queued
        with pytest.raises(EOFError):
            _read_frame(right, 1.0, 1.0)


def test_frame_errors(pair):
    left, right = pair
    left.sendall(struct.pack(">I", svc.MAX_FRAME + 1) + b"x")
    with pytest.raises(errors.FormatError, match=str(svc.MAX_FRAME + 1)):
        _read_frame(right, 1.0, 1.0)
    with pytest.raises(ValueError):
        encode_frame(b"x" * (svc.MAX_FRAME + 1))


@pytest.mark.parametrize("sent", [b"", b"\x00\x00", struct.pack(">I", 10) + b"abc"],
                         ids=["before-frame", "mid-prefix", "mid-body"])
def test_frame_peer_closes(pair, sent):
    left, right = pair
    left.sendall(sent)
    left.close()
    with pytest.raises(EOFError):
        _read_frame(right, 1.0, 1.0)


def test_frame_late_parts_time_out(pair):
    left, right = pair
    with pytest.raises(TimeoutError):       # nothing arrives within the wait
        _read_frame(right, 0.05, 1.0)
    left.sendall(struct.pack(">I", 10) + b"abc")
    start = time.monotonic()
    with pytest.raises(TimeoutError):       # the body stops short
        _read_frame(right, 1.0, 0.2)
    assert time.monotonic() - start < 1.0


def test_error_payload_roundtrip():
    blob = error_payload(ERR_NOT_FOUND, "no such record")
    assert blob[0] == OP_ERROR
    code, message = parse_error(blob)
    assert code == ERR_NOT_FOUND
    assert message == "no such record"
    with pytest.raises(errors.FormatError):
        parse_error(bytes([OP_RESULT, 0, 0, 0]))


def test_error_payload_with_trailing_bytes_refused():
    with pytest.raises(errors.FormatError, match="trailing"):
        parse_error(error_payload(ERR_BAD_FRAME, "x") + b"junk")


class CannedClient(ServiceClient):
    """A client with no socket whose every request gets one fixed reply."""

    def __init__(self, reply: bytes):
        self.reply = reply

    def request(self, payload: bytes) -> bytes:
        return self.reply


def test_client_checks_replies_as_the_server_checks_requests():
    enrolled = bytes([OP_RESULT, OP_ENROLL]) + b"r" * 16 + b"d" * 32
    accepted = bytes([OP_RESULT, OP_AUTH, 1]) + le("H", 2)
    bits = bytes([OP_RESULT, OP_RANDOM]) + BitKey([1, 0, 1]).to_bytes()
    assert CannedClient(enrolled).enroll(b"t" * 16, chal_blob()) == (b"r" * 16, b"d" * 32)
    assert CannedClient(accepted).auth(b"r" * 16) == (True, 2)
    assert CannedClient(bits).random_bits(3).tolist() == [1, 0, 1]
    with pytest.raises(ServiceError, match="not_found: gone") as err:
        CannedClient(error_payload(ERR_NOT_FOUND, "gone")).auth(b"r" * 16)
    assert err.value.code == ERR_NOT_FOUND
    malformed = [
        ("auth", error_payload(ERR_BAD_FRAME, "x") + b"junk"),
        ("auth", bytes([OP_RESULT, OP_ENROLL, 1]) + le("H", 0)),   # echoes another op
        ("auth", accepted + b"\x00\x00"),
        ("auth", accepted[:4]),
        ("auth", b""),
        ("enroll", enrolled + b"\x00"),
        ("random_bits", bytes([OP_RESULT, OP_AUTH]) + bits[2:]),
        ("random_bits", bits + b"\x00"),
    ]
    args = {"auth": (b"r" * 16,), "enroll": (b"t" * 16, chal_blob()), "random_bits": (3,)}
    for call, reply in malformed:
        with pytest.raises(errors.FormatError):
            getattr(CannedClient(reply), call)(*args[call])


def test_error_payload_truncates_long_messages():
    code, message = parse_error(error_payload(ERR_INTERNAL, "y" * 5000))
    assert len(message) == 1000


# ---------------------------------------------------------------- record store

def test_record_store_roundtrip(tmp_path):
    store = RecordStore(tmp_path / "records")
    img = np.random.default_rng(0).exponential(size=(16, 16))
    _, record = enroll(img, bch.bch_new(4, 3))
    with pytest.raises(KeyError):
        store.load(record.record_id)
    store.save(record)
    assert stored_files(tmp_path / "records") == record_files([record.record_id])
    back = store.load(record.record_id)
    assert back.key_digest == record.key_digest
    with pytest.raises(KeyError):
        store.load(b"\x99" * 16)


def test_record_store_refuses_overwrite(tmp_path):
    store = RecordStore(tmp_path / "records")
    params = bch.bch_new(4, 3)
    rng = np.random.default_rng(0)
    # two captures under one record id: the same id with different contents
    _, first = enroll(rng.exponential(size=(16, 16)), params)
    _, second = enroll(rng.exponential(size=(16, 16)), params)
    second = dataclasses.replace(second, record_id=first.record_id)
    store.save(first)
    path = tmp_path / "records" / (first.record_id.hex() + ".pufr")
    before = path.read_bytes()
    with pytest.raises(FileExistsError):
        store.save(second)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path / "records") == [path.name]


def test_record_store_fsyncs_before_and_after_link(tmp_path, monkeypatch):
    store = RecordStore(tmp_path / "records")
    _, record = enroll(np.random.default_rng(0).exponential(size=(16, 16)), bch.bch_new(4, 3))
    calls = []
    real_fsync, real_link = os.fsync, os.link

    def fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def link(src, dst):
        calls.append("link")
        real_link(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "link", link)
    store.save(record)
    assert calls == ["fsync file", "link", "fsync dir"]
    assert store.load(record.record_id).key_digest == record.key_digest


def test_concurrent_saves_of_one_record(tmp_path):
    store = RecordStore(tmp_path / "records")
    params = bch.bch_new(4, 3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        _, record = enroll(rng.exponential(size=(16, 16)), params)
        barrier = threading.Barrier(2)
        outcomes = []

        def worker():
            barrier.wait()
            try:
                store.save(record)
                outcomes.append("saved")
            except FileExistsError:
                outcomes.append("exists")

        threads = [threading.Thread(target=worker) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(outcomes) == ["exists", "saved"]
        assert store.load(record.record_id).key_digest == record.key_digest
    names = os.listdir(tmp_path / "records")
    assert len(names) == 10 and all(name.endswith(".pufr") for name in names)


# ---------------------------------------------------------------- payload handling

def test_enroll_then_auth_in_process(tmp_path, counted_entropy):
    service, tid = make_service(tmp_path)
    blob = chal_blob()
    reply = service.handle_payload(bytes([OP_ENROLL]) + tid + le("I", len(blob)) + blob)
    assert reply[0] == OP_RESULT and reply[1] == OP_ENROLL
    rid, digest = reply[2:18], reply[18:50]
    assert len(digest) == 32
    assert service.store.load(rid).key_digest == digest

    auth = service.handle_payload(bytes([OP_AUTH]) + rid)
    assert auth[0] == OP_RESULT and auth[1] == OP_AUTH
    assert auth[2] == 1                      # accepted
    (corrected,) = struct.unpack("<H", auth[3:5])
    assert corrected <= 3


def test_two_enrollments_get_distinct_records(tmp_path):
    service, tid = make_service(tmp_path)
    blob = chal_blob()
    msg = bytes([OP_ENROLL]) + tid + le("I", len(blob)) + blob
    r1 = service.handle_payload(msg)
    r2 = service.handle_payload(msg)
    assert r1[2:18] != r2[2:18]
    assert stored_files(tmp_path / "records") == record_files([r1[2:18], r2[2:18]])


def enroll_msg(tid, blob):
    return bytes([OP_ENROLL]) + tid + le("I", len(blob)) + blob


def test_public_record_does_not_reveal_the_key(tmp_path):
    # guess the small seeds a request counter would hand out, rebuild the
    # committed secret from each as the old seeded enroll derived it (tag
    # 0xE14), strip the code offset and check the digest
    service = PufService(RecordStore(tmp_path / "records"), bch_params=bch.bch_new(8, 31))
    tid = service.add_token(new_token(1, grid_dims=(8, 8), out_dims=(32, 32)))
    reply = service.handle_payload(enroll_msg(tid, chal_blob()))
    record = service.store.load(reply[2:18])
    params = record.bch_params
    for guess in range(1, 10):
        rng = np.random.default_rng(np.random.SeedSequence([guess, 0xE14]))
        secret = rng.integers(0, 2, size=params.k, dtype=np.uint8)
        key = BitKey(record.code_offset ^ bch.encode(params, secret))
        assert key_digest(key) != record.key_digest


def test_restarted_service_keeps_existing_records(tmp_path):
    # two services over one store directory stand for a restart
    rids = []
    for _ in range(2):
        service, tid = make_service(tmp_path)
        reply = service.handle_payload(enroll_msg(tid, chal_blob()))
        assert reply[:2] == bytes([OP_RESULT, OP_ENROLL])
        rids.append(reply[2:18])
    assert rids[0] != rids[1]
    assert stored_files(tmp_path / "records") == record_files(rids)


def test_restarted_service_draws_fresh_random_bits(tmp_path):
    replies = [make_service(tmp_path / str(i))[0].handle_payload(bytes([OP_RANDOM]) + le("I", 64))
               for i in range(2)]
    assert all(r[:2] == bytes([OP_RESULT, OP_RANDOM]) for r in replies)
    assert replies[0] != replies[1]


def test_unknown_ids_not_found(tmp_path):
    service, tid = make_service(tmp_path)
    blob = chal_blob()
    bad_token = service.handle_payload(
        bytes([OP_ENROLL]) + b"\xaa" * 16 + le("I", len(blob)) + blob)
    assert parse_error(bad_token)[0] == ERR_NOT_FOUND
    bad_record = service.handle_payload(bytes([OP_AUTH]) + b"\xbb" * 16)
    assert parse_error(bad_record) == (ERR_NOT_FOUND, "unknown id " + "bb" * 16)


@pytest.mark.parametrize("installed, challenge, expected", [
    (False, random_pattern((8, 8), 3), (ERR_NOT_FOUND, "unknown id " + "cc" * 16)),
    (True, None, (ERR_INTERNAL, "record carries no challenge descriptor")),
    (False, None, (ERR_NOT_FOUND, "unknown id " + "cc" * 16)),   # the token is checked first
], ids=["token-not-installed", "no-challenge", "neither"])
def test_stored_record_the_service_cannot_recapture(tmp_path, installed, challenge, expected):
    service, tid = make_service(tmp_path)
    _, record = enroll(np.random.default_rng(0).exponential(size=(16, 16)), service.bch_params,
                       token_id=tid if installed else b"\xcc" * 16, challenge=challenge)
    service.store.save(record)
    assert parse_error(service.handle_payload(bytes([OP_AUTH]) + record.record_id)) == expected


def test_stored_record_of_unknown_digest_algo_refused_before_capture(tmp_path, monkeypatch):
    service, tid = make_service(tmp_path)
    captures = []
    monkeypatch.setattr(svc, "respond", lambda *args, **kw: captures.append(args))
    _, record = enroll(np.random.default_rng(0).exponential(size=(16, 16)), service.bch_params,
                       token_id=tid, challenge=random_pattern((8, 8), 3))
    blob = bytearray(protocol.record_to_bytes(record))
    assert blob[-33] == protocol.DIGEST_SHA256     # the algo byte, just before the digest
    blob[-33] = 9
    os.makedirs(tmp_path / "records", exist_ok=True)
    (tmp_path / "records" / f"{record.record_id.hex()}.pufr").write_bytes(bytes(blob))
    reply = service.handle_payload(bytes([OP_AUTH]) + record.record_id)
    assert parse_error(reply) == (ERR_BAD_FRAME, "unsupported digest algo 9")
    assert captures == []


def test_malformed_payloads_bad_frame(tmp_path):
    service, tid = make_service(tmp_path)
    rid = service.handle_payload(enroll_msg(tid, chal_blob()))[2:18]
    cases = [
        b"",                                          # empty
        bytes([0x7F]),                                # unknown opcode
        bytes([OP_ENROLL]) + b"\x01" * 4,             # short enroll
        bytes([OP_ENROLL]) + tid + le("I", 500),      # blob length lies
        bytes([OP_AUTH]) + b"\x01" * 3,               # short auth
        bytes([OP_RANDOM]) + le("I", 0),              # zero bits
        bytes([OP_RANDOM]) + le("I", svc.MAX_RANDOM_BITS + 1),
        # well-formed requests with bytes appended
        enroll_msg(tid, chal_blob()) + b"junk",
        enroll_msg(tid, chal_blob() + b"junk"),
        bytes([OP_AUTH]) + rid + b"junk",
        bytes([OP_RANDOM]) + le("I", 8) + b"junk",
    ]
    for payload in cases:
        reply = service.handle_payload(payload)
        assert reply[0] == OP_ERROR, payload
        assert parse_error(reply)[0] == ERR_BAD_FRAME, payload
    assert stored_files(tmp_path / "records") == record_files([rid])


def test_enroll_requires_pattern_challenge(tmp_path):
    service, tid = make_service(tmp_path)
    blob = challenge_to_bytes(None)
    reply = service.handle_payload(bytes([OP_ENROLL]) + tid + le("I", len(blob)) + blob)
    assert parse_error(reply)[0] == ERR_BAD_FRAME


def test_enroll_rejects_a_dark_challenge(tmp_path):
    service, tid = make_service(tmp_path)
    blob = challenge_to_bytes(random_pattern((8, 8), 3, on_fraction=0.0))
    reply = service.handle_payload(enroll_msg(tid, blob))
    assert parse_error(reply) == (ERR_BAD_FRAME, "challenge lights no pixel")
    assert stored_files(tmp_path / "records") == []


def test_internal_error_is_logged_without_secrets(tmp_path, monkeypatch, caplog):
    # fail an enroll after the key and record exist: the traceback must reach
    # the log, and neither the request nor the key material may
    service, tid = make_service(tmp_path)
    made = []

    def enroll_then_fail(*args, **kw):
        made.append(enroll(*args, **kw))
        raise RuntimeError("injected failure")

    monkeypatch.setattr(svc, "enroll", enroll_then_fail)
    payload = enroll_msg(tid, chal_blob())
    caplog.set_level(logging.DEBUG)
    reply = service.handle_payload(payload)
    code, message = parse_error(reply)
    assert code == ERR_INTERNAL
    assert "injected failure" not in message

    (rec,) = [r for r in caplog.records if r.name == svc.__name__]
    assert rec.levelno == logging.ERROR and rec.exc_info is not None
    assert f"0x{OP_ENROLL:02x}" in rec.getMessage() and "RuntimeError" in rec.getMessage()
    assert "injected failure" in caplog.text and "Traceback" in caplog.text

    (key, record), = made
    offset = BitKey(record.code_offset)
    secrets_shown = [payload.hex(), repr(payload)[2:-1],
                     key.to_bytes().hex(), "".join(map(str, key.bits)),
                     offset.to_bytes().hex(), "".join(map(str, offset.bits))]
    for line in caplog.text.splitlines():
        for s in secrets_shown:
            assert s not in line


def test_internal_bug_is_not_blamed_on_the_client(tmp_path, monkeypatch, caplog):
    service, tid = make_service(tmp_path)

    def broken(*args, **kw):
        raise IndexError("detail")

    monkeypatch.setattr(svc, "respond", broken)
    caplog.set_level(logging.DEBUG)
    reply = service.handle_payload(enroll_msg(tid, chal_blob()))
    assert parse_error(reply) == (ERR_INTERNAL, "internal error")
    assert len([r for r in caplog.records if r.name == svc.__name__]) == 1


def test_random_bits_exact_count(tmp_path):
    service, _ = make_service(tmp_path)
    reply = service.handle_payload(bytes([OP_RANDOM]) + le("I", 700))
    assert reply[0] == OP_RESULT and reply[1] == OP_RANDOM
    (n,) = struct.unpack("<I", reply[2:6])
    assert n == 700
    assert len(reply) == 6 + (700 + 7) // 8
    # two calls draw fresh challenges: streams differ
    again = service.handle_payload(bytes([OP_RANDOM]) + le("I", 700))
    assert again[6:] != reply[6:]


def test_random_reply_layout(tmp_path, counted_entropy):
    # seeds 1..4: pattern then capture noise for each of the two captures; a
    # 32x32 camera has 511 bins, under the 2000-bit cap, so 700 bits take two
    service, _ = make_service(tmp_path)
    reply = service.handle_payload(bytes([OP_RANDOM]) + le("I", 700))
    token = new_token(1, grid_dims=(8, 8), out_dims=(32, 32))
    images = [respond(token, random_pattern((8, 8), seed), noise=NoiseParams().with_seed(seed + 1))
              for seed in (1, 3)]
    bits = extract_bits(images, 32 * 32 // 2 - 1).bits[:700]
    assert reply == (bytes([OP_RESULT, OP_RANDOM]) + struct.pack("<I", 700)
                     + np.packbits(bits, bitorder="little").tobytes())


def test_random_without_tokens(tmp_path):
    service = PufService(RecordStore(tmp_path / "r"), bch_params=bch.bch_new(4, 3))
    reply = service.handle_payload(bytes([OP_RANDOM]) + le("I", 10))
    assert parse_error(reply)[0] == ERR_NOT_FOUND


def test_random_on_a_token_too_small_to_extract(tmp_path):
    # a 1x2 camera has no bins to draw from: an input error, not an internal one
    service = PufService(RecordStore(tmp_path / "r"), bch_params=bch.bch_new(4, 3))
    service.add_token(new_token(1, grid_dims=(2, 2), out_dims=(1, 2)))
    reply = service.handle_payload(bytes([OP_RANDOM]) + le("I", 8))
    assert parse_error(reply)[0] == ERR_BAD_FRAME


# ---------------------------------------------------------------- loopback TCP

@contextlib.contextmanager
def serving(service):
    srv = PufServer(("127.0.0.1", 0), service, frame_timeout=0.3)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def server(tmp_path, counted_entropy):
    service, tid = make_service(tmp_path)
    with serving(service) as srv:
        yield srv, service, tid


@pytest.fixture()
def noiseless_server(tmp_path):
    """A server with noiseless captures: every genuine auth is exact, so it is
    accepted whatever order concurrent enrolls draw their seeds in."""
    service, tid = make_service(tmp_path, noise=NoiseParams.none())
    with serving(service) as srv:
        yield srv, service, tid


def test_loopback_enroll_auth_random(server):
    srv, service, tid = server
    with ServiceClient(srv.server_address) as client:
        rid, digest = client.enroll(tid, chal_blob())
        assert len(rid) == 16 and len(digest) == 32
        accepted, corrected = client.auth(rid)
        assert accepted
        assert corrected <= 3
        bits = client.random_bits(256)
        assert bits.size == 256
        assert 0.2 < bits.mean() < 0.8


def test_loopback_error_replies(server):
    srv, _, tid = server
    with ServiceClient(srv.server_address) as client:
        with pytest.raises(ServiceError) as exc:
            client.auth(b"\x00" * 16)
        assert exc.value.code == ERR_NOT_FOUND
        reply = client.request(bytes([0x42, 0x00]))   # unknown opcode, raw call
        assert parse_error(reply)[0] == ERR_BAD_FRAME
        # connection still works after both errors
        rid, _ = client.enroll(tid, chal_blob())
        assert client.auth(rid)[0]


def test_late_frame_closes_connection(server):
    srv, _, tid = server
    with ServiceClient(srv.server_address) as client:
        # announce 100 bytes, deliver 3, then stall past the frame timeout
        client.send_raw(struct.pack(">I", 100) + b"abc")
        reply = client.read_reply()
        assert reply[0] == OP_ERROR
        assert parse_error(reply)[0] == ERR_BAD_FRAME
        # the frame boundary is lost, so the server hangs up
        with pytest.raises(EOFError):
            client.read_reply()
    with ServiceClient(srv.server_address) as client:
        rid, _ = client.enroll(tid, chal_blob())
        accepted, _ = client.auth(rid)
        assert accepted


def test_late_bytes_earn_no_second_reply(server):
    # the rest of a late frame must not be parsed as the start of a new one
    srv, _, _ = server
    frame = encode_frame(bytes([OP_RANDOM]) + le("I", 16))
    assert len(frame) == 9
    with ServiceClient(srv.server_address) as client:
        client.send_raw(frame[:6])
        time.sleep(srv.frame_timeout + 0.2)
        client.send_raw(frame[6:])
        assert parse_error(client.read_reply())[0] == ERR_BAD_FRAME
        with pytest.raises(EOFError):
            client.read_reply()


def test_idle_connection_stays_open(server):
    srv, _, _ = server
    with ServiceClient(srv.server_address) as client:
        time.sleep(2 * srv.frame_timeout)   # idle between frames is not a stall
        assert client.random_bits(16).size == 16


def test_oversized_frame_rejected(server):
    srv, _, _ = server
    with ServiceClient(srv.server_address) as client:
        client.send_raw(struct.pack(">I", svc.MAX_FRAME + 5))
        reply = client.read_reply()
        code, message = parse_error(reply)
        assert code == ERR_BAD_FRAME
        assert str(svc.MAX_FRAME + 5) in message
        with pytest.raises(EOFError):
            client.read_reply()


def test_slow_frame_rejected_at_deadline(server):
    # every byte comes within the frame timeout of the one before it, but the
    # whole frame does not: the deadline covers the frame, not each read
    srv, _, _ = server
    frame = encode_frame(bytes([OP_RANDOM]) + le("I", 16))
    stop = threading.Event()
    with ServiceClient(srv.server_address) as client:
        def trickle():
            for i in range(len(frame)):
                if stop.is_set():
                    return
                try:
                    client.send_raw(frame[i : i + 1])
                except OSError:   # the server has answered and closed
                    return
                time.sleep(0.2)

        sender = threading.Thread(target=trickle)
        start = time.monotonic()
        sender.start()
        try:
            reply = client.read_reply()
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            sender.join(timeout=5)
    assert parse_error(reply)[0] == ERR_BAD_FRAME
    assert elapsed < srv.frame_timeout + 0.5


def test_concurrent_auths_agree(server):
    srv, _, tid = server
    with ServiceClient(srv.server_address) as client:
        rid, _ = client.enroll(tid, chal_blob())
    outcomes = []
    lock = threading.Lock()

    def worker():
        with ServiceClient(srv.server_address) as c:
            got = c.auth(rid)
            with lock:
                outcomes.append(got[0])

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(outcomes) == 6
    assert all(outcomes)


def test_concurrent_enrolls_on_one_token(noiseless_server, tmp_path):
    srv, service, tid = noiseless_server
    rids = []
    lock = threading.Lock()

    def worker(seed):
        with ServiceClient(srv.server_address) as c:
            rid, _ = c.enroll(tid, chal_blob(seed))
            with lock:
                rids.append(rid)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the enrolls as finely as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(rids) == 6
    assert len(set(rids)) == 6
    assert stored_files(tmp_path / "records") == record_files(rids)  # one .pufr file per record
    with ServiceClient(srv.server_address) as c:
        assert all(c.auth(rid) == (True, 0) for rid in rids)
