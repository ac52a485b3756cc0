"""Framed TCP front end for the enrollment/authentication device.

The wire format is deliberately minimal: each frame is a 4-byte big-endian
payload length followed by the payload, whose first byte is an opcode. The
service owns the simulated scattering tokens (the prover side); clients only
ever see record ids, verdicts, digests, and extracted bits, never raw
speckle. Records are persisted as one file per record id in a plain
directory and are never overwritten. Committed secrets, record ids, hash
helper seeds, capture noise seeds and random-bit challenges are all drawn
fresh from the operating system's CSPRNG, so a restart neither reuses an id
nor repeats random bits.

Once the first byte of a frame arrives, the whole frame must follow within
one deadline (``frame_timeout``). A late frame, or a length prefix over
``MAX_FRAME``, gets one ERROR reply and the server then closes the
connection: the frame boundary is lost, and any later bytes would be misread
as new frames. A connection may idle between frames.
"""

from __future__ import annotations

import contextlib
import logging
import os
import secrets
import socket
import socketserver
import struct
import threading
import time

import numpy as np

from . import bch
from ._binio import Reader, le, packed_size, unpack_bits
from .errors import FormatError
from .hashing import BitKey, rbm_max_bins
from .protocol import (
    EnrollmentRecord,
    authenticate,
    enroll,
    load_record,
    record_to_bytes,
    verify,
)
from .randomness import extract_bits
from .token import (
    Challenge,
    NoiseParams,
    TokenModel,
    challenge_from_bytes,
    random_pattern,
    respond,
    token_id,
)

__all__ = [
    "OP_ENROLL",
    "OP_AUTH",
    "OP_RESULT",
    "OP_ERROR",
    "OP_RANDOM",
    "ERR_BAD_FRAME",
    "ERR_NOT_FOUND",
    "ERR_INTERNAL",
    "encode_frame",
    "RecordStore",
    "PufService",
    "random_bits",
    "PufServer",
    "ServiceClient",
]

OP_ENROLL = 0x01
OP_AUTH = 0x02
OP_RESULT = 0x03
OP_ERROR = 0x04
OP_RANDOM = 0x05

ERR_BAD_FRAME = 1
ERR_NOT_FOUND = 2
ERR_INTERNAL = 3

ERROR_NAMES = {ERR_BAD_FRAME: "bad_frame", ERR_NOT_FOUND: "not_found", ERR_INTERNAL: "internal"}

_log = logging.getLogger(__name__)

MAX_FRAME = 1 << 22  # 4 MiB; far above any legitimate message
MAX_RANDOM_BITS = 1 << 20

# Once the first byte of a frame has arrived the rest must follow within
# this window, else the frame counts as malformed.
DEFAULT_FRAME_TIMEOUT = 0.5


def encode_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise ValueError("payload too large")
    return struct.pack(">I", len(payload)) + payload


def error_payload(code: int, message: str) -> bytes:
    raw = message.encode()[:1000]
    return bytes([OP_ERROR, code]) + le("H", len(raw)) + raw


def parse_error(payload: bytes) -> tuple[int, str]:
    r = Reader(payload)
    op, code = r.unpack("BB")
    if op != OP_ERROR:
        raise FormatError("not an error payload")
    message = r.take(r.unpack("H")).decode()
    r.expect_end("error payload")
    return code, message


class RecordStore:
    """Directory of enrollment records, one file per record id."""

    def __init__(self, directory):
        self._dir = str(directory)
        os.makedirs(self._dir, exist_ok=True)

    def _path(self, record_id: bytes) -> str:
        return os.path.join(self._dir, record_id.hex() + ".pufr")

    def save(self, record: EnrollmentRecord):
        """Store a new record; raises ``FileExistsError`` if its id is taken.

        The record is written to a temporary file of its own, fsynced, and
        hard-linked into place; the directory is fsynced after the link.
        Readers never see a partial file, an existing record is never
        replaced, and a record survives a power failure once this returns.
        """
        path = self._path(record.record_id)
        tmp = f"{path}.{secrets.token_bytes(8).hex()}.tmp"
        with open(tmp, "xb") as fh:
            try:
                fh.write(record_to_bytes(record))
                fh.flush()
                os.fsync(fh.fileno())
                os.link(tmp, path)
            finally:
                os.unlink(tmp)
        dir_fd = os.open(self._dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def load(self, record_id: bytes) -> EnrollmentRecord:
        try:
            return load_record(self._path(record_id))
        except FileNotFoundError:
            raise KeyError(record_id.hex()) from None


class PufService:
    """Handles decoded payloads; transport-agnostic and thread-safe."""

    def __init__(
        self,
        store: RecordStore,
        bch_params=None,
        noise: NoiseParams | None = None,
    ):
        self.store = store
        self.bch_params = (bch_params if bch_params is not None
                           else bch.bch_new(bch.DEFAULT_M, bch.DEFAULT_T))
        self.noise = noise if noise is not None else NoiseParams()
        self._tokens: dict[bytes, TokenModel] = {}
        self._guard = threading.Lock()

    def add_token(self, token: TokenModel) -> bytes:
        tid = token_id(token)
        with self._guard:
            self._tokens[tid] = token
        return tid

    def _capture(self, tid: bytes, challenge: Challenge | None) -> np.ndarray | None:
        """Pixels of ``challenge`` on installed token ``tid`` under a fresh CSPRNG noise seed.

        Raises ``KeyError`` for an unknown id and returns ``None`` for no
        challenge, in that order.
        """
        with self._guard:
            token = self._tokens.get(tid)
        if token is None:
            raise KeyError(tid.hex())
        if challenge is None:
            return None
        # respond, like enroll, authenticate and verify below: a module global that
        # perfbench/tracing.py wraps
        return respond(token, challenge, noise=self.noise.with_seed(secrets.randbits(64)))

    # -- opcode handlers: each gets a Reader past the opcode byte --------

    def handle_payload(self, payload: bytes) -> bytes:
        if not payload:
            return error_payload(ERR_BAD_FRAME, "empty payload")
        r = Reader(payload)
        op = r.unpack("B")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return error_payload(ERR_BAD_FRAME, f"unknown opcode 0x{op:02x}")
        try:
            return handler(self, r)
        except KeyError as exc:
            return error_payload(ERR_NOT_FOUND, f"unknown id {exc.args[0]}")
        except ValueError as exc:
            return error_payload(ERR_BAD_FRAME, str(exc))
        except Exception as exc:  # defensive catch-all: keep serving, leave a trace
            _log.exception("internal error in op 0x%02x: %s", op, type(exc).__name__)
            return error_payload(ERR_INTERNAL, "internal error")

    def _handle_enroll(self, r: Reader) -> bytes:
        tid = r.take(16)
        challenge = challenge_from_bytes(r.take(r.unpack("I")))
        r.expect_end("enroll request")
        if challenge is None:
            raise ValueError("enroll needs a challenge descriptor")
        image = self._capture(tid, challenge)
        _, record = enroll(image, self.bch_params, token_id=tid, challenge=challenge)
        self.store.save(record)
        return bytes([OP_RESULT, OP_ENROLL]) + record.record_id + record.key_digest

    def _handle_auth(self, r: Reader) -> bytes:
        record_id = r.take(16)
        r.expect_end("auth request")
        record = self.store.load(record_id)
        image = self._capture(record.token_id, record.challenge)
        if image is None:
            return error_payload(ERR_INTERNAL, "record carries no challenge descriptor")
        outcome = authenticate(image, record)
        accepted = outcome is not None and verify(outcome[0], record)
        corrected = outcome[1] if outcome is not None else 0
        return bytes([OP_RESULT, OP_AUTH, 1 if accepted else 0]) + le("H", corrected)

    def _handle_random(self, r: Reader) -> bytes:
        n_bits = r.unpack("I")
        r.expect_end("random request")
        with self._guard:
            if not self._tokens:
                raise KeyError("no token installed")
            token = self._tokens[min(self._tokens)]
        bits = random_bits(token, n_bits, self.noise)
        return bytes([OP_RESULT, OP_RANDOM]) + BitKey(bits).to_bytes()

    _HANDLERS = {OP_ENROLL: _handle_enroll, OP_AUTH: _handle_auth, OP_RANDOM: _handle_random}


def random_bits(token: TokenModel, n_bits: int, noise: NoiseParams) -> np.ndarray:
    """``n_bits`` fresh random bits extracted from captures of ``token``.

    Each capture lights a random pattern under ``noise``; the pattern seed and
    the noise seed both come from the operating system's CSPRNG, so no two
    calls repeat. Up to 2000 bits are taken per capture, fewer on a camera
    whose ``rbm_max_bins`` is smaller.
    """
    if not 1 <= n_bits <= MAX_RANDOM_BITS:
        raise ValueError(f"bit count must be in 1..{MAX_RANDOM_BITS}")
    # respond, random_pattern, extract_bits: module globals that perfbench/tracing.py wraps
    per_image = max(1, min(2000, rbm_max_bins(token.out_dims)))
    images = [
        respond(token, random_pattern(token.grid_dims, secrets.randbits(64)),
                noise=noise.with_seed(secrets.randbits(64)))
        for _ in range(-(-n_bits // per_image))
    ]
    return extract_bits(images, per_image).bits[:n_bits]


# ----------------------------------------------------------------------
# socket plumbing

def _read_frame(sock: socket.socket, wait: float | None, frame_timeout: float) -> bytes:
    """Read one frame and return its payload, leaving later bytes unread.

    Waits up to ``wait`` seconds for the first byte (``None``: forever), then
    gives the rest of the frame one deadline of ``frame_timeout`` seconds.
    Raises ``TimeoutError`` for a late frame, ``FormatError`` for a length
    over ``MAX_FRAME`` and ``EOFError`` when the peer closes.
    """
    header = bytearray(4)
    sock.settimeout(wait)
    if not sock.recv_into(header, 1):
        raise EOFError("connection closed")
    deadline = time.monotonic() + frame_timeout

    def fill(view: memoryview):
        while view:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"frame not complete within {frame_timeout} s")
            sock.settimeout(left)
            got = sock.recv_into(view)
            if not got:
                raise EOFError("connection closed mid-frame")
            view = view[got:]

    fill(memoryview(header)[1:])
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise FormatError(f"frame length {length} exceeds maximum {MAX_FRAME}")
    payload = bytearray(length)
    fill(memoryview(payload))
    return bytes(payload)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        service: PufService = self.server.service  # type: ignore[attr-defined]
        frame_timeout = self.server.frame_timeout  # type: ignore[attr-defined]
        while True:
            try:
                payload = _read_frame(self.request, None, frame_timeout)
            except (TimeoutError, FormatError) as exc:
                # the frame boundary is lost and a length-prefixed stream cannot
                # find it again: answer once, then close the connection
                with contextlib.suppress(OSError):
                    self.request.sendall(encode_frame(error_payload(ERR_BAD_FRAME, str(exc))))
                return
            except (EOFError, OSError):
                return
            try:
                self.request.sendall(encode_frame(service.handle_payload(payload)))
            except OSError:
                return


class PufServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: PufService, frame_timeout: float = DEFAULT_FRAME_TIMEOUT):
        self.service = service
        self.frame_timeout = frame_timeout
        super().__init__(address, _Handler)


class ServiceClient:
    """Small blocking client; ``timeout`` bounds the connect and each reply."""

    def __init__(self, address, timeout: float = 10.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._timeout = timeout

    def close(self):
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send_raw(self, data: bytes):
        self._sock.sendall(data)

    def request(self, payload: bytes) -> bytes:
        self._sock.sendall(encode_frame(payload))
        return self.read_reply()

    def read_reply(self) -> bytes:
        return _read_frame(self._sock, self._timeout, self._timeout)

    # -- typed calls: each reads its reply's fields, then expects its end --

    def _call(self, op: int, body: bytes) -> Reader:
        """A Reader past the ``(OP_RESULT, op)`` reply header; ``ServiceError`` on an ERROR
        reply, ``FormatError`` on any other header."""
        reply = self.request(bytes([op]) + body)
        if reply[:1] == bytes([OP_ERROR]):
            raise ServiceError(*parse_error(reply))
        r = Reader(reply)
        if r.unpack("BB") != (OP_RESULT, op):
            raise FormatError(f"reply header {reply[:2].hex()} does not answer op 0x{op:02x}")
        return r

    def enroll(self, token_id: bytes, challenge_blob: bytes) -> tuple[bytes, bytes]:
        r = self._call(OP_ENROLL, token_id + le("I", len(challenge_blob)) + challenge_blob)
        record_id, digest = r.take(16), r.take(32)
        r.expect_end("enroll reply")
        return record_id, digest

    def auth(self, record_id: bytes) -> tuple[bool, int]:
        r = self._call(OP_AUTH, record_id)
        verdict, corrected = r.unpack("BH")
        r.expect_end("auth reply")
        return bool(verdict), corrected

    def random_bits(self, n_bits: int) -> np.ndarray:
        r = self._call(OP_RANDOM, le("I", n_bits))
        n = r.unpack("I")
        bits = unpack_bits(r.take(packed_size(n)), n)
        r.expect_end("random reply")
        return bits


class ServiceError(RuntimeError):
    def __init__(self, code: int, message: str):
        super().__init__(f"{ERROR_NAMES.get(code, code)}: {message}")
        self.code = code
        self.message = message
