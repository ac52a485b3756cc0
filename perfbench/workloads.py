"""Closed-loop workloads against an in-process ``PufServer`` over loopback TCP.

A run builds the tokens, starts the server and enrolls the set-up records
(``SETUP_REPEATS`` times, keeping the last deployment), sends a fixed
warm-up, then lets ``CLIENTS`` connections each send their next request only
after the previous reply, until the time is up. Every reply is checked; the
service only ever sees the generated frames.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import resource
import shutil
import socket
import statistics
import struct
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from photonpuf import bch, service, token
from photonpuf.token import NoiseParams, PixelPattern, Wavelength, challenge_to_bytes

import tracing

CLIENTS = 2
SETUP_REPEATS = 3
REPLY_TIMEOUT_S = 60.0
RANDOM_BITS = 10_000
ONES_BAND = (0.4, 0.6)  # wide: 10 000 fair bits stay within +-0.005 at 1 sigma
AUTHS_PER_ENROLL = 9
CHECK_AUTHS = 2  # auths per wavelength record after an OP_RANDOM loop
# Beyond t bit errors a genuine auth is rightly rejected, which at the default
# noise happened about twice in 10 000 auths. A run may reject this many, or
# this share of its auths if that is more; beyond it the run is incorrect.
REJECTS_ALLOWED = 1
REJECT_SHARE_ALLOWED = 0.005


@dataclass(frozen=True)
class Geometry:
    """Challenge grid, camera, BCH(2^m - 1, t) and capture noise of a run.

    The defaults are the service's; the smoke test shrinks them.
    """

    grid: tuple = (16, 16)
    out: tuple = (128, 128)
    bch_m: int = 8
    bch_t: int = 31
    noise: NoiseParams = NoiseParams()


DEFAULT_GEOMETRY = Geometry()


@dataclass(frozen=True)
class Workload:
    """Diffuser tokens, set-up records (random 50% pixel masks), and the loop.

    ``mix="auth"``: the loop sends 9 auths per enroll. ``mix="random"``: the
    loop sends only OP_RANDOM; after it, ``records`` wavelength records are
    enrolled and each is authenticated ``CHECK_AUTHS`` times.
    """

    name: str
    tokens: int
    records: int  # enrolled during each set-up
    mix: str


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # one noisy pixel capture per request; the wavelength path is unused
        Workload("pixel-auth", tokens=4, records=32, mix="auth"),
        # 5 pixel captures per request and no BCH or store in the loop. The
        # wavelength records after the loop carry the wavelength path (knot
        # walk, bridge, locked cache) and give corrected_bits_mean something
        # to measure. They stay out of set-up: their ~20 ms enrolls slowed by
        # up to 1.6x with host load, against ~1.2x for the loop's captures.
        Workload("random-bits", tokens=1, records=16, mix="random"),
    )
}


# ----------------------------------------------------------------------
# inputs

@dataclass(frozen=True)
class Plan:
    """Everything the workload seed decides."""

    token_seeds: tuple
    setups: tuple  # per set-up repeat: (token index, challenge) per record
    client_seeds: tuple
    wavelengths: tuple  # records enrolled after an OP_RANDOM loop


def pixel_masks(rng, grid):
    """Endless random 50% pixel masks."""
    while True:
        yield PixelPattern((rng.random(grid) < 0.5).astype(np.uint8))


def wavelengths(rng, n: int) -> list:
    """``n`` wavelengths uniform over the tuning range, in ascending order.

    They are stratified, one per equal-width band, so every seed spreads them
    as evenly, and are enrolled in ascending order, as a tuning sweep would:
    the cost of a wavelength query depends on its distance to the knots
    already walked, so the traced wavelength path does not hang on the draw
    order.
    """
    lo, hi = token.TUNING_RANGE_NM
    drawn = sorted(float(lo + (band + rng.random()) * (hi - lo) / n)
                   for band in rng.permutation(n))
    return [Wavelength(x) for x in drawn]


def make_plan(w: Workload, seed: int, geom: Geometry) -> Plan:
    root = np.random.SeedSequence([int(seed), zlib.crc32(w.name.encode())])
    tok_ss, setup_ss, client_ss, wl_ss = root.spawn(4)
    token_seeds = np.random.default_rng(tok_ss).integers(0, 2 ** 63, size=w.tokens)
    setups = []
    for ss in setup_ss.spawn(SETUP_REPEATS):
        masks = pixel_masks(np.random.default_rng(ss), geom.grid)
        n = w.records // w.tokens
        per_token = [list(itertools.islice(masks, n)) for _ in range(w.tokens)]
        setups.append(tuple((j % w.tokens, per_token[j % w.tokens][j // w.tokens])
                            for j in range(w.records)))
    clients = tuple(int(s.generate_state(1)[0]) for s in client_ss.spawn(CLIENTS))
    wls = wavelengths(np.random.default_rng(wl_ss), w.records) if w.mix == "random" else []
    return Plan(tuple(int(s) for s in token_seeds), tuple(setups), clients, tuple(wls))


# ----------------------------------------------------------------------
# requests and reply checks

@dataclass(frozen=True)
class Op:
    kind: str  # "enroll", "auth" or "random"
    payload: bytes


def enroll_op(tid: bytes, challenge) -> Op:
    blob = challenge_to_bytes(challenge)
    return Op("enroll", bytes([service.OP_ENROLL]) + tid + struct.pack("<I", len(blob)) + blob)


def auth_op(rid: bytes) -> Op:
    return Op("auth", bytes([service.OP_AUTH]) + rid)


def random_op(n_bits: int) -> Op:
    return Op("random", bytes([service.OP_RANDOM]) + struct.pack("<I", n_bits))


@dataclass
class Result:
    kind: str
    send_ns: int
    recv_ns: int
    ok: bool
    reason: str = ""
    rejected: bool = False  # a well-formed reject of a genuine auth (not ok, not wrong)
    corrected: int | None = None
    record_id: bytes | None = None

    @property
    def ms(self) -> float:
        return (self.recv_ns - self.send_ns) / 1e6


def check_reply(op: Op, reply: bytes, t: int, res: Result):
    """Fill ``res`` from a reply; anything unexpected marks it failed."""
    if reply[:1] == bytes([service.OP_ERROR]):
        res.ok, res.reason = False, f"error frame {reply[1:2].hex()}"
        return
    if op.kind == "enroll":
        if len(reply) != 50 or reply[:2] != bytes([service.OP_RESULT, service.OP_ENROLL]):
            res.ok, res.reason = False, "malformed enroll reply"
            return
        res.record_id = reply[2:18]
    elif op.kind == "auth":
        if len(reply) != 5 or reply[:2] != bytes([service.OP_RESULT, service.OP_AUTH]):
            res.ok, res.reason = False, "malformed auth reply"
            return
        res.corrected = struct.unpack("<H", reply[3:5])[0]
        if reply[2] != 1 and res.corrected:
            # decoding succeeded, so the recovered key itself was refused
            res.ok, res.reason = False, "genuine auth rejected after decoding"
        elif reply[2] != 1:
            # beyond t bit errors a reject is the protocol's answer, not a wrong
            # output; it counts against ok_ratio and is capped per run
            res.ok, res.rejected, res.reason = False, True, "genuine auth rejected"
        elif res.corrected > t:
            res.ok, res.reason = False, f"corrected {res.corrected} > t={t}"
    else:
        (n,) = struct.unpack("<I", op.payload[1:5])
        if (len(reply) != 6 + (n + 7) // 8
                or reply[:2] != bytes([service.OP_RESULT, service.OP_RANDOM])
                or struct.unpack("<I", reply[2:6])[0] != n):
            res.ok, res.reason = False, "malformed random reply"
            return
        bits = np.unpackbits(np.frombuffer(reply[6:], dtype=np.uint8), bitorder="little")[:n]
        ones = float(bits.mean())
        if not ONES_BAND[0] <= ones <= ONES_BAND[1]:
            res.ok, res.reason = False, f"ones fraction {ones:.3f}"


class Client:
    """One persistent framed connection; replies are checked as they arrive."""

    def __init__(self, address, t: int):
        self._sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self._t = t
        self.dead = False

    def close(self):
        self._sock.close()

    def _recv(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                raise EOFError("connection closed")
            buf += chunk
        return bytes(buf)

    def call(self, op: Op) -> Result:
        send = time.perf_counter_ns()
        try:
            self._sock.sendall(service.encode_frame(op.payload))
            (length,) = struct.unpack(">I", self._recv(4))
            reply = self._recv(length)
        except (OSError, EOFError) as exc:  # socket.timeout is an OSError
            self.dead = True
            return Result(op.kind, send, time.perf_counter_ns(), False, type(exc).__name__)
        res = Result(op.kind, send, time.perf_counter_ns(), True)
        check_reply(op, reply, self._t, res)
        return res


def drive(clients, streams, deadline: float | None = None) -> list[list[Result]]:
    """Run one closed loop per client over its op stream; returns results per client.

    With a deadline a client sends no new request once it has passed; the
    reply in flight still counts.
    """
    out: list[list[Result]] = [[] for _ in clients]

    def loop(i):
        for op in streams[i]:
            if clients[i].dead or (deadline is not None and time.perf_counter() >= deadline):
                break
            out[i].append(clients[i].call(op))

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(clients))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return out


# ----------------------------------------------------------------------
# deployment

@dataclass
class Deployment:
    store_dir: str
    server: service.PufServer
    thread: threading.Thread
    clients: list
    tids: list
    record_ids: list  # set-up records in plan order; None where enrollment failed
    returned_ids: set = field(default_factory=set)

    def note(self, results: list[Result]) -> list[Result]:
        """Flag enroll replies that repeat a record id within this store."""
        for r in results:
            if r.record_id is None:
                continue
            if r.record_id in self.returned_ids:
                r.ok, r.reason = False, "repeated record id"
            self.returned_ids.add(r.record_id)
        return results

    def close(self) -> list[str]:
        """Stop the server and check the store; returns problems found."""
        for c in self.clients:
            c.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=REPLY_TIMEOUT_S)
        names = sorted(os.listdir(self.store_dir))
        stored = {bytes.fromhex(n[:-5]) for n in names if n.endswith(".pufr")}
        problems = []
        if stored != self.returned_ids or len(names) != len(stored):
            problems.append(
                f"store holds {len(names)} files for {len(self.returned_ids)} record ids")
        shutil.rmtree(self.store_dir)
        return problems


def deploy(w: Workload, plan: Plan, rep: int, geom: Geometry,
           work_dir: str) -> tuple[Deployment, list]:
    """Build tokens, start the server and enroll set-up repeat ``rep``'s records."""
    tokens = [token.new_token(s, kind="diffuser", grid_dims=geom.grid, out_dims=geom.out)
              for s in plan.token_seeds]
    params = bch.bch_new(geom.bch_m, geom.bch_t)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    svc = service.PufService(service.RecordStore(store_dir), bch_params=params, noise=geom.noise)
    tids = [svc.add_token(t) for t in tokens]
    server = service.PufServer(("127.0.0.1", 0), svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    clients = [Client(server.server_address, params.t) for _ in range(CLIENTS)]
    dep = Deployment(store_dir, server, thread, clients, tids, [])
    streams = [[enroll_op(tids[ti], ch) for ti, ch in plan.setups[rep][i::CLIENTS]]
               for i in range(CLIENTS)]
    per_client = drive(clients, streams)
    results = []
    for j in range(w.records):
        i, k = j % CLIENTS, j // CLIENTS
        r = per_client[i][k] if k < len(per_client[i]) else None
        dep.record_ids.append(r.record_id if r is not None else None)
        if r is not None:
            results.append(r)
    return dep, dep.note(results)


def loop_stream(w: Workload, dep: Deployment, seed: int, geom: Geometry):
    """Endless request order for one client, drawn from its seed.

    Auths go to records in shuffled rounds, each record once per round, so
    every run draws the records as evenly.
    """
    rng = np.random.default_rng(seed)
    if w.mix == "random":
        while True:
            yield random_op(RANDOM_BITS)
    records = dep.record_ids
    challenges = pixel_masks(rng, geom.grid)
    rounds = _shuffled_rounds(rng, records)
    while True:
        enroll_at = int(rng.integers(AUTHS_PER_ENROLL + 1))
        for slot in range(AUTHS_PER_ENROLL + 1):
            if slot == enroll_at:
                ti = int(rng.integers(len(dep.tids)))
                yield enroll_op(dep.tids[ti], next(challenges))
            else:
                yield auth_op(next(rounds))


def _shuffled_rounds(rng, items):
    while True:
        for k in rng.permutation(len(items)):
            yield items[k]


def wavelength_checks(dep: Deployment, plan: Plan) -> list[Result]:
    """Enroll the plan's wavelength records, then authenticate each ``CHECK_AUTHS`` times."""
    enrolls = [enroll_op(dep.tids[0], ch) for ch in plan.wavelengths]
    results = dep.note(_flat(drive(dep.clients, [enrolls[i::CLIENTS] for i in range(CLIENTS)])))
    ids = [r.record_id for r in results if r.record_id is not None for _ in range(CHECK_AUTHS)]
    checks = [[auth_op(rid) for rid in ids[i::CLIENTS]] for i in range(CLIENTS)]
    return results + _flat(drive(dep.clients, checks))


def warmup_streams(w: Workload, dep: Deployment):
    """Two untimed requests per client, the same on every commit."""
    if w.mix == "random":
        return [[random_op(RANDOM_BITS)] * 2 for _ in range(CLIENTS)]
    ids = dep.record_ids
    return [[auth_op(ids[(i + CLIENTS * k) % len(ids)]) for k in range(2)]
            for i in range(CLIENTS)]


# ----------------------------------------------------------------------
# a whole run

@dataclass
class RunOutput:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    problems: list
    spans: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)  # sample counts behind the metrics


def _flat(per_client: list[list[Result]]) -> list[Result]:
    return [r for rs in per_client for r in rs]


def _ops_per_s(segments) -> float:
    """Correct replies per second of loop time, pooled over the segments given."""
    flats = [_flat(pc) for pc in segments]
    secs = sum((max(r.recv_ns for r in f) - min(r.send_ns for r in f)) / 1e9
               for f in flats if f)
    return sum(r.ok for f in flats for r in f) / secs if secs else 0.0


def run(w: Workload, seed: int, seconds: float, trace: bool,
        geom: Geometry = DEFAULT_GEOMETRY, work_dir: str = ".",
        max_requests: int | None = None) -> RunOutput:
    """Set up, warm up, run the closed loop and check the store.

    With ``trace`` the set-ups and half of the timed loop run under the span
    tracer; the other half runs untraced, interleaved in quarters, which
    gives the tracing overhead. ``max_requests`` caps each client's loop.
    """
    plan = make_plan(w, seed, geom)
    tracer = tracing.Tracer()

    def traced_if(on: bool):
        return tracer if on else contextlib.nullcontext()

    results: list[Result] = []
    problems: list[str] = []
    setup_s: list[float] = []
    dep = None
    for rep in range(SETUP_REPEATS):
        if dep is not None:
            problems += dep.close()
            dep = None
            gc.collect()  # free the previous tokens before building the next ones
        t0 = time.perf_counter()
        with traced_if(trace):
            dep, res = deploy(w, plan, rep, geom, work_dir)
        setup_s.append(time.perf_counter() - t0)
        results += res
    setup_enrolls = list(results)
    n_seg = 4 if trace else 1
    segments: list[tuple[bool, list[list[Result]]]] = []  # (traced, results per client)
    try:
        if None in dep.record_ids:
            problems.append("set-up enrollment failed")
        else:
            results += dep.note(_flat(drive(dep.clients, warmup_streams(w, dep))))
            streams = [loop_stream(w, dep, s, geom) for s in plan.client_seeds]
            for seg in range(n_seg):
                on = trace and seg % 2 == 1
                capped = ([itertools.islice(s, max_requests // n_seg) for s in streams]
                          if max_requests else streams)
                deadline = time.perf_counter() + seconds / n_seg
                with traced_if(on):
                    per_client = drive(dep.clients, capped, deadline)
                segments.append((on, per_client))
                results += dep.note(_flat(per_client))
            if w.mix == "random":
                with traced_if(trace):
                    results += wavelength_checks(dep, plan)
    finally:
        problems += dep.close()

    auth_results = [r for r in results if r.kind == "auth"]
    auths = [r.corrected for r in auth_results if r.ok]
    rejected = sum(r.rejected for r in results)
    failed = sum(not r.ok for r in results) - rejected
    if rejected > max(REJECTS_ALLOWED, REJECT_SHARE_ALLOWED * len(auth_results)):
        problems.append(f"{rejected} of {len(auth_results)} genuine auths rejected")
    if segments and not auths:
        problems.append("no genuine auth accepted")
    notes = {"setup_s": [round(x, 3) for x in setup_s], "rejected_auths": rejected}
    if not segments:
        metrics = {}
    elif trace:
        metrics, trace_problems = _layer_metrics(tracer.spans, segments)
        problems += trace_problems
    else:
        loop = _flat([rs for _, pc in segments for rs in pc])
        latencies = [r.ms for r in loop if r.ok]
        p90 = tracing.percentile(latencies, 90)
        notes.update(loop_replies=len(latencies), beyond_p90=sum(x > p90 for x in latencies),
                     setup_enrolls=len(setup_enrolls), auths=len(auths))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (_ops_per_s([pc for _, pc in segments]), "1/s"),
            "latency_p50_ms": (tracing.percentile(latencies, 50), "ms"),
            "latency_p90_ms": (p90, "ms"),
            "enroll_p50_ms": (tracing.percentile([r.ms for r in setup_enrolls if r.ok], 50), "ms"),
            "corrected_bits_mean": (statistics.fmean(auths) if auths else 0.0, "bits"),
            "ok_ratio": (1.0 - (failed + rejected) / len(results), "ratio"),
            "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return RunOutput(
        correct=failed == 0 and not problems and bool(segments),
        attempted=max(len(results), 1),
        failed=failed if results else 1,
        metrics=metrics,
        problems=problems + sorted({r.reason for r in results if not r.ok and not r.rejected}),
        spans=tracer.spans,
        notes=notes,
    )


def _layer_metrics(spans, segments) -> tuple[dict, list[str]]:
    """Per-layer metrics, transport wait and the tracing overhead, and problems found."""
    metrics = tracing.layer_metrics(spans)
    waits, problems = [], []
    for on, per_client in segments:
        flat = _flat(per_client)
        if not on or not flat:
            continue
        lo, hi = min(r.send_ns for r in flat), max(r.recv_ns for r in flat)
        window = [s for s in spans if s.name == tracing.HANDLE and lo <= s.start_ns <= hi]
        clients = [[(r.send_ns, r.recv_ns) for r in rs] for rs in per_client]
        found = tracing.transport_waits_ms(clients, window)
        if found is None:
            problems.append(f"client requests {[len(c) for c in clients]} match no pairing "
                            f"with the traced server threads")
        else:
            waits += found
    metrics["service.transport_wait_ms_p50"] = (tracing.percentile(waits, 50), "ms")
    untraced = _ops_per_s([pc for on, pc in segments if not on])
    traced = _ops_per_s([pc for on, pc in segments if on])
    metrics["trace.ops_per_s_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    return metrics, problems
