"""In-memory span tracer that wraps photonpuf's layer functions from outside.

Each wrapped call records one span: layer name, start, end, parent span and
request id. A ``service.handle_payload`` span opens a new request; every span
below it on the same thread inherits that request id. Spans are kept in a
list and summarised once the run ends, so tracing does no I/O while the
service is under load.

Wrappers are installed at the module attributes that callers look up (the
service imports ``respond`` by name, so ``photonpuf.service.respond`` is the
attribute to replace, while ``wavelength_field`` is looked up in
``photonpuf.token`` by ``wavelength_response``).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass

from photonpuf import bch, protocol, service, token

HANDLE = "service.handle_payload"

# (layer name, owner object, attribute looked up by the caller)
LAYERS = (
    (HANDLE, service.PufService, "handle_payload"),
    ("service.RecordStore.save", service.RecordStore, "save"),
    ("service.RecordStore.load", service.RecordStore, "load"),
    ("token.new_token", token, "new_token"),
    ("token.respond", service, "respond"),
    ("token.wavelength_field", token, "wavelength_field"),
    ("token.random_pattern", service, "random_pattern"),
    ("protocol.enroll", service, "enroll"),
    ("protocol.authenticate", service, "authenticate"),
    ("protocol.verify", service, "verify"),
    ("hashing.hash_enroll", protocol, "hash_enroll"),
    ("hashing.hash_apply", protocol, "hash_apply"),
    ("bch.encode", bch, "encode"),
    ("bch.decode", bch, "decode"),
    ("randomness.extract_bits", service, "extract_bits"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    request: int | None
    thread: int
    start_ns: int = 0
    end_ns: int = 0
    returned_none: bool = False

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, owner, attr in LAYERS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        opens_request = name == HANDLE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if opens_request:
                request = next(self._requests)
            else:
                request = parent.request if parent is not None else None
            span = Span(next(self._ids), name, parent.span_id if parent else None,
                        request, threading.get_ident())
            stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                span.returned_none = result is None
                return result
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)  # list.append is atomic under the GIL

        return traced


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover.

    Children run on their parent's thread, one after another, so their
    intervals do not overlap and their durations add up.
    """
    out = {s.span_id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles; 0.0 for no values."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer calls, busy time percentiles and self share of request time."""
    selfs = self_times_ns(spans)
    handle_ns = sum(s.end_ns - s.start_ns for s in spans if s.name == HANDLE)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = (float(len(mine)), "count")
        out[f"{name}.busy_ms_p50"] = (percentile([s.ms for s in mine], 50), "ms")
        out[f"{name}.busy_ms_p90"] = (percentile([s.ms for s in mine], 90), "ms")
        own = sum(selfs[s.span_id] for s in mine)
        out[f"{name}.self_share"] = (own / handle_ns if handle_ns else 0.0, "ratio")
    failures = sum(1 for s in spans if s.name == "bch.decode" and s.returned_none)
    out["bch.decode.failures"] = (float(failures), "count")
    return out


def handle_spans_by_thread(spans: list[Span]) -> dict[int, list[Span]]:
    """``handle_payload`` spans grouped by server thread, in start order."""
    out: dict[int, list[Span]] = {}
    for s in sorted((s for s in spans if s.name == HANDLE), key=lambda s: s.start_ns):
        out.setdefault(s.thread, []).append(s)
    return out


def transport_waits_ms(client_requests, spans: list[Span]) -> list[float] | None:
    """Client latency minus server ``handle_payload`` time, per request.

    ``client_requests`` holds one list per connection of (send_ns, recv_ns)
    pairs in order. Each connection is served by one server thread, so the
    connections pair with the threads such that every span lies inside its
    client interval. Short requests can fit more than one pairing; then the
    one with the least total wait is taken. None when no pairing fits, as
    when a connection timed out or was lost.
    """
    clients = [reqs for reqs in client_requests if reqs]
    threads = list(handle_spans_by_thread(spans).values())
    best = None
    for order in itertools.permutations(threads, len(clients)):
        if not all(len(reqs) == len(th) and all(
                send <= s.start_ns and s.end_ns <= recv for (send, recv), s in zip(reqs, th))
                for reqs, th in zip(clients, order)):
            continue
        waits = [(recv - send - (s.end_ns - s.start_ns)) / 1e6
                 for reqs, th in zip(clients, order) for (send, recv), s in zip(reqs, th)]
        if best is None or sum(waits) < sum(best):
            best = waits
    return best
