"""Spans and counts around each layer's public functions.

``install()`` runs inside the traced server process (see
``traced_server.py``) before it serves: it wraps the public functions
of every layer, patching each name where its caller looks it up, and
records a span per call - name, start, end, parent span and request id -
plus counts, in memory. ``Tracer.dump`` writes them out at shutdown and
``summarize`` turns the files of one run into the per-layer metrics of
``BENCHMARK.json``.

A span's self time is its duration minus the part of it that its child
spans cover; every ``*_s`` metric below is a self time, except
``scheduler.busy_s`` (whole job durations) and ``scheduler.queue_wait_s``.
Distributed workers run in their own processes and are not wrapped, so
their compute shows up inside ``runtime.map_s``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


#: Seconds between samples of the cache size and the store's lag.
LEVEL_SAMPLE_S = 0.5


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.final: dict = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.store = None
        self.backend = None

    # -- context --------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, int | None]:
        """(span id, request id) of the innermost open span on this thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return None, getattr(self._local, "request", None)

    def new_request(self) -> int:
        self._local.request = next(self._requests)
        return self._local.request

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    # -- spans ----------------------------------------------------------- #
    def span(self, name: str, fn, *args, parent=None, **kwargs):
        """Call ``fn`` inside a span; ``parent`` overrides the thread's."""
        span_id = next(self._ids)
        parent_id, request_id = parent if parent is not None else self.current()
        stack = self._stack()
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, span_id, parent_id, request_id))

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a span name or ``callable(args) -> name``; ``after``
        is called as ``after(result, args, kwargs)`` for counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            result = tracer.span(label, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "maxima": dict(self.maxima),
                    "final": self.final,
                },
                fh,
            )


def install() -> Tracer:
    """Wrap every measured layer in this process; returns the tracer."""
    import repro.runtime.distributed as distributed
    import repro.runtime.wire as wire
    import repro.service.transport as transport
    from repro.bayes import BayesianLinearRegression
    from repro.cache import cache_stats
    from repro.cleaning.cleaner import GroundTruthCleaner
    from repro.core.estimator import CometEstimator
    from repro.errors.polluter import Polluter
    from repro.ml.pipeline import TabularModel
    from repro.ml.preprocessing import TabularPreprocessor
    from repro.runtime.backends import ProcessBackend, SerialBackend, _PooledBackend
    from repro.security import TransportSecurity
    from repro.service import CometService, CometTCPServer, SessionScheduler
    from repro.session import CleaningSession
    from repro.store import DirectorySessionStore

    t = Tracer()

    # service.transport + runtime.wire: frames and bytes on every link.
    def frame_in(result, args, kwargs):
        t.count("transport.frames")
        t.count("transport.bytes_in", len(args[0]) + 1)

    def frame_out(result, args, kwargs):
        t.count("transport.frames")
        t.count("transport.bytes_out", len(result))

    # ``read_frame`` blocks until the peer sends, so it is counted but
    # not timed: its duration would be mostly idle waiting.
    original_read_frame = wire.read_frame

    @functools.wraps(original_read_frame)
    def read_frame(*args, **kwargs):
        frame = original_read_frame(*args, **kwargs)
        if frame is not None:
            t.count("transport.frames")
        return frame

    original_parse = transport.parse_request

    @functools.wraps(original_parse)
    def parse_request(text):
        t.new_request()
        result = t.span("transport.frame", original_parse, text)
        frame_in(result, (text,), {})
        return result

    transport.parse_request = parse_request
    t.wrap(transport, "encode_frame", "transport.frame", frame_out)
    t.wrap(wire, "encode_frame", "transport.frame", frame_out)
    wire.read_frame = read_frame
    t.wrap(CometTCPServer, "get_request", "transport.accept",
           lambda r, a, k: t.count("transport.connections"))

    # security: TLS handshakes (deferred to the handler) and HMAC checks.
    def wrapped_socket(sock, args, kwargs):
        t.count("security.handshakes")
        handshake = sock.do_handshake
        sock.do_handshake = lambda *a, **k: t.span("security.handshake", handshake, *a, **k)

    t.wrap(TransportSecurity, "wrap_server", "security.handshake", wrapped_socket)
    t.wrap(TransportSecurity, "check_mac", "security.handshake")

    # service dispatch, one span per verb.
    def verb_done(response, args, kwargs):
        request = args[1] if len(args) > 1 else {}
        verb = request.get("action") if isinstance(request, dict) else None
        t.count(f"service.requests.{verb}")
        if not response.get("ok"):
            code = response["error"].get("code", "other")
            t.count(f"service.errors.{code}")

    def verb_name(args):
        request = args[1] if len(args) > 1 else {}
        return f"service.{request.get('action') if isinstance(request, dict) else None}"

    original_handle = CometService.handle

    @functools.wraps(original_handle)
    def handle(self, request, **kwargs):
        if t.current()[1] is None:
            t.new_request()
        response = t.span(verb_name((self, request)), original_handle, self, request, **kwargs)
        verb_done(response, (self, request), kwargs)
        return response

    CometService.handle = handle

    # service.scheduler: queue wait and busy time of each job. After a
    # job, at most every LEVEL_SAMPLE_S, sample the cache size and the
    # store's write-behind lag (``cache_stats`` walks every entry).
    original_submit = SessionScheduler.submit
    last_sample = [0.0]

    def sample_levels() -> None:
        now = time.perf_counter()
        if now - last_sample[0] < LEVEL_SAMPLE_S:
            return
        last_sample[0] = now
        t.peak("cache.peak_bytes", cache_stats()["total_bytes"])
        if t.store is not None:
            t.peak("store.write_lag_s", t.store.stats()["write_behind_lag_s"])

    @functools.wraps(original_submit)
    def submit(self, name, fn):
        parent = t.current()
        submitted = time.perf_counter()

        def job():
            t.count("scheduler.jobs")
            t.count("scheduler.queue_wait_s", time.perf_counter() - submitted)
            started = time.perf_counter()
            try:
                return t.span("scheduler.job", fn, parent=parent)
            finally:
                t.count("scheduler.busy_s", time.perf_counter() - started)
                sample_levels()

        return t.span("scheduler.submit", original_submit, self, name, job)

    SessionScheduler.submit = submit

    # session
    t.wrap(CleaningSession, "iterate", "session.iterate",
           lambda r, a, k: t.count("session.iterations"))
    t.wrap(CleaningSession, "recommend", "session.recommend")
    t.wrap(CleaningSession, "measure_baseline", "session.measure_baseline")

    # core.estimator
    def built(result, args, kwargs):
        t.count("estimator.candidates")
        t.count("estimator.tasks", len(result.tasks))

    t.wrap(CometEstimator, "build_candidate_tasks", "estimator.build", built)
    t.wrap(CometEstimator, "predict_cleaning", "estimator.predict")

    # errors
    t.wrap(Polluter, "incremental_states", "errors.pollute",
           lambda r, a, k: t.count("errors.states", sum(len(x) for x in r)))

    # ml + ml.preprocessing
    t.wrap(TabularModel, "fit_score", "ml.fit_score", lambda r, a, k: t.count("ml.fits"))
    t.wrap(TabularPreprocessor, "fit", "preprocessing.fit")
    t.wrap(TabularPreprocessor, "transform", "preprocessing.transform")

    # cleaning
    t.wrap(GroundTruthCleaner, "clean_step", "cleaning.clean",
           lambda r, a, k: t.count("cleaning.steps"))
    t.wrap(GroundTruthCleaner, "revert", "cleaning.clean",
           lambda r, a, k: t.count("cleaning.reverts"))
    t.wrap(GroundTruthCleaner, "apply", "cleaning.clean",
           lambda r, a, k: t.count("cleaning.applies"))

    # bayes
    t.wrap(BayesianLinearRegression, "fit", "bayes.fit", lambda r, a, k: t.count("bayes.fits"))

    # runtime: the outermost map of each backend class.
    for cls in (SerialBackend, _PooledBackend, ProcessBackend, distributed.DistributedBackend):
        original_map = cls.__dict__["map"]

        def make_map(original_map):
            @functools.wraps(original_map)
            def traced_map(self, fn, tasks):
                if getattr(t._local, "in_map", False):
                    return original_map(self, fn, tasks)
                tasks = list(tasks)
                t.backend = self
                t.count("runtime.maps")
                t.count("runtime.tasks", len(tasks))
                t._local.in_map = True
                try:
                    return t.span("runtime.map", original_map, self, fn, tasks)
                finally:
                    t._local.in_map = False

            return traced_map

        cls.map = make_map(original_map)

    # runtime.wire payloads (pickled task payloads and results).
    def pickled(text, args, kwargs):
        t.count("wire.payload_bytes", len(text))
        t.count("runtime.task_bytes", len(text) * 3 // 4 - text[-2:].count("="))

    t.wrap(distributed, "pickle_to_text", "wire.pickle", pickled)
    t.wrap(distributed, "text_to_pickle", "wire.pickle",
           lambda r, a, k: t.count("wire.payload_bytes", len(a[0])))

    # store
    def stored(result, args, kwargs):
        t.store = args[0]
        t.count("store.puts")

    t.wrap(DirectorySessionStore, "put", "store.put", stored)
    t.wrap(DirectorySessionStore, "load", "store.load")
    return t


def finish(t: Tracer) -> None:
    """Collect the end-of-run counters of caches, backend and store."""
    from repro.cache import cache_stats
    from repro.ml import fit_cache_stats

    t.final["cache"] = cache_stats()
    t.final["fit_cache"] = fit_cache_stats()
    if t.backend is not None and callable(getattr(t.backend, "stats", None)):
        t.final["backend"] = t.backend.stats()
    if t.store is not None:
        t.final["store"] = t.store.stats()


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
#: Self-time metrics: metric -> span names whose self times it sums.
SELF_TIME = {
    "transport.frame_s": ("transport.frame",),
    "security.handshake_s": ("security.handshake",),
    "session.self_s": ("session.iterate", "session.recommend", "session.measure_baseline"),
    "estimator.build_s": ("estimator.build",),
    "estimator.predict_s": ("estimator.predict",),
    "errors.pollute_s": ("errors.pollute",),
    "ml.fit_score_s": ("ml.fit_score",),
    "preprocessing.fit_s": ("preprocessing.fit",),
    "preprocessing.transform_s": ("preprocessing.transform",),
    "cleaning.clean_s": ("cleaning.clean",),
    "bayes.fit_s": ("bayes.fit",),
    "runtime.map_s": ("runtime.map",),
    "wire.pickle_s": ("wire.pickle",),
    "store.put_s": ("store.put",),
    "store.load_s": ("store.load",),
}

VERBS = ("create", "recommend", "step", "status", "checkpoint", "close")
ERROR_CODES = ("unauthorized", "session_busy", "quota_exceeded", "other")

COUNTS = (
    "transport.connections", "transport.frames", "transport.bytes_in",
    "transport.bytes_out", "security.handshakes", "scheduler.jobs",
    "scheduler.queue_wait_s", "scheduler.busy_s", "session.iterations",
    "estimator.candidates", "estimator.tasks", "errors.states", "ml.fits",
    "cleaning.steps", "cleaning.reverts", "bayes.fits", "runtime.maps",
    "runtime.tasks", "runtime.task_bytes", "wire.payload_bytes", "store.puts",
)


def self_times(spans: list) -> dict[str, float]:
    """Sum of self time per span name."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, span_id, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for name, start, end, span_id, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(paths) -> dict[str, float]:
    """Per-layer metrics of one run from its servers' span files."""
    counts: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    cache = defaultdict(float)
    backend = defaultdict(float)
    store = defaultdict(float)
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        for key, value in data["counts"].items():
            counts[key] += value
        for key, value in data["maxima"].items():
            maxima[key] = max(maxima[key], value)
        for key, value in self_times(data["spans"]).items():
            selfs[key] += value
        final = data["final"]
        for key in ("hits", "misses", "transform_hits", "transform_misses",
                    "block_hits", "block_misses"):
            cache[key] += final["fit_cache"].get(key, 0)
        cache["evictions"] += final["cache"].get("evictions", 0)
        for key in ("requeued", "inline"):
            backend[key] += final.get("backend", {}).get(key, 0)
        for key in ("bytes_written", "coalesced_writes"):
            store[key] += final.get("store", {}).get(key, 0)

    out: dict[str, float] = {key: counts.get(key, 0.0) for key in COUNTS}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(selfs.get(n, 0.0) for n in names)
    for verb in VERBS:
        out[f"service.requests.{verb}"] = counts.get(f"service.requests.{verb}", 0.0)
        out[f"service.self_s.{verb}"] = selfs.get(f"service.{verb}", 0.0)
    known = {f"service.errors.{c}" for c in ERROR_CODES[:-1]}
    for code in ERROR_CODES[:-1]:
        out[f"service.errors.{code}"] = counts.get(f"service.errors.{code}", 0.0)
    out["service.errors.other"] = sum(
        v for k, v in counts.items() if k.startswith("service.errors.") and k not in known
    )
    attempted = counts.get("cleaning.steps", 0.0) + counts.get("cleaning.applies", 0.0)
    out["session.revert_ratio"] = _ratio(counts.get("cleaning.reverts", 0.0), attempted)
    out["cache.fit.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    out["cache.transform.hit_ratio"] = _ratio(
        cache["transform_hits"], cache["transform_hits"] + cache["transform_misses"]
    )
    out["cache.blocks.hit_ratio"] = _ratio(
        cache["block_hits"], cache["block_hits"] + cache["block_misses"]
    )
    out["cache.evictions"] = cache["evictions"]
    out["cache.peak_bytes"] = maxima.get("cache.peak_bytes", 0.0)
    out["runtime.requeued"] = backend["requeued"]
    out["runtime.inline"] = backend["inline"]
    out["store.bytes_written"] = store["bytes_written"]
    out["store.coalesced_ratio"] = _ratio(store["coalesced_writes"], counts.get("store.puts", 0.0))
    out["store.write_lag_s"] = maxima.get("store.write_lag_s", 0.0)
    return out
