"""Spans around the program's public entry points, installed from outside.

The program has no tracing of its own.  :class:`Tracer` wraps the
public functions and methods listed in :data:`TARGETS` in place (module
attributes and class attributes), records one span per call — name,
start, end, parent by call nesting, and the id of the top-level
operation — keeps the spans in memory, and removes every wrapper again
on :meth:`Tracer.uninstall`.  :func:`layer_metrics` turns the spans
into the per-layer numbers ``BENCHMARK.json`` names.

Call nesting is tracked in a :class:`contextvars.ContextVar`, so spans
nest correctly per thread and per asyncio task.  Work handed to an
executor thread starts a new top-level operation.
"""

import collections
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

#: Layers, named by ``src/repro`` module, that spans are grouped into.
LAYERS = (
    "datasets", "graph", "api", "parser", "patterns", "analysis", "plan",
    "engine", "similarity", "streaming", "server",
)

#: Span name of the benchmark's own bookkeeping inside a traced call;
#: it is a child span, so it never counts as any layer's self time.
OBSERVE = "bench.observe"


def _count_rows(tracer, start, args, result):
    indices, rows = result
    tracer.count("row_queries", len(indices))
    tracer.count("row_bytes", rows.nbytes)
    tracer.count("row_scanned", rows.size)
    tracer.count("row_positive", int(np.count_nonzero(rows > 0)))


def _count_expansion(tracer, start, args, result):
    tracer.count("expanded_patterns", len(result.patterns))


def mark_batch_start(tracer, start, args, result):
    """Remember when the ``run_many`` call behind each ranking started."""
    for ranking in result.values():
        tracer.marks[id(ranking)] = start


def coalesce_wait(tracer, start, args, result):
    """Submit-to-``run_many`` wait of one coalesced request."""
    started = tracer.marks.pop(id(result), None)
    if started is not None:
        tracer.count("coalesce_wait_s", started - start)
        tracer.count("coalesce_waits", 1)


#: ``(module, class or None, attribute, span name, observer)``.
TARGETS = (
    ("repro.datasets.scale", None, "generate_dblp_scale",
     "datasets.generate", None),
    ("repro.api.session", "SimilaritySession", "__init__",
     "graph.session_build", None),
    ("repro.graph.database", "GraphDatabase", "copy", "graph.db_copy", None),
    ("repro.api.session", "SimilaritySession", "prepare", "api.prepare",
     None),
    ("repro.api.session", "SimilaritySession", "rank_many",
     "api.rank_many", None),
    ("repro.api.session", "QueryBuilder", "build", "api.bind", None),
    ("repro.api.prepared", "PreparedQuery", "run", "api.run", None),
    ("repro.api.prepared", "PreparedQuery", "run_many", "api.run_many",
     None),
    ("repro.api.service", "SimilarityService", "apply", "api.apply", None),
    ("repro.lang.parser", None, "parse_pattern", "parser.parse", None),
    ("repro.patterns.generator", None, "generate_patterns",
     "patterns.expand", _count_expansion),
    ("repro.analysis.typecheck", "PatternTypeChecker", "check",
     "analysis.check", None),
    ("repro.lang.matrix_semantics", "CommutingMatrixEngine", "compile",
     "plan.compile", None),
    ("repro.lang.matrix_semantics", "CommutingMatrixEngine",
     "matrices_many", "engine.matrices_many", None),
    ("repro.lang.matrix_semantics", "CommutingMatrixEngine", "warm",
     "engine.warm", None),
    ("repro.lang.matrix_semantics", "CommutingMatrixEngine", "fork",
     "engine.fork", None),
    ("repro.lang.matrix_semantics", "CommutingMatrixEngine", "apply_delta",
     "engine.apply_delta", None),
    ("repro.core.relsim", "RelSim", "score_rows", "similarity.score_rows",
     _count_rows),
    ("repro.similarity.base", "SimilarityAlgorithm", "rank_many",
     "similarity.rank_many", None),
    ("repro.streaming.subscription", "SubscriptionManager", "on_publish",
     "streaming.on_publish", None),
    ("repro.server.batching", "CoalescingBatcher", "submit",
     "server.submit", None),
    ("repro.server.protocol", None, "ranking_payload",
     "server.ranking_payload", None),
    ("repro.server.protocol", None, "encode_json", "server.encode_json",
     None),
)


class Tracer:
    """In-memory spans and counters for the calls it wraps.

    ``phase`` labels every span and counter recorded while it is set
    (``setup``, ``timed``, ``apply``, ``serve``), so one run's setup and
    measured work can be told apart afterwards.  ``observers`` maps span
    names to observers that replace the default ones (the server
    launcher adds coalescing marks).
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.spans = []
        self.counters = collections.Counter()
        self.marks = {}
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar(
            "simbench_span", default=(0, 0)
        )
        self._patches = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name, amount):
        # Observers run on the server's executor threads too.
        with self._lock:
            self.counters[self.phase, name] += amount

    def _enter(self):
        parent, root = self._current.get()
        span_id = next(self._ids)
        token = self._current.set((span_id, root or span_id))
        return span_id, parent, root or span_id, token

    def _exit(self, name, opened, start):
        span_id, parent, root, token = opened
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append((span_id, parent, root, name, start, end, self.phase))

    def _observe(self, observe, start, args, result):
        opened = self._enter()
        begin = time.perf_counter()
        try:
            observe(self, start, args, result)
        finally:
            self._exit(OBSERVE, opened, begin)

    def wrap(self, func, name, observe=None):
        """``func`` wrapped to record a span named ``name`` per call."""
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced(*args, **kwargs):
                opened = self._enter()
                start = time.perf_counter()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    self._exit(name, opened, start)
                if observe is not None:
                    self._observe(observe, start, args, result)
                return result

            return traced

        @functools.wraps(func)
        def traced(*args, **kwargs):
            opened = self._enter()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(name, opened, start)
            if observe is not None:
                self._observe(observe, start, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self):
        """Wrap every entry point in :data:`TARGETS`; no-op if installed."""
        if self._patches:
            return
        # Import everything first: a module imported after a function
        # was patched would bind the wrapper without a record to undo.
        modules = [importlib.import_module(target[0]) for target in TARGETS]
        for module, target in zip(modules, TARGETS):
            _, class_name, attribute, name, observe = target
            observe = self.observers.get(name, observe)
            if class_name is None:
                self._patch_function(module, attribute, name, observe)
            else:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self.wrap(original, name, observe))
                self._patches.append((owner, attribute, original))

    def _patch_function(self, module, attribute, name, observe):
        # Functions are imported by name into other modules, so every
        # loaded ``repro`` module holding the same object is patched.
        original = getattr(module, attribute)
        wrapper = self.wrap(original, name, observe)
        for module_name, loaded in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            if getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapper)
                self._patches.append((loaded, attribute, original))

    def uninstall(self):
        """Restore every wrapped function and method."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class SpanView:
    """Queries over recorded spans: inclusive, self and nested times."""

    def __init__(self, spans):
        self.spans = [tuple(span) for span in spans]
        self._by_id = {span[0]: span for span in self.spans}
        children = collections.defaultdict(list)
        for span in self.spans:
            if span[1]:
                children[span[1]].append(span)
        self._self = {}
        for span in self.spans:
            covered = 0.0
            reach = span[4]
            for child in sorted(children.get(span[0], ()), key=lambda c: c[4]):
                begin, end = max(child[4], reach), min(child[5], span[5])
                if end > begin:
                    covered += end - begin
                    reach = end
            self._self[span[0]] = (span[5] - span[4]) - covered

    def _has_ancestor(self, span, names):
        parent = self._by_id.get(span[1])
        while parent is not None:
            if parent[3] in names:
                return True
            parent = self._by_id.get(parent[1])
        return False

    def select(self, names, phases):
        return [s for s in self.spans if s[3] in names and s[6] in phases]

    def count(self, name, phases):
        return len(self.select({name}, phases))

    def inclusive(self, names, phases):
        """Seconds in outermost spans of ``names`` (nested ones not again)."""
        names = set(names)
        return sum(
            span[5] - span[4]
            for span in self.select(names, phases)
            if not self._has_ancestor(span, names)
        )

    def self_time(self, names, phases):
        return sum(self._self[span[0]] for span in self.select(set(names), phases))

    def layer_self(self, layer, phases):
        prefix = layer + "."
        return sum(
            self._self[span[0]]
            for span in self.spans
            if span[3].startswith(prefix) and span[6] in phases
        )

    def within(self, outer, names, phases):
        """Seconds of ``names`` spans nested (at any depth) in ``outer``."""
        names = set(names)
        total = 0.0
        for span in self.select(names, phases):
            if self._has_ancestor(span, names):
                continue
            if self._has_ancestor(span, {outer}):
                total += span[5] - span[4]
        return total


def _per(value, base):
    return value / base if base else 0.0


def layer_metrics(view, counters, facts):
    """Every per-layer metric, from spans, counters and run facts.

    ``facts`` holds what the spans cannot know: ``setups`` (set-ups
    traced), ``queries``, HTTP ``requests`` and ``operations`` in the
    traced measured phases, ``applies``, the ``query_phases``/``apply_phases`` labels,
    engine cache counters, subscription counters, the server's
    ``/statz`` figures and the tracing overhead.  A layer that did no
    work in a workload reports 0.
    """
    setup = {"setup"}
    queries_in = set(facts["query_phases"])
    applies_in = set(facts["apply_phases"])
    measured = queries_in | applies_in
    queries = facts["queries"]
    applies = facts["applies"]
    setups = facts["setups"]

    def counter(name, phases):
        return sum(counters.get((phase, name), 0) for phase in phases)

    def per_query_ms(names):
        return 1000.0 * _per(view.inclusive(names, queries_in), queries)

    def per_apply_ms(names):
        return 1000.0 * _per(view.within("api.apply", names, applies_in), applies)

    apply_total = view.inclusive({"api.apply"}, applies_in)
    apply_parts = view.within(
        "api.apply", {"graph.db_copy", "engine.fork", "engine.apply_delta"},
        applies_in,
    )
    hits, misses = facts["cache_hits"], facts["cache_misses"]
    subs = facts["subscriptions"]
    checks = subs["pruned"] + subs["rescored"] + subs["fallbacks"]
    server = facts["server"]
    metrics = {
        "datasets.generate_s": _per(
            view.inclusive({"datasets.generate"}, setup), setups),
        "graph.session_build_s": _per(
            view.inclusive({"graph.session_build"}, setup), setups),
        "api.prepare_s": _per(view.inclusive({"api.prepare"}, setup), setups),
        "engine.cold_execute_s": _per(
            view.inclusive({"engine.matrices_many", "engine.warm"}, setup),
            setups),
        "similarity.score_rows_ms": per_query_ms({"similarity.score_rows"}),
        "similarity.topk_ms": 1000.0 * _per(
            view.self_time({"similarity.rank_many"}, queries_in), queries),
        "similarity.row_bytes": _per(
            counter("row_bytes", queries_in), counter("row_queries", queries_in)),
        "similarity.useful_ratio": _per(
            counter("row_positive", queries_in),
            counter("row_scanned", queries_in)),
        "api.run_ms": 1000.0 * _per(
            view.self_time({"api.run"}, queries_in),
            view.count("api.run", queries_in)),
        "api.bind_ms": 1000.0 * _per(
            view.inclusive({"api.bind"}, queries_in),
            view.count("api.bind", queries_in)),
        "api.apply_ms": 1000.0 * _per(apply_total, applies),
        "api.publish_ms": 1000.0 * _per(apply_total - apply_parts, applies),
        "parser.parse_ms": per_query_ms({"parser.parse"}),
        "patterns.expand_ms": per_query_ms({"patterns.expand"}),
        "patterns.expanded_count": _per(
            counter("expanded_patterns", queries_in), queries),
        "analysis.check_ms": per_query_ms({"analysis.check"}),
        "plan.compile_ms": per_query_ms({"plan.compile"}),
        "plan.compile_calls": _per(
            view.count("plan.compile", queries_in), queries),
        "engine.cache_hits": hits,
        "engine.cache_misses": misses,
        "engine.hit_ratio": _per(hits, hits + misses),
        "engine.cache_mib": facts["cache_bytes"] / 2.0 ** 20,
        "engine.fork_ms": per_apply_ms({"engine.fork"}),
        "engine.apply_delta_ms": per_apply_ms({"engine.apply_delta"}),
        "engine.patched": _per(facts["patched"], applies),
        "graph.db_copy_ms": per_apply_ms({"graph.db_copy"}),
        "streaming.maintain_ms": per_apply_ms({"streaming.on_publish"}),
        "streaming.pruned": subs["pruned"],
        "streaming.rescored": subs["rescored"],
        "streaming.fallbacks": subs["fallbacks"],
        "streaming.useful_ratio": _per(
            subs["pruned"] + subs["rescored"], checks),
        "server.coalesce_wait_ms": 1000.0 * _per(
            counter("coalesce_wait_s", queries_in),
            counter("coalesce_waits", queries_in)),
        "server.serialize_ms": 1000.0 * _per(
            view.inclusive(
                {"server.ranking_payload", "server.encode_json"}, queries_in),
            facts["requests"]),
        "server.batches": server["batches"],
        "server.batch_size_mean": _per(
            server["batched_requests"], server["batches"]),
        "server.requests": server["requests"],
        "server.rejected": server["rejected"],
        "server.errors": server["errors"],
        "trace.overhead_ms": facts["overhead_ms"],
    }
    operations = facts["operations"]
    for layer in LAYERS:
        metrics["self.{}_ms".format(layer)] = 1000.0 * _per(
            view.layer_self(layer, measured), operations)
    return metrics


NO_SERVER = {
    "requests": 0, "rejected": 0, "errors": 0, "batches": 0,
    "batched_requests": 0,
}
