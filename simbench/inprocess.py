"""The in-process workloads: ``warm-1e6`` and ``adhoc-1e5``.

Both drive the program through its public API from one caller thread
in a closed loop: every cycle is ``CYCLE - 1`` single top-k queries
followed by one batch of ``BATCH`` queries.  After the query phase a
fixed number of single-edge toggles (add a ``w`` edge, then remove the
same edge) go through :meth:`SimilarityService.apply`, so the graph
ends where it started.

Set-up (generation, session or service build, prepare, cold execution)
runs three times per run: once for the measured state, once for the
fresh reference the answers are checked against, and once more only to
time it; ``setup_s`` is the median.

The traced run alternates untraced and traced blocks of ``BLOCK_SECONDS``
through the query phase; ``trace.overhead_ms`` is the median traced
block p50 minus the median untraced block p50.
"""

import gc
import statistics
import time

from simbench import common
from simbench.tracing import NO_SERVER, Tracer

#: Single queries per cycle, then one batch.
CYCLE = 33
#: Queries per batch call.
BATCH = 16
#: Pre-drawn query nodes per stream (the schedule wraps around).
STREAM = 1 << 16
#: Single-edge toggles (two applies each) after the query phase.
TOGGLES = 20
#: Answers checked at the final, post-toggle state.
FINAL_CHECKS = 12
#: Set-ups per run (measured state, reference, one more for timing).
SETUPS = 3
#: Length of one untraced or traced block of a traced query phase.
BLOCK_SECONDS = 1.0
#: Time windows ``query_qps`` is the median over.
RATE_WINDOWS = 10


class Plan:
    """The seeded operation schedule of one run.

    ``streams`` maps a node type to Zipf-drawn query nodes of that
    type; the ``i``-th single query uses shape ``order[i % len(order)]``
    and the batch closing cycle ``c`` uses ``order[c % len(order)]``.  Every
    ``stride``-th op (from a seeded offset) has its answer checked.
    """

    def __init__(self, seed, shapes, orders, stride):
        node_rng = common.rng(seed, "nodes")
        self.shapes = shapes
        self.orders = orders
        self.streams = {
            node_type: (
                common.zipf_sample(ordered, node_rng, STREAM),
                common.zipf_sample(ordered, node_rng, STREAM),
            )
            for node_type, ordered in orders.items()
        }
        shape_rng = common.rng(seed, "shapes")
        self.order = shape_rng.permutation(len(shapes)).tolist()
        check_rng = common.rng(seed, "check")
        self.stride = stride
        self.offset = int(check_rng.integers(stride))
        self.final_nodes = {
            node_type: common.zipf_sample(ordered, check_rng, FINAL_CHECKS)
            for node_type, ordered in orders.items()
        }

    def single(self, op):
        # Count singles only: with CYCLE a multiple of the shape count,
        # the single after each batch would otherwise always get the
        # same (seed-chosen) shape.
        index = op - op // CYCLE
        shape = self.order[index % len(self.order)]
        singles, _ = self.streams[self.shapes[shape][-1]]
        return shape, singles[index % STREAM]

    def batch(self, op):
        cycle = op // CYCLE
        shape = self.order[cycle % len(self.order)]
        _, batches = self.streams[self.shapes[shape][-1]]
        start = cycle * BATCH % STREAM
        return shape, [batches[(start + k) % STREAM] for k in range(BATCH)]

    def checked(self, op):
        return (op + self.offset) % self.stride == 0


class WarmWorkload:
    """Warm prepared RelSim at 10^6 edges: row extraction, scoring, top-k.

    The three ``bench_scale`` shapes are prepared once on one session;
    the query phase is prepared ``run`` calls interleaved with
    ``run_many`` batches on Zipf-skewed papers.  Cold matrix execution
    happens only in set-up.  ``apply_p50_ms`` comes from a 10^5-edge
    service with the same three shapes prepared, because one apply at
    10^6 edges takes seconds (it copies the whole database) and would
    swamp the run.  That service is built outside set-up, so neither
    ``setup_s`` nor the set-up layer metrics include it.  The 10^6
    session is released before the applies: while it is alive, every
    third or fourth apply triggers a full garbage collection that walks
    its objects (about 0.5 s), a cost a process serving only the 10^5
    service would not pay, and the median apply then flips between the
    two modes from seed to seed.
    """

    name = "warm-1e6"
    shapes = (
        ("w-.w", "pathsim", "paper"),
        ("w-.w.w-.w", "count", "paper"),
        ("w-.w.p-in", "count", "paper"),
    )
    stride = 97

    def __init__(self, seed, tiny=False):
        from repro import api, datasets

        self.api = api
        self.datasets = datasets
        self.seed = seed
        self.tier = 20_000 if tiny else 10**6
        self.side_tier = 5_000 if tiny else 10**5

    def _prepare(self, owner):
        return [
            owner.prepare(
                algorithm="relsim", pattern=pattern, scoring=scoring,
                top_k=common.TOP_K,
            )
            for pattern, scoring, _ in self.shapes
        ]

    def build(self):
        bundle = self.datasets.generate_dblp_scale(self.tier, seed=self.seed)
        session = self.api.SimilaritySession(bundle.database)
        return {
            "bundle": bundle,
            "session": session,
            "prepared": self._prepare(session),
        }

    def attach_apply(self, state):
        side = self.datasets.generate_dblp_scale(
            self.side_tier, seed=self.seed
        )
        service = self.api.SimilarityService(side.database, copy=False)
        state.update(
            side=side, service=service, side_prepared=self._prepare(service)
        )

    def plan(self, state):
        orders = {
            "paper": common.degree_order(
                state["bundle"].database, "paper", self.seed
            ),
            "side": common.degree_order(
                state["side"].database, "paper", self.seed
            ),
        }
        return Plan(self.seed, self.shapes, orders, self.stride)

    def toggles(self, state, plan):
        return common.toggle_edges(
            state["side"].database, plan.orders["side"], self.seed, TOGGLES
        )

    def single(self, state, shape, node):
        return state["prepared"][shape].run(node)

    def batch(self, state, shape, nodes):
        return state["prepared"][shape].run_many(nodes)

    def engine_session(self, state):
        return state["session"]

    def release_queries(self, state):
        """Drop the 10^6 session; only the apply service stays alive."""
        for key in ("bundle", "session", "prepared"):
            del state[key]

    def final_answers(self, state, plan):
        return [
            (("side", shape, node), prepared.run(node).items())
            for shape, prepared in enumerate(state["side_prepared"])
            for node in plan.final_nodes["side"]
        ]

    def reference(self, state, key):
        if key[0] == "side":
            _, shape, node = key
            session = state["service"].session
        else:
            shape, node = key
            session = state["session"]
        pattern, scoring, _ = self.shapes[shape]
        return (
            session.query(node)
            .using("relsim", pattern=pattern, scoring=scoring)
            .top(common.TOP_K)
            .items()
        )

    def tiers(self, state):
        return {
            "main": common.tier_facts(state["bundle"]),
            "apply": common.tier_facts(state["side"]),
        }


class AdhocWorkload:
    """Unprepared fluent queries with Algorithm-1 expansion at 10^5 edges.

    One shared session (the service's current snapshot) answers
    ``query(node).using("relsim", pattern=P).expand_patterns(16).top(10)``
    with ``P`` rotating over simple patterns whose expansion is
    non-trivial; every pattern runs once in set-up, so the query phase
    finds its matrices cached and spends its time in parse, expansion,
    type check, plan compile and bind.  Batches go through the
    unprepared ``session.rank_many``.
    """

    name = "adhoc-1e5"
    shapes = (
        ("p-in-.r-a.r-a-.p-in", "proc"),
        ("r-a-.p-in.p-in-.r-a", "area"),
        ("r-a-.r-a", "area"),
    )
    stride = 29
    expand = {"max_patterns": 16}

    def __init__(self, seed, tiny=False):
        from repro import api, datasets

        self.api = api
        self.datasets = datasets
        self.seed = seed
        self.tier = 5_000 if tiny else 10**5

    def _fluent(self, session, shape, node):
        pattern = self.shapes[shape][0]
        return (
            session.query(node)
            .using("relsim", pattern=pattern)
            .expand_patterns(**self.expand)
            .top(common.TOP_K)
        )

    def build(self):
        bundle = self.datasets.generate_dblp_scale(self.tier, seed=self.seed)
        service = self.api.SimilarityService(bundle.database, copy=False)
        for shape, (_, node_type) in enumerate(self.shapes):
            first = bundle.database.nodes_of_type(node_type)[0]
            self._fluent(service.session, shape, first)
        return {"bundle": bundle, "service": service}

    def attach_apply(self, state):
        """The apply service is the one the queries run on."""

    def release_queries(self, state):
        """The queries' state is the apply service's; nothing to drop."""

    def plan(self, state):
        database = state["bundle"].database
        orders = {
            node_type: common.degree_order(database, node_type, self.seed)
            for node_type in ("area", "paper", "proc")
        }
        return Plan(self.seed, self.shapes, orders, self.stride)

    def toggles(self, state, plan):
        return common.toggle_edges(
            state["bundle"].database, plan.orders["paper"], self.seed, TOGGLES
        )

    def single(self, state, shape, node):
        return self._fluent(state["service"].session, shape, node)

    def batch(self, state, shape, nodes):
        return state["service"].session.rank_many(
            nodes, algorithm="relsim", pattern=self.shapes[shape][0],
            expand=self.expand, top_k=common.TOP_K,
        )

    def engine_session(self, state):
        return state["service"].session

    def final_answers(self, state, plan):
        session = state["service"].session
        return [
            (("final", shape, node),
             self._fluent(session, shape, node).items())
            for shape, (_, node_type) in enumerate(self.shapes)
            for node in plan.final_nodes[node_type]
        ]

    def reference(self, state, key):
        shape, node = key[-2:]
        return self._fluent(state["service"].session, shape, node).items()

    def tiers(self, state):
        return {"main": common.tier_facts(state["bundle"])}


WORKLOADS = {cls.name: cls for cls in (WarmWorkload, AdhocWorkload)}


class Outcome:
    """Counts and samples of one measured phase."""

    def __init__(self):
        self.single_seconds = []
        self.batch_seconds = []
        self.stamps = []  # (completion time, queries completed)
        self.start = self.end = None
        self.ops = 0
        self.failed = 0
        self.errors = []
        self.answers = []

    @property
    def batch_queries(self):
        return BATCH * len(self.batch_seconds)

    @property
    def queries(self):
        return len(self.single_seconds) + self.batch_queries


def _failure(outcome, error):
    outcome.failed += 1
    if len(outcome.errors) < 5:
        outcome.errors.append("{}: {}".format(type(error).__name__, error))


def _set_phase(tracer, phase):
    if tracer is not None:
        tracer.phase = phase


def query_phase(workload, state, plan, seconds, outcome, first_op=0):
    """Closed loop of singles and batches for ``seconds``; returns next op."""
    op = first_op
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        began = time.perf_counter()
        if began >= deadline:
            break
        is_batch = op % CYCLE == CYCLE - 1
        shape, nodes = plan.batch(op) if is_batch else plan.single(op)
        try:
            if is_batch:
                answer = workload.batch(state, shape, nodes)
            else:
                answer = workload.single(state, shape, nodes)
        except Exception as error:  # counted, reported, run marked failed
            _failure(outcome, error)
            op += 1
            continue
        ended = time.perf_counter()
        if is_batch:
            outcome.batch_seconds.append(ended - began)
            outcome.stamps.append((ended, BATCH))
            if plan.checked(op):
                outcome.answers.append(
                    ((shape, nodes[0]), answer[nodes[0]].items())
                )
        else:
            outcome.single_seconds.append(ended - began)
            outcome.stamps.append((ended, 1))
            if plan.checked(op):
                outcome.answers.append(((shape, nodes), answer.items()))
        op += 1
    if outcome.start is None:
        outcome.start = start
    outcome.end = time.perf_counter()
    outcome.ops += op - first_op
    return op


def traced_query_phase(workload, state, plan, seconds, tracer):
    """Alternate untraced and traced blocks for ``seconds``.

    Returns ``(untraced, traced, overhead_ms)``: the outcomes of each
    kind of block, and the median traced block p50 minus the median
    untraced block p50.  Alternating keeps host drift out of the
    difference.  The tracer is uninstalled on return.
    """
    outcomes = {False: Outcome(), True: Outcome()}
    p50s = {False: [], True: []}
    block = min(BLOCK_SECONDS, seconds / 2.0)
    deadline = time.perf_counter() + seconds
    op = 0
    traced = False
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        outcome = outcomes[traced]
        before = len(outcome.single_seconds)
        if traced:
            tracer.install()
        try:
            op = query_phase(
                workload, state, plan, min(block, left), outcome, first_op=op
            )
        finally:
            tracer.uninstall()
        if len(outcome.single_seconds) > before:
            p50s[traced].append(
                statistics.median(outcome.single_seconds[before:])
            )
        traced = not traced
    if not (p50s[False] and p50s[True]):
        raise common.BenchmarkError("the traced phase is too short")
    overhead = statistics.median(p50s[True]) - statistics.median(p50s[False])
    return outcomes[False], outcomes[True], 1000.0 * overhead


def apply_phase(service, toggles, outcome):
    """Each toggle adds its edge and removes it again; returns latencies."""
    seconds = []
    for edge in toggles:
        for delta in ({"edges_added": [edge]}, {"edges_removed": [edge]}):
            began = time.perf_counter()
            try:
                service.apply(**delta)
            except Exception as error:  # counted, reported, run marked failed
                _failure(outcome, error)
                continue
            seconds.append(time.perf_counter() - began)
    return seconds


def run(workload_cls, seed, seconds, trace, tiny=False, corrupt=False):
    """One run of an in-process workload; returns the result dict."""
    workload = workload_cls(seed, tiny=tiny)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    setup_seconds = []
    state, took = common.timed(workload.build)
    setup_seconds.append(took)
    _set_phase(tracer, "side")
    workload.attach_apply(state)
    plan = workload.plan(state)
    toggles = workload.toggles(state, plan)
    tiers = workload.tiers(state)
    session = workload.engine_session(state)
    cache_before = session.cache_info()
    if tracer is None:
        outcome = Outcome()
        query_phase(workload, state, plan, seconds, outcome)
        outcomes = [outcome]
    else:
        tracer.uninstall()
        tracer.phase = "timed"
        untraced, outcome, overhead_ms = traced_query_phase(
            workload, state, plan, seconds, tracer
        )
        outcomes = [untraced, outcome]
        tracer.install()
    cache_after = session.cache_info()
    del session
    workload.release_queries(state)
    gc.collect()
    service = state["service"]
    patched_before = service.delta_stats["patched"]
    _set_phase(tracer, "apply")
    apply_seconds = apply_phase(service, toggles, outcome)
    patched = service.delta_stats["patched"] - patched_before
    subscriptions = service.subscription_stats
    rss_mib = common.peak_rss_mib()
    answers = [answer for each in outcomes for answer in each.answers]
    answers += workload.final_answers(state, plan)
    del state, service
    gc.collect()

    _set_phase(tracer, "setup")
    reference, took = common.timed(workload.build)
    setup_seconds.append(took)
    _set_phase(tracer, "check")
    workload.attach_apply(reference)
    mismatches = []
    for key, items in answers:
        expected = workload.reference(reference, key)
        if corrupt:
            expected = expected + [("simbench:corrupted", -1.0)]
        if items != expected:
            mismatches.append({"key": list(key), "got": items, "want": expected})
    del reference
    gc.collect()
    _set_phase(tracer, "setup")
    for _ in range(SETUPS - len(setup_seconds)):
        extra, took = common.timed(workload.build)
        setup_seconds.append(took)
        del extra
        gc.collect()
    if tracer is not None:
        tracer.uninstall()

    latency = common.latency_summary(outcome.single_seconds)
    result = {
        "attempted": sum(each.ops for each in outcomes) + len(toggles) * 2,
        "failed": sum(each.failed for each in outcomes) + len(mismatches),
        "checked": len(answers),
        "mismatches": mismatches,
        "errors": [error for each in outcomes for error in each.errors],
        "tiers": tiers,
        "details": {
            "setup_seconds": setup_seconds,
            "single_queries": latency["samples"],
            "tail_fraction": latency["tail_fraction"],
            "tail_windows": latency["tail_windows"],
            "batch_queries": outcome.batch_queries,
            "applies": len(apply_seconds),
            "apply_seconds": apply_seconds,
        },
    }
    if tracer is None:
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_seconds),
            "query_p50_ms": latency["p50_ms"],
            "query_p99_ms": latency["tail_ms"],
            "query_qps": common.window_rates(
                outcome.stamps, outcome.start, outcome.end, RATE_WINDOWS
            ),
            "batch_qps": BATCH / statistics.median(outcome.batch_seconds),
            "apply_p50_ms": 1000.0 * statistics.median(apply_seconds),
            "rss_peak_mib": rss_mib,
        }
    else:
        facts = {
            "setups": len(setup_seconds),
            "queries": outcome.queries,
            "requests": 0,
            "applies": len(apply_seconds),
            "operations": outcome.queries + len(apply_seconds),
            "query_phases": ["timed"],
            "apply_phases": ["apply"],
            "cache_hits": cache_after["hits"] - cache_before["hits"],
            "cache_misses": cache_after["misses"] - cache_before["misses"],
            "cache_bytes": cache_after["bytes"],
            "patched": patched,
            "subscriptions": subscriptions,
            "server": NO_SERVER,
            "overhead_ms": overhead_ms,
        }
        result["trace"] = {"tracer": tracer, "facts": facts}
    return result
