"""The ``serve-1e5`` workload: HTTP load generator and answer checker.

The server runs in its own process (:mod:`simbench.serve_server`).  This
process is the load generator: two keep-alive connections in a closed
loop of ``/query`` requests.  Connection 0 sends every ``CYCLE``-th
request as a ``/rank_many`` of ``BATCH`` nodes; connection 1 sends a
single-edge ``/apply`` every ``APPLY_INTERVAL`` seconds, alternating
"add a ``w`` edge" and "remove that edge", so the graph does not drift.

A seeded sample of answers is checked against fresh sessions built
here from the same seed: the applies' versions are replayed, and an
answer counts as correct only if it equals the reference at a version
that was live while its request was in flight.
"""

import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time

from simbench import common
from simbench.tracing import SpanView

NAME = "serve-1e5"
CYCLE = 17
BATCH = 16
APPLY_INTERVAL = 1.0
SUBSCRIPTIONS = 4
#: Sampled ``/query`` and ``/rank_many`` answers checked per phase.
QUERY_CHECKS = 40
BATCH_CHECKS = 8
SETUPS = 3
#: Length of one untraced or traced block of the traced phase, and the
#: pause after each toggle before the next block starts.
BLOCK_SECONDS = 1.0
SETTLE_SECONDS = 0.05
#: Time windows ``query_qps`` is the median over.
RATE_WINDOWS = 10
#: Seconds a server may take to announce its port or to stop.
START_TIMEOUT = 120
STOP_TIMEOUT = 30


class Server:
    """One launched server process, from spawn to stopped."""

    def __init__(self, seed, tier, subscribe, trace, report):
        self.report_path = common.OUT_DIR / report
        command = [
            sys.executable, str(common.BENCH_DIR / "serve_server.py"),
            "--seed", str(seed), "--tier", str(tier),
            "--report", str(self.report_path),
            "--subscribe", ",".join(subscribe),
        ]
        if trace:
            command.append("--trace")
        common.OUT_DIR.mkdir(exist_ok=True)
        began = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=str(common.ROOT)
        )
        watchdog = threading.Timer(START_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_seconds = time.perf_counter() - began

    def _await_port(self):
        for line in self.process.stdout:
            if line.startswith("serving repro on http://"):
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise common.BenchmarkError(
            "server exited with code {} before serving".format(
                self.process.wait()
            )
        )

    def stop(self):
        """SIGTERM, wait, and read the report the server wrote on exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise common.BenchmarkError(
                "server exited with code {}".format(self.process.returncode)
            )
        with open(self.report_path) as handle:
            return json.load(handle)


class Connection:
    """One keep-alive HTTP/1.1 connection with JSON bodies."""

    def __init__(self, port):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.http.request(method, path, body, headers)
        response = self.http.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def close(self):
        self.http.close()


class Log:
    """Everything one connection did in a phase."""

    def __init__(self):
        self.queries = []   # (t0, t1, node, status, version, items)
        self.batches = []   # (t0, t1, nodes, status, version, rankings)
        self.applies = []   # (t0, t1, kind, edge, status, version)
        self.errors = []


def _items(pairs):
    return [(node, score) for node, score in pairs]


def _apply(conn, step, log):
    kind, edge = step
    began = time.perf_counter()
    status, body = conn.call("POST", "/apply", {"edges_" + kind: [list(edge)]})
    log.applies.append((
        began, time.perf_counter(), kind, edge, status,
        body.get("version") if status == 200 else None,
    ))


def _client(conn, nodes, batch_nodes, deadline, log, applies):
    """The closed loop of one connection until ``deadline``."""
    op = 0
    try:
        while time.perf_counter() < deadline:
            if applies is not None and applies.due():
                _apply(conn, applies.next(), log)
                continue
            if batch_nodes is not None and op % CYCLE == CYCLE - 1:
                start = (op // CYCLE) * BATCH % len(batch_nodes)
                chunk = [
                    batch_nodes[(start + k) % len(batch_nodes)]
                    for k in range(BATCH)
                ]
                began = time.perf_counter()
                status, body = conn.call(
                    "POST", "/rank_many", {"nodes": chunk}
                )
                ended = time.perf_counter()
                log.batches.append((
                    began, ended, chunk, status,
                    body.get("version") if status == 200 else None,
                    {
                        node: _items(pairs)
                        for node, pairs in body["rankings"].items()
                    } if status == 200 else None,
                ))
            else:
                node = nodes[op % len(nodes)]
                began = time.perf_counter()
                status, body = conn.call("POST", "/query", {"node": node})
                ended = time.perf_counter()
                log.queries.append((
                    began, ended, node, status,
                    body.get("version") if status == 200 else None,
                    _items(body["ranking"]) if status == 200 else None,
                ))
            op += 1
        # Applies the deadline cut off still run, so the graph ends
        # where it started.
        while applies is not None and applies.sent < len(applies.steps):
            _apply(conn, applies.next(), log)
    except (OSError, http.client.HTTPException, ValueError) as error:
        log.errors.append("{}: {}".format(type(error).__name__, error))


class ApplySchedule:
    """Fixed-rate toggles: add edge ``k``, then remove it, and so on."""

    def __init__(self, toggles, start, seconds):
        count = 2 * max(1, int(seconds / (2 * APPLY_INTERVAL)))
        self.steps = [
            ("added" if k % 2 == 0 else "removed", toggles[k // 2])
            for k in range(count)
        ]
        self.times = [start + (k + 0.5) * APPLY_INTERVAL for k in range(count)]
        self.sent = 0

    def due(self):
        return (
            self.sent < len(self.steps)
            and time.perf_counter() >= self.times[self.sent]
        )

    def next(self):
        step = self.steps[self.sent]
        self.sent += 1
        return step


class Phase:
    """What both connections did in one phase, and when."""

    def __init__(self, logs, start, end, blocks):
        self.logs = logs
        self.start = start
        self.end = end
        #: ``(start, end, traced)`` of each block of a traced phase.
        self.blocks = blocks


def phase(port, plan, seconds, toggle=None):
    """Both connections for ``seconds``; returns a :class:`Phase`.

    With ``toggle`` (a function of one bool that turns the server's
    tracing off or on), the phase alternates untraced and traced blocks
    of ``BLOCK_SECONDS``.  Each block starts ``SETTLE_SECONDS`` after its
    toggle, so that the server has handled the signal.
    """
    if toggle is not None:
        toggle(False)
        time.sleep(SETTLE_SECONDS)
    start = time.perf_counter()
    deadline = start + seconds
    schedule = ApplySchedule(plan["toggles"], start, seconds)
    logs = [Log(), Log()]
    connections = [Connection(port), Connection(port)]
    threads = [
        threading.Thread(
            target=_client,
            args=(connections[0], plan["nodes"][0], plan["batch_nodes"],
                  deadline, logs[0], None),
        ),
        threading.Thread(
            target=_client,
            args=(connections[1], plan["nodes"][1], None, deadline, logs[1],
                  schedule),
        ),
    ]
    blocks = []
    try:
        for thread in threads:
            thread.start()
        if toggle is not None:
            traced = False
            began = start
            while True:
                ends = min(began + BLOCK_SECONDS - SETTLE_SECONDS, deadline)
                time.sleep(max(0.0, ends - time.perf_counter()))
                blocks.append((began, ends, traced))
                if ends >= deadline:
                    break
                traced = not traced
                toggle(traced)
                time.sleep(SETTLE_SECONDS)
                began = time.perf_counter()
            toggle(False)
        for thread in threads:
            thread.join()
        end = time.perf_counter()
    finally:
        for connection in connections:
            connection.close()
    return Phase(logs, start, end, blocks)


def _states(applies):
    """Extra-edge set live at each version, by replaying the applies."""
    states = [frozenset()]
    for _, _, kind, edge, status, version in applies:
        if status != 200:
            continue
        if version != len(states) + 1:
            raise common.BenchmarkError(
                "apply answered version {}, expected {}".format(
                    version, len(states) + 1
                )
            )
        current = set(states[-1])
        (current.add if kind == "added" else current.discard)(tuple(edge))
        states.append(frozenset(current))
    return states


class Reference:
    """Fresh sessions, one per graph state, answering via the fluent API."""

    def __init__(self, api, database, corrupt):
        self.api = api
        self.database = database
        self.corrupt = corrupt
        self.sessions = {}
        self.answers = {}

    def items(self, state, node):
        key = (state, node)
        if key not in self.answers:
            session = self.sessions.get(state)
            if session is None:
                database = self.database.copy() if state else self.database
                for edge in state:
                    database.add_edge(*edge)
                session = self.sessions[state] = self.api.SimilaritySession(
                    database
                )
            items = (
                session.query(node)
                .using("relsim", pattern="w-.w.w-.w")
                .top(common.TOP_K)
                .items()
            )
            if self.corrupt:
                items = items + [("simbench:corrupted", -1.0)]
            self.answers[key] = items
        return self.answers[key]


def check_phase(logs, report, reference, generator):
    """Mismatched answers of one phase (and stale version labels)."""
    applies = sorted(logs[1].applies, key=lambda a: a[0])
    states = _states(applies)
    done = [(a[1], a[0]) for a in applies if a[4] == 200]

    def live(t0, t1):
        low = 1 + sum(1 for ended, _ in done if ended <= t0)
        high = 1 + sum(1 for _, began in done if began < t1)
        return range(low, min(high, len(states)) + 1)

    samples = []
    queries = [q for log in logs for q in log.queries if q[3] == 200]
    for index in _pick(generator, len(queries), QUERY_CHECKS):
        t0, t1, node, _, version, items = queries[index]
        samples.append((t0, t1, node, version, items))
    batches = [b for b in logs[0].batches if b[3] == 200]
    for index in _pick(generator, len(batches), BATCH_CHECKS):
        t0, t1, nodes, _, version, rankings = batches[index]
        samples.append((t0, t1, nodes[0], version, rankings[nodes[0]]))
    mismatches = []
    stale_labels = 0
    for t0, t1, node, version, items in samples:
        matching = [
            v for v in live(t0, t1)
            if reference.items(states[v - 1], node) == items
        ]
        if not matching:
            mismatches.append({
                "node": node, "versions": list(live(t0, t1)), "got": items,
            })
        elif version not in matching:
            stale_labels += 1
    final = report["version"]
    for node, version, items in report["subscriptions"]:
        want = reference.items(states[min(version, len(states)) - 1], node)
        if version != final or _items(items) != want:
            mismatches.append({
                "subscription": node, "version": version, "got": items,
            })
    return mismatches, stale_labels, len(samples) + len(report["subscriptions"])


def _pick(generator, population, count):
    if population == 0:
        return []
    return sorted(
        generator.choice(population, size=min(count, population), replace=False)
        .tolist()
    )


def _statz(port):
    connection = Connection(port)
    try:
        status, body = connection.call("GET", "/statz")
    finally:
        connection.close()
    if status != 200:
        raise common.BenchmarkError("/statz answered {}".format(status))
    return body


def _failures(logs):
    failed = sum(len(log.errors) for log in logs)
    for log in logs:
        failed += sum(1 for q in log.queries if q[3] != 200)
        failed += sum(1 for b in log.batches if b[3] != 200)
        failed += sum(1 for a in log.applies if a[4] != 200)
    return failed


def _attempted(logs):
    return sum(
        len(log.queries) + len(log.batches) + len(log.applies)
        + len(log.errors)
        for log in logs
    )


def _measured(run):
    logs = run.logs
    latencies = [
        q[1] - q[0]
        for q in sorted((q for log in logs for q in log.queries),
                        key=lambda q: q[0])
    ]
    singles = [q for log in logs for q in log.queries if q[3] == 200]
    batches = [b for b in logs[0].batches if b[3] == 200]
    stamps = [(q[1], 1) for q in singles] + [(b[1], BATCH) for b in batches]
    return {
        "latency": common.latency_summary(latencies),
        "query_qps": common.window_rates(
            stamps, run.start, run.end, RATE_WINDOWS
        ),
        "batch_qps": BATCH / statistics.median(b[1] - b[0] for b in batches),
        "apply_seconds": [
            a[1] - a[0] for a in logs[1].applies if a[4] == 200
        ],
    }


def _traced_facts(run, statz):
    """Run facts for :func:`layer_metrics` from the traced blocks."""

    def block_of(t0):
        for began, ended, traced in run.blocks:
            if began <= t0 < ended:
                return traced
        return None

    p50s = {False: [], True: []}
    for began, ended, traced in run.blocks:
        block = sorted(
            q[1] - q[0]
            for log in run.logs for q in log.queries
            if q[3] == 200 and began <= q[0] and q[1] <= ended
        )
        if block:
            p50s[traced].append(statistics.median(block))
    if not (p50s[False] and p50s[True]):
        raise common.BenchmarkError("the traced phase is too short")
    singles = sum(
        1 for log in run.logs for q in log.queries
        if q[3] == 200 and block_of(q[0])
    )
    batches = sum(
        1 for b in run.logs[0].batches if b[3] == 200 and block_of(b[0])
    )
    applies = sum(
        1 for a in run.logs[1].applies if a[4] == 200 and block_of(a[0])
    )
    queries = singles + BATCH * batches
    batcher = statz.get("batcher", {})
    return {
        "setups": 1,
        "queries": queries,
        "requests": singles + batches + applies,
        "applies": applies,
        "operations": queries + applies,
        "query_phases": ["serve"],
        "apply_phases": ["serve"],
        "cache_hits": statz["cache_info"]["hits"],
        "cache_misses": statz["cache_info"]["misses"],
        "cache_bytes": statz["cache_info"]["bytes"],
        "patched": statz["delta_stats"]["patched"],
        "subscriptions": statz["subscriptions"],
        "server": {
            "requests": statz["requests"],
            "rejected": statz["rejected"],
            "errors": statz["errors"],
            "batches": batcher.get("batches", 0),
            "batched_requests": batcher.get("requests", 0),
        },
        "overhead_ms": 1000.0 * (
            statistics.median(p50s[True]) - statistics.median(p50s[False])
        ),
    }


def run(seed, seconds, trace, tiny=False, corrupt=False):
    """One run of the serve workload; returns the result dict.

    Untraced, the server is launched ``SETUPS`` times: the measured
    launch and launches that only time set-up.  Traced, it is launched
    once and the phase alternates untraced and traced blocks.
    """
    from repro import api, datasets

    tier = 5_000 if tiny else 10**5
    bundle = datasets.generate_dblp_scale(tier, seed=seed)
    database = bundle.database
    papers = common.degree_order(database, "paper", seed)
    node_rng = common.rng(seed, "nodes")
    plan = {
        "nodes": [
            common.zipf_sample(papers, node_rng, 1 << 14) for _ in range(2)
        ],
        "batch_nodes": common.zipf_sample(papers, node_rng, 1 << 14),
        "toggles": common.toggle_edges(
            database, papers, seed, max(1, int(seconds / APPLY_INTERVAL))
        ),
    }
    subscribe = common.zipf_sample(
        papers, common.rng(seed, "subscriptions"), SUBSCRIPTIONS
    )
    server = Server(
        seed, tier, subscribe, trace,
        "server-{}-{}.json".format(seed, "traced" if trace else "measured"),
    )
    setup_seconds = [server.setup_seconds]
    toggle = None
    if trace:
        def toggle(on):
            server.process.send_signal(
                signal.SIGUSR1 if on else signal.SIGUSR2
            )
    try:
        measured = phase(server.port, plan, seconds, toggle)
        statz = _statz(server.port)
        rss_mib = common.peak_rss_mib(server.process.pid)
    finally:
        report = server.stop()
    while not trace and len(setup_seconds) < SETUPS:
        server = Server(
            seed, tier, subscribe, False, "server-{}-setup.json".format(seed)
        )
        setup_seconds.append(server.setup_seconds)
        server.stop()

    logs = measured.logs
    mismatches, stale, checked = check_phase(
        logs, report, Reference(api, database, corrupt),
        common.rng(seed, "check"),
    )
    summary = _measured(measured)
    latency = summary["latency"]
    result = {
        "attempted": _attempted(logs),
        "failed": _failures(logs) + len(mismatches),
        "checked": checked,
        "mismatches": mismatches,
        "errors": [error for log in logs for error in log.errors][:5],
        "stale_version_labels": stale,
        "tiers": {"main": common.tier_facts(bundle)},
        "details": {
            "setup_seconds": setup_seconds,
            "single_queries": latency["samples"],
            "tail_fraction": latency["tail_fraction"],
            "tail_windows": latency["tail_windows"],
            "applies": len(summary["apply_seconds"]),
            "apply_seconds": summary["apply_seconds"],
            "statz": {
                key: statz[key] for key in ("requests", "rejected", "errors")
            },
        },
    }
    if not trace:
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_seconds),
            "query_p50_ms": latency["p50_ms"],
            "query_p99_ms": latency["tail_ms"],
            "query_qps": summary["query_qps"],
            "batch_qps": summary["batch_qps"],
            "apply_p50_ms": 1000.0 * statistics.median(
                summary["apply_seconds"]
            ),
            "rss_peak_mib": rss_mib,
        }
    else:
        counters = {
            (phase_name, name): value
            for phase_name, name, value in report["counters"]
        }
        result["trace"] = {
            "view": SpanView(report["spans"]),
            "counters": counters,
            "facts": _traced_facts(measured, statz),
            "spans": report["spans"],
        }
    return result
