"""Shared pieces of the benchmark: sources, seeded inputs, statistics, records.

Everything here is benchmark-side.  The program under test is the
``repro`` package in this checkout's ``src/``; it only ever receives the
inputs generated here (a seed for its own data generator, query nodes,
patterns and edge deltas).
"""

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Answers per query in every workload.
TOP_K = 10

#: Zipf exponent of query-node popularity over the seeded degree order.
#: 1.0 is the classic Zipf law.  It is an assumption, not a value fitted
#: to a trace of similarity or bibliographic query traffic.
ZIPF_EXPONENT = 1.0

#: Most windows the p99 is taken over (see :func:`latency_summary`).
TAIL_WINDOWS = 8

#: Independent random streams drawn from one ``--seed``.
_STREAMS = {
    "nodes": 1,
    "ties": 2,
    "shapes": 3,
    "toggles": 4,
    "check": 5,
    "subscriptions": 6,
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid measurement."""


def use_checkout_sources():
    """Import ``repro`` from this checkout's ``src/``, or exit with code 2.

    An installed copy elsewhere must never stand in for the checkout:
    the benchmark measures exactly the sources beside it.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(
            "simbench: {} is missing; run from a checkout of the "
            "repository\n".format(package)
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.stderr.write(
            "simbench: imported repro from {}, not {}\n".format(
                repro.__file__, package
            )
        )
        raise SystemExit(2)


def rng(seed, stream):
    """The seeded generator for one named input stream."""
    return np.random.default_rng([int(seed), _STREAMS[stream]])


def degree_order(database, node_type, seed):
    """Nodes of ``node_type`` by descending degree, ties in seeded order."""
    nodes = database.nodes_of_type(node_type)
    degrees = np.fromiter(
        (database.degree(node) for node in nodes), dtype=np.int64,
        count=len(nodes),
    )
    ties = rng(seed, "ties").random(len(nodes))
    return [nodes[i] for i in np.lexsort((ties, -degrees))]


def zipf_sample(ordered, generator, size):
    """``size`` draws from ``ordered``, rank ``r`` weighted ``(r+1)^-s``."""
    weights = np.arange(1, len(ordered) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cumulative = np.cumsum(weights)
    picks = np.searchsorted(
        cumulative, generator.random(size) * cumulative[-1], side="right"
    )
    return [ordered[i] for i in np.minimum(picks, len(ordered) - 1).tolist()]


def toggle_edges(database, papers, seed, count):
    """``count`` distinct absent ``(author, "w", paper)`` edges, seeded.

    Papers come from the same Zipf popularity as the queries, so a
    toggle tends to move answers that are actually being asked for.
    """
    generator = rng(seed, "toggles")
    authors = database.nodes_of_type("author")
    edges = []
    while len(edges) < count:
        paper = zipf_sample(papers, generator, 1)[0]
        author = authors[int(generator.integers(len(authors)))]
        edge = (author, "w", paper)
        if not database.has_edge(*edge) and edge not in edges:
            edges.append(edge)
    return edges


def nearest_rank(sorted_values, fraction):
    """The nearest-rank percentile of an ascending list."""
    index = max(int(math.ceil(fraction * len(sorted_values))) - 1, 0)
    return sorted_values[min(index, len(sorted_values) - 1)]


def latency_summary(seconds):
    """p50 over all samples, and p99 as the median of per-window p99s.

    ``seconds`` are in the order the operations ran.  They are cut into
    up to ``TAIL_WINDOWS`` consecutive windows of at least 1000 samples, so
    every window's p99 has at least ten samples beyond it; the median
    window damps a host stall confined to one window.  With fewer than
    1000 samples there is one window and its tail is the highest
    percentile the sample supports (``tail_fraction`` says which).
    """
    if not seconds:
        raise BenchmarkError("no latency samples were collected")
    count = max(1, min(TAIL_WINDOWS, len(seconds) // 1000))
    size = len(seconds) // count
    tails = []
    for k in range(count):
        chunk = sorted(seconds[k * size:(k + 1) * size if k + 1 < count else None])
        fraction = min(0.99, 1.0 - 10.0 / len(chunk)) if len(chunk) > 20 else 0.5
        tails.append(nearest_rank(chunk, fraction))
    return {
        "samples": len(seconds),
        "p50_ms": 1000.0 * nearest_rank(sorted(seconds), 0.5),
        "tail_ms": 1000.0 * statistics.median(tails),
        "tail_fraction": fraction,
        "tail_windows": count,
    }


def window_rates(stamps, start, end, windows):
    """Median over ``windows`` equal time windows of events per second.

    ``stamps`` are ``(time, count)`` pairs: ``count`` events completed at
    ``time``.  The median window damps a host stall confined to a few
    windows, as :func:`latency_summary` does for the tail.
    """
    if end <= start:
        raise BenchmarkError("an empty phase has no rate")
    width = (end - start) / windows
    counts = [0] * windows
    for stamp, count in stamps:
        counts[min(int((stamp - start) / width), windows - 1)] += count
    return statistics.median(counts) / width


def peak_rss_mib(pid="self"):
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("VmHWM missing from /proc/{}/status".format(pid))


def timed(build):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = build()
    return result, time.perf_counter() - start


def spec():
    """The benchmark definition (metric names and units) from the root."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed, tiers):
    """Host, library and input facts recorded with every run."""
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "tiers": tiers,
    }


def tier_facts(bundle):
    return {
        "target_edges": bundle.info["target_edges"],
        "nodes": bundle.info["num_nodes"],
        "edges": bundle.info["num_edges"],
    }


def write_record(name, record):
    """Write one JSON record under ``simbench/out/``; returns its path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path
