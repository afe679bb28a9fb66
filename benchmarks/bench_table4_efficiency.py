"""Table 4 — average query processing time: RelSim vs PathSim.

Two settings per dataset (DBLP, BioMed), as in the paper:

* **single pattern** — the user supplies the exact relationship pattern:
  RelSim evaluates the (longer) RRE, PathSim the closest simple
  meta-path, both over materialized commuting matrices for meta-paths up
  to length 3.
* **using Algorithm 1** — both get the same simple input pattern;
  RelSim additionally runs pattern generation and aggregates over the
  generated set.

Both algorithms on a dataset are built from one ``SimilaritySession``,
so they share the materialized matrices (the paper's pre-load setting);
two extra rows time RelSim through the batch path — once via the
per-candidate dict implementation (``rank_many_via_scores``, the
before) and once via the array-native top-k path (``rank_many``:
``score_entries`` + ``np.partition`` sparse top-k, the after).

Expected shape: RelSim is slightly slower than PathSim in both modes but
within the same order of magnitude ("making RelSim more usable does not
increase its running time considerably"); the array-native batch path is
no slower than looped queries, and on a large synthetic workload it
beats the dict path by at least 3x with identical rankings
(``test_batched_topk_speedup_synthetic``).
"""

from repro.api import SimilaritySession
from repro.core import RelSim
from repro.datasets import sample_queries_by_degree
from repro.eval import time_queries, timing_table
from repro.lang import parse_pattern
from repro.transform import (
    EXPERIMENT_PATTERNS,
    biomedt,
    dblp2sigm,
    map_pattern,
)

TOP_K = 10


def _materialized_session(database):
    session = SimilaritySession(database)
    session.materialize(max_length=3)
    return session


def _single_pattern_timings(bundle, mapping, spec_key, queries):
    """RelSim evaluates the translated RRE over the transformed database;
    PathSim evaluates the closest simple pattern (the paper's p_R vs
    p_P comparison).  Both share the session's engine."""
    spec = EXPERIMENT_PATTERNS[spec_key]
    variant = mapping.apply(bundle.database)
    session = _materialized_session(variant)
    p_rre = map_pattern(mapping, parse_pattern(spec["relsim_source"]))
    relsim = session.algorithm("relsim", pattern=p_rre)
    pathsim = session.algorithm("pathsim", pattern=spec["pathsim_target"])
    queries = [q for q in queries if variant.has_node(q)]
    return (
        time_queries(relsim, queries, top_k=TOP_K),
        time_queries(pathsim, queries, top_k=TOP_K),
        time_queries(relsim, queries, top_k=TOP_K, batched=True,
                     dict_path=True),
        time_queries(relsim, queries, top_k=TOP_K, batched=True),
    )


def _algorithm1_timings(bundle, spec_key, queries):
    """Both algorithms get the same simple input pattern; RelSim runs
    Algorithm 1 (with the Section-6 filters) and aggregates."""
    spec = EXPERIMENT_PATTERNS[spec_key]
    db = bundle.database
    session = _materialized_session(db)
    pathsim = session.algorithm("pathsim", pattern=spec["relsim_source"])
    relsim = RelSim.from_simple_pattern(
        db, spec["relsim_source"], engine=session.engine, max_patterns=16
    )
    return (
        time_queries(relsim, queries, top_k=TOP_K),
        time_queries(pathsim, queries, top_k=TOP_K),
        time_queries(relsim, queries, top_k=TOP_K, batched=True,
                     dict_path=True),
        time_queries(relsim, queries, top_k=TOP_K, batched=True),
    )


def test_table4_efficiency(benchmark, emit, dblp_large_bundle, biomed_bundle):
    dblp_queries = sample_queries_by_degree(
        dblp_large_bundle.database, "proc", 30, seed=0
    )
    biomed_queries = list(biomed_bundle.ground_truth)[:20]

    def run():
        timings = {
            "RelSim": {},
            "PathSim": {},
            "RelSim (batch dict)": {},
            "RelSim (batch top-k)": {},
        }

        def record(column, cell):
            relsim_t, pathsim_t, batch_dict_t, batch_topk_t = cell
            timings["RelSim"][column] = relsim_t
            timings["PathSim"][column] = pathsim_t
            timings["RelSim (batch dict)"][column] = batch_dict_t
            timings["RelSim (batch top-k)"][column] = batch_topk_t

        record(
            "DBLP single",
            _single_pattern_timings(
                dblp_large_bundle, dblp2sigm(), "DBLP2SIGM", dblp_queries
            ),
        )
        record(
            "BioMed single",
            _single_pattern_timings(
                biomed_bundle, biomedt(), "BioMedT", biomed_queries
            ),
        )
        record(
            "DBLP alg1",
            _algorithm1_timings(dblp_large_bundle, "DBLP2SIGM", dblp_queries),
        )
        record(
            "BioMed alg1",
            _algorithm1_timings(biomed_bundle, "BioMedT", biomed_queries),
        )
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "table4",
        timing_table(
            timings,
            title="Table 4 - average query processing time (seconds)",
        ),
    )

    # Shape: RelSim slower but same order of magnitude (within 50x gives
    # ample slack for noisy CI machines; the paper's own ratios are
    # 1.1x - 1.9x).
    for column in timings["RelSim"]:
        relsim_t = timings["RelSim"][column]
        pathsim_t = timings["PathSim"][column]
        assert relsim_t >= 0
        if pathsim_t > 0:
            assert relsim_t < pathsim_t * 50
        # The batch paths must not be dramatically slower than looping
        # (they are usually faster; 2x slack absorbs timer noise on tiny
        # workloads).
        assert timings["RelSim (batch top-k)"][column] <= max(
            relsim_t * 2, relsim_t + 1e-3
        )


def test_batched_topk_speedup_synthetic(benchmark, emit, dblp_large_bundle):
    """Array-native batched top-10 vs the dict path, same workload.

    The acceptance gate of the array-native refactor: on the synthetic
    DBLP workload (2000 papers as candidates, 100 queries) ``rank_many``
    must produce rankings identical to ``rank_many_via_scores`` and be
    at least 3x faster.
    """
    database = dblp_large_bundle.database
    session = SimilaritySession(database)
    relsim = session.algorithm("relsim", pattern="p-in.p-in-")
    queries = database.nodes_of_type("paper")[:100]

    fast = relsim.rank_many(queries, top_k=TOP_K)
    slow = relsim.rank_many_via_scores(queries, top_k=TOP_K)
    for query in queries:
        assert fast[query].items() == slow[query].items()

    def run():
        # Median of three to keep a noisy neighbor from deciding the
        # ratio either way.
        dict_times = sorted(
            time_queries(relsim, queries, top_k=TOP_K, batched=True,
                         dict_path=True)
            for _ in range(3)
        )
        topk_times = sorted(
            time_queries(relsim, queries, top_k=TOP_K, batched=True)
            for _ in range(3)
        )
        return {
            "RelSim (batch dict)": {"DBLP synthetic": dict_times[1]},
            "RelSim (batch top-k)": {"DBLP synthetic": topk_times[1]},
        }

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "table4_batch_topk",
        timing_table(
            timings,
            title="Batched top-10: dict path vs array-native (seconds)",
        ),
    )
    dict_t = timings["RelSim (batch dict)"]["DBLP synthetic"]
    topk_t = timings["RelSim (batch top-k)"]["DBLP synthetic"]
    assert topk_t * 3 <= dict_t, (
        "array-native batch path ({:.6f}s/query) is not 3x faster than "
        "the dict path ({:.6f}s/query)".format(topk_t, dict_t)
    )
