"""Sparse top-k parity: rankings from row nonzeros equal the dense path.

``rank_many`` ranks from per-query ``(columns, values)`` score entries
instead of n-wide dense rows.  Every case here asserts ``.items()`` is
*exactly* equal (nodes, order and float bits) to two references:

* ``rank_many_via_scores`` — the per-candidate dict path;
* a test-local copy of the dense ranking pipeline the entries path
  replaced: per-pattern dense score rows summed in pattern order, then
  ``row[columns]`` over the str-sorted candidate index and an
  ``np.partition`` top-k with boundary ties filled in ``str`` order.

Queries are Zipf-drawn over degree order, as real query traffic skews
toward popular nodes.
"""

import numpy as np
import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.core.relsim import RelSim
from repro.datasets.scale import generate_dblp_scale
from repro.graph import GraphDatabase, Schema
from repro.graph.matrices import MatrixView, dense_rows
from repro.lang import parse_pattern
from repro.similarity.base import Ranking
from repro.similarity.pathsim import PathSim

EDGES = 2 * 10**4
TOP_KS = (None, 0, 1, 10, "over")

#: (query type, algorithm kind, pattern, scoring); "expand" runs the
#: pattern through Algorithm 1 with max_patterns=16.
CASES = [
    ("paper", "relsim", "w-.w", "pathsim"),
    ("paper", "relsim", "w-.w.w-.w", "count"),
    ("paper", "relsim", "w-.w", "cosine"),
    ("proc", "expand", "p-in-.r-a.r-a-.p-in", "pathsim"),
    ("proc", "expand", "p-in-.r-a.r-a-.p-in", "count"),
    ("proc", "expand", "p-in-.r-a.r-a-.p-in", "cosine"),
    ("paper", "pathsim", "w-.w", None),
    ("proc", "pathsim", "p-in-.w-.w.p-in", None),
]


@pytest.fixture(scope="module")
def scale_db():
    return generate_dblp_scale(EDGES, seed=11).database


def zipf_queries(database, nodes, count=24, seed=0):
    """Distinct Zipf(1) draws over ``nodes`` ordered by descending degree."""
    order = sorted(nodes, key=lambda node: (-database.degree(node), str(node)))
    weights = 1.0 / np.arange(1, len(order) + 1)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(order), size=count, p=weights / weights.sum())
    return list(dict.fromkeys(order[i] for i in picks))


def build(database, kind, pattern, scoring, engine, answer_type=None):
    if kind == "pathsim":
        return PathSim(
            database, pattern, engine=engine, answer_type=answer_type
        )
    if kind == "expand":
        return RelSim.from_simple_pattern(
            database,
            pattern,
            scoring=scoring,
            engine=engine,
            answer_type=answer_type,
            max_patterns=16,
        )
    return RelSim(
        database, pattern, scoring=scoring, engine=engine,
        answer_type=answer_type,
    )


# ----------------------------------------------------------------------
# The dense reference: per-pattern dense rows + the dense top-k
# ----------------------------------------------------------------------
def dense_score_rows(algorithm, queries):
    """Dense ``(len(queries), n)`` score rows, one dense block per pattern."""
    engine = algorithm.engine
    indices = engine.query_indices(queries)
    if isinstance(algorithm, PathSim):
        patterns, scoring = [algorithm.pattern], "pathsim"
    else:
        patterns, scoring = algorithm.patterns, algorithm.scoring
    total = np.zeros((len(queries), len(engine.indexer)))
    for pattern in patterns:
        matrix = engine.matrix(pattern)
        if scoring == "pathsim":
            diagonal = engine.diagonal(pattern)
            for i, row in enumerate(indices):
                start, end = matrix.indptr[row], matrix.indptr[row + 1]
                cols = matrix.indices[start:end]
                denominator = diagonal[row] + diagonal[cols]
                positive = denominator > 0
                total[i, cols[positive]] += (
                    2.0 * matrix.data[start:end][positive]
                    / denominator[positive]
                )
            continue
        rows = dense_rows(matrix, indices)
        if scoring == "count":
            total += rows
            continue
        norms = engine.column_norms(pattern)
        row_norms = np.linalg.norm(rows, axis=1)
        scores = np.zeros_like(rows)
        defined = (row_norms[:, None] > 0) & (norms[None, :] > 0)
        denominator = row_norms[:, None] * norms[None, :]
        scores[defined] = rows[defined] / denominator[defined]
        total += scores
    return indices, total


def dense_ranking_from_row(algorithm, query, row, query_index, top_k):
    nodes, columns = algorithm._candidate_arrays(query)
    scores = row[columns]
    valid = (scores > 0) & (columns != query_index)
    positions = np.flatnonzero(valid)
    if top_k is not None and top_k <= 0:
        positions = positions[:0]
    elif top_k is not None and len(positions) > top_k:
        candidate_scores = scores[positions]
        boundary = np.partition(
            candidate_scores, len(positions) - top_k
        )[len(positions) - top_k]
        above = positions[candidate_scores > boundary]
        at_boundary = positions[candidate_scores == boundary]
        positions = np.concatenate(
            (above, at_boundary[: top_k - len(above)])
        )
    return Ranking.from_arrays(
        [nodes[position] for position in positions], scores[positions]
    )


def dense_rank_many(algorithm, queries, top_k):
    indices, rows = dense_score_rows(algorithm, queries)
    return {
        query: dense_ranking_from_row(
            algorithm, query, rows[i], indices[i], top_k
        )
        for i, query in enumerate(queries)
    }


def assert_parity(algorithm, queries, top_k, reference=None):
    """rank_many == rank_many_via_scores == the dense reference, bitwise."""
    reference = reference or algorithm
    if top_k == "over":  # more than the candidate count
        top_k = len(algorithm._candidate_arrays(queries[0])[0]) + 5
    actual = algorithm.rank_many(queries, top_k=top_k)
    via_scores = algorithm.rank_many_via_scores(queries, top_k=top_k)
    dense = dense_rank_many(reference, queries, top_k)
    assert list(actual) == list(queries)
    for query in queries:
        items = actual[query].items()
        assert items == via_scores[query].items(), query
        assert items == dense[query].items(), query
    return actual


# ----------------------------------------------------------------------
# Parity over the scale tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "prepared", [True, False], ids=["prepared", "percall"]
)
@pytest.mark.parametrize(
    "query_type,kind,pattern,scoring",
    CASES,
    ids=["-".join(filter(None, case[1:])) for case in CASES],
)
def test_sparse_topk_matches_dense(
    scale_db, query_type, kind, pattern, scoring, prepared
):
    session = SimilaritySession(scale_db)
    algorithm = build(scale_db, kind, pattern, scoring, session.engine)
    if prepared:
        algorithm.prepare_scoring()
    assert algorithm.is_prepared == prepared
    if kind == "expand":
        assert len(algorithm.patterns) == 16
    queries = zipf_queries(scale_db, scale_db.nodes_of_type(query_type))
    nonempty = 0
    for top_k in TOP_KS:
        actual = assert_parity(algorithm, queries, top_k)
        nonempty += sum(len(ranking) > 0 for ranking in actual.values())
    assert nonempty > 0


@pytest.mark.parametrize(
    "query_type,kind,pattern,scoring",
    [CASES[1], CASES[3], CASES[5], CASES[6]],
    ids=["count", "expand-count", "expand-cosine", "pathsim"],
)
def test_memory_budget_forces_per_call_path(
    scale_db, query_type, kind, pattern, scoring
):
    reference = build(
        scale_db, kind, pattern, scoring, SimilaritySession(scale_db).engine
    )
    # Far below one pattern's matrix: nothing can be pinned, every
    # pattern is fetched, read and evicted in turn.
    session = SimilaritySession(scale_db, memory_budget=1 << 12)
    algorithm = build(scale_db, kind, pattern, scoring, session.engine)
    if kind != "pathsim":  # PathSim pins its one matrix regardless
        algorithm.prepare_scoring()
    assert not algorithm.is_prepared
    queries = zipf_queries(scale_db, scale_db.nodes_of_type(query_type), 12)
    for top_k in (None, 10):
        assert_parity(algorithm, queries, top_k, reference=reference)
        expected = reference.rank_many(queries, top_k=top_k)
        actual = algorithm.rank_many(queries, top_k=top_k)
        for query in queries:
            assert actual[query].items() == expected[query].items()
    assert session.engine.cache_info()["spilled"] > 0


def test_boundary_ties_are_exercised(scale_db):
    """Count scores tie heavily; the boundary fill must follow str order."""
    session = SimilaritySession(scale_db)
    algorithm = RelSim(
        scale_db, "w-.w.w-.w", scoring="count", engine=session.engine
    ).prepare_scoring()
    queries = zipf_queries(scale_db, scale_db.nodes_of_type("paper"), 48, 3)
    full = algorithm.rank_many(queries)
    straddled = []
    for query, ranking in full.items():
        scores = [score for _, score in ranking.items()]
        for k in (1, 10):
            if len(scores) > k and scores[k - 1] == scores[k]:
                straddled.append((query, k))
    assert straddled, "no boundary tie in the drawn queries"
    for query, k in straddled:
        actual = algorithm.rank_many([query], top_k=k)[query]
        expected = dense_rank_many(algorithm, [query], k)[query]
        assert actual.items() == expected.items()
        assert actual.items() == full[query].items(k)


# ----------------------------------------------------------------------
# Fixed answer type and untyped queries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scoring", ["count", "cosine"])
def test_fixed_answer_type_disease_to_drug(biomed_bundle, scoring):
    database = biomed_bundle.database
    algorithm = RelSim(
        database,
        "dd-ph-indirect.ph-pr-assoc.targets-",
        scoring=scoring,
        answer_type="drug",
    ).prepare_scoring()
    queries = sorted(biomed_bundle.ground_truth, key=str)
    for top_k in TOP_KS:
        actual = assert_parity(algorithm, queries, top_k)
        for ranking in actual.values():
            assert all(
                database.node_type(node) == "drug" for node in ranking.top()
            )
    assert any(len(ranking) for ranking in actual.values())


def test_untyped_queries_rank_over_all_nodes(scale_db):
    labels = ["w", "p-in", "r-a"]
    untyped = GraphDatabase(Schema(labels))
    for label in labels:
        untyped.add_edges_bulk(
            label,
            [(source, target) for source, _, target in scale_db.edges(label)],
        )
    session = SimilaritySession(untyped)
    queries = zipf_queries(untyped, list(untyped.nodes()), 16, 5)
    assert all(untyped.node_type(query) is None for query in queries)
    for kind, pattern, scoring in [
        ("relsim", "w-.w", "pathsim"),
        ("relsim", "w-.w.w-.w", "count"),
        ("relsim", "w-.w", "cosine"),
        ("pathsim", "w-.w", None),
    ]:
        algorithm = build(untyped, kind, pattern, scoring, session.engine)
        for top_k in TOP_KS:
            assert_parity(algorithm, queries, top_k)


# ----------------------------------------------------------------------
# Cosine exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pattern", ["w-.w", "w-.w.w-.w", "w-.w.p-in"])
def test_cosine_compact_norm_is_bitwise_dense_norm(scale_db, pattern):
    engine = SimilaritySession(scale_db).engine
    matrix = engine.matrix(parse_pattern(pattern))
    # Commuting matrices hold integer instance counts ...
    assert np.array_equal(matrix.data, np.round(matrix.data))
    rows = zipf_queries(scale_db, scale_db.nodes_of_type("paper"), 32, 7)
    indices = engine.query_indices(rows)
    dense = dense_rows(matrix, indices)
    for i, row in enumerate(indices):
        values = matrix.data[matrix.indptr[row]:matrix.indptr[row + 1]]
        # ... so the stored-entry sum of squares is exact and the compact
        # norm equals the dense row's norm bit for bit.
        assert np.linalg.norm(values) == np.linalg.norm(dense[i])
        assert np.linalg.norm(values) == np.linalg.norm(dense, axis=1)[i]


# ----------------------------------------------------------------------
# Rank lookup across indexer growth
# ----------------------------------------------------------------------
def test_rank_lookup_survives_node_adding_delta_of_other_type(scale_db):
    database = scale_db.copy()
    service = SimilarityService(database)
    shapes = [
        {"pattern": "w-.w", "scoring": scoring}
        for scoring in ("pathsim", "count", "cosine")
    ]
    # Paper -> author scores ranked against papers: every entry is a
    # non-candidate, including the new author's appended column.
    shapes.append({"pattern": "w-", "scoring": "count", "answer_type": "paper"})
    prepared = [
        service.prepare(algorithm="relsim", top_k=10, **shape)
        for shape in shapes
    ]
    queries = zipf_queries(database, database.nodes_of_type("paper"), 16, 9)
    for handle in prepared:
        handle.run_many(queries)  # warm the paper candidate entry
    view = service.session.engine.view
    paper_index = view.candidate_index("paper")
    old_n = view.num_nodes()
    # A new author (another type) with edges to popular papers: the
    # indexer grows and the paper candidate entry is kept as-is.
    service.apply(
        edges_added=[("author:new", "w", query) for query in queries[:3]],
        nodes_added=[("author:new", "author")],
    )
    view = service.session.engine.view
    assert view.num_nodes() == old_n + 1
    assert view.candidate_index("paper") is paper_index
    fresh_view = MatrixView(service.session.database)
    for mine, theirs in zip(
        view.candidate_ranks("paper"), fresh_view.candidate_ranks("paper")
    ):
        assert np.array_equal(np.asarray(mine), np.asarray(theirs))
    fresh = SimilaritySession(service.session.database.copy())
    for shape, handle in zip(shapes, prepared):
        actual = handle.run_many(queries)
        expected = fresh.rank_many(
            queries, algorithm="relsim", top_k=10, **shape
        )
        for query in queries:
            assert actual[query].items() == expected[query].items()
