"""Shared interface for similarity search algorithms.

A similarity query (Section 2) is a node id; the answer is a ranked list
of other node ids.  Every algorithm here implements::

    scores(query)            -> {node: score} over candidate nodes
    rank(query, top_k=None)  -> Ranking (sorted, deterministic ties)

Candidates default to nodes of the same type as the query (the paper
ranks proceedings against proceedings, courses against courses) unless an
``answer_type`` is fixed at construction (diseases ranked against drugs
in the BioMed study).

Every algorithm accepts an injected ``engine``
(:class:`~repro.lang.matrix_semantics.CommutingMatrixEngine`) so a
:class:`~repro.api.SimilaritySession` can share one set of materialized
matrices across all the algorithms it constructs; topology-based
algorithms that only need adjacency matrices reuse the engine's
:class:`~repro.graph.matrices.MatrixView`.

Array-native scoring
--------------------
Matrix-backed algorithms additionally rank through sparse score
*entries*: :meth:`~SimilarityAlgorithm.score_entries` returns, per
query, the ``(columns, values)`` of its nonzero scores over the node
indexer.  Zero-score candidates are never answers, so ``rank`` and
``rank_many`` need nothing else: they filter the entries by candidate
type through the view's cached column-to-``str``-rank lookup
(:meth:`~repro.graph.matrices.MatrixView.candidate_ranks`), mask the
query out, drop non-positive values and run an ``np.partition`` top-k
whose boundary ties are broken by that ``str`` rank — work
proportional to a row's nonzeros, never to ``n``, and only the ``k``
winners are ever materialized as ``(node, score)`` pairs.

RelSim (all three scoring modes) and PathSim are *sparse-native*: they
read each query's stored commuting-matrix row entries directly, summing
per-pattern values in pattern order so every score is bitwise equal to
the dense row sum.  The other algorithms (RWR, pattern-constrained RWR,
SimRank, HeteSim, Katz, common neighbors) keep dense
:meth:`~SimilarityAlgorithm.score_rows` — one ``n``-wide vector per
query — and inherit a ``score_entries`` that keeps each row's positive
columns.  The dict APIs (``scores``/``scores_many``) are thin adapters
over :meth:`~SimilarityAlgorithm.score_rows`, which RelSim and PathSim
keep as dense adapters scattering their entries; the dict-based
ranking path is kept as :meth:`rank_many_via_scores` for equivalence
testing and benchmarking.

Candidates absent from the algorithm's snapshot indexer raise
:class:`~repro.exceptions.UnknownNodeError` uniformly — scoring a node
the snapshot does not cover is an error, not a zero score.  (Open a new
session/view after mutating the database, or serve through
:class:`~repro.api.service.SimilarityService`, which swaps snapshots.)

Prepared scoring state
----------------------
:meth:`SimilarityAlgorithm.prepare_scoring` pins whatever per-instance
state scoring would otherwise recompute or re-fetch per call (commuting
matrices, diagonals, column norms); once pinned the state is immutable,
which is what makes a prepared hot path safe to share across serving
threads.  :class:`~repro.api.prepared.PreparedQuery` calls it during
preparation.  Pinned state should come from the engine's caches
(``engine.matrix`` / ``engine.diagonal`` / ``engine.column_norms``)
rather than be derived ad hoc: those caches are *delta-maintained* —
``SimilarityService``'s incremental live updates patch them in place —
so re-pinning after an update is mostly identity reuse, recomputing
only the entries whose inputs actually changed.
"""

import numpy as np

from repro.graph.matrices import MatrixView


def resolve_view(database, view=None, engine=None):
    """The :class:`MatrixView` an algorithm should compute on.

    Preference order: an explicit ``view``, then the view of an injected
    ``engine`` (so session-constructed algorithms share adjacency
    matrices and node indexing), then a fresh view over ``database``.
    """
    if view is not None:
        return view
    if engine is not None:
        return engine.view
    return MatrixView(database)


class Ranking:
    """An ordered answer list with scores.

    Ties are broken by node id so that rankings are deterministic — a
    requirement for the robustness comparison to be meaningful (otherwise
    tie shuffling would masquerade as non-robustness).
    """

    def __init__(self, scored_nodes):
        self._items = sorted(
            scored_nodes, key=lambda item: (-item[1], str(item[0]))
        )
        self._lookup = None

    @classmethod
    def from_arrays(cls, nodes, scores):
        """Ranking from parallel node/score sequences (array-native path).

        Skips the intermediate per-candidate dict: callers pass the
        already-selected winners (typically the ``argpartition`` top-k),
        so the deterministic ``(-score, str(node))`` sort touches only
        ``k`` items instead of the full candidate set.
        """
        return cls(zip(nodes, (float(score) for score in scores)))

    def top(self, k=None):
        """The first ``k`` node ids (all of them when ``k`` is None)."""
        items = self._items if k is None else self._items[:k]
        return [node for node, _ in items]

    def items(self, k=None):
        """``(node, score)`` pairs, optionally truncated."""
        return list(self._items if k is None else self._items[:k])

    def _positions(self):
        # Built lazily on the first lookup: metric code calls
        # score_of/position_of once per candidate, and a linear scan per
        # call is quadratic over a workload.
        if self._lookup is None:
            self._lookup = {
                node: (position, score)
                for position, (node, score) in enumerate(self._items, start=1)
            }
        return self._lookup

    def score_of(self, node):
        entry = self._positions().get(node)
        return None if entry is None else entry[1]

    def position_of(self, node):
        """1-based rank of ``node``; ``None`` when absent."""
        entry = self._positions().get(node)
        return None if entry is None else entry[0]

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self.top())

    def __repr__(self):
        preview = ", ".join(
            "{}={:.4f}".format(node, score) for node, score in self._items[:3]
        )
        return "Ranking([{}{}])".format(
            preview, ", ..." if len(self._items) > 3 else ""
        )


class SimilarityAlgorithm:
    """Base class implementing candidate selection and ranking."""

    #: Human-readable name used in experiment reports.
    name = "base"

    #: Queries per ``score_entries``/``scores_many`` call inside
    #: ``rank_many``.  Dense-row algorithms build a (queries x nodes)
    #: block and sparse-native ones hold every query's entries until
    #: ranked, so an unchunked million-query workload would allocate
    #: workload-sized arrays; per-row scores are independent, so
    #: chunking changes nothing but peak memory.
    batch_chunk_size = 512

    #: True when rankings are a pure function of the commuting/adjacency
    #: matrices of this algorithm's own patterns.  Pattern-local
    #: algorithms give standing-query subscriptions a label footprint:
    #: an edge delta touching none of those labels provably cannot
    #: change a ranking, so maintenance skips it in O(1).  Whole-graph
    #: algorithms (RWR, SimRank, Katz, common neighbors) keep the
    #: default and are treated as touched by every delta.
    pattern_local = False

    #: True when adding nodes alone (no edges on this algorithm's
    #: labels) can still perturb its scores — dense reductions and
    #: fixed-point solves change shape with the node count, so their
    #: float results are not bitwise-stable under padding.  Entry-local
    #: sparse scorers (PathSim-style) override this to False; plans
    #: embedding an identity term are handled separately via
    #: :func:`repro.lang.plan.pattern_footprint`.
    delta_growth_sensitive = True

    def __init__(self, database, answer_type=None):
        self._database = database
        self._answer_type = answer_type
        #: The MatrixView backing the array-native path; array-native
        #: subclasses assign it at construction.
        self._view = None
        #: Reusable precomputed scoring state pinned by
        #: :meth:`prepare_scoring`; ``None`` until prepared.  Subclasses
        #: define its shape; once set it is treated as immutable, which
        #: is what makes a prepared hot path safe to share across
        #: threads.
        self._prepared_state = None

    @property
    def database(self):
        return self._database

    # ------------------------------------------------------------------
    # Prepared scoring state
    # ------------------------------------------------------------------
    def prepare_scoring(self):
        """Precompute and pin reusable scoring state (idempotent).

        Called once by :class:`~repro.api.prepared.PreparedQuery` so
        that every subsequent :meth:`rank`/:meth:`rank_many` call runs
        on warm, immutable state — no pattern compilation, no cache
        probing, no per-call recomputation of diagonals or norms.
        Subclasses with per-pattern state override this; algorithms
        that already precompute everything at construction (SimRank's
        dense solve, RWR's walk matrix, ...) inherit the no-op.
        Returns ``self`` for chaining.
        """
        return self

    @property
    def is_prepared(self):
        """True once :meth:`prepare_scoring` has pinned scoring state."""
        return self._prepared_state is not None

    def delta_rescore(self, query_index, plan_deltas):
        """``(columns, scores)`` for candidates a delta may have rescored.

        ``plan_deltas`` maps compiled plan nodes to the sparse delta the
        engine's incremental maintenance applied to each cached matrix
        (zero for untouched entries).  Implementations return a sorted
        index array of every candidate column whose score for
        ``query_index`` could differ from the pre-delta snapshot,
        paired with those candidates' *new* scores — computed with the
        exact same float operations as :meth:`score_entries`, so the
        values are bitwise comparable against a full re-rank.  Return
        ``None`` when a targeted rescore cannot be trusted for this
        delta (missing plan delta, unpinned state, non-entry-local
        scoring); the subscription layer then falls back to a full
        re-rank.  The default supports nothing.
        """
        return None

    def candidates(self, query):
        """Nodes eligible as answers for ``query`` (never the query).

        Candidates are read from the *live* database; scoring them goes
        through the algorithm's snapshot indexer, and a candidate the
        snapshot does not cover raises
        :class:`~repro.exceptions.UnknownNodeError` — uniformly across
        all algorithms (no algorithm silently skips it).  Mutating the
        database after constructing an algorithm is the only way to get
        into that state; open a fresh session/view instead.
        """
        if self._answer_type is not None:
            nodes = self._database.nodes_of_type(self._answer_type)
        else:
            query_type = self._database.node_type(query)
            if query_type is None:
                nodes = list(self._database.nodes())
            else:
                nodes = self._database.nodes_of_type(query_type)
        return [node for node in nodes if node != query]

    # ------------------------------------------------------------------
    # Array-native primitive
    # ------------------------------------------------------------------
    def score_rows(self, queries):
        """Batch scores as ``(query_indices, rows)`` over the node indexer.

        ``rows`` is a dense ``(len(queries), n)`` float array in which
        column ``j`` scores node ``indexer.node_at(j)``; row ``i``
        corresponds to ``queries[i]`` and ``query_indices[i]`` is that
        query's indexer position.  Rows cover *all* nodes — candidate
        filtering happens downstream, so implementations stay a pure
        matrix slice.  Ranking reads :meth:`score_entries`, whose
        default keeps each row's positive columns; sparse-native
        algorithms override that and keep this only as the dense
        adapter behind the dict APIs.

        Matrix-backed algorithms implement this; algorithms without a
        vectorizable representation leave it unimplemented and the
        ranking methods fall back to the per-query dict path via
        :meth:`scores`.
        """
        raise NotImplementedError(
            "{} does not implement array-native scoring".format(
                type(self).__name__
            )
        )

    def score_entries(self, queries):
        """Batch scores as ``(query_indices, entries)``, sparse per query.

        ``entries[i]`` is a ``(columns, values)`` pair of parallel arrays
        holding every column where ``queries[i]``'s score is positive
        (it may hold more: non-positive values and non-candidates are
        filtered by the ranking).  Columns need not be sorted but must
        be unique.  The default derives the entries from
        :meth:`score_rows`; sparse-native algorithms override it to
        skip the ``n``-wide row entirely.
        """
        indices, rows = self.score_rows(queries)
        entries = []
        for row in rows:
            columns = np.flatnonzero(row > 0)
            entries.append((columns, row[columns]))
        return indices, entries

    def _array_native(self):
        return type(self).score_rows is not SimilarityAlgorithm.score_rows

    def _answer_type_of(self, query):
        if self._answer_type is not None:
            return self._answer_type
        return self._database.node_type(query)

    def _candidate_arrays(self, query):
        """The cached ``(nodes, columns)`` candidate index for ``query``."""
        return self._view.candidate_index(self._answer_type_of(query))

    # ------------------------------------------------------------------
    # Dict APIs (thin adapters over score_rows when available)
    # ------------------------------------------------------------------
    def scores(self, query):
        """Mapping candidate -> similarity score.

        Array-native algorithms inherit this adapter over
        :meth:`score_rows`; others implement it directly.
        """
        if self._array_native():
            return self.scores_many([query])[query]
        raise NotImplementedError

    def scores_many(self, queries):
        """``{query: {candidate: score}}`` for a batch of queries.

        For array-native algorithms this is a thin adapter over
        :meth:`score_rows` — one matrix slice for the whole batch, then
        per-candidate dicts.  The default otherwise evaluates queries
        one at a time via :meth:`scores`.  Either way the result is
        contractually identical to per-query ``scores``.
        """
        queries = list(queries)
        if not queries:
            return {}
        if not self._array_native():
            return {query: self.scores(query) for query in queries}
        indices, rows = self.score_rows(queries)
        results = {}
        for i, query in enumerate(queries):
            nodes, columns = self._candidate_arrays(query)
            row = rows[i]
            results[query] = {
                node: float(row[column])
                for node, column in zip(nodes, columns)
                if column != indices[i]
            }
        return results

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def _as_ranking(self, scored_mapping, top_k):
        scored = [
            (node, score)
            for node, score in scored_mapping.items()
            if score > 0
        ]
        ranking = Ranking(scored)
        if top_k is None:
            return ranking
        return Ranking(ranking.items(top_k))

    def _top_k(self, query, query_index, columns, values, top_k):
        """Sparse top-k over one query's score entries.

        Entries outside the query's candidate set, the query itself and
        non-positive scores are dropped (same contract as the dict
        path).  With a ``top_k``, an ``np.partition`` of the surviving
        scores finds the boundary value; everything strictly above it is
        in, and ties at the boundary are filled in ascending ``str(node)``
        rank — the dict path's deterministic tie-break, read from the
        view's cached column-to-rank lookup.
        """
        nodes, rank_of = self._view.candidate_ranks(
            self._answer_type_of(query)
        )
        if (top_k is not None and top_k <= 0) or not nodes:
            return Ranking(())
        ranks = rank_of[columns]
        keep = (ranks >= 0) & (columns != query_index) & (values > 0)
        ranks = ranks[keep]
        values = values[keep]
        if top_k is not None and len(values) > top_k:
            cut = len(values) - top_k
            boundary = np.partition(values, cut)[cut]
            above = np.flatnonzero(values > boundary)
            tied = np.flatnonzero(values == boundary)
            tied = tied[np.argsort(ranks[tied])]
            chosen = np.concatenate((above, tied[: top_k - len(above)]))
            ranks, values = ranks[chosen], values[chosen]
        order = np.argsort(ranks)
        return Ranking.from_arrays(
            [nodes[rank] for rank in ranks[order]], values[order]
        )

    def rank(self, query, top_k=None):
        """Ranked answers for ``query``.

        Zero-score candidates are not answers (a node with no instances
        of the relationship is "not similar", not "similar with score
        0"), and dropping them keeps ranked lists comparable across
        structural variants whose isolated-node sets differ.
        """
        if self._array_native():
            return self.rank_many([query], top_k=top_k)[query]
        return self._as_ranking(self.scores(query), top_k)

    def rank_many(self, queries, top_k=None):
        """``{query: Ranking}`` for a batch of queries.

        Array-native algorithms score each chunk with one
        :meth:`score_entries` call and finish with a sparse top-k per
        query; the rest go through :meth:`rank_many_via_scores`.
        Queries are processed in chunks of :attr:`batch_chunk_size` so
        the vectorized implementations keep bounded peak memory on
        arbitrarily large workloads.  Results are contractually
        identical to looping :meth:`rank`.
        """
        queries = list(queries)
        if not self._array_native():
            return self.rank_many_via_scores(queries, top_k=top_k)
        size = max(int(self.batch_chunk_size), 1)
        rankings = {}
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            indices, entries = self.score_entries(chunk)
            for query, query_index, (columns, values) in zip(
                chunk, indices, entries
            ):
                rankings[query] = self._top_k(
                    query, query_index, columns, values, top_k
                )
        return rankings

    def rank_many_via_scores(self, queries, top_k=None):
        """``{query: Ranking}`` through the per-candidate dict path.

        The pre-array *ranking* implementation: build the full
        ``{candidate: score}`` dict per query, then sort the whole
        candidate list.  Raw scores still come from :meth:`scores_many`
        (hence :meth:`score_rows` where available) — what this measures
        and cross-checks against :meth:`rank_many` is everything
        downstream of scoring: dict materialization, zero filtering,
        sorting, truncation.  Score *values* are validated separately by
        the per-algorithm behavior tests.  Kept public as the reference
        for equivalence tests and as the baseline the efficiency
        benchmark compares the array-native path against.
        """
        queries = list(queries)
        size = max(int(self.batch_chunk_size), 1)
        rankings = {}
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            for query, scored in self.scores_many(chunk).items():
                rankings[query] = self._as_ranking(scored, top_k)
        return rankings
