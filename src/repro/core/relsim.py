"""RelSim — the paper's structurally robust similarity search algorithm.

RelSim is PathSim's scoring formula (Equation 1) evaluated over **RRE**
patterns instead of plain meta-paths.  Because RRE is expressive enough
to carry any pattern across an invertible transformation with *equal
instance counts* (Theorem 2 via the skip/nested operators), RelSim
returns identical ranked lists over a database and all of its invertible
structural variations (Corollary 1).

Two scoring modes beyond PathSim's are provided for asymmetric
relationships (e.g. disease-to-drug queries, Section 7.2, where the
PathSim denominator is identically zero):

* ``"count"`` — the raw instance count ``|I^{u,v}(p)|``;
* ``"cosine"`` — counts normalized by the query row and candidate column
  norms of the commuting matrix (a HeteSim-flavored normalization).

All three are functions of the commuting matrix restricted to preserved
nodes, hence equally robust.
"""

import numpy as np

from repro.exceptions import EvaluationError
from repro.lang.ast import Pattern
from repro.lang.matrix_semantics import (
    CommutingMatrixEngine,
    accumulate_columns,
    pathsim_entries,
)
from repro.lang.parser import parse_pattern
from repro.similarity.base import SimilarityAlgorithm

_SCORINGS = ("pathsim", "count", "cosine")


def _as_patterns(patterns):
    if isinstance(patterns, (str, Pattern)):
        patterns = [patterns]
    resolved = []
    for pattern in patterns:
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        if not isinstance(pattern, Pattern):
            raise TypeError(
                "pattern must be a string or Pattern AST, got {!r}".format(
                    pattern
                )
            )
        if pattern not in resolved:
            resolved.append(pattern)
    if not resolved:
        raise EvaluationError("RelSim needs at least one pattern")
    return resolved


def _sum_entries(parts):
    """Per-pattern ``(columns, values)`` of one row, summed per column.

    ``np.bincount`` adds the weights of each column in input order,
    starting from 0.0, so every score is accumulated in pattern order —
    the same float additions a dense per-pattern row sum performs (a
    pattern with no entry at a column only ever added 0.0 there).
    """
    if len(parts) == 1:
        return parts[0]
    columns = np.concatenate([part[0] for part in parts])
    values = np.concatenate([part[1] for part in parts])
    unique, inverse = np.unique(columns, return_inverse=True)
    return unique, np.bincount(inverse, weights=values, minlength=len(unique))


class RelSim(SimilarityAlgorithm):
    """Similarity search over one or more RRE relationship patterns.

    With several patterns the per-pattern scores are summed — the
    aggregation used by the usability layer (Section 5), where the
    pattern set comes from Algorithm 1.

    Parameters
    ----------
    database:
        The graph database to search.
    patterns:
        One RRE (string/AST) or a list of them.
    scoring:
        ``"pathsim"`` (default, Equation 1), ``"count"`` or ``"cosine"``.
    engine:
        Optional shared :class:`CommutingMatrixEngine`.
    """

    name = "RelSim"

    pattern_local = True

    def __init__(
        self,
        database,
        patterns,
        scoring="pathsim",
        engine=None,
        answer_type=None,
    ):
        super().__init__(database, answer_type=answer_type)
        if scoring not in _SCORINGS:
            raise EvaluationError(
                "unknown scoring {!r}; choose one of {}".format(
                    scoring, _SCORINGS
                )
            )
        self.patterns = _as_patterns(patterns)
        self.scoring = scoring
        # pathsim/count scores are entry-local sparse arithmetic, stable
        # under node-set padding; cosine norms reduce over whole rows,
        # whose float result can shift with the vector length.
        self.delta_growth_sensitive = scoring == "cosine"
        self.engine = engine or CommutingMatrixEngine(database)
        self._view = self.engine.view

    # ------------------------------------------------------------------
    # Prepared scoring state
    # ------------------------------------------------------------------
    def prepare_scoring(self):
        """Pin per-pattern scoring state: matrices, diagonals, norms.

        After this, :meth:`score_entries` runs on immutable local state —
        no plan compilation, no engine cache probing, no per-call
        ``matrix.diagonal()`` extraction.  When the engine's LRU cap is
        smaller than the pattern set — or its byte ``memory_budget``
        smaller than the set's estimated resident size — pinning every
        matrix at once would defeat the limit, so only the compile pass
        runs and the per-call path is kept (same rule as
        :meth:`score_entries` warming).
        """
        if self._prepared_state is not None:
            return self
        if self.engine.warm_exceeds_limits(self.patterns):
            for pattern in self.patterns:
                self.engine.compile(pattern)
            return self
        matrices = self.engine.warm(
            self.patterns, norms=self.scoring == "cosine"
        )
        self._prepared_state = tuple(
            self._pattern_state(pattern, matrix)
            for pattern, matrix in zip(self.patterns, matrices)
        )
        return self

    def _pattern_state(self, pattern, matrix):
        """``(matrix, diagonal, norms)``: what scoring ``pattern`` reads.

        Diagonal and norms are engine-cached: shared across algorithms
        and patched in place by delta maintenance, so re-pinning after a
        live update only recomputes what actually changed.
        """
        matrix.sum_duplicates()  # row readers need canonical CSR
        diagonal = (
            self.engine.diagonal(pattern)
            if self.scoring == "pathsim"
            else None
        )
        norms = (
            self.engine.column_norms(pattern)
            if self.scoring == "cosine"
            else None
        )
        return matrix, diagonal, norms

    def delta_rescore(self, query_index, plan_deltas):
        """Targeted rescore of the candidates a delta touched (or None).

        Every cached plan delta names exactly which matrix entries (and,
        through its diagonal, which PathSim denominators) moved; a
        candidate column outside that set provably kept its score.  The
        touched columns are rescored from the pinned state with the
        same row entries as :meth:`score_entries`, accumulated
        in the same pattern order, so the returned scores are bitwise
        comparable with a full re-rank.  Unsupported cases — unpinned
        state, cosine's whole-row norms, a missing plan delta, or a
        delta to the query's own diagonal (every denominator moves) —
        return None.
        """
        state = self._prepared_state
        if state is None or self.scoring == "cosine":
            return None
        deltas = []
        for pattern in self.patterns:
            d = plan_deltas.get(self.engine.compile(pattern))
            if d is None:
                return None
            deltas.append(d)
        affected = set()
        for d in deltas:
            if d.nnz == 0:
                continue
            start, end = d.indptr[query_index], d.indptr[query_index + 1]
            affected.update(int(col) for col in d.indices[start:end])
            if self.scoring == "pathsim":
                diagonal_delta = d.diagonal()
                if diagonal_delta[query_index] != 0:
                    return None
                affected.update(
                    int(row) for row in np.flatnonzero(diagonal_delta)
                )
        if not affected:
            return np.empty(0, dtype=np.intp), np.zeros(0)
        columns = np.array(sorted(affected), dtype=np.intp)
        scores = np.zeros(len(columns))
        for entry in state:
            accumulate_columns(
                scores, columns, *self._row_entries(entry, query_index)
            )
        return columns, scores

    def _row_entries(self, entry, row):
        """One pattern's ``(columns, scores)`` for one query row.

        Every scoring mode is nonzero only at the row's stored entries,
        so this reads O(row nnz) values from the pattern's
        ``(matrix, diagonal, norms)`` state and never an n-wide row.
        """
        matrix, diagonal, norms = entry
        if self.scoring == "pathsim":
            return pathsim_entries(matrix, row, diagonal)
        start, end = matrix.indptr[row], matrix.indptr[row + 1]
        columns = matrix.indices[start:end]
        values = matrix.data[start:end]
        if self.scoring == "count":
            return columns, values
        # cosine.  Counts are integers, so the sum of squares over the
        # stored entries is exact: this norm equals the dense row's
        # np.linalg.norm bitwise.
        row_norm = np.linalg.norm(values)
        defined = (norms[columns] > 0) & (row_norm > 0)
        columns = columns[defined]
        return columns, values[defined] / (row_norm * norms[columns])

    def score_entries(self, queries):
        """Per-query sparse scores: one row read per pattern, summed.

        The prepared hot path reads pinned state only.  Otherwise the
        whole pattern set is *compiled* first, so the plan compiler sees
        every pattern before any chain order is chosen and the shared
        prefixes/sub-chains of an Algorithm-1 expansion are multiplied
        once and reused (cross-pattern CSE).  When the set fits under
        the engine's limits (LRU cap and byte budget), the matrices are
        also warmed through ``matrices_many`` so the per-pattern reads
        below are pure cache hits; with limits tighter than the set,
        warming would defeat them (pin every matrix at once) and be
        evicted before use, so only the compile pass runs and each
        pattern's matrix is fetched, read and released in turn.
        """
        queries = list(queries)
        indices = self.engine.query_indices(queries)
        state = self._prepared_state
        copy = state is None
        if copy:
            if self.engine.warm_exceeds_limits(self.patterns):
                for pattern in self.patterns:
                    self.engine.compile(pattern)
            else:
                self.engine.matrices_many(self.patterns)
            state = (
                self._pattern_state(pattern, self.engine.matrix(pattern))
                for pattern in self.patterns
            )
        parts = [[] for _ in indices]
        for entry in state:
            for row, part in zip(indices, parts):
                columns, values = self._row_entries(entry, row)
                if copy:
                    # Slices would keep an evicted matrix's buffers
                    # alive past the engine's byte budget.
                    columns, values = columns.copy(), values.copy()
                part.append((columns, values))
        return indices, [_sum_entries(part) for part in parts]

    def score_rows(self, queries):
        """Dense ``(len(queries), n)`` rows scattered from the entries.

        The dict APIs' adapter; ranking reads :meth:`score_entries`.
        """
        indices, entries = self.score_entries(queries)
        rows = np.zeros((len(indices), len(self.engine.indexer)))
        for row, (columns, values) in zip(rows, entries):
            row[columns] = values
        return indices, rows

    # ------------------------------------------------------------------
    @classmethod
    def from_simple_pattern(
        cls,
        database,
        pattern,
        constraints=None,
        scoring="pathsim",
        engine=None,
        answer_type=None,
        use_filters=True,
        max_patterns=64,
    ):
        """The usability-layer constructor (Section 5).

        Runs Algorithm 1 on ``pattern`` against the schema's constraints
        (or an explicit ``constraints`` list) and aggregates over the
        generated RRE set.
        """
        from repro.patterns.generator import generate_patterns

        if constraints is None:
            constraints = database.schema.constraints
        generated = generate_patterns(
            pattern,
            constraints,
            use_filters=use_filters,
            max_patterns=max_patterns,
        )
        return cls(
            database,
            generated.patterns,
            scoring=scoring,
            engine=engine,
            answer_type=answer_type,
        )
