"""Experiment harnesses reproducing the Section-7 methodology.

* :class:`RobustnessExperiment` — run a workload with each algorithm on
  a database and on its transformed variant, and report average
  normalized Kendall tau at top-5/top-10 (Tables 1 and 2).
* :class:`EffectivenessExperiment` — MRR against ground truth on a
  database (and optionally its transformed variant; Table 3).
* :func:`time_queries` — average per-query wall time (Table 4/Figure 5).

Algorithms are supplied as *factories* ``factory(database) -> algorithm``
because each variant needs its own engine/matrices (and, for the
pattern-based methods, its own translated pattern).  Pass ``sessions``
(one :class:`~repro.api.SimilaritySession` per variant) and the
factories receive the session instead — every algorithm on a variant
then shares that variant's materialized matrices, which is the hot-path
saving: robustness runs stop rebuilding identical matrices per
algorithm.  Query workloads are scored through the batch path
(``rank_many``), finished with the sparse top-k selection over each
query's score entries (``score_entries`` + ``np.partition``) rather
than per-candidate dicts.
"""

import time

from repro.eval.metrics import average_top_k_tau, mean_reciprocal_rank


class RobustnessResult:
    """Average tau@k per algorithm for one transformation."""

    def __init__(self, transformation_name, taus):
        self.transformation_name = transformation_name
        #: ``{algorithm_name: {k: tau}}``
        self.taus = taus

    def tau(self, algorithm_name, k):
        return self.taus[algorithm_name][k]

    def __repr__(self):
        return "RobustnessResult({!r}, {})".format(
            self.transformation_name, self.taus
        )


class RobustnessExperiment:
    """Compare rankings across a database and its structural variant.

    Parameters
    ----------
    source_database:
        The original database ``I``.
    transformed_database:
        A member of ``Sigma(I)`` (apply the transformation yourself so
        the same variant can be reused across algorithms).
    algorithms:
        ``{name: (source_factory, target_factory)}`` — separate factories
        because pattern-based algorithms use the translated pattern on
        the target side.  Factories are called with the database — or,
        when ``sessions`` is given, with the corresponding session, so
        all algorithms on one side share an engine.
    queries:
        Query node ids (preserved by the transformation).
    sessions:
        Optional ``(source_session, target_session)`` pair of
        :class:`~repro.api.SimilaritySession` objects.
    """

    def __init__(
        self,
        source_database,
        transformed_database,
        algorithms,
        queries,
        top_ks=(5, 10),
        transformation_name="",
        sessions=None,
    ):
        self.source_database = source_database
        self.transformed_database = transformed_database
        self.algorithms = dict(algorithms)
        self.queries = [
            q
            for q in queries
            if source_database.has_node(q) and transformed_database.has_node(q)
        ]
        self.top_ks = tuple(top_ks)
        self.transformation_name = transformation_name
        self.sessions = tuple(sessions) if sessions is not None else None
        if self.sessions is not None and len(self.sessions) != 2:
            raise ValueError(
                "sessions must be a (source_session, target_session) pair"
            )

    def run(self):
        taus = {}
        max_k = max(self.top_ks)
        if self.sessions is not None:
            source_target = self.sessions
        else:
            source_target = (self.source_database, self.transformed_database)
        for name, (source_factory, target_factory) in self.algorithms.items():
            source_algorithm = source_factory(source_target[0])
            target_algorithm = target_factory(source_target[1])
            source_rankings = {
                query: ranking.top()
                for query, ranking in source_algorithm.rank_many(
                    self.queries, top_k=max_k
                ).items()
            }
            target_rankings = {
                query: ranking.top()
                for query, ranking in target_algorithm.rank_many(
                    self.queries, top_k=max_k
                ).items()
            }
            taus[name] = {
                k: average_top_k_tau(source_rankings, target_rankings, k)
                for k in self.top_ks
            }
        return RobustnessResult(self.transformation_name, taus)


class EffectivenessResult:
    """MRR per algorithm, per database variant."""

    def __init__(self, mrrs):
        #: ``{variant_name: {algorithm_name: mrr}}``
        self.mrrs = mrrs

    def mrr(self, variant_name, algorithm_name):
        return self.mrrs[variant_name][algorithm_name]

    def __repr__(self):
        return "EffectivenessResult({})".format(self.mrrs)


class EffectivenessExperiment:
    """MRR of several algorithms against planted/expert ground truth.

    Parameters
    ----------
    variants:
        ``{variant_name: database}`` — e.g. original BioMed and BioMed
        under BioMedT.
    algorithms:
        ``{algorithm_name: {variant_name: factory}}``.
    ground_truth:
        ``{query: relevant node(s)}``.
    """

    def __init__(self, variants, algorithms, ground_truth, top_k=None):
        self.variants = dict(variants)
        self.algorithms = dict(algorithms)
        self.ground_truth = dict(ground_truth)
        self.top_k = top_k

    def run(self):
        mrrs = {name: {} for name in self.variants}
        for algorithm_name, factories in self.algorithms.items():
            for variant_name, database in self.variants.items():
                factory = factories.get(variant_name)
                if factory is None:
                    continue
                algorithm = factory(database)
                present = [
                    query
                    for query in self.ground_truth
                    if database.has_node(query)
                ]
                rankings = {
                    query: ranking.top()
                    for query, ranking in algorithm.rank_many(
                        present, top_k=self.top_k
                    ).items()
                }
                # Restrict the ground truth to queries the variant can
                # answer: a query whose node the transformation dropped
                # would otherwise contribute a spurious RR of 0 and
                # deflate the variant's MRR.
                mrrs[variant_name][algorithm_name] = mean_reciprocal_rank(
                    rankings,
                    {query: self.ground_truth[query] for query in present},
                )
        return EffectivenessResult(mrrs)


def time_queries(algorithm, queries, repeat=1, top_k=10, batched=False,
                 dict_path=False):
    """Average seconds per query (the measure of Table 4 / Figure 5).

    The algorithm is constructed by the caller so that one-off setup cost
    (e.g. materialized matrices, SimRank's all-pairs solve) can be kept
    in or out of the measurement deliberately.

    Parameters
    ----------
    top_k:
        Ranking cutoff per query (the paper times top-10 retrieval).
    batched:
        When True, time the batch path (``rank_many`` over the whole
        workload) instead of one ``rank`` call per query — the number
        reported is still seconds *per query*.
    dict_path:
        When True, force the per-candidate dict implementation
        (``rank_many_via_scores``) instead of the array-native top-k
        path — the before/after baseline of the efficiency benchmark.
    """
    if not queries:
        return 0.0
    started = time.perf_counter()
    for _ in range(repeat):
        if batched:
            if dict_path:
                algorithm.rank_many_via_scores(queries, top_k=top_k)
            else:
                algorithm.rank_many(queries, top_k=top_k)
        elif dict_path:
            for query in queries:
                algorithm.rank_many_via_scores([query], top_k=top_k)
        else:
            for query in queries:
                algorithm.rank(query, top_k=top_k)
    elapsed = time.perf_counter() - started
    return elapsed / (repeat * len(queries))
