"""Serialized engine-state parity: re-bound handles rank identically.

This suite once gated a shared-memory publication of the engine's
state.  That path is gone; what it shared with the warm start stays:
the pooled-array serialization in :mod:`repro.server.snapshot`, which
writes a session's adjacency, cached plan-DAG products, diagonals and
column norms and rebuilds a session from them.  The contract kept here
is the one the shared-memory readers had: **live** prepared handles —
including RelSim's Algorithm-1 expansion variant — re-bound onto a
restored session must answer bitwise-identically (same nodes, same
float scores, same order) for every registered algorithm, without
recomputing a single matrix, including after an incremental ``apply``.
(``tests/test_server_snapshot.py`` covers the file format itself and
freshly prepared handles on a loaded session.)
"""

from repro.api import SimilarityService, SimilaritySession, available_algorithms
from repro.datasets import generate_dblp
from repro.server import load_session, save_snapshot

TOP_K = 10

#: One prepared-query spec per registered algorithm (mirrors the
#: delta-fuzz suite), plus RelSim's Algorithm-1 expansion variant —
#: its expanded pattern set must come out the same on the restored
#: session.
SPECS = [
    ("relsim", {"pattern": "r-a-.p-in.p-in-.r-a"}),
    (
        "relsim",
        {
            "pattern": "r-a-.p-in.p-in-.r-a",
            "expand": {"max_patterns": 8},
        },
    ),
    ("pathsim", {"pattern": "p-in.p-in-"}),
    ("hetesim", {"pattern": "p-in-.p-in", "answer_type": "proc"}),
    ("rwr", {}),
    ("simrank", {}),
    ("pattern-rwr", {"pattern": "p-in.p-in-"}),
    ("pattern-simrank", {"pattern": "p-in.p-in-"}),
    ("common-neighbors", {}),
    ("katz", {}),
]


def _tiny_dblp(seed):
    return generate_dblp(3, 6, 36, 20, seed=seed).database


def _queries(database, options):
    procs = sorted(database.nodes_of_type("proc"))
    areas = sorted(database.nodes_of_type("area"))
    if options.get("answer_type") == "proc":
        return procs[:3]
    return areas[:2] + procs[:3]


def _prepare_all(target):
    return [
        target.prepare(algorithm=name, top_k=TOP_K, **options)
        for name, options in SPECS
    ]


def _rankings(database, handles):
    return [
        [
            (query, list(handle.run(query).items()))
            for query in _queries(database, options)
        ]
        for (_name, options), handle in zip(SPECS, handles)
    ]


def _restore(source, path):
    stats = save_snapshot(path, source)
    assert stats["matrices"] > 0
    restored, info = load_session(path)
    assert info["matrices"] == stats["matrices"]
    assert info["skipped"] == 0
    return restored


def _assert_parity_after_rebind(database, handles, restored):
    """Every spec, every query: re-bound ranking == original ranking."""
    reference = _rankings(database, handles)
    patterns = [handle.patterns for handle in handles]
    for handle in handles:
        handle.rebind(restored)
        assert handle.session is restored
    assert [handle.patterns for handle in handles] == patterns
    rebound = _rankings(database, handles)
    for (name, _options), ours, theirs in zip(SPECS, reference, rebound):
        # Bitwise, not approximately: the restored engine carries the
        # very buffers the original computed, so scores must be equal
        # as floats, not merely close.
        assert theirs == ours, (
            "algorithm {!r}: restored engine diverged from the "
            "in-process engine".format(name)
        )
    assert restored.cache_info()["misses"] == 0, (
        "re-binding recomputed matrices the restored state should carry"
    )


def test_specs_cover_every_registered_algorithm():
    assert {name for name, _ in SPECS} == set(available_algorithms())


def test_attached_engine_ranks_identically_for_all_algorithms(tmp_path):
    database = _tiny_dblp(0)
    handles = _prepare_all(SimilaritySession(database))
    # Saved after warming: the caches ride along.
    restored = _restore(handles[0].session, str(tmp_path / "state.npz"))
    assert restored.database.same_content(database)
    _assert_parity_after_rebind(database, handles, restored)


def test_attached_engine_ranks_identically_after_incremental_republish(
    tmp_path,
):
    service = SimilarityService(_tiny_dblp(1))
    handles = _prepare_all(service)
    papers = sorted(service.database.nodes_of_type("paper"))
    procs = sorted(service.database.nodes_of_type("proc"))
    version = service.apply(
        edges_added=[(papers[0], "p-in", procs[-1])], incremental=True
    )
    assert version == 2
    assert service.delta_stats["last_path"] == "incremental"

    # The service's handles are live (delta-maintained); the restored
    # engine is rebuilt from the *post-apply* state.
    restored = _restore(service, str(tmp_path / "state.npz"))
    assert restored.database.same_content(service.database)
    _assert_parity_after_rebind(service.database, handles, restored)
