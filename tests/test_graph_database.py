"""Unit tests for repro.graph.database."""

import random
import sys
import threading
import time

import pytest

from repro.exceptions import (
    NodeTypeConflictError,
    ReproError,
    UnknownEdgeError,
    UnknownLabelError,
    UnknownNodeError,
)
from repro.graph import GraphDatabase, Schema


@pytest.fixture
def db():
    return GraphDatabase(Schema(["a", "b"]))


def test_add_edge_auto_adds_nodes(db):
    db.add_edge(1, "a", 2)
    assert db.has_node(1)
    assert db.has_node(2)
    assert db.has_edge(1, "a", 2)


def test_edge_set_semantics(db):
    db.add_edge(1, "a", 2)
    db.add_edge(1, "a", 2)
    assert db.num_edges() == 1


def test_parallel_edges_with_distinct_labels(db):
    db.add_edge(1, "a", 2)
    db.add_edge(1, "b", 2)
    assert db.num_edges() == 2


def test_unknown_label_rejected(db):
    with pytest.raises(UnknownLabelError):
        db.add_edge(1, "z", 2)


def test_add_edges_bulk(db):
    db.add_edges([(1, "a", 2), (2, "b", 3)])
    assert db.num_edges() == 2


def test_remove_edge(db):
    db.add_edge(1, "a", 2)
    db.remove_edge(1, "a", 2)
    assert not db.has_edge(1, "a", 2)
    assert db.num_edges() == 0
    # nodes survive edge removal
    assert db.has_node(1)


def test_remove_missing_edge_raises(db):
    with pytest.raises(KeyError):
        db.remove_edge(1, "a", 2)


def test_remove_missing_edge_raises_library_error(db):
    # UnknownEdgeError joins the library hierarchy but stays a KeyError
    # for callers that guarded the old bare exception.
    with pytest.raises(UnknownEdgeError) as info:
        db.remove_edge(1, "a", 2)
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, KeyError)
    assert info.value.edge == (1, "a", 2)
    assert "unknown edge" in str(info.value)


def test_add_node_type_conflict_raises(db):
    db.add_node(1, "kind")
    db.add_node(1, "kind")  # same type: idempotent
    db.add_node(1)          # None: keeps the type
    assert db.node_type(1) == "kind"
    db.add_node(2)
    db.add_node(2, "late")  # None -> type upgrade is allowed
    assert db.node_type(2) == "late"
    with pytest.raises(NodeTypeConflictError) as info:
        db.add_node(1, "other")
    assert isinstance(info.value, ReproError)
    assert db.node_type(1) == "kind"


def test_successors_predecessors(db):
    db.add_edges([(1, "a", 2), (1, "a", 3), (4, "a", 2)])
    assert db.successors(1, "a") == {2, 3}
    assert db.predecessors(2, "a") == {1, 4}
    assert db.successors(2, "a") == set()


def test_degree_counts_both_directions_all_labels(db):
    db.add_edges([(1, "a", 2), (2, "b", 1), (1, "b", 3)])
    assert db.degree(1) == 3
    assert db.degree(2) == 2
    assert db.degree(3) == 1


def test_degree_of_unknown_node_raises(db):
    with pytest.raises(UnknownNodeError):
        db.degree(99)


def test_node_types(db):
    db.add_node(1, "paper")
    assert db.node_type(1) == "paper"
    assert db.nodes_of_type("paper") == [1]


def test_add_node_idempotent_keeps_type(db):
    db.add_node(1, "paper")
    db.add_node(1)
    assert db.node_type(1) == "paper"


def test_add_node_fills_in_missing_type(db):
    db.add_node(1)
    db.add_node(1, "paper")
    assert db.node_type(1) == "paper"


def test_node_type_unknown_node(db):
    with pytest.raises(UnknownNodeError):
        db.node_type(42)


def test_edges_iteration_filtered(db):
    db.add_edges([(1, "a", 2), (2, "b", 3)])
    assert set(db.edges("a")) == {(1, "a", 2)}
    assert set(db.edges()) == {(1, "a", 2), (2, "b", 3)}


def test_used_labels(db):
    db.add_edge(1, "a", 2)
    assert db.used_labels() == {"a"}


def test_used_labels_after_removal(db):
    db.add_edge(1, "a", 2)
    db.remove_edge(1, "a", 2)
    assert db.used_labels() == set()


def test_label_pairs(db):
    db.add_edges([(1, "a", 2), (3, "a", 4)])
    assert db.label_pairs("a") == {(1, 2), (3, 4)}


def test_label_pairs_unknown_label(db):
    with pytest.raises(UnknownLabelError):
        db.label_pairs("z")


def test_copy_is_deep(db):
    db.add_node(1, "paper")
    db.add_edge(1, "a", 2)
    clone = db.copy()
    clone.add_edge(2, "b", 3)
    assert not db.has_edge(2, "b", 3)
    assert clone.node_type(1) == "paper"


def test_same_content(db):
    db.add_edge(1, "a", 2)
    clone = db.copy()
    assert db.same_content(clone)
    clone.add_edge(2, "a", 1)
    assert not db.same_content(clone)


def test_self_loop_allowed(db):
    db.add_edge(1, "a", 1)
    assert db.has_edge(1, "a", 1)
    assert db.degree(1) == 2


# ----------------------------------------------------------------------
# Bulk construction (the scale-generator path)
# ----------------------------------------------------------------------
def test_add_edges_bulk_matches_add_edge(db):
    pairs = [(1, 2), (1, 3), (2, 3), (1, 2), (3, 3)]
    added = db.add_edges_bulk("a", pairs)
    assert added == 4  # (1, 2) deduplicated by set semantics
    reference = GraphDatabase(Schema(["a", "b"]))
    for source, target in pairs:
        reference.add_edge(source, "a", target)
    assert db.same_content(reference)
    assert db.num_edges() == reference.num_edges()


def test_add_edges_bulk_unknown_label(db):
    with pytest.raises(UnknownLabelError):
        db.add_edges_bulk("nope", [(1, 2)])
    assert db.num_edges() == 0


def test_add_edges_bulk_counts_only_new(db):
    db.add_edge(1, "a", 2)
    assert db.add_edges_bulk("a", [(1, 2), (2, 1)]) == 1
    assert db.num_edges() == 2


def test_adjacency_lists_cover_edges(db):
    db.add_edges([(1, "a", 2), (1, "a", 3), (2, "a", 1), (1, "b", 2)])
    flattened = {
        (source, target)
        for source, targets in db.adjacency_lists("a")
        for target in targets
    }
    assert flattened == {(1, 2), (1, 3), (2, 1)}
    with pytest.raises(UnknownLabelError):
        db.adjacency_lists("nope")


# ----------------------------------------------------------------------
# Reads never write; copy-on-write isolation
# ----------------------------------------------------------------------
def test_reads_and_failed_removals_leave_label_maps_unchanged(db):
    db.add_edge(1, "a", 2)
    assert not db.has_edge(1, "b", 2)
    assert not db.has_edge(1, "zzz", 2)
    assert db.successors(1, "b") == set()
    assert db.predecessors(2, "zzz") == set()
    assert list(db.edges("b")) == []
    assert list(db.adjacency_lists("b")) == []
    with pytest.raises(UnknownEdgeError):
        db.remove_edge(1, "zzz", 2)
    with pytest.raises(UnknownEdgeError):
        db.remove_edge(2, "a", 1)
    # The label maps are internal, but an inserted key is exactly what
    # made a concurrent degree()/used_labels() see the dict change size.
    assert set(db._out) == {"a"}
    assert set(db._in) == {"a"}
    assert db.degree(1) == 1


LABELS = ("a", "b")
TYPES = ("paper", "author")


class _Model:
    """Reference state of one database as plain Python sets and dicts."""

    def __init__(self, nodes=None, edges=None):
        self.nodes = dict(nodes or {})
        self.edges = set(edges or ())

    def copy(self):
        return _Model(self.nodes, self.edges)

    def add_edge(self, source, label, target):
        self.nodes.setdefault(source, None)
        self.nodes.setdefault(target, None)
        self.edges.add((source, label, target))


def _assert_matches(database, model):
    assert {n: database.node_type(n) for n in database.nodes()} == model.nodes
    assert database.edge_set() == model.edges
    assert database.num_edges() == len(model.edges)
    assert database.used_labels() == {label for _, label, _ in model.edges}
    reverse = {
        (source, label, target)
        for target in model.nodes
        for label in LABELS
        for source in database.predecessors(target, label)
    }
    assert reverse == model.edges
    for label in LABELS:
        assert all(targets for _, targets in database.adjacency_lists(label))
    for node in model.nodes:
        assert database.degree(node) == sum(
            (source == node) + (target == node)
            for source, _, target in model.edges
        )


def _random_step(rng, database, model):
    """One random mutation applied to ``database`` and mirrored in ``model``."""
    universe = range(8)
    op = rng.randrange(7)
    if op == 0:
        edge = (rng.choice(universe), rng.choice(LABELS), rng.choice(universe))
        database.add_edge(*edge)
        model.add_edge(*edge)
    elif op == 1 and model.edges:
        # Prefer edges whose row holds one target, so rows empty out.
        edges = sorted(model.edges)
        singles = [
            (s, l, t) for s, l, t in edges
            if sum(1 for e in edges if e[:2] == (s, l)) == 1
        ]
        edge = rng.choice(singles or edges)
        database.remove_edge(*edge)
        model.edges.discard(edge)
    elif op == 2:
        edge = (rng.choice(universe), rng.choice(LABELS), rng.choice(universe))
        if edge not in model.edges:
            with pytest.raises(UnknownEdgeError):
                database.remove_edge(*edge)
    elif op == 3:
        node = rng.choice(range(10))
        node_type = rng.choice(TYPES + (None,))
        existing = model.nodes.get(node)
        if node_type is not None and existing not in (None, node_type):
            with pytest.raises(NodeTypeConflictError):
                database.add_node(node, node_type)
        else:
            database.add_node(node, node_type)
            if node_type is not None or node not in model.nodes:
                model.nodes[node] = node_type
    elif op == 4:
        label = rng.choice(LABELS)
        pairs = [
            (rng.choice(universe), rng.choice(universe))
            for _ in range(rng.randrange(1, 5))
        ]
        fresh = {(s, label, t) for s, t in pairs} - model.edges
        assert database.add_edges_bulk(label, pairs) == len(fresh)
        for source, target in pairs:
            model.add_edge(source, label, target)
    elif op == 5:
        added = [
            (rng.choice(range(10)), rng.choice(LABELS), rng.choice(universe))
            for _ in range(rng.randrange(3))
        ]
        removed = rng.sample(sorted(model.edges), min(len(model.edges), 2))
        database.apply_delta(edges_added=added, edges_removed=removed)
        model.edges.difference_update(removed)
        for edge in added:
            model.add_edge(*edge)
    else:
        # A failing delta: a valid addition beside an absent removal.
        absent = (99, "a", 98)
        with pytest.raises(UnknownEdgeError):
            database.apply_delta(
                edges_added=[(0, "b", 1)], edges_removed=[absent]
            )


@pytest.mark.parametrize("seed", range(6))
def test_copy_on_write_isolation_against_reference_model(seed):
    rng = random.Random(seed)
    original = GraphDatabase(Schema(list(LABELS)))
    original_model = _Model()
    for _ in range(20):
        _random_step(rng, original, original_model)
    clone = original.copy()
    grandchild = clone.copy()
    databases = [original, clone, grandchild]
    models = [original_model, original_model.copy(), original_model.copy()]
    for step in range(300):
        which = rng.randrange(len(databases))
        if step % 37 == 36:
            # Re-share: replace one database by a fresh copy of another,
            # after both have written into objects they own.
            source = rng.randrange(len(databases))
            databases[which] = databases[source].copy()
            models[which] = models[source].copy()
        else:
            _random_step(rng, databases[which], models[which])
        for database, model in zip(databases, models):
            _assert_matches(database, model)


def test_copy_rehomes_onto_another_schema(db):
    db.add_edge(1, "a", 2)
    db.add_edge(2, "b", 3)
    db.remove_edge(2, "b", 3)  # "b" present but unused
    wider = Schema(["a", "c"])
    clone = db.copy(schema=wider)
    assert clone.schema is wider
    assert clone.edge_set() == db.edge_set()
    clone.add_edge(1, "c", 3)
    clone.remove_edge(1, "a", 2)
    with pytest.raises(UnknownLabelError):
        db.add_edge(1, "c", 3)
    assert db.edge_set() == {(1, "a", 2)}
    assert clone.edge_set() == {(1, "c", 3)}
    assert db.num_edges() == clone.num_edges() == 1
    with pytest.raises(UnknownLabelError):
        db.copy(schema=Schema(["b"]))


def test_published_snapshots_stay_fixed_while_forks_write():
    """Readers of a published database never see a later fork's writes.

    The serving pattern under thread stress: a writer publishes
    ``fork = current.copy()`` after mutating the fork, while readers
    re-check whatever snapshot is published against the edge set it
    was published with.
    """
    rng = random.Random(7)
    database = GraphDatabase(Schema(list(LABELS)))
    database.add_edges_bulk(
        "a", [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
    )
    published = [(database, database.edge_set())]
    failures = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            snapshot, expected = published[0]
            try:
                assert snapshot.edge_set() == expected
                assert snapshot.num_edges() == len(expected)
                assert snapshot.used_labels() <= set(LABELS)
                if snapshot.has_node(0):
                    snapshot.degree(0)
            except Exception as error:  # recorded for the main thread
                failures.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        deadline = time.monotonic() + 1.0
        current = database
        while time.monotonic() < deadline and not failures:
            fork = current.copy()
            for _ in range(5):
                edge = (
                    rng.randrange(40), rng.choice(LABELS), rng.randrange(40)
                )
                if fork.has_edge(*edge):
                    fork.remove_edge(*edge)
                else:
                    fork.add_edge(*edge)
            published[0] = (fork, fork.edge_set())
            current = fork
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
