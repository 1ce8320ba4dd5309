"""Exhaustive search correctness, symmetry reduction, census plumbing."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from itertools import permutations

import pytest

from cyclepack.embedding import CycleType, make_sum, realize
from cyclepack.graph import Permutation, apply_permutation, build_graph, connected_components
from cyclepack import oracle
from cyclepack.oracle import (
    CENSUS_LIMIT,
    SOFT_VERTEX_LIMIT,
    Classification,
    SearchConstraints,
    Verdict,
    census,
    census_types,
    classify_by_oracle,
    classify_by_theorem,
    enumerate_embeddings,
    find_embedding,
    first_distinguishing_invariant,
    invariant_value,
    partitions_with_min_part,
    satisfies,
    sum_classes,
)

ALL_TYPES_TO_7 = [(3,), (4,), (5,), (3, 3), (6,), (3, 4), (7,)]


def naive_embeddings(g) -> set[tuple[int, ...]]:
    out = set()
    for image in permutations(range(g.n)):
        if all(not g.has_edge(image[u], image[v]) for u, v in g.edges()):
            out.add(image)
    return out


def test_pruned_search_equals_naive_filtering():
    for lengths in ALL_TYPES_TO_7:
        g = realize(CycleType(lengths))
        seen = []
        enumerate_embeddings(g, visit=lambda e: seen.append(e.perm.image))
        assert set(seen) == naive_embeddings(g), lengths
        assert len(seen) == len(set(seen))


def test_raw_count_is_reduced_times_automorphisms():
    for lengths in ALL_TYPES_TO_7 + [(3, 5), (4, 4), (8,), (3, 3, 3)]:
        ct = CycleType(lengths)
        g = realize(ct)
        raw = enumerate_embeddings(g).leaves
        red = enumerate_embeddings(g, reduced=True).leaves
        assert raw == red * ct.automorphism_count(), lengths


def test_c5_embedding_counts():
    g = realize(CycleType((5,)))
    assert enumerate_embeddings(g).leaves == 10
    assert enumerate_embeddings(g, reduced=True).leaves == 1


def test_reduced_mode_rejects_non_canonical_graphs():
    g = apply_permutation(realize(CycleType((3, 4))), Permutation((6, 0, 1, 2, 3, 4, 5)))
    with pytest.raises(ValueError):
        enumerate_embeddings(g, reduced=True)
    with pytest.raises(ValueError):
        enumerate_embeddings(build_graph(4, [(0, 1)]), reduced=True)


def test_visit_false_stops_search():
    g = realize(CycleType((7,)))
    seen = []

    def visit(e):
        seen.append(e)
        return len(seen) < 3

    out = enumerate_embeddings(g, visit=visit)
    assert len(seen) == 3
    assert not out.exhausted


def test_find_embedding_is_deterministic_first():
    g = realize(CycleType((5,)))
    e = find_embedding(g)
    f = find_embedding(g)
    assert e is not None and e.perm == f.perm
    assert find_embedding(realize(CycleType((4,)))) is None


def test_constraint_filters():
    g = realize(CycleType((3, 6)))
    planar = find_embedding(g, SearchConstraints(require_planar=True), reduced=True)
    nonplanar = find_embedding(g, SearchConstraints(require_planar=False), reduced=True)
    assert planar is not None and nonplanar is not None
    assert invariant_value(make_sum(planar).sum, "planar")
    assert not invariant_value(make_sum(nonplanar).sum, "planar")
    connected = find_embedding(g, SearchConstraints(require_connected=True), reduced=True)
    assert len(connected_components(make_sum(connected).sum)) == 1


def test_sum_classes_class_limit():
    g = realize(CycleType((7,)))
    full = sum_classes(g)
    assert len(full.classes) == 2 and full.exhausted
    capped = sum_classes(g, class_limit=1)
    assert len(capped.classes) == 1 and not capped.exhausted


def test_classify_by_theorem_table():
    assert classify_by_theorem(CycleType((3,))).verdict == Verdict.NOT_EMBEDDABLE
    assert classify_by_theorem(CycleType((3, 3))).verdict == Verdict.NOT_EMBEDDABLE
    assert classify_by_theorem(CycleType((3, 5))).verdict == Verdict.UNIQUE
    assert classify_by_theorem(CycleType((3, 3, 3, 3))).verdict == Verdict.UNIQUE
    assert classify_by_theorem(CycleType((7,))).verdict == Verdict.MULTIPLE
    assert classify_by_theorem(CycleType((3, 3, 3, 3, 3))).verdict == Verdict.MULTIPLE


def test_classify_by_oracle_matches_theorem_small():
    for lengths in ALL_TYPES_TO_7 + [(3, 5), (4, 4), (8,)]:
        ct = CycleType(lengths)
        cls = classify_by_oracle(ct)
        assert cls.verdict == classify_by_theorem(ct).verdict, lengths
        assert isinstance(cls, Classification)
        if cls.exhausted:
            assert cls.raw_leaves == cls.reduced_leaves * ct.automorphism_count()


def test_partitions_with_min_part():
    assert partitions_with_min_part(3) == [(3,)]
    assert partitions_with_min_part(6) == [(3, 3), (6,)]
    assert partitions_with_min_part(7) == [(3, 4), (7,)]
    assert partitions_with_min_part(12) == [
        (3, 3, 3, 3),
        (3, 3, 6),
        (3, 4, 5),
        (3, 9),
        (4, 4, 4),
        (4, 8),
        (5, 7),
        (6, 6),
        (12,),
    ]
    for parts in partitions_with_min_part(13):
        assert sum(parts) == 13 and min(parts) >= 3
        assert list(parts) == sorted(parts)


def test_census_types_count_to_12():
    assert len(census_types(7)) == 7
    assert len(census_types(12)) == 34


def test_census_to_7_has_no_disagreements():
    rep = census(7)
    assert rep.n_max == 7
    assert len(rep.rows) == 7
    assert rep.disagreements == 0
    by_type = {row.cycle_type.lengths: row for row in rep.rows}
    assert by_type[(3,)].oracle == Verdict.NOT_EMBEDDABLE
    assert by_type[(5,)].oracle == Verdict.UNIQUE
    assert by_type[(7,)].oracle == Verdict.MULTIPLE
    assert by_type[(7,)].certificate is not None


def test_census_jobs_parallel_matches_serial():
    serial = census(6)
    parallel = census(6, jobs=2)
    assert [r.cycle_type for r in serial.rows] == [r.cycle_type for r in parallel.rows]
    assert [r.oracle for r in serial.rows] == [r.oracle for r in parallel.rows]


def test_census_jobs_bounded(monkeypatch):
    with pytest.raises(ValueError):
        census(5, jobs=0)
    with pytest.raises(ValueError):
        census(5, jobs=-3)
    started = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor and runs the rows in-process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    rep = census(5, jobs=10**9)
    assert started == [3]
    assert rep.disagreements == 0 and len(rep.rows) == 3


def fail_row(monkeypatch, rendered: str) -> None:
    """Make the census row of one cycle type raise a ValueError deep inside."""
    real = oracle.classify_by_oracle

    def classify(ct, **kwargs):
        if ct.render() == rendered:
            raise ValueError("deliberate failure")
        return real(ct, **kwargs)

    monkeypatch.setattr(oracle, "classify_by_oracle", classify)


def test_census_row_failure_names_the_type(monkeypatch):
    fail_row(monkeypatch, "C5")
    with pytest.raises(RuntimeError, match=r"census row C5 failed") as info:
        census(5)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched row reaches the workers only through fork",
)
def test_census_row_failure_names_the_type_with_jobs(monkeypatch):
    fail_row(monkeypatch, "C5")
    with pytest.raises(RuntimeError, match=r"census row C5 failed") as info:
        census(5, jobs=2)
    # from a worker the cause is its formatted traceback, not the ValueError
    assert "deliberate failure" in str(info.value.__cause__)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="needs two CPUs, and the patched row reaches the workers only through fork",
)
def test_census_names_the_row_lost_to_a_dead_worker(monkeypatch):
    real = oracle._compute_census_row
    parent = os.getpid()

    def compute(ct):
        if ct.render() == "C5" and os.getpid() != parent:
            time.sleep(0.2)  # let the other rows report first
            os._exit(3)
        return real(ct)

    monkeypatch.setattr(oracle, "_compute_census_row", compute)
    with pytest.raises(RuntimeError, match=r"census row C5 failed: a worker process died") as info:
        census(5, jobs=2)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


def test_soft_limits(monkeypatch):
    monkeypatch.delenv("CYCLEPACK_ALLOW_LARGE", raising=False)
    with pytest.raises(ValueError):
        enumerate_embeddings(realize(CycleType((SOFT_VERTEX_LIMIT + 1,))))
    with pytest.raises(ValueError):
        classify_by_oracle(CycleType((SOFT_VERTEX_LIMIT + 1,)))
    with pytest.raises(ValueError):
        census(CENSUS_LIMIT + 1)
    monkeypatch.setenv("CYCLEPACK_ALLOW_LARGE", "1")
    out = enumerate_embeddings(
        realize(CycleType((SOFT_VERTEX_LIMIT + 1,))),
        SearchConstraints(limit=1),
    )
    assert out.visited == 1


def test_constrained_search_skips_soft_limit():
    # a limit-bounded search on 15 vertices is fine without the override
    g = realize(CycleType((15,)))
    out = enumerate_embeddings(g, SearchConstraints(limit=1))
    assert out.visited == 1


def test_invariant_value_names():
    g = realize(CycleType((3, 4)))
    assert invariant_value(g, "connected") is False
    assert invariant_value(g, "k4") is False
    assert invariant_value(g, "bipartite") is False
    assert invariant_value(g, "planar") is True
    assert invariant_value(g, "cut-vertex") is False
    assert invariant_value(g, "p4-neighborhood") is False
    fan = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    assert invariant_value(fan, "p4-neighborhood") is True
    with pytest.raises(ValueError):
        invariant_value(g, "girth")
    assert satisfies(g, {"planar": True, "connected": False})
    assert not satisfies(g, {"planar": True, "bipartite": True})
    with pytest.raises(ValueError):
        satisfies(g, {"girth": True})


def test_first_distinguishing_invariant():
    g = realize(CycleType((3, 4)))
    h = realize(CycleType((4, 4)))
    name, v1, v2 = first_distinguishing_invariant(g, h)
    assert name == "bipartite" and (v1, v2) == (False, True)
    assert first_distinguishing_invariant(g, g) is None
