"""Exhaustive search correctness, symmetry reduction, census plumbing."""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import permutations

import networkx as nx
import pytest
from test_canonical_form import to_nx
from test_planarity import scrambled

from cyclepack.constructions import embedding_from_red_edges, two_distinct_embeddings
from cyclepack.embedding import CycleType, Embedding, make_sum, realize
from cyclepack.fixtures import load_fixture
from cyclepack.graph import Permutation, apply_permutation, build_graph, connected_components
from cyclepack.invariants import canonical_form
from cyclepack import fixtures, invariants, oracle
from cyclepack.oracle import (
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
    satisfies,
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


def test_reduced_mode_visits_the_least_packing_of_each_image_edge_set():
    """The reduced-mode contract of the oracle docstring, leaf by leaf: the
    reduced leaves are the first full-search leaf of each image edge set,
    in order, and each is the packing embedding_from_red_edges builds."""
    for lengths in ALL_TYPES_TO_7 + [(3, 5), (4, 4), (8,)]:
        ct = CycleType(lengths)
        g = realize(ct)
        first_of_each = {}

        def visit(e):
            first_of_each.setdefault(e.red_graph(), e)

        enumerate_embeddings(g, visit=visit)
        reduced = []
        enumerate_embeddings(g, visit=reduced.append, reduced=True)
        assert reduced == list(first_of_each.values()), lengths
        for e in reduced:
            assert e.perm == embedding_from_red_edges(ct, e.red_graph()).perm, (lengths, e.perm)


def classes_by_full_search(g) -> tuple[list, int]:
    """The class search's independent reference: the full search, keeping
    the first leaf of each sum's canonical form, and its leaf count."""
    first = {}

    def visit(e):
        first.setdefault(canonical_form(make_sum(e).sum), e)

    out = enumerate_embeddings(g, visit=visit)
    return list(first.values()), out.leaves


@pytest.mark.parametrize("lengths", ALL_TYPES_TO_7, ids=lambda t: CycleType(t).render())
def test_reduced_mode_keeps_every_witness_and_first_hit(lengths):
    """Reduced mode changes the leaf count but never an answer."""
    ct = CycleType(lengths)
    g = realize(ct)
    witnesses, full_leaves = classes_by_full_search(g)
    # a class_limit above the class count exhausts the search
    reduced = enumerate_embeddings(g, SearchConstraints(class_limit=len(witnesses) + 1), reduced=True)
    assert reduced.exhausted
    assert reduced.leaves * ct.automorphism_count() == full_leaves
    assert reduced.classes == tuple(witnesses)
    for name in ("require_planar", "require_k4", "require_connected"):
        for want in (True, False):
            constraints = SearchConstraints(**{name: want})
            hit = find_embedding(g, constraints)
            assert find_embedding(g, constraints, reduced=True) == hit, (name, want)


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


def test_planar_filter_hits_the_first_planar_leaf():
    # the filter accepts a planar sum on its checked rotation system alone,
    # so its first hit must be the first reduced leaf networkx calls planar
    misses = 0
    for ct in census_types(10):
        if ct.lengths in oracle.NOT_EMBEDDABLE_TYPES:
            continue
        g = realize(ct)
        first = []

        def visit(e):
            if nx.check_planarity(to_nx(make_sum(e).sum))[0]:
                first.append(e.perm)
                return False
            return True

        enumerate_embeddings(g, visit=visit, reduced=True)
        hit = find_embedding(g, SearchConstraints(require_planar=True), reduced=True)
        assert (hit.perm if hit else None) == (first[0] if first else None), ct
        misses += not first
    assert misses > 0


def test_planar_declaration_needs_a_verified_rotation_system(monkeypatch):
    # a rotation system that fails its check is an error under either
    # declaration, not a fallback, and a non-planar sum is still accepted
    # on its witness
    planar = make_sum(load_fixture("c3c6-planar")).sum
    nonplanar = make_sum(load_fixture("c3c6-nonplanar")).sum
    g = realize(CycleType((3, 6)))
    first_nonplanar = find_embedding(g, SearchConstraints(require_planar=False), reduced=True)
    monkeypatch.setattr(invariants, "_rotation_system", scrambled)
    for declared in ({"planar": True}, {"planar": False}):
        with pytest.raises(RuntimeError, match="fails the face count"):
            satisfies(planar, declared)
    assert satisfies(nonplanar, {"planar": False})
    with pytest.raises(RuntimeError, match="fails the face count"):
        find_embedding(g, SearchConstraints(require_planar=True), reduced=True)
    hit = find_embedding(g, SearchConstraints(require_planar=False), reduced=True)
    assert hit.perm == first_nonplanar.perm


def test_class_limit_keys_and_stops_the_class_search(monkeypatch):
    g = realize(CycleType((7,)))
    full = enumerate_embeddings(g, SearchConstraints(class_limit=3), reduced=True)
    assert len(full.classes) == 2 and full.exhausted
    capped = enumerate_embeddings(g, SearchConstraints(class_limit=1), reduced=True)
    assert capped.classes == full.classes[:1] and not capped.exhausted
    assert all(isinstance(e, Embedding) for e in full.classes)
    # without a class_limit no leaf is keyed
    monkeypatch.setattr(oracle, "canonical_form", lambda s: pytest.fail("a leaf was keyed"))
    plain = enumerate_embeddings(g, reduced=True)
    assert plain.exhausted and plain.classes == ()


def test_classify_by_theorem_table():
    assert classify_by_theorem(CycleType((3,))) == Verdict.NOT_EMBEDDABLE
    assert classify_by_theorem(CycleType((3, 3))) == Verdict.NOT_EMBEDDABLE
    assert classify_by_theorem(CycleType((3, 5))) == Verdict.UNIQUE
    assert classify_by_theorem(CycleType((3, 3, 3, 3))) == Verdict.UNIQUE
    assert classify_by_theorem(CycleType((7,))) == Verdict.MULTIPLE
    assert classify_by_theorem(CycleType((3, 3, 3, 3, 3))) == Verdict.MULTIPLE


def test_classify_by_oracle_matches_theorem_small():
    for lengths in ALL_TYPES_TO_7 + [(3, 5), (4, 4), (8,)]:
        ct = CycleType(lengths)
        cls = classify_by_oracle(ct)
        assert cls.verdict == classify_by_theorem(ct), lengths
        assert isinstance(cls, Classification)
        if cls.exhausted:
            assert cls.raw_leaves == cls.reduced_leaves * ct.automorphism_count()


def test_classification_reads_count_and_verdict_from_its_witnesses():
    ct = CycleType((7,))
    w1, w2 = classify_by_oracle(ct).witnesses
    want = [Verdict.NOT_EMBEDDABLE, Verdict.UNIQUE, Verdict.MULTIPLE]
    for count, witnesses in enumerate([(), (w1,), (w1, w2)]):
        cls = Classification(ct, witnesses, exhausted=False, reduced_leaves=5)
        assert (cls.class_count, cls.verdict, cls.raw_leaves) == (count, want[count], None)
    assert Classification(ct, (w1, w2), exhausted=True, reduced_leaves=5).raw_leaves == 5 * 14


def test_census_row_agreement_cannot_be_set():
    row = census(3).rows[0]
    assert row.agree and not replace(row, oracle=Verdict.UNIQUE).agree
    with pytest.raises(TypeError):
        replace(row, agree=False)
    assert oracle.CensusReport(3, (replace(row, oracle=Verdict.UNIQUE),)).disagreements == 1


def by_total(types: list[CycleType], n: int) -> list[tuple[int, ...]]:
    return [ct.lengths for ct in types if ct.total == n]


def test_census_types_lists_partitions_into_parts_of_at_least_3():
    types = census_types(13)
    assert by_total(types, 3) == [(3,)]
    assert by_total(types, 6) == [(3, 3), (6,)]
    assert by_total(types, 7) == [(3, 4), (7,)]
    assert by_total(types, 12) == [
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
    assert [ct.total for ct in types] == sorted(ct.total for ct in types)
    for parts in by_total(types, 13):
        assert sum(parts) == 13 and min(parts) >= 3
    assert len(set(types)) == len(types)


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
    serial = census(8)
    parallel = census(8, jobs=2)

    def untimed(rep):
        return [replace(r, seconds=0.0) for r in rep.rows]

    assert len(serial.rows) == 10
    assert untimed(serial) == untimed(parallel)


def test_census_jobs_bounded(monkeypatch):
    with pytest.raises(ValueError):
        census(5, jobs=0)
    with pytest.raises(ValueError):
        census(5, jobs=-3)
    for jobs in (1.5, True, "2"):
        with pytest.raises(ValueError, match=f"jobs must be an int, got {jobs!r}"):
            census(5, jobs=jobs)
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

    def classify(ct):
        if ct.render() == rendered:
            raise ValueError("deliberate failure")
        return real(ct)

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
    # the pool pickles _census_row by name, so the patch goes one call deeper
    real = oracle.classify_by_oracle
    parent = os.getpid()

    def classify(ct):
        if ct.render() == "C5" and os.getpid() != parent:
            time.sleep(0.2)  # let the other rows report first
            os._exit(3)
        return real(ct)

    monkeypatch.setattr(oracle, "classify_by_oracle", classify)
    with pytest.raises(RuntimeError, match=r"census row C5 failed: a worker process died") as info:
        census(5, jobs=2)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


def test_soft_limits(monkeypatch):
    monkeypatch.delenv("CYCLEPACK_ALLOW_LARGE", raising=False)
    with pytest.raises(ValueError):
        enumerate_embeddings(realize(CycleType((SOFT_VERTEX_LIMIT + 1,))))
    # oracle classification and the census are held to the canonical-form limit instead
    limit = invariants._CANON_MAX
    with pytest.raises(ValueError, match=f"n <= {limit}"):
        classify_by_oracle(CycleType((limit + 1,)))
    with pytest.raises(ValueError, match=f"between 3 and {limit}"):
        census(limit + 1)
    large = realize(CycleType((SOFT_VERTEX_LIMIT + 1,)))
    # a filter may reject every leaf, so a filtered first-hit search can exhaust too
    for filtered in (SearchConstraints(require_planar=True), SearchConstraints(require_connected=True)):
        with pytest.raises(ValueError, match="filtered search.*CYCLEPACK_ALLOW_LARGE"):
            find_embedding(large, filtered)
    monkeypatch.setenv("CYCLEPACK_ALLOW_LARGE", "1")
    out = enumerate_embeddings(
        realize(CycleType((SOFT_VERTEX_LIMIT + 1,))),
        SearchConstraints(limit=1),
    )
    assert out.visited == 1
    assert find_embedding(large, SearchConstraints(require_connected=True)) is not None


@pytest.mark.parametrize("value, lifted", [("0", False), ("", False), ("1", True)])
def test_only_allow_large_1_lifts_the_soft_limit(monkeypatch, value, lifted):
    monkeypatch.setenv("CYCLEPACK_ALLOW_LARGE", value)
    large = realize(CycleType((SOFT_VERTEX_LIMIT + 1,)))
    connected = SearchConstraints(require_connected=True)
    if lifted:
        assert find_embedding(large, connected) is not None
    else:
        with pytest.raises(ValueError, match="soft limit"):
            find_embedding(large, connected)


def test_oracle_classifies_to_the_canonical_limit_without_override(monkeypatch):
    monkeypatch.delenv("CYCLEPACK_ALLOW_LARGE", raising=False)
    limit = invariants._CANON_MAX
    for lengths in ((limit,), (3, limit - 3)):
        cls = classify_by_oracle(CycleType(lengths))
        assert (cls.verdict, cls.class_count, cls.exhausted) == (Verdict.MULTIPLE, 2, False), lengths


@pytest.mark.parametrize("n_max", [2, -4])
def test_census_below_3_is_refused_not_an_empty_agreement(n_max):
    with pytest.raises(ValueError, match=f"between 3 and {invariants._CANON_MAX}, got {n_max}"):
        census(n_max)


@pytest.mark.parametrize("n_max", [5.5, True, "5"])
def test_census_non_int_n_max_is_refused_before_any_row(monkeypatch, n_max):
    monkeypatch.setattr(oracle, "classify_by_oracle", lambda ct: pytest.fail("a census row ran"))
    with pytest.raises(ValueError, match=f"n_max must be an int, got {n_max!r}"):
        census(n_max)


def test_census_classifies_each_row_through_the_module_global(monkeypatch):
    # the benchmark harness wraps oracle.classify_by_oracle to capture each
    # row's witnesses, so the census must call that global with the type alone
    calls = []
    real = oracle.classify_by_oracle

    def classify(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "classify_by_oracle", classify)
    rep = census(5)
    assert calls == [((row.cycle_type,), {}) for row in rep.rows]
    assert len(calls) == 3


def test_every_search_calls_the_enumerator_through_its_module_global(monkeypatch):
    # the benchmark's tracer puts a wrapper in place of enumerate_embeddings
    # under every name that refers to it in a loaded cyclepack module, and
    # reads leaves, visited and len(classes) from each return
    outcomes = []
    real = oracle.enumerate_embeddings

    def traced(*args, **kwargs):
        out = real(*args, **kwargs)
        outcomes.append((out.leaves, out.visited, len(out.classes)))
        return out

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name == "cyclepack" or name.startswith("cyclepack."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, traced)
                    patched.add(name)
    assert {"cyclepack.oracle", "cyclepack.fixtures"} <= patched

    def calls(run) -> list:
        before = len(outcomes)
        run()
        return outcomes[before:]

    c7 = CycleType((7,))
    classified = calls(lambda: classify_by_oracle(c7))
    assert len(classified) == 1 and classified[0][2] == 2
    searches = (
        lambda: find_embedding(realize(CycleType((3, 6))), SearchConstraints(require_planar=True), reduced=True),
        lambda: fixtures.search_fixture("c3c6-planar"),
        lambda: two_distinct_embeddings(c7),
    )
    for run in searches:
        assert calls(run)


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
    # each pair also differs in a later invariant, which pins the order
    two_k4 = build_graph(8, [(a + o, b + o) for o in (0, 4) for a in range(4) for b in range(a + 1, 4)])
    assert first_distinguishing_invariant(two_k4, realize(CycleType((8,)))) == ("k4", True, False)
    k33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    squares = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
    assert first_distinguishing_invariant(k33, squares) == ("cut-vertex", False, True)
    fan = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert first_distinguishing_invariant(fan, triangles) == ("p4-neighborhood", True, False)


def test_declared_values_must_be_true_or_false():
    g = realize(CycleType((3, 6)))
    with pytest.raises(ValueError, match="'planar' must be declared True or False, got 'no'"):
        satisfies(g, {"planar": "no"})
    with pytest.raises(ValueError, match="'k4' must be declared True or False, got 'yes'"):
        find_embedding(g, SearchConstraints(require_k4="yes"))
    # refused when built, so also where the search reaches no leaf
    with pytest.raises(ValueError, match="'k4' must be declared True or False, got 'yes'"):
        find_embedding(realize(CycleType((3, 3))), SearchConstraints(require_k4="yes"))
    with pytest.raises(ValueError, match="cannot be declared"):
        satisfies(g, {"triangle-max": 3})


def test_stop_rules_below_one_are_refused():
    g = realize(CycleType((3, 6)))
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"limit must be at least 1, got {bad}"):
            SearchConstraints(limit=bad)
        with pytest.raises(ValueError, match=f"class_limit must be at least 1, got {bad}"):
            SearchConstraints(class_limit=bad)
    # a stop rule is an int: a float, a bool or a string is refused as well
    for name in ("limit", "class_limit"):
        for bad in (1.5, True, "2"):
            with pytest.raises(ValueError, match=f"{name} must be an int, got {bad!r}"):
                SearchConstraints(**{name: bad})
    assert enumerate_embeddings(g, SearchConstraints(limit=1)).visited == 1
    assert len(enumerate_embeddings(g, SearchConstraints(class_limit=1)).classes) == 1
