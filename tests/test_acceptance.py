"""Acceptance gate: one test per published claim the package must reproduce.

Each criterion is a separate test so the suite reports one pass/fail
line per claim.  Wall-clock budgets that are part of a criterion are
asserted inside the test.
"""

from __future__ import annotations

import math
import random
import time

import networkx as nx
import pytest

from cyclepack import oracle
from cyclepack.constructions import (
    choose_coprime_shift,
    k4_embedding,
    ladder_extend,
    merge_components,
    rotate_embedding,
    triangle_list_packing,
    two_distinct_embeddings,
)
from cyclepack.embedding import (
    CycleType,
    make_sum,
    realize,
    recognize_two_factor,
)
from cyclepack.fixtures import FIXTURE_SPECS
from cyclepack.graph import complement, connected_components
from cyclepack.invariants import contains_k4, max_triangle_subset
from cyclepack.oracle import (
    NOT_EMBEDDABLE_TYPES,
    UNIQUE_TYPES,
    SearchConstraints,
    Verdict,
    census,
    census_types,
    enumerate_embeddings,
    invariant_value,
)


def sum_graph(e):
    return make_sum(e).sum


def test_criterion_01_non_embeddable_types():
    """C3, C4 and C3+C3 admit zero embeddings; found in under a second."""
    start = time.perf_counter()
    for lengths in [(3,), (4,), (3, 3)]:
        out = enumerate_embeddings(realize(CycleType(lengths)))
        assert out.exhausted
        assert out.leaves == 0, lengths
    assert time.perf_counter() - start < 1.0


def test_criterion_02_uniquely_embeddable_types():
    """The six unique types each admit exactly one sum class (exhausted,
    under two minutes total)."""
    start = time.perf_counter()
    for lengths in sorted(UNIQUE_TYPES):
        # a class_limit above the count, so the search must run to the end
        out = enumerate_embeddings(realize(CycleType(lengths)), SearchConstraints(class_limit=2), reduced=True)
        assert out.exhausted, lengths
        assert len(out.classes) == 1, lengths
    assert time.perf_counter() - start < 120.0


def test_criterion_03_c5_fills_k5_and_c6_leaves_a_matching():
    """Every C5 embedding sums to K5; every C6 embedding's sum complement
    is a perfect matching."""
    g5 = realize(CycleType((5,)))
    seen = [0]

    def check5(e):
        seen[0] += 1
        s = sum_graph(e)
        assert s.edge_count == 10 and all(a.bit_count() == 4 for a in s.adj)
        return True

    assert enumerate_embeddings(g5, visit=check5).exhausted
    assert seen[0] == 10

    g6 = realize(CycleType((6,)))
    seen[0] = 0

    def check6(e):
        seen[0] += 1
        rest = complement(sum_graph(e))
        assert rest.edge_count == 3 and all(a.bit_count() == 1 for a in rest.adj)
        return True

    assert enumerate_embeddings(g6, visit=check6).exhausted
    assert seen[0] > 0


def test_criterion_04_c7_two_classes_with_named_complements():
    """C7 admits at least two sum classes; their complements are C7 and
    C3+C4."""
    out = enumerate_embeddings(realize(CycleType((7,))), SearchConstraints(class_limit=3), reduced=True)
    assert out.exhausted
    assert len(out.classes) >= 2
    complement_types = {recognize_two_factor(complement(sum_graph(e))) for e in out.classes}
    assert CycleType((7,)) in complement_types
    assert CycleType((3, 4)) in complement_types


# census(12) certificates: the first yes/no entry of oracle.INVARIANTS
# that separates a row's two witness sums; None below two classes
CENSUS_12_CERTIFICATES = {
    "C3": None,
    "C4": None,
    "C5": None,
    "C3+C3": None,
    "C6": None,
    "C3+C4": None,
    "C7": "p4-neighborhood: True vs False",
    "C3+C5": None,
    "C4+C4": "k4: True vs False",
    "C8": "canonical only",
    "C3+C3+C3": None,
    "C3+C6": "p4-neighborhood: True vs False",
    "C4+C5": "k4: True vs False",
    "C9": "k4: True vs False",
    "C3+C3+C4": "canonical only",
    "C3+C7": "k4: True vs False",
    "C4+C6": "k4: True vs False",
    "C5+C5": "connected: False vs True",
    "C10": "p4-neighborhood: False vs True",
    "C3+C3+C5": "p4-neighborhood: True vs False",
    "C3+C4+C4": "k4: True vs False",
    "C3+C8": "k4: True vs False",
    "C4+C7": "canonical only",
    "C5+C6": "connected: False vs True",
    "C11": "p4-neighborhood: True vs False",
    "C3+C3+C3+C3": None,
    "C3+C3+C6": "k4: True vs False",
    "C3+C4+C5": "connected: False vs True",
    "C3+C9": "k4: True vs False",
    "C4+C4+C4": "canonical only",
    "C4+C8": "canonical only",
    "C5+C7": "p4-neighborhood: True vs False",
    "C6+C6": "p4-neighborhood: False vs True",
    "C12": "canonical only",
}


def to_networkx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# networkx's answer for every yes/no invariant, independent of cyclepack
NX_YES_NO = {
    "k4": lambda h: max(map(len, nx.find_cliques(h))) >= 4,
    "bipartite": nx.is_bipartite,
    "cut-vertex": lambda h: any(True for _ in nx.articulation_points(h)),
    "p4-neighborhood": lambda h: any(
        nx.is_isomorphic(h.subgraph(h[v]), nx.path_graph(4)) for v in h if h.degree(v) == 4
    ),
    "connected": nx.is_connected,
    "planar": lambda h: nx.check_planarity(h)[0],
}


def test_criterion_05_census_to_12_has_zero_disagreements(monkeypatch):
    """Oracle and closed-form verdicts agree on every cycle type with at
    most 12 vertices; truncation is only ever recorded after two classes
    are in hand.  Each certificate is pinned, and networkx confirms on
    the row's two witness sums that they are not isomorphic and that the
    certificate names the first yes/no invariant, in oracle.INVARIANTS
    order, on which they differ.  two_distinct_embeddings returns a pair
    exactly for the rows the oracle calls multiply embeddable and refuses
    the other nine.  Budget: 30 minutes."""
    witnesses = {}
    classify = oracle.classify_by_oracle

    def capture(ct, **kwargs):
        cls = classify(ct, **kwargs)
        witnesses[ct.render()] = cls.witnesses
        return cls

    monkeypatch.setattr(oracle, "classify_by_oracle", capture)
    start = time.perf_counter()
    rep = census(12)
    elapsed = time.perf_counter() - start
    assert len(rep.rows) == 34
    assert rep.disagreements == 0
    assert {r.cycle_type.render(): r.certificate for r in rep.rows} == CENSUS_12_CERTIFICATES
    yes_no = [name for name, inv in oracle.INVARIANTS.items() if not inv.valued]
    assert sorted(yes_no) == sorted(NX_YES_NO)
    refused = []
    for row in rep.rows:
        assert row.agree, row.cycle_type
        assert row.exhausted or row.class_count >= 2, row.cycle_type
        expected = (
            Verdict.NOT_EMBEDDABLE
            if row.cycle_type.lengths in NOT_EMBEDDABLE_TYPES
            else Verdict.UNIQUE
            if row.cycle_type.lengths in UNIQUE_TYPES
            else Verdict.MULTIPLE
        )
        assert row.oracle == expected, row.cycle_type
        if row.oracle == Verdict.MULTIPLE:
            assert two_distinct_embeddings(row.cycle_type).cycle_type == row.cycle_type
        else:
            refused.append(row.cycle_type)
            with pytest.raises(ValueError):
                two_distinct_embeddings(row.cycle_type)
        if row.certificate is None:
            continue
        h1, h2 = (to_networkx(sum_graph(e)) for e in witnesses[row.cycle_type.render()])
        assert not nx.is_isomorphic(h1, h2), row.cycle_type
        separated = "canonical only"
        for name in yes_no:
            v1, v2 = NX_YES_NO[name](h1), NX_YES_NO[name](h2)
            if v1 != v2:
                separated = f"{name}: {v1} vs {v2}"
                break
        assert row.certificate == separated, row.cycle_type
    assert len(refused) == 9
    assert elapsed < 1800.0


def test_criterion_06_k4_closure_constructions():
    """Removing four consecutive vertices and closing the image yields a
    packing whose sum contains K4: single cycles C8..C14, C4+C7, and
    C3+C3+Cp for p in 7..10."""
    targets = [CycleType((n,)) for n in range(8, 15)]
    targets.append(CycleType((4, 7)))
    targets.extend(CycleType((3, 3, p)) for p in range(7, 11))
    for ct in targets:
        e = k4_embedding(ct)
        assert e.graph == realize(ct)
        assert contains_k4(sum_graph(e)) is not None, ct


def test_criterion_07_rotation_sums_are_k4_free():
    """Shift-2 rotations of odd cycles C7..C15 and prime-complement
    rotations of even cycles C8..C16 produce K4-free sums; the even
    shift satisfies 3 <= r <= n/2 - 1 and gcd(r, n) = 1."""
    for n in range(7, 16, 2):
        e = rotate_embedding(n, 2)
        assert contains_k4(sum_graph(e)) is None, n
    for n in range(8, 17, 2):
        r = choose_coprime_shift(n)
        assert 3 <= r <= n // 2 - 1, n
        assert math.gcd(r, n) == 1, n
        e = rotate_embedding(n, r)
        assert contains_k4(sum_graph(e)) is None, n


def _disconnected_pools(n_max: int, per_type: int, leaf_budget: int):
    pools = {}
    for ct in census_types(n_max):
        if ct.cycle_count < 2 or ct.lengths in NOT_EMBEDDABLE_TYPES:
            continue
        hits = []
        counter = [0]

        def visit(e):
            counter[0] += 1
            if len(connected_components(sum_graph(e))) > 1:
                hits.append(e)
            return len(hits) < per_type and counter[0] < leaf_budget

        enumerate_embeddings(realize(ct), visit=visit, reduced=True)
        if hits:
            pools[ct] = hits
    return pools


def test_criterion_08_merging_disconnected_packings():
    """Twenty randomly chosen disconnected packings (total <= 12) merge to
    a connected sum, losing exactly one component per step and keeping
    the image a 2-factor of the original type throughout."""
    pools = _disconnected_pools(12, per_type=40, leaf_budget=3000)
    assert len(pools) >= 2, "expected several cycle types with disconnected packings"
    rng = random.Random(0xC8)
    types = sorted(pools, key=lambda ct: ct.lengths)
    for _ in range(20):
        ct = rng.choice(types)
        e = rng.choice(pools[ct])
        comps = len(connected_components(sum_graph(e)))
        assert comps > 1
        while comps > 1:
            merged = merge_components(e)
            assert merged.graph == e.graph
            after = len(connected_components(sum_graph(merged)))
            assert after == comps - 1, ct
            assert recognize_two_factor(merged.red_graph()) == ct
            e, comps = merged, after


def test_criterion_09_distinguisher_reproductions():
    """Named pairs of packings separated by a structural invariant:
    bipartite vs not for C4+C4 and C4+C4+C4, planar vs not for C3+C6,
    9-vertex triangle maximum <= 4 vs >= 5 for the two five-triangle
    variants, cut vertex vs 2-connected for C3+C3+C3+C4."""
    start = time.perf_counter()

    for lengths in [(4, 4), (4, 4, 4)]:
        pair = two_distinct_embeddings(CycleType(lengths))
        values = {invariant_value(sum_graph(e), "bipartite") for e in (pair.first, pair.second)}
        assert values == {True, False}, lengths
    assert time.perf_counter() - start < 300.0

    t = time.perf_counter()
    pair = two_distinct_embeddings(CycleType((3, 6)))
    values = {invariant_value(sum_graph(e), "planar") for e in (pair.first, pair.second)}
    assert values == {True, False}
    assert time.perf_counter() - t < 300.0

    t = time.perf_counter()
    low = triangle_list_packing(CycleType((3,) * 5), "A")
    high = triangle_list_packing(CycleType((3,) * 5), "B")
    low_count, _ = max_triangle_subset(sum_graph(low), 9)
    high_count, _ = max_triangle_subset(sum_graph(high), 9)
    assert low_count <= 4 < 5 <= high_count
    assert time.perf_counter() - t < 300.0

    t = time.perf_counter()
    pair = two_distinct_embeddings(CycleType((3, 3, 3, 4)))
    sums = [sum_graph(pair.first), sum_graph(pair.second)]
    assert all(invariant_value(s, "connected") for s in sums)
    values = {invariant_value(s, "cut-vertex") for s in sums}
    assert values == {True, False}
    assert time.perf_counter() - t < 300.0


# the fixtures that two_distinct_embeddings lengthens by ladder extension
LADDER_BASES = (
    "c3c3c7-k4free",
    "c3c3c8-k4free",
    "c3c6-nonplanar",
    "c3c6-planar",
    "c3c7-nonplanar",
    "c3c7-planar",
    "c4c5-nonplanar",
    "c4c5-planar",
    "c4c6-nonplanar",
    "c4c6-planar",
)


def test_criterion_10_ladder_extensions_validate():
    """Every ladder base fixture extends at its three smallest depths with
    all declared invariants intact.  Depths are 1..3 except c4c5-planar,
    which starts at 2 because C4+C7 admits no planar packing at all
    (exhaustively checked), so its depths are 2..4 and depth 1 finds no
    placement."""
    specs = {spec.name: spec for spec in FIXTURE_SPECS}
    for name in LADDER_BASES:
        spec = specs[name]
        least = 2 if name == "c4c5-planar" else 1
        for l in range(least, least + 3):
            e = ladder_extend(name, l)
            lengths = list(spec.cycle_type)
            lengths[-1] += 2 * l
            assert recognize_two_factor(e.graph) == CycleType(tuple(lengths)), (name, l)
            s = sum_graph(e)
            for key, want in sorted(spec.invariants.items()):
                assert invariant_value(s, key) == want, (name, l, key)
    with pytest.raises(ValueError):
        ladder_extend("c4c5-planar", 1)


def test_criterion_11_pruned_search_matches_naive_filtering():
    """For every cycle type on at most 7 vertices the pruned backtracking
    search visits exactly the permutations that brute-force filtering
    accepts."""
    from itertools import permutations

    for ct in census_types(7):
        g = realize(ct)
        naive = {
            image
            for image in permutations(range(g.n))
            if all(not g.has_edge(image[u], image[v]) for u, v in g.edges())
        }
        seen = []
        out = enumerate_embeddings(g, visit=lambda e: seen.append(e.perm.image))
        assert out.exhausted
        assert len(seen) == len(set(seen))
        assert set(seen) == naive, ct
