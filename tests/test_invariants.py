"""Canonical forms, K4 and bipartiteness witnesses, certified planarity."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from cyclepack.embedding import CycleType, realize
from cyclepack.graph import Graph, Permutation, apply_permutation, build_graph, complement
from cyclepack.invariants import (
    are_isomorphic,
    canonical_form,
    contains_k4,
    has_p4_neighborhood_vertex,
    is_bipartite,
    is_planar,
    max_triangle_subset,
    proven_planar,
)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def shuffled(rng: random.Random, g: Graph) -> Graph:
    image = list(range(g.n))
    rng.shuffle(image)
    return apply_permutation(g, Permutation(tuple(image)))


def complete(n: int) -> Graph:
    return build_graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# ------------------------------------------------------------ canonical form


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(101)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 9))
        assert canonical_form(shuffled(rng, g)) == canonical_form(g)


def test_canonical_form_separates_all_graphs_up_to_n5():
    # exhaustive: two graphs on <= 5 vertices share a form iff isomorphic
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        by_form: dict[bytes, Graph] = {}
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            cf = canonical_form(g)
            if cf in by_form:
                assert _brute_isomorphic(by_form[cf], g)
            else:
                for other in by_form.values():
                    assert not _brute_isomorphic(other, g)
                by_form[cf] = g
        # OEIS A000088: number of graphs on n unlabelled vertices
        assert len(by_form) == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}[n]


def _brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    for image in permutations(range(g.n)):
        if all(h.has_edge(image[u], image[v]) for u, v in g.edges()):
            return True
    return False


def test_are_isomorphic_basic():
    assert are_isomorphic(realize(CycleType((3, 4))), realize(CycleType((4, 3))))
    assert not are_isomorphic(realize(CycleType((6,))), realize(CycleType((3, 3))))
    assert not are_isomorphic(complete(4), build_graph(4, [(0, 1)]))


def test_canonical_form_size_cap():
    with pytest.raises(ValueError):
        canonical_form(build_graph(25, []))


# ------------------------------------------------------------------ K4


def test_contains_k4_matches_brute_force():
    rng = random.Random(202)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(4, 10), p=0.5)
        quad = contains_k4(g)
        brute = [
            q
            for q in combinations(range(g.n), 4)
            if all(g.has_edge(u, v) for u, v in combinations(q, 2))
        ]
        if quad is None:
            assert not brute
        else:
            assert all(g.has_edge(u, v) for u, v in combinations(quad, 2))


def test_contains_k4_known():
    assert contains_k4(complete(4)) == (0, 1, 2, 3)
    assert contains_k4(realize(CycleType((7,)))) is None


# ------------------------------------------------------------ bipartiteness


def test_is_bipartite_witnesses():
    rng = random.Random(303)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 10))
        res = is_bipartite(g)
        if res.bipartite:
            a, b = res.sides
            side = {}
            for v in a:
                side[v] = 0
            for v in b:
                side[v] = 1
            assert sorted(side) == list(range(g.n))
            for u, v in g.edges():
                assert side[u] != side[v]
        else:
            cyc = res.odd_cycle
            assert len(cyc) % 2 == 1 and len(cyc) >= 3
            assert len(set(cyc)) == len(cyc)
            for i, u in enumerate(cyc):
                assert g.has_edge(u, cyc[(i + 1) % len(cyc)])


def test_is_bipartite_known():
    assert is_bipartite(complete_bipartite(3, 3)).bipartite
    assert not is_bipartite(realize(CycleType((5,)))).bipartite
    assert is_bipartite(realize(CycleType((4, 6)))).bipartite


# --------------------------------------------------------------- planarity


def check_subdivision_witness(g: Graph, res) -> None:
    """A claimed K5/K3,3 subdivision must be fully realized by edge paths."""
    assert res.witness_kind in ("K5", "K3,3")
    branch = res.branch_vertices
    assert len(set(branch)) == len(branch) == (5 if res.witness_kind == "K5" else 6)
    if res.witness_kind == "K5":
        wanted = {frozenset(p) for p in combinations(branch, 2)}
    else:
        a, b = branch[:3], branch[3:]
        wanted = {frozenset((u, v)) for u in a for v in b}
    seen_ends = set()
    interior_used = set()
    for path in res.paths:
        assert len(path) >= 2
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)
        ends = frozenset((path[0], path[-1]))
        assert ends in wanted
        seen_ends.add(ends)
        inner = set(path[1:-1])
        assert not inner & set(branch)
        assert not inner & interior_used
        interior_used |= inner
    assert seen_ends == wanted


def test_planarity_known_graphs():
    assert is_planar(complete(4)).planar
    assert is_planar(realize(CycleType((3, 4, 5)))).planar
    res5 = is_planar(complete(5))
    assert not res5.planar and res5.witness_kind == "K5"
    check_subdivision_witness(complete(5), res5)
    res33 = is_planar(complete_bipartite(3, 3))
    assert not res33.planar and res33.witness_kind == "K3,3"
    check_subdivision_witness(complete_bipartite(3, 3), res33)


def test_planarity_petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    g = build_graph(10, outer + spokes + inner)
    res = is_planar(g)
    assert not res.planar and res.witness_kind == "K3,3"
    check_subdivision_witness(g, res)


def test_planarity_disconnected_blocks():
    # K3,3 hidden next to isolated vertices; a global edge-count screen
    # (9 edges <= 10 vertices) would wrongly accept this graph
    g = build_graph(10, [(u, 3 + v) for u in range(3) for v in range(3)])
    res = is_planar(g)
    assert not res.planar
    check_subdivision_witness(g, res)


def test_planarity_edge_subdivision_preserved():
    # subdividing K5's edge (0,1) keeps it non-planar
    edges = [(u, v) for u, v in combinations(range(5), 2) if (u, v) != (0, 1)]
    edges += [(0, 5), (1, 5)]
    g = build_graph(6, edges)
    res = is_planar(g)
    assert not res.planar and res.witness_kind == "K5"
    check_subdivision_witness(g, res)


def test_planarity_matches_edge_bound_on_random_graphs():
    # sanity screen: planar verdicts must respect |E| <= 3n-6 per component
    rng = random.Random(404)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(5, 9), p=0.6)
        res = is_planar(g)
        if not res.planar:
            check_subdivision_witness(g, res)
        elif g.n >= 3:
            assert g.edge_count <= 3 * g.n - 6


def test_proven_planar_is_one_sided():
    import networkx as nx

    assert proven_planar(complete(5)) is False
    assert proven_planar(complete(4)) is True
    rng = random.Random(505)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(5, 11), p=0.45)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        proven = proven_planar(g)
        # networkx's proposal always verifies, so the proof misses no planar graph
        assert proven == nx.check_planarity(h)[0]
        if proven:
            assert is_planar(g).planar


def test_planar_sums_from_packings():
    # C5's packing sum is K5: non-planar with a direct witness
    g = realize(CycleType((5,)))
    from cyclepack.embedding import Embedding, make_sum

    ps = make_sum(Embedding(g, Permutation((0, 2, 4, 1, 3))))
    res = is_planar(ps.sum)
    assert not res.planar and res.witness_kind == "K5"


# ------------------------------------------------- small structural helpers


def test_has_p4_neighborhood_vertex():
    # wheel-like: vertex 0 sees a path 1-2-3-4
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    assert has_p4_neighborhood_vertex(g) == 0
    assert has_p4_neighborhood_vertex(realize(CycleType((6,)))) is None
    # degree-4 vertex whose neighbourhood is a triangle plus isolated vertex
    h = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (1, 3)])
    assert has_p4_neighborhood_vertex(h) is None


def test_max_triangle_subset():
    g = complete(5)
    count, witness = max_triangle_subset(g, 4)
    assert count == 4 and len(witness) == 4
    count, _ = max_triangle_subset(realize(CycleType((3, 3))), 5)
    assert count == 1
    with pytest.raises(ValueError):
        max_triangle_subset(g, 6)


def test_complement_of_sum_identity():
    # packing C6 leaves exactly a perfect matching uncovered
    g = realize(CycleType((6,)))
    from cyclepack.embedding import Embedding, make_sum
    from cyclepack.oracle import find_embedding

    e = find_embedding(g)
    rest = complement(make_sum(e).sum)
    assert rest.edge_count == 3
    assert all(rest.adj[v].bit_count() == 1 for v in range(6))
