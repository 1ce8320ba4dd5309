"""Bitset graph kernel: construction, operations, connectivity."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from cyclepack.graph import (
    Permutation,
    apply_permutation,
    biconnected_blocks,
    bits,
    build_graph,
    complement,
    connected_components,
    cut_vertices,
    disjoint_union,
    edge_sum,
)


def test_bits_ascending():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]


def test_build_graph_roundtrip():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.adj[1].bit_count() == 2 and g.adj[3].bit_count() == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def test_graph_equality_and_hash():
    g = build_graph(3, [(0, 1)])
    h = build_graph(3, [(0, 1)])
    assert g == h and hash(g) == hash(h)
    assert g != build_graph(3, [(0, 2)])
    assert g != build_graph(4, [(0, 1)])


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        c = complement(g)
        assert g.edge_count + c.edge_count == n * (n - 1) // 2
        assert complement(c) == g
        for u in range(n):
            for v in range(u + 1, n):
                assert g.has_edge(u, v) != c.has_edge(u, v)


def test_edge_sum_requires_disjoint():
    g = build_graph(3, [(0, 1)])
    h = build_graph(3, [(1, 2)])
    assert edge_sum(g, h).edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        edge_sum(g, g)
    with pytest.raises(ValueError):
        edge_sum(g, build_graph(4, []))


def test_disjoint_union_relabels():
    g = build_graph(2, [(0, 1)])
    h = build_graph(3, [(0, 2)])
    u = disjoint_union(g, h)
    assert u.n == 5
    assert u.edges() == [(0, 1), (2, 4)]


def test_permutation_validation_and_inverse():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    # 1.0 and True compare equal to 1, so a check on values alone accepts them
    for image in ((1.0, 0.0, 2.0), (False, 2, 4, True, 3), (0, 1.0, 2), (0, "1")):
        with pytest.raises(ValueError, match="perm entries must be integers, got"):
            Permutation(image)
    p = Permutation((2, 0, 1))
    assert p(0) == 2 and len(p) == 3
    assert p.inverse().image == (1, 2, 0)
    assert p.compose(p.inverse()).image == (0, 1, 2)


def test_compose_order():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    for v in range(3):
        assert p.compose(q)(v) == p(q(v))


def test_apply_permutation_preserves_structure():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        image = list(range(n))
        rng.shuffle(image)
        p = Permutation(tuple(image))
        h = apply_permutation(g, p)
        assert h.edge_count == g.edge_count
        assert sorted(a.bit_count() for a in h.adj) == sorted(a.bit_count() for a in g.adj)
        for u, v in g.edges():
            assert h.has_edge(p(u), p(v))
    with pytest.raises(ValueError):
        apply_permutation(build_graph(3, []), Permutation((0, 1)))


def test_connected_components_order():
    g = build_graph(6, [(3, 4), (0, 5), (1, 2)])
    assert connected_components(g) == [[0, 5], [1, 2], [3, 4]]
    assert connected_components(build_graph(0, [])) == []


def test_cut_vertices():
    # path 0-1-2 plus triangle 3-4-5: path interior is a cut vertex
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    assert len(connected_components(g)) == 2
    assert cut_vertices(g) == {1}
    # two triangles sharing vertex 2
    h = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert cut_vertices(h) == {2}


def test_cut_vertices_match_networkx():
    rng = random.Random(20230425)
    saw_isolated = saw_bridge = False
    for _ in range(600):
        n = rng.randint(0, 12)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        assert cut_vertices(g) == set(nx.articulation_points(ref)), edges
        blocks = sorted(sorted(b) for b in nx.biconnected_components(ref))
        assert sorted(biconnected_blocks(g)) == blocks, edges
        saw_isolated |= any(a == 0 for a in g.adj)
        saw_bridge |= any(True for _ in nx.bridges(ref))
    assert saw_isolated and saw_bridge


def test_graph_repr_mentions_edges():
    g = build_graph(2, [(0, 1)])
    assert "(0, 1)" in repr(g)
