"""Differential tests of the pruned canonical form.

The references are the unpruned search it replaced (kept here only) and
networkx's isomorphism test.  Hypothesis draws the graphs; every test has
a bounded example count and no deadline, so the suite's time stays flat.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepack.embedding import CycleType, make_sum, parse_cycle_type, realize
from cyclepack.graph import Graph, Permutation, apply_permutation, build_graph, complement
from cyclepack.invariants import canonical_form
from cyclepack.oracle import SearchConstraints, enumerate_embeddings


def reference_canonical_form(g: Graph) -> bytes:
    """The unpruned search: refinement from the unit partition, then every
    child of the first non-singleton cell, least leaf encoding wins."""
    n = g.n
    if n == 0:
        return b"\x00"
    adj = g.adj

    def refine(cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        while True:
            cell_mask = []
            for cell in cells:
                m = 0
                for v in cell:
                    m |= 1 << v
                cell_mask.append(m)
            new_cells: list[tuple[int, ...]] = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    sig = tuple((adj[v] & cm).bit_count() for cm in cell_mask)
                    groups.setdefault(sig, []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                    continue
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
            cells = new_cells
            if not changed:
                return cells

    best: list[int | None] = [None]

    def encode(order: list[int]) -> int:
        acc = 0
        for i in range(n):
            vi = order[i]
            row = adj[vi]
            for j in range(i + 1, n):
                acc = (acc << 1) | (row >> order[j] & 1)
        return acc

    def descend(cells: list[tuple[int, ...]]):
        cells = refine(cells)
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                for v in cell:
                    rest = tuple(w for w in cell if w != v)
                    descend(cells[:idx] + [(v,), rest] + cells[idx + 1 :])
                return
        enc = encode([c[0] for c in cells])
        if best[0] is None or enc < best[0]:
            best[0] = enc

    descend([tuple(range(n))])
    nbits = n * (n - 1) // 2
    return bytes([n]) + best[0].to_bytes((nbits + 7) // 8 or 1, "big")


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def relabel(g: Graph, image) -> Graph:
    return apply_permutation(g, Permutation(tuple(image)))


@st.composite
def graphs(draw, max_n: int = 16, n: int | None = None) -> Graph:
    n = draw(st.integers(1, max_n)) if n is None else n
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return build_graph(n, sorted(edges))


@st.composite
def regular_graphs(draw, d: int, n: int | None = None) -> Graph:
    if n is None:
        n = draw(st.integers(d + 1, 16).filter(lambda n: n * d % 2 == 0))
    seed = draw(st.integers(0, 2**32 - 1))
    h = nx.random_regular_graph(d, n, seed=seed)
    return build_graph(n, h.edges())


def relabellings(g: Graph):
    return st.permutations(range(g.n)).map(lambda image: relabel(g, image))


@cache
def leaf_sums(ct: str, limit: int | None) -> tuple[Graph, ...]:
    """Packing sums of the reduced search's leaves, in search order."""
    sums: list[Graph] = []
    enumerate_embeddings(
        realize(parse_cycle_type(ct)),
        SearchConstraints(limit=limit),
        visit=lambda e: sums.append(make_sum(e).sum),
        reduced=True,
    )
    return tuple(sums)


# ------------------------------------------------- invariant under relabelling


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_invariant_under_relabelling(data):
    g = data.draw(graphs())
    assert canonical_form(data.draw(relabellings(g))) == canonical_form(g)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([3, 4]))
def test_form_invariant_under_relabelling_regular(data, d):
    g = data.draw(regular_graphs(d))
    assert canonical_form(data.draw(relabellings(g))) == canonical_form(g)


# ----------------------------------------- equal forms iff networkx isomorphic


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forms_match_networkx_on_4_regular_pairs(data):
    g = data.draw(regular_graphs(4))
    h = data.draw(st.one_of(regular_graphs(4, n=g.n), relabellings(g)))
    assert (canonical_form(g) == canonical_form(h)) == nx.is_isomorphic(to_nx(g), to_nx(h))


@pytest.mark.parametrize(
    "ct, limit",
    [("C3+C3+C3+C3", None), ("C5+C5", None), ("C5+C7", 400)],
)
def test_forms_match_networkx_on_leaf_sums(ct, limit):
    sums = leaf_sums(ct, limit)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def check(data):
        a = data.draw(st.sampled_from(sums))
        b = data.draw(st.sampled_from(sums).flatmap(relabellings))
        assert (canonical_form(a) == canonical_form(b)) == nx.is_isomorphic(to_nx(a), to_nx(b))

    check()


# ------------------------------------------ same relation as the unpruned search


def _toggle_first_pair(g: Graph) -> Graph:
    if g.n < 2:
        return g
    edges = set(g.edges())
    edges ^= {(0, 1)}
    return build_graph(g.n, sorted(edges))


# hypothesis redraws the same few highly symmetric graphs (edgeless,
# complete), on which the unpruned search walks up to 8! leaves
_cached_reference = cache(reference_canonical_form)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_forms_have_reference_equality_relation(data):
    g = data.draw(graphs(8))
    h = data.draw(
        st.one_of(
            relabellings(g),
            relabellings(g).map(_toggle_first_pair),
            graphs(n=g.n),
        )
    )
    same = canonical_form(g) == canonical_form(h)
    assert same == (_cached_reference(g) == _cached_reference(h))


# ------------------------------------------------------- symmetric regressions


SYMMETRIC = {
    "edgeless-12": build_graph(12, []),
    "K12": build_graph(12, list(combinations(range(12), 2))),
    "K6,6": build_graph(12, [(u, 6 + v) for u in range(6) for v in range(6)]),
    "4xC3": realize(CycleType((3, 3, 3, 3))),
    "complement-4xC3": complement(realize(CycleType((3, 3, 3, 3)))),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_graphs_are_keyed(name):
    # the unpruned search walks up to 12! leaves on these
    g = SYMMETRIC[name]
    form = canonical_form(g)
    for shift in (1, 5, 7):
        h = relabel(g, [(shift * v + 3) % g.n for v in range(g.n)])
        assert canonical_form(h) == form
