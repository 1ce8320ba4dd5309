"""Differential tests of the port-counting Kuratowski witness search.

The reference is the unpruned path packing it replaced, kept here only
and patched into `is_planar` in place of the pruned one.  Pruning must
not change the first witness found, so both must return equal
`PlanarityResult`s; the verdict must also match networkx's planarity
test, and every non-planar witness must be a real subdivision.
"""

from __future__ import annotations

from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical_form import leaf_sums, regular_graphs, to_nx
from test_invariants import check_subdivision_witness

from cyclepack.constructions import ladder_extend
from cyclepack.embedding import make_sum
from cyclepack.graph import Graph, bits, build_graph
from cyclepack.invariants import PlanarityResult, is_planar, proven_planar


def reference_pack_disjoint_paths(g, bmask: int, branch, pairs):
    """The unpruned search: exhaustive backtracking over internally
    disjoint paths, shortest continuations first."""
    branch_mask = 0
    for v in branch:
        branch_mask |= 1 << v
    free0 = bmask & ~branch_mask
    adj = g.adj
    result: list[tuple[int, ...]] = []

    def place(i: int, free: int) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]

        def extend(path: list[int], used: int) -> bool:
            x = path[-1]
            if adj[x] >> b & 1:
                result.append(tuple(path + [b]))
                if place(i + 1, free & ~used):
                    return True
                result.pop()
            for y in bits(adj[x] & free & ~used):
                path.append(y)
                if extend(path, used | (1 << y)):
                    return True
                path.pop()
            return False

        return extend([a], 0)

    if place(0, free0):
        return result
    return None


def reference_is_planar(g: Graph) -> PlanarityResult:
    with mock.patch("cyclepack.invariants._pack_disjoint_paths", reference_pack_disjoint_paths):
        return is_planar(g)


def check_against_references(g: Graph) -> None:
    res = is_planar(g)
    assert res == reference_is_planar(g)
    # the planar filter accepts on proven_planar alone, so it must prove every planar graph
    assert proven_planar(g) == res.planar
    assert res.planar == nx.check_planarity(to_nx(g))[0]
    if not res.planar:
        check_subdivision_witness(g, res)


@st.composite
def gnp_graphs(draw) -> Graph:
    n = draw(st.integers(5, 9))
    p = draw(st.sampled_from([0.4, 0.55, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    return build_graph(n, nx.gnp_random_graph(n, p, seed=seed).edges())


@settings(max_examples=150, deadline=None)
@given(gnp_graphs())
def test_same_result_as_unpruned_search_on_gnp(g):
    check_against_references(g)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([3, 4]))
def test_same_result_as_unpruned_search_on_regular(data, d):
    n = data.draw(st.integers(d + 2, 12).filter(lambda n: n * d % 2 == 0))
    check_against_references(data.draw(regular_graphs(d, n=n)))


@pytest.mark.parametrize("ct", ["C3+C3+C4", "C5+C5"])
def test_same_result_as_unpruned_search_on_leaf_sums(ct):
    for g in leaf_sums(ct, None):
        check_against_references(g)


# ------------------------------------------------------- large ladder sums


@pytest.mark.parametrize("l, n", [(4, 17), (5, 19)])
def test_large_nonplanar_ladder_sum_has_k5_witness(l, n):
    # the unpruned search takes seconds to half a minute on these sums
    g = make_sum(ladder_extend("c3c6-nonplanar", l)).sum
    assert g.n == n
    res = is_planar(g)
    assert not res.planar and res.witness_kind == "K5"
    check_subdivision_witness(g, res)
    assert not nx.check_planarity(to_nx(g))[0]
