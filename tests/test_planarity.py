"""Differential tests of the planarity trust chain.

networkx proposes a verdict for each block and the package checks it:
a rotation system by a face count, a non-planar block by the K5 or K3,3
subdivision cut out of it.  The reference is the unpruned Kuratowski
search, kept here only, with its own branch-set loop: it must find a
subdivision exactly when `is_planar` says non-planar.  Every non-planar
result must also pass `check_subdivision_witness`, which is separate
from the package's own check.  Patched proposals that lie in either
direction must raise `RuntimeError`, and exit 2 from the CLI.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical_form import leaf_sums, regular_graphs, to_nx
from test_invariants import check_subdivision_witness

from cyclepack import invariants
from cyclepack.cli import main
from cyclepack.constructions import ladder_extend
from cyclepack.embedding import make_sum
from cyclepack.fixtures import load_fixture
from cyclepack.graph import Graph, bits, build_graph
from cyclepack.invariants import canonical_form, is_planar, proven_planar


def reference_branch_sets(g: Graph, block: list[int], bmask: int):
    """(branch vertices, pairs to link) for every K5 branch set of the
    block, then every K3,3 one, each kind in lexicographic order."""
    degree = {v: (g.adj[v] & bmask).bit_count() for v in block}
    for branch in combinations([v for v in block if degree[v] >= 4], 5):
        yield branch, list(combinations(branch, 2))
    cands = [v for v in block if degree[v] >= 3]
    for side_a in combinations(cands, 3):
        rest = [v for v in cands if v not in side_a and v > side_a[0]]
        # side ordering fixed by requiring min(side_a) < min(side_b)
        for side_b in combinations(rest, 3):
            yield side_a + side_b, [(a, b) for a in side_a for b in side_b]


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


def reference_has_subdivision(g: Graph) -> bool:
    """True iff the unpruned search finds a K5 or K3,3 subdivision in
    some biconnected block of g (blocks as networkx finds them)."""
    for comp in nx.biconnected_components(to_nx(g)):
        block = sorted(comp)
        bmask = 0
        for v in block:
            bmask |= 1 << v
        for branch, pairs in reference_branch_sets(g, block, bmask):
            if reference_pack_disjoint_paths(g, bmask, branch, pairs) is not None:
                return True
    return False


def checked_result(g: Graph):
    """is_planar's result, held to networkx's verdict, to proven_planar
    and, when non-planar, to the test-side witness check; every block
    the triangle count rules out must be non-planar by networkx."""
    h = to_nx(g)
    for comp in nx.biconnected_components(h):
        block = h.subgraph(comp)
        bmask = sum(1 << v for v in comp)
        edges = list(block.edges())
        if len(edges) - len(comp) + 1 > 3 and invariants._too_few_triangles(g, bmask, edges):
            assert not nx.check_planarity(block)[0]
    res = is_planar(g)
    # the planar filter accepts on proven_planar alone, so it must prove every planar graph
    assert proven_planar(g) == res.planar
    assert res.planar == nx.check_planarity(h)[0]
    if not res.planar:
        check_subdivision_witness(g, res)
    return res


def check_against_references(g: Graph) -> None:
    assert reference_has_subdivision(g) == (not checked_result(g).planar)


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
    # the reference's verdict is an isomorphism invariant, so it runs once
    # per class; is_planar and its checks still run on every leaf sum
    reference: dict[bytes, bool] = {}
    for g in leaf_sums(ct, None):
        res = checked_result(g)
        form = canonical_form(g)
        if form not in reference:
            reference[form] = reference_has_subdivision(g)
        assert reference[form] == (not res.planar)


# ------------------------------------------------------- large ladder sums


@pytest.mark.parametrize("l, n", [(4, 17), (5, 19)])
def test_large_nonplanar_ladder_sum_has_a_checked_witness(l, n):
    # the unpruned search takes seconds to half a minute on these sums
    g = make_sum(ladder_extend("c3c6-nonplanar", l)).sum
    assert g.n == n
    assert not checked_result(g).planar


# ------------------------------------------------ proposals that lie


real_rotation_system = invariants._rotation_system


def scrambled(edges):
    """networkx's rotation system with every rotation put in sorted
    order, which embeds the 4-regular fixture sums in no plane."""
    rotation = real_rotation_system(edges)
    return rotation and {v: sorted(order) for v, order in rotation.items()}


LIES = {"non-planar": lambda edges: None, "scrambled": scrambled}


@pytest.fixture
def no_memo():
    invariants._kuratowski_witness.cache_clear()
    yield
    invariants._kuratowski_witness.cache_clear()


def test_a_planar_block_called_non_planar_raises(monkeypatch, no_memo):
    g = make_sum(load_fixture("c3c6-planar")).sum
    monkeypatch.setattr(invariants, "_rotation_system", LIES["non-planar"])
    with pytest.raises(RuntimeError, match="no K5 or K3,3 subdivision"):
        is_planar(g)


def test_a_rotation_failing_the_face_count_raises(monkeypatch, no_memo):
    g = make_sum(load_fixture("c3c6-planar")).sum
    monkeypatch.setattr(invariants, "_rotation_system", scrambled)
    for check in (is_planar, proven_planar):
        with pytest.raises(RuntimeError, match="fails the face count"):
            check(g)


def test_a_rotation_of_another_graph_raises(monkeypatch, no_memo):
    # K3,3 plus 01 and 12 is non-planar with 6 triangles, as many as the
    # count allows, so networkx is asked.  The lie rotates the octahedron
    # minus one edge, which passes the face count (6 - 11 + 7 = 2): only
    # the neighbourhood check can refuse it.
    g = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)] + [(0, 1), (1, 2)])
    octahedron = nx.octahedral_graph()
    octahedron.remove_edge(0, 1)
    rotation = real_rotation_system(tuple(octahedron.edges()))
    monkeypatch.setattr(invariants, "_rotation_system", lambda edges: rotation)
    with pytest.raises(RuntimeError, match="does not match the block's neighbourhoods"):
        is_planar(g)


@pytest.mark.parametrize("lie, planar", [("non-planar", "no"), ("scrambled", "yes")])
def test_a_failed_check_exits_2(monkeypatch, capsys, no_memo, lie, planar):
    monkeypatch.setattr(invariants, "_rotation_system", LIES[lie])
    assert main(["pack", "C3+C6", "--strategy", "search", "--require-planar", planar]) == 2
    assert "RuntimeError" in capsys.readouterr().err


def repeated_is_planar_calls(monkeypatch, fixture: str) -> tuple[int, int]:
    """(networkx calls of is_planar on a non-planar fixture sum, calls in
    all once is_planar has run again on an equal graph built anew)."""
    calls = []

    def counted(edges):
        calls.append(edges)
        return real_rotation_system(edges)

    monkeypatch.setattr(invariants, "_rotation_system", counted)
    g = make_sum(load_fixture(fixture)).sum
    first = is_planar(g)
    minimised = len(calls)
    assert is_planar(build_graph(g.n, g.edges())) == first
    assert not first.planar and minimised > 1
    return minimised, len(calls)


def test_a_repeated_non_planar_sum_is_minimised_once(monkeypatch, no_memo):
    # the block has 8 triangles, as many as a plane block must, so the
    # repeat needs networkx's verdict, and only that
    minimised, total = repeated_is_planar_calls(monkeypatch, "c4c5-nonplanar")
    assert total == minimised + 1


def test_a_repeated_sum_the_triangle_count_rules_out_asks_networkx_nothing(monkeypatch, no_memo):
    # 7 triangles, below the 8 a plane block on 9 vertices and 18 edges
    # must carry: the repeat takes its verdict from the count alone
    minimised, total = repeated_is_planar_calls(monkeypatch, "c3c6-nonplanar")
    assert total == minimised


@pytest.mark.parametrize("name", ["octahedron", "c3c6-planar", "c3c7-planar", "c4c5-planar", "c4c6-planar"])
def test_planar_sums_meeting_the_triangle_bound_exactly_stay_planar(name):
    # 4-regular, so 2e - 4n + 8 = 8: each has exactly as many triangles as a
    # plane 4-regular block must, and the count must not rule it out
    g = build_graph(6, nx.octahedral_graph().edges()) if name == "octahedron" else make_sum(load_fixture(name)).sum
    n, e = g.n, g.edge_count
    assert sum(nx.triangles(to_nx(g)).values()) // 3 == 2 * e - 4 * n + 8 == 8
    assert not invariants._too_few_triangles(g, (1 << n) - 1, g.edges())
    assert checked_result(g).planar


# ---------------------------------------------- the package's witness check


K5 = tuple(combinations(range(5), 2))
K33 = tuple((a, b) for a in range(3) for b in range(3, 6))


@pytest.mark.parametrize(
    "edges, kind, branch, paths",
    [
        # the sides of K3,3 split wrongly
        (K33, "K3,3", (0, 1, 3, 2, 4, 5), K33),
        # K5 with 01 and 23 both routed through vertex 5: interiors meet
        (
            tuple(e for e in K5 if e not in ((0, 1), (2, 3))) + ((0, 5), (1, 5), (2, 5), (3, 5)),
            "K5",
            (0, 1, 2, 3, 4),
            tuple((a, 5, b) if (a, b) in ((0, 1), (2, 3)) else (a, b) for a, b in K5),
        ),
        # K5 with 01 routed through branch vertex 2
        (K5, "K5", (0, 1, 2, 3, 4), ((0, 2, 1),) + K5[1:]),
        # an edge of the graph left on no path
        (K5 + ((4, 5),), "K5", (0, 1, 2, 3, 4), K5),
        # a path along a non-edge
        (K5[1:], "K5", (0, 1, 2, 3, 4), K5),
        # one pair linked twice, another not at all
        (K5, "K5", (0, 1, 2, 3, 4), ((0, 2),) + K5[1:]),
        # too few branch vertices
        (K5, "K5", (0, 1, 2, 3), K5[:6]),
    ],
)
def test_the_subdivision_check_rejects_each_defect(edges, kind, branch, paths):
    assert not invariants._is_subdivision(edges, kind, branch, paths)
