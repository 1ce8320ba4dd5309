"""Output checks against references that do not come from the package.

Runs after the timed region.  Cycle realizations, packing sums and every
invariant are rebuilt here with networkx; verdicts come from the paper's
table held in `workloads`; the search hit/miss pattern comes from
`search_baseline.json`, recorded once at the commit that added the
benchmark.  Each check returns the failure messages of one item, so an
empty list means the item passed.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import networkx as nx
from cyclepack import fixtures

from workloads import NOT_EMBEDDABLE, UNIQUE, render

SEARCH_BASELINE = json.loads((Path(__file__).parent / "search_baseline.json").read_text())


def parse(name: str) -> tuple[int, ...]:
    return tuple(int(part[1:]) for part in name.split("+"))


def cycle_edges(lengths: tuple[int, ...]) -> set[tuple[int, int]]:
    """Edges of the cycles laid out on consecutive vertex blocks, shortest first."""
    edges = set()
    start = 0
    for m in lengths:
        for i in range(m):
            u, v = start + i, start + (i + 1) % m
            edges.add((min(u, v), max(u, v)))
        start += m
    return edges


def packing_sum(lengths: tuple[int, ...], embedding) -> tuple[nx.Graph | None, list[str]]:
    """The sum of a packing of the realized type, or None and what is wrong."""
    n = sum(lengths)
    black = cycle_edges(lengths)
    if set(embedding.graph.edges()) != black:
        return None, [f"packing is not on the realization of {render(lengths)}"]
    image = list(embedding.perm.image)
    if sorted(image) != list(range(n)):
        return None, ["image is not a permutation"]
    red = {(min(image[u], image[v]), max(image[u], image[v])) for u, v in black}
    if red & black:
        return None, [f"image shares {len(red & black)} edge(s) with the cycles"]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(black | red)
    return g, []


def invariant(name: str, g: nx.Graph):
    """Value of a named sum invariant, computed with networkx."""
    if name == "planar":
        return nx.check_planarity(g)[0]
    if name == "bipartite":
        return nx.is_bipartite(g)
    if name == "k4":
        return any(len(c) >= 4 for c in nx.find_cliques(g))
    if name == "cut-vertex":
        return any(True for _ in nx.articulation_points(g))
    if name == "connected":
        return nx.is_connected(g)
    if name == "connectivity":
        return nx.number_connected_components(g)
    if name == "p4-neighborhood":
        path = nx.path_graph(4)
        return any(
            g.degree(v) == 4 and nx.is_isomorphic(g.subgraph(g[v]), path) for v in g
        )
    if name == "complement-class":
        rest = nx.complement(g)
        if any(d != 2 for _, d in rest.degree()):
            return "none"
        return render(tuple(sorted(len(c) for c in nx.connected_components(rest))))
    if name == "triangle-max":
        triangles = [set(c) for c in nx.enumerate_all_cliques(g) if len(c) == 3]
        return max(
            sum(1 for t in triangles if t <= chosen)
            for chosen in map(set, combinations(g, 9))
        )
    raise ValueError(f"no reference for invariant {name!r}")


def _separation(name: str, s1: nx.Graph, s2: nx.Graph, stated: str) -> list[str]:
    """The invariant must differ on the two sums and read as the package stated."""
    v1, v2 = invariant(name, s1), invariant(name, s2)
    if v1 == v2:
        return [f"{name} does not separate the sums ({v1})"]
    if not stated.endswith(f": {v1} vs {v2}"):
        return [f"certificate {stated!r} disagrees with networkx ({v1} vs {v2})"]
    return []


def _distinct_sums(lengths, first, second) -> tuple[list[str], nx.Graph | None, nx.Graph | None]:
    s1, bad1 = packing_sum(lengths, first)
    s2, bad2 = packing_sum(lengths, second)
    bad = bad1 + bad2
    if not bad and nx.vf2pp_is_isomorphic(s1, s2):
        bad.append("the two sums are isomorphic")
    return bad, s1, s2


def paper_verdict(lengths: tuple[int, ...]) -> str:
    if lengths in NOT_EMBEDDABLE:
        return "not-embeddable"
    if lengths in UNIQUE:
        return "uniquely-embeddable"
    return "multiply-embeddable"


def check_census_row(name: str, output) -> list[str]:
    row, witnesses = output
    lengths = parse(name)
    want = paper_verdict(lengths)
    bad = []
    if not (row.theorem.value == row.oracle.value == want and row.agree):
        bad.append(f"theorem {row.theorem.value}, oracle {row.oracle.value}, paper {want}")
    classes = {"not-embeddable": 0, "uniquely-embeddable": 1, "multiply-embeddable": 2}[want]
    if row.class_count != classes or len(witnesses) != classes:
        bad.append(f"{row.class_count} classes and {len(witnesses)} witnesses, expected {classes}")
    for w in witnesses:
        bad += packing_sum(lengths, w)[1]
    if bad or classes < 2:
        return bad
    bad, s1, s2 = _distinct_sums(lengths, *witnesses)
    if not bad and row.certificate != "canonical only":
        bad += _separation(row.certificate.split(":")[0], s1, s2, row.certificate)
    return bad


def check_pair(name: str, pair) -> list[str]:
    lengths = parse(name)
    if pair.cycle_type.lengths != lengths:
        return [f"pair is for {pair.cycle_type}"]
    bad, s1, s2 = _distinct_sums(lengths, pair.first, pair.second)
    if bad:
        return bad
    return _separation(pair.invariant, s1, s2, pair.certificate)


def check_search(name: str, hit) -> list[str]:
    if name.startswith("fixture:"):
        return _check_fixture(name.removeprefix("fixture:"), hit)
    if name not in SEARCH_BASELINE:
        return ["no baseline hit/miss recorded for this item"]
    if (hit is not None) != SEARCH_BASELINE[name]:
        return [f"{'hit' if hit is not None else 'miss'}, baseline {'hit' if SEARCH_BASELINE[name] else 'miss'}"]
    if hit is None:
        return []
    type_name, constraint = name.split("|")
    s, bad = packing_sum(parse(type_name), hit)
    if not bad and nx.check_planarity(s)[0] != (constraint == "planar=yes"):
        bad.append(f"hit violates {constraint}")
    return bad


def _check_fixture(name: str, e) -> list[str]:
    committed = fixtures.fixture_path(name).read_text()
    if fixtures.serialize_fixture(name, e) != committed:
        return ["recomputed fixture differs from its committed file"]
    record = json.loads(committed)
    s, bad = packing_sum(tuple(record["cycle_type"]), e)
    for key, want in record["invariants"].items():
        if not bad and invariant(key, s) != want:
            bad.append(f"networkx finds {key} != {want}")
    return bad


CHECKS = {"census-12": check_census_row, "pairs-18": check_pair, "search-constrained": check_search}


def failures(workload: str, result) -> dict[str, list[str]]:
    """Failure messages per failed item of one pass."""
    check = CHECKS[workload]
    out = {}
    for name in result.names:
        if name in result.errors:
            out[name] = [result.errors[name]]
        elif name not in result.outputs:
            out[name] = ["no output"]
        else:
            try:
                bad = check(name, result.outputs[name])
            except Exception as exc:  # a malformed output fails its item
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                out[name] = bad
    return out
