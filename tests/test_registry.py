"""The invariant registry: every invariant name the package uses is an
oracle.INVARIANTS key, and the valued entries agree with networkx."""

from __future__ import annotations

from dataclasses import fields
from itertools import combinations

import networkx as nx
import pytest

from cyclepack.constructions import two_distinct_embeddings
from cyclepack.embedding import CycleType, make_sum, realize
from cyclepack.fixtures import FIXTURE_SPECS
from cyclepack.oracle import (
    _INVARIANT_ORDER,
    INVARIANTS,
    NOT_EMBEDDABLE_TYPES,
    UNIQUE_TYPES,
    SearchConstraints,
    census_types,
    invariant_value,
    satisfies,
)

VALUED = ("connectivity", "complement-class", "triangle-max")


@pytest.fixture(scope="module")
def pairs():
    """two_distinct_embeddings of every multiply-embeddable type up to 20 vertices."""
    skip = NOT_EMBEDDABLE_TYPES | UNIQUE_TYPES
    return [two_distinct_embeddings(ct) for ct in census_types(20) if ct.lengths not in skip]


def test_every_invariant_name_is_registered(pairs):
    assert len(pairs) == 232
    names = set(_INVARIANT_ORDER)
    for spec in FIXTURE_SPECS:
        names |= spec.invariants.keys()
    every_filter = {f.name: True for f in fields(SearchConstraints) if f.name.startswith("require_")}
    names |= SearchConstraints(**every_filter).declared().keys()
    names |= {pair.invariant for pair in pairs}
    assert names <= INVARIANTS.keys(), names - INVARIANTS.keys()
    for pair in pairs:
        assert pair.certificate.startswith(INVARIANTS[pair.invariant].label + ": "), pair.certificate


def test_valued_invariants_cannot_be_declared():
    assert [name for name, inv in INVARIANTS.items() if inv.valued] == list(VALUED)
    g = realize(CycleType((3, 4)))
    for name in VALUED:
        with pytest.raises(ValueError, match="cannot be declared"):
            satisfies(g, {name: True})


def to_networkx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def complement_class(h: nx.Graph) -> str:
    c = nx.complement(h)
    if any(d != 2 for _, d in c.degree()):
        return "none"
    return "+".join(f"C{len(comp)}" for comp in sorted(nx.connected_components(c), key=len))


def triangle_max(h: nx.Graph) -> int:
    triangles = [set(t) for t in nx.enumerate_all_cliques(h) if len(t) == 3]
    return max(sum(t <= set(sub) for t in triangles) for sub in combinations(h, 9))


REFERENCE = {
    "connectivity": nx.number_connected_components,
    "complement-class": complement_class,
    "triangle-max": triangle_max,
}


def test_valued_invariants_match_networkx_on_their_pairs(pairs):
    for name in VALUED:
        separated = [pair for pair in pairs if pair.invariant == name]
        assert separated, name
        for pair in separated:
            for e in (pair.first, pair.second):
                s = make_sum(e).sum
                assert invariant_value(s, name) == REFERENCE[name](to_networkx(s)), (pair.cycle_type, name)
    # a sum whose complement is no 2-factor
    s = make_sum(two_distinct_embeddings(CycleType((9,))).first).sum
    assert invariant_value(s, "complement-class") == complement_class(to_networkx(s)) == "none"
