"""The invariant registry: every invariant name the package uses is an
oracle.INVARIANTS key, and the valued entries agree with networkx.  The
pairs, ladder extensions and pack_some packings built here are also
pinned by digest, so a change that reorders any returned permutation or
trace fails."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import fields
from itertools import combinations

import networkx as nx
import pytest
from test_acceptance import LADDER_BASES, NX_YES_NO, to_networkx

from cyclepack.constructions import ladder_extend, pack_some, two_distinct_embeddings
from cyclepack.embedding import CycleType, make_sum, realize
from cyclepack.fixtures import FIXTURE_SPECS
from cyclepack.report import embedding_record
from cyclepack.oracle import (
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
    names = set()
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


# ------------------------------------------------------------ pinned outputs

# sha256 of the records below, recorded when they were last meant to change
PAIRS_DIGEST = "0d2543512c1b70436df980a3f306cb5aa511f45f690ebc2cff1e186ffc74c090"
LADDERS_DIGEST = "18e5724e4d93c6fefff2c3a2745e9e6756acdfad7682da6f84cb2db51db542db"
PACKS_DIGEST = "4c71c4d998cf803226eda4035e64b38d2e9170baa0f06ff459431632f89315f6"


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_pairs_are_byte_identical(pairs):
    records = [
        {
            "first": embedding_record(pair.first),
            "second": embedding_record(pair.second),
            "invariant": pair.invariant,
            "certificate": pair.certificate,
        }
        for pair in pairs
    ]
    assert digest(records) == PAIRS_DIGEST, f"new digest {digest(records)}"


def test_ladder_extensions_are_byte_identical():
    # the 30 extensions test_criterion_10 walks: three depths per base
    records = []
    for name in LADDER_BASES:
        least = 2 if name == "c4c5-planar" else 1
        records += [embedding_record(ladder_extend(name, l)) for l in range(least, least + 3)]
    assert len(records) == 30
    assert digest(records) == LADDERS_DIGEST, f"new digest {digest(records)}"


def test_packs_are_byte_identical():
    # the packing `cyclepack pack` prints by default, for every embeddable type up to 20 vertices
    types = [ct for ct in census_types(20) if ct.lengths not in NOT_EMBEDDABLE_TYPES]
    records = [embedding_record(pack_some(ct)) for ct in types]
    assert len(records) == 238
    assert digest(records) == PACKS_DIGEST, f"new digest {digest(records)}"


# ------------------------------------------------- past the oracle's reach


def test_pairs_past_the_oracle_are_separated_by_networkx():
    """Past 12 vertices every type is multiply embeddable, so a certified
    pair is the whole check there.  Every multiply-embeddable type of 25-30
    vertices, beyond the oracle's 24, gets a pair, and networkx re-reads
    its separator on both sums."""
    types = [ct for ct in census_types(30) if ct.total >= 25]
    assert len(types) == 1313
    reference = {**NX_YES_NO, **REFERENCE}
    used = Counter()
    for ct in types:
        pair = two_distinct_embeddings(ct)
        v1, v2 = (reference[pair.invariant](to_networkx(make_sum(e).sum)) for e in (pair.first, pair.second))
        assert v1 != v2, (ct, pair.invariant)
        assert pair.certificate == f"{INVARIANTS[pair.invariant].label}: {v1} vs {v2}", ct
        used[pair.invariant] += 1
    assert used == {"connectivity": 1289, "k4": 12, "planar": 12}
