"""Cycle types, realizations, embedding validation, packing sums."""

from __future__ import annotations

import random

import pytest

from cyclepack.constructions import pack_some
from cyclepack.embedding import (
    CycleType,
    Embedding,
    make_sum,
    parse_cycle_type,
    realize,
    recognize_two_factor,
)
from cyclepack.graph import Permutation, apply_permutation, build_graph
from cyclepack.invariants import canonical_form
from cyclepack.oracle import Verdict, classify_by_theorem


def test_cycle_type_sorts_and_validates():
    assert CycleType((5, 3, 4)).lengths == (3, 4, 5)
    with pytest.raises(ValueError):
        CycleType(())
    with pytest.raises(ValueError):
        CycleType((3, 2))


@pytest.mark.parametrize("lengths", [[3, 4], [4, 3], (4, 3), range(3, 5)])
def test_cycle_type_holds_a_sorted_tuple(lengths):
    ct = CycleType(lengths)
    assert type(ct.lengths) is tuple and ct.lengths == (3, 4)
    assert ct == CycleType((3, 4)) and hash(ct) == hash(CycleType((3, 4)))
    # both look the lengths up in sets of tuples
    assert classify_by_theorem(ct) == Verdict.UNIQUE
    assert pack_some(ct).graph == realize(CycleType((3, 4)))


@pytest.mark.parametrize("lengths", [(3.5,), (3, 4.0), (True, 3), (3, False), ("3",)])
def test_cycle_type_refuses_a_length_that_is_not_an_int(lengths):
    with pytest.raises(ValueError, match="cycle length must be an int, got "):
        CycleType(lengths)


def test_cycle_type_render_and_parse():
    ct = CycleType((3, 3, 7))
    assert ct.render() == "C3+C3+C7"
    assert str(ct) == "C3+C3+C7"
    assert parse_cycle_type("C3+C3+C7") == ct
    assert parse_cycle_type("7+3+3") == ct
    assert parse_cycle_type(" c5 ") == CycleType((5,))
    for bad in ("", "C", "C3+", "3.5", "C3-C4"):
        with pytest.raises(ValueError):
            parse_cycle_type(bad)


def test_blocks_partition_the_vertices():
    ct = CycleType((3, 4, 5))
    assert ct.blocks() == [(0, 3), (3, 4), (4 + 3, 5)]
    assert ct.total == 12 and ct.cycle_count == 3


def test_automorphism_count():
    assert CycleType((5,)).automorphism_count() == 10
    assert CycleType((3, 4)).automorphism_count() == 6 * 8
    # equal lengths add the permutation factor: (2*3)^3 * 3!
    assert CycleType((3, 3, 3)).automorphism_count() == 216 * 6
    assert CycleType((3, 3, 4)).automorphism_count() == 36 * 2 * 8


def test_realize_recognize_roundtrip():
    for lengths in [(3,), (5,), (3, 4), (3, 3, 3), (4, 5, 6)]:
        ct = CycleType(lengths)
        g = realize(ct)
        assert g.n == ct.total
        assert all(row.bit_count() == 2 for row in g.adj)
        assert recognize_two_factor(g) == ct


def test_recognize_rejects_non_two_factors():
    assert recognize_two_factor(build_graph(3, [(0, 1)])) is None
    assert recognize_two_factor(build_graph(0, [])) is None
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert recognize_two_factor(k4) is None


def test_recognize_is_relabeling_invariant():
    rng = random.Random(23)
    for lengths in [(3, 4), (3, 3, 5), (6,)]:
        ct = CycleType(lengths)
        g = realize(ct)
        for _ in range(5):
            image = list(range(g.n))
            rng.shuffle(image)
            assert recognize_two_factor(apply_permutation(g, Permutation(tuple(image)))) == ct


def test_embedding_validates_on_construction():
    g = realize(CycleType((5,)))
    e = Embedding(g, Permutation((0, 2, 4, 1, 3)))
    assert e.red_graph().edges() == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    with pytest.raises(ValueError):
        Embedding(g, Permutation(tuple(range(5))))
    with pytest.raises(ValueError):
        Embedding(g, Permutation((0, 1)))


def test_check_embedding_reports_clashes():
    # the constructor is the one validator, and its error names every clash
    with pytest.raises(ValueError) as info:
        Embedding(realize(CycleType((5,))), Permutation(tuple(range(5))))
    clashes = "(0, 1)->(0, 1), (0, 4)->(0, 4), (1, 2)->(1, 2), (2, 3)->(2, 3), (3, 4)->(3, 4)"
    assert str(info.value) == f"not an embedding: 5 edge clash(es): {clashes}"


def test_make_sum_is_edge_disjoint_union():
    g = realize(CycleType((5,)))
    ps = make_sum(Embedding(g, Permutation((0, 2, 4, 1, 3))))
    assert ps.black == g
    assert ps.sum.edge_count == ps.black.edge_count + ps.red.edge_count
    # C5 into its complement fills K5
    assert ps.sum.edge_count == 10


def test_are_distinct_on_seven_cycle():
    g = realize(CycleType((7,)))
    # shift-2 rotation vs a packing whose sum complement is C3+C4
    a = Embedding(g, Permutation((0, 2, 4, 6, 1, 3, 5)))
    b = Embedding(g, Permutation((0, 2, 5, 1, 3, 6, 4)))
    assert canonical_form(make_sum(a).sum) != canonical_form(make_sum(b).sum)


def test_rotations_by_coprime_shifts_can_coincide():
    # shifts 2 and 3 on C7 both leave a 7-cycle as the sum complement
    g = realize(CycleType((7,)))
    a = Embedding(g, Permutation((0, 2, 4, 6, 1, 3, 5)))
    b = Embedding(g, Permutation((0, 3, 6, 2, 5, 1, 4)))
    assert canonical_form(make_sum(a).sum) == canonical_form(make_sum(b).sum)


def test_trace_does_not_affect_equality():
    g = realize(CycleType((5,)))
    p = Permutation((0, 2, 4, 1, 3))
    assert Embedding(g, p) == Embedding(g, p, trace=(("anything",),))
