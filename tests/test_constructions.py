"""Constructive packings: rotations, K4 closures, merges, ladders, replay."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cyclepack import constructions
from cyclepack.constructions import (
    bxy_packing,
    choose_coprime_shift,
    cross_packing_33_6,
    divide_and_pack,
    embedding_from_red_edges,
    k4_embedding,
    ladder_extend,
    merge_components,
    merge_until_connected,
    pack_some,
    replay_trace,
    rotate_embedding,
    triangle_list_packing,
    two_distinct_embeddings,
    unique_packing,
)
from cyclepack.embedding import CycleType, check_embedding, make_sum, realize, recognize_two_factor
from cyclepack.fixtures import FIXTURE_SPECS
from cyclepack.graph import Permutation, connected_components
from cyclepack.invariants import contains_k4, is_bipartite, max_triangle_subset
from cyclepack.oracle import (
    NOT_EMBEDDABLE_TYPES,
    UNIQUE_TYPES,
    census_types,
    invariant_value,
)


def sum_graph(e):
    return make_sum(e).sum


# ---------------------------------------------------------------- rotations


def test_rotate_embedding_red_edges_are_chords():
    e = rotate_embedding(7, 2)
    assert e.red_graph().edges() == [
        (0, 2), (0, 5), (1, 3), (1, 6), (2, 4), (3, 5), (4, 6),
    ]
    assert recognize_two_factor(e.red_graph()) == CycleType((7,))


def test_rotate_embedding_rejects_bad_shifts():
    with pytest.raises(ValueError):
        rotate_embedding(2, 2)
    for r in (0, 1, 6, 7):
        with pytest.raises(ValueError):
            rotate_embedding(7, r)
    with pytest.raises(ValueError):
        rotate_embedding(9, 3)  # gcd 3


def test_choose_coprime_shift_values_and_bounds():
    # n -> n - p for the largest prime p with n/2 < p <= n-3
    frozen = {8: 3, 10: 3, 12: 5, 14: 3, 16: 3, 18: 5, 20: 3}
    for n, want in frozen.items():
        r = choose_coprime_shift(n)
        assert r == want
        assert 3 <= r <= n // 2 - 1
        assert math.gcd(r, n) == 1
        assert rotate_embedding(n).trace[0].params["r"] == want  # the default shift
    for bad in (6, 7, 9):
        with pytest.raises(ValueError):
            choose_coprime_shift(bad)


def test_shift2_sums_have_no_k4():
    for n in (7, 9, 11, 13):
        e = rotate_embedding(n, 2)
        assert contains_k4(sum_graph(e)) is None
        assert rotate_embedding(n).perm == e.perm  # the default shift


# -------------------------------------------------------------- K4 closure


def test_k4_embedding_places_a_k4():
    for lengths in [(8,), (4, 7), (3, 3, 7)]:
        e = k4_embedding(CycleType(lengths))
        quad = contains_k4(sum_graph(e))
        assert quad is not None, lengths


def test_k4_embedding_cycle_index_and_offset():
    ct = CycleType((3, 3, 7))
    base = k4_embedding(ct)
    shifted = k4_embedding(ct, cycle_index=2, offset=3)
    assert contains_k4(sum_graph(shifted)) is not None
    assert base.graph == shifted.graph
    with pytest.raises(ValueError):
        k4_embedding(ct, cycle_index=0)  # length-3 cycle


# The remainder of a K4 closure on an m-cycle is a path on m - 4 vertices
# plus the other cycles; these are the shapes among the (p, p - 1) graphs
# with no self-embedding (Burns and Schuster 1978).
FAILED_REMAINDERS = {
    (2, ()): "K1,1",
    (3, ()): "K1,2",
    (1, (3,)): "K1+K3",
    (2, (3,)): "K2+K3",
    (1, (4,)): "K1+C4",
    (1, (3, 3)): "K1+2K3",
}


def test_k4_embedding_names_impossible_remainders():
    with pytest.raises(ValueError, match="K1,2"):
        k4_embedding(CycleType((7,)))
    with pytest.raises(ValueError, match="K1,1"):
        k4_embedding(CycleType((6,)))
    # the closure fails exactly on the listed remainders, and names them
    named = set()
    for ct in census_types(14):
        for index, m in enumerate(ct.lengths):
            if m < 5:
                continue
            shape = (m - 4, ct.lengths[:index] + ct.lengths[index + 1 :])
            for offset in (0, 1):
                if shape in FAILED_REMAINDERS:
                    name = re.escape(f"(isomorphic to {FAILED_REMAINDERS[shape]})")
                    with pytest.raises(ValueError, match=name):
                        k4_embedding(ct, index, offset)
                    named.add(shape)
                else:
                    e = k4_embedding(ct, index, offset)
                    assert contains_k4(sum_graph(e)) is not None, (ct, index, offset)
    assert named == set(FAILED_REMAINDERS)


# ------------------------------------------------------------------ merges


def test_merge_components_step_by_step():
    e = divide_and_pack(CycleType((3, 3, 5, 5)), ((3, 5), (3, 5)))
    red_type = recognize_two_factor(e.red_graph())
    comps = len(connected_components(sum_graph(e)))
    assert comps == 2
    merged = merge_components(e)
    assert len(connected_components(sum_graph(merged))) == comps - 1
    assert recognize_two_factor(merged.red_graph()) == red_type
    assert merged.graph == e.graph
    assert merged.trace[-1].op == "merge"


def test_merge_until_connected():
    e = divide_and_pack(CycleType((3, 3, 3, 5)), ((3, 3, 3), (5,)))
    connected = merge_until_connected(e)
    assert len(connected_components(sum_graph(connected))) == 1
    assert recognize_two_factor(connected.red_graph()) == CycleType((3, 3, 3, 5))


def test_merge_requires_disconnected_sum():
    with pytest.raises(ValueError):
        merge_components(unique_packing(CycleType((5,))))


# ------------------------------------------------------- explicit packings


def test_unique_packings_cover_all_six():
    for lengths in sorted(UNIQUE_TYPES):
        e = unique_packing(CycleType(lengths))
        assert recognize_two_factor(e.red_graph()) == CycleType(lengths)


def test_triangle_list_variants_for_five_triangles():
    a = triangle_list_packing(CycleType((3, 3, 3, 3, 3)), "A")
    b = triangle_list_packing(CycleType((3, 3, 3, 3, 3)), "B")
    assert a.perm != b.perm
    with pytest.raises(ValueError):
        triangle_list_packing(CycleType((3, 3, 3, 3, 3)), "C")
    with pytest.raises(ValueError):
        triangle_list_packing(CycleType((3, 4)))


def test_cross_packing_33_6_is_disconnected():
    e = cross_packing_33_6()
    assert len(connected_components(sum_graph(e))) == 2


def test_bxy_variants():
    from cyclepack.constructions import bxy_packing

    for lengths in [(4, 4), (4, 4, 4)]:
        bip = bxy_packing(CycleType(lengths), "bipartite")
        non = bxy_packing(CycleType(lengths), "nonbipartite")
        assert is_bipartite(sum_graph(bip)).bipartite
        assert not is_bipartite(sum_graph(non)).bipartite


def test_divide_and_pack_split_control():
    e = divide_and_pack(CycleType((3, 4, 5)), ((3, 4), (5,)))
    assert len(connected_components(sum_graph(e))) >= 2
    with pytest.raises(ValueError):
        divide_and_pack(CycleType((7,)))
    with pytest.raises(ValueError):
        divide_and_pack(CycleType((3, 4, 5)), ((3, 5), (4,)))  # C4 part not embeddable
    with pytest.raises(ValueError):
        divide_and_pack(CycleType((3, 4, 5)), ((3, 3), (5,)))  # not a split of the multiset


def test_divide_and_pack_needs_an_embeddable_split():
    # every split of C3+C3+C4 leaves an unembeddable part
    with pytest.raises(ValueError):
        divide_and_pack(CycleType((3, 3, 4)))


# ------------------------------------------------------------------ ladders


def test_ladder_extend_basics():
    spec = next(f for f in FIXTURE_SPECS if f.name == "c3c6-planar")
    base_len = max(spec.cycle_type)
    for l in (1, 2):
        e = ladder_extend("c3c6-planar", l)
        want = CycleType((3, base_len + 2 * l))
        assert recognize_two_factor(e.graph) == want
        assert e.graph == realize(want)
        assert invariant_value(sum_graph(e), "planar") is True
        assert e.trace[0].op == "ladder"


def test_ladder_extend_rejects_what_it_cannot_extend():
    # C4+C7 has no planar packing, so no placement keeps c4c5-planar planar
    with pytest.raises(ValueError, match="no placement"):
        ladder_extend("c4c5-planar", 1)
    with pytest.raises(ValueError, match="unknown ladder base"):
        ladder_extend("no-such-template", 1)
    with pytest.raises(ValueError):
        ladder_extend("c3c6-planar", 0)


def test_ladder_extend_preserves_nonplanarity():
    e = ladder_extend("c3c7-nonplanar", 1)
    assert invariant_value(sum_graph(e), "planar") is False


def test_ladder_extend_preserves_k4_freeness():
    e = ladder_extend("c3c3c7-k4free", 1)
    assert invariant_value(sum_graph(e), "k4") is False


# --------------------------------------------------------- replay and sweep


def embeddable_types(n_max: int) -> list[CycleType]:
    return [ct for ct in census_types(n_max) if ct.lengths not in NOT_EMBEDDABLE_TYPES]


def test_pack_some_and_replay_all_types_to_11():
    for ct in embeddable_types(11):
        e = pack_some(ct)
        assert e.graph == realize(ct)
        assert recognize_two_factor(e.red_graph()) == ct
        rebuilt = replay_trace(ct, e.trace)
        assert rebuilt.perm == e.perm, ct
    with pytest.raises(ValueError):
        pack_some(CycleType((3, 3)))


# types whose pairs come from ladder extensions: (invariant, certificate)
LADDERED_PAIRS = {
    (3, 8): ("planar", "sum is planar: True vs False"),
    (3, 9): ("planar", "sum is planar: True vs False"),
    (4, 8): ("planar", "sum is planar: True vs False"),
    (4, 9): ("planar", "sum is planar: True vs False"),
    (4, 10): ("planar", "sum is planar: True vs False"),
    (3, 3, 9): ("k4", "sum contains K4: True vs False"),
    (3, 3, 10): ("k4", "sum contains K4: True vs False"),
}


def test_two_distinct_embeddings_to_10():
    for ct in embeddable_types(10) + [CycleType(t) for t in LADDERED_PAIRS]:
        if ct.lengths in UNIQUE_TYPES:
            with pytest.raises(ValueError):
                two_distinct_embeddings(ct)
            continue
        pair = two_distinct_embeddings(ct)
        assert pair.cycle_type == ct
        s1, s2 = sum_graph(pair.first), sum_graph(pair.second)
        from cyclepack.invariants import canonical_form

        assert canonical_form(s1) != canonical_form(s2), ct
        for e in (pair.first, pair.second):
            rebuilt = replay_trace(ct, e.trace)
            assert rebuilt.perm == e.perm, (ct, pair.invariant)
        if ct.lengths in LADDERED_PAIRS:
            assert (pair.invariant, pair.certificate) == LADDERED_PAIRS[ct.lengths]
            # both planar sides are ladders; the K4 side is a K4 closure
            laddered = (pair.first, pair.second) if pair.invariant == "planar" else (pair.second,)
            for e in laddered:
                assert e.trace[0].op == "ladder", ct
                assert e.trace[0].params["cycle_type"] == list(ct.lengths)


def test_a_pair_its_invariant_does_not_separate_is_refused(monkeypatch):
    """The separation check is an error, not an assert, so python -O keeps it."""
    monkeypatch.setattr(constructions, "invariant_value", lambda g, name: 0)
    with pytest.raises(RuntimeError, match="k4 fails to separate the two packings of C3\\+C3\\+C4"):
        two_distinct_embeddings(CycleType((3, 3, 4)))


# every op replay_trace handles
TRACE_OPS = {
    "rotate",
    "coprime-shift",
    "k4-extension",
    "triangle-list",
    "crossed-blocks",
    "explicit-unique",
    "cross-3-3-6",
    "divide",
    "search",
    "search-second-class",
    "fixture",
    "ladder",
    "merge",
}


def test_every_trace_op_is_emitted_and_replays():
    first_use = {}
    for ct in embeddable_types(14):
        built = [pack_some(ct)]
        if ct.lengths not in UNIQUE_TYPES:
            pair = two_distinct_embeddings(ct)
            built += [pair.first, pair.second]
        for e in built:
            for step in e.trace:
                first_use.setdefault(step.op, (ct, e))
    assert set(first_use) == TRACE_OPS
    for op, (ct, e) in first_use.items():
        assert replay_trace(ct, e.trace).perm == e.perm, op


def test_embedding_from_red_edges_rejects_wrong_image():
    ct = CycleType((3, 4))
    with pytest.raises(ValueError):
        embedding_from_red_edges(ct, realize(CycleType((7,))))


def test_replay_trace_error_paths():
    from cyclepack.constructions import TraceStep

    with pytest.raises(ValueError):
        replay_trace(CycleType((5,)), ())
    with pytest.raises(ValueError):
        replay_trace(CycleType((5,)), (TraceStep("merge", {}),))
    with pytest.raises(ValueError):
        replay_trace(CycleType((5,)), (TraceStep("levitate", {}),))
    # only merge steps may follow the opening step
    rotate = TraceStep("rotate", {"cycle_type": [5], "r": 2})
    with pytest.raises(ValueError, match="must open the trace"):
        replay_trace(CycleType((5,)), (rotate, rotate))
    # a valid trace replayed against the wrong target type must fail
    e = pack_some(CycleType((5,)))
    with pytest.raises(ValueError):
        replay_trace(CycleType((6,)), e.trace)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: max_triangle_subset(realize(CycleType((19,))), 9), "limited to n <= 18, got 19"),
        (lambda: k4_embedding(CycleType((3, 6)), cycle_index=2), "cycle index 2 out of range"),
        (lambda: bxy_packing(CycleType((4, 4)), "tripartite"), "variant must be one of"),
        (lambda: two_distinct_embeddings(CycleType((3, 3))), "admits no packing at all"),
        (lambda: check_embedding(realize(CycleType((5,))), Permutation(tuple(range(6)))), "length does not match"),
    ],
    ids=["triangle-max-past-18", "k4-cycle-index", "bxy-variant", "pair-of-c3c3", "perm-length"],
)
def test_requests_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


LYING_BIPARTITE = """
import sys
from types import SimpleNamespace
from cyclepack import constructions
from cyclepack.embedding import CycleType
constructions.is_bipartite = lambda g: SimpleNamespace(bipartite=False)
try:
    constructions.bxy_packing(CycleType((4, 4)), "bipartite")
except RuntimeError:
    sys.exit(0)
sys.exit(1)
"""


def test_a_failed_construction_check_raises_under_python_O():
    # python -O strips assert statements; the checks must still refuse
    env = {**os.environ, "PYTHONPATH": str(Path(constructions.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-O", "-c", LYING_BIPARTITE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_trace_steps_are_json_serializable():
    import json

    for ct in [CycleType((5,)), CycleType((9,)), CycleType((3, 3, 4)), CycleType((4, 4))]:
        e = pack_some(ct)
        blob = json.dumps([{"op": s.op, "params": s.params} for s in e.trace])
        assert json.loads(blob)
