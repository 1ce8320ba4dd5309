"""Constructive packings of unions of cycles, mirroring the proof that
every type outside the six unique and three impossible ones admits at
least two non-isomorphic packing sums.

Every function returns a validated Embedding carrying a replayable
construction trace.  The constructions are verified by the checker and,
where they claim a structural invariant (K4 present/absent, planar or
not, bipartite or not, cut vertex or not), that claim is checked here
rather than trusted; a failed check raises RuntimeError, also under
python -O.  two_distinct_embeddings separates its pair by one invariant
of oracle.INVARIANTS, the registry of invariant names, certificate
labels and checks, and certifies it as "<label>: v1 vs v2".

Routes:
  * rotations of a single n-cycle by a shift r coprime to n (K4-free
    sums for shift 2 on odd n and for the prime-complement shift on
    even n);
  * removal of four consecutive cycle vertices, packing the remainder,
    and closing the image so the removed vertices induce a K4;
  * explicit red triangle lists for 3, 4 and 5 disjoint triangles;
  * crossed complete-bipartite blocks for unions of two and three 4-cycles;
  * independent packing of a split (disconnected sum) plus the
    neighbour-swap merge that reconnects two sum components;
  * ladder extensions that lengthen the longest cycle of a committed
    fixture by 2l while keeping every invariant its FixtureSpec declares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .embedding import (
    CycleType,
    Embedding,
    TraceStep,
    _cycle_list,
    make_sum,
    realize,
    recognize_two_factor,
)
from .fixtures import FIXTURE_SPECS, load_fixture
from .graph import (
    Graph,
    Permutation,
    apply_permutation,
    bits,
    build_graph,
    connected_components,
    disjoint_union,
)
from .invariants import canonical_form, is_bipartite
from .oracle import (
    INVARIANTS,
    NOT_EMBEDDABLE_TYPES,
    UNIQUE_TYPES,
    SearchConstraints,
    find_embedding,
    invariant_value,
    satisfies,
    sum_classes,
)


def _step(op: str, **params) -> TraceStep:
    return TraceStep(op, params)


# ---------------------------------------------------------------- rotations


def rotate_embedding(n: int, r: int | None = None) -> Embedding:
    """Embed the n-cycle by i -> r*i mod n; image edges are the chords {i, i+r}.

    The default shift, 2 for odd n and choose_coprime_shift(n) for even n,
    gives a K4-free sum.
    """
    if n < 3:
        raise ValueError(f"cycle length must be >= 3, got {n}")
    if r is None:
        r = 2 if n % 2 else choose_coprime_shift(n)
    if not 2 <= r <= n - 2:
        raise ValueError(f"shift must satisfy 2 <= r <= n-2, got r={r}")
    if math.gcd(r, n) != 1:
        raise ValueError(f"shift {r} shares a factor with {n}; image is not one cycle")
    ct = CycleType((n,))
    perm = Permutation(tuple(r * i % n for i in range(n)))
    trace = (_step("rotate", cycle_type=[n], r=r),)
    return Embedding(realize(ct), perm, trace)


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def choose_coprime_shift(n: int) -> int:
    """Shift r = n - p for the largest prime p with n/2 < p <= n-3 (even n >= 8).

    Such a prime exists by Bertrand's postulate; the resulting r is odd,
    coprime to n and satisfies 3 <= r <= n/2 - 1, so the rotated image
    is a single n-cycle whose chords stay off short distances.
    """
    if n % 2 != 0 or n < 8:
        raise ValueError(f"prime-complement shift needs even n >= 8, got {n}")
    p = next(k for k in range(n - 3, n // 2, -1) if _is_prime(k))
    r = n - p
    if not (3 <= r <= n // 2 - 1 and math.gcd(r, n) == 1):
        raise RuntimeError(f"prime-complement shift {r} for n={n} is not coprime to n within 3..n/2-1")
    return r


# ------------------------------------------------- K4 from four path vertices


# Failed K4 closures, keyed by (path vertices m - 4, other cycle lengths).
# The remainder is the path left on the m-cycle plus the untouched cycles,
# a graph of order p = n - 4 and size p - 1.  Of the Burns-Schuster (1978)
# list of such graphs with no self-embedding (K1,p-1; K1,p-4+K3 for p >= 8;
# K1+K3; K2+K3; K1+C4; K1+2K3) only these six are a path plus cycles.
_K4_CLOSURE_FAILURES: dict[tuple[int, tuple[int, ...]], str] = {
    (2, ()): "K1,1",
    (3, ()): "K1,2",
    (1, (3,)): "K1+K3",
    (2, (3,)): "K2+K3",
    (1, (4,)): "K1+C4",
    (1, (3, 3)): "K1+2K3",
}


def k4_embedding(ct: CycleType, cycle_index: int | None = None, offset: int = 0) -> Embedding:
    """Packing whose sum contains a K4, built by removing four consecutive
    vertices of the designated cycle, packing the remainder, and closing
    the image path through the removed vertices.

    The four removed vertices a1..a4 keep their three path edges black
    and receive the three missing chords red, so they induce a K4 in the
    sum.  Fails when the designated cycle is shorter than 5 or when the
    remainder graph is one of the sparse non-embeddable exceptions.
    """
    blocks = ct.blocks()
    if cycle_index is None:
        cycle_index = len(blocks) - 1  # longest cycle
    if not 0 <= cycle_index < len(blocks):
        raise ValueError(f"cycle index {cycle_index} out of range")
    start, m = blocks[cycle_index]
    if m < 5:
        raise ValueError(f"designated cycle has length {m}; need >= 5 to remove four vertices")
    g = realize(ct)
    n = ct.total
    a = [start + (offset + i) % m for i in range(4)]

    removed = set(a)
    keep = [v for v in range(n) if v not in removed]
    old_of = keep
    new_of = {v: i for i, v in enumerate(keep)}
    rem_edges = [
        (new_of[u], new_of[v]) for u, v in g.edges() if u not in removed and v not in removed
    ]
    remainder = build_graph(len(keep), rem_edges)
    if remainder.edge_count > remainder.n - 1:
        raise RuntimeError(f"the remainder of {ct} without four cycle vertices has more than n - 1 edges")

    inner = find_embedding(remainder)
    if inner is None:
        others = ct.lengths[:cycle_index] + ct.lengths[cycle_index + 1 :]
        name = _K4_CLOSURE_FAILURES.get((m - 4, others), "an unexpected graph")
        raise ValueError(
            f"remainder after removing four vertices of {ct} is not embeddable "
            f"(isomorphic to {name})"
        )

    image = [0] * n
    for v in keep:
        image[v] = old_of[inner.perm(new_of[v])]
    # close the image path x' - a3 - a1 - a4 - a2 - y', where x' and y' are
    # the images of the outer cycle neighbours of a1 and a4; the chords
    # a1a3, a1a4, a2a4 are exactly the three edges missing from the K4
    image[a[0]] = a[2]
    image[a[1]] = a[0]
    image[a[2]] = a[3]
    image[a[3]] = a[1]
    trace = (
        _step("k4-extension", cycle_type=list(ct.lengths), cycle_index=cycle_index, offset=offset),
    )
    e = Embedding(g, Permutation(tuple(image)), trace)
    s = make_sum(e).sum
    quad = sorted(a)
    for i in range(4):
        for j in range(i + 1, 4):
            if not s.has_edge(quad[i], quad[j]):
                raise RuntimeError("removed vertices do not induce a K4")
    return e


# ------------------------------------------------------------------ merging


def merge_components(e: Embedding) -> Embedding:
    """Reconnect two sum components by swapping the image neighbourhoods of
    one low vertex from each: the new embedding is (y1 y2) after the old.

    The swap vertices are the lowest-numbered in their components whose
    two image edges can be dropped without disconnecting the component;
    the four rewired image edges then run between the two components, so
    the component count drops by exactly one.
    """
    ps = make_sum(e)
    comps = connected_components(ps.sum)
    if len(comps) < 2:
        raise ValueError("sum is already connected; nothing to merge")
    before = len(comps)
    y1 = _swap_vertex(ps.sum, ps.red, comps[0])
    y2 = _swap_vertex(ps.sum, ps.red, comps[1])
    swap = {y1: y2, y2: y1}
    image = tuple(swap.get(w, w) for w in e.perm.image)
    trace = e.trace + (_step("merge", swap=[y1, y2]),)
    merged = Embedding(e.graph, Permutation(image), trace)
    after = len(connected_components(make_sum(merged).sum))
    if after != before - 1:
        raise RuntimeError("merge must reduce the component count by exactly one")
    return merged


def _swap_vertex(total: Graph, red: Graph, comp: list[int]) -> int:
    """Lowest vertex whose two red edges are not needed for connectivity:
    with them dropped from the sum, comp is still one component."""
    for v in comp:
        drop = red.adj[v]
        adj = [row & ~(1 << v) if drop >> u & 1 else row for u, row in enumerate(total.adj)]
        adj[v] &= ~drop
        if comp in connected_components(Graph(total.n, tuple(adj))):
            return v
    raise AssertionError("every component has a removable vertex")  # pragma: no cover


def merge_until_connected(e: Embedding) -> Embedding:
    """Iterate the neighbour-swap merge until the sum is connected."""
    while len(connected_components(make_sum(e).sum)) > 1:
        e = merge_components(e)
    return e


# ------------------------------------------------------ explicit small cases


def _onto_cycles(ct: CycleType, cycles, trace: tuple) -> Embedding:
    """The packing of realize(ct) that sends each black cycle, in block
    order, onto the listed image cycle of the same length, vertex by
    vertex in the listed order."""
    image = [0] * ct.total
    for (start, m), cyc in zip(ct.blocks(), cycles):
        if m != len(cyc):
            raise RuntimeError(f"image cycle {cyc} does not have the length {m} of its black cycle")
        image[start : start + m] = cyc
    return Embedding(realize(ct), Permutation(tuple(image)), trace)


def _onto_layout(black: Graph) -> Permutation:
    """The relabelling tau of a 2-factor that sends each of its cycles, in
    _cycle_list order, vertex by vertex onto its block of realize, so
    apply_permutation(black, tau) is the canonical realization."""
    return Permutation(tuple(v for cyc in _cycle_list(black) for v in cyc)).inverse()


_TRIANGLE_LISTS: dict[tuple, dict[str | None, list[tuple[int, int, int]]]] = {
    (3, 3, 3): {None: [(0, 3, 6), (1, 4, 7), (2, 5, 8)]},
    (3, 3, 3, 3): {None: [(0, 3, 6), (4, 7, 10), (2, 8, 11), (1, 5, 9)]},
    (3, 3, 3, 3, 3): {
        "A": [(0, 3, 6), (1, 9, 12), (2, 5, 13), (4, 7, 10), (8, 11, 14)],
        "B": [(0, 3, 6), (1, 4, 7), (2, 10, 13), (5, 9, 12), (8, 11, 14)],
    },
}


def triangle_list_packing(ct: CycleType, variant: str | None = None) -> Embedding:
    """Pack disjoint triangles onto an explicit list of image triangles.

    Supported types: three and four triangles (the unique packings) and
    five triangles in two variants, A and B, separated by the maximum
    triangle count over 9-vertex subsets of the sum (<= 4 for A, >= 5
    for B).
    """
    table = _TRIANGLE_LISTS.get(ct.lengths)
    if table is None:
        raise ValueError(f"no triangle list for {ct}")
    if variant not in table:
        if None in table:
            raise ValueError(f"{ct} has one triangle list and takes no variant")
        raise ValueError(f"{ct} needs a variant, one of {', '.join(table)}")
    trace = (_step("triangle-list", cycle_type=list(ct.lengths), variant=variant),)
    return _onto_cycles(ct, table[variant], trace)


_BXY_CYCLES: dict[tuple, dict[str, list[tuple[int, ...]]]] = {
    # four-cycles listed in image traversal order, one per black block
    (4, 4): {
        "bipartite": [(0, 5, 2, 7), (4, 1, 6, 3)],
        "nonbipartite": [(2, 4, 3, 5), (0, 6, 1, 7)],
    },
    (4, 4, 4): {
        "bipartite": [(0, 5, 2, 7), (4, 9, 6, 11), (8, 1, 10, 3)],
        "nonbipartite": [(2, 4, 3, 5), (6, 8, 7, 9), (0, 10, 1, 11)],
    },
}


def bxy_packing(ct: CycleType, variant: str) -> Embedding:
    """Pack unions of 4-cycles by crossing complete-bipartite blocks.

    The bipartite variant keeps the sum 2-coloured; the nonbipartite
    variant routes one image cycle across two black cycles, creating a
    K4.  Both claims are checked.
    """
    table = _BXY_CYCLES.get(ct.lengths)
    if table is None:
        raise ValueError(f"no crossed-block packing for {ct}")
    if variant not in table:
        raise ValueError(f"variant must be one of {sorted(table)}, got {variant!r}")
    trace = (_step("crossed-blocks", cycle_type=list(ct.lengths), variant=variant),)
    e = _onto_cycles(ct, table[variant], trace)
    if is_bipartite(make_sum(e).sum).bipartite != (variant == "bipartite"):
        raise RuntimeError(f"the {variant} crossed-block packing of {ct} fails its bipartite claim")
    return e


_EXPLICIT_UNIQUE: dict[tuple, tuple[int, ...]] = {
    # the single sum class of C3+C4 and C3+C5, written out
    (3, 4): (0, 6, 4, 1, 3, 2, 5),
    (3, 5): (2, 6, 4, 5, 0, 3, 1, 7),
}


def unique_packing(ct: CycleType) -> Embedding:
    """A packing of one of the uniquely embeddable types."""
    if ct.lengths in _EXPLICIT_UNIQUE:
        perm = Permutation(_EXPLICIT_UNIQUE[ct.lengths])
        trace = (_step("explicit-unique", cycle_type=list(ct.lengths)),)
        return Embedding(realize(ct), perm, trace)
    if ct.lengths in {(5,), (6,)}:
        return search_packing(ct)
    if ct.lengths in {(3, 3, 3), (3, 3, 3, 3)}:
        return triangle_list_packing(ct)
    raise ValueError(f"{ct} is not one of the uniquely embeddable types")


def cross_packing_33_6() -> Embedding:
    """The disconnected packing of C3+C3+C6: the two black triangles host
    an image 6-cycle alternating between them, while the black 6-cycle
    hosts two image triangles on its alternating positions."""
    ct = CycleType((3, 3, 6))
    perm = Permutation((6, 8, 10, 7, 9, 11, 0, 3, 1, 4, 2, 5))
    trace = (_step("cross-3-3-6", cycle_type=[3, 3, 6]),)
    e = Embedding(realize(ct), perm, trace)
    if len(connected_components(make_sum(e).sum)) != 2:
        raise RuntimeError("the crossed C3+C3+C6 packing does not have a sum of two components")
    return e


# ------------------------------------------------------------ divide & pack


def _first_split(ct: CycleType) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First split of the cycle multiset into two nonempty parts, both
    embeddable, in cycle-index bitmask order, each part sorted and the
    lexicographically smaller part first."""
    k = ct.cycle_count
    for mask in range(1, (1 << k) - 1):
        part1 = tuple(sorted(ct.lengths[i] for i in range(k) if mask >> i & 1))
        part2 = tuple(sorted(ct.lengths[i] for i in range(k) if not mask >> i & 1))
        if NOT_EMBEDDABLE_TYPES.isdisjoint((part1, part2)):
            return (part1, part2) if part1 <= part2 else (part2, part1)
    return None


def divide_and_pack(ct: CycleType, split: tuple[tuple[int, ...], tuple[int, ...]] | None = None) -> Embedding:
    """Pack two disjoint sub-unions independently; the sum is disconnected.

    split gives the two length multisets; None picks the first valid
    split in deterministic order.  Each part must be an embeddable type.
    The parts' pack_some packings run side by side on the disjoint union
    of their realizations, which _onto_layout relabels onto realize(ct):
    equal-length cycles of the first part take the first such blocks.
    """
    if ct.cycle_count < 2:
        raise ValueError("need at least two cycles to divide")
    if split is None:
        split = _first_split(ct)
        if split is None:
            raise ValueError(f"{ct} admits no split into two embeddable parts")
    part1, part2 = (tuple(sorted(split[0])), tuple(sorted(split[1])))
    if tuple(sorted(part1 + part2)) != ct.lengths:
        raise ValueError(f"split {split} does not partition {ct}")
    for part in (part1, part2):
        if part in NOT_EMBEDDABLE_TYPES:
            raise ValueError(f"part {CycleType(part)} of the split is not embeddable")

    sub1, sub2 = (pack_some(CycleType(part)) for part in (part1, part2))
    side_by_side = Permutation(sub1.perm.image + tuple(sub1.graph.n + w for w in sub2.perm.image))
    tau = _onto_layout(disjoint_union(sub1.graph, sub2.graph))
    perm = tau.compose(side_by_side.compose(tau.inverse()))
    trace = (
        _step("divide", cycle_type=list(ct.lengths), split=[list(part1), list(part2)]),
    )
    e = Embedding(realize(ct), perm, trace)
    if len(connected_components(make_sum(e).sum)) < 2:
        raise RuntimeError(f"the divided packing of {ct} has a connected sum")
    return e


def pack_some(ct: CycleType) -> Embedding:
    """Some valid packing of any embeddable cycle type, deterministically."""
    lengths = ct.lengths
    if lengths in NOT_EMBEDDABLE_TYPES:
        raise ValueError(f"{ct} is not embeddable")
    if lengths in UNIQUE_TYPES:
        return unique_packing(ct)
    if lengths == (3, 3, 3, 3, 3):
        return triangle_list_packing(ct, "A")
    if len(lengths) == 1:
        e = rotate_embedding(lengths[0])
        if lengths[0] % 2:
            return e
        return e.with_trace((_step("coprime-shift", cycle_type=list(lengths)),))
    if lengths in _BXY_CYCLES:
        return bxy_packing(ct, "bipartite")
    if lengths == (3, 3, 6):
        return cross_packing_33_6()
    if len(lengths) == 3 and lengths[0] == 3 and lengths[1] == 3 and lengths[2] >= 7:
        return k4_embedding(ct)
    split = _first_split(ct)
    if split is not None:
        return divide_and_pack(ct, split)
    # leftover small exceptional types: first hit of the reduced search
    return search_packing(ct)


# --------------------------------------------------------------- ladders


def embedding_from_red_edges(ct: CycleType, red: Graph) -> Embedding:
    """Build a packing of realize(ct) whose image edge set is exactly red,
    by mapping black cycles onto image cycles of equal length in order."""
    if recognize_two_factor(red) != ct:
        raise ValueError("image edge set is not a union of cycles of the given type")
    return _onto_cycles(ct, _cycle_list(red), ())


def _rewire(g: Graph, n: int, drop, paths) -> Graph:
    """g on n vertices, without the edges in drop and with the edges of
    each path in paths."""
    gone = {(min(e), max(e)) for e in drop}
    edges = [e for e in g.edges() if e not in gone]
    edges += [(x, y) for path in paths for x, y in zip(path, path[1:])]
    return build_graph(n, edges)


def ladder_extend(template: str, l: int) -> Embedding:
    """Lengthen the longest cycle of a fixture's packing by 2l while
    keeping every invariant the fixture declares.

    template names the base fixture; its FixtureSpec gives the base type
    and the declared invariants.  Two black edges u1w1 and u2w2 of the
    longest cycle are subdivided by the new vertices a_1..a_l and
    b_1..b_l; the image edge from w1 to its red neighbour q is rerouted
    as the alternating ladder path q a_1 b_1 .. a_l b_l w1 ("far" rungs)
    or q a_l b_l .. a_1 b_1 w1 ("near" rungs, tried only when l > 1,
    where the two differ), which lengthens the matching image cycle by
    2l as well.  Placements run
    over edge u1w1 and its orientation, then edge u2w2 and its
    orientation, then q in ascending order, then the rung order.  The
    subdivided black graph and its relabelling onto realize depend on
    the edge pair alone and are built once per pair.  A placement is
    accepted when its image is edge-disjoint from the black graph, is a
    2-factor of the extended type, and gives a sum with the declared
    invariants.  ValueError when none does.
    """
    spec = next((f for f in FIXTURE_SPECS if f.name == template), None)
    if spec is None:
        raise ValueError(f"unknown ladder base {template!r}; a ladder extends a fixture")
    if l < 1:
        raise ValueError(f"ladder depth must be at least 1, got {l}")

    base = load_fixture(template)
    ct = CycleType(spec.cycle_type)
    n = ct.total
    start, m = ct.blocks()[-1]  # longest cycle is extended
    red = base.red_graph()
    new_n = n + 2 * l
    a = range(n, n + l)
    b = range(n + l, new_n)
    new_ct = CycleType(ct.lengths[:-1] + (m + 2 * l,))
    rung_orders = [[v for i in range(l) for v in (a[i], b[i])]]
    if l > 1:
        rung_orders.append([v for i in reversed(range(l)) for v in (a[i], b[i])])
    edges = [(start + i, start + (i + 1) % m) for i in range(m)]
    oriented = [pair for edge in edges for pair in (edge, edge[::-1])]

    for u1, w1 in oriented:
        for u2, w2 in oriented:
            if {u2, w2} == {u1, w1}:
                continue
            black = _rewire(base.graph, new_n, [(u1, w1), (u2, w2)], [[u1, *a, w1], [u2, *b, w2]])
            tau = _onto_layout(black)
            for q, rungs in product(bits(red.adj[w1]), rung_orders):
                new_red = _rewire(red, new_n, [(q, w1)], [[q, *rungs, w1]])
                if any(x & y for x, y in zip(black.adj, new_red.adj)):
                    continue
                if recognize_two_factor(new_red) != new_ct:
                    continue
                e = embedding_from_red_edges(new_ct, apply_permutation(new_red, tau))
                s = make_sum(e).sum
                if not satisfies(s, spec.invariants):
                    continue
                step = _step("ladder", cycle_type=list(new_ct.lengths), template=template, l=l)
                return e.with_trace((step,))
    raise ValueError(f"no placement extends {template} by l={l} with {spec.invariants}")


# ------------------------------------------------------- two distinct sums


@dataclass(frozen=True)
class DistinctPair:
    """Two packings of one type with provably non-isomorphic sums."""

    cycle_type: CycleType
    first: Embedding
    second: Embedding
    invariant: str
    certificate: str


# types whose two packings are both fixtures: (first, second, separating invariant)
_FIXTURE_PAIRS: dict[tuple[int, ...], tuple[str, str, str]] = {
    (3, 3, 4): ("c3c3c4-k4", "c3c3c4-k4free", "k4"),
    (3, 3, 5): ("c3c3c5-p4", "c3c3c5-nop4", "p4-neighborhood"),
    (3, 4, 4): ("c3c4c4-k4", "c3c4c4-k4free", "k4"),
    (3, 3, 3, 4): ("c3c3c3c4-cut", "c3c3c3c4-2conn", "cut-vertex"),
}

# ladder families by fixture name prefix: the base length of the last
# cycle for an even and for an odd target length
_LADDER_BASES = {"c3c": (6, 7), "c4c": (6, 5), "c3c3c": (8, 7)}


def _invariant_pair(ct, first, second, key) -> DistinctPair:
    """The pair separated by the registry invariant key, certified as
    "<label>: v1 vs v2"."""
    v1 = invariant_value(make_sum(first).sum, key)
    v2 = invariant_value(make_sum(second).sum, key)
    if v1 == v2:
        raise RuntimeError(f"{key} fails to separate the two packings of {ct}")
    return DistinctPair(ct, first, second, key, f"{INVARIANTS[key].label}: {v1} vs {v2}")


def _fixture_or_ladder(prefix: str, variant: str, p: int) -> Embedding:
    """The family's fixture whose last cycle has the base length of p's
    parity, ladder-extended to length p when p is longer."""
    base = _LADDER_BASES[prefix][p % 2]
    name = f"{prefix}{base}-{variant}"
    return load_fixture(name) if p == base else ladder_extend(name, (p - base) // 2)


def _second_class_search(ct: CycleType, first: Embedding) -> Embedding:
    """First leaf of the reduced search whose sum is not isomorphic to
    first's: the first leaf, or else the witness of the second class."""
    want_not = canonical_form(make_sum(first).sum)
    classes = sum_classes(first.graph, class_limit=2).classes
    hit = next((e for cf, e in classes.items() if cf != want_not), None)
    if hit is None:
        raise RuntimeError(f"no second sum class found for {ct}")
    step = _step(
        "search-second-class",
        cycle_type=list(ct.lengths),
        distinct_from=list(first.perm.image),
    )
    return hit.with_trace((step,))


def two_distinct_embeddings(ct: CycleType) -> DistinctPair:
    """Two packings of ct with non-isomorphic sums, plus the separating
    invariant, for every type that is neither impossible nor unique."""
    lengths = ct.lengths
    if lengths in NOT_EMBEDDABLE_TYPES:
        raise ValueError(f"{ct} admits no packing at all")
    if lengths in UNIQUE_TYPES:
        raise ValueError(f"{ct} has exactly one packing sum")
    if lengths == (7,):
        first = rotate_embedding(7, 2)
        return _invariant_pair(ct, first, _second_class_search(ct, first), "complement-class")
    if len(lengths) == 1:  # a K4 closure against the K4-free rotation
        return _invariant_pair(ct, k4_embedding(ct), pack_some(ct), "k4")
    if lengths in _FIXTURE_PAIRS:
        first_name, second_name, key = _FIXTURE_PAIRS[lengths]
        return _invariant_pair(ct, load_fixture(first_name), load_fixture(second_name), key)
    if lengths in _BXY_CYCLES:
        first = bxy_packing(ct, "nonbipartite")
        return _invariant_pair(ct, first, bxy_packing(ct, "bipartite"), "bipartite")
    if lengths == (4, 7):
        return _invariant_pair(ct, k4_embedding(ct), load_fixture("c4c7-k4free"), "k4")
    p = lengths[-1]
    if len(lengths) == 2 and lengths[0] in (3, 4):
        prefix = f"c{lengths[0]}c"
        first = _fixture_or_ladder(prefix, "planar", p)
        return _invariant_pair(ct, first, _fixture_or_ladder(prefix, "nonplanar", p), "planar")
    if len(lengths) == 3 and lengths[:2] == (3, 3) and p >= 7:
        return _invariant_pair(ct, k4_embedding(ct), _fixture_or_ladder("c3c3c", "k4free", p), "k4")
    if lengths == (3, 3, 3, 3, 3):
        first = triangle_list_packing(ct, "A")
        return _invariant_pair(ct, first, triangle_list_packing(ct, "B"), "triangle-max")
    # every other type: a disconnected packing against its merge
    first = cross_packing_33_6() if lengths == (3, 3, 6) else divide_and_pack(ct)
    return _invariant_pair(ct, first, merge_until_connected(first), "connectivity")


# ------------------------------------------------------------------ search


def search_packing(ct: CycleType, **require: bool) -> Embedding:
    """First packing in reduced search order whose sum meets the given
    SearchConstraints require_* filters, traced as a "search" step."""
    found = find_embedding(realize(ct), SearchConstraints(**require), reduced=True)
    if found is None:
        raise ValueError("no packing satisfies the given constraints")
    return found.with_trace((_step("search", cycle_type=list(ct.lengths), reduced=True, **require),))


# ------------------------------------------------------------------ replay


def replay_trace(ct: CycleType, trace) -> Embedding:
    """Rebuild an embedding from its construction trace and check that it
    is a packing of the expected type."""
    e: Embedding | None = None
    for st in trace:
        op, p = st.op, st.params
        if op == "merge":
            if e is None:
                raise ValueError("merge step without a packing to merge")
            e = merge_components(e)
            continue
        if e is not None:
            raise ValueError(f"step {op!r} must open the trace")
        sub = CycleType(tuple(p["cycle_type"])) if "cycle_type" in p else None
        if op == "rotate":
            e = rotate_embedding(p["cycle_type"][0], p["r"])
        elif op == "coprime-shift":
            e = rotate_embedding(p["cycle_type"][0])
        elif op == "k4-extension":
            e = k4_embedding(sub, p["cycle_index"], p["offset"])
        elif op == "triangle-list":
            e = triangle_list_packing(sub, p["variant"])
        elif op == "crossed-blocks":
            e = bxy_packing(sub, p["variant"])
        elif op == "explicit-unique":
            e = unique_packing(sub)
        elif op == "cross-3-3-6":
            e = cross_packing_33_6()
        elif op == "divide":
            e = divide_and_pack(sub, (tuple(p["split"][0]), tuple(p["split"][1])))
        elif op == "search":
            e = search_packing(sub, **{k: v for k, v in p.items() if k.startswith("require_")})
        elif op == "search-second-class":
            ref = Embedding(realize(sub), Permutation(tuple(p["distinct_from"])))
            e = _second_class_search(sub, ref)
        elif op == "fixture":
            e = load_fixture(p["name"])
        elif op == "ladder":
            e = ladder_extend(p["template"], p["l"])
        else:
            raise ValueError(f"unknown trace step {op!r}")
    if e is None:
        raise ValueError("empty trace")
    if e.graph != realize(ct):
        raise ValueError(f"trace rebuilds a packing of {recognize_two_factor(e.graph)}, not {ct}")
    return e
