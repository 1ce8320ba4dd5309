"""Cycle types, their canonical realizations, and self-embeddings.

A 2-factor here is a vertex-disjoint union of cycles, each of length at
least 3, described up to isomorphism by the multiset of cycle lengths
(CycleType).  A self-embedding of such a graph G is a permutation of its
vertices that maps every edge onto a non-edge, i.e. an embedding of G
into its complement.  The packing sum is G together with its image: the
"black" edges of G plus the "red" image edges.  Two embeddings are
considered distinct when their packing sums are non-isomorphic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import Graph, Permutation, apply_permutation, build_graph, edge_sum
from .invariants import are_isomorphic

_PART = re.compile(r"^[Cc]?(\d+)$")


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored sorted ascending."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("cycle type must have at least one cycle")
        if any(m < 3 for m in self.lengths):
            bad = min(self.lengths)
            raise ValueError(f"cycle length below 3: {bad}")
        if list(self.lengths) != sorted(self.lengths):
            object.__setattr__(self, "lengths", tuple(sorted(self.lengths)))

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def cycle_count(self) -> int:
        return len(self.lengths)

    def render(self) -> str:
        return "+".join(f"C{m}" for m in self.lengths)

    def __str__(self) -> str:
        return self.render()

    def blocks(self) -> list[tuple[int, int]]:
        """(start, length) of each cycle in the canonical realization."""
        out = []
        start = 0
        for m in self.lengths:
            out.append((start, m))
            start += m
        return out

    def automorphism_count(self) -> int:
        """Order of the automorphism group of the realized graph.

        Each m-cycle contributes a dihedral factor 2m and equal-length
        cycles may be permuted among themselves.
        """
        total = 1
        run = 0
        prev = None
        for m in list(self.lengths) + [None]:
            if m == prev:
                run += 1
                continue
            if prev is not None:
                total *= (2 * prev) ** run
                for i in range(2, run + 1):
                    total *= i
            prev, run = m, 1
        return total


def parse_cycle_type(text: str) -> CycleType:
    """Parse "C3+C4" or "3+4" style cycle-type strings."""
    parts = text.strip().split("+")
    lengths = []
    for part in parts:
        m = _PART.match(part.strip())
        if not m:
            raise ValueError(f"cannot parse cycle-type part {part.strip()!r}")
        lengths.append(int(m.group(1)))
    return CycleType(tuple(lengths))


def realize(ct: CycleType) -> Graph:
    """Canonical labelled copy: cycles on consecutive vertex blocks, sorted ascending."""
    edges = []
    for start, m in ct.blocks():
        for i in range(m - 1):
            edges.append((start + i, start + i + 1))
        edges.append((start + m - 1, start))
    return build_graph(ct.total, edges)


def _cycle_list(g: Graph) -> list[list[int]]:
    """Cycles of a 2-regular graph, each from its least vertex toward its
    smaller neighbour, sorted by (length, least vertex)."""
    seen = 0
    cycles: list[list[int]] = []
    for v0 in range(g.n):
        if seen >> v0 & 1:
            continue
        cyc = [v0]
        prev, cur = v0, (g.adj[v0] & -g.adj[v0]).bit_length() - 1
        while cur != v0:
            cyc.append(cur)
            prev, cur = cur, (g.adj[cur] & ~(1 << prev)).bit_length() - 1
        for v in cyc:
            seen |= 1 << v
        cycles.append(cyc)
    cycles.sort(key=lambda c: (len(c), c[0]))
    return cycles


def recognize_two_factor(g: Graph) -> CycleType | None:
    """CycleType of g if g is 2-regular (a disjoint union of cycles), else None."""
    if g.n == 0 or any(a.bit_count() != 2 for a in g.adj):
        return None
    return CycleType(tuple(len(c) for c in _cycle_list(g)))


@dataclass(frozen=True)
class EmbeddingViolation:
    """Report of every edge of g whose image lands back on an edge of g."""

    clashes: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __str__(self) -> str:
        items = ", ".join(f"{e}->{img}" for e, img in self.clashes)
        return f"{len(self.clashes)} edge clash(es): {items}"


@dataclass(frozen=True)
class TraceStep:
    """One replayable construction step."""

    op: str
    params: dict


@dataclass(frozen=True)
class Embedding:
    """A validated self-embedding: perm maps every edge of graph to a non-edge."""

    graph: Graph
    perm: Permutation
    trace: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.perm) != self.graph.n:
            raise ValueError("permutation length does not match vertex count")
        clashes = _image_clashes(self.graph, self.perm)
        if clashes:
            raise ValueError(f"not an embedding: {EmbeddingViolation(clashes)}")

    def red_graph(self) -> Graph:
        return apply_permutation(self.graph, self.perm)

    def with_trace(self, trace: tuple) -> Embedding:
        return Embedding(self.graph, self.perm, trace)


def _image_clashes(g: Graph, p: Permutation) -> tuple:
    clashes = []
    img = p.image
    for u, v in g.edges():
        iu, iv = img[u], img[v]
        if g.has_edge(iu, iv):
            clashes.append(((u, v), (min(iu, iv), max(iu, iv))))
    return tuple(clashes)


def check_embedding(g: Graph, p: Permutation) -> Embedding | EmbeddingViolation:
    """Validate p as a self-embedding of g; return the Embedding or the full clash list."""
    if len(p) != g.n:
        raise ValueError("permutation length does not match vertex count")
    clashes = _image_clashes(g, p)
    if clashes:
        return EmbeddingViolation(clashes)
    return Embedding(g, p)


@dataclass(frozen=True)
class PackingSum:
    """Black edges of g, red image edges, and their edge-disjoint union."""

    black: Graph
    red: Graph
    sum: Graph


def make_sum(e: Embedding) -> PackingSum:
    """Assemble the packing sum of a validated embedding."""
    red = e.red_graph()
    return PackingSum(e.graph, red, edge_sum(e.graph, red))


def are_distinct(e1: Embedding, e2: Embedding) -> bool:
    """True iff the two packing sums are non-isomorphic."""
    return not are_isomorphic(make_sum(e1).sum, make_sum(e2).sum)
