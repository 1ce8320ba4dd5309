"""Small simple-graph kernel with bitset adjacency.

Vertices are 0..n-1.  Adjacency rows are Python ints used as bitsets, so
edge membership is one AND and neighbourhood iteration walks set bits.
Graphs are immutable values: every operation returns a new Graph.
Target scale is n <= 24, which keeps every row in a single machine word
territory.
"""

from __future__ import annotations

from dataclasses import dataclass


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # adj must already be a symmetric, loop-free bitset table
        self.n = n
        self.adj = adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for d in bits(higher):
                out.append((u, u + 1 + d))
        return out

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from an edge list, rejecting loops, bad endpoints and duplicates."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~a) & ~(1 << v) for v, a in enumerate(g.adj)))


def edge_sum(g: Graph, h: Graph) -> Graph:
    """Union of two edge-disjoint graphs on the same vertex set."""
    if g.n != h.n:
        raise ValueError(f"vertex count mismatch: {g.n} != {h.n}")
    for u in range(g.n):
        overlap = g.adj[u] & h.adj[u]
        if overlap:
            v = next(bits(overlap))
            raise ValueError(f"graphs share edge ({min(u, v)}, {max(u, v)})")
    return Graph(g.n, tuple(a | b for a, b in zip(g.adj, h.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Place h after g, relabelling h's vertices by +g.n."""
    adj = list(g.adj) + [a << g.n for a in h.adj]
    return Graph(g.n + h.n, tuple(adj))


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..n-1 stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        # 1.0 and True compare equal to 1, so only an entry's type refuses them
        if any(type(v) is not int for v in self.image):
            raise ValueError(f"perm entries must be integers, got {self.image!r}")
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError("image is not a bijection on 0..n-1")

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self) -> int:
        return len(self.image)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.image)
        for v, w in enumerate(self.image):
            inv[w] = v
        return Permutation(tuple(inv))

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self.compose(other))(v) == self(other(v))."""
        return Permutation(tuple(self.image[w] for w in other.image))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel g by p: edge (u, v) becomes (p(u), p(v))."""
    if len(p) != g.n:
        raise ValueError(f"permutation length {len(p)} != vertex count {g.n}")
    adj = [0] * g.n
    img = p.image
    for u in range(g.n):
        row = 0
        for v in bits(g.adj[u]):
            row |= 1 << img[v]
        adj[img[u]] = row
    return Graph(g.n, tuple(adj))


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of connected components, each sorted, ordered by least vertex."""
    seen = 0
    comps = []
    for s in range(g.n):
        if seen >> s & 1:
            continue
        frontier = 1 << s
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
        comps.append(list(bits(comp)))
        seen |= comp
    return comps


def biconnected_blocks(g: Graph) -> list[list[int]]:
    """Vertex sets of biconnected components (edge blocks) via iterative
    DFS lowpoints; a bridge is a block of two vertices and an isolated
    vertex lies in no block."""
    n = g.n
    num = [-1] * n
    low = [0] * n
    blocks: list[list[int]] = []
    stack: list[tuple[int, int]] = []  # edge stack
    counter = 0

    for root in range(n):
        if num[root] != -1:
            continue
        work = [(root, -1, bits(g.adj[root]))]
        num[root] = low[root] = counter
        counter += 1
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if num[w] == -1:
                    stack.append((v, w))
                    num[w] = low[w] = counter
                    counter += 1
                    work.append((w, v, bits(g.adj[w])))
                    advanced = True
                    break
                elif num[w] < num[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= num[pv]:
                    # the block is the tree edge (pv, v) and the edges above it
                    verts = set()
                    edge = None
                    while edge != (pv, v):
                        edge = stack.pop()
                        verts.update(edge)
                    blocks.append(sorted(verts))
    return blocks


def cut_vertices(g: Graph) -> set[int]:
    """The cut vertices of g: the vertices that lie in more than one block."""
    seen: set[int] = set()
    cuts = set()
    for block in biconnected_blocks(g):
        cuts.update(v for v in block if v in seen)
        seen.update(block)
    return cuts
