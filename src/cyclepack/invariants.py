"""Exact isomorphism machinery and the structural invariants used to
tell packing sums apart.

"Distinct" always means non-isomorphic, so the canonical form must be
exact.  It is an individualise-refine-prune search in the manner of
McKay & Piperno, "Practical graph isomorphism, II" (2014): a partition
seeded by degree and triangle count, equitable refinement, branching on
the first non-singleton cell, and pruning by the automorphisms that
equal leaf encodings prove.  The least adjacency encoding over the
leaves is the form; pruning never changes it.  Highly symmetric graphs
(edgeless, complete, unions of triangles) stay cheap up to n = 24.

The distinguishers are the ones that show up in proofs about 4-regular
packing sums: K4 subgraphs, bipartiteness (with odd-cycle witness),
planarity, cut vertices, a vertex whose open neighbourhood induces P4,
and the maximum number of triangles an induced subset of given size can
carry.

Planarity has one trust chain in both directions.  The first proof of
non-planarity is a count: a block with fewer triangles than Euler's
formula demands of a plane one is not planar.  networkx proposes a
verdict only for the blocks the count leaves open, and the package
checks a planar verdict's rotation system by a face count and a
non-planar one's K5 or K3,3 subdivision.  A proposal that fails its
check raises RuntimeError, which the CLI maps to exit 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph import Graph, biconnected_blocks, bits

CanonicalForm = bytes

_CANON_MAX = 24
_TRIANGLE_MAX = 18


def canonical_form(g: Graph) -> CanonicalForm:
    """Exact canonical form of g; equal bytes iff isomorphic graphs, so
    comparing forms is the package's isomorphism test.

    The form is the least adjacency encoding over the leaves of an
    individualise-refine search tree.  The root partition groups the
    vertices by (degree, triangles through v); each node refines its
    partition to an equitable one and branches on every vertex of the
    first non-singleton cell.  Every step commutes with relabelling, so
    an automorphism fixing a node's individualised prefix pointwise maps
    that node's partition onto itself and one child's subtree onto
    another's, leaf by leaf, with equal encodings.

    Automorphisms come only from leaves: a leaf whose encoding equals the
    first or the best leaf's proves that the map between the two vertex
    orders is an automorphism.  They are applied only where they fix the
    prefix pointwise.  A node explores one child per orbit of the
    automorphisms found so far that fix its prefix.  A leaf equivalent to
    an earlier one also ends its own branch: at the node where the two
    paths split, the automorphism fixes the prefix and maps the earlier,
    explored child onto the current one.  Either way a skipped subtree
    only repeats encodings already met, so the minimum is the one the
    unpruned search would find.
    """
    if g.n > _CANON_MAX:
        raise ValueError(f"canonical_form limited to n <= {_CANON_MAX}, got {g.n}")
    n = g.n
    if n == 0:
        return b"\x00"
    adj = g.adj

    def refine(cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        while True:
            cell_mask = []
            for cell in cells:
                m = 0
                for v in cell:
                    m |= 1 << v
                cell_mask.append(m)
            new_cells: list[tuple[int, ...]] = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    sig = tuple((adj[v] & cm).bit_count() for cm in cell_mask)
                    groups.setdefault(sig, []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                    continue
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
            cells = new_cells
            if not changed:
                return cells

    def encode(order: list[int]) -> int:
        acc = 0
        for i in range(n):
            vi = order[i]
            row = adj[vi]
            for j in range(i + 1, n):
                acc = (acc << 1) | (row >> order[j] & 1)
        return acc

    def find(parent: list[int], v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(parent: list[int], cell: tuple[int, ...], gamma: list[int]) -> None:
        for v in cell:
            a, b = find(parent, v), find(parent, gamma[v])
            if a != b:
                parent[max(a, b)] = min(a, b)

    path: list[int] = []  # individualised vertices, root to current node
    open_nodes: list[tuple[tuple[int, ...], list[int]]] = []  # (target cell, orbits) per level
    autos: list[list[int]] = []
    first: list = []  # [encoding, order, path] of the first leaf
    best: list = []  # the same for the least leaf so far

    def leaf(order: list[int]) -> int:
        """Score a leaf; return the level to unwind to (n: carry on)."""
        enc = encode(order)
        if not first:
            first[:] = best[:] = [enc, order, path[:]]
            return n
        if enc < best[0]:
            best[:] = [enc, order, path[:]]
            return n
        for enc0, order0, path0 in (first, best):
            if enc == enc0:
                gamma = list(range(n))
                for u, v in zip(order0, order):
                    gamma[u] = v
                autos.append(gamma)
                split = 0
                while path0[split] == path[split]:
                    split += 1
                for cell, parent in open_nodes[: split + 1]:
                    merge(parent, cell, gamma)
                return split
        return n

    def search(cells: list[tuple[int, ...]]) -> int:
        """Explore one node; return the level to unwind to (n: carry on)."""
        cells = refine(cells)
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            return leaf([c[0] for c in cells])
        level = len(path)
        parent = list(range(n))
        for gamma in autos:
            if all(gamma[v] == v for v in path):
                merge(parent, cell, gamma)
        open_nodes.append((cell, parent))
        explored: list[int] = []
        back = n
        for v in cell:
            root = find(parent, v)
            if any(find(parent, w) == root for w in explored):
                continue
            explored.append(v)
            rest = tuple(w for w in cell if w != v)
            path.append(v)
            back = search(cells[:idx] + [(v,), rest] + cells[idx + 1 :])
            path.pop()
            if back < level:
                break
        open_nodes.pop()
        return back if back < level else n

    by_key: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        row = adj[v]
        triangles = sum((adj[u] & row).bit_count() for u in bits(row)) // 2
        by_key.setdefault((row.bit_count(), triangles), []).append(v)
    search([tuple(by_key[k]) for k in sorted(by_key)])
    nbits = n * (n - 1) // 2
    return bytes([n]) + best[0].to_bytes((nbits + 7) // 8 or 1, "big")


def contains_k4(g: Graph) -> tuple[int, int, int, int] | None:
    """First 4-subset inducing a complete graph, or None."""
    adj = g.adj
    for a in range(g.n):
        # each next vertex is a common neighbour of the earlier ones, above the last
        for b in bits(adj[a] & -1 << a + 1):
            ab = adj[a] & adj[b]
            for c in bits(ab & -1 << b + 1):
                for d in bits(ab & adj[c] & -1 << c + 1):
                    return a, b, c, d
    return None


@dataclass(frozen=True)
class BipartiteResult:
    bipartite: bool
    sides: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: tuple[int, ...] | None


def is_bipartite(g: Graph) -> BipartiteResult:
    """Two-colour g, or return an odd cycle as counterexample."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v in bits(g.adj[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteResult(False, None, _odd_cycle(parent, u, v))
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return BipartiteResult(True, (side0, side1), None)


def _odd_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    # u and v have one colour, and a BFS edge joins depths that differ by at
    # most one, so u and v have one depth: climbing both branches in lockstep
    # reaches their common ancestor on both sides at the same step
    up, vp = [u], [v]
    while up[-1] != vp[-1]:
        up.append(parent[up[-1]])
        vp.append(parent[vp[-1]])
    return tuple(up + vp[-2::-1])


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    witness_kind: str | None = None  # "K5" or "K3,3"
    branch_vertices: tuple[int, ...] | None = None
    paths: tuple[tuple[int, ...], ...] | None = None


def is_planar(g: Graph) -> PlanarityResult:
    """Exact planarity; a non-planar verdict carries a checked K5 or K3,3
    subdivision witness, a planar one rests on checked rotation systems.

    A biconnected block with cyclomatic number <= 3 cannot host a K3,3
    (cyclomatic 4) or K5 (cyclomatic 6) subdivision.  A larger block
    with fewer triangles than a plane block must bound is non-planar by
    that count alone; networkx proposes a verdict for every other
    block.  The package checks a rotation system by a face count and
    cuts a subdivision out of each non-planar block
    (_kuratowski_witness).  A proposal that fails its check raises
    RuntimeError (exit 2 from the CLI).
    """
    for edges in _unsettled_blocks(g):
        return PlanarityResult(False, *_kuratowski_witness(edges))
    return PlanarityResult(True)


def proven_planar(g: Graph) -> bool:
    """True iff every block of g is planar by its size or by a checked
    rotation system, the proofs is_planar takes before any witness.

    A block the triangle count rules out makes it False with no
    networkx call.  One-sided: True proves planarity, False proves
    nothing.  It is how oracle.satisfies accepts a declared planar sum;
    a filter claims nothing about what it rejects.  A rotation system
    that fails its check raises RuntimeError.  Every printed verdict
    goes through is_planar.
    """
    return next(_unsettled_blocks(g), None) is None


def _unsettled_blocks(g: Graph):
    """Edge tuple of each biconnected block, in order, that neither its
    cyclomatic number nor a checked rotation system proves planar; any
    Kuratowski subdivision lives in one of these.  A block with too few
    triangles to be plane is yielded on that count, and networkx is
    asked only about the blocks the count leaves open."""
    for block in biconnected_blocks(g):
        bmask = sum(1 << v for v in block)
        if sum((g.adj[v] & bmask).bit_count() for v in block) <= 2 * (len(block) + 2):
            continue
        edges = tuple((u, v) for u in sorted(block) for v in bits(g.adj[u] & bmask) if u < v)
        if _too_few_triangles(g, bmask, edges):
            yield edges
            continue
        rotation = _rotation_system(edges)
        if rotation is None:
            yield edges
        else:
            _check_rotation(edges, rotation)


def _too_few_triangles(g: Graph, bmask: int, edges) -> bool:
    """True if the 2-connected block on these edges (vertex mask bmask,
    n >= 4) has too few triangles to be planar."""
    # Euler: f = e - n + 2 faces of length >= 3 sum to 2e, so >= 2e - 4n + 8 bound distinct triangles
    triangles = sum((g.adj[u] & g.adj[v] & bmask).bit_count() for u, v in edges) // 3
    return triangles < 2 * len(edges) - 4 * bmask.bit_count() + 8


def _rotation_system(edges) -> dict[int, list[int]] | None:
    """networkx's proposal for the graph on these edges: the clockwise
    rotation of a planar embedding, or None for "not planar".  The
    package's one call into networkx; callers check what it returns."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(edges)
    planar, embedding = nx.check_planarity(graph)
    return {v: list(embedding.neighbors_cw_order(v)) for v in embedding} if planar else None


def _check_rotation(edges, rotation: dict[int, list[int]]) -> None:
    """Raise RuntimeError unless the rotation embeds the block in the
    plane: every rotation is a cyclic order of the exact neighbourhood,
    and the faces traced from it satisfy v - e + f = 2."""
    nbrs = _neighbours(edges)
    if rotation.keys() != nbrs.keys() or any(sorted(rotation[v]) != sorted(nbrs[v]) for v in nbrs):
        raise RuntimeError("networkx's rotation system does not match the block's neighbourhoods")
    succ = {}
    for v, order in rotation.items():
        for i, u in enumerate(order):
            # next darts of face traversal: after u->v comes v->order[i+1]
            succ[(u, v)] = (v, order[(i + 1) % len(order)])
    # with exact neighbourhoods succ permutes the darts, so every face closes
    darts = set(succ)
    faces = 0
    while darts:
        start = darts.pop()
        faces += 1
        cur = succ[start]
        while cur != start:
            darts.remove(cur)
            cur = succ[cur]
    if len(nbrs) - len(edges) + faces != 2:
        raise RuntimeError("networkx's rotation system fails the face count")


def _neighbours(edges) -> dict[int, list[int]]:
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    return nbrs


@lru_cache(maxsize=1024)
def _kuratowski_witness(edges) -> tuple[str, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(kind, branch vertices, paths) of a checked K5 or K3,3 subdivision
    in the block on these edges, which networkx calls non-planar.

    Vertices, then edges, are deleted while networkx still calls the
    rest non-planar, until the rest reads as a subdivision, as an
    edge-minimal non-planar graph does by Kuratowski's theorem.  If it
    never does, networkx answered wrongly: RuntimeError.  Memoised, as
    a filter and then a certificate often ask about one sum in turn.
    """
    keep = edges
    witness = _read_subdivision(keep)

    def delete(gone) -> None:
        nonlocal keep, witness
        rest = tuple(e for e in keep if e not in gone)
        if witness is None and len(rest) < len(keep) and _rotation_system(rest) is None:
            keep, witness = rest, _read_subdivision(rest)

    for v in sorted({v for e in edges for v in e}):
        delete({e for e in keep if v in e})
    degree = Counter(v for e in keep for v in e)
    # an edge between vertices of high degree is the likelier to be spare
    for e in sorted(keep, key=lambda e: -degree[e[0]] - degree[e[1]]):
        delete({e})
    if witness is None:
        raise RuntimeError("networkx's non-planarity proposal leaves no K5 or K3,3 subdivision")
    return witness


def _read_subdivision(edges):
    """(kind, branch vertices, paths) if the edges form exactly a K5 or
    K3,3 subdivision, else None.  The branch vertices are the vertices of
    degree >= 3, and walking out of each one along vertices of degree 2
    gives the paths; _is_subdivision decides."""
    nbrs = _neighbours(edges)
    branch = tuple(sorted(v for v in nbrs if len(nbrs[v]) >= 3))
    walks = {}
    for a in branch:
        for x in nbrs[a]:
            path = [a, x]
            while len(nbrs[path[-1]]) == 2:
                y, z = nbrs[path[-1]]
                path.append(z if y == path[-2] else y)
            walks[a, path[-1]] = tuple(path)
    if len(branch) == 6:
        # the side of branch[0] is itself and the branch vertices it has no path to
        side = [v for v in branch if (branch[0], v) not in walks]
        branch = tuple(side) + tuple(v for v in branch if v not in side)
    kind = "K5" if len(branch) == 5 else "K3,3"
    paths = tuple(walks.get(pair, ()) for pair in _branch_pairs(kind, branch))
    return (kind, branch, paths) if _is_subdivision(edges, kind, branch, paths) else None


def _branch_pairs(kind: str, branch: tuple[int, ...]) -> list[tuple[int, int]]:
    """The branch pairs a subdivision links; K3,3's sides are branch[:3], branch[3:]."""
    if kind == "K5":
        return list(combinations(branch, 2))
    return [(a, b) for a in branch[:3] for b in branch[3:]]


def _is_subdivision(edges, kind: str, branch: tuple[int, ...], paths) -> bool:
    """True iff the paths form a subdivision of kind on branch that uses
    exactly the given edges: 5 or 6 distinct branch vertices, one path
    per pair of _branch_pairs running from its first vertex to its
    second, and interiors that avoid the branch vertices and one
    another, so no edge lies on two paths."""
    pairs = _branch_pairs(kind, branch)
    interior = [v for path in paths for v in path[1:-1]]
    used = {frozenset(e) for path in paths for e in zip(path, path[1:])}
    return (
        len(set(branch)) == len(branch) == (5 if kind == "K5" else 6)
        and len(paths) == len(pairs)
        and all(len(path) >= 2 and (path[0], path[-1]) == pair for pair, path in zip(pairs, paths))
        and len(set(interior) | set(branch)) == len(interior) + len(branch)
        and used == {frozenset(e) for e in edges}
    )


def has_p4_neighborhood_vertex(g: Graph) -> int | None:
    """First vertex whose open neighbourhood induces a path on 4 vertices."""
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        if len(nbrs) != 4:
            continue
        degs = []
        edge_count = 0
        nmask = g.adj[v]
        for u in nbrs:
            d = (g.adj[u] & nmask).bit_count()
            degs.append(d)
            edge_count += d
        # 3 induced edges with degree multiset {1,1,2,2} pins down P4
        if edge_count == 6 and sorted(degs) == [1, 1, 2, 2]:
            return v
    return None


def max_triangle_subset(g: Graph, size: int) -> tuple[int, tuple[int, ...]]:
    """Maximum triangle count over induced subsets of the given size, with witness."""
    if g.n > _TRIANGLE_MAX:
        raise ValueError(f"max_triangle_subset limited to n <= {_TRIANGLE_MAX}, got {g.n}")
    if not 0 < size <= g.n:
        raise ValueError(f"subset size {size} out of range for n={g.n}")
    triangles = []
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        for w in bits(common):
            if w > v:
                triangles.append((1 << u) | (1 << v) | (1 << w))
    best_count = -1
    best_subset: tuple[int, ...] = ()
    for subset in combinations(range(g.n), size):
        smask = 0
        for v in subset:
            smask |= 1 << v
        count = sum(1 for t in triangles if t & smask == t)
        if count > best_count:
            best_count = count
            best_subset = subset
    return best_count, best_subset
