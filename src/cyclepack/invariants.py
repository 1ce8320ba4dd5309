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
planarity (with an explicit K5/K3,3-subdivision witness), cut vertices,
a vertex whose open neighbourhood induces P4, and the maximum number of
triangles an induced subset of given size can carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, biconnected_blocks, bits

CanonicalForm = bytes

_CANON_MAX = 24
_TRIANGLE_MAX = 18


def canonical_form(g: Graph) -> CanonicalForm:
    """Exact canonical form of g; equal bytes iff isomorphic graphs.

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


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via canonical forms, after cheap screens."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(a.bit_count() for a in g.adj) != sorted(a.bit_count() for a in h.adj):
        return False
    return canonical_form(g) == canonical_form(h)


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
    """Exact planarity; a non-planar verdict always carries a K5 or K3,3
    subdivision witness, a planar one a self-verified certificate.

    Per biconnected block: a block with cyclomatic number <= 3 cannot
    host a K3,3 (cyclomatic 4) or K5 (cyclomatic 6) subdivision.  Next a
    fast planarity test supplies a rotation system that is accepted only
    after an independent face-count verification here.  Blocks passing
    neither are settled by exhaustive subdivision search, which is also
    the sole authority whenever the fast path or its verifier balks.

    The search tries K5 branch sets, then K3,3 ones, in lexicographic
    order, and packs their paths by backtracking.  Port counting prunes
    it: a branch vertex with fewer usable neighbours (unused free
    vertices, or partners it is adjacent to and still has to be linked
    to) than partners left is a dead end.  That is a necessary condition
    for a packing, so only subtrees without one are cut, the search order
    of the rest is unchanged, and the witness is the first one the
    unpruned search would return.
    """
    for block, bmask in _unsettled_blocks(g):
        for kind, branch, pairs in _branch_sets(g, block, bmask):
            paths = _pack_disjoint_paths(g, bmask, branch, pairs)
            if paths is not None:
                return PlanarityResult(False, kind, branch, tuple(paths))
    return PlanarityResult(True)


def proven_planar(g: Graph) -> bool:
    """True iff every block of g is planar by its size or by a verified
    rotation system, the proofs is_planar takes before any search.

    One-sided: True proves planarity, False proves nothing.  It is how
    oracle.satisfies accepts a declared planar sum; a sum it cannot
    prove is rejected without a Kuratowski search, since a filter claims
    nothing about what it rejects.  Every printed verdict goes through
    is_planar.
    """
    return next(_unsettled_blocks(g), None) is None


def _unsettled_blocks(g: Graph):
    """(block, mask) of each biconnected block, in order, that neither
    its cyclomatic number nor a verified rotation system proves planar;
    any Kuratowski subdivision lives in one of these."""
    for block in biconnected_blocks(g):
        if len(block) < 5:
            continue
        bmask = 0
        for v in block:
            bmask |= 1 << v
        e_block = sum((g.adj[v] & bmask).bit_count() for v in block) // 2
        if e_block <= len(block) + 2:
            continue
        if not _verified_rotation_system(g, block, bmask):
            yield block, bmask


def _verified_rotation_system(g: Graph, block: list[int], bmask: int) -> bool:
    """True iff a fast planarity test yields a rotation system for the
    block that passes the Euler face-count check done here.

    Trust chain: the external test only proposes an embedding; the
    verification below (every rotation is a cyclic order of the exact
    neighbourhood, faces traced from the rotation close up, and
    v - e + f = 2) is what certifies planarity.  Any failure falls back
    to exhaustive search.
    """
    import networkx as nx

    sub = nx.Graph()
    sub.add_nodes_from(block)
    edges = [(u, v) for u in block for v in bits(g.adj[u] & bmask) if u < v]
    sub.add_edges_from(edges)
    ok, cert = nx.check_planarity(sub, counterexample=False)
    if not ok:
        return False
    rotation = {v: list(cert.neighbors_cw_order(v)) for v in block}
    for v in block:
        if sorted(rotation[v]) != sorted(bits(g.adj[v] & bmask)):
            return False
    succ = {}
    for v, order in rotation.items():
        for i, u in enumerate(order):
            # next darts of face traversal: after u->v comes v->order[i+1]
            succ[(u, v)] = (v, order[(i + 1) % len(order)])
    darts = set(succ)
    if len(darts) != 2 * len(edges):
        return False
    faces = 0
    while darts:
        start = darts.pop()
        faces += 1
        cur = succ[start]
        while cur != start:
            if cur not in darts:
                return False
            darts.remove(cur)
            cur = succ[cur]
    return len(block) - len(edges) + faces == 2


def _branch_sets(g: Graph, block: list[int], bmask: int):
    """(kind, branch vertices, pairs to link) for every K5 branch set of
    the block, then every K3,3 one, each kind in lexicographic order."""
    degree = {v: (g.adj[v] & bmask).bit_count() for v in block}
    for branch in combinations([v for v in block if degree[v] >= 4], 5):
        yield "K5", branch, list(combinations(branch, 2))
    cands = [v for v in block if degree[v] >= 3]
    for side_a in combinations(cands, 3):
        rest = [v for v in cands if v not in side_a and v > side_a[0]]
        # side ordering fixed by requiring min(side_a) < min(side_b)
        for side_b in combinations(rest, 3):
            yield "K3,3", side_a + side_b, [(a, b) for a in side_a for b in side_b]


def _pack_disjoint_paths(g, bmask: int, branch, pairs) -> list[tuple[int, ...]] | None:
    """Internally-vertex-disjoint paths inside the block linking every pair.

    Branch vertices may appear only as endpoints; internal vertices are
    used by at most one path.  Exhaustive backtracking, shortest
    continuations first, pruned by port counting: the paths are
    internally disjoint, so each pair still to be linked needs its own
    first edge at each of its ends, into an unused free vertex or straight
    into the partner.  A branch with some branch vertex short of such
    usable neighbours is dead.  Every branch vertex is checked once before
    any path is placed, and the ones adjacent to a free vertex y each time
    a path takes y; the pair whose path is being built counts as linked,
    so the check covers the pairs after it.  Pruning cuts only subtrees
    without a packing and keeps the order of the rest, so the first
    packing found is the one the unpruned search finds.
    """
    branch_mask = 0
    for v in branch:
        branch_mask |= 1 << v
    free0 = bmask & ~branch_mask
    adj = g.adj
    need = dict.fromkeys(branch, 0)  # partners each branch vertex is still to be linked to
    for a, b in pairs:
        need[a] |= 1 << b
        need[b] |= 1 << a
    result: list[tuple[int, ...]] = []

    def starved(vs: int, usable: int) -> bool:
        """Some branch vertex in the mask vs has fewer usable neighbours
        than partners left to link."""
        for v in bits(vs):
            want = need[v]
            if (adj[v] & (usable | want)).bit_count() < want.bit_count():
                return True
        return False

    def place(i: int, free: int) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]
        need[a] ^= 1 << b
        need[b] ^= 1 << a

        def extend(path: list[int], used: int) -> bool:
            x = path[-1]
            if adj[x] >> b & 1:
                result.append(tuple(path + [b]))
                if place(i + 1, free & ~used):
                    return True
                result.pop()
            for y in bits(adj[x] & free & ~used):
                taken = used | (1 << y)
                if starved(adj[y] & branch_mask, free & ~taken):
                    continue
                path.append(y)
                if extend(path, taken):
                    return True
                path.pop()
            return False

        if extend([a], 0):
            return True
        need[a] ^= 1 << b
        need[b] ^= 1 << a
        return False

    if starved(branch_mask, free0) or not place(0, free0):
        return None
    return result


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
