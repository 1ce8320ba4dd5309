"""Exhaustive self-embedding search and the classification it certifies.

The enumerator assigns images vertex by vertex in label order and prunes
a branch the moment a fully-mapped edge lands on an edge of the host
graph, so no invalid permutation is ever visited.  Visitation order is
deterministic (ascending candidate images).

For a canonically realized union of cycles the search can quotient away
the host's automorphisms ("reduced" mode): within each cycle block the
first vertex must receive the smallest image of its block and the second
vertex a smaller image than the last one, and equal-length blocks must
receive images with ascending minima (_reduction_bounds, the one place
that decides whether g is that realization).  Each image edge set is
then visited exactly once, through its lexicographically least packing,
the one constructions.embedding_from_red_edges builds from the image,
and in the full search's order.  So the raw leaf count is the reduced
one times CycleType.automorphism_count(), and reduced mode changes only
leaves, visited and what visit sees: never a first hit, a class witness
or a class count.  On a relabelled 2-factor, bounds read from its own
cycles still keep one packing per edge set but not always the least, so
a first hit could move; only the canonical realization is reduced.

Classification compares this oracle against the closed-form verdict
table: embeddability fails exactly for C3, C4 and C3+C3; of the
embeddable types exactly C5, C6, C3+C4, C3+C5, C3+C3+C3 and
C3+C3+C3+C3 admit a single sum class; everything else admits at least
two.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from .embedding import CycleType, Embedding, make_sum, realize, recognize_two_factor
from .graph import Graph, Permutation, bits, complement, connected_components, cut_vertices
from .invariants import (
    _CANON_MAX,
    canonical_form,
    contains_k4,
    has_p4_neighborhood_vertex,
    is_bipartite,
    is_planar,
    max_triangle_subset,
    proven_planar,
)

SOFT_VERTEX_LIMIT = 14
_ENV_OVERRIDE = "CYCLEPACK_ALLOW_LARGE"

NOT_EMBEDDABLE_TYPES = {(3,), (4,), (3, 3)}
UNIQUE_TYPES = {(5,), (6,), (3, 4), (3, 5), (3, 3, 3), (3, 3, 3, 3)}


class Verdict(str, Enum):
    NOT_EMBEDDABLE = "not-embeddable"
    UNIQUE = "uniquely-embeddable"
    MULTIPLE = "multiply-embeddable"


@dataclass(frozen=True)
class SearchConstraints:
    """Leaf filters (tri-state: True/False/None=don't care) and stop rules.
    A stop rule, when set, is an int (not a bool) of at least 1."""

    require_k4: bool | None = None
    require_planar: bool | None = None
    require_connected: bool | None = None
    limit: int | None = None
    class_limit: int | None = None

    def __post_init__(self):
        for name in ("limit", "class_limit"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        _check_declared(self.declared())

    def declared(self) -> dict[str, bool]:
        """The set require_* filters as {invariant name: wanted value}."""
        out = {}
        for f in fields(self):
            want = getattr(self, f.name)
            if f.name.startswith("require_") and want is not None:
                out[f.name.removeprefix("require_")] = want
        return out


@dataclass
class SearchOutcome:
    """What an enumeration run saw and whether it ran to completion."""

    exhausted: bool
    visited: int  # embeddings that passed the constraints
    leaves: int  # all valid embeddings encountered
    classes: dict[bytes, Embedding] = field(default_factory=dict)


def _reduction_bounds(g: Graph) -> list[int | None] | None:
    """lb[v] = earlier vertex whose image must stay below image[v], else
    None; None in place of the list when g is not the canonical
    realization of its cycle type."""
    ct = recognize_two_factor(g)
    if ct is None or realize(ct) != g:
        return None
    lb: list[int | None] = [None] * ct.total
    prev_start: int | None = None
    prev_len: int | None = None
    for start, m in ct.blocks():
        if prev_len == m:
            lb[start] = prev_start
        for v in range(start + 1, start + m - 1):
            lb[v] = start
        lb[start + m - 1] = start + 1
        prev_start, prev_len = start, m
    return lb


def enumerate_embeddings(
    g: Graph,
    constraints: SearchConstraints | None = None,
    visit=None,
    *,
    reduced: bool = False,
    track_classes: bool = False,
) -> SearchOutcome:
    """Backtracking enumeration of all self-embeddings of g.

    visit(e) is called for each embedding passing the constraints; a
    False return stops the search.  reduced=True requires g to be the
    canonical realization of its cycle type and then visits one
    permutation per image edge set, under the contract in the module
    docstring.

    A search that can run through every leaf, because it has no stop
    rule or because a declared filter may reject every leaf, refuses g
    beyond SOFT_VERTEX_LIMIT vertices unless CYCLEPACK_ALLOW_LARGE=1.
    An unfiltered first-hit search has no vertex limit.
    """
    constraints = constraints or SearchConstraints()
    declared = constraints.declared()
    unbounded = constraints.limit is None and constraints.class_limit is None
    if (declared or unbounded) and g.n > SOFT_VERTEX_LIMIT and os.environ.get(_ENV_OVERRIDE) != "1":
        kind = "filtered search (its filter may reject every leaf)" if declared else "exhaustive enumeration"
        raise ValueError(
            f"{kind} of n={g.n} exceeds the soft limit {SOFT_VERTEX_LIMIT}; "
            f"set {_ENV_OVERRIDE}=1 to override"
        )
    lb = _reduction_bounds(g) if reduced else [None] * g.n
    if lb is None:
        raise ValueError("reduced mode requires the canonical realization of a cycle type")

    n = g.n
    adj = g.adj
    nbrs_before = [[u for u in bits(adj[v]) if u < v] for v in range(n)]
    full = (1 << n) - 1
    image = [0] * n
    track = track_classes or constraints.class_limit is not None
    out = SearchOutcome(exhausted=True, visited=0, leaves=0)

    def leaf() -> bool:
        out.leaves += 1
        e = Embedding(g, Permutation(tuple(image)))
        s = make_sum(e).sum if declared or track else None
        if declared and not satisfies(s, declared):
            return True
        out.visited += 1
        if track:
            cf = canonical_form(s)
            if cf not in out.classes:
                out.classes[cf] = e
                if constraints.class_limit is not None and len(out.classes) >= constraints.class_limit:
                    return False
        if visit is not None and visit(e) is False:
            return False
        return not (constraints.limit is not None and out.visited >= constraints.limit)

    # depth-first in vertex order with an explicit stack, so the depth
    # is not bounded by the interpreter's recursion limit
    untried = [0] * n  # images vertex v has yet to try on this branch
    used = [0] * (n + 1)  # images taken by the vertices before v
    v = 0
    while True:
        if v < n:
            allowed = full & ~used[v]
            for u in nbrs_before[v]:
                allowed &= ~adj[image[u]]
            b = lb[v]
            if b is not None:
                allowed &= -(2 << image[b])
            untried[v] = allowed
        elif not leaf():
            out.exhausted = False
            break
        else:
            v -= 1
        while v >= 0 and not untried[v]:
            v -= 1
        if v < 0:
            break
        low = untried[v] & -untried[v]
        untried[v] ^= low
        image[v] = low.bit_length() - 1
        used[v + 1] = used[v] | low
        v += 1
    return out


def find_embedding(
    g: Graph,
    constraints: SearchConstraints | None = None,
    *,
    reduced: bool = False,
) -> Embedding | None:
    """First embedding in deterministic search order satisfying the
    constraints; reduced mode returns the same one (see the module
    docstring)."""
    base = constraints or SearchConstraints()
    limited = replace(base, limit=1, class_limit=None)
    hit: list[Embedding] = []
    enumerate_embeddings(g, limited, visit=hit.append, reduced=reduced)
    return hit[0] if hit else None


def sum_classes(g: Graph, *, class_limit: int | None = None) -> SearchOutcome:
    """Isomorphism classes of packing sums with one witness embedding each.

    Exhausts the embedding space unless class_limit stops it early, so
    without class_limit g is held to the soft vertex limit; the classes
    dict maps canonical forms to first-found witnesses in deterministic
    order.  The search runs in reduced mode when g is a canonical
    cycle-type realization, which changes only the leaf count (see the
    module docstring).
    """
    constraints = SearchConstraints(class_limit=class_limit)
    reduced = _reduction_bounds(g) is not None
    return enumerate_embeddings(g, constraints, reduced=reduced, track_classes=True)


@dataclass(frozen=True)
class Classification:
    """Verdict for one cycle type, with up to two witness embeddings."""

    cycle_type: CycleType
    verdict: Verdict
    witnesses: tuple[Embedding, ...] = ()
    class_count: int | None = None
    exhausted: bool | None = None
    reduced_leaves: int | None = None

    @property
    def raw_leaves(self) -> int | None:
        """Total valid permutations, derived from the reduced count when exhausted."""
        if self.exhausted and self.reduced_leaves is not None:
            return self.reduced_leaves * self.cycle_type.automorphism_count()
        return None


def classify_by_theorem(ct: CycleType) -> Classification:
    """Closed-form verdict from the characterization table; no search."""
    if ct.lengths in NOT_EMBEDDABLE_TYPES:
        return Classification(ct, Verdict.NOT_EMBEDDABLE)
    if ct.lengths in UNIQUE_TYPES:
        return Classification(ct, Verdict.UNIQUE)
    return Classification(ct, Verdict.MULTIPLE)


def classify_by_oracle(ct: CycleType) -> Classification:
    """Verdict by exhaustive (reduced) search, stopping once two distinct
    sum classes are witnessed.  Takes every type up to _CANON_MAX (24)
    vertices, the canonical-form limit, with no override and refuses a
    larger one before any work; the soft limit 14 bounds only searches
    that can visit every leaf, and 18 only triangle-max."""
    if ct.total > _CANON_MAX:
        raise ValueError(f"oracle classification is limited to n <= {_CANON_MAX}, got {ct} (n={ct.total})")
    g = realize(ct)
    out = sum_classes(g, class_limit=2)
    count = len(out.classes)
    if count == 0:
        verdict = Verdict.NOT_EMBEDDABLE
    elif count == 1:
        verdict = Verdict.UNIQUE
    else:
        verdict = Verdict.MULTIPLE
    return Classification(
        ct,
        verdict,
        witnesses=tuple(out.classes.values())[:2],
        class_count=count,
        exhausted=out.exhausted,
        reduced_leaves=out.leaves,
    )


@dataclass(frozen=True)
class Invariant:
    """One isomorphism invariant of a sum: the label its certificates
    print and its check.  A valued invariant (a count or a type, not a
    yes/no answer) can separate a pair but cannot be declared."""

    label: str
    check: Callable[[Graph], object]
    valued: bool = False


# The one registry of sum invariants: every name a sum can be filtered
# on, declared with or certified by.  Census certificates name the first
# yes/no entry, in this order, that separates a row's two witnesses.
# planar comes last because it is the costliest entry: a non-planar sum
# is minimised to a K5/K3,3 witness.  Each check names its function at call time, so a
# wrapper installed over the module global sees every call.
INVARIANTS: dict[str, Invariant] = {
    "k4": Invariant("sum contains K4", lambda g: contains_k4(g) is not None),
    "bipartite": Invariant("sum is bipartite", lambda g: is_bipartite(g).bipartite),
    "cut-vertex": Invariant("sum has a cut vertex", lambda g: bool(cut_vertices(g))),
    "p4-neighborhood": Invariant(
        "some neighbourhood induces a 4-path", lambda g: has_p4_neighborhood_vertex(g) is not None
    ),
    "connected": Invariant("sum is connected", lambda g: len(connected_components(g)) == 1),
    "planar": Invariant("sum is planar", lambda g: is_planar(g).planar),
    "connectivity": Invariant("sum components", lambda g: len(connected_components(g)), valued=True),
    "complement-class": Invariant(  # the complement's 2-factor type, or "none"
        "complement of the sum", lambda g: str(recognize_two_factor(complement(g)) or "none"), valued=True
    ),
    "triangle-max": Invariant(
        "most triangles among nine vertices", lambda g: max_triangle_subset(g, 9)[0], valued=True
    ),
}


def invariant_value(g: Graph, name: str) -> object:
    if name not in INVARIANTS:
        raise ValueError(f"unknown invariant {name!r}")
    return INVARIANTS[name].check(g)


def _check_declared(declared: Mapping[str, bool]) -> None:
    """Raise ValueError unless each key is a yes/no invariant, each value a bool."""
    for name, want in declared.items():
        if name not in INVARIANTS:
            raise ValueError(f"unknown invariant {name!r}")
        if INVARIANTS[name].valued:
            raise ValueError(f"invariant {name!r} is valued, not yes/no; it cannot be declared")
        if not isinstance(want, bool):
            raise ValueError(f"invariant {name!r} must be declared True or False, got {want!r}")


def satisfies(g: Graph, declared: Mapping[str, bool]) -> bool:
    """True iff g has every declared {invariant name: value}, checked in
    INVARIANTS order, so planar, the costliest check, runs last.  Only
    yes/no invariants can be declared, and only as True or False.

    Every filter (search leaves, fixtures, ladders) settles planarity
    here by one rule, on verdicts networkx proposes and the package
    checks.  planar=True is accepted only when proven_planar proves it,
    and otherwise rejected with no witness: a filter claims nothing
    about the sums it rejects.  planar=False goes through is_planar, so
    every accepted non-planar sum has a checked K5 or K3,3 witness.  A
    proposal that fails its check raises RuntimeError (exit 2).
    """
    _check_declared(declared)

    def holds(name: str) -> bool:
        # planar=True is accepted on proof alone; a rejected sum needs no witness
        if name == "planar" and declared[name]:
            return proven_planar(g)
        return invariant_value(g, name) == declared[name]

    return all(holds(name) for name in INVARIANTS if name in declared)


def first_distinguishing_invariant(g1: Graph, g2: Graph) -> tuple[str, bool, bool] | None:
    """First yes/no invariant, in INVARIANTS order, that separates the
    two graphs, if any; planar, tried last, is reached only when no
    cheaper invariant separates them."""
    for name in (name for name, inv in INVARIANTS.items() if not inv.valued):
        v1, v2 = invariant_value(g1, name), invariant_value(g2, name)
        if v1 != v2:
            return name, v1, v2
    return None


@dataclass(frozen=True)
class CensusRow:
    cycle_type: CycleType
    theorem: Verdict
    oracle: Verdict
    agree: bool
    class_count: int
    exhausted: bool
    reduced_leaves: int
    raw_leaves: int | None
    certificate: str | None
    seconds: float


@dataclass(frozen=True)
class CensusReport:
    n_max: int
    rows: tuple[CensusRow, ...]
    disagreements: int


def partitions_with_min_part(n: int, min_part: int = 3) -> list[tuple[int, ...]]:
    """All multisets of parts >= min_part summing to n, ascending, lex order."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, least: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(least, remaining + 1):
            rest = remaining - part
            if rest == 0 or rest >= part:
                rec(rest, part, acc + (part,))

    rec(n, min_part, ())
    return out


def census_types(n_max: int) -> list[CycleType]:
    """Every cycle type with 3 <= total <= n_max, ordered by total then parts."""
    types = []
    for n in range(3, n_max + 1):
        for parts in partitions_with_min_part(n):
            types.append(CycleType(parts))
    return types


def _census_row(ct: CycleType) -> CensusRow:
    """One census row; any failure inside it names the cycle type."""
    try:
        return _compute_census_row(ct)
    except Exception as exc:
        raise RuntimeError(f"census row {ct.render()} failed: {exc!r}") from exc


def _compute_census_row(ct: CycleType) -> CensusRow:
    start = time.perf_counter()
    theo = classify_by_theorem(ct)
    orac = classify_by_oracle(ct)
    certificate = None
    if len(orac.witnesses) == 2:
        s1 = make_sum(orac.witnesses[0]).sum
        s2 = make_sum(orac.witnesses[1]).sum
        sep = first_distinguishing_invariant(s1, s2)
        certificate = (
            f"{sep[0]}: {sep[1]} vs {sep[2]}" if sep is not None else "canonical only"
        )
    return CensusRow(
        cycle_type=ct,
        theorem=theo.verdict,
        oracle=orac.verdict,
        agree=theo.verdict == orac.verdict,
        class_count=orac.class_count or 0,
        exhausted=bool(orac.exhausted),
        reduced_leaves=orac.reduced_leaves or 0,
        raw_leaves=orac.raw_leaves,
        certificate=certificate,
        seconds=time.perf_counter() - start,
    )


def census(n_max: int, *, jobs: int = 1) -> CensusReport:
    """Theorem-vs-oracle comparison across every cycle type up to n_max vertices.

    n_max runs from 3 to _CANON_MAX (24), the limit of oracle
    classification, with no override; anything else is refused before the
    first row.  The soft limit 14 bounds only searches that can visit
    every leaf, and 18 only triangle-max.  jobs worker processes share the
    rows; more than os.cpu_count() are never started.  A worker that dies
    outright fails the census naming the first row whose result was lost.
    """
    if not 3 <= n_max <= _CANON_MAX:
        raise ValueError(f"census n_max must be between 3 and {_CANON_MAX}, got {n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    types = census_types(n_max)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        done: list[CensusRow] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            try:
                done.extend(pool.map(_census_row, types))
            except BrokenProcessPool as exc:
                lost = types[len(done)].render()
                raise RuntimeError(f"census row {lost} failed: a worker process died") from exc
        rows = tuple(done)
    else:
        rows = tuple(_census_row(ct) for ct in types)
    disagreements = sum(1 for r in rows if not r.agree)
    return CensusReport(n_max=n_max, rows=rows, disagreements=disagreements)
