"""Exhaustive self-embedding search and the classification it certifies.

The enumerator assigns images vertex by vertex in label order and prunes
a branch the moment a fully-mapped edge lands on an edge of the host
graph, so no invalid permutation is ever visited.  Visitation order is
deterministic (ascending candidate images).

For a canonically realized union of cycles the search can quotient away
the host's automorphisms ("reduced" mode): within each cycle block the
first vertex must receive the smallest image of its block and the second
vertex a smaller image than the last one, and equal-length blocks must
receive images with ascending minima.  Each edge-disjoint image edge set
is then visited through exactly one permutation, which divides the raw
count by the automorphism order without affecting the set of sum
isomorphism classes.

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
from .graph import Graph, Permutation, analyze_connectivity, bits, complement, connected_components
from .invariants import (
    canonical_form,
    contains_k4,
    has_p4_neighborhood_vertex,
    is_bipartite,
    is_planar,
    max_triangle_subset,
)

SOFT_VERTEX_LIMIT = 14
CENSUS_LIMIT = 14  # largest n_max a census runs without the override
_ENV_OVERRIDE = "CYCLEPACK_ALLOW_LARGE"

NOT_EMBEDDABLE_TYPES = {(3,), (4,), (3, 3)}
UNIQUE_TYPES = {(5,), (6,), (3, 4), (3, 5), (3, 3, 3), (3, 3, 3, 3)}


def _large_allowed(allow_large: bool) -> bool:
    return allow_large or bool(os.environ.get(_ENV_OVERRIDE))


class Verdict(str, Enum):
    NOT_EMBEDDABLE = "not-embeddable"
    UNIQUE = "uniquely-embeddable"
    MULTIPLE = "multiply-embeddable"


@dataclass(frozen=True)
class SearchConstraints:
    """Leaf filters (tri-state: True/False/None=don't care) and stop rules."""

    require_k4: bool | None = None
    require_planar: bool | None = None
    require_connected: bool | None = None
    limit: int | None = None
    class_limit: int | None = None

    def is_exhaustive(self) -> bool:
        return self.limit is None and self.class_limit is None

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


def _reduction_bounds(ct: CycleType) -> list[int | None]:
    """lb[v] = earlier vertex whose image must stay below image[v], else None."""
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
    allow_large: bool = False,
) -> SearchOutcome:
    """Backtracking enumeration of all self-embeddings of g.

    visit(e) is called for each embedding passing the constraints; a
    False return stops the search.  reduced=True requires g to be the
    canonical realization of its cycle type and then visits one
    permutation per image edge set.
    """
    constraints = constraints or SearchConstraints()
    declared = constraints.declared()
    if constraints.is_exhaustive() and g.n > SOFT_VERTEX_LIMIT and not _large_allowed(allow_large):
        raise ValueError(
            f"exhaustive enumeration of n={g.n} exceeds the soft limit "
            f"{SOFT_VERTEX_LIMIT}; pass allow_large=True or set {_ENV_OVERRIDE}=1"
        )
    lb: list[int | None] = [None] * g.n
    if reduced:
        ct = recognize_two_factor(g)
        if ct is None or realize(ct) != g:
            raise ValueError("reduced mode requires the canonical realization of a cycle type")
        lb = _reduction_bounds(ct)

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

    def rec(v: int, used: int) -> bool:
        if v == n:
            return leaf()
        allowed = full & ~used
        for u in nbrs_before[v]:
            allowed &= ~adj[image[u]]
        b = lb[v]
        if b is not None:
            allowed &= -(2 << image[b])
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            w = low.bit_length() - 1
            image[v] = w
            if not rec(v + 1, used | low):
                return False
        return True

    if not rec(0, 0):
        out.exhausted = False
    return out


def find_embedding(
    g: Graph,
    constraints: SearchConstraints | None = None,
    *,
    reduced: bool = False,
) -> Embedding | None:
    """First embedding in deterministic search order satisfying the constraints."""
    base = constraints or SearchConstraints()
    limited = replace(base, limit=1, class_limit=None)
    hit: list[Embedding] = []
    enumerate_embeddings(g, limited, visit=hit.append, reduced=reduced)
    return hit[0] if hit else None


def sum_classes(
    g: Graph,
    *,
    reduced: bool | None = None,
    class_limit: int | None = None,
    allow_large: bool = False,
) -> SearchOutcome:
    """Isomorphism classes of packing sums with one witness embedding each.

    Exhausts the embedding space unless class_limit stops it early; the
    classes dict maps canonical forms to first-found witnesses in
    deterministic order.  reduced=None picks reduced mode automatically
    when g is a canonical cycle-type realization.
    """
    if reduced is None:
        ct = recognize_two_factor(g)
        reduced = ct is not None and realize(ct) == g
    constraints = SearchConstraints(class_limit=class_limit)
    return enumerate_embeddings(
        g, constraints, reduced=reduced, track_classes=True, allow_large=allow_large
    )


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


def classify_by_oracle(ct: CycleType, *, allow_large: bool = False) -> Classification:
    """Verdict by exhaustive (reduced) search, stopping once two distinct
    sum classes are witnessed."""
    if ct.total > SOFT_VERTEX_LIMIT and not _large_allowed(allow_large):
        raise ValueError(
            f"oracle classification of {ct} (n={ct.total}) exceeds the soft limit; "
            f"set {_ENV_OVERRIDE}=1 to override"
        )
    g = realize(ct)
    out = sum_classes(g, class_limit=2, allow_large=True)
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
# on, declared with or certified by.  The yes/no ones come cheapest
# first; satisfies checks in this order.  Each check names its function
# at call time, so a wrapper installed over the module global sees every
# call.
INVARIANTS: dict[str, Invariant] = {
    "connected": Invariant("sum is connected", lambda g: len(connected_components(g)) == 1),
    "cut-vertex": Invariant("sum has a cut vertex", lambda g: bool(analyze_connectivity(g)[1])),
    "bipartite": Invariant("sum is bipartite", lambda g: is_bipartite(g).bipartite),
    "k4": Invariant("sum contains K4", lambda g: contains_k4(g) is not None),
    "p4-neighborhood": Invariant(
        "some neighbourhood induces a 4-path", lambda g: has_p4_neighborhood_vertex(g) is not None
    ),
    "planar": Invariant("sum is planar", lambda g: is_planar(g).planar),
    "connectivity": Invariant("sum components", lambda g: len(connected_components(g)), valued=True),
    "complement-class": Invariant(  # the complement's 2-factor type, or "none"
        "complement of the sum", lambda g: str(recognize_two_factor(complement(g)) or "none"), valued=True
    ),
    "triangle-max": Invariant(
        "most triangles among nine vertices", lambda g: max_triangle_subset(g, 9)[0], valued=True
    ),
}

# certificate order; census certificate strings depend on it
_INVARIANT_ORDER = ("k4", "bipartite", "planar", "cut-vertex", "p4-neighborhood")


def invariant_value(g: Graph, name: str) -> object:
    if name not in INVARIANTS:
        raise ValueError(f"unknown invariant {name!r}")
    return INVARIANTS[name].check(g)


def satisfies(g: Graph, declared: Mapping[str, bool]) -> bool:
    """True iff g has every declared {invariant name: value}, checked in
    INVARIANTS order so the cheap checks reject first.  Only yes/no
    invariants can be declared."""
    for name in declared:
        if name not in INVARIANTS:
            raise ValueError(f"unknown invariant {name!r}")
        if INVARIANTS[name].valued:
            raise ValueError(f"invariant {name!r} is valued, not yes/no; it cannot be declared")
    return all(invariant_value(g, name) == declared[name] for name in INVARIANTS if name in declared)


def first_distinguishing_invariant(g1: Graph, g2: Graph) -> tuple[str, bool, bool] | None:
    """First invariant in fixed order that separates the two graphs, if any."""
    for name in _INVARIANT_ORDER:
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
    orac = classify_by_oracle(ct, allow_large=True)
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


def census(n_max: int, *, jobs: int = 1, allow_large: bool = False) -> CensusReport:
    """Theorem-vs-oracle comparison across every cycle type up to n_max vertices.

    jobs worker processes share the rows; more than os.cpu_count() are
    never started.  A worker that dies outright fails the census naming
    the first row whose result was lost.
    """
    if n_max > CENSUS_LIMIT and not _large_allowed(allow_large):
        raise ValueError(f"census beyond n_max={CENSUS_LIMIT} needs {_ENV_OVERRIDE}=1")
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
